"""Reference optimizers and the infinite-buffer cost model.

Variants:
  flex-ga / fixed-ga  all-I start, greedy addition of single P-edges (plus
                      symmetric reverse pairs for the flexible buffer)
  flex-lm-i           all-I start plus the landmark P-edges, greedy add
                      then greedy subtract
  inf-lm              landmark structure costed under an infinite buffer
                      where every previously transmitted MDU is a free
                      predictor and revisits are free

flex-ga, fixed-ga and flex-lm-i all run on refine's one greedy engine
(`greedy_search`): flex-ga scans add-edge then add-pair moves, fixed-ga
add-edge moves, and flex-lm-i goes through greedy_refine (add-edge) and
then greedy_subtract's remove-edge search, started from the cost that
greedy_refine's log holds.  All three honour `enable_pruning`, so the
engine's request bound prunes their moves, and each takes its final exact
cost from the engine's log instead of evaluating the result again.

flex-lm-i and inf-lm plan their landmarks with `landmarks.landmark_structure`
on the caller's Scenario, so they read the q its `switch_probs` caches.

inf-lm's exact cost runs the evaluators' level pass (`evaluate._level_pass`)
over states (prev, cur, avail), `avail` an int bitmask of the MDUs sent so
far.  More than `max_states` reachable states are refused before any is
valued; the baseline then reports the Monte-Carlo estimate and logs at INFO
which cost it used.  Both paths list a request's options with the lister
from `_inf_options`; the exact pass reads `Scenario.followed_rows` and the
estimate draws its sessions from `scenario.sample_sessions`.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

from .costs import (
    SizeTable,
    Structure,
    all_i_structure,
    storage_cost,
    zero_hop_sources,
)
from .errors import InvalidInputError, OracleRefusalError
from .evaluate import CostTables, _level_pass
from .landmarks import landmark_structure
from .refine import (
    RefinerParams,
    RefineLog,
    TradeoffRow,
    add_edges,
    add_reverse_pairs,
    greedy_refine,
    greedy_search,
    remove_edges,
)
from .scenario import START, Scenario, sample_sessions

logger = logging.getLogger(__name__)

VARIANTS = ("flex-ga", "fixed-ga", "flex-lm-i", "inf-lm")

_INF_MAX_STATES = 200_000
_INF_ESTIMATE_SESSIONS = 20_000


@dataclass
class BaselineResult:
    variant: str
    structure: Structure
    expected_cost: float
    storage_bits: float
    log: RefineLog | None = None


def _from_buffer(avail: int, into_j: list) -> float:
    """Cheapest 1-hop into a target from a predictor in the mask `avail`."""
    best = math.inf
    for l, c in into_j:
        if c < best and avail >> l & 1:
            best = c
    return best


def _inf_options(scenario: Scenario, sizes: SizeTable, structure: Structure):
    """The zero-hop sources of each MDU and the infinite buffer's option lister.

    sources[j] lists j's zero-hop sources as (bits, mask).  options(cur,
    avail, j) lists every way to send target j to a client holding the MDU
    mask `avail` as (bits, next mask, None).  A target in `avail` costs
    nothing and keeps the mask.  Otherwise the order is the tie order of
    both infinite-buffer paths: each zero-hop source, then the cheapest
    1-hop from a predictor in `avail`, then a 2-hop through each stored
    predictor `mid` of j that is not in `avail` but has a predictor there.
    """
    n = scenario.graph.n
    tables = CostTables(structure, sizes, n)
    sources = [
        [(c, sum(1 << m for m in src)) for c, src in zero_hop_sources(structure, sizes, j)]
        for j in range(n)
    ]
    into = [[(l, tables.r_p[(l, j)]) for l in tables.preds[j]] for j in range(n)]

    def options(_cur: int, avail: int, j: int) -> list:
        jbit = 1 << j
        if avail & jbit:
            return [(0.0, avail, None)]
        opts = [(c, avail | m, None) for c, m in sources[j]]
        if (hop := _from_buffer(avail, into[j])) < math.inf:
            opts.append((hop, avail | jbit, None))
        for mid, c2 in into[j]:
            if mid != j and not avail >> mid & 1:
                if (hop1 := _from_buffer(avail, into[mid])) < math.inf:
                    opts.append((hop1 + c2, avail | 1 << mid | jbit, None))
        return opts

    return sources, options


def inf_buffer_cost(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
    max_states: int = _INF_MAX_STATES,
) -> float:
    """Exact expected cost with an unbounded reference buffer.

    Any MDU transmitted earlier in the session is a free predictor and a
    free revisit, so a state is (prev, cur, avail), `avail` an int bitmask
    of transmitted MDUs, valued by `evaluate`'s level pass over the options
    of `_inf_options`; requests with zero probability are not followed.
    More than `max_states` reachable states in all is refused with
    `OracleRefusalError` before any state is valued, whatever the order.
    """
    sources, options = _inf_options(scenario, sizes, structure)
    s = scenario.graph.start
    values, _ = _level_pass(
        scenario, [(START, s, m) for _, m in sources[s]], scenario.followed_rows,
        options, None, logger, "infinite-buffer", max_states,
    )
    w1 = scenario.lifetime.g(1) if weight_first_switch else 1.0
    return min(c + w1 * values[(START, s, m)] for c, m in sources[s])


def inf_buffer_estimate(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    n_sessions: int = _INF_ESTIMATE_SESSIONS,
    seed: int = 0,
) -> float:
    """Monte-Carlo myopic estimate of the infinite-buffer cost.

    Each request takes the first cheapest of `_inf_options` along sessions
    from `sample_sessions`, whose lengths follow the renormalised lifetime
    pmf, not the g-products of `inf_buffer_cost`, so this is no bound on
    that value.  Used where the exact pass refuses.  Sessions repeat
    requests, so each distinct (cur, avail, j) is picked once per call.
    """
    sources, options = _inf_options(scenario, sizes, structure)
    s = scenario.graph.start
    first = min(sources[s], key=lambda cm: cm[0])
    picks = {}  # (cur, avail, j) -> its first cheapest option's (bits, next mask)
    total = 0.0
    for targets in sample_sessions(scenario, n_sessions, seed):
        bits, avail = first
        for i, j in zip([s, *targets], targets):
            if (pick := picks.get((i, avail, j))) is None:
                best, nxt, _ = min(options(i, avail, j), key=lambda opt: opt[0])
                pick = picks[(i, avail, j)] = best, nxt
            best, avail = pick
            bits += best
        total += bits
    return total / n_sessions


def run_baseline(
    scenario: Scenario,
    sizes: SizeTable,
    params: RefinerParams,
    variant: str,
) -> BaselineResult:
    if variant not in VARIANTS:
        raise InvalidInputError(
            f"unknown baseline variant {variant!r}; pick one of {VARIANTS}"
        )
    n = scenario.graph.n
    if variant == "inf-lm":
        lm = landmark_structure(scenario, sizes, params.lam)
        try:
            cost = inf_buffer_cost(scenario, sizes, lm)
        except OracleRefusalError as exc:
            cost = inf_buffer_estimate(scenario, sizes, lm)
            logger.info(
                "inf-lm cost: Monte-Carlo estimate %r over %d sessions after "
                "the exact pass refused: %s",
                cost, _INF_ESTIMATE_SESSIONS, exc,
            )
        else:
            logger.info("inf-lm cost: exact infinite-buffer cost %r", cost)
        return BaselineResult(
            variant=variant,
            structure=lm,
            expected_cost=cost,
            storage_bits=storage_cost(lm, sizes),
        )
    buffer = "fixed" if variant == "fixed-ga" else "flex"
    run = replace(params, buffer=buffer)
    if variant == "flex-lm-i":
        lm = landmark_structure(scenario, sizes, params.lam)
        init = replace(lm, i_set=frozenset(range(n)))
        added, log_add = greedy_refine(scenario, sizes, init, run)
        final, log_sub = greedy_search(
            scenario, sizes, added, run, (remove_edges,), log_add.expected_cost
        )
        log = RefineLog(
            steps=log_add.steps + [(it, e, j) for it, (e,), j in log_sub.steps],
            candidates_total=log_add.candidates_total + log_sub.candidates_total,
            candidates_pruned=log_add.candidates_pruned + log_sub.candidates_pruned,
            candidates_skipped=log_add.candidates_skipped
            + log_sub.candidates_skipped,
            expected_cost=log_sub.expected_cost,
        )
    else:
        moves = (add_edges, add_reverse_pairs) if buffer == "flex" else (add_edges,)
        final, log = greedy_search(scenario, sizes, all_i_structure(n), run, moves)
    return BaselineResult(
        variant=variant,
        structure=final,
        expected_cost=log.expected_cost,
        storage_bits=storage_cost(final, sizes),
        log=log,
    )


def emit_tradeoff_csv(rows: list[tuple[str, TradeoffRow]], path) -> None:
    """CSV of (method, lambda, storage, transmission, landmark/edge counts)."""
    if not rows:
        raise InvalidInputError("no tradeoff rows to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "lambda", "storage_bits", "expected_bits",
             "landmarks", "p_edges"]
        )
        for method, row in rows:
            writer.writerow(
                [method, repr(float(row.lam)), repr(float(row.storage_bits)),
                 repr(float(row.expected_bits)), row.landmarks, row.p_edges]
            )
