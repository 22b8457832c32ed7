"""Reference optimizers and the infinite-buffer cost model.

Variants:
  flex-ga / fixed-ga  all-I start, greedy addition of single P-edges (plus
                      symmetric reverse pairs for the flexible buffer)
  flex-lm-i           all-I start plus the landmark P-edges, greedy add
                      then greedy subtract
  inf-lm              landmark structure costed under an infinite buffer
                      where every previously transmitted MDU is a free
                      predictor and revisits are free

flex-ga, fixed-ga and flex-lm-i are each one call of refine's greedy engine
(`greedy_search`): flex-ga scans add-edge then add-pair moves, fixed-ga
add-edge moves, and flex-lm-i runs an add-edge phase and then a remove-edge
phase, so its added structure is evaluated once.  All three honour
`enable_pruning`, so the engine's request bound prunes their moves, and
each takes its final exact cost from the engine's log instead of evaluating
the result again.

flex-lm-i and inf-lm plan their landmarks with `landmarks.landmark_structure`
on the caller's Scenario, so they read the q its `switch_probs` caches.

inf-lm's exact cost runs `evaluate.level_pass`, the level core of the fixed
and flexible buffers, over states (prev, cur, avail) held as uint64 rows:
the (prev, cur) pair's `Scenario.pair_index` id, then `avail`, the MDUs
sent so far, as ceil(n/64) mask words.  The core refuses more than
`max_states` reachable states as soon as its running count passes that,
before any state is valued; the baseline then reports the Monte-Carlo
estimate and logs at INFO which cost it used.  The level lines go to DEBUG
on this module's logger.  One vectorised lister, `_Lister`, gives a
request's options in tie order to both the exact pass and the estimate,
which draws its sessions on arrays with `scenario.sample_targets` and
advances them all one switch at a time.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import CostTables, SizeTable, Structure, all_i_structure, storage_cost
from .errors import InvalidInputError, OracleRefusalError, open_output
from .evaluate import level_pass
from .landmarks import landmark_structure
from .refine import (
    ADD_EDGE,
    ADD_PAIR,
    REMOVE_EDGE,
    RefinerParams,
    RefineLog,
    TradeoffRow,
    greedy_search,
    one_edge_steps,
)
from .scenario import Scenario, left_sum, sample_targets

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


class _Lister:
    """The infinite buffer's options, listed for many requests at once.

    A mask of held MDUs is ceil(n/64) uint64 words, MDU m in bit m % 64 of
    word m // 64.  `options(pair, avail, j)` takes masks avail[r] and
    targets j[r] and returns every request's options as a (rows, K) array
    of immediate bits, +inf where a slot holds no option, no action codes,
    and the next masks of any (request, slot): slot k of target j sends the
    MDUs `add[j, k]`, so it leads to the mask avail[r] | add[j[r], k].  The
    slots are in the tie order of both infinite-buffer paths:

    - a held target: 0 bits, and it sends nothing; then no other option;
    - each of j's zero-hop sources in `CostTables.source_bits`' column j:
      the bare I-MDU first, then the combos by ascending l;
    - the cheapest 1-hop from a held predictor of j;
    - per stored predictor `mid` of j, ascending, that is not held but has a
      held predictor: the cheapest such 2-hop through `mid`.

    The `roots` are the start MDU's zero-hop sources to an empty mask, as
    rows [pair 0, mask words...], and `root_bits` their bits.
    """

    pack = None  # mask words use all 64 bits: rows are hashed

    def __init__(self, scenario: Scenario, sizes: SizeTable, structure: Structure):
        n = scenario.graph.n
        tables = CostTables(structure, sizes, n)
        # the zero-hop sources (l, j), by j: the bare I-MDU l = j, then by l
        j, l = np.nonzero(tables.source_bits.T < math.inf)
        order = np.lexsort((l != j, j))
        j, l = j[order], l[order]
        slot = np.arange(len(j)) - np.searchsorted(j, j)
        n_src = slot.max() + 1
        self.pred, self.pred_bits = tables.pred_table
        self.words = -(-n // 64)
        m = np.arange(n)
        onehot = np.zeros((n, self.words), dtype=np.uint64)
        onehot[m, m // 64] = np.uint64(1) << (m % 64).astype(np.uint64)
        self.src_bits = np.full((n, n_src), math.inf)
        self.src_bits[j, slot] = tables.source_bits[l, j]
        # slots: held target, sources, 1-hop, one 2-hop per stored predictor
        n_slots = 2 + n_src + self.pred.shape[1]
        self.add = np.zeros((n, n_slots, self.words), dtype=np.uint64)
        self.add[j, 1 + slot] = onehot[l] | onehot[j]
        self.add[:, 1 + n_src:] = onehot[:, None]
        self.add[:, 2 + n_src:] |= onehot[self.pred]  # a padding slot is never sent
        empty = np.zeros((1, self.words), dtype=np.uint64)
        bits, _, after = self.options(None, empty, np.array([scenario.graph.start]))
        (ks,) = np.nonzero(bits[0] < math.inf)
        self.roots = np.zeros((len(ks), 1 + self.words), dtype=np.uint64)
        self.roots[:, 1:] = after(np.zeros_like(ks), ks)
        self.root_bits = bits[0, ks]

    @staticmethod
    def _held(avail: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Whether mask avail[r] holds MDU x[r, d], for x of shape (rows, D)."""
        words = np.take_along_axis(avail, x // 64, axis=1)
        return (words >> (x % 64).astype(np.uint64) & np.uint64(1)).astype(bool)

    def _hop(self, avail: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The cheapest 1-hop into each x[r] from a predictor held in avail[r]."""
        held = self._held(avail, self.pred[x])
        return np.where(held, self.pred_bits[x], math.inf).min(axis=1, initial=math.inf)

    def options(self, pair, avail: np.ndarray, j: np.ndarray):
        """The (rows, K) bits of every slot for masks avail[r] and targets j[r],
        no action codes, and the next masks of any (request, slot)."""
        n_src = self.src_bits.shape[1]
        held = self._held(avail, j[:, None])[:, 0]
        out = np.empty((len(j), self.add.shape[1]))
        out[:, 0] = np.where(held, 0.0, math.inf)
        out[:, 1:1 + n_src] = self.src_bits[j]
        out[:, 1 + n_src] = self._hop(avail, j)
        mid = self.pred[j]
        two = np.full(mid.shape, math.inf)
        r, d = np.nonzero((self.pred_bits[j] < math.inf) & ~self._held(avail, mid))
        two[r, d] = self._hop(avail[r], mid[r, d]) + self.pred_bits[j[r], d]
        out[:, 2 + n_src:] = two
        out[held, 1:] = math.inf
        return out, None, lambda r, k: avail[r] | self.add[j[r], k]


def inf_buffer_cost(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
    max_states: int = _INF_MAX_STATES,
) -> float:
    """Exact expected cost with an unbounded reference buffer.

    Any MDU transmitted earlier in the session is a free predictor and a
    free revisit, so a state is (prev, cur, avail), `avail` the mask of
    transmitted MDUs, and a request's options are `_Lister`'s.  The
    `evaluate.level_pass` core runs over the followed requests of
    `Scenario.pair_index`.  Its forward pass collects each level's distinct
    states (t = 0 up to the last t with g(t) > 0), a chunk of states at a
    time, and logs each level's size at DEBUG.  More than
    `max_states` states in all raise `OracleRefusalError` as soon as the
    running count passes it, before any state is valued.  A backward pass
    then values the states from the last level down: a request takes the
    minimum of imm + g(t+1)·V(next), or just imm once g(t+1) = 0, and each
    state adds p · that minimum over its requests in graph order.
    """
    lister = _Lister(scenario, sizes, structure)
    weights, index = scenario.lifetime.weights(weight_first_switch), scenario.pair_index
    return level_pass(index, weights, lister, logger, "infinite-buffer", max_states)[0]


def inf_buffer_estimate(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    n_sessions: int = _INF_ESTIMATE_SESSIONS,
    seed: int = 0,
) -> float:
    """Monte-Carlo myopic estimate of the infinite-buffer cost.

    Each request takes the first cheapest of `_Lister`'s options along
    sessions from `sample_targets`, whose lengths follow the renormalised
    lifetime pmf, not the g-products of `inf_buffer_cost`, so this is no
    bound on that value.  Used where the exact pass refuses.  All sessions
    are drawn first, then advanced one switch at a time together.
    """
    lister = _Lister(scenario, sizes, structure)
    lengths, targets = sample_targets(scenario, n_sessions, seed)
    k = lister.root_bits.argmin()
    avail = np.tile(lister.roots[k, 1:], (n_sessions, 1))
    bits = np.full(n_sessions, lister.root_bits[k])
    for t in range(targets.shape[1]):
        at = np.flatnonzero(lengths > t)
        opts, _, after = lister.options(None, avail[at], targets[at, t])
        k = opts.argmin(axis=1)
        bits[at] += opts[np.arange(len(at)), k]
        avail[at] = after(np.arange(len(at)), k)
    return left_sum(bits.tolist()) / n_sessions


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
        final, log = greedy_search(
            scenario, sizes, init, run, (ADD_EDGE,), (REMOVE_EDGE,)
        )
        one_edge_steps(log)
    else:
        moves = (ADD_EDGE, ADD_PAIR) if buffer == "flex" else (ADD_EDGE,)
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
    with open_output("tradeoff", path, newline="") as fh:
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
