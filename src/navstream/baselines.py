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
greedy_subtract (remove-edge).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .costs import (
    SizeTable,
    Structure,
    all_i_structure,
    storage_cost,
    zero_hop_sources,
)
from .errors import InvalidInputError, OracleRefusalError
from .evaluate import CostTables, evaluate
from .landmarks import PlannerParams, build_initial_structure, tsvq
from .refine import (
    RefinerParams,
    RefineLog,
    TradeoffRow,
    add_edges,
    add_reverse_pairs,
    greedy_refine,
    greedy_search,
    greedy_subtract,
)
from .scenario import START, Scenario, aggregate_switch_probabilities, session_tables

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


def _landmark_structure(
    scenario: Scenario, sizes: SizeTable, lam: float
) -> Structure:
    q = aggregate_switch_probabilities(
        scenario.graph, scenario.nav, scenario.lifetime
    )
    planner = PlannerParams(w=lam / scenario.lifetime.mu, q=q)
    parts = tsvq(scenario.graph, sizes, planner)
    return build_initial_structure(parts, sizes)


def inf_buffer_cost(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
    max_states: int = _INF_MAX_STATES,
) -> float:
    """Exact expected cost with an unbounded reference buffer.

    Any MDU transmitted earlier in the session is a free predictor and a
    free revisit.  The state carries the transmitted set, so this is only
    viable on small instances; larger ones are refused.
    """
    graph, nav, lt = scenario.graph, scenario.nav, scenario.lifetime
    tables = CostTables(structure, sizes, graph.n)
    r_p, preds = tables.r_p, tables.preds
    sources = [zero_hop_sources(structure, sizes, j) for j in range(graph.n)]
    g = lt.g

    memo: dict[tuple, float] = {}

    def cost(t: int, k: int, i: int, avail: frozenset) -> float:
        key = (t, k, i, avail)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if len(memo) > max_states:
            raise OracleRefusalError(
                f"infinite-buffer recursion exceeds {max_states} states"
            )
        g_next = g(t + 1)
        total = 0.0
        for j in graph.neighbors[i]:
            p = nav.prob(k, i, j)
            if p <= 0.0:
                continue

            def cont(nxt: frozenset) -> float:
                if g_next <= 0.0:
                    return 0.0
                return g_next * cost(t + 1, i, j, nxt)

            if j in avail:
                best = cont(avail)
            else:
                best = math.inf
                for src_cost, src in sources[j]:
                    v = src_cost + cont(avail | src)
                    if v < best:
                        best = v
                for l in avail:
                    v1 = r_p.get((l, j))
                    if v1 is not None:
                        v = v1 + cont(avail | {j})
                        if v < best:
                            best = v
                for mid in preds[j]:
                    if mid == j or mid in avail:
                        continue  # mid in avail is covered by 1-hop above
                    hop1 = min(
                        (r_p[(l, mid)] for l in avail if (l, mid) in r_p),
                        default=math.inf,
                    )
                    if math.isinf(hop1):
                        continue
                    v = hop1 + r_p[(mid, j)] + cont(avail | {mid, j})
                    if v < best:
                        best = v
            total += p * best
        memo[key] = total
        return total

    s = graph.start
    w1 = g(1) if weight_first_switch else 1.0
    best = math.inf
    for src_cost, src in sources[s]:
        v = src_cost + w1 * cost(0, START, s, src)
        if v < best:
            best = v
    return best


def inf_buffer_estimate(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    n_sessions: int = _INF_ESTIMATE_SESSIONS,
    seed: int = 0,
) -> float:
    """Monte-Carlo myopic estimate of the infinite-buffer cost.

    Greedy per-request choices make this an upper bound on the exact
    infinite-buffer optimum; used where the exact recursion refuses.
    """
    graph = scenario.graph
    tables = CostTables(structure, sizes, graph.n)
    r_p, preds = tables.r_p, tables.preds
    sources = [zero_hop_sources(structure, sizes, j) for j in range(graph.n)]
    rng = np.random.default_rng(seed)
    rows, lifetime_cdf = session_tables(scenario)

    total = 0.0
    s = graph.start
    for _ in range(n_sessions):
        src_cost, src = min(sources[s], key=lambda cs: cs[0])
        bits = src_cost
        avail = set(src)
        k, i = START, s
        t_total = int(np.searchsorted(lifetime_cdf, rng.random()))
        for t in range(t_total):
            row = rows.get((k, i))
            if row is None:
                break
            targets, cdf = row
            j = targets[int(np.searchsorted(cdf, rng.random() * cdf[-1]))]
            if j not in avail:
                best, best_new = math.inf, frozenset()
                for c0, src0 in sources[j]:
                    if c0 < best:
                        best, best_new = c0, src0
                for l in avail:
                    v1 = r_p.get((l, j))
                    if v1 is not None and v1 < best:
                        best, best_new = v1, frozenset([j])
                for mid in preds[j]:
                    if mid == j or mid in avail:
                        continue
                    hop1 = min(
                        (r_p[(l, mid)] for l in avail if (l, mid) in r_p),
                        default=math.inf,
                    )
                    v = hop1 + r_p[(mid, j)]
                    if v < best:
                        best, best_new = v, frozenset([mid, j])
                bits += best
                avail |= best_new
            k, i = i, j
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
        lm = _landmark_structure(scenario, sizes, params.lam)
        try:
            cost = inf_buffer_cost(scenario, sizes, lm)
        except OracleRefusalError:
            cost = inf_buffer_estimate(scenario, sizes, lm)
        return BaselineResult(
            variant=variant,
            structure=lm,
            expected_cost=cost,
            storage_bits=storage_cost(lm, sizes),
        )
    if variant == "flex-lm-i":
        buffer = "flex"
        lm = _landmark_structure(scenario, sizes, params.lam)
        init = replace(lm, i_set=frozenset(range(n)))
        run = RefinerParams(
            lam=params.lam, buffer=buffer, enable_pruning=params.enable_pruning
        )
        added, log_add = greedy_refine(scenario, sizes, init, run)
        final, log_sub = greedy_subtract(scenario, sizes, added, run)
        log = RefineLog(
            steps=log_add.steps + log_sub.steps,
            candidates_total=log_add.candidates_total + log_sub.candidates_total,
            candidates_pruned=log_add.candidates_pruned + log_sub.candidates_pruned,
            candidates_skipped=log_add.candidates_skipped
            + log_sub.candidates_skipped,
        )
    else:
        buffer = "flex" if variant == "flex-ga" else "fixed"
        run = RefinerParams(lam=params.lam, buffer=buffer, enable_pruning=False)
        moves = (add_edges, add_reverse_pairs) if buffer == "flex" else (add_edges,)
        final, log = greedy_search(scenario, sizes, all_i_structure(n), run, moves)
    return BaselineResult(
        variant=variant,
        structure=final,
        expected_cost=evaluate(scenario, sizes, final, buffer).expected_cost,
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
