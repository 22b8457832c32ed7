"""Greedy structure refinement under the storage/transmission objective.

The objective is J = c + lam * b where c is the expected session
transmission cost of the current structure and b its stored bits.  One
engine, `greedy_search`, serves the refiner and the baselines: each
iteration scans its moves (add an edge, add a reverse pair, remove an
edge), prunes additions whose DP-free lower bound already exceeds the
incumbent, exactly evaluates the survivors, and commits the best strict
improvement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

from .costs import SizeTable, Structure, storage_cost
from .errors import InfeasibleStructureError, InvalidInputError
from .evaluate import CostTables, eval_fixed, eval_flexible
from .scenario import START, Scenario


@dataclass
class RefinerParams:
    lam: float
    buffer: str = "flex"
    enable_pruning: bool = True

    def __post_init__(self):
        if not 0.0 <= self.lam < math.inf:
            raise InvalidInputError("lambda must be finite and non-negative")
        if self.buffer not in ("fixed", "flex"):
            raise InvalidInputError(f"unknown buffer model {self.buffer!r}")


@dataclass
class RefineLog:
    steps: list = field(default_factory=list)  # (iteration, edge, J)
    candidates_total: int = 0
    candidates_pruned: int = 0
    candidates_skipped: int = 0  # edges provably outside every session plan

    @property
    def pruning_fraction(self) -> float:
        if self.candidates_total == 0:
            return 0.0
        return self.candidates_pruned / self.candidates_total


def _reachable_targets(scenario: Scenario) -> set[int]:
    """MDUs requestable within the charged switch horizon (t_max + 1)."""
    graph = scenario.graph
    frontier = {graph.start}
    targets: set[int] = set()
    for _ in range(scenario.lifetime.t_max + 1):
        frontier = {j for i in frontier for j in graph.neighbors[i]}
        new = frontier - targets
        targets |= frontier
        if not new:
            break
    return targets


class _EdgeFilter:
    """Exact test of whether an absent edge can enter any transmission plan.

    An edge that can't be used leaves the expected cost untouched and only
    adds storage, so it can never improve the objective and is skipped
    without an evaluation.  Usage cases for a new edge (i, j):
      1-hop             i can sit in the reference buffer
      2-hop second hop  i is reachable as an intermediate (some bufferable
                        predecessor has a stored edge into i)
      2-hop first hop   i bufferable and j already predicts some
                        requestable target
      0-hop combo       i has a stored I-MDU and the I+P+M combo beats the
                        current independent reconstruction of j
    Rebuild per committed edge: all sets depend on the incumbent.
    """

    def __init__(self, scenario: Scenario, sizes: SizeTable, structure: Structure):
        targets = _reachable_targets(scenario)
        hop_heads = {m for (m, j2) in structure.p_edges if j2 in targets}
        bufferable = {scenario.graph.start} | targets | hop_heads
        mid_ok = {
            m for (ref, m) in structure.p_edges if ref in bufferable
        }
        tables = CostTables(structure, sizes, scenario.graph.n)
        self.start = scenario.graph.start
        self.targets = targets
        self.hop_heads = hop_heads
        self.bufferable = bufferable
        self.mid_ok = mid_ok
        self.r_i = tables.r_i
        self.i_set = structure.i_set
        self.sizes = sizes

    def _improves_0hop(self, i: int, j: int) -> bool:
        if i not in self.i_set:
            return False
        sz = self.sizes
        return sz.i(i) + sz.p(i, j) + sz.m(j) < self.r_i[j]

    def relevant(self, i: int, j: int) -> bool:
        if j in self.targets:
            if i in self.bufferable or i in self.mid_ok:
                return True
            return self._improves_0hop(i, j)
        # the start MDU is always transmitted independently once
        if j == self.start and self._improves_0hop(i, j):
            return True
        return i in self.bufferable and j in self.hop_heads


def _objective_cost(scenario, sizes, structure, buffer: str) -> float:
    if buffer == "fixed":
        return eval_fixed(scenario, sizes, structure).expected_cost
    return eval_flexible(scenario, sizes, structure).expected_cost


# Relative slack on the prune test: the bound is often tight, and in 35 of 800
# random checks it came out above the exact cost, by up to 2.2e-16 relative.
_BOUND_SLACK = 1e-12


def request_weights(scenario: Scenario) -> list[float]:
    """W[j], the total DP weight of the requests for MDU j.

    Navigation does not depend on the structure, so a request at depth t
    (t = 0..t_max) weighs its path probability times g(1)...g(t) in c.
    """
    graph, nav, lt = scenario.graph, scenario.nav, scenario.lifetime
    weights = [0.0] * graph.n
    mass = {(START, graph.start): 1.0}  # weighted (prev, cur) mass at depth t
    for t in range(lt.t_max + 1):
        g_next, nxt = lt.g(t + 1), {}
        for (k, i), m in mass.items():
            for j in graph.neighbors[i]:
                w = m * nav.prob(k, i, j)
                weights[j] += w
                nxt[(i, j)] = nxt.get((i, j), 0.0) + g_next * w
        mass = nxt
    return weights


def lower_bound_cost(
    scenario: Scenario, sizes: SizeTable, structure: Structure, weights: list[float]
) -> float:
    """Expected cost of `structure` if each request took its cheapest option.

    The options are independent reconstruction or any stored P-edge into
    the target.  A 2-hop costs more than its own second hop and the fixed
    buffer's options are a subset, so this bounds c under both buffers.
    """
    tables = CostTables(structure, sizes, scenario.graph.n)
    cheapest = list(tables.r_i)
    for (l, j), v in tables.r_p.items():
        cheapest[j] = min(cheapest[j], v)
    start_cost = tables.r_i[scenario.graph.start]
    return sum((w * c for w, c in zip(weights, cheapest)), start_cost)


def add_edges(structure: Structure, n: int):
    """Moves that store one absent P-edge, in ascending (i, j) order."""
    for i in range(n):
        for j in range(n):
            if i != j and (i, j) not in structure.p_edges:
                yield ((i, j),)


def add_reverse_pairs(structure: Structure, n: int):
    """Moves that store both directions of a pair where neither is stored."""
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) not in structure.p_edges and (j, i) not in structure.p_edges:
                yield ((i, j), (j, i))


def remove_edges(structure: Structure, n: int):
    """Moves that drop one stored P-edge, in ascending (i, j) order."""
    for edge in sorted(structure.p_edges):
        yield (edge,)


def greedy_search(
    scenario: Scenario,
    sizes: SizeTable,
    initial: Structure,
    params: RefinerParams,
    moves,
) -> tuple[Structure, RefineLog]:
    """Commit the best strictly improving move per iteration until none is left.

    `moves` is a sequence of move generators, scanned in order.  An added
    move none of whose edges can enter a transmission plan is skipped; an
    added move whose lower_bound_cost objective (pruning on, either buffer)
    exceeds the running best is pruned, and so is a removal that leaves an
    MDU without an independent reconstruction.  The rest are evaluated
    exactly; ties keep the earlier move.  Steps record (iteration, edges, J).
    """
    n = scenario.graph.n
    structure = initial
    log = RefineLog()
    lam = params.lam
    prune = params.enable_pruning
    weights = request_weights(scenario) if prune else None

    j_min = _objective_cost(scenario, sizes, structure, params.buffer)
    j_min += lam * storage_cost(structure, sizes)
    iteration = 0
    while True:
        iteration += 1
        best = None
        usable = _EdgeFilter(scenario, sizes, structure)
        b_base = storage_cost(structure, sizes)
        for edges in chain.from_iterable(gen(structure, n) for gen in moves):
            if edges[0] in structure.p_edges:  # a stored edge: remove it
                cand = structure.without_edge(edges[0])
                log.candidates_total += 1
                try:
                    j_cand = _objective_cost(scenario, sizes, cand, params.buffer)
                except InfeasibleStructureError:
                    log.candidates_pruned += 1
                    continue
                j_cand += lam * storage_cost(cand, sizes)
            else:
                if not any(usable.relevant(i, j) for (i, j) in edges):
                    log.candidates_skipped += 1
                    continue
                cand = structure.with_edges(edges)
                log.candidates_total += 1
                b_cand = b_base + sum(sizes.p(i, j) for (i, j) in edges)
                if prune:
                    j_low = lower_bound_cost(scenario, sizes, cand, weights)
                    if (j_low + lam * b_cand) * (1.0 - _BOUND_SLACK) > j_min:
                        log.candidates_pruned += 1
                        continue
                j_cand = _objective_cost(scenario, sizes, cand, params.buffer)
                j_cand += lam * b_cand
            if j_cand < j_min:
                j_min = j_cand
                best = (edges, cand)
        if best is None:
            break
        edges, structure = best
        log.steps.append((iteration, edges, j_min))
    return structure, log


def greedy_refine(
    scenario: Scenario,
    sizes: SizeTable,
    initial: Structure,
    params: RefinerParams,
) -> tuple[Structure, RefineLog]:
    """Add one P-edge per iteration while the objective strictly improves.

    Candidates are scanned in ascending (i, j) order; on ties the earlier
    candidate is kept, so runs are deterministic.  Pruning drops, under
    either buffer, candidates whose lower bound exceeds the best J so far.
    Steps record (iteration, edge, J).
    """
    problems = initial.validate(scenario.graph.n)
    if problems:
        raise InvalidInputError("; ".join(problems))
    structure, log = greedy_search(scenario, sizes, initial, params, (add_edges,))
    log.steps = [(it, edge, j) for it, (edge,), j in log.steps]
    return structure, log


def greedy_subtract(
    scenario: Scenario,
    sizes: SizeTable,
    initial: Structure,
    params: RefinerParams,
) -> tuple[Structure, RefineLog]:
    """Remove one stored P-edge per iteration while the objective improves.

    Removals that leave some MDU without an independent reconstruction are
    counted as pruned rather than evaluated.  Steps record (iteration,
    edge, J).
    """
    structure, log = greedy_search(scenario, sizes, initial, params, (remove_edges,))
    log.steps = [(it, edge, j) for it, (edge,), j in log.steps]
    return structure, log


@dataclass
class TradeoffRow:
    lam: float
    storage_bits: float
    expected_bits: float
    landmarks: int
    p_edges: int


def sweep(
    scenario: Scenario,
    sizes: SizeTable,
    lambdas: list[float],
    params: RefinerParams,
) -> list[TradeoffRow]:
    """Plan + refine once per lambda; rows come back sorted by lambda."""
    from .landmarks import PlannerParams, build_initial_structure, tsvq
    from .scenario import aggregate_switch_probabilities

    if not lambdas:
        raise InvalidInputError("sweep needs at least one lambda")
    q = aggregate_switch_probabilities(
        scenario.graph, scenario.nav, scenario.lifetime
    )
    rows = []
    for lam in sorted(lambdas):
        try:
            planner = PlannerParams(w=lam / scenario.lifetime.mu, q=q)
            parts = tsvq(scenario.graph, sizes, planner)
            init = build_initial_structure(parts, sizes)
            run = RefinerParams(
                lam=lam,
                buffer=params.buffer,
                enable_pruning=params.enable_pruning,
            )
            final, _ = greedy_refine(scenario, sizes, init, run)
            rows.append(
                TradeoffRow(
                    lam=lam,
                    storage_bits=storage_cost(final, sizes),
                    expected_bits=_objective_cost(
                        scenario, sizes, final, params.buffer
                    ),
                    landmarks=len(final.landmarks or ()),
                    p_edges=len(final.p_edges),
                )
            )
        except InvalidInputError as exc:
            raise InvalidInputError(f"sweep failed at lambda={lam}: {exc}") from exc
    return rows
