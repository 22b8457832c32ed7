"""Greedy structure refinement under the storage/transmission objective.

The objective is J = c + lam * b where c is the expected session
transmission cost of the current structure and b its stored bits.  One
engine, `greedy_search`, serves the refiner and the baselines, each as one
call: it runs one or more phases in turn, flex-lm-i an add-edge phase then
a remove-edge phase.  Each iteration of a phase scans its moves (add an
edge, add a reverse pair, remove an edge), prunes every move whose DP-free
bound already exceeds the incumbent, and evaluates the survivors exactly,
best bound first, until the next bound exceeds the best J found: a
best-first branch and bound that commits the best strict improvement.  The
bound is closed-form: under the flexible buffer each request takes its
cheapest stored option, and the fixed buffer's cost is itself a closed form,
r_i[start] + sum over pairs (i, j) of W[(i, j)] * min(r_i[j], r_p[(i, j)]).
A move's bound is the incumbent's, updated at the heads of the move's edges
from the incumbent's `CostTables`, so it costs O(in-degree of the heads).
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, replace
from itertools import chain, count

import numpy as np

from .costs import CostTables, SizeTable, Structure, storage_cost
from .errors import InvalidInputError
from .evaluate import evaluate
from .landmarks import landmark_structure
from .scenario import Scenario, left_sum, pair_masses

logger = logging.getLogger(__name__)
# W's DEBUG line goes to a child logger: `logger` logs one line per search iteration.
weights_logger = logging.getLogger(f"{__name__}.weights")


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
    expected_cost: float | None = None  # exact c of the returned structure
    # one record per iteration: phase, iteration, skipped, pruned, evaluated,
    # t_bound and t_exact (seconds scanning and bounding, and in exact DPs), J
    iterations: list = field(default_factory=list)

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
    Rebuild per committed edge: all sets depend on the incumbent, whose
    CostTables it takes.
    """

    def __init__(self, scenario: Scenario, tables: CostTables):
        edges = tables.structure.p_edges
        self.start = scenario.graph.start
        self.targets = _reachable_targets(scenario)
        self.hop_heads = {m for (m, j2) in edges if j2 in self.targets}
        self.bufferable = {self.start} | self.targets | self.hop_heads
        self.mid_ok = {m for (ref, m) in edges if ref in self.bufferable}
        self.tables = tables

    def _improves_0hop(self, i: int, j: int) -> bool:
        tables = self.tables
        return i in tables.structure.i_set and tables.combo(i, j) < tables.r_i[j]

    def relevant(self, i: int, j: int) -> bool:
        if j in self.targets:
            if i in self.bufferable or i in self.mid_ok:
                return True
            return self._improves_0hop(i, j)
        # the start MDU is always transmitted independently once
        if j == self.start and self._improves_0hop(i, j):
            return True
        return i in self.bufferable and j in self.hop_heads


# Relative slack on the prune and stop tests: the bound is often tight (under
# the fixed buffer it is the exact cost, summed in another order), and in 35 of
# 800 random checks it came out above the exact cost, by up to 2.2e-16 relative.
_BOUND_SLACK = 1e-12


def _flow_sums(scenario: Scenario, keys: np.ndarray, size: int) -> np.ndarray:
    """The total DP weight of the requests by keys[slot], for keys 0..size - 1.

    Navigation does not depend on the structure, so a request at depth t
    (t = 0..t_max) weighs its path probability times g(1)...g(t) in c: the
    `pair_masses` levels 0..t_max with factors g(1)..g(t_max), up to the
    last t with g(t) > 0.  Each level's flows are added by key with one
    `np.bincount` whose first `size` entries are the running sums, so every
    request adds on in level order and memory stays one level deep.
    """
    start, factors = time.perf_counter(), scenario.lifetime.weights()[1:]
    ids, sums, levels = np.arange(size), np.zeros(size), 0
    for _, _, slots, flow in pair_masses(scenario, factors):
        sums = np.bincount(
            np.concatenate([ids, keys[slots]]),
            weights=np.concatenate([sums, flow]),
            minlength=size,
        )
        levels += 1
    weights_logger.debug(
        "request weights: %d pairs over %d levels in %.4f s",
        len(scenario.pair_index.pairs), levels, time.perf_counter() - start,
    )
    return sums


def request_weights(scenario: Scenario) -> list[float]:
    """W[j], the total DP weight of the requests for MDU j."""
    return _flow_sums(scenario, scenario.pair_index.target, scenario.graph.n).tolist()


def request_groups(scenario: Scenario, buffer: str) -> list[list[tuple]]:
    """Each MDU j's request groups (w, k) for `_RequestBound`, built once per search.

    The flexible buffer's request for j may take a 2-hop, which costs more
    than its own second hop, so one group (W[j], None) lets it take any
    stored predictor.  The fixed buffer's request (cur, j) can take only the
    1-hop from cur, with the same continuation as its 0-hop, so each pair
    (k, j) is a group (W[(k, j)], k) and the bound is the exact cost.
    """
    if buffer == "flex":
        return [[(w, None)] for w in request_weights(scenario)]
    index = scenario.pair_index
    weights = _flow_sums(scenario, index.succ, len(index.pairs)).tolist()
    groups = [[] for _ in range(scenario.graph.n)]
    for (k, j), w in zip(index.pairs[1:], weights[1:]):  # pair 0 ends no request
        groups[j].append((w, k))
    return groups


class _RequestBound:
    """The request bound of one incumbent, and of each move away from it.

    Each group (w, k) of `request_groups` pays w times the cheapest of j's
    independent reconstruction and its stored P-edge from k (from any stored
    predictor when k is None), and the start MDU is sent independently
    once: `lb` = r_i[start] + the sum over MDUs j of their groups' terms.
    Under the flexible buffer that bounds c, since a 2-hop costs more than
    its own second hop; under the fixed one it is c itself, up to the order
    of the sums.  A move changes only the terms of its edges' heads, so
    `added` and `removed` cost O(in-degree of the heads).
    """

    def __init__(self, scenario: Scenario, tables: CostTables, groups: list[list[tuple]]):
        self.start = scenario.graph.start
        self.groups = groups
        self.tables = tables
        self.hops = [{l: tables.r_p[(l, j)] for l in ls} for j, ls in enumerate(tables.preds)]
        self.terms = [self._term(j, tables.r_i[j], hops) for j, hops in enumerate(self.hops)]
        self.lb = left_sum(self.terms, tables.r_i[self.start])

    def _term(self, j: int, r_i: float, hops: dict) -> float:
        """What j's groups pay with independent reconstruction r_i and the
        stored P-edges into j `hops` (predictor: bits)."""
        any_hop = min(hops.values(), default=math.inf)
        return left_sum(
            w * min(r_i, any_hop if k is None else hops.get(k, math.inf))
            for w, k in self.groups[j]
        )

    def _moved(self, lb: float, j: int, r_i: float, hops: dict) -> float:
        lb += self._term(j, r_i, hops) - self.terms[j]
        if j == self.start:  # the start MDU is sent independently once
            lb += r_i - self.tables.r_i[j]
        return lb

    def added(self, edges) -> float:
        """Bound of the incumbent with `edges`, whose heads differ, stored too."""
        tables, lb = self.tables, self.lb
        for (l, j) in edges:
            r_i = tables.r_i[j]
            if l in tables.structure.i_set:  # I_l + P + M may beat it
                r_i = min(r_i, tables.combo(l, j))
            lb = self._moved(lb, j, r_i, {**self.hops[j], l: tables.hop(l, j)})
        return lb

    def removed(self, edge: tuple[int, int]) -> float:
        """Bound of the incumbent without `edge`; inf if that is infeasible.

        Infeasible means the edge's head is left with no independent
        reconstruction.
        """
        l, j = edge
        r_i = min((bits for bits, k in self.tables.sources[j] if k != l), default=math.inf)
        if math.isinf(r_i):
            return math.inf
        hops = {k: bits for k, bits in self.hops[j].items() if k != l}
        return self._moved(self.lb, j, r_i, hops)


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
    *phases,
) -> tuple[Structure, RefineLog]:
    """Run each phase, in turn, to its fixed point from `initial`.

    A phase is a sequence of move generators; each iteration commits the
    move of least (J, generation index) among those with J below the
    incumbent's.  An added move none of whose edges can enter a
    transmission plan is skipped.  A removal that leaves an MDU without an
    independent reconstruction is pruned, and with pruning on so is a move
    whose J_low (its `_RequestBound` plus lam times its storage) exceeds the
    incumbent's J.  The rest are evaluated exactly, for their cost only, by
    (J_low, generation index); with pruning on the search stops at the
    first J_low above the best J found, so a move that ties with it is still
    evaluated, and the moves left count as pruned.  `initial` is evaluated
    once; each phase numbers its iterations from 1 and starts from
    J = c + lam * storage_cost(structure), recomputed from scratch.  Steps
    record (iteration, edges, J), counters add up over the phases,
    `iterations` holds a record per iteration, also logged at DEBUG, and
    `expected_cost` is the exact c of the returned structure.
    """
    n = scenario.graph.n
    structure, log = initial, RefineLog()
    lam, prune = params.lam, params.enable_pruning
    groups = request_groups(scenario, params.buffer)
    c_min = evaluate(scenario, sizes, structure, params.buffer, policy=False).expected_cost
    for phase, moves in enumerate(phases, 1):
        j_min = c_min + lam * storage_cost(structure, sizes)
        for iteration in count(1):
            start = time.perf_counter()
            skipped = pruned = 0
            tables = CostTables(structure, sizes, n)
            usable = _EdgeFilter(scenario, tables)
            bound = _RequestBound(scenario, tables, groups)
            b_base = storage_cost(structure, sizes)
            survivors = []  # (J_low, generation index, edges, storage)
            scan = chain.from_iterable(gen(structure, n) for gen in moves)
            for index, edges in enumerate(scan):
                if edges[0] in structure.p_edges:
                    # inf (infeasible) is pruned whether or not pruning is on
                    c_low = bound.removed(edges[0])
                    b_cand = b_base - sizes.p(*edges[0])
                elif any(usable.relevant(i, j) for (i, j) in edges):
                    c_low = bound.added(edges)
                    b_cand = b_base + left_sum(sizes.p(i, j) for (i, j) in edges)
                else:
                    skipped += 1
                    continue
                j_low = c_low + lam * b_cand
                if math.isinf(j_low) or (prune and j_low * (1.0 - _BOUND_SLACK) > j_min):
                    pruned += 1
                    continue
                survivors.append((j_low, index, edges, b_cand))
            survivors.sort()
            t_bound = time.perf_counter() - start
            # (J, generation index, edges, structure, c): the incumbent ranks
            # as index -1, so a move that only ties with it is not committed
            best, evaluated = (j_min, -1, None, structure, c_min), 0
            for j_low, index, edges, b_cand in survivors:
                if prune and j_low * (1.0 - _BOUND_SLACK) > best[0]:
                    break
                evaluated += 1
                if edges[0] in structure.p_edges:
                    cand = structure.without_edge(edges[0])
                    b_cand = storage_cost(cand, sizes)
                else:
                    cand = structure.with_edges(edges)
                c_cand = evaluate(
                    scenario, sizes, cand, params.buffer, policy=False
                ).expected_cost
                j_cand = c_cand + lam * b_cand
                if (j_cand, index) < best[:2]:
                    best = (j_cand, index, edges, cand, c_cand)
            pruned += len(survivors) - evaluated
            t_exact = time.perf_counter() - start - t_bound
            log.candidates_total += pruned + evaluated
            log.candidates_pruned += pruned
            log.candidates_skipped += skipped
            moved = best[2] is not None
            j_min, _, edges, structure, c_min = best
            if moved:
                log.steps.append((iteration, edges, j_min))
            log.iterations.append({
                "phase": phase, "iteration": iteration, "skipped": skipped,
                "pruned": pruned, "evaluated": evaluated, "t_bound": t_bound,
                "t_exact": t_exact, "J": j_min,
            })
            logger.debug(
                "iteration %d: skipped %d, pruned %d, evaluated %d, J %r, "
                "bound %.4f s, exact %.4f s",
                iteration, skipped, pruned, evaluated, j_min, t_bound, t_exact,
            )
            if not moved:
                break
    log.expected_cost = c_min
    return structure, log


def one_edge_steps(log: RefineLog) -> RefineLog:
    """`log` with each step's one-edge move unwrapped: (iteration, edge, J)."""
    log.steps = [(it, edge, j) for it, (edge,), j in log.steps]
    return log


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
    return structure, one_edge_steps(log)


def greedy_subtract(
    scenario: Scenario,
    sizes: SizeTable,
    initial: Structure,
    params: RefinerParams,
) -> tuple[Structure, RefineLog]:
    """Remove one stored P-edge per iteration while the objective improves.

    Removals that leave some MDU without an independent reconstruction are
    counted as pruned rather than evaluated, and with pruning on so are
    removals whose lower bound exceeds the best J so far.  Steps record
    (iteration, edge, J).
    """
    structure, log = greedy_search(scenario, sizes, initial, params, (remove_edges,))
    return structure, one_edge_steps(log)


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
    if not lambdas:
        raise InvalidInputError("sweep needs at least one lambda")
    rows = []
    for lam in sorted(lambdas):
        try:
            init = landmark_structure(scenario, sizes, lam)
            final, log = greedy_refine(scenario, sizes, init, replace(params, lam=lam))
            rows.append(
                TradeoffRow(
                    lam=lam,
                    storage_bits=storage_cost(final, sizes),
                    expected_bits=log.expected_cost,
                    landmarks=len(final.landmarks or ()),
                    p_edges=len(final.p_edges),
                )
            )
        except InvalidInputError as exc:
            raise InvalidInputError(f"sweep failed at lambda={lam}: {exc}") from exc
    return rows
