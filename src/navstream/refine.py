"""Greedy structure refinement under the storage/transmission objective.

The objective is J = c + lam * b where c is the expected session
transmission cost of the current structure and b its stored bits.  This
module is the engine only: `greedy_search` runs one or more phases in turn
from a given structure, and `baselines.METHODS` says with which start,
phases and buffer each method calls it.  Each iteration of a phase scans
its moves (add an edge, add a reverse pair, remove an edge), bounds each
without a DP, and evaluates them exactly, best bound first, until the next
bound exceeds the best J found: a best-first branch and bound that commits
the best strict improvement.  The bound is closed-form: under the flexible
buffer each request takes its cheapest stored option, and the fixed
buffer's cost is itself a closed form, r_i[start] + sum over pairs (i, j)
of W[(i, j)] * min(r_i[j], P_j(i) + M_j), the hop +inf where (i, j) is not
stored.  A move's bound is the incumbent's, updated at the heads of the
move's edges from the incumbent's `CostTables`.

Each iteration's scan is one array pass, `scan_moves`: every move is a row
of integer arrays (tail, head, kind) in generation order, and the skip
test, the bound, the storage term and J_low are computed for all rows at
once, then the moves not skipped are ordered by one `np.lexsort` on
(J_low, generation index).  Each J_low is the double that pricing the
move alone gives: lb + (term' - term[j]), then the start MDU's I + P + M
term, a fixed buffer's groups added from the left with no padding term, a
pair move's two edges applied one after the other.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field
from itertools import count

import numpy as np

from .costs import CostTables, SizeTable, Structure, storage_cost
from .errors import InvalidInputError
from .evaluate import evaluate
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
    """What a search did.  `iterations` is the one record of each move's fate:
    per iteration its phase, iteration, the moves skipped (none of whose
    edges can enter a transmission plan), pruned and evaluated, t_bound and
    t_exact (seconds scanning and bounding, and in exact DPs) and J.  The
    candidate counters are sums over these records."""

    steps: list = field(default_factory=list)  # (iteration, edge, J)
    expected_cost: float | None = None  # exact c of the returned structure
    iterations: list = field(default_factory=list)

    def _sum(self, key: str) -> int:
        return sum(record[key] for record in self.iterations)

    candidates_skipped = property(lambda self: self._sum("skipped"))
    candidates_pruned = property(lambda self: self._sum("pruned"))
    candidates_total = property(lambda self: self._sum("pruned") + self._sum("evaluated"))

    @property
    def pruning_fraction(self) -> float:
        total = self.candidates_total
        return self.candidates_pruned / total if total else 0.0


def _reachable_targets(scenario: Scenario) -> np.ndarray:
    """Mask of the MDUs requestable within the charged switch horizon (t_max + 1)."""
    graph = scenario.graph
    frontier = {graph.start}
    targets: set[int] = set()
    for _ in range(scenario.lifetime.t_max + 1):
        frontier = {j for i in frontier for j in graph.neighbors[i]}
        new = frontier - targets
        targets |= frontier
        if not new:
            break
    mask = np.zeros(graph.n, dtype=bool)
    mask[list(targets)] = True
    return mask


# Relative slack on the stop test: the bound is often tight (under
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


@dataclass(frozen=True)
class RequestGroups:
    """Each MDU j's request groups (w, k) for `_RequestBound`.

    With `key` None, j has one group (weight[j], any stored predictor).
    Otherwise row j of the (n, G) `weight` and `key` holds j's `count[j]`
    groups, then padding of weight 0 and key 0.
    """

    weight: np.ndarray
    key: np.ndarray | None = None
    count: np.ndarray | None = None


def request_groups(scenario: Scenario, buffer: str) -> RequestGroups:
    """Each MDU j's request groups (w, k) for `_RequestBound`, built once per search.

    The flexible buffer's request for j may take a 2-hop, which costs more
    than its own second hop, so one group (W[j], any) lets it take any
    stored predictor.  The fixed buffer's request (cur, j) can take only the
    1-hop from cur, with the same continuation as its 0-hop, so each pair
    (k, j) is a group (W[(k, j)], k), in `pair_index` order, and the bound
    is the exact cost.
    """
    if buffer == "flex":
        return RequestGroups(np.array(request_weights(scenario)))
    index = scenario.pair_index
    weights = _flow_sums(scenario, index.succ, len(index.pairs))[1:]  # pair 0 ends no request
    k, j = np.array(index.pairs[1:], dtype=np.intp).reshape(-1, 2).T
    order = np.argsort(j, kind="stable")
    count = np.bincount(j, minlength=scenario.graph.n)
    rank = np.arange(len(j)) - np.repeat(np.cumsum(count) - count, count)
    weight = np.zeros((len(count), count.max(initial=0)))
    key = np.zeros(weight.shape, dtype=np.intp)
    weight[j[order], rank], key[j[order], rank] = weights[order], k[order]
    return RequestGroups(weight, key, count)


# The move kinds a phase of `greedy_search` scans: store one absent P-edge
# (i, j); store both edges of a pair i < j of which neither is stored; drop
# one stored edge.  Each kind lists its moves in ascending (i, j) order.
ADD_EDGE, ADD_PAIR, REMOVE_EDGE = range(3)


def _list_moves(stored: np.ndarray, kinds) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every move of `kinds`, in generation order, as (tail, head, kind)
    arrays: a pair move stores (tail, head) and (head, tail)."""
    absent = ~stored
    np.fill_diagonal(absent, False)
    found = []
    for kind in kinds:
        if kind == ADD_PAIR:
            found.append(np.nonzero(np.triu(absent & absent.T, 1)))
        else:
            found.append(np.nonzero(stored if kind == REMOVE_EDGE else absent))
    tail, head = (np.concatenate(ends) for ends in zip(*found))
    return tail, head, np.repeat(kinds, [len(l) for l, _ in found])


def _least_without(bits: np.ndarray, least: np.ndarray, l: np.ndarray, j: np.ndarray):
    """The least of column j[m] of `bits`, whose column minima are `least`,
    with its row l[m] left out."""
    out = least[j]
    (hit,) = np.nonzero(bits[l, j] == out)  # l holds the column's minimum
    if len(hit):
        cols = bits[:, j[hit]]
        cols[l[hit], np.arange(len(hit))] = math.inf
        out[hit] = cols.min(axis=0)
    return out


class _EdgeFilter:
    """Exact test of whether absent edges can enter any transmission plan.

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
    Rebuild per committed edge: all masks depend on the incumbent, whose
    CostTables it takes; `targets` is `_reachable_targets`' mask.
    """

    def __init__(self, start: int, targets: np.ndarray, tables: CostTables):
        stored = tables.stored
        self.start, self.targets, self.tables = start, targets, tables
        self.hop_heads = stored[:, targets].any(axis=1)
        self.bufferable = targets | self.hop_heads
        self.bufferable[start] = True
        self.mid_ok = stored[self.bufferable].any(axis=0)

    def relevant(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Whether each edge (i[m], j[m]) can enter a transmission plan."""
        tables = self.tables
        improves_0hop = tables.i_mask[i] & (tables.sizes.combo_bits[i, j] < tables.r_i[j])
        buffered = self.bufferable[i]
        return np.where(
            self.targets[j],
            buffered | self.mid_ok[i] | improves_0hop,
            # the start MDU is always transmitted independently once
            ((j == self.start) & improves_0hop) | (buffered & self.hop_heads[j]),
        )


class _RequestBound:
    """The request bound of one incumbent, and of many moves away from it at once.

    Each group (w, k) of `request_groups` pays w times the cheapest of j's
    independent reconstruction and its stored P-edge from k (from any stored
    predictor in the flexible buffer's one group), and the start MDU is
    sent independently once: `lb` = r_i[start] + the sum over MDUs j of
    their groups' terms, each added from the left.  Under the flexible
    buffer that bounds c, since a 2-hop costs more than its own second hop;
    under the fixed one it is c itself, up to the order of the sums.  A move
    changes only the terms of its edges' heads, so `moves` prices each move
    from the incumbent's `terms` by the same operations, in the same order,
    as a move priced alone.
    """

    def __init__(self, start: int, tables: CostTables, groups: RequestGroups):
        self.start, self.groups, self.tables = start, groups, tables
        self.hops = tables.p_bits[1:, 1:]
        self.any_hop = self.hops.min(axis=0, initial=math.inf)
        heads, nowhere = np.arange(tables.n), np.full(tables.n, -1)
        self.terms = self._terms(heads, tables.r_i, self._bits(nowhere, heads, self.any_hop))
        self.lb = left_sum(self.terms.tolist(), float(tables.r_i[start]))

    def _bits(self, l, j, hop):
        """The bits of each group of j[m] with edge (l[m], j[m]) at hop[m]:
        for the one flexible group, hop[m] is already the least stored one."""
        key = self.groups.key
        if key is None:
            return hop
        key = key[j]
        return np.where(key == l[:, None], hop[:, None], self.hops[key, j[:, None]])

    def _terms(self, j, r_i, bits) -> np.ndarray:
        """What the groups of each j[m] pay with independent reconstruction
        r_i[m] and bits[m] from `_bits`, added from the left."""
        groups = self.groups
        if groups.key is None:
            return groups.weight[j] * np.minimum(r_i, bits)
        paid = np.cumsum(groups.weight[j] * np.minimum(r_i[:, None], bits), axis=1)
        count = groups.count[j]
        return np.where(count > 0, paid[np.arange(len(j)), count - 1], 0.0)

    def moves(self, tail: np.ndarray, head: np.ndarray, kind: np.ndarray) -> np.ndarray:
        """The bound after each move m: +inf for a removal that leaves its
        head without an independent reconstruction.  A pair move's edges
        are applied one at a time, (tail, head) first."""
        lb = self._moved(np.full(len(tail), self.lb), tail, head, kind != REMOVE_EDGE)
        (pair,) = np.nonzero(kind == ADD_PAIR)
        if len(pair):
            lb[pair] = self._moved(lb[pair], head[pair], tail[pair], np.ones(len(pair), bool))
        return lb

    def _moved(self, lb, l: np.ndarray, j: np.ndarray, added: np.ndarray) -> np.ndarray:
        """`lb` after edge (l[m], j[m]) is stored where added[m], else dropped."""
        tables = self.tables
        hop = np.where(added, tables.sizes.hop_bits[l, j], math.inf)
        source = np.where(added & tables.i_mask[l], tables.sizes.combo_bits[l, j], math.inf)
        r_i = np.minimum(source, _least_without(tables.source_bits, tables.r_i, l, j))
        ok = r_i < math.inf
        if not ok.all():
            lb[~ok] = math.inf
            l, j, hop, r_i = l[ok], j[ok], hop[ok], r_i[ok]
        if self.groups.key is None:
            hop = np.minimum(hop, _least_without(self.hops, self.any_hop, l, j))
        moved = lb[ok] + (self._terms(j, r_i, self._bits(l, j, hop)) - self.terms[j])
        # the start MDU is sent independently once
        at = j == self.start
        moved[at] += r_i[at] - tables.r_i[self.start]
        lb[ok] = moved
        return lb


@dataclass
class _Scan:
    """One iteration's moves in generation order, with each move's verdict.

    A move stores (tail, head), and for a pair (head, tail) too, or drops
    (tail, head).  `skipped` marks added moves none of whose edges can
    enter a transmission plan; the others have their `storage` and `j_low`
    (+inf for a removal that leaves its head without an independent
    reconstruction), NaN for the skipped.  `order` holds every move not
    skipped by (J_low, generation index), so the +inf ones come last.
    """

    tail: np.ndarray
    head: np.ndarray
    kind: np.ndarray
    skipped: np.ndarray
    storage: np.ndarray
    j_low: np.ndarray
    order: np.ndarray

    def edges(self, m: int) -> tuple:
        l, j = int(self.tail[m]), int(self.head[m])
        return ((l, j), (j, l)) if self.kind[m] == ADD_PAIR else ((l, j),)


def scan_moves(
    start: int,
    targets: np.ndarray,
    groups: RequestGroups,
    tables: CostTables,
    kinds,
    lam: float,
) -> _Scan:
    """Every move of `kinds` away from `tables`' structure, listed, skipped
    and bounded at once; it prunes none.

    A move's J_low is its `_RequestBound` plus lam times its storage: the
    incumbent's storage plus the edge's P bits, plus the pair's two summed,
    or less the dropped edge's.
    """
    sizes = tables.sizes
    tail, head, kind = _list_moves(tables.stored, kinds)
    usable = _EdgeFilter(start, targets, tables)
    skipped = (kind != REMOVE_EDGE) & ~usable.relevant(tail, head)
    (pair,) = np.nonzero(skipped & (kind == ADD_PAIR))
    skipped[pair] = ~usable.relevant(head[pair], tail[pair])
    (kept,) = np.nonzero(~skipped)
    l, j, k = tail[kept], head[kept], kind[kept]
    p_bits = sizes.p_size[l, j]
    (pair,) = np.nonzero(k == ADD_PAIR)
    p_bits[pair] += sizes.p_size[j[pair], l[pair]]
    b_base = storage_cost(tables.structure, sizes)
    storage = np.full(len(tail), math.nan)
    storage[kept] = np.where(k == REMOVE_EDGE, b_base - p_bits, b_base + p_bits)
    j_low = np.full(len(tail), math.nan)
    j_low[kept] = _RequestBound(start, tables, groups).moves(l, j, k) + lam * storage[kept]
    order = kept[np.lexsort((kept, j_low[kept]))]
    return _Scan(tail, head, kind, skipped, storage, j_low, order)


def greedy_search(
    scenario: Scenario,
    sizes: SizeTable,
    initial: Structure,
    params: RefinerParams,
    *phases,
) -> tuple[Structure, RefineLog]:
    """Run each phase, in turn, to its fixed point from `initial`.

    A phase is a sequence of move kinds (`ADD_EDGE`, `ADD_PAIR`,
    `REMOVE_EDGE`), whose moves are generated kind after kind; each
    iteration commits the move of least (J, generation index) among those
    with J below the incumbent's.  `scan_moves` lists all of an iteration's
    moves at once, skips each added move none of whose edges can enter a
    transmission plan, and gives the others their J_low (their
    `_RequestBound` plus lam times their storage).  This loop is the only
    code that prunes: it evaluates the moves exactly, for their cost only,
    by (J_low, generation index), and stops at the first infinite J_low (a
    removal that leaves an MDU without an independent reconstruction) and,
    with pruning on, at the first J_low above the best J found, so a move
    that ties with it is still evaluated.  The moves left count as pruned.
    `initial` must pass `Structure.validate` and is evaluated once; each
    phase numbers its iterations from 1 and starts from
    J = c + lam * storage_cost(structure), recomputed from scratch.  Steps
    record (iteration, edges, J), `iterations` holds a record per
    iteration, also logged at DEBUG, and `expected_cost` is the exact c of
    the returned structure.
    """
    n, start = scenario.graph.n, scenario.graph.start
    problems = initial.validate(n)
    if problems:
        raise InvalidInputError("; ".join(problems))
    structure, log = initial, RefineLog()
    lam, prune = params.lam, params.enable_pruning
    groups = request_groups(scenario, params.buffer)
    targets = _reachable_targets(scenario)
    c_min = evaluate(scenario, sizes, structure, params.buffer, policy=False).expected_cost
    for phase, kinds in enumerate(phases, 1):
        j_min = c_min + lam * storage_cost(structure, sizes)
        for iteration in count(1):
            clock = time.perf_counter()
            tables = CostTables(structure, sizes, n)
            scan = scan_moves(start, targets, groups, tables, kinds, lam)
            j_lows, storage = scan.j_low.tolist(), scan.storage.tolist()
            t_bound = time.perf_counter() - clock
            # (J, generation index, edges, structure, c): the incumbent ranks
            # as index -1, so a move that only ties with it is not committed
            best, evaluated = (j_min, -1, None, structure, c_min), 0
            for index in scan.order.tolist():
                j_low = j_lows[index]
                if j_low == math.inf or (prune and j_low * (1.0 - _BOUND_SLACK) > best[0]):
                    break
                evaluated += 1
                edges = scan.edges(index)
                if scan.kind[index] == REMOVE_EDGE:
                    cand = structure.without_edge(edges[0])
                    b_cand = storage_cost(cand, sizes)
                else:
                    cand, b_cand = structure.with_edges(edges), storage[index]
                c_cand = evaluate(
                    scenario, sizes, cand, params.buffer, policy=False
                ).expected_cost
                j_cand = c_cand + lam * b_cand
                if (j_cand, index) < best[:2]:
                    best = (j_cand, index, edges, cand, c_cand)
            skipped, pruned = int(scan.skipped.sum()), len(scan.order) - evaluated
            t_exact = time.perf_counter() - clock - t_bound
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
    structure, log = greedy_search(scenario, sizes, initial, params, (ADD_EDGE,))
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
    structure, log = greedy_search(scenario, sizes, initial, params, (REMOVE_EDGE,))
    return structure, one_edge_steps(log)
