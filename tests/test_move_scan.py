"""The array move scan and the array `CostTables` against scalar references.

`refine.scan_moves` lists and bounds every greedy move at once, and
`CostTables` prices a structure by masking per-size matrices.  Both must
give the very doubles of the per-move, per-edge code they replaced, which
is kept here as a test-local reference: the from-scratch table build, the
edge filter, the request bound and the move generators.  Every comparison
is `==`, in value and in order.
"""

import math
from dataclasses import replace
from itertools import chain

import numpy as np
import pytest

from conftest import random_scenario, random_sizes, random_structure
from navstream.adapters import LfGridSpec, build_lf_scenario
from navstream.costs import CostTables, SizeTable, storage_cost
from navstream.errors import InfeasibleStructureError
from navstream.evaluate import evaluate
from navstream.landmarks import landmark_structure
from navstream.refine import (
    ADD_EDGE,
    ADD_PAIR,
    REMOVE_EDGE,
    _BOUND_SLACK,
    _flow_sums,
    _reachable_targets,
    request_groups,
    request_weights,
    scan_moves,
)
from navstream.scenario import (
    MediaGraph,
    NavigationModel,
    Scenario,
    build_lifetime_tail,
    left_sum,
)


class _ScalarTables:
    """`CostTables` built one MDU and one edge at a time."""

    def __init__(self, structure, sizes, n):
        self.structure, self.sizes, self.n = structure, sizes, n
        i_set = structure.i_set
        self.sources = [[(sizes.i(j), j)] if j in i_set else [] for j in range(n)]
        self.preds = [[] for _ in range(n)]
        for (l, j) in sorted(structure.p_edges):
            self.preds[j].append(l)
            if l in i_set:
                self.sources[j].append((self.combo(l, j), l))
        if not all(self.sources):
            raise InfeasibleStructureError("an MDU has no independent reconstruction")
        self.r_i = [min(src)[0] for src in self.sources]
        self.r_p = {(l, j): self.hop(l, j) for (l, j) in structure.p_edges}

    def source_bits(self):
        bits = np.full((self.n, self.n), math.inf)
        for j, src in enumerate(self.sources):
            for b, l in src:
                bits[l, j] = b
        return bits

    def p_bits(self):
        bits = np.full((self.n + 1, self.n + 1), math.inf)
        for (l, j), b in self.r_p.items():
            bits[l + 1, j + 1] = b
        return bits

    def pred_table(self):
        width = max(map(len, self.preds), default=0)
        pred = np.zeros((self.n, width), dtype=np.intp)
        bits = np.full((self.n, width), math.inf)
        for j, ls in enumerate(self.preds):
            for d, l in enumerate(ls):
                pred[j, d], bits[j, d] = l, self.r_p[(l, j)]
        return pred, bits

    def hop(self, l, j):
        return self.sizes.p(l, j) + self.sizes.m(j)

    def combo(self, l, j):
        return self.sizes.i(l) + self.sizes.p(l, j) + self.sizes.m(j)


def _scalar_groups(scenario, buffer):
    if buffer == "flex":
        return [[(w, None)] for w in request_weights(scenario)]
    index = scenario.pair_index
    weights = _flow_sums(scenario, index.succ, len(index.pairs)).tolist()
    groups = [[] for _ in range(scenario.graph.n)]
    for (k, j), w in zip(index.pairs[1:], weights[1:]):
        groups[j].append((w, k))
    return groups


class _ScalarFilter:
    def __init__(self, scenario, tables):
        edges = tables.structure.p_edges
        self.start = scenario.graph.start
        self.targets = set(np.flatnonzero(_reachable_targets(scenario)).tolist())
        self.hop_heads = {m for (m, j2) in edges if j2 in self.targets}
        self.bufferable = {self.start} | self.targets | self.hop_heads
        self.mid_ok = {m for (ref, m) in edges if ref in self.bufferable}
        self.tables = tables

    def _improves_0hop(self, i, j):
        tables = self.tables
        return i in tables.structure.i_set and tables.combo(i, j) < tables.r_i[j]

    def relevant(self, i, j):
        if j in self.targets:
            if i in self.bufferable or i in self.mid_ok:
                return True
            return self._improves_0hop(i, j)
        if j == self.start and self._improves_0hop(i, j):
            return True
        return i in self.bufferable and j in self.hop_heads


class _ScalarBound:
    def __init__(self, scenario, tables, groups):
        self.start, self.groups, self.tables = scenario.graph.start, groups, tables
        self.hops = [{l: tables.r_p[(l, j)] for l in ls} for j, ls in enumerate(tables.preds)]
        self.terms = [self._term(j, tables.r_i[j], hops) for j, hops in enumerate(self.hops)]
        self.lb = left_sum(self.terms, tables.r_i[self.start])

    def _term(self, j, r_i, hops):
        any_hop = min(hops.values(), default=math.inf)
        return left_sum(
            w * min(r_i, any_hop if k is None else hops.get(k, math.inf))
            for w, k in self.groups[j]
        )

    def _moved(self, lb, j, r_i, hops):
        lb += self._term(j, r_i, hops) - self.terms[j]
        if j == self.start:
            lb += r_i - self.tables.r_i[j]
        return lb

    def added(self, edges):
        tables, lb = self.tables, self.lb
        for (l, j) in edges:
            r_i = tables.r_i[j]
            if l in tables.structure.i_set:
                r_i = min(r_i, tables.combo(l, j))
            lb = self._moved(lb, j, r_i, {**self.hops[j], l: tables.hop(l, j)})
        return lb

    def removed(self, edge):
        l, j = edge
        r_i = min((bits for bits, k in self.tables.sources[j] if k != l), default=math.inf)
        if math.isinf(r_i):
            return math.inf
        hops = {k: bits for k, bits in self.hops[j].items() if k != l}
        return self._moved(self.lb, j, r_i, hops)


_GENERATORS = {
    ADD_EDGE: lambda st, n: (
        ((i, j),) for i in range(n) for j in range(n)
        if i != j and (i, j) not in st.p_edges
    ),
    ADD_PAIR: lambda st, n: (
        ((i, j), (j, i)) for i in range(n) for j in range(i + 1, n)
        if (i, j) not in st.p_edges and (j, i) not in st.p_edges
    ),
    REMOVE_EDGE: lambda st, n: ((edge,) for edge in sorted(st.p_edges)),
}


def _scalar_scan(scenario, sizes, structure, groups, kinds, lam, j_min, prune):
    """Each move's (edges, skipped, J_low, storage), the survivors in
    (J_low, generation index) order, and the count pruned by the scan."""
    n = scenario.graph.n
    tables = _ScalarTables(structure, sizes, n)
    usable = _ScalarFilter(scenario, tables)
    bound = _ScalarBound(scenario, tables, groups)
    b_base = storage_cost(structure, sizes)
    moves, survivors, pruned = [], [], 0
    scan = chain.from_iterable(_GENERATORS[kind](structure, n) for kind in kinds)
    for index, edges in enumerate(scan):
        if edges[0] in structure.p_edges:
            c_low = bound.removed(edges[0])
            b_cand = b_base - sizes.p(*edges[0])
        elif any(usable.relevant(i, j) for (i, j) in edges):
            c_low = bound.added(edges)
            b_cand = b_base + left_sum(sizes.p(i, j) for (i, j) in edges)
        else:
            moves.append((edges, True, None, None))
            continue
        j_low = c_low + lam * b_cand
        moves.append((edges, False, j_low, b_cand))
        if math.isinf(j_low) or (prune and j_low * (1.0 - _BOUND_SLACK) > j_min):
            pruned += 1
            continue
        survivors.append((j_low, index))
    survivors.sort()
    return moves, [index for _, index in survivors], pruned


def _with_self_switches(rng, n, t_max):
    """A random scenario whose every MDU may switch to itself too, as a
    viewport log that stays put makes: its pairs include (j, j)."""
    neighbors = tuple(
        tuple(sorted({i, *rng.choice(n, int(rng.integers(1, min(3, n) + 1)), replace=False).tolist()}))
        for i in range(n)
    )

    def row(targets):
        w = rng.uniform(0.1, 1.0, len(targets))
        return dict(zip(targets, (w / w.sum()).tolist()))

    start = int(rng.integers(n))
    p_switch = {
        (k, i, j): p for k in range(n) for i in neighbors[k] for j, p in row(neighbors[i]).items()
    }
    nav = NavigationModel(p_start=row(neighbors[start]), p_switch=p_switch)
    graph = MediaGraph(n=n, neighbors=neighbors, start=start)
    return Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(0.7 * t_max, t_max))


def _with_costly_start(rng, sizes, start):
    """`sizes` with the start MDU's I-MDU dear enough that an I + P + M combo
    into it beats it."""
    i_size = sizes.i_size.copy()
    i_size[start] = rng.uniform(20.0, 30.0)
    return SizeTable(i_size, sizes.m_size, sizes.p_size)


def test_array_scan_matches_the_scalar_scan():
    """Skip verdicts, J_low, storage, survivor order and the pruned count are
    `==` to the scalar scan's, on 48 seeded instances: n 2-9, both buffers,
    pruning on and off, every move kind, start MDUs that an I + P + M combo
    beats, and scenarios with self-switches."""
    rng = np.random.default_rng(2024)
    phases = [(ADD_EDGE,), (ADD_EDGE, ADD_PAIR), (REMOVE_EDGE,), (ADD_PAIR, REMOVE_EDGE, ADD_EDGE)]
    seen = {"skipped": 0, "pruned": 0, "infeasible": 0, "start_combo": 0, "pair": 0}
    for case in range(48):
        n = int(rng.integers(2, 10))
        builder = _with_self_switches if case % 5 == 4 else random_scenario
        sc = builder(rng, n, int(rng.integers(1, 4)))
        sizes = random_sizes(rng, n)
        if case % 3 == 0:
            sizes = _with_costly_start(rng, sizes, sc.graph.start)
        structure = random_structure(rng, n, edge_prob=float(rng.choice([0.0, 0.2, 0.5])))
        buffer, prune = ("flex", "fixed")[case % 2], case % 4 < 2
        kinds = phases[case % len(phases)]
        lam = float(rng.uniform(0.0, 0.5))
        j_min = evaluate(sc, sizes, structure, buffer, policy=False).expected_cost
        j_min += lam * storage_cost(structure, sizes)
        tables = CostTables(structure, sizes, n)
        got = scan_moves(
            sc.graph.start, _reachable_targets(sc), request_groups(sc, buffer),
            tables, kinds, lam, j_min, prune,
        )
        moves, order, pruned = _scalar_scan(
            sc, sizes, structure, _scalar_groups(sc, buffer), kinds, lam, j_min, prune
        )
        assert [got.edges(m) for m in range(len(got.kind))] == [m[0] for m in moves]
        assert got.skipped.tolist() == [m[1] for m in moves]
        kept = ~got.skipped
        assert got.j_low[kept].tolist() == [m[2] for m in moves if not m[1]]
        assert got.storage[kept].tolist() == [m[3] for m in moves if not m[1]]
        assert got.order.tolist() == order
        assert got.pruned == pruned
        seen["skipped"] += int(got.skipped.sum())
        seen["pruned"] += pruned
        seen["infeasible"] += sum(m[2] == math.inf for m in moves)
        seen["pair"] += sum(len(m[0]) == 2 and not m[1] for m in moves)
        start = sc.graph.start
        seen["start_combo"] += sum(
            not skip and edges[0][1] == start and edges[0] not in structure.p_edges
            and edges[0][0] in structure.i_set
            and tables.sizes.combo_bits[edges[0]] < tables.r_i[start]
            for edges, skip, *_ in moves
        )
    assert all(seen.values()), seen


@pytest.mark.parametrize("buffer", ["flex", "fixed"])
def test_array_scan_keeps_generation_order_among_ties(buffer):
    """On LF grids many moves tie on J_low, and the survivors must still
    come in generation order among equals."""
    ties = 0
    for rows, cols in ((3, 3), (3, 4), (4, 4)):
        graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=rows, cols=cols))
        sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.0, 2))
        n = graph.n
        landmark = landmark_structure(sc, sizes, 0.5)
        for structure in (landmark, replace(landmark, i_set=frozenset(range(n)))):
            kinds = (ADD_EDGE, ADD_PAIR, REMOVE_EDGE)
            got = scan_moves(
                graph.start, _reachable_targets(sc), request_groups(sc, buffer),
                CostTables(structure, sizes, n), kinds, 0.5, math.inf, True,
            )
            _, order, _ = _scalar_scan(
                sc, sizes, structure, _scalar_groups(sc, buffer), kinds, 0.5, math.inf, True
            )
            assert got.order.tolist() == order
            j_low = got.j_low[got.order]
            ties += int((j_low[1:] == j_low[:-1]).sum())
    assert ties


def _assert_tables_equal(structure, sizes, n):
    got, want = CostTables(structure, sizes, n), _ScalarTables(structure, sizes, n)
    assert got.r_i.tolist() == want.r_i
    assert np.array_equal(got.source_bits, want.source_bits())
    assert np.array_equal(got.p_bits, want.p_bits())
    for a, b in zip(got.pred_table, want.pred_table()):
        assert a.shape == b.shape and np.array_equal(a, b)


def test_cost_tables_match_the_scalar_build_on_random_instances():
    rng = np.random.default_rng(77)
    for _ in range(40):
        n = int(rng.integers(1, 12))
        sizes = random_sizes(rng, n)
        structure = random_structure(rng, n, edge_prob=float(rng.choice([0.0, 0.3, 0.7])))
        _assert_tables_equal(structure, sizes, n)


@pytest.mark.parametrize("lam", [0.1, 1.0])
def test_cost_tables_match_the_scalar_build_on_lf_16x16(lam):
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=16, cols=16))
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.0, 2))
    landmark = landmark_structure(sc, sizes, lam)
    _assert_tables_equal(landmark, sizes, graph.n)
    rng = np.random.default_rng(int(lam * 10))
    _assert_tables_equal(random_structure(rng, graph.n, edge_prob=0.02), sizes, graph.n)
