import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    pingpong_scenario,
    pingpong_sizes,
    random_scenario,
    random_sizes,
    random_structure,
)
from navstream.adapters import LfGridSpec, build_lf_scenario
from navstream.costs import Structure, all_i_structure, storage_cost
from navstream.errors import InfeasibleStructureError, InvalidInputError
from navstream.evaluate import CostTables, eval_fixed, eval_flexible, evaluate
from navstream.refine import (
    ADD_EDGE,
    ADD_PAIR,
    REMOVE_EDGE,
    RefinerParams,
    _list_moves,
    _RequestBound,
    greedy_refine,
    greedy_search,
    greedy_subtract,
    request_groups,
    request_weights,
    sweep,
)
from navstream.scenario import Scenario, build_lifetime_tail

ASYM = Structure(i_set=frozenset({0, 1}), p_edges=frozenset({(0, 1)}))


def test_refiner_params_validate():
    for lam in (-1.0, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            RefinerParams(lam=lam)
    with pytest.raises(InvalidInputError):
        RefinerParams(lam=0.5, buffer="elastic")


def test_pingpong_adds_reverse_edge_then_stops():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    final, log = greedy_refine(sc, sz, ASYM, RefinerParams(lam=0.01))
    assert final.p_edges == frozenset({(0, 1), (1, 0)})
    assert [(it, edge) for it, edge, _ in log.steps] == [(1, (1, 0))]


def test_huge_lambda_keeps_initial():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    final, log = greedy_refine(sc, sz, ASYM, RefinerParams(lam=1e9))
    assert final == ASYM
    assert log.steps == []


def test_objective_descends_along_steps():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n = 6
        sc = random_scenario(rng, n, 3)
        sz = random_sizes(rng, n)
        final, log = greedy_refine(
            sc, sz, all_i_structure(n), RefinerParams(lam=0.05)
        )
        js = [j for _, _, j in log.steps]
        assert all(a > b for a, b in zip(js, js[1:]))
        if js:
            lam = 0.05
            j_final = eval_flexible(sc, sz, final).expected_cost
            j_final += lam * storage_cost(final, sz)
            assert j_final == pytest.approx(js[-1], rel=1e-12)


def test_pruning_does_not_change_result():
    rng = np.random.default_rng(43)
    for _ in range(6):
        n = int(rng.integers(3, 7))
        sc = random_scenario(rng, n, 3)
        sz = random_sizes(rng, n)
        init = random_structure(rng, n, edge_prob=0.1)
        lam = float(rng.uniform(0.01, 0.3))
        on, log_on = greedy_refine(sc, sz, init, RefinerParams(lam=lam))
        off, log_off = greedy_refine(
            sc, sz, init, RefinerParams(lam=lam, enable_pruning=False)
        )
        assert on == off
        assert log_on.steps == log_off.steps


def _flex_bound(sc, sz, structure):
    """The flexible buffer's request bound of `structure`, from scratch."""
    tables = CostTables(structure, sz, sc.graph.n)
    return _RequestBound(sc.graph.start, tables, request_groups(sc, "flex")).lb


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    t_max=st.integers(1, 3),
    edge_prob=st.sampled_from([0.0, 0.2, 0.5]),
    buffer=st.sampled_from(["fixed", "flex"]),
)
@settings(max_examples=80, deadline=None)
def test_lower_bound_never_exceeds_exact(seed, n, t_max, edge_prob, buffer):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, n, t_max)
    sz = random_sizes(rng, n)
    structure = random_structure(rng, n, edge_prob=edge_prob)
    lb = _flex_bound(sc, sz, structure)
    exact = evaluate(sc, sz, structure, buffer).expected_cost
    assert lb <= exact * (1 + 1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    t_max=st.integers(1, 3),
    edge_prob=st.sampled_from([0.0, 0.2, 0.5]),
)
@settings(max_examples=80, deadline=None)
def test_fixed_bound_is_the_fixed_cost(seed, n, t_max, edge_prob):
    """The fixed buffer's bound is eval_fixed's cost in closed form."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, n, t_max)
    sz = random_sizes(rng, n)
    structure = random_structure(rng, n, edge_prob=edge_prob)
    tables = CostTables(structure, sz, n)
    lb = _RequestBound(sc.graph.start, tables, request_groups(sc, "fixed")).lb
    exact = eval_fixed(sc, sz, structure).expected_cost
    assert lb == pytest.approx(exact, rel=1e-12, abs=0)
    assert lb <= exact * (1 + 1e-12)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(2, 7),
    t_max=st.integers(1, 3),
    edge_prob=st.sampled_from([0.0, 0.2, 0.5]),
    buffer=st.sampled_from(["fixed", "flex"]),
)
@settings(max_examples=60, deadline=None)
def test_move_bound_matches_full_bound(seed, n, t_max, edge_prob, buffer):
    """The engine's per-move bound is the from-scratch bound of the moved
    structure."""
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, n, t_max)
    sz = random_sizes(rng, n)
    structure = random_structure(rng, n, edge_prob=edge_prob)
    groups = request_groups(sc, buffer)

    def full(st):
        return _RequestBound(sc.graph.start, CostTables(st, sz, n), groups).lb

    tables = CostTables(structure, sz, n)
    bound = _RequestBound(sc.graph.start, tables, groups)
    moves = _list_moves(tables.stored, (ADD_EDGE, ADD_PAIR, REMOVE_EDGE))
    for tail, head, kind, got in zip(*(m.tolist() for m in moves), bound.moves(*moves)):
        if kind == REMOVE_EDGE:
            try:
                want = full(structure.without_edge((tail, head)))
            except InfeasibleStructureError:
                assert got == float("inf")
                continue
        else:
            edges = [(tail, head), (head, tail)][: 1 + (kind == ADD_PAIR)]
            want = full(structure.with_edges(edges))
        assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_move_bound_counts_the_start_combo():
    """Storing (l, start) from an I-MDU l lowers the start MDU's I + P + M term."""
    sc, sz = pingpong_scenario(), pingpong_sizes()
    st = Structure(i_set=frozenset({0, 1}), p_edges=frozenset())
    sz.i_size[0] = 20.0  # start MDU 0: I_1 + P + M = 15.5 beats I_0 = 20
    bound = _RequestBound(0, CostTables(st, sz, 2), request_groups(sc, "flex"))
    want = _flex_bound(sc, sz, st.with_edges([(1, 0)]))
    (got,) = bound.moves(np.array([1]), np.array([0]), np.array([ADD_EDGE]))
    assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_move_bound_reports_infeasible_removal():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    st = Structure(i_set=frozenset({0}), p_edges=frozenset({(0, 1), (1, 0)}))
    for buffer in ("flex", "fixed"):
        bound = _RequestBound(0, CostTables(st, sz, 2), request_groups(sc, buffer))
        dropped = bound.moves(np.array([0, 1]), np.array([1, 0]), np.full(2, REMOVE_EDGE))
        assert dropped[0] == float("inf")
        assert dropped[1] < float("inf")


def test_search_logs_one_debug_line_per_iteration(caplog):
    sc, sz = pingpong_scenario(), pingpong_sizes()
    with caplog.at_level(logging.DEBUG, logger="navstream.refine"):
        _, log = greedy_refine(sc, sz, ASYM, RefinerParams(lam=0.01))
    lines = [r.getMessage() for r in caplog.records if r.name == "navstream.refine"]
    assert len(lines) == len(log.steps) + 1 == len(log.iterations)
    assert lines[0].startswith("iteration 1: skipped 0, pruned 0, evaluated 1, J ")
    assert f"J {log.steps[-1][2]!r}, bound " in lines[-1]
    assert re.fullmatch(r".*, bound [\d.]+ s, exact [\d.]+ s", lines[-1])
    first, last = log.iterations[0], log.iterations[-1]
    assert {k: first[k] for k in ("phase", "iteration", "skipped", "pruned", "evaluated")} == {
        "phase": 1, "iteration": 1, "skipped": 0, "pruned": 0, "evaluated": 1
    }
    assert first["t_bound"] >= 0 and first["t_exact"] > 0
    assert last["J"] == log.steps[-1][2]


def test_search_records_the_exact_cost_it_returns():
    rng = np.random.default_rng(47)
    for buffer in ("flex", "fixed"):
        sc = random_scenario(rng, 5, 2)
        sz = random_sizes(rng, 5)
        init = random_structure(rng, 5, edge_prob=0.1)
        final, log = greedy_refine(sc, sz, init, RefinerParams(0.05, buffer))
        assert log.expected_cost == evaluate(sc, sz, final, buffer).expected_cost


def test_two_phase_search_equals_refine_then_subtract(caplog):
    """One search with an add phase and a remove phase is greedy_refine
    followed by greedy_subtract, less the second evaluation of the added
    structure: the same steps, structure, summed counters and cost, and the
    same DEBUG line per iteration (its number, and J, which each phase
    starts from storage_cost recomputed from scratch)."""
    # at this seed, two cases start the remove phase from a J whose last bits
    # differ between storage recomputed and the add phase's last J
    rng = np.random.default_rng(87)
    both_phases_moved = 0

    def iteration_lines(search):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="navstream.refine"):
            found = search()
        own = [r for r in caplog.records if r.name == "navstream.refine"]
        # all but the seconds, which differ from run to run
        return found, [r.getMessage().split(", bound ")[0] for r in own]

    for _ in range(8):
        n = int(rng.integers(3, 7))
        sc = random_scenario(rng, n, int(rng.integers(1, 4)))
        sz = random_sizes(rng, n)
        init = random_structure(rng, n, edge_prob=0.3)
        lam = float(rng.uniform(0.02, 0.4))
        for buffer in ("flex", "fixed"):
            for prune in (True, False):
                params = RefinerParams(lam, buffer, prune)
                (got, log), lines = iteration_lines(
                    lambda: greedy_search(
                        sc, sz, init, params, (ADD_EDGE,), (REMOVE_EDGE,)
                    )
                )
                (added, log_add), add_lines = iteration_lines(
                    lambda: greedy_refine(sc, sz, init, params)
                )
                (want, log_sub), sub_lines = iteration_lines(
                    lambda: greedy_subtract(sc, sz, added, params)
                )
                assert got == want
                assert lines == add_lines + sub_lines
                assert [(r["phase"], r["iteration"]) for r in log.iterations] == [
                    (phase, it) for phase, rs in ((1, log_add), (2, log_sub))
                    for it in range(1, len(rs.iterations) + 1)
                ]
                assert log.steps == [
                    (it, (edge,), j) for it, edge, j in log_add.steps + log_sub.steps
                ]
                for counter in ("total", "pruned", "skipped"):
                    name = f"candidates_{counter}"
                    assert getattr(log, name) == (
                        getattr(log_add, name) + getattr(log_sub, name)
                    )
                assert log.expected_cost == log_sub.expected_cost
                both_phases_moved += bool(log_add.steps and log_sub.steps)
    assert both_phases_moved


def test_request_weights_reproduce_all_i_cost():
    """With I-MDUs only, every request costs I[j]: c = I[start] + sum W[j] I[j]."""
    rng = np.random.default_rng(53)
    scenarios = [pingpong_scenario(1.5, 4)] + [
        random_scenario(rng, int(rng.integers(3, 8)), int(rng.integers(1, 5)))
        for _ in range(6)
    ]
    for sc in scenarios:
        n = sc.graph.n
        sz = random_sizes(rng, n)
        weights = request_weights(sc)
        want = sz.i(sc.graph.start) + sum(w * sz.i(j) for j, w in enumerate(weights))
        for evaluator in (eval_fixed, eval_flexible):
            got = evaluator(sc, sz, all_i_structure(n)).expected_cost
            assert got == pytest.approx(want, rel=1e-12, abs=0)


def test_refine_rejects_invalid_initial():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    bad = Structure(i_set=frozenset({5}), p_edges=frozenset())
    with pytest.raises(InvalidInputError):
        greedy_refine(sc, sz, bad, RefinerParams(lam=0.1))


def test_subtract_drops_useless_edges_keeps_feasible():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    # only MDU 0 intra-coded: edge (0, 1) is load-bearing, (1, 0) is not
    st = Structure(i_set=frozenset({0}), p_edges=frozenset({(0, 1), (1, 0)}))
    final, log = greedy_subtract(sc, sz, st, RefinerParams(lam=10.0))
    assert (0, 1) in final.p_edges
    assert final.validate(2) == []
    assert (1, 0) not in final.p_edges


def test_subtract_noop_when_everything_earns_its_keep():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    st = Structure(i_set=frozenset({0, 1}), p_edges=frozenset({(0, 1), (1, 0)}))
    final, log = greedy_subtract(sc, sz, st, RefinerParams(lam=0.001))
    assert final == st


def test_sweep_rows_sorted_and_complete():
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=3, cols=3))
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.0, 2))
    rows = sweep(sc, sizes, [0.8, 0.2], RefinerParams(lam=0.2))
    assert [r.lam for r in rows] == [0.2, 0.8]
    for r in rows:
        assert r.storage_bits > 0 and r.expected_bits > 0
        assert r.landmarks >= 1 and r.p_edges >= 0


def test_sweep_requires_lambdas():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    with pytest.raises(InvalidInputError):
        sweep(sc, sz, [], RefinerParams(lam=0.1))


def test_sweep_wraps_internal_failures():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    with pytest.raises(InvalidInputError, match="sweep failed"):
        sweep(sc, sz, [-2.0], RefinerParams(lam=0.1))
