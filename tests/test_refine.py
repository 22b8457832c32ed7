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
from navstream.errors import InvalidInputError
from navstream.evaluate import eval_fixed, eval_flexible, evaluate
from navstream.refine import (
    RefinerParams,
    greedy_refine,
    greedy_subtract,
    lower_bound_cost,
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
    lb = lower_bound_cost(sc, sz, structure, request_weights(sc))
    exact = evaluate(sc, sz, structure, buffer).expected_cost
    assert lb <= exact * (1 + 1e-12)


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
