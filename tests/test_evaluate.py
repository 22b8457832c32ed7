import numpy as np
import pytest

from conftest import (
    pingpong_scenario,
    pingpong_sizes,
    random_scenario,
    random_sizes,
    random_structure,
    uniform_sizes,
)
from navstream.costs import Structure, all_i_structure
from navstream.errors import InfeasibleStructureError, InvalidInputError
from navstream.evaluate import (
    EMPTY,
    CostTables,
    Policy,
    eval_fixed,
    eval_flexible,
    evaluate,
)
from navstream.scenario import (
    START,
    MediaGraph,
    NavigationModel,
    Scenario,
    build_lifetime_tail,
)

ASYM = Structure(i_set=frozenset({0, 1}), p_edges=frozenset({(0, 1)}))
SYM = Structure(i_set=frozenset({0, 1}), p_edges=frozenset({(0, 1), (1, 0)}))


def _line3_landmark():
    """3-MDU line, landmark at the middle MDU predicting both ends."""
    graph = MediaGraph(n=3, neighbors=((1,), (0, 2), (1,)), start=1)
    nav = NavigationModel(
        p_start={0: 0.5, 2: 0.5},
        p_switch={
            (1, 0, 1): 1.0, (1, 2, 1): 1.0,
            (0, 1, 0): 0.5, (0, 1, 2): 0.5,
            (2, 1, 0): 0.5, (2, 1, 2): 0.5,
        },
    )
    st = Structure(i_set=frozenset({1}), p_edges=frozenset({(1, 0), (1, 2)}))
    return graph, nav, st


# --- hand-expanded ping-pong values -----------------------------------------

def test_pingpong_one_way_edge():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    assert eval_fixed(sc, sz, ASYM).expected_cost == pytest.approx(
        19.546673852885867, rel=1e-12
    )
    assert eval_flexible(sc, sz, ASYM).expected_cost == pytest.approx(
        19.546673852885867, rel=1e-12
    )


def test_pingpong_both_edges():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    assert eval_fixed(sc, sz, SYM).expected_cost == pytest.approx(
        17.15545748527149, rel=1e-12
    )


def test_pingpong_weight_first_switch():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    got = eval_fixed(sc, sz, ASYM, weight_first_switch=True).expected_cost
    assert got == pytest.approx(14.14414560087423, rel=1e-12)
    assert got < eval_fixed(sc, sz, ASYM).expected_cost


def test_line3_landmark_golden():
    graph, nav, st = _line3_landmark()
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.0, 2))
    sz = uniform_sizes(3)
    assert eval_flexible(sc, sz, st).expected_cost == pytest.approx(
        22.026767360252364, rel=1e-12
    )
    assert eval_fixed(sc, sz, st).expected_cost == pytest.approx(
        22.026767360252364, rel=1e-12
    )


def test_single_mdu_costs_its_i_size():
    graph = MediaGraph(n=1, neighbors=((),), start=0)
    nav = NavigationModel(p_start={}, p_switch={})
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.0, 2))
    sz = uniform_sizes(1)
    assert eval_fixed(sc, sz, all_i_structure(1)).expected_cost == 11.0
    assert eval_flexible(sc, sz, all_i_structure(1)).expected_cost == 11.0


# --- buffer semantics -------------------------------------------------------

def test_flexible_beats_fixed_by_retaining_old_reference():
    # 0 -> 1 -> 2 where 2 is only predictable from 0; the flexible buffer
    # keeps 0 as the reference across the middle switch.
    graph = MediaGraph(n=3, neighbors=((1,), (2,), (1,)), start=0)
    nav = NavigationModel(
        p_start={1: 1.0},
        p_switch={(0, 1, 2): 1.0, (1, 2, 1): 1.0, (2, 1, 2): 1.0},
    )
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.0, 2))
    sz = uniform_sizes(3)
    st = Structure(
        i_set=frozenset({0, 1, 2}), p_edges=frozenset({(0, 1), (0, 2)})
    )
    fx = eval_fixed(sc, sz, st).expected_cost
    fl = eval_flexible(sc, sz, st).expected_cost
    assert fl < fx
    act = eval_flexible(sc, sz, st).policy.actions[(1, 0, 1, 0, 2)]
    assert act == ("1hop", 0)


def test_flexible_never_worse_than_fixed_random():
    rng = np.random.default_rng(21)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        sc = random_scenario(rng, n, int(rng.integers(1, 4)))
        sz = random_sizes(rng, n)
        st = random_structure(rng, n)
        fx = eval_fixed(sc, sz, st).expected_cost
        fl = eval_flexible(sc, sz, st).expected_cost
        assert fl <= fx + 1e-9


def test_edge_addition_never_increases_cost():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n = 5
        sc = random_scenario(rng, n, 3)
        sz = random_sizes(rng, n)
        st = random_structure(rng, n, edge_prob=0.2)
        base_fx = eval_fixed(sc, sz, st).expected_cost
        base_fl = eval_flexible(sc, sz, st).expected_cost
        i = int(rng.integers(n))
        j = (i + 1 + int(rng.integers(n - 1))) % n
        grown = st.with_edge((i, j))
        assert eval_fixed(sc, sz, grown).expected_cost <= base_fx + 1e-9
        assert eval_flexible(sc, sz, grown).expected_cost <= base_fl + 1e-9


def test_tie_prefers_one_hop():
    # I_1 = 4.5 equals the P + M route, so both actions cost the same.
    p = np.full((2, 2), 1.0)
    np.fill_diagonal(p, np.nan)
    from navstream.costs import SizeTable

    sz = SizeTable([11.0, 4.5], [3.5, 3.5], p)
    sc = pingpong_scenario()
    res = eval_fixed(sc, sz, ASYM)
    assert res.policy.actions[(0, START, 0, 1)] == ("1hop", 0)
    res = eval_flexible(sc, sz, ASYM)
    assert res.policy.actions[(0, START, 0, EMPTY, 1)] == ("1hop", 0)


def test_infeasible_structure_raises():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    st = Structure(i_set=frozenset({0}), p_edges=frozenset())
    with pytest.raises(InfeasibleStructureError):
        eval_fixed(sc, sz, st)
    with pytest.raises(InfeasibleStructureError):
        eval_flexible(sc, sz, st)


def test_evaluate_dispatch():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    assert evaluate(sc, sz, ASYM, "fixed").expected_cost == pytest.approx(
        eval_fixed(sc, sz, ASYM).expected_cost
    )
    with pytest.raises(InvalidInputError):
        evaluate(sc, sz, ASYM, "elastic")


def test_cost_tables_match_zero_hop_overhead():
    from navstream.costs import zero_hop_overhead

    rng = np.random.default_rng(31)
    for _ in range(10):
        n = 6
        sz = random_sizes(rng, n)
        st = random_structure(rng, n)
        tables = CostTables(st, sz, n)
        for j in range(n):
            assert tables.r_i[j] == pytest.approx(
                zero_hop_overhead(st, sz, j), rel=1e-12
            )


def test_expected_cost_at_least_start_transmission():
    rng = np.random.default_rng(37)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        sc = random_scenario(rng, n, 2)
        sz = random_sizes(rng, n)
        st = random_structure(rng, n)
        tables = CostTables(st, sz, n)
        for fn in (eval_fixed, eval_flexible):
            assert fn(sc, sz, st).expected_cost >= tables.r_i[sc.graph.start] - 1e-12


# --- policy artifact --------------------------------------------------------

def test_policy_round_trip(tmp_path):
    sc, sz = pingpong_scenario(), pingpong_sizes()
    policy = eval_flexible(sc, sz, SYM).policy
    path = tmp_path / "policy.json"
    policy.save(path)
    back = Policy.load(path)
    assert back.buffer == policy.buffer
    assert back.weight_first_switch == policy.weight_first_switch
    assert back.actions == policy.actions


def test_policy_load_rejects_garbage(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text('{"buffer": "flex"}')
    with pytest.raises(InvalidInputError):
        Policy.load(path)


def test_extract_policy_actions_are_feasible():
    sc, sz = pingpong_scenario(mu=2.0, t_max=3), pingpong_sizes()
    res = eval_flexible(sc, sz, SYM)
    for act in res.policy.actions.values():
        if act[0] == "1hop":
            assert (act[1],) in {(0,), (1,)}
        elif act[0] == "2hop":
            assert (act[2], act[1]) in SYM.p_edges and (act[1],) in {(0,), (1,)}
