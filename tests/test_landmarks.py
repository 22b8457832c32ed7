import numpy as np
import pytest

from conftest import uniform_sizes
from navstream.adapters import LfGridSpec, build_lf_scenario
from navstream.costs import grid_sizes
from navstream.errors import InvalidInputError
from navstream.landmarks import (
    Partition,
    PlannerParams,
    _phi_all,
    build_initial_structure,
    delta,
    furthest_init,
    lloyd_split,
    phi,
    tsvq,
)
from navstream.scenario import (
    AggregateSwitchProbs,
    Scenario,
    aggregate_switch_probabilities,
    build_lifetime_tail,
)


def _params(w, q=None, **kw):
    return PlannerParams(w=w, q=AggregateSwitchProbs(q=q or {}), **kw)


def _lf_setup(rows=4, cols=4, mu=1.0, t_max=2):
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=rows, cols=cols))
    lifetime = build_lifetime_tail(mu, t_max)
    q = aggregate_switch_probabilities(graph, nav, lifetime)
    return graph, sizes, q


# --- cost terms -------------------------------------------------------------

def test_phi_two_member_hand_value():
    part = Partition(members=frozenset({0, 1}), landmark=0)
    params = _params(0.1, {(0, 1): 0.5, (1, 0): 0.5})
    # 0.5 * (1 + 3.5) inbound to the spoke + 0.1 * (11 + 1) storage
    assert phi(part, uniform_sizes(2), params) == pytest.approx(3.45)


def test_phi_singleton_is_weighted_i_size():
    part = Partition(members=frozenset({1}), landmark=1)
    params = _params(0.25, {(1, 1): 0.9})
    assert phi(part, uniform_sizes(2), params) == pytest.approx(0.25 * 11.0)


def test_phi_switch_onto_landmark_is_free():
    part = Partition(members=frozenset({0, 1}), landmark=0)
    params = _params(0.0, {(1, 0): 1.0})  # only switches back onto the landmark
    assert phi(part, uniform_sizes(2), params) == 0.0


def test_phi_all_matches_scalar_phi():
    graph, sizes, q = _lf_setup()
    params = PlannerParams(w=0.3, q=q)
    members = [0, 1, 2, 5, 6, 10]
    vec = _phi_all(members, sizes, params)
    for idx, l in enumerate(members):
        part = Partition(members=frozenset(members), landmark=l)
        assert vec[idx] == pytest.approx(phi(part, sizes, params), rel=1e-12)


def test_delta_hand_value():
    p1 = Partition(members=frozenset({0}), landmark=0)
    p2 = Partition(members=frozenset({1}), landmark=1)
    params = _params(0.1, {(0, 1): 0.5})
    # cross switch: hop to the other landmark (1 + 3.5), landing on it free;
    # storage: both inter-landmark P-MDUs.
    assert delta(p1, p2, uniform_sizes(2), params) == pytest.approx(
        0.5 * 4.5 + 0.1 * 2.0
    )


def test_delta_requires_disjoint():
    p1 = Partition(members=frozenset({0, 1}), landmark=0)
    p2 = Partition(members=frozenset({1}), landmark=1)
    with pytest.raises(InvalidInputError):
        delta(p1, p2, uniform_sizes(2), _params(0.1))


def test_planner_params_rejects_bad_weight():
    for w in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidInputError):
            _params(w)


def test_partition_validates():
    with pytest.raises(InvalidInputError):
        Partition(members=frozenset(), landmark=0)
    with pytest.raises(InvalidInputError):
        Partition(members=frozenset({1}), landmark=0)


# --- split machinery --------------------------------------------------------

def test_furthest_init_ties_go_lowest():
    part = Partition(members=frozenset({0, 1, 2}), landmark=0)
    assert furthest_init(part, uniform_sizes(3), _params(0.1)) == 1


def test_furthest_init_picks_costliest_member():
    sizes = grid_sizes(1, 5)
    part = Partition(members=frozenset(range(5)), landmark=0)
    q = {(0, 4): 1.0}  # heavy traffic onto the far end of the line
    got = furthest_init(part, sizes, _params(0.05, q))
    assert got == 4


def test_lloyd_split_zero_iters_returns_initialization():
    sizes = grid_sizes(1, 5)
    part = Partition(members=frozenset(range(5)), landmark=0)
    params = _params(0.05, {(0, 4): 1.0}, max_lloyd_iters=0)
    h1, h2 = lloyd_split(part, sizes, params)
    assert h2.members == frozenset({4})
    assert h1.members == frozenset({0, 1, 2, 3})


def test_lloyd_split_partitions_line_geometrically():
    sizes = grid_sizes(1, 6)
    part = Partition(members=frozenset(range(6)), landmark=0)
    params = _params(0.05, {(0, 5): 1.0})
    h1, h2 = lloyd_split(part, sizes, params)
    assert h1.members | h2.members == part.members
    assert not (h1.members & h2.members)
    assert h1.landmark in h1.members and h2.landmark in h2.members
    # each member sits with the landmark whose P-MDU to it is cheaper
    for j in part.members:
        if j in (h1.landmark, h2.landmark):
            continue
        closer2 = sizes.p(h2.landmark, j) < sizes.p(h1.landmark, j)
        assert (j in h2.members) == closer2


def test_lloyd_split_rejects_singleton():
    part = Partition(members=frozenset({3}), landmark=3)
    with pytest.raises(InvalidInputError):
        lloyd_split(part, grid_sizes(1, 5), _params(0.1))


# --- recursive splitting ----------------------------------------------------

def test_tsvq_huge_storage_weight_keeps_one_partition():
    graph, sizes, q = _lf_setup()
    parts = tsvq(graph, sizes, PlannerParams(w=1e6, q=q))
    assert len(parts) == 1
    assert parts[0].members == frozenset(range(graph.n))


def test_tsvq_splits_two_traffic_clusters():
    from navstream.scenario import MediaGraph

    graph = MediaGraph(
        n=8,
        neighbors=tuple(
            tuple(x for x in (i - 1, i + 1) if 0 <= x < 8) for i in range(8)
        ),
        start=0,
    )
    sizes = grid_sizes(1, 8)
    q = {(0, 1): 1.0, (1, 0): 1.0, (6, 7): 1.0, (7, 6): 1.0}
    parts = tsvq(graph, sizes, _params(1e-4, q))
    seen = set()
    for part in parts:
        assert part.landmark in part.members
        assert not (seen & part.members)
        seen |= part.members
    assert seen == set(range(graph.n))
    # one landmark per traffic cluster: a single hub would pay long spokes
    assert len(parts) == 2
    sides = [p.members for p in parts]
    assert any({0, 1} <= m for m in sides) and any({6, 7} <= m for m in sides)


def test_tsvq_returned_partitions_fail_resplit():
    graph, sizes, q = _lf_setup()
    params = PlannerParams(w=0.3, q=q)
    for part in tsvq(graph, sizes, params):
        if len(part.members) < 2:
            continue
        h1, h2 = lloyd_split(part, sizes, params)
        split_cost = (
            phi(h1, sizes, params)
            + phi(h2, sizes, params)
            + delta(h1, h2, sizes, params)
        )
        assert split_cost >= phi(part, sizes, params)


# --- initial structure ------------------------------------------------------

def test_build_initial_structure_shape():
    graph, sizes, q = _lf_setup()
    parts = tsvq(graph, sizes, PlannerParams(w=0.05, q=q))
    st = build_initial_structure(parts, sizes)
    lms = {p.landmark for p in parts}
    assert st.i_set == frozenset(lms)
    n, nl = graph.n, len(lms)
    assert len(st.p_edges) == (n - nl) + nl * (nl - 1)
    assert st.validate(n) == []


def test_planner_params_reject_negative_weight():
    with pytest.raises(InvalidInputError):
        _params(-0.1)
