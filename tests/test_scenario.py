import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import pingpong_scenario, random_scenario
from navstream.errors import InvalidInputError
from navstream.scenario import (
    START,
    MediaGraph,
    NavigationModel,
    aggregate_switch_probabilities,
    build_lifetime_tail,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
    validate_navigation_model,
)


# --- lifetime tail ----------------------------------------------------------

def test_tail_values_mu2_tmax4():
    lt = build_lifetime_tail(2.0, 4)
    assert lt.g(1) == pytest.approx(0.8120116994196762, rel=1e-12)
    assert lt.g(4) == pytest.approx(0.09022352215774179, rel=1e-12)


def test_tail_mu1_tmax1_is_exp_minus_one():
    lt = build_lifetime_tail(1.0, 1)
    assert lt.g(1) == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_tail_zero_beyond_tmax_and_g0_full_mass():
    lt = build_lifetime_tail(2.0, 4)
    assert lt.g(5) == 0.0
    assert lt.g(100) == 0.0
    assert lt.g(0) == pytest.approx(sum(lt.pmf), rel=1e-12)


def test_tail_rejects_bad_params():
    with pytest.raises(InvalidInputError):
        build_lifetime_tail(0.0, 3)
    with pytest.raises(InvalidInputError):
        build_lifetime_tail(2.0, 0)
    with pytest.raises(InvalidInputError):
        build_lifetime_tail(2.0, 2.5)
    lt = build_lifetime_tail(1.0, 2)
    with pytest.raises(InvalidInputError):
        lt.g(-1)


@given(
    mu=st.floats(min_value=0.01, max_value=60.0),
    t_max=st.integers(min_value=1, max_value=200),
)
@settings(max_examples=60, deadline=None)
def test_tail_monotone_and_bounded(mu, t_max):
    lt = build_lifetime_tail(mu, t_max)
    prev = 1.0 + 1e-15
    for t in range(t_max + 1):
        g = lt.g(t)
        assert 0.0 <= g <= prev
        prev = g
    assert lt.g(t_max + 1) == 0.0


def test_tail_large_mu_stays_finite():
    lt = build_lifetime_tail(50.0, 200)
    assert lt.g(0) == pytest.approx(1.0, abs=1e-9)
    assert all(math.isfinite(p) for p in lt.pmf)


# --- navigation validation --------------------------------------------------

def test_validate_clean_random_scenarios():
    rng = np.random.default_rng(7)
    for _ in range(10):
        sc = random_scenario(rng, int(rng.integers(2, 8)), 3)
        assert validate_navigation_model(sc.graph, sc.nav) == []


def test_validate_flags_missing_row():
    sc = pingpong_scenario()
    nav = NavigationModel(p_start=sc.nav.p_start, p_switch={(0, 1, 0): 1.0})
    report = validate_navigation_model(sc.graph, nav)
    assert any("missing" in line and "(k=1, i=0)" in line for line in report)


def test_validate_flags_unnormalized_row():
    sc = pingpong_scenario()
    nav = NavigationModel(
        p_start={1: 0.7},
        p_switch={(0, 1, 0): 1.0, (1, 0, 1): 1.0},
    )
    report = validate_navigation_model(sc.graph, nav)
    assert any("p_start" in line and "sums" in line for line in report)


def test_validate_flags_non_neighbor_target():
    graph = MediaGraph(n=3, neighbors=((1,), (0,), (0,)), start=0)
    nav = NavigationModel(
        p_start={1: 1.0},
        p_switch={(0, 1, 0): 1.0, (1, 0, 1): 1.0, (2, 0, 2): 1.0},
    )
    report = validate_navigation_model(graph, nav)
    assert any("non-neighbor" in line for line in report)


def test_validate_flags_self_neighbor():
    graph = MediaGraph(n=2, neighbors=((0, 1), (0,)), start=0)
    assert any("itself" in line for line in graph.validate())


# --- aggregate switch probabilities ----------------------------------------

def test_aggregate_pingpong_mass():
    sc = pingpong_scenario(mu=2.0, t_max=4)
    q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
    expect = sc.lifetime.g(1) + sc.lifetime.g(2)
    assert q.total() == pytest.approx(expect, rel=1e-12)
    assert q.total() == pytest.approx(1.353352832366127, rel=1e-12)


def test_aggregate_mass_equals_tail_sum_over_horizon():
    rng = np.random.default_rng(11)
    for _ in range(10):
        sc = random_scenario(rng, int(rng.integers(2, 7)), 4, mu=2.7)
        q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
        horizon = max(1, int(sc.lifetime.mu))
        expect = sum(sc.lifetime.g(t) for t in range(1, horizon + 1))
        assert q.total() == pytest.approx(expect, abs=1e-9)


def test_aggregate_get_defaults_to_zero():
    sc = pingpong_scenario()
    q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
    assert q.get(1, 1) == 0.0


# --- scenario file format ---------------------------------------------------

def test_scenario_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    sc = random_scenario(rng, 5, 3)
    path = tmp_path / "scenario.json"
    save_scenario(sc, path)
    back = load_scenario(path)
    assert back.graph == sc.graph
    assert back.nav.p_start == pytest.approx(sc.nav.p_start)
    assert back.nav.p_switch == pytest.approx(sc.nav.p_switch)
    assert back.lifetime.mu == sc.lifetime.mu
    assert back.lifetime.t_max == sc.lifetime.t_max


def test_scenario_rejects_unknown_and_missing_keys():
    sc = pingpong_scenario()
    data = scenario_to_dict(sc)
    data["extra"] = 1
    with pytest.raises(InvalidInputError, match="unknown"):
        scenario_from_dict(data)
    del data["extra"]
    del data["lifetime"]
    with pytest.raises(InvalidInputError, match="missing"):
        scenario_from_dict(data)


def test_scenario_rejects_bad_graph():
    sc = pingpong_scenario()
    data = scenario_to_dict(sc)
    data["start"] = 9
    with pytest.raises(InvalidInputError):
        scenario_from_dict(data)


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(InvalidInputError):
        load_scenario(tmp_path / "nope.json")


def test_nav_prob_routes_start_sentinel():
    sc = pingpong_scenario()
    assert sc.nav.prob(START, 0, 1) == 1.0
    assert sc.nav.prob(0, 1, 0) == 1.0
    assert sc.nav.prob(0, 1, 1) == 0.0
