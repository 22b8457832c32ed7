import json
import math

import numpy as np
import pytest

from conftest import (
    pingpong_scenario,
    pingpong_sizes,
    random_scenario,
    random_sizes,
    random_structure,
    reference_sessions,
    uniform_sizes,
    v3_dict,
)
from navstream.costs import Structure, all_i_structure
from navstream.errors import (
    InvalidInputError,
    OracleRefusalError,
    PolicyGapError,
)
from navstream.evaluate import EMPTY, Policy, eval_fixed, eval_flexible
from navstream.oracle import (
    enumerate_policies,
    simulate_sessions,
    unmemoized_eval,
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


def _line3(t_max: int) -> tuple[Scenario, Structure]:
    graph = MediaGraph(n=3, neighbors=((1,), (0, 2), (1,)), start=1)
    nav = NavigationModel(
        p_start={0: 0.5, 2: 0.5},
        p_switch={
            (1, 0, 1): 1.0, (1, 2, 1): 1.0,
            (0, 1, 0): 0.5, (0, 1, 2): 0.5,
            (2, 1, 0): 0.5, (2, 1, 2): 0.5,
        },
    )
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.0, t_max))
    st = Structure(i_set=frozenset({1}), p_edges=frozenset({(1, 0), (1, 2)}))
    return sc, st


# --- unmemoized recursion ---------------------------------------------------

def test_unmemoized_matches_dp_random():
    rng = np.random.default_rng(61)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        t_max = int(rng.integers(1, 4))
        sc = random_scenario(rng, n, t_max)
        sz = random_sizes(rng, n)
        st = random_structure(rng, n)
        for buffer, fn in (("fixed", eval_fixed), ("flex", eval_flexible)):
            for w1 in (False, True):
                dp = fn(sc, sz, st, weight_first_switch=w1).expected_cost
                ref = unmemoized_eval(sc, sz, st, buffer, weight_first_switch=w1)
                assert dp == pytest.approx(ref, rel=1e-12)


def test_unmemoized_refuses_large_instances():
    rng = np.random.default_rng(63)
    sc = random_scenario(rng, 9, 2)
    with pytest.raises(OracleRefusalError):
        unmemoized_eval(sc, random_sizes(rng, 9), all_i_structure(9), "flex")
    sc = random_scenario(rng, 4, 6)
    with pytest.raises(OracleRefusalError):
        unmemoized_eval(sc, random_sizes(rng, 4), all_i_structure(4), "fixed")


def test_unmemoized_rejects_unknown_buffer():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    with pytest.raises(InvalidInputError):
        unmemoized_eval(sc, sz, ASYM, "elastic")


# --- exhaustive policy enumeration -----------------------------------------

def test_enumerate_matches_dp_pingpong():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    for st in (ASYM, SYM):
        for w1 in (False, True):
            assert enumerate_policies(sc, sz, st, "fixed", w1) == eval_fixed(
                sc, sz, st, w1
            ).expected_cost
            assert enumerate_policies(sc, sz, st, "flex", w1) == eval_flexible(
                sc, sz, st, w1
            ).expected_cost


def test_enumerate_matches_dp_line3():
    sc, st = _line3(t_max=1)
    sz = uniform_sizes(3)
    assert enumerate_policies(sc, sz, st, "flex") == eval_flexible(
        sc, sz, st
    ).expected_cost
    assert enumerate_policies(sc, sz, st, "fixed") == eval_fixed(
        sc, sz, st
    ).expected_cost


def test_enumerate_refuses_size_guard():
    rng = np.random.default_rng(67)
    sc = random_scenario(rng, 4, 2)
    with pytest.raises(OracleRefusalError, match="refused"):
        enumerate_policies(sc, random_sizes(rng, 4), all_i_structure(4), "fixed")
    sc = random_scenario(rng, 3, 3)
    with pytest.raises(OracleRefusalError, match="refused"):
        enumerate_policies(sc, random_sizes(rng, 3), all_i_structure(3), "fixed")


def test_enumerate_refuses_policy_explosion():
    # N = 3, t_max = 2 passes the size guard but the flexible-buffer slot
    # product explodes past the policy budget.
    sc, st = _line3(t_max=2)
    with pytest.raises(OracleRefusalError, match="policies"):
        enumerate_policies(sc, uniform_sizes(3), st, "flex")


# --- Monte-Carlo simulation -------------------------------------------------

def test_simulate_deterministic_per_seed():
    sc, sz = pingpong_scenario(mu=2.0, t_max=4), pingpong_sizes()
    policy = eval_flexible(sc, sz, SYM).policy
    a = simulate_sessions(sc, sz, SYM, policy, 500, seed=9)
    b = simulate_sessions(sc, sz, SYM, policy, 500, seed=9)
    c = simulate_sessions(sc, sz, SYM, policy, 500, seed=10)
    assert a.mean == b.mean and a.stderr == b.stderr
    assert a.mean != c.mean


def test_simulate_single_mdu_has_zero_spread():
    graph = MediaGraph(n=1, neighbors=((),), start=0)
    nav = NavigationModel(p_start={}, p_switch={})
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.0, 2))
    sz = uniform_sizes(1)
    policy = eval_fixed(sc, sz, all_i_structure(1)).policy
    res = simulate_sessions(sc, sz, all_i_structure(1), policy, 200, seed=0)
    assert res.mean == 11.0
    assert res.stderr == 0.0


def test_simulate_consistency_matches_dp():
    sc, sz = pingpong_scenario(mu=2.0, t_max=4), pingpong_sizes()
    for w1 in (False, True):
        for buffer, fn in (("fixed", eval_fixed), ("flex", eval_flexible)):
            res = fn(sc, sz, SYM, weight_first_switch=w1)
            sim = simulate_sessions(
                sc, sz, SYM, res.policy, 40_000, seed=3, consistency_mode=True
            )
            z = abs(sim.mean - res.expected_cost) / max(sim.stderr, 1e-12)
            assert z < 5.0, (buffer, w1, sim.mean, res.expected_cost)


def test_simulate_default_mode_tracks_renormalized_lifetime():
    # same structure, default lifetime draw: mean must be within 5 sigma of
    # a direct expectation over the truncated lifetime distribution
    sc, sz = pingpong_scenario(mu=1.0, t_max=1), pingpong_sizes()
    res = eval_fixed(sc, sz, SYM)
    sim = simulate_sessions(sc, sz, SYM, res.policy, 40_000, seed=4)
    pmf = np.asarray(sc.lifetime.pmf)
    pmf = pmf / pmf.sum()
    # 0 switches -> 11 bits; 1 switch -> 11 + 4.5
    expect = pmf[0] * 11.0 + pmf[1] * 15.5
    z = abs(sim.mean - expect) / max(sim.stderr, 1e-12)
    assert z < 5.0


def test_simulate_traces_are_sampled():
    sc, sz = pingpong_scenario(mu=2.0, t_max=4), pingpong_sizes()
    policy = eval_flexible(sc, sz, SYM).policy
    res = simulate_sessions(sc, sz, SYM, policy, 50, seed=1)
    assert 0 < len(res.traces) <= 10
    for tr in res.traces:
        assert tr.path[0] == 0
        assert tr.lifetime == len(tr.actions)
        assert tr.bits >= 11.0


def test_simulate_policy_gap_raises():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    empty = Policy(buffer="fixed", weight_first_switch=False)
    with pytest.raises(PolicyGapError):
        simulate_sessions(sc, sz, SYM, empty, 10, seed=0)


def _naive_code(key, sc):
    """A flexible key (t, cur, buffered, target) as one mixed-radix integer
    over this scenario's ranges, with no check that it lies in them."""
    n = sc.graph.n
    t, i, gam, j = key
    return ((t * n + i) * (n + 2) + gam + 2) * n + j


def test_simulate_ignores_keys_outside_the_scenario():
    # every session's first switch is the request (0, START, 0, EMPTY, 1),
    # keyed (0, 0, EMPTY, 1); a row with cur -1 and buffered 2 packs to its
    # code under a naive radix
    sc, sz = pingpong_scenario(mu=2.0, t_max=3), pingpong_sizes()
    policy = eval_flexible(sc, sz, SYM).policy
    first, alias = (0, 0, -2, 1), (0, -1, 2, 1)
    assert _naive_code(alias, sc) == _naive_code(first, sc)
    data = v3_dict(policy)
    keys = [tuple(data["keys"][4 * m:4 * m + 4]) for m in range(len(data["index"]))]
    row = keys.index(first)
    other = ["0hop", 0]  # not the action the policy takes at `first`
    assert tuple(other) != data["actions"][data["index"][row]]
    data["actions"].append(other)
    beside = json.loads(json.dumps(data))  # the alias beside the real key
    beside["keys"] += alias
    beside["index"].append(len(data["actions"]) - 1)
    clean = simulate_sessions(sc, sz, SYM, policy, 200, seed=3)
    got = simulate_sessions(sc, sz, SYM, Policy.from_dict(beside), 200, seed=3)
    assert (got.mean, got.traces) == (clean.mean, clean.traces)
    data["keys"][4 * row:4 * row + 4] = alias  # only the alias covers it
    data["index"][row] = len(data["actions"]) - 1
    with pytest.raises(PolicyGapError) as err:
        simulate_sessions(sc, sz, SYM, Policy.from_dict(data), 200, seed=3)
    assert str(err.value) == f"policy does not cover state {(0, START, 0, EMPTY, 1)}"


def test_simulate_names_the_first_gap_of_the_lowest_numbered_session():
    # session 21's first gap is at t = 3, a later session's at t = 2
    rng = np.random.default_rng(18)
    sc = random_scenario(rng, 5, 4)
    sz, st = random_sizes(rng, 5), random_structure(rng, 5)
    full = eval_flexible(sc, sz, st).policy
    data = v3_dict(full)
    keys = np.array(data["keys"]).reshape(-1, 4)
    # drop a tenth of the keys at depth 2 and deeper, drawn in sorted key
    # order, as `v3_dict` lists them
    keep = np.random.default_rng(11).random(len(keys)) < 0.9
    keep |= keys[:, 0] < 2
    data["keys"] = keys[keep].ravel().tolist()
    data["index"] = np.array(data["index"])[keep].tolist()
    policy = Policy.from_dict(data)
    # the sessions walked one after another, each switch by switch, to the
    # depth and message of each one's first gap
    gaps = {}
    for m, targets in enumerate(reference_sessions(sc, 300, seed=2)):
        k, i, gam = START, sc.graph.start, EMPTY
        for t, j in enumerate(targets):
            if (t, i, gam, j) not in policy.actions:
                gaps[m] = (t, f"policy does not cover state {(t, k, i, gam, j)}")
                break
            k, i, gam = i, j, policy.actions[(t, i, gam, j)][1]
    depth, want = gaps[min(gaps)]
    assert depth > min(t for t, _ in gaps.values())  # not the shallowest gap
    with pytest.raises(PolicyGapError) as err:
        simulate_sessions(sc, sz, st, policy, 300, seed=2)
    assert str(err.value) == want


def test_simulate_refuses_a_policy_of_another_structure():
    # SYM stores every edge that ASYM's policy uses, so no state has a gap
    sc, sz = pingpong_scenario(mu=2.0, t_max=4), pingpong_sizes()
    policy = eval_flexible(sc, sz, ASYM).policy
    assert simulate_sessions(sc, sz, ASYM, policy, 100, seed=0).mean > 0
    both = (
        r"built for the structure with I-MDUs \[0, 1\] and P-edges \[\[0, 1\]\], "
        r"not for the simulated one with I-MDUs \[0, 1\] and P-edges "
        r"\[\[0, 1\], \[1, 0\]\]"
    )
    with pytest.raises(InvalidInputError, match=both):
        simulate_sessions(sc, sz, SYM, policy, 100, seed=0)
    policy.structure = None  # as loaded from a version-1 or -2 file
    assert simulate_sessions(sc, sz, SYM, policy, 100, seed=0).mean > 0


def test_simulate_rejects_bad_session_count():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    policy = eval_fixed(sc, sz, SYM).policy
    with pytest.raises(InvalidInputError):
        simulate_sessions(sc, sz, SYM, policy, 0, seed=0)
