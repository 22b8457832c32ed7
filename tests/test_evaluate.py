import hashlib
import importlib
import json
import logging
import math
from copy import copy
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    pingpong_scenario,
    pingpong_sizes,
    random_scenario,
    random_sizes,
    random_structure,
    uniform_sizes,
    v3_dict,
)
from navstream.adapters import LfGridSpec, build_lf_scenario, lifetime_defaults
from navstream.baselines import _Lister
from navstream.costs import SizeTable, Structure, all_i_structure
from navstream.errors import InfeasibleStructureError, InvalidInputError
from navstream.evaluate import (
    EMPTY,
    CostTables,
    Policy,
    eval_fixed,
    eval_flexible,
    evaluate,
    fingerprint,
)
from navstream.landmarks import landmark_structure
from navstream.oracle import simulate_sessions
from navstream.refine import request_weights
from navstream.scenario import (
    START,
    MediaGraph,
    NavigationModel,
    Scenario,
    build_lifetime_tail,
)

# the level core's module; `navstream.evaluate` is also the name of a function
core = importlib.import_module("navstream.evaluate")

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
    # (t, cur, buffered, target): at depth 1 on MDU 1 holding 0, asked for 2
    act = eval_flexible(sc, sz, st).policy.actions[(1, 1, 0, 2)]
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
    assert res.policy.actions[(0, 0, 1)] == ("1hop", 0)
    res = eval_flexible(sc, sz, ASYM)
    assert res.policy.actions[(0, 0, EMPTY, 1)] == ("1hop", 0)


def _tie_scenario():
    """K3 with uniform switching, t_max 1, I = 4, M = 1 and P = 1 except P(2, 1) = 3.

    At the last level a request for 1 from cur 2 with nothing buffered ties
    1-hop (from 2), 2-hop (2 -> 0 -> 1) and 0-hop at 4 bits, and a request
    for 2 from cur 1 holding 2 routes through 0, whose first hop ties
    between the buffered 2 and the displayed 1.
    """
    nb = ((1, 2), (0, 2), (0, 1))
    p_switch = {(k, i, j): 0.5 for k in range(3) for i in nb[k] for j in nb[i]}
    nav = NavigationModel(p_start={1: 0.5, 2: 0.5}, p_switch=p_switch)
    sc = Scenario(MediaGraph(3, nb, 0), nav, build_lifetime_tail(1.0, 1))
    p = np.ones((3, 3))
    np.fill_diagonal(p, np.nan)
    p[2, 1] = 3.0
    sz = SizeTable([4.0] * 3, [1.0] * 3, p)
    st = Structure(
        i_set=frozenset({0, 1, 2}),
        p_edges=frozenset({(0, 1), (0, 2), (1, 0), (2, 0), (2, 1)}),
    )
    return sc, sz, st


def _zero_prob_scenario():
    """K3 whose only zero switch probability is start 0 -> 2."""
    nb = ((1, 2), (0, 2), (0, 1))
    p_switch = {(k, i, j): 0.5 for k in range(3) for i in nb[k] for j in nb[i]}
    nav = NavigationModel(p_start={1: 1.0, 2: 0.0}, p_switch=p_switch)
    sc = Scenario(MediaGraph(3, nb, 0), nav, build_lifetime_tail(1.0, 2))
    st = Structure(
        i_set=frozenset({0}), p_edges=frozenset({(0, 1), (0, 2), (1, 2), (2, 1)})
    )
    return sc, uniform_sizes(3), st


def _without_prev(actions):
    """Actions pinned by full key (t, prev, cur[, buffered], target), keyed
    as a policy is, without prev; the copies of a key must agree."""
    out = {}
    for key, act in actions.items():
        assert out.setdefault((key[0], *key[2:]), act) == act, key
    return out


# (expected_cost without and with weight_first_switch, dp_stats, actions by
# full key; dp_stats["actions"] counts requests, one per full key)
_TIE_FIXED = (
    (7.103638323514327, 5.141764732052723),
    {'states': 3, 'actions': 6},
    {
        (0, -1, 0, 1): ('1hop', 0), (0, -1, 0, 2): ('1hop', 0),
        (1, 0, 1, 0): ('1hop', 1), (1, 0, 1, 2): ('0hop',),
        (1, 0, 2, 0): ('1hop', 2), (1, 0, 2, 1): ('1hop', 2),
    },
)
_TIE_FLEX = (
    (6.735758882342885, 5.00642944881611),
    {'states': 6, 'actions': 12},
    {
        (0, -1, 0, -2, 1): ('1hop', 0), (0, -1, 0, -2, 2): ('1hop', 0),
        (1, 0, 1, -2, 0): ('1hop', 1), (1, 0, 1, -2, 2): ('2hop', 0, 1),
        (1, 0, 1, 0, 0): ('1hop', 1), (1, 0, 1, 0, 2): ('1hop', 0),
        (1, 0, 1, 2, 0): ('1hop', 1), (1, 0, 1, 2, 2): ('2hop', 0, 2),
        (1, 0, 2, -2, 0): ('1hop', 2), (1, 0, 2, -2, 1): ('1hop', 2),
        (1, 0, 2, 0, 0): ('1hop', 2), (1, 0, 2, 0, 1): ('1hop', 0),
    },
)
_ZERO_FIXED = (
    (20.398294960986206, 16.18615924731798),
    {'states': 7, 'actions': 14},
    {
        (0, -1, 0, 1): ('1hop', 0), (0, -1, 0, 2): ('1hop', 0),
        (1, 0, 1, 0): ('0hop',), (1, 0, 1, 2): ('1hop', 1),
        (1, 0, 2, 0): ('0hop',), (1, 0, 2, 1): ('1hop', 2),
        (2, 1, 0, 1): ('1hop', 0), (2, 1, 0, 2): ('1hop', 0),
        (2, 1, 2, 0): ('0hop',), (2, 1, 2, 1): ('1hop', 2),
        (2, 2, 0, 1): ('1hop', 0), (2, 2, 0, 2): ('1hop', 0),
        (2, 2, 1, 0): ('0hop',), (2, 2, 1, 2): ('1hop', 1),
    },
)
_ZERO_FLEX = (
    (20.398294960986206, 16.18615924731798),
    {'states': 23, 'actions': 46},
    {
        (0, -1, 0, -2, 1): ('1hop', 0), (0, -1, 0, -2, 2): ('1hop', 0),
        (1, 0, 1, -2, 0): ('0hop', -2), (1, 0, 1, -2, 2): ('1hop', 1),
        (1, 0, 1, 0, 0): ('0hop', 0), (1, 0, 1, 0, 2): ('1hop', 0),
        (1, 0, 1, 2, 0): ('0hop', 1), (1, 0, 1, 2, 2): ('1hop', 1),
        (1, 0, 2, -2, 0): ('0hop', -2), (1, 0, 2, -2, 1): ('1hop', 2),
        (1, 0, 2, 0, 0): ('0hop', 0), (1, 0, 2, 0, 1): ('1hop', 0),
        (1, 0, 2, 1, 0): ('0hop', 1), (1, 0, 2, 1, 1): ('1hop', 2),
        (2, 1, 0, -2, 1): ('1hop', 0), (2, 1, 0, -2, 2): ('1hop', 0),
        (2, 1, 0, 0, 1): ('1hop', 0), (2, 1, 0, 0, 2): ('1hop', 0),
        (2, 1, 0, 1, 1): ('1hop', 0), (2, 1, 0, 1, 2): ('1hop', 0),
        (2, 1, 0, 2, 1): ('1hop', 0), (2, 1, 0, 2, 2): ('1hop', 0),
        (2, 1, 2, -2, 0): ('0hop', -2), (2, 1, 2, -2, 1): ('1hop', 2),
        (2, 1, 2, 0, 0): ('0hop', 0), (2, 1, 2, 0, 1): ('1hop', 0),
        (2, 1, 2, 1, 0): ('0hop', 1), (2, 1, 2, 1, 1): ('1hop', 2),
        (2, 1, 2, 2, 0): ('0hop', 2), (2, 1, 2, 2, 1): ('1hop', 2),
        (2, 2, 0, -2, 1): ('1hop', 0), (2, 2, 0, -2, 2): ('1hop', 0),
        (2, 2, 0, 0, 1): ('1hop', 0), (2, 2, 0, 0, 2): ('1hop', 0),
        (2, 2, 0, 1, 1): ('1hop', 0), (2, 2, 0, 1, 2): ('1hop', 0),
        (2, 2, 0, 2, 1): ('1hop', 0), (2, 2, 0, 2, 2): ('1hop', 0),
        (2, 2, 1, -2, 0): ('0hop', -2), (2, 2, 1, -2, 2): ('1hop', 1),
        (2, 2, 1, 0, 0): ('0hop', 0), (2, 2, 1, 0, 2): ('1hop', 0),
        (2, 2, 1, 1, 0): ('0hop', 1), (2, 2, 1, 1, 2): ('1hop', 1),
        (2, 2, 1, 2, 0): ('0hop', 1), (2, 2, 1, 2, 2): ('1hop', 1),
    },
)



@pytest.mark.parametrize(
    "make, fn, pins",
    [
        (_tie_scenario, eval_fixed, _TIE_FIXED),
        (_tie_scenario, eval_flexible, _TIE_FLEX),
        (_zero_prob_scenario, eval_fixed, _ZERO_FIXED),
        (_zero_prob_scenario, eval_flexible, _ZERO_FLEX),
    ],
)
def test_policy_stats_and_cost_pinned(make, fn, pins):
    # states reached only through the zero-probability request (prev 0,
    # cur 2) are still counted and get actions
    costs, stats, actions = pins
    sc, sz, st = make()
    for w, cost in zip((False, True), costs):
        res = fn(sc, sz, st, weight_first_switch=w)
        assert res.expected_cost == cost
        assert res.dp_stats == stats
        assert res.policy.actions == _without_prev(actions)


def test_long_lifetime_has_no_recursion_limit():
    # each ping-pong target has one predecessor, so every request takes
    # its cheapest stored option
    sc, sz = pingpong_scenario(mu=300.0, t_max=5000), pingpong_sizes()
    tables = CostTables(ASYM, sz, 2)
    w = request_weights(sc)
    # p_bits is indexed by MDU + 1: (1, 2) is the hop over P-edge (0, 1)
    want = tables.r_i[0] + w[0] * tables.r_i[0] + w[1] * tables.p_bits[1, 2]
    for fn in (eval_fixed, eval_flexible):
        assert fn(sc, sz, ASYM).expected_cost == pytest.approx(want, rel=1e-12)


def _repeating_levels_instance():
    """LF 3x3 over 12 switches: from level 3 (fixed buffer) or 4 (flexible)
    on, every level is the same set."""
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=3, cols=3))
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(3.0, 12))
    return sc, sizes, landmark_structure(sc, sizes, 0.5)


def _actions_digest(actions):
    return hashlib.sha256(repr(sorted(actions.items())).encode()).hexdigest()


# evaluator -> (cost with weight_first_switch off, on; dp_stats; digest of
# the sorted policy actions), recorded before the forward pass stopped at
# its fixed point; the digests are of the full-key actions of that time
# (2,208 and 19,928 keys) keyed by `_without_prev` (480 and 4,320 keys)
_REPEAT_PINS = {
    "eval_fixed": (
        (49.35251777790415, 47.44243899654408),
        {"states": 441, "actions": 2208},
        "87df83e304bf4635bb9f72d764f72682cf4e1bab555e1493653355701c66e17d",
    ),
    "eval_flexible": (
        (27.431938222294143, 26.613574830436047),
        {"states": 3993, "actions": 19928},
        "0228c7de836f509c864fe59524e101d3efdc1af79974ca6cb9c087ef6f09bc6c",
    ),
}


@pytest.mark.parametrize("fn", [eval_fixed, eval_flexible])
def test_levels_past_the_fixed_point_are_pinned(fn, caplog, monkeypatch):
    costs, stats, digest = _REPEAT_PINS[fn.__name__]
    sc, sz, st = _repeating_levels_instance()
    expanded, expand = [], core._expand

    def counting(index, lister, level, lo, *leads):
        expanded.append(min(core._CHUNK, level.halves - lo))
        return expand(index, lister, level, lo, *leads)

    monkeypatch.setattr(core, "_expand", counting)
    monkeypatch.setattr(core, "_KEPT", 0)  # keep no forward expansions
    with caplog.at_level(logging.DEBUG, logger="navstream.evaluate"):
        res = fn(sc, sz, st)
    lines = [r.getMessage() for r in caplog.records]
    counts = [int(m.split(": ")[1].split()[0]) for m in lines if m.endswith(" states")]
    # the halves lines come as the backward pass values the levels, last first
    halves = [int(m.split(": ")[1].split()[0]) for m in lines if m.endswith(" listed")][::-1]
    assert len(counts) == len(halves) == 13 and len(set(counts[4:])) == 1
    assert sum(counts) == stats["states"]
    # the forward pass expands the halves of the levels up to the first that
    # repeats the one above it, and no later one; the backward pass expands
    # each of those levels once more, and values every level
    repeat = next(t for t in range(1, 13) if counts[t] == counts[t - 1])
    assert sum(expanded) == 2 * sum(halves[:repeat])
    assert {key[0] for key in res.policy.actions} == set(range(13))
    assert res.expected_cost == costs[0]
    assert res.dp_stats == stats
    assert _actions_digest(res.policy.actions) == digest
    assert fn(sc, sz, st, weight_first_switch=True).expected_cost == costs[1]


@pytest.mark.parametrize("buffer", ["fixed", "flex"])
def test_cost_only_evaluation_builds_no_policy(buffer):
    sc, sz, st = _repeating_levels_instance()
    full = evaluate(sc, sz, st, buffer)
    bare = evaluate(sc, sz, st, buffer, policy=False)
    assert bare.policy is None
    assert (bare.expected_cost, bare.dp_stats) == (full.expected_cost, full.dp_stats)


@pytest.mark.parametrize("seed", range(20))
def test_listers_ignore_the_previous_mdu(seed):
    # a request's options, picks and next words depend on (cur, buffer,
    # target) alone, so the DP lists each (cur, buffer) half once
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 9))
    sc = random_scenario(rng, n, 2, max_deg=4)
    tables = CostTables(random_structure(rng, n), random_sizes(rng, n), n)
    index = sc.request_index
    for lister in (core._FixedLister(sc, tables, True), core._FlexLister(sc, tables, True)):
        words = np.arange(n + 1, dtype=np.uint64)[:, None][:, :lister.roots.shape[1] - 1]
        for i in set(index.cur.tolist()):
            a, *others = np.flatnonzero(index.cur == i)
            j = index.target[index.offsets[a]:index.offsets[a + 1]]
            buf = np.repeat(words, len(j), axis=0)
            j = np.tile(j, len(words))
            want_bits, want_act, want_after = lister.options(np.full(len(j), a), buf, j)
            r, k = np.nonzero(want_bits < np.inf)
            for b in others:
                bits, act, after = lister.options(np.full(len(j), b), buf, j)
                assert np.array_equal(bits, want_bits)
                assert np.array_equal(act, want_act)
                assert np.array_equal(after(r, k), want_after(r, k))


def test_level_pass_logs_halves_and_listed_requests(caplog):
    sc, sz, st = _shared_halves_instance()
    with caplog.at_level(logging.DEBUG, logger="navstream.evaluate"):
        res = evaluate(sc, sz, st, "flex")
    halves = ((1, 8), (16, 64), (50, 248), (90, 400))
    assert [r.getMessage() for r in caplog.records] == [
        *(f"flexible-buffer level {t}: {c} states" for t, c in enumerate((1, 16, 96, 280))),
        *(f"flexible-buffer level {t}: {h} (cur, buffer) halves, {r} requests listed"
          for t, (h, r) in reversed(list(enumerate(halves)))),
    ]
    # each listed request is one key of the policy
    assert len(res.policy.actions) == sum(r for _, r in halves)


def _logged(caplog, case, buffer, policy):
    """`evaluate(*case, buffer, policy=policy)` and the DEBUG lines it logs."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="navstream.evaluate"):
        res = evaluate(*case, buffer, policy=policy)
    return res, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("chunk", [4096, 3])
def test_cost_only_dp_lists_as_the_policy_dp(chunk, caplog, monkeypatch):
    # with or without a policy, a level is listed by the same halves
    cases = [_shared_halves_instance()]
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        sc = random_scenario(rng, n, int(rng.integers(1, 5)), max_deg=4)
        cases.append((sc, random_sizes(rng, n), random_structure(rng, n)))
    runs = [(case, buffer) for case in cases for buffer in ("fixed", "flex")]
    want = [evaluate(*case, buffer) for case, buffer in runs]
    monkeypatch.setattr(core, "_CHUNK", chunk)  # 3: halves split over chunks
    for (case, buffer), res in zip(runs, want):
        full, full_lines = _logged(caplog, case, buffer, True)
        bare, bare_lines = _logged(caplog, case, buffer, False)
        assert any(m.endswith(" requests listed") for m in full_lines)
        assert bare_lines == full_lines
        assert full.policy == res.policy
        assert (bare.expected_cost, bare.dp_stats) == (res.expected_cost, res.dp_stats)
        assert (full.expected_cost, full.dp_stats) == (res.expected_cost, res.dp_stats)


def _picked(picks, buffer, n):
    """{(t, cur[, buffered], target): code} read from `level_pass`'s (t, low,
    keys, codes) per level, last level first: a key's code holds from t
    down to low, unless a lower level lists the key again."""
    out = {}
    for t, low, keys, codes in picks:
        for key, code in zip(keys.tolist(), codes.tolist()):
            fields = []
            for _ in range(3 if buffer == "flex" else 2):
                key, field = divmod(key, n + 1)
                fields.insert(0, field)
            if buffer == "flex":  # a buffer word as the buffered MDU
                fields[1] = fields[1] - 1 if fields[1] else EMPTY
            out.update(((u, *fields), code) for u in range(low, t + 1))
    return out


def _runs_cases():
    # long enough lifetimes that most reach a repeated level
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        sc = random_scenario(rng, n, int(rng.integers(6, 14)), max_deg=3)
        yield sc, random_sizes(rng, n), random_structure(rng, n)
    yield _repeating_levels_instance()
    yield pingpong_scenario(mu=300.0, t_max=5000), pingpong_sizes(), ASYM


@pytest.mark.parametrize("buffer", ["fixed", "flex"])
@pytest.mark.parametrize("wfs", [False, True])
def test_policy_runs_expand_to_the_dps_picks(buffer, wfs, monkeypatch):
    # the runs over t give exactly the picks `level_pass` lists per level,
    # also where a repeated level lists only the codes that change; and
    # those are the picks of a pass whose levels are all distinct objects,
    # each listed in full
    passes, level_pass, levels_of = [], core.level_pass, core._levels
    shared = [True]

    def recorded(*args, **kw):
        passes.append(level_pass(*args, **kw))
        return passes[-1]

    def levels(*args):
        found, kept, roots = levels_of(*args)
        return (found, kept, roots) if shared[0] else ([copy(v) for v in found], {}, roots)

    monkeypatch.setattr(core, "level_pass", recorded)
    monkeypatch.setattr(core, "_levels", levels)
    changed = 0
    for sc, sz, st in _runs_cases():
        lister = core._LISTERS[buffer](sc, CostTables(st, sz, sc.graph.n), True)
        got = []
        for shared[0] in (True, False):
            policy = evaluate(sc, sz, st, buffer, wfs).policy
            picks = passes.pop()[3]
            want = {key: lister.action(code) for key, code in
                    _picked(picks, buffer, sc.graph.n).items()}
            assert dict(policy.actions) == want
            assert len(policy.actions) == len(want)
            got.append((policy, want))
            changed += shared[0] and any(
                low < t < picks[0][0] and len(keys) for t, low, keys, _ in picks
            )
        assert got[0] == got[1]
        # each run is maximal: the next run of its context starts after a gap
        # or with another action
        later = np.ones(len(policy.t_first), dtype=bool)
        later[policy.offsets[:-1]] = False
        r = np.flatnonzero(later)
        assert ((policy.t_first[r] > policy.t_last[r - 1] + 1)
                | (policy.index[r] != policy.index[r - 1])).all()
    # under the flexible buffer, some picks change within repeated levels;
    # the fixed buffer's never do, as its next state is the target
    assert (changed > 0) == (buffer == "flex")


def test_paper_default_lf8x8_flexible_dp_is_pinned():
    # LF 8x8 at the paper's default lifetime (mu 13.5, t_max 27) with one
    # landmark, recorded when the DP listed every request once per prev
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=8, cols=8))
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(*lifetime_defaults(81)))
    st = landmark_structure(sc, sizes, 0.5)
    assert len(st.i_set) == 1
    res = eval_flexible(sc, sizes, st)
    assert res.expected_cost == 79.70339495537836
    assert res.dp_stats == {"states": 568148, "actions": 3987157}
    assert len(res.policy.actions) == 594615
    assert len(res.policy.t_first) == 27308  # runs over t, of 27,300 contexts


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
    sc = random_scenario(np.random.default_rng(32), 6, 2)
    for _ in range(10):
        n = 6
        sz = random_sizes(rng, n)
        st = random_structure(rng, n)
        tables = CostTables(st, sz, n)
        lister = _Lister(sc, sz, st)
        for j in range(n):
            assert tables.r_i[j] == pytest.approx(
                zero_hop_overhead(st, sz, j), rel=1e-12
            )
            # the infinite buffer's source slots: the bare I-MDU first, then
            # the stored I-MDUs predicting j, ascending; slot l sends l and j
            order = [j] * (j in st.i_set) + sorted(
                l for l in st.i_set if (l, j) in st.p_edges
            )
            slots = lister.src_bits[j] < math.inf
            sent = lister.add[j, 1:1 + len(slots), 0][slots].tolist()
            assert sent == [(1 << l) | (1 << j) for l in order]
            assert lister.src_bits[j, slots].tolist() == tables.source_bits[order, j].tolist()
            assert tables.r_i[j] == tables.source_bits[:, j].min()


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
    path.write_bytes(b"\xff\xfe{")
    with pytest.raises(InvalidInputError, match="cannot read policy"):
        Policy.load(path)


V1_FILES = Path(__file__).parent


def _v1_instance():
    """The seeded instance whose policies `policy_v1_*.json` hold (version 1)."""
    rng = np.random.default_rng(1)
    sc = random_scenario(rng, 4, 2)
    return sc, random_sizes(rng, 4), random_structure(rng, 4)


@pytest.mark.parametrize("fn", [eval_fixed, eval_flexible])
def test_policy_round_trip_keeps_actions_and_order(fn, tmp_path):
    sc, sz, st = _v1_instance()
    res = fn(sc, sz, st, weight_first_switch=True)
    policy = res.policy
    path = tmp_path / "policy.json"
    policy.save(path)
    data = json.loads(path.read_text())
    assert data["version"] == 4
    width = len(next(iter(policy.actions))) - 1  # a key is (t, *context)
    assert len(data["keys"]) == width * (len(data["offsets"]) - 1)
    assert len(data["t_first"]) == len(data["t_last"]) == len(data["index"])
    assert len(data["actions"]) == len(set(policy.actions.values()))
    assert data["structure"] == {
        "i_set": sorted(st.i_set), "p_edges": sorted(map(list, st.p_edges)),
    }
    back = Policy.load(path)
    assert back == policy
    assert list(back.actions.items()) == list(policy.actions.items())
    assert back.structure == policy.structure == fingerprint(st)
    assert back.expected_cost == policy.expected_cost == res.expected_cost


def test_policy_round_trip_empty(tmp_path):
    path = tmp_path / "policy.json"
    for buffer in ("fixed", "flex"):
        Policy(buffer=buffer, weight_first_switch=False).save(path)
        assert Policy.load(path) == Policy(buffer=buffer, weight_first_switch=False)


def test_policy_saves_are_byte_identical(tmp_path):
    sc, sz, st = _v1_instance()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    eval_flexible(sc, sz, st).policy.save(a)
    eval_flexible(sc, sz, st).policy.save(b)
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("mode", [False, True])
def test_simulate_on_reloaded_policy_matches_in_memory(mode, tmp_path):
    sc, sz, st = _v1_instance()
    policy = eval_flexible(sc, sz, st).policy
    path = tmp_path / "policy.json"
    policy.save(path)
    runs = [
        simulate_sessions(sc, sz, st, p, 2_000, seed=5, consistency_mode=mode)
        for p in (policy, Policy.load(path))
    ]
    assert runs[0].mean == runs[1].mean
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].traces == runs[1].traces


@pytest.mark.parametrize(
    "fn, name, wfs",
    [(eval_fixed, "policy_v1_fixed.json", False),
     (eval_flexible, "policy_v1_flex.json", True)],
)
def test_policy_v1_file_still_loads(fn, name, wfs):
    # written by the version-1 `Policy.save` (sorted "t,k,...,j" keys, indent 1)
    sc, sz, st = _v1_instance()
    back = Policy.load(V1_FILES / name)
    assert "version" not in json.loads((V1_FILES / name).read_text())
    assert back == fn(sc, sz, st, weight_first_switch=wfs).policy


@pytest.mark.parametrize(
    "fn, name, wfs",
    [(eval_fixed, "policy_v2_fixed.json", False),
     (eval_flexible, "policy_v2_flex.json", True)],
)
def test_policy_v2_file_still_loads(fn, name, wfs):
    # written by the version-2 `Policy.save`: (t, prev, ...) keys, no structure
    sc, sz, st = _v1_instance()
    back = Policy.load(V1_FILES / name)
    assert json.loads((V1_FILES / name).read_text())["version"] == 2
    assert back == fn(sc, sz, st, weight_first_switch=wfs).policy
    assert back.structure is None and back.expected_cost is None


def _shared_halves_instance():
    """LF 3x3 over 3 switches: several prevs share each (cur, buffer)."""
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=3, cols=3))
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.5, 3))
    return sc, sizes, landmark_structure(sc, sizes, 0.5)


@pytest.mark.parametrize("buffer, wfs", [("fixed", False), ("flex", True)])
def test_policy_v3_file_pins_every_pick(buffer, wfs, tmp_path):
    # written by a version-3 `Policy.save` whose DP listed and picked every
    # request once per prev; the DP now picks once per (cur, buffer) half
    # and lists a level's keys by half, so the same keys come in another order
    path = V1_FILES / f"policy_v3_{buffer}.json"
    pinned = Policy.load(path)
    got = evaluate(*_shared_halves_instance(), buffer, wfs).policy
    assert pinned == got
    assert (pinned.structure, pinned.expected_cost) == (got.structure, got.expected_cost)
    assert sorted(pinned.actions.items()) == sorted(got.actions.items())


@pytest.mark.parametrize("buffer, wfs", [("fixed", False), ("flex", True)])
def test_policy_v4_file_pins_every_pick(buffer, wfs, tmp_path):
    # written by the version-4 `Policy.save`: the same picks as the
    # version-3 files, as runs over t
    path = V1_FILES / f"policy_v4_{buffer}.json"
    pinned = Policy.load(path)
    assert json.loads(path.read_text())["version"] == 4
    got = evaluate(*_shared_halves_instance(), buffer, wfs).policy
    assert pinned == got
    assert (pinned.structure, pinned.expected_cost) == (got.structure, got.expected_cost)
    assert sorted(pinned.actions.items()) == sorted(got.actions.items())
    assert pinned == Policy.load(V1_FILES / f"policy_v3_{buffer}.json")
    pinned.save(tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def _with_prev(policy, prevs):
    """`policy` as a version-2 dict that lists each key once per prev in
    `prevs`, in turn, each copy with the key's action."""
    data = v3_dict(policy)
    del data["structure"], data["expected_cost"]
    width = len(next(iter(policy.actions)))
    rows = [data["keys"][m:m + width] for m in range(0, len(data["keys"]), width)]
    data.update(
        version=2,
        keys=[x for k in prevs for t, *rest in rows for x in (t, k, *rest)],
        index=data["index"] * len(prevs),
    )
    return data


@pytest.mark.parametrize("fn", [eval_fixed, eval_flexible])
def test_policy_v2_copies_of_a_key_load_as_one(fn):
    policy = fn(*_v1_instance()).policy
    back = Policy.from_dict(_with_prev(policy, [START, 0, 3]))
    assert back == policy
    assert list(back.actions.items()) == list(policy.actions.items())
    data = _with_prev(policy, [START, 0])
    data["actions"].append(["1hop", 99])
    data["index"][-1] = len(data["actions"]) - 1
    key = max(policy.actions)  # `v3_dict` lists the keys sorted
    with pytest.raises(InvalidInputError) as refused:
        Policy.from_dict(data)
    assert str(refused.value) == f"malformed policy: key {key} has two actions"


def _set_first_action(data, act):
    if isinstance(data["actions"], dict):  # version 1
        data["actions"][next(iter(data["actions"]))] = act
    else:
        data["actions"][0] = act


def _v1_short_key(data):
    data["actions"]["0,-1,1,0"] = ["1hop", 1]


def _v1_text_key(data):
    data["actions"]["0,-1,x,-2,0"] = ["1hop", 1]


def _width(data):
    return len(data["keys"]) // len(data["index"])


def _second_action(data):
    """Copy the first key of a version-1 or -2 file with another prev and
    another action: two actions for one (t, cur, buffered, target)."""
    if isinstance(data["actions"], dict):  # version 1
        (key, act), *_ = data["actions"].items()
        t, _, *rest = key.split(",")
        other = next(a for a in data["actions"].values() if a != act)
        data["actions"][",".join([t, "99", *rest])] = other
    else:
        t, _, *rest = data["keys"][:5]
        data["keys"] += [t, 99, *rest]
        data["index"].append(1 - data["index"][0])


_REJECTED_BOTH = {
    "unknown buffer": lambda d: d.update(buffer="flexible"),
    "string weight_first_switch": lambda d: d.update(weight_first_switch="no"),
    "integer weight_first_switch": lambda d: d.update(weight_first_switch=1),
    "unknown action kind": lambda d: _set_first_action(d, ["teleport", 3]),
    "fixed 0hop in a flex policy": lambda d: _set_first_action(d, ["0hop"]),
    "2hop missing its predictor": lambda d: _set_first_action(d, ["2hop", 1]),
    "non-integer reference": lambda d: _set_first_action(d, ["1hop", "3"]),
    "action not a list": lambda d: _set_first_action(d, "0hop"),
    "action an integer": lambda d: _set_first_action(d, 5),
}
# the message of a case, where it is pinned beyond "malformed policy"
_MESSAGES = {
    "action not a list": "malformed policy: '0hop' is not a flex-buffer action",
    "action an integer": "malformed policy: 5 is not a flex-buffer action",
}
_REJECTED_V1 = {
    "key of the wrong width": _v1_short_key,
    "non-integer key": _v1_text_key,
    "actions not an object": lambda d: d.update(actions=[]),
    "two actions for one compact key": _second_action,
}
_REJECTED_ARRAYS = {
    "keys not a multiple of the width": lambda d: d["keys"].pop(),
    "one key too many": lambda d: d["keys"].extend(d["keys"][:_width(d)]),
    "index past the actions": lambda d: d["index"].__setitem__(0, len(d["actions"])),
    "negative index": lambda d: d["index"].__setitem__(0, -1),
    "non-integer key": lambda d: d["keys"].__setitem__(0, "0"),
    "boolean key": lambda d: d["keys"].__setitem__(0, False),
    "float index": lambda d: d["index"].__setitem__(0, 0.0),
    "unknown version": lambda d: d.update(version=5),
    "string version": lambda d: d.update(version="2"),
    "keys not a list": lambda d: d.update(keys={}),
    "repeated key": lambda d: (
        d["keys"].extend(d["keys"][:_width(d)]), d["index"].append(0)
    ),
    "action argument past int64": lambda d: d["actions"].__setitem__(0, ["0hop", 2**64]),
    "negative t": lambda d: d["keys"].__setitem__(0, -1),
}
_REJECTED_V2 = {
    **_REJECTED_ARRAYS,
    "two actions for one compact key": _second_action,
}
_REJECTED_RECORD = {
    "structure without p_edges": lambda d: d["structure"].pop("p_edges"),
    "structure with a float MDU": lambda d: d["structure"]["i_set"].append(1.0),
    "string expected_cost": lambda d: d.update(expected_cost="20.5"),
    "no expected_cost": lambda d: d.pop("expected_cost"),
}
_REJECTED_V3 = {**_REJECTED_ARRAYS, **_REJECTED_RECORD}
# the version-4 runs' own faults are in test_cli.py, through `simulate` too
_REJECTED_V4 = {**_REJECTED_RECORD, "unknown version": lambda d: d.update(version=5)}


_REJECTED = {
    "v1": {**_REJECTED_BOTH, **_REJECTED_V1},
    "v2": {**_REJECTED_BOTH, **_REJECTED_V2},
    "v3": {**_REJECTED_BOTH, **_REJECTED_V3},
    "v4": {**_REJECTED_BOTH, **_REJECTED_V4},
}


def _unbroken(layout):
    """A flexible policy file of the layout: the version-1 and -2 files,
    version 3 as `v3_dict` writes it, or version 4 as `Policy.save` does."""
    if layout in ("v1", "v2"):
        return json.loads((V1_FILES / f"policy_{layout}_flex.json").read_text())
    policy = eval_flexible(*_v1_instance(), weight_first_switch=True).policy
    return v3_dict(policy) if layout == "v3" else policy.to_dict()


@pytest.mark.parametrize(
    "layout, case", [(lay, c) for lay, cases in _REJECTED.items() for c in cases]
)
def test_policy_load_rejects_malformed(layout, case, tmp_path):
    data = json.loads(json.dumps(_unbroken(layout)))
    Policy.from_dict(json.loads(json.dumps(data)))  # the unbroken file loads
    _REJECTED[layout][case](data)
    path = tmp_path / "policy.json"
    path.write_text(json.dumps(data))
    with pytest.raises(InvalidInputError, match="malformed policy") as err:
        Policy.load(path)
    assert str(err.value) == _MESSAGES.get(case, str(err.value))


def test_policy_keys_far_apart_still_sort():
    # these fields span more than 2^63 values: no one integer code holds them
    far = [2**62, -(2**62), 0, 5, 1]
    data = {
        "version": 2, "buffer": "flex", "weight_first_switch": False,
        "actions": [["0hop", -2]], "keys": [*far, 0, -1, 0, -2, 1], "index": [0, 0],
    }
    assert list(Policy.from_dict(data).actions) == [(0, 0, -2, 1), (2**62, 0, 5, 1)]
    data["keys"] += far
    data["index"].append(0)
    repeats = rf"key \({2**62}, {-(2**62)}, 0, 5, 1\) repeats"
    with pytest.raises(InvalidInputError, match=repeats):
        Policy.from_dict(data)


def test_policy_rejects_2hop_in_a_fixed_policy():
    data = json.loads((V1_FILES / "policy_v1_fixed.json").read_text())
    _set_first_action(data, ["2hop", 1, 2])
    with pytest.raises(InvalidInputError, match="not a fixed-buffer action"):
        Policy.from_dict(data)


def test_extract_policy_actions_are_feasible():
    sc, sz = pingpong_scenario(mu=2.0, t_max=3), pingpong_sizes()
    res = eval_flexible(sc, sz, SYM)
    for act in res.policy.actions.values():
        if act[0] == "1hop":
            assert (act[1],) in {(0,), (1,)}
        elif act[0] == "2hop":
            assert (act[2], act[1]) in SYM.p_edges and (act[1],) in {(0,), (1,)}
