import ast
import logging
import math
import re
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import navstream.scenario
from conftest import pingpong_scenario, random_scenario, reference_sessions
from navstream.adapters import TrajectoryLog, build_viewport_scenario, lifetime_defaults
from navstream.errors import InvalidInputError
from navstream.scenario import (
    START,
    MediaGraph,
    NavigationModel,
    Scenario,
    aggregate_switch_probabilities,
    build_lifetime_tail,
    left_sum,
    load_scenario,
    sample_targets,
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


def test_weights_run_to_the_last_positive_g():
    """`weights` is (w1, g(1), ..., g(T)): T is t_max, or the last t before
    g(t) underflows to 0."""
    lt = build_lifetime_tail(2.0, 4)
    assert lt.weights() == (1.0, lt.g(1), lt.g(2), lt.g(3), lt.g(4))
    assert lt.weights(weight_first_switch=True)[0] == lt.g(1)
    lt = build_lifetime_tail(1.0, 400)
    last = max(t for t in range(401) if lt.g(t) > 0.0)
    assert last < 400
    assert lt.weights() == (1.0, *map(lt.g, range(1, last + 1)))


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


@pytest.mark.parametrize("mu", [708.4, 745.0, 750.0])
def test_tail_rejects_mu_whose_start_term_underflows(mu):
    # e^-745 is subnormal (pmf summed to 1.75), e^-750 is 0 (g was all 0)
    with pytest.raises(InvalidInputError, match="underflows above mu = 708.396"):
        build_lifetime_tail(mu, 1500)


def test_paper_default_lifetime_of_lf_66x66_is_refused():
    with pytest.raises(InvalidInputError, match="underflows"):
        build_lifetime_tail(*lifetime_defaults(67 * 67))  # (748.0, 1496)


def test_tail_mu700_pmf_unchanged():
    # the values below the underflow limit are the recurrence's, bit for bit
    lt = build_lifetime_tail(700.0, 1400)
    assert lt.pmf[0] == math.exp(-700.0) == 9.85967654375977e-305
    assert lt.pmf[700] == 0.015076805912737056
    assert sum(lt.pmf) == 1.000000000000001
    assert lt.g(700) == 0.5050262400556832


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


def test_scenario_rejects_unnormalised_switch_rows():
    data = scenario_to_dict(pingpong_scenario())
    data["p_switch"] = [[k, i, j, 0.5 * p] for k, i, j, p in data["p_switch"]]
    with pytest.raises(InvalidInputError, match="sums to 0.5"):
        scenario_from_dict(data)


def test_scenario_rejects_start_row_naming_a_non_neighbour():
    data = scenario_to_dict(pingpong_scenario())
    data["p_start"] = [[1, 0.5], [0, 0.5]]
    with pytest.raises(InvalidInputError, match="not a neighbor of start"):
        scenario_from_dict(data)


def test_validate_returns_graph_report_for_out_of_range_neighbour():
    sc = pingpong_scenario()
    graph = MediaGraph(n=2, neighbors=((1,), (5,)), start=0)
    assert validate_navigation_model(graph, sc.nav) == graph.validate() != []


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(InvalidInputError):
        load_scenario(tmp_path / "nope.json")


@pytest.mark.parametrize("seed", range(20))
def test_pairs_with_one_cur_share_one_row_of_targets(seed):
    # the fixed and flexible DPs list a (cur, buffer) half's requests once,
    # from any of its pairs, and gather them back per pair
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, int(rng.integers(2, 9)), 2, max_deg=4)
    index = sc.request_index
    assert index.cur.tolist() == [i for _, i in index.pairs]
    assert sc.pair_index.cur is index.cur
    rows = {}
    for a, i in enumerate(index.cur.tolist()):
        slots = slice(index.offsets[a], index.offsets[a + 1])
        row = index.target[slots].tolist(), index.succ[slots].tolist()
        assert rows.setdefault(i, row) == row  # whatever the prev
        assert row[0] == list(sc.graph.neighbors[i])
        assert [index.pairs[b] for b in row[1]] == [(i, j) for j in row[0]]


def test_nav_prob_routes_start_sentinel():
    sc = pingpong_scenario()
    assert sc.nav.prob(START, 0, 1) == 1.0
    assert sc.nav.prob(0, 1, 0) == 1.0
    assert sc.nav.prob(0, 1, 1) == 0.0


# --- summation order --------------------------------------------------------

# Builtin sum() calls over ints, whose result cannot depend on the order.
_INTEGER_SUMS = {
    ("landmarks.py", "sum(iterations)"),
    ("refine.py", "sum(record[key] for record in self.iterations)"),
}


def test_left_sum_adds_from_the_left():
    assert left_sum([0.1] * 10) == 0.9999999999999999
    assert left_sum([], 2.5) == 2.5
    assert left_sum([1e16, 1.0, 1.0]) == 1e16  # each 1.0 is lost in turn
    assert left_sum([1.0, 1.0], 1e16) == 1e16


def test_no_builtin_float_sum_in_the_package():
    """From Python 3.12 on, sum() adds floats with compensated summation, so
    pinned values take `left_sum` instead; only integer sums may use it."""
    src = Path(__file__).resolve().parents[1] / "src" / "navstream"
    found = set()
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "sum"
            ):
                found.add((path.name, ast.get_source_segment(text, node)))
    assert found <= _INTEGER_SUMS


def test_no_pairwise_sum_in_the_evaluator():
    """numpy adds pairwise in `np.sum`, `.sum()`, `.mean()` and `np.add.reduce`;
    the bit-exact pins rely on `np.bincount` adding each state's terms in
    order, so the evaluator's core calls none of them."""
    path = Path(__file__).resolve().parents[1] / "src" / "navstream" / "evaluate.py"
    text = path.read_text()
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            attr, owner = node.func.attr, node.func.value
            add_reduce = attr == "reduce" and getattr(owner, "attr", None) == "add"
            if attr in ("sum", "mean") or add_reduce:
                found.append(ast.get_source_segment(text, node))
    assert found == []


def test_numpy_adds_bincount_and_cumsum_from_the_left():
    """The bit-exact pins rely on `np.bincount` and `np.cumsum` adding their
    entries one by one from the left.  After 1.0, each 2^-53 is lost in
    turn, while pairwise addition (`np.sum`) keeps their total, so a numpy
    that changes either order fails here first."""
    values = np.array([1.0, *[2.0**-53] * 1000])
    assert left_sum(values.tolist()) == 1.0
    assert np.sum(values) != 1.0  # the input tells the two orders apart
    assert np.bincount(np.zeros(len(values), dtype=np.intp), weights=values)[0] == 1.0
    assert np.cumsum(values)[-1] == 1.0


def test_numpy_draws_a_block_of_uniforms_as_single_draws():
    """`sample_targets` draws its uniforms in blocks and must read the same
    stream as one `rng.random()` call per draw, whatever the block sizes."""
    k = 1000
    rng = np.random.default_rng(7)
    single = np.array([rng.random() for _ in range(k)])
    block = np.random.default_rng(7).random(k)
    rng = np.random.default_rng(7)
    halves = np.concatenate([rng.random(k // 2), rng.random(k // 2)])
    assert (block == single).all() and (halves == single).all()


# --- session sampler ----------------------------------------------------------

def _reference_targets(sc, n_sessions, seed, survival=None):
    """`reference_sessions` as `sample_targets` returns them."""
    paths = list(reference_sessions(sc, n_sessions, seed, survival))
    lengths = np.array([len(p) for p in paths], dtype=np.intp)
    targets = np.zeros((n_sessions, lengths.max(initial=0)), dtype=np.intp)
    for m, path in enumerate(paths):
        targets[m, :len(path)] = path
    return lengths, targets


def _schedules(lt):
    """Default mode, and consistency mode with the first switch forced or
    taken with probability g(1)."""
    tail = [lt.g(t) for t in range(1, lt.t_max + 1)]
    return {"default": None, "forced": [None, *tail], "g1": [lt.g(1), *tail]}


def _assert_sampler_matches(sc, n_sessions, seed, survival):
    got = sample_targets(sc, n_sessions, seed, survival)
    want = _reference_targets(sc, n_sessions, seed, survival)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert (a == b).all()
    return got


def _sink_scenario(mu=2.0, t_max=4) -> Scenario:
    """MDU 3 has no neighbours, the (1, 0) row gives target 1 probability 0
    and the (2, 0) row is all zeros, so sessions stop early at three pairs."""
    graph = MediaGraph(n=4, neighbors=((1, 2), (0, 3), (0,), ()), start=0)
    nav = NavigationModel(
        p_start={1: 0.6, 2: 0.4},
        p_switch={
            (0, 1, 0): 0.7, (0, 1, 3): 0.3,
            (1, 0, 1): 0.0, (1, 0, 2): 1.0,
            (2, 0, 1): 0.0, (2, 0, 2): 0.0,
            (0, 2, 0): 1.0,
        },
    )
    return Scenario(graph, nav, build_lifetime_tail(mu, t_max))


@pytest.mark.parametrize("mode", ["default", "forced", "g1"])
@pytest.mark.parametrize("seed", range(12))
def test_sampler_matches_the_per_switch_loop(seed, mode):
    rng = np.random.default_rng(seed)
    sc = random_scenario(rng, int(rng.integers(2, 9)), int(rng.integers(1, 7)))
    for n_sessions in (1, 2, 500):
        _assert_sampler_matches(sc, n_sessions, seed, _schedules(sc.lifetime)[mode])


@pytest.mark.parametrize("mode", ["default", "forced", "g1"])
def test_sampler_matches_the_loop_at_sinks_and_zero_rows(mode):
    sc = _sink_scenario(mu=6.0, t_max=6)
    lengths, _ = _assert_sampler_matches(sc, 3000, 5, _schedules(sc.lifetime)[mode])
    # every session stops by its 4th switch, at MDU 3 or at the (2, 0) row
    assert lengths.max() == 4


@pytest.mark.parametrize("mode", ["default", "forced", "g1"])
def test_sampler_matches_the_loop_on_zero_length_sessions(mode):
    sc = random_scenario(np.random.default_rng(3), 5, 3, mu=0.3)
    lengths, _ = _assert_sampler_matches(sc, 400, 1, _schedules(sc.lifetime)[mode])
    if mode != "forced":
        assert (lengths == 0).any()
    # a start with no neighbours: every session is empty
    graph = MediaGraph(n=2, neighbors=((), (0,)), start=0)
    sc = Scenario(graph, NavigationModel({}, {}), build_lifetime_tail(2.0, 3))
    lengths, targets = _assert_sampler_matches(sc, 5, 1, _schedules(sc.lifetime)[mode])
    assert targets.shape == (5, 0)


def test_sampler_with_no_sessions_or_no_schedule():
    """Fewer than one session is refused, in both lifetime modes, for every
    caller of the sampler; an empty survival schedule draws sessions with
    no switch."""
    sc = pingpong_scenario(mu=2.0, t_max=4)
    for survival in (None, []):
        for n_sessions in (0, -1):
            with pytest.raises(InvalidInputError, match="n_sessions must be positive"):
                sample_targets(sc, n_sessions, 1, survival)
    lengths, _ = _assert_sampler_matches(sc, 3, 1, [])
    assert (lengths == 0).all()


@pytest.mark.parametrize("block", [1, 7, 64])
@pytest.mark.parametrize("mode", ["default", "forced", "g1"])
def test_sampler_matches_the_loop_across_blocks(monkeypatch, block, mode):
    """Blocks this small end inside sessions: a session that starts in a
    block's unused tail reads the rest of its draws from the next block."""
    monkeypatch.setattr(navstream.scenario, "_SAMPLE_BLOCK", block)
    sc = random_scenario(np.random.default_rng(8), 6, 5)
    _assert_sampler_matches(sc, 300, 2, _schedules(sc.lifetime)[mode])
    sc = _sink_scenario()
    _assert_sampler_matches(sc, 300, 2, _schedules(sc.lifetime)[mode])
    for eps in (0.003, 0.05):
        sc = _ring_with_sink(eps, mu=6.0, t_max=12)
        _assert_sampler_matches(sc, 100, 2, _schedules(sc.lifetime)[mode])


def test_sampler_breaks_ties_as_the_loop():
    """A target draw u with u·total equal to a cumulative probability takes
    that slot, and a survival draw equal to survival[t] stops the session."""
    u = np.random.default_rng(6).random(2)
    graph = MediaGraph(n=3, neighbors=((1, 2), (0,), (0,)), start=0)
    nav = NavigationModel({1: u[0], 2: 1.0 - u[0]}, {(0, 1, 0): 1.0, (0, 2, 0): 1.0})
    sc = Scenario(graph, nav, build_lifetime_tail(1.0, 2))
    assert sc.pair_index.prob[:2].cumsum()[-1] == 1.0  # so u[0]·total is u[0]
    lengths, targets = _assert_sampler_matches(sc, 1, 6, [None])
    assert (lengths[0], targets[0, 0]) == (1, 1)
    lengths, _ = _assert_sampler_matches(sc, 1, 6, [None, u[1]])
    assert lengths[0] == 1


def _ring_with_sink(eps, n=12, mu=20.0, t_max=40) -> Scenario:
    """A ring of n MDUs whose every switch leaves for the sink MDU n, which
    has no neighbours, with probability eps: long sessions that stop at a
    share of positions set by eps."""
    ring = [((i - 1) % n, (i + 1) % n, n) for i in range(n)]
    p_switch = {}
    for i in range(n):
        for k in ring[i][:2]:
            p_switch[(k, i, (i - 1) % n)] = 0.3 * (1 - eps)
            p_switch[(k, i, (i + 1) % n)] = 0.7 * (1 - eps)
            p_switch[(k, i, n)] = eps
    graph = MediaGraph(n=n + 1, neighbors=(*ring, ()), start=0)
    nav = NavigationModel({1: 0.5, n - 1: 0.5}, p_switch)
    return Scenario(graph, nav, build_lifetime_tail(mu, t_max))


def _sampler_log(caplog, *args):
    """`sample_targets(*args)` and the numbers of its DEBUG line."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="navstream.scenario"):
        lengths, _ = sample_targets(*args)
    (record,) = [r for r in caplog.records if r.name == "navstream.scenario"]
    found = re.fullmatch(
        r"sampler: (\d+) sessions, (\d+) switches, (\d+) uniforms drawn, "
        r"(\d+) used, (\d+) chains repaired after no-mass stops, (\d+) blocks "
        r"re-walked from every position, in [\d.]+ s",
        record.getMessage(),
    )
    sessions, switches, drawn, used, repaired, rewalked = map(int, found.groups())
    assert (sessions, switches) == (len(lengths), lengths.sum())
    assert used <= drawn
    return lengths, used, repaired, rewalked


@pytest.mark.parametrize("mode", ["default", "forced", "g1"])
@pytest.mark.parametrize("eps", [0.0, 0.003, 0.05, 0.5])
def test_sampler_matches_the_loop_on_long_sessions_with_sinks(caplog, eps, mode):
    """Long sessions that seldom or often stop: chains repaired one stop at
    a time, and blocks whose every position is walked, across blocks."""
    sc = _ring_with_sink(eps)
    survival = _schedules(sc.lifetime)[mode]
    _assert_sampler_matches(sc, 400, 3, survival)
    _, _, repaired, rewalked = _sampler_log(caplog, sc, 400, 3, survival)
    if eps == 0.0:
        assert repaired == rewalked == 0
    elif eps == 0.003:
        assert repaired >= 1 and rewalked == 0
    elif eps == 0.05:
        assert rewalked >= 1
    else:
        # the first walk of the block stops often; once every position is
        # walked for its true count, no stop is left to repair
        assert repaired == rewalked == 1


def test_sampler_matches_the_loop_on_a_wide_viewport_row():
    """A viewport seen only as a last step gets a row over all the others
    (degree 100 here), which the sampler bisects like the short rows."""
    ring = [[i, (i + 1) % 100, (i + 2) % 100] for i in range(100)]
    traj = TrajectoryLog(sessions=[*ring, [7, 100]])
    graph, nav = build_viewport_scenario(traj, 101)
    sc = Scenario(graph, nav, build_lifetime_tail(8.0, 30))
    assert len(graph.neighbors[100]) == 100
    for mode, survival in _schedules(sc.lifetime).items():
        _, targets = _assert_sampler_matches(sc, 600, 4, survival)
        assert (targets == 100).any()


def test_row_cumsum_adds_each_row_from_the_left():
    rng = np.random.default_rng(2)
    lengths = [3, 0, 1, 7, 0, 2, 7]
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    values = rng.random(offsets[-1])
    got = navstream.scenario._row_cumsum(values, offsets)
    want = [
        x for a, b in zip(offsets, offsets[1:]) for x in accumulate(values[a:b].tolist())
    ]
    assert got.tolist() == want


def test_sampler_logs_its_draws_at_debug(caplog):
    sc = _sink_scenario()
    lengths, used, repaired, rewalked = _sampler_log(caplog, sc, 2000, 4)
    # default mode draws a lifetime, then one target per switch
    assert used == len(lengths) + lengths.sum()
    # one session in five or so stops: chains are repaired, not re-walked
    assert repaired >= 1 and rewalked == 0
    sc = _ring_with_sink(0.5)
    assert _sampler_log(caplog, sc, 2000, 4)[3] >= 1
