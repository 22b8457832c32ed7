import csv
import importlib
import logging
from dataclasses import replace
from functools import partial
from itertools import product

import numpy as np
import pytest

from conftest import (
    pingpong_scenario,
    pingpong_sizes,
    random_scenario,
    random_sizes,
    random_structure,
)
from navstream.adapters import (
    LfGridSpec,
    TrajectoryLog,
    build_lf_scenario,
    build_viewport_scenario,
)
from navstream import baselines, refine
from navstream.baselines import (
    VARIANTS,
    TradeoffRow,
    emit_tradeoff_csv,
    inf_buffer_cost,
    inf_buffer_estimate,
    run_baseline,
    sweep,
)
from navstream.costs import (
    Structure,
    all_i_structure,
    storage_cost,
    uniform_sizes,
)
from navstream.errors import InvalidInputError, OracleRefusalError
from navstream.evaluate import eval_flexible, evaluate
from navstream.landmarks import landmark_structure
from navstream.oracle import simulate_sessions
from navstream.refine import (
    RefinerParams,
    greedy_refine,
    greedy_subtract,
)
from navstream.scenario import START, Scenario, build_lifetime_tail

# the level core's module; `navstream.evaluate` is also the name of a function
core = importlib.import_module("navstream.evaluate")

SYM = Structure(i_set=frozenset({0, 1}), p_edges=frozenset({(0, 1), (1, 0)}))


def _lf_scenario(rows=4, cols=4, mu=1.0, t_max=2):
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=rows, cols=cols))
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(mu, t_max))
    return sc, sizes


def test_unknown_variant_rejected():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    with pytest.raises(InvalidInputError, match="variant"):
        run_baseline(sc, sz, RefinerParams(lam=0.1), "random-ga")


def test_flex_ga_adds_reverse_pair_on_pingpong():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    res = run_baseline(sc, sz, RefinerParams(lam=0.01), "flex-ga")
    assert res.structure.p_edges == frozenset({(0, 1), (1, 0)})
    assert len(res.log.steps) == 1  # the symmetric pair lands in one commit
    assert res.expected_cost == pytest.approx(
        eval_flexible(sc, sz, res.structure).expected_cost
    )


def test_fixed_ga_adds_singles_on_pingpong():
    sc, sz = pingpong_scenario(), pingpong_sizes()
    res = run_baseline(sc, sz, RefinerParams(lam=0.01), "fixed-ga")
    assert res.structure.p_edges == frozenset({(0, 1), (1, 0)})
    assert len(res.log.steps) == 2


def test_all_variants_produce_consistent_results():
    sc, sz = _lf_scenario()
    for variant in VARIANTS:
        res = run_baseline(sc, sz, RefinerParams(lam=0.5), variant)
        assert res.variant == variant
        assert res.structure.validate(sc.graph.n) == []
        assert res.storage_bits == pytest.approx(storage_cost(res.structure, sz))
        assert res.expected_cost > 0


def test_flex_lm_i_keeps_all_i_mdus():
    sc, sz = _lf_scenario()
    res = run_baseline(sc, sz, RefinerParams(lam=0.5), "flex-lm-i")
    assert res.structure.i_set == frozenset(range(sc.graph.n))


def test_flex_lm_i_evaluates_the_added_structure_once(monkeypatch):
    # LF 3x4, mu 1, t_max 2, lambda 0.5: the benchmark's lf-refine instance
    sc, sz = _lf_scenario(rows=3, cols=4)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(refine, "evaluate", counted)
    got = run_baseline(sc, sz, RefinerParams(lam=0.5), "flex-lm-i")
    n_got = len(calls)
    calls.clear()
    # the earlier composition: greedy_refine, then greedy_subtract re-evaluates
    init = replace(
        landmark_structure(sc, sz, 0.5), i_set=frozenset(range(sc.graph.n))
    )
    run = RefinerParams(lam=0.5, buffer="flex")
    added, log_add = greedy_refine(sc, sz, init, run)
    final, log_sub = greedy_subtract(sc, sz, added, run)
    assert calls.count(added) == 2
    assert n_got == len(calls) - 1
    assert got.structure == final
    assert got.log.steps == log_add.steps + log_sub.steps
    assert got.expected_cost == log_sub.expected_cost
    assert got.storage_bits == storage_cost(final, sz)


def _pruning_cases(count=20):
    rng = np.random.default_rng(79)
    for _ in range(count):
        n = int(rng.integers(3, 8))
        sc = random_scenario(rng, n, int(rng.integers(1, 4)))
        sz = random_sizes(rng, n)
        init = random_structure(rng, n, edge_prob=0.3)
        yield sc, sz, init, float(rng.uniform(0.02, 0.4))


@pytest.mark.parametrize("variant, dps", [
    ("flex-ga", 80), ("fixed-ga", 6), ("flex-lm-i", 5),
])
def test_greedy_baselines_exact_evaluations_pinned(monkeypatch, variant, dps):
    """Exact DPs per greedy baseline on the benchmark's lf-refine instance
    (LF 3x4, mu 1, t_max 2, lambda 0.5), the start structure's included: the
    best-first search evaluates only moves whose bound can still win."""
    sc, sz = _lf_scenario(rows=3, cols=4)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(refine, "evaluate", counted)
    run_baseline(sc, sz, RefinerParams(lam=0.5), variant)
    assert len(calls) == dps


def test_pruning_keeps_greedy_baselines_identical():
    for sc, sz, _, lam in _pruning_cases():
        for variant in ("flex-ga", "fixed-ga", "flex-lm-i"):
            on, off = (
                run_baseline(sc, sz, RefinerParams(lam=lam, enable_pruning=p), variant)
                for p in (True, False)
            )
            assert on.log.steps == off.log.steps
            assert on.structure == off.structure
            assert on.expected_cost == off.expected_cost
            assert on.storage_bits == off.storage_bits


def test_refiner_rows_equal_greedy_refine():
    """The `landmark` and `all-i` methods are `greedy_refine` from
    `landmark_structure` and from `all_i_structure`, with pruning on and off,
    on the first 10 pruning cases."""
    starts = {
        "landmark": landmark_structure,
        "all-i": lambda sc, sz, lam: all_i_structure(sc.graph.n),
    }
    for sc, sz, _, lam in _pruning_cases(10):
        for (method, start), buffer, prune in product(
            starts.items(), ("flex", "fixed"), (True, False)
        ):
            params = RefinerParams(lam, buffer, prune)
            got = run_baseline(sc, sz, params, method)
            final, log = greedy_refine(sc, sz, start(sc, sz, lam), params)
            assert got.structure == final
            assert got.log.steps == log.steps
            assert (
                got.log.candidates_total, got.log.candidates_pruned,
                got.log.candidates_skipped,
            ) == (log.candidates_total, log.candidates_pruned, log.candidates_skipped)
            assert got.expected_cost == log.expected_cost


def test_pruning_keeps_subtract_identical():
    for sc, sz, init, lam in _pruning_cases():
        for buffer in ("flex", "fixed"):
            (on, log_on), (off, log_off) = (
                greedy_subtract(sc, sz, init, RefinerParams(lam, buffer, p))
                for p in (True, False)
            )
            assert log_on.steps == log_off.steps
            assert on == off
            assert log_on.expected_cost == log_off.expected_cost


_MISMATCHED_SIZE_CALLS = {
    "evaluate": lambda sc, sz: evaluate(sc, sz, all_i_structure(sc.graph.n), "flex"),
    "greedy_refine": lambda sc, sz: greedy_refine(
        sc, sz, all_i_structure(sc.graph.n), RefinerParams(lam=0.5)
    ),
    "sweep": lambda sc, sz: sweep(sc, sz, [0.5], RefinerParams(lam=0.5)),
    "run_baseline": lambda sc, sz: run_baseline(sc, sz, RefinerParams(lam=0.5), "inf-lm"),
    "landmark_structure": lambda sc, sz: landmark_structure(sc, sz, 0.5),
}


@pytest.mark.parametrize("entry", sorted(_MISMATCHED_SIZE_CALLS))
def test_library_entry_points_refuse_a_size_table_of_another_n(entry):
    sc, _ = _lf_scenario(rows=2, cols=2)
    with pytest.raises(InvalidInputError, match="size table covers 6 MDUs"):
        _MISMATCHED_SIZE_CALLS[entry](sc, uniform_sizes(6))


# --- infinite buffer --------------------------------------------------------

def test_inf_buffer_pingpong_hand_value():
    sc, sz = pingpong_scenario(mu=2.0, t_max=4), pingpong_sizes()
    # one paid switch; every revisit afterwards is free
    assert inf_buffer_cost(sc, sz, SYM) == pytest.approx(11.0 + 4.5)


def test_inf_buffer_never_exceeds_flexible():
    rng = np.random.default_rng(71)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        sc = random_scenario(rng, n, 3)
        sz = random_sizes(rng, n)
        st = random_structure(rng, n)
        inf_cost = inf_buffer_cost(sc, sz, st)
        flex = eval_flexible(sc, sz, st).expected_cost
        assert inf_cost <= flex + 1e-9


def test_inf_buffer_refuses_beyond_state_cap():
    rng = np.random.default_rng(73)
    sc = random_scenario(rng, 6, 4)
    sz = random_sizes(rng, 6)
    st = random_structure(rng, 6)
    with pytest.raises(OracleRefusalError):
        inf_buffer_cost(sc, sz, st, max_states=10)


def test_inf_buffer_estimate_brackets_exact():
    sc, sz = pingpong_scenario(mu=2.0, t_max=4), pingpong_sizes()
    est = inf_buffer_estimate(sc, sz, SYM, n_sessions=5000, seed=2)
    assert 11.0 <= est <= 15.5 + 1e-9


# inf_buffer_cost of _inf_pin_cases(), weight_first_switch False and True,
# recorded from the recursive implementation this level pass replaced.
_INF_PINS = [
    (22.541494771772275, 18.402275158453598),
    (17.14755839382253, 12.531645093027725),
    (23.863255132416597, 21.07379972312454),
    (16.87101612938066, 13.618847286913184),
    (18.42017170705205, 17.25144068359469),
    (21.613977848499616, 19.750437857296106),
    (16.261600081260898, 14.46358318953186),
    (23.049271253192693, 21.007862719515714),
    (16.2338616378176, 15.980954338583343),
    (12.683775176368973, 12.683775176368973),
    (20.004143022076008, 16.048472481407813),
    (21.476027687448315, 15.913771015352662),
    (23.059727742069786, 21.666010046996654),
    (23.946577814752473, 20.86727849114703),
    (17.296175145496434, 14.895132369425792),
    (21.40154379182168, 18.02377190059333),
    (17.768635799038805, 14.868703906718231),
    (23.518516191179106, 21.533432956459876),
    (12.573939327288649, 11.884182549152099),
    (29.523196483833573, 19.19515288917802),
    (24.3749272405044, 21.968683470064313),
    (19.623828573098194, 14.74149560014477),
    (22.51303120532751, 20.901550769701913),
    (19.435424140064285, 15.050036301357245),
    (20.05238442768789, 19.083337502084095),
    (15.393837810236626, 13.587433751412618),
    (20.76252967704358, 18.725518879943273),
    (21.284812930494084, 16.90604534839848),
    (22.557773818808123, 20.136007497505396),
    (15.541480122116415, 13.068259387223074),
]


def _inf_pin_cases():
    rng = np.random.default_rng(83)
    for _ in range(len(_INF_PINS)):
        n = int(rng.integers(2, 8))
        sc = random_scenario(rng, n, int(rng.integers(1, 6)))
        sz = random_sizes(rng, n)
        st = random_structure(rng, n, edge_prob=float(rng.uniform(0.1, 0.6)))
        yield sc, sz, st


def test_inf_buffer_cost_matches_pinned_values():
    for (sc, sz, st), pins in zip(_inf_pin_cases(), _INF_PINS):
        got = tuple(inf_buffer_cost(sc, sz, st, w) for w in (False, True))
        assert got == pins


def test_inf_lm_pinned_on_lf_landmarks():
    sc, sz = _lf_scenario(rows=3, cols=3, mu=2.0, t_max=3)
    res = run_baseline(sc, sz, RefinerParams(lam=0.5), "inf-lm")
    assert res.expected_cost == 19.857941267102447
    est = inf_buffer_estimate(sc, sz, res.structure, n_sessions=2000, seed=5)
    assert est == 17.45075


def test_inf_buffer_estimate_pins_tie_order():
    # uniform sizes tie many options with different next buffers, so the
    # value depends on the order sources, 1-hop, 2-hop by stored predictor
    rng = np.random.default_rng(99)
    sc = random_scenario(rng, 8, 5, max_deg=4)
    st = random_structure(rng, 8, edge_prob=0.5)
    assert inf_buffer_estimate(sc, uniform_sizes(8), st, n_sessions=500, seed=3) == 28.822


@pytest.mark.parametrize("n_sessions", [0, -1])
def test_both_session_samplers_refuse_no_sessions(n_sessions):
    """The estimate and the simulator share one refusal of a session count
    below 1, not a ZeroDivisionError or numpy's ValueError."""
    sc, sz = pingpong_scenario(), pingpong_sizes()
    policy = eval_flexible(sc, sz, SYM).policy
    for sample in (
        lambda: inf_buffer_estimate(sc, sz, SYM, n_sessions=n_sessions),
        lambda: simulate_sessions(sc, sz, SYM, policy, n_sessions, seed=0),
    ):
        with pytest.raises(InvalidInputError) as refused:
            sample()
        assert str(refused.value) == f"n_sessions must be positive, got {n_sessions}"


def _reachable_states(sc, sz, st):
    """Per-level counts of the states (prev, cur, held) reachable by the
    infinite buffer's options: a held target keeps `held`, else each zero-hop
    source, a 1-hop from a held predictor, and a 2-hop through each unheld
    stored predictor that has a held predictor of its own, up to the last t
    with g(t) > 0."""
    graph, nav, g = sc.graph, sc.nav, sc.lifetime.g
    preds = [{l for (l, m) in st.p_edges if m == j} for j in range(graph.n)]
    # j's zero-hop sources: its own I-MDU, or a stored I-MDU l and the edge (l, j)
    sources = [
        [frozenset({l, j}) for l in (preds[j] | {j}) & st.i_set]
        for j in range(graph.n)
    ]
    level = {(START, graph.start, src) for src in sources[graph.start]}
    counts = [len(level)]
    while g(len(counts)) > 0.0:
        nxt = set()
        for k, i, held in level:
            for j in graph.neighbors[i]:
                if nav.prob(k, i, j) <= 0.0:
                    continue
                if j in held:
                    nxt.add((i, j, held))
                    continue
                nxt.update((i, j, held | src) for src in sources[j])
                if preds[j] & held:
                    nxt.add((i, j, held | {j}))
                for mid in preds[j] - held:
                    if preds[mid] & held:
                        nxt.add((i, j, held | {mid, j}))
        counts.append(len(nxt))
        level = nxt
    return counts


def test_inf_buffer_refuses_exactly_beyond_reachable_count():
    for seed in (90, 93, 94, 97):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 8))
        sc = random_scenario(rng, n, int(rng.integers(2, 6)))
        sz, st = random_sizes(rng, n), random_structure(rng, n)
        reachable = sum(_reachable_states(sc, sz, st))
        assert inf_buffer_cost(sc, sz, st, max_states=reachable) > 0.0
        with pytest.raises(OracleRefusalError, match=f"{reachable - 1} reachable"):
            inf_buffer_cost(sc, sz, st, max_states=reachable - 1)


def _word_boundary_case(n):
    """A seeded instance on n MDUs, so that masks fill 1, 1, 2 and 3 words."""
    rng = np.random.default_rng(5000 + n)
    sc = random_scenario(rng, n, 3)
    return sc, random_sizes(rng, n), random_structure(rng, n, edge_prob=0.05)


# n -> (inf_buffer_cost with weight_first_switch off, on; states per level),
# recorded from the pass over Python int masks that the array pass replaced
_WORD_PINS = {
    63: ((31.048955389004444, 26.565818743302103), (4, 30, 148, 909)),
    64: ((30.43840988466006, 26.006915729492036), (4, 13, 13, 90)),
    65: ((34.60315881141494, 28.732767610675857), (2, 6, 42, 268)),
    130: ((36.57989872694988, 30.74108585861419), (6, 123, 1430, 15507)),
}


@pytest.mark.parametrize("n", sorted(_WORD_PINS))
def test_inf_buffer_pinned_across_mask_words(n, caplog):
    costs, levels = _WORD_PINS[n]
    sc, sz, st = _word_boundary_case(n)
    with caplog.at_level(logging.DEBUG, logger="navstream.baselines"):
        assert inf_buffer_cost(sc, sz, st) == costs[0]
    assert [r.getMessage() for r in caplog.records] == [
        f"infinite-buffer level {t}: {c} states" for t, c in enumerate(levels)
    ]
    assert inf_buffer_cost(sc, sz, st, weight_first_switch=True) == costs[1]
    assert _reachable_states(sc, sz, st) == list(levels)


def test_inf_buffer_restarts_on_a_hash_collision(monkeypatch, caplog):
    # salt 0 hashes every state alike; the pass must notice and start again
    real, salts = core._hashes, []

    def weak(rows, salt):
        salts.append(salt)
        return real(rows, salt) if salt else np.zeros(len(rows), dtype=np.uint64)

    monkeypatch.setattr(core, "_hashes", weak)
    costs, levels = _WORD_PINS[65]
    sc, sz, st = _word_boundary_case(65)
    with caplog.at_level(logging.DEBUG, logger="navstream.baselines"):
        assert inf_buffer_cost(sc, sz, st) == costs[0]
    assert salts[0] == 0 and max(salts) == 1
    assert [r.getMessage() for r in caplog.records] == [
        f"infinite-buffer level {t}: {c} states" for t, c in enumerate(levels)
    ]


def test_level_confirms_every_hash_match_on_the_whole_row(monkeypatch):
    monkeypatch.setattr(
        core, "_hashes", lambda rows, salt: rows[:, 0].copy()
    )
    level = core._Level(2, salt=0)
    level.add(np.array([[1, 5], [2, 6], [1, 5]], dtype=np.uint64))
    assert level.rows.tolist() == [[1, 5], [2, 6]]
    level.add(np.array([[2, 6], [3, 7]], dtype=np.uint64))
    assert level.rows.tolist() == [[1, 5], [2, 6], [3, 7]]
    assert level.index(np.array([[3, 7], [1, 5]], dtype=np.uint64)).tolist() == [2, 0]
    with pytest.raises(core._Collision):  # within the added rows
        level.add(np.array([[4, 1], [4, 2]], dtype=np.uint64))
    with pytest.raises(core._Collision):  # against the level's rows
        level.add(np.array([[2, 9]], dtype=np.uint64))
    with pytest.raises(RuntimeError):
        level.index(np.array([[3, 8]], dtype=np.uint64))


def test_inf_buffer_refuses_mid_level(monkeypatch, caplog):
    sc, sz, st = _word_boundary_case(130)
    levels = _reachable_states(sc, sz, st)
    cap = sum(levels[:-1]) + levels[-1] // 2
    monkeypatch.setattr(core, "_CHUNK", 100)  # level 2 spans 15 chunks
    with caplog.at_level(logging.DEBUG, logger="navstream.baselines"):
        with pytest.raises(OracleRefusalError) as err:
            inf_buffer_cost(sc, sz, st, max_states=cap)
    assert str(err.value) == _MID_LEVEL_REFUSAL
    assert str(err.value).endswith(f"at level {len(levels) - 1}")
    # the refused level's line reports the count where the pass stopped
    stopped = int(caplog.records[-1].getMessage().split(": ")[1].split()[0])
    assert cap - sum(levels[:-1]) < stopped < levels[-1]


_MID_LEVEL_REFUSAL = (
    "infinite-buffer pass exceeds 9312 reachable states at level 3"
)


def _viewport_case():
    """72 viewports (two mask words) from seeded head-motion walks."""
    rng = np.random.default_rng(61)
    rows, cols = 6, 12
    sessions = []
    for _ in range(300):
        r, c = int(rng.integers(rows)), int(rng.integers(cols))
        walk = [r * cols + c]
        for _ in range(12):
            r = min(rows - 1, max(0, r + int(rng.integers(-1, 2))))
            c = (c + int(rng.integers(-1, 2))) % cols
            walk.append(r * cols + c)
        sessions.append(walk)
    graph, nav = build_viewport_scenario(TrajectoryLog(sessions), rows * cols)
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(3.0, 8))
    st = random_structure(rng, rows * cols, edge_prob=0.03)
    return sc, uniform_sizes(rows * cols), st


def test_inf_buffer_estimate_pinned_on_viewports():
    sc, sz, st = _viewport_case()
    got = [inf_buffer_estimate(sc, sz, st, n_sessions=3000, seed=s) for s in (0, 1)]
    assert got == _VIEWPORT_ESTIMATES


_VIEWPORT_ESTIMATES = [43.979, 43.321]


def test_inf_buffer_long_lifetime_has_no_recursion_limit():
    sc = pingpong_scenario(mu=600.0, t_max=1500)
    assert inf_buffer_cost(sc, pingpong_sizes(), SYM) == pytest.approx(11.0 + 4.5)


def test_inf_lm_logs_which_cost_it_reports(caplog, monkeypatch):
    sc, sz = pingpong_scenario(mu=2.0, t_max=4), pingpong_sizes()
    with caplog.at_level(logging.DEBUG, logger="navstream.baselines"):
        exact = run_baseline(sc, sz, RefinerParams(lam=0.1), "inf-lm")
    infos = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert infos == [f"inf-lm cost: exact infinite-buffer cost {exact.expected_cost!r}"]
    levels = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert levels[0] == "infinite-buffer level 0: 1 states"
    assert len(levels) == 5  # t = 0..4

    caplog.clear()
    monkeypatch.setattr(
        baselines, "inf_buffer_cost", partial(inf_buffer_cost, max_states=2)
    )
    with caplog.at_level(logging.INFO, logger="navstream.baselines"):
        est = run_baseline(sc, sz, RefinerParams(lam=0.1), "inf-lm")
    (info,) = [r.getMessage() for r in caplog.records]
    assert info.startswith(f"inf-lm cost: Monte-Carlo estimate {est.expected_cost!r}")
    assert f"over {baselines._INF_ESTIMATE_SESSIONS} sessions" in info
    assert "exceeds 2 reachable states at level 2" in info


# --- tradeoff CSV -----------------------------------------------------------

def test_emit_tradeoff_csv_round_trip(tmp_path):
    rows = [
        ("landmark", TradeoffRow(0.5, 100.0, 20.25, 3, 17)),
        ("flex-ga", TradeoffRow(0.5, 140.0, 19.0, 0, 21)),
    ]
    path = tmp_path / "tradeoff.csv"
    emit_tradeoff_csv(rows, path)
    with open(path, newline="") as fh:
        got = list(csv.DictReader(fh))
    assert len(got) == 2
    assert got[0]["method"] == "landmark"
    assert float(got[0]["expected_bits"]) == 20.25
    assert int(got[1]["p_edges"]) == 21


def test_emit_tradeoff_csv_rejects_empty(tmp_path):
    with pytest.raises(InvalidInputError):
        emit_tradeoff_csv([], tmp_path / "t.csv")
