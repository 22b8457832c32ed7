import csv

import numpy as np
import pytest

from conftest import (
    pingpong_scenario,
    pingpong_sizes,
    random_scenario,
    random_sizes,
    random_structure,
)
from navstream.adapters import LfGridSpec, build_lf_scenario
from navstream.baselines import (
    VARIANTS,
    emit_tradeoff_csv,
    inf_buffer_cost,
    inf_buffer_estimate,
    run_baseline,
)
from navstream.costs import Structure, storage_cost
from navstream.errors import InvalidInputError, OracleRefusalError
from navstream.evaluate import eval_flexible
from navstream.refine import RefinerParams, TradeoffRow, greedy_subtract
from navstream.scenario import Scenario, build_lifetime_tail

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


def _pruning_cases(count=20):
    rng = np.random.default_rng(79)
    for _ in range(count):
        n = int(rng.integers(3, 8))
        sc = random_scenario(rng, n, int(rng.integers(1, 4)))
        sz = random_sizes(rng, n)
        init = random_structure(rng, n, edge_prob=0.3)
        yield sc, sz, init, float(rng.uniform(0.02, 0.4))


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
