"""Exact pins of every reader of the navigation chain.

TSVQ's aggregate switch probabilities q, the request bound's weights W,
`simulate_sessions` in both lifetime modes and `inf_buffer_estimate` all
read the same (prev, cur) switch rows and lifetime.  The values in
`chain_pins.json` were recorded before those readers shared one row table,
one forward pass and one session sampler, and must stay equal (==): any
change to how a row is read, to the order mass is summed in, or to the
order random numbers are drawn in shows up here.

`dead_end` is built by hand: its (1, 0) row gives target 1 probability 0,
and MDU 3 has no neighbours, so sessions that reach it end early.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from conftest import pingpong_scenario, pingpong_sizes, random_scenario
from navstream.adapters import LfGridSpec, build_lf_scenario
from navstream.baselines import inf_buffer_estimate
from navstream.costs import Structure, all_i_structure, uniform_sizes
from navstream.evaluate import eval_fixed, eval_flexible
from navstream.landmarks import PlannerParams, build_initial_structure, tsvq
from navstream.oracle import simulate_sessions
from navstream.refine import request_weights
from navstream.scenario import (
    MediaGraph,
    NavigationModel,
    Scenario,
    aggregate_switch_probabilities,
    build_lifetime_tail,
    validate_navigation_model,
)

PINS = json.loads(Path(__file__).with_name("chain_pins.json").read_text())


def _lf33():
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=3, cols=3))
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(1.5, 3))
    q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
    parts = tsvq(sc.graph, sizes, PlannerParams(w=0.5 / sc.lifetime.mu, q=q))
    structure = build_initial_structure(parts, sizes)
    return sc, sizes, structure, eval_flexible(sc, sizes, structure).policy


def _dead_end():
    graph = MediaGraph(n=4, neighbors=((1, 2), (0, 3), (0,), ()), start=0)
    nav = NavigationModel(
        p_start={1: 0.6, 2: 0.4},
        p_switch={
            (0, 1, 0): 0.7, (0, 1, 3): 0.3,
            (1, 0, 1): 0.0, (1, 0, 2): 1.0,
            (2, 0, 1): 0.5, (2, 0, 2): 0.5,
            (0, 2, 0): 1.0,
        },
    )
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(2.0, 4))
    assert validate_navigation_model(graph, nav) == []
    sizes = uniform_sizes(4)
    base = all_i_structure(4)
    structure = Structure(
        i_set=base.i_set, p_edges=frozenset({(0, 1), (1, 0), (0, 2), (1, 3)})
    )
    policy = eval_fixed(sc, sizes, structure, weight_first_switch=True).policy
    return sc, sizes, structure, policy


def _q_and_w(sc):
    q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
    return {
        "q": [[i, j, v] for (i, j), v in q.q.items()],
        "W": request_weights(sc),
    }


def _sessions(sc, sizes, structure, policy):
    out = {}
    for mode in (False, True):
        res = simulate_sessions(
            sc, sizes, structure, policy, n_sessions=3000, seed=5,
            consistency_mode=mode,
        )
        out["consistency" if mode else "default"] = {
            "mean": res.mean,
            "stderr": res.stderr,
            "traces": [
                [tr.path, tr.lifetime, [list(a) for a in tr.actions], tr.bits]
                for tr in res.traces
            ],
        }
    out["inf_estimate"] = inf_buffer_estimate(
        sc, sizes, structure, n_sessions=3000, seed=9
    )
    return out


def _observe(case: str) -> dict:
    if case == "lf33":
        sc, sizes, structure, policy = _lf33()
        return {**_q_and_w(sc), **_sessions(sc, sizes, structure, policy)}
    if case == "random":
        return _q_and_w(random_scenario(np.random.default_rng(11), 5, 3))
    return _sessions(*_dead_end())


@pytest.mark.parametrize("case", ["lf33", "random", "dead_end"])
def test_navigation_chain_pinned(case):
    # a JSON round trip turns tuples into lists and keeps every float exact
    assert json.loads(json.dumps(_observe(case))) == PINS[case]


def test_pingpong_lifetime_conventions():
    """Ping-pong at mu 2, t_max 4 walks 0 -> 1 -> 0 -> ... with certainty.

    q starts after the first switch and weighs switch t + 1 by g(t) up to
    floor(mu); W weighs the request at depth t by g(1)...g(t) up to t_max;
    the default simulator draws T from the pmf renormalised over 0..t_max.
    """
    sc = pingpong_scenario(mu=2.0, t_max=4)
    g = sc.lifetime.g
    poisson = [math.exp(-2.0) * 2.0**m / math.factorial(m) for m in range(5)]
    for t in range(5):
        assert g(t) == pytest.approx(sum(poisson[t:]), rel=1e-14)
    g1, g2, g3, g4 = g(1), g(2), g(3), g(4)

    q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
    assert q.q == {(1, 0): g1, (0, 1): g2}
    assert request_weights(sc) == [g1 + g1 * g2 * g3, 1 + g1 * g2 + g1 * g2 * g3 * g4]

    sizes, structure = pingpong_sizes(), all_i_structure(2)
    policy = eval_fixed(sc, sizes, structure).policy
    res = simulate_sessions(sc, sizes, structure, policy, n_sessions=20_000, seed=3)
    mean_t = sum(m * p for m, p in enumerate(poisson)) / sum(poisson)
    assert abs(res.mean - 11.0 * (1.0 + mean_t)) < 4.0 * res.stderr
