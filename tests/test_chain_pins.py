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
`lf55_long` walks q 12 levels deep and W 24; it was recorded before the
forward pass moved from a dict per level to arrays.

A missing case is recorded with `python tests/test_chain_pins.py --record
CASE` (with `src` on PYTHONPATH); the recorder never overwrites a pin.
"""

import argparse
import json
import logging
import math
import re
import sys
from itertools import islice
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
    START,
    MediaGraph,
    NavigationModel,
    Scenario,
    aggregate_switch_probabilities,
    build_lifetime_tail,
    validate_navigation_model,
)

PINS_PATH = Path(__file__).with_name("chain_pins.json")
PINS = json.loads(PINS_PATH.read_text())
CASES = ["lf33", "random", "dead_end", "lf55_long"]


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
    if case == "lf55_long":
        graph, nav, _ = build_lf_scenario(LfGridSpec(rows=5, cols=5))
        return _q_and_w(Scenario(graph, nav, build_lifetime_tail(12.0, 24)))
    return _sessions(*_dead_end())


@pytest.mark.parametrize("case", CASES)
def test_navigation_chain_pinned(case):
    # a JSON round trip turns tuples into lists and keeps every float exact
    assert json.loads(json.dumps(_observe(case))) == PINS[case]


def test_pingpong_lifetime_conventions():
    """Ping-pong at mu 2, t_max 4 walks 0 -> 1 -> 0 -> ... with certainty.

    q starts after the first switch and weighs switch t + 1 by g(t) up to
    floor(mu); W weighs the request at depth t by g(1)...g(t) up to t_max;
    the default simulator draws T from the pmf renormalised over 0..t_max;
    the DP, and the simulator in consistency mode, weigh the request at depth
    t by w1 * g(1)...g(t), with w1 = g(1) under `weight_first_switch`.
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

    for weight_first_switch in (False, True):
        w1 = g1 if weight_first_switch else 1.0
        depths = 1 + g1 + g1 * g2 + g1 * g2 * g3 + g1 * g2 * g3 * g4
        exact = 11.0 * (1.0 + w1 * depths)
        fixed = eval_fixed(sc, sizes, structure, weight_first_switch=weight_first_switch)
        assert fixed.expected_cost == pytest.approx(exact, rel=1e-12)
        res = simulate_sessions(
            sc, sizes, structure, fixed.policy, n_sessions=20_000, seed=3,
            consistency_mode=True,
        )
        assert abs(res.mean - exact) < 4.0 * res.stderr


def _dict_q_and_w(sc):
    """q and W from a dict per level: the forward pass the array pass replaced."""
    # each (prev, cur) pair's requests with p > 0, the only ones a session
    # takes, read from the navigation model itself
    nb, prob = sc.graph.neighbors, sc.nav.prob
    pairs = [(START, sc.graph.start)]
    pairs += [(k, i) for k in range(sc.graph.n) for i in nb[k]]
    rows = {
        (k, i): [(j, p) for j in nb[i] if (p := prob(k, i, j)) > 0.0] for k, i in pairs
    }
    lt = sc.lifetime

    def levels(factors):
        level = {(START, sc.graph.start): 1.0}
        yield level
        for f in factors:
            nxt = {}
            for (k, i), mass in level.items():
                for j, p in rows[(k, i)]:
                    nxt[(i, j)] = nxt.get((i, j), 0.0) + f * (mass * p)
            level = nxt
            yield level

    q = {}
    horizon = max(1, math.floor(lt.mu))
    for t, level in enumerate(islice(levels([1.0] * (horizon + 1)), 2, None), start=1):
        for pair, mass in level.items() if lt.g(t) > 0.0 else ():
            q[pair] = q.get(pair, 0.0) + lt.g(t) * mass
    w = [0.0] * sc.graph.n
    for level in levels([lt.g(t) for t in range(1, lt.t_max + 1)]):
        for pair, mass in level.items():
            for j, p in rows[pair]:
                w[j] += mass * p
    return q, w


def _zero_some(sc, rng):
    """`sc` with about a third of its probabilities set to 0 (rows stay unnormalised)."""
    p_start = {j: 0.0 if rng.random() < 0.3 else p for j, p in sc.nav.p_start.items()}
    p_switch = {
        key: 0.0 if rng.random() < 0.3 else p for key, p in sc.nav.p_switch.items()
    }
    return Scenario(sc.graph, NavigationModel(p_start, p_switch), sc.lifetime)


def _reference_cases():
    rng = np.random.default_rng(2024)
    for seed in range(210):
        t_max = int(rng.integers(1, 7))
        sc = random_scenario(
            rng, int(rng.integers(2, 9)), t_max, mu=float(rng.uniform(0.5, 9.0))
        )
        yield f"random-{seed}", _zero_some(sc, rng) if seed % 3 == 0 else sc
    yield "dead_end", _dead_end()[0]


def test_q_and_w_equal_the_dict_pass():
    """Values and q's key order, which TSVQ sums in, on 211 scenarios."""
    for name, sc in _reference_cases():
        q_ref, w_ref = _dict_q_and_w(sc)
        q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime).q
        assert list(q.items()) == list(q_ref.items()), name
        w = request_weights(sc)
        assert w == w_ref and set(map(type, w)) == {float}, name


def _levels_logged(caplog, logger, call):
    """call()'s result and the pairs and levels its one DEBUG line reports."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=logger):
        out = call()
    (line,) = [r.getMessage() for r in caplog.records if r.name == logger]
    found = re.fullmatch(
        r"(q|request weights): (\d+) pairs over (\d+) levels in [\d.]+ s", line
    )
    assert found, line
    return out, int(found[2]), int(found[3])


def test_passes_stop_where_the_weights_end(caplog):
    """q's horizon floor(mu) = 20 and W's t_max pass the last t with g(t) > 0."""
    sc = random_scenario(np.random.default_rng(7), 6, 3, mu=20.0)
    q_ref, w_ref = _dict_q_and_w(sc)
    q, pairs, levels = _levels_logged(
        caplog, "navstream.scenario",
        lambda: aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime).q,
    )
    assert list(q.items()) == list(q_ref.items())
    assert (pairs, levels) == (len(q), 3 + 2)  # levels 0..t_max + 1, not 0..21
    w, pairs, levels = _levels_logged(
        caplog, "navstream.refine.weights", lambda: request_weights(sc)
    )
    assert w == w_ref
    assert (pairs, levels) == (len(sc.pair_index.pairs), 3 + 1)

    sc = pingpong_scenario(mu=1.0, t_max=400)  # g(t) underflows to 0 after t = 177
    last = max(t for t in range(401) if sc.lifetime.g(t) > 0.0)
    assert last < 400
    w, _, levels = _levels_logged(
        caplog, "navstream.refine.weights", lambda: request_weights(sc)
    )
    assert w == _dict_q_and_w(sc)[1]
    assert levels == last + 1


def _layout(value, indent: int) -> str:
    """JSON in the pin file's layout: one line per key and per item of a
    list of lists, everything else inline."""
    pad = " " * indent
    if isinstance(value, dict):
        lines = [
            f"{pad}{json.dumps(k)}: {_layout(v, indent + 1)}" for k, v in value.items()
        ]
    elif isinstance(value, list) and value and all(isinstance(v, list) for v in value):
        lines = [pad + json.dumps(v) for v in value]
    else:
        return json.dumps(value)
    brackets = "{}" if isinstance(value, dict) else "[]"
    return brackets[0] + "\n" + ",\n".join(lines) + "\n" + pad[1:] + brackets[1]


def record(case: str) -> None:
    """Append the pin of `case` to chain_pins.json; refuse an existing one."""
    text = PINS_PATH.read_text()
    if case in json.loads(text):
        sys.exit(f"{case} is already pinned; the recorder never overwrites a pin")
    body = text.rstrip()
    if not body.endswith("}"):
        sys.exit(f"{PINS_PATH} does not end in a JSON object")
    pin = json.loads(json.dumps(_observe(case)))
    PINS_PATH.write_text(
        f"{body[:-1].rstrip()},\n {json.dumps(case)}: {_layout(pin, 2)}\n}}\n"
    )
    if json.loads(PINS_PATH.read_text())[case] != pin:
        sys.exit(f"{case}: the written pin does not read back equal")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="record a missing chain pin")
    parser.add_argument("--record", choices=CASES, required=True)
    record(parser.parse_args().record)
