"""Exact pins of TSVQ's partitions and cost terms, and a scalar oracle.

`tsvq_pins.json` holds, per case, the partitions `tsvq` returns in their
order (landmark, sorted members), `phi` of each and `delta` of each
neighbouring pair in that order.  They were recorded while `phi`, `delta`,
`furthest_init` and `lloyd_split` still looped over q's pairs one at a time,
and must stay equal (==): a change to the order q is summed in, to which
sizes are read or to a tie rule shows up here.

`_oracle_phi`, `_oracle_delta` and `_oracle_furthest` are those loops,
kept as the reference the array code is compared with.

A missing case is recorded with `python tests/test_tsvq_pins.py --record
CASE` (with `src` on PYTHONPATH); the recorder never overwrites a pin.
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import random_scenario, random_sizes
from navstream.adapters import (
    LfGridSpec,
    TrajectoryLog,
    build_lf_scenario,
    build_viewport_scenario,
    lifetime_defaults,
)
from navstream.costs import SizeTable, grid_sizes
from navstream.errors import CorruptTableError
from navstream.landmarks import (
    Partition,
    PlannerParams,
    delta,
    furthest_init,
    lloyd_split,
    phi,
    tsvq,
)
from navstream.scenario import (
    AggregateSwitchProbs,
    aggregate_switch_probabilities,
    build_lifetime_tail,
)

PINS_PATH = Path(__file__).with_name("tsvq_pins.json")
PINS = json.loads(PINS_PATH.read_text())
CASES = ["lf20_lam4.5", "lf20_lam8", "lf8", "viewport", "lf20_noisy"]


def _viewport():
    """A viewport model counted from 300 seeded walks on a 4 x 8 tile grid,
    with P sizes that grow with the tiles' grid distance."""
    rng = np.random.default_rng(5)
    rows, cols = 4, 8
    sessions = []
    for _ in range(300):
        r, c = int(rng.integers(rows)), int(rng.integers(cols))
        walk = [r * cols + c]
        for _ in range(20):
            r = min(max(r + int(rng.integers(-1, 2)), 0), rows - 1)
            c = (c + int(rng.integers(-1, 2))) % cols
            walk.append(r * cols + c)
        sessions.append(walk)
    graph, nav = build_viewport_scenario(TrajectoryLog(sessions=sessions), rows * cols)
    return graph, nav, grid_sizes(rows, cols), build_lifetime_tail(3.0, 8), 5.0


def _noisy(sizes: SizeTable) -> SizeTable:
    """`sizes` with every entry scaled by its own seeded factor in [0.9, 1.1]:
    sums in another order, or over members in another order, come out as
    other floats, where the grid's few distinct sizes often hide that."""
    rng, n = np.random.default_rng(12), sizes.n
    return SizeTable(
        sizes.i_size * rng.uniform(0.9, 1.1, n),
        sizes.m_size * rng.uniform(0.9, 1.1, n),
        sizes.p_size * rng.uniform(0.9, 1.1, (n, n)),
    )


def _case(case: str):
    """graph, sizes and planner parameters of a pinned case."""
    if case == "viewport":
        graph, nav, sizes, lifetime, lam = _viewport()
    else:
        rows, lam = {
            "lf20_lam4.5": (20, 4.5), "lf20_lam8": (20, 8.0), "lf8": (8, 5.0),
            "lf20_noisy": (20, 10.0),
        }[case]
        graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=rows, cols=rows))
        if case == "lf20_noisy":
            sizes = _noisy(sizes)
        lifetime = build_lifetime_tail(*lifetime_defaults((rows + 1) * (rows + 1)))
    q = aggregate_switch_probabilities(graph, nav, lifetime)
    return graph, sizes, PlannerParams(w=lam / lifetime.mu, q=q)


def _observe(case: str) -> dict:
    graph, sizes, params = _case(case)
    parts = tsvq(graph, sizes, params)
    return {
        "partitions": [[p.landmark, sorted(p.members)] for p in parts],
        "phi": [phi(p, sizes, params) for p in parts],
        "delta": [delta(a, b, sizes, params) for a, b in zip(parts, parts[1:])],
    }


@pytest.mark.parametrize("case", CASES)
def test_tsvq_pinned(case):
    # a JSON round trip turns tuples into lists and keeps every float exact
    assert json.loads(json.dumps(_observe(case))) == PINS[case]


# --- the scalar oracle ------------------------------------------------------

def _hop(sizes, l, j):
    return 0.0 if j == l else sizes.p(l, j) + sizes.m(j)


def _oracle_phi(part, sizes, params):
    l, mem, trans = part.landmark, part.members, 0.0
    for (i, j), p in params.q.q.items():
        if i in mem and j in mem:
            trans += p * _hop(sizes, l, j)
    store = 0.0
    for i in mem:
        if i != l:
            store += sizes.p(l, i)
    return trans + params.w * (sizes.i(l) + store)


def _oracle_delta(p1, p2, sizes, params):
    l1, l2 = p1.landmark, p2.landmark
    hop_12, hop_21 = _hop(sizes, l1, l2), _hop(sizes, l2, l1)
    term1 = term2 = 0.0
    for (i, j), p in params.q.q.items():
        if i in p1.members and j in p2.members:
            term1 += p * (hop_12 + _hop(sizes, l2, j))
        elif i in p2.members and j in p1.members:
            term2 += p * (hop_21 + _hop(sizes, l1, j))
    return term1 + term2 + params.w * (sizes.p(l2, l1) + sizes.p(l1, l2))


def _oracle_furthest(part, sizes, params):
    l, mem, out = part.landmark, part.members, {}
    for (i, j), p in params.q.q.items():
        if i in mem and j in mem:
            out[i] = out.get(i, 0.0) + p * _hop(sizes, l, j)
    scores = [
        (out.get(i, 0.0) + params.w * sizes.p(l, i) - params.w * sizes.i(i), -i)
        for i in mem if i != l
    ]
    return -max(scores)[1]  # the largest score, ties to the lowest index


def _random_instance(rng, seed):
    """A random scenario's q, sizes (every other one with tied integer sizes)
    and two disjoint partitions with members in a shuffled insertion order."""
    n = int(rng.integers(2, 12))
    sc = random_scenario(rng, n, int(rng.integers(1, 5)), mu=float(rng.uniform(0.5, 6.0)))
    q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
    sizes = random_sizes(rng, n)
    if seed % 2:
        p = rng.integers(1, 4, (n, n)).astype(float)
        np.fill_diagonal(p, np.nan)
        sizes = SizeTable(rng.integers(5, 8, n), np.full(n, 3.0), p)
    order = rng.permutation(n).tolist()
    cut = int(rng.integers(1, n)) if n > 1 else n
    parts = [
        Partition(members=frozenset(side), landmark=int(rng.choice(side)))
        for side in (order[:cut], order[cut:]) if side
    ]
    return sizes, PlannerParams(w=float(rng.uniform(0.0, 0.5)), q=q), parts


def test_cost_terms_equal_the_scalar_oracle():
    """phi, delta and furthest_init on 150 seeded random instances, with =="""
    rng = np.random.default_rng(99)
    for seed in range(150):
        sizes, params, parts = _random_instance(rng, seed)
        for part in parts:
            assert phi(part, sizes, params) == _oracle_phi(part, sizes, params), seed
            if len(part.members) > 1:
                got = furthest_init(part, sizes, params)
                assert got == _oracle_furthest(part, sizes, params), seed
        if len(parts) == 2:
            got = delta(*parts, sizes, params)
            assert got == _oracle_delta(*parts, sizes, params), seed


# --- corrupt tables ---------------------------------------------------------

def _corrupt(kind, index, value):
    """Grid 2 x 3 sizes with one I, M or P entry replaced, built in code.

    The table refuses the bad entry at construction, so the caller builds it
    inside its `raises` block: no planner ever reads a corrupt size.
    """
    base = grid_sizes(2, 3)
    tables = {"I": base.i_size.copy(), "M": base.m_size.copy(), "P": base.p_size.copy()}
    tables[kind][index] = value
    return SizeTable(tables["I"], tables["M"], tables["P"])


_EVERY_SWITCH = AggregateSwitchProbs(
    q={(i, j): 0.05 for i in range(6) for j in range(6) if i != j}
)
_ALL = Partition(members=frozenset(range(6)), landmark=0)
_LEFT = Partition(members=frozenset({0, 1, 2}), landmark=0)
_RIGHT = Partition(members=frozenset({3, 4, 5}), landmark=3)
_GRAPH = build_lf_scenario(LfGridSpec(rows=2, cols=3))[0]

# each call with entries it reads: I of the landmark or a member, M of a
# switch target, P of a spoke or of the landmark-to-landmark hop
_READS = {
    "phi": (lambda s, prm: phi(_ALL, s, prm), [("I", 0), ("M", 4), ("P", (0, 4))]),
    "delta": (
        lambda s, prm: delta(_LEFT, _RIGHT, s, prm),
        [("M", 3), ("M", 4), ("P", (0, 3)), ("P", (3, 4))],
    ),
    "furthest_init": (
        lambda s, prm: furthest_init(_ALL, s, prm), [("I", 4), ("M", 4), ("P", (0, 4))]
    ),
    "lloyd_split": (
        lambda s, prm: lloyd_split(_ALL, s, prm), [("I", 4), ("M", 4), ("P", (0, 4))]
    ),
    "tsvq": (lambda s, prm: tsvq(_GRAPH, s, prm), [("I", 0), ("I", 4), ("M", 4)]),
}


@pytest.mark.parametrize("call", sorted(_READS))
@pytest.mark.parametrize("bad", [math.nan, 0.0, -2.0])
def test_corrupt_size_read_by_tsvq_raises(call, bad):
    run, entries = _READS[call]
    params = PlannerParams(w=0.1, q=_EVERY_SWITCH)
    run(grid_sizes(2, 3), params)  # the clean table plans
    for kind, index in entries:
        with pytest.raises(CorruptTableError):
            run(_corrupt(kind, index, bad), params)


def record(case: str) -> None:
    """Append the pin of `case` to tsvq_pins.json; refuse an existing one."""
    text = PINS_PATH.read_text()
    if case in json.loads(text):
        sys.exit(f"{case} is already pinned; the recorder never overwrites a pin")
    body = text.rstrip()
    if not body.endswith("}"):
        sys.exit(f"{PINS_PATH} does not end in a JSON object")
    pin = json.loads(json.dumps(_observe(case)))
    sep = ",\n" if json.loads(text) else "\n"
    PINS_PATH.write_text(
        f"{body[:-1].rstrip()}{sep} {json.dumps(case)}: {json.dumps(pin)}\n}}\n"
    )
    if json.loads(PINS_PATH.read_text())[case] != pin:
        sys.exit(f"{case}: the written pin does not read back equal")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="record a missing TSVQ pin")
    parser.add_argument("--record", choices=CASES, required=True)
    record(parser.parse_args().record)
