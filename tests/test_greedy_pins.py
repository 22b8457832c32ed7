"""Exact pins of the greedy searches on small instances.

The refiner, the subtractor and the greedy baselines must reproduce these
steps, structures, costs and candidate counters bit for bit: the values
were recorded before the three searches shared one engine, and any change
to scan order, tie-breaking, storage arithmetic or pruning shows up here.
The `candidates_pruned` counts are those of the best-first search: a move
is pruned when its closed-form bound (`refine._RequestBound`: the request
bound under the flexible buffer, the exact cost in closed form under the
fixed one) exceeds the incumbent's J, or when it is left unevaluated after
the search stops at the first bound above the best J found.  Every search
applies it to every move, added or removed, including the `flex-ga` and
`fixed-ga` baselines; the bound decides nothing else, so every other value
is as first recorded.
"""

import numpy as np
import pytest

from conftest import random_scenario, random_sizes, random_structure
from navstream import refine
from navstream.adapters import LfGridSpec, build_lf_scenario, lifetime_defaults
from navstream.baselines import run_baseline
from navstream.costs import all_i_structure, storage_cost
from navstream.evaluate import evaluate
from navstream.landmarks import PlannerParams, build_initial_structure, tsvq
from navstream.refine import RefinerParams, greedy_refine, greedy_subtract
from navstream.scenario import (
    Scenario,
    aggregate_switch_probabilities,
    build_lifetime_tail,
)

LAM = 0.2
ALL = [0, 1, 2, 3, 4, 5]


def _lf(rows, cols, mu, t_max):
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=rows, cols=cols))
    sc = Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(mu, t_max))
    return sc, sizes


@pytest.fixture(scope="module")
def lf23():
    return _lf(2, 3, 1.0, 2)


def _shape(structure):
    landmarks = None
    if structure.landmarks is not None:
        landmarks = [(g.landmark, sorted(g.members)) for g in structure.landmarks]
    return sorted(structure.i_set), sorted(structure.p_edges), landmarks


def _counts(log):
    return log.candidates_total, log.candidates_pruned, log.candidates_skipped


REFINE_STEPS = [
    (1, (4, 0), 32.183259287233376),
    (2, (4, 3), 30.7272695248328),
    (3, (4, 1), 29.670414091576365),
    (4, (4, 5), 28.942401645630042),
    (5, (4, 2), 27.80181360178233),
]


@pytest.mark.parametrize(
    "prune, counts", [(True, (135, 12, 0)), (False, (135, 0, 0))]
)
def test_refine_from_landmarks_pinned(lf23, prune, counts):
    sc, sizes = lf23
    q = aggregate_switch_probabilities(sc.graph, sc.nav, sc.lifetime)
    init = build_initial_structure(
        tsvq(sc.graph, sizes, PlannerParams(w=LAM / sc.lifetime.mu, q=q)), sizes
    )
    final, log = greedy_refine(
        sc, sizes, init, RefinerParams(lam=LAM, enable_pruning=prune)
    )
    assert log.steps == REFINE_STEPS
    assert _shape(final) == (
        [0],
        [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
         (4, 0), (4, 1), (4, 2), (4, 3), (4, 5)],
        [(0, ALL)],
    )
    assert _counts(log) == counts


def test_subtract_pinned(lf23):
    sc, sizes = lf23
    added, _ = greedy_refine(sc, sizes, all_i_structure(6), RefinerParams(lam=LAM))
    final, log = greedy_subtract(sc, sizes, added, RefinerParams(lam=2.0))
    assert log.steps == [
        (1, (3, 4), 160.97979000959455),
        (2, (4, 0), 160.65301232792768),
        (3, (4, 2), 160.3262346462608),
    ]
    assert _shape(final) == (ALL, [(4, 1), (4, 3), (4, 5)], None)
    assert _counts(log) == (18, 14, 0)


BASELINES = {
    "flex-ga": (
        [
            (1, ((1, 4), (4, 1)), 39.9989395234375),
            (2, ((4, 3),), 38.0452150921662),
            (3, ((4, 5),), 36.09149066089489),
            (4, ((4, 0),), 34.61826834256177),
            (5, ((4, 2),), 33.14504602422865),
        ],
        [(1, 4), (4, 0), (4, 1), (4, 2), (4, 3), (4, 5)],
        18.74504602422865,
        72.0,
        (235, 166, 0),
    ),
    "fixed-ga": (
        [
            (1, ((4, 3),), 40.68310170141663),
            (2, ((4, 5),), 38.979676536802415),
            (3, ((4, 1),), 37.28987808930982),
            (4, ((3, 0),), 36.70697168937988),
            (5, ((5, 2),), 36.12406528944993),
            (6, ((1, 0),), 35.87691311029004),
            (7, ((1, 2),), 35.62976093113016),
            (8, ((4, 0),), 35.386597191886864),
            (9, ((4, 2),), 35.143433452643585),
            (10, ((0, 1),), 35.1118232883761),
            (11, ((2, 1),), 35.08021312410862),
        ],
        [(0, 1), (1, 0), (1, 2), (2, 1), (3, 0), (4, 0), (4, 1), (4, 2),
         (4, 3), (4, 5), (5, 2)],
        19.68021312410862,
        77.0,
        (294, 278, 0),
    ),
    "flex-lm-i": (
        [
            (1, (4, 0), 38.68325928723337),
            (2, (4, 3), 37.2272695248328),
            (3, (4, 1), 36.17041409157636),
            (4, (4, 5), 35.44240164563004),
            (5, (4, 2), 34.30181360178233),
            (1, (0, 2), 33.94181360178233),
            (2, (0, 5), 33.58181360178233),
            (3, (0, 1), 33.38312375837971),
            (4, (0, 3), 33.190227922127725),
            (5, (0, 4), 33.17979000959455),
        ],
        [(4, 0), (4, 1), (4, 2), (4, 3), (4, 5)],
        18.97979000959455,
        71.0,
        (180, 39, 0),
    ),
}


@pytest.mark.parametrize("variant", sorted(BASELINES))
def test_baseline_pinned(lf23, variant):
    steps, edges, cost, bits, counts = BASELINES[variant]
    sc, sizes = lf23
    res = run_baseline(sc, sizes, RefinerParams(lam=LAM), variant)
    assert res.log.steps == steps
    assert _shape(res.structure) == (ALL, edges, None)
    assert res.expected_cost == cost
    assert res.storage_bits == bits
    assert _counts(res.log) == counts


def test_edge_filter_skips_pinned():
    """2x6 at t_max 1: the far columns are unreachable, so moves are skipped."""
    sc, sizes = _lf(2, 6, 0.5, 1)
    steps = [
        (1, (9, 3), 50.02085640958764),
        (2, (9, 8), 48.307195263019565),
        (3, (9, 10), 46.59353411645149),
        (4, (9, 2), 46.03704855265963),
        (5, (9, 4), 45.48056298886776),
        (6, (8, 7), 45.39216921617103),
        (7, (10, 11), 45.303775443474294),
    ]
    edges = [(8, 7), (9, 2), (9, 3), (9, 4), (9, 8), (9, 10), (10, 11)]
    final, log = greedy_refine(sc, sizes, all_i_structure(12), RefinerParams(lam=LAM))
    assert log.steps == steps
    assert sorted(final.p_edges) == edges
    assert _counts(log) == (692, 642, 336)
    res = run_baseline(sc, sizes, RefinerParams(lam=LAM), "flex-ga")
    assert res.log.steps == [(it, (edge,), j) for it, edge, j in steps]
    assert sorted(res.structure.p_edges) == edges
    assert res.expected_cost == 17.503775443474293
    assert _counts(res.log) == (1024, 943, 504)


def test_exact_tie_keeps_the_earlier_move_whatever_the_bound_order(monkeypatch):
    """LF 2x3, t_max 1, fixed buffer: (4, 1), (4, 3) and (4, 5) tie on exact
    J in iteration 1, and the bound, equal up to its last bits, ranks (4, 5)
    first; the earliest move in generation order is still committed."""
    sc, sizes = _lf(2, 3, 1.0, 1)
    evaluated = []

    def counted(*args, **kwargs):
        evaluated.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(refine, "evaluate", counted)
    params = RefinerParams(lam=0.5, buffer="fixed")
    _, log = greedy_refine(sc, sizes, all_i_structure(6), params)
    moves = evaluated[1:1 + log.iterations[0]["evaluated"]]
    assert [sorted(st.p_edges) for st in moves] == [[(4, 5)], [(4, 1)], [(4, 3)]]
    js = {
        evaluate(sc, sizes, st, "fixed").expected_cost + 0.5 * storage_cost(st, sizes)
        for st in moves
    }
    assert js == {log.steps[0][2]}
    assert log.steps[0][:2] == (1, (4, 1))


def test_paper_default_lf8x8_fixed_ga_pinned(monkeypatch):
    """LF 8x8 at the paper's default lifetime (mu 13.5, t_max 27), lambda 0.5:
    the steps recorded when the engine evaluated every move whose bound was
    below the running best (27,707 exact DPs), here with 13."""
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=8, cols=8))
    sc = Scenario(graph, nav, build_lifetime_tail(*lifetime_defaults(81)))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(refine, "evaluate", counted)
    res = run_baseline(sc, sizes, RefinerParams(lam=0.5), "fixed-ga")
    assert res.log.steps == [
        (1, ((36, 35),), 492.51191483451817),
        (2, ((36, 28),), 491.5759333945774),
        (3, ((36, 37),), 490.65347767353495),
        (4, ((36, 44),), 489.7310219524925),
        (5, ((28, 20),), 489.67279742687566),
        (6, ((35, 34),), 489.6145729012589),
        (7, ((44, 52),), 489.5637981969369),
        (8, ((37, 38),), 489.51302349261493),
    ]
    assert res.expected_cost == 133.51302349261496
    assert res.storage_bits == 712.0
    assert res.expected_cost + 0.5 * res.storage_bits == 489.51302349261493
    assert len(calls) == 13


def test_storage_arithmetic_pinned():
    """Random sizes: J carries the bits of b_base + P(new edges) exactly.

    Recomputing the candidate's storage from scratch instead changes the
    last bits of two of these J values.
    """
    rng = np.random.default_rng(2)
    sc = random_scenario(rng, 6, 2)
    sizes = random_sizes(rng, 6)
    init = random_structure(rng, 6, edge_prob=0.1)
    _, log = greedy_refine(sc, sizes, init, RefinerParams(lam=0.1))
    assert log.steps == [
        (1, (4, 0), 26.405515157080185),
        (2, (4, 3), 25.442050875474575),
        (3, (2, 4), 24.586964358545078),
        (4, (1, 5), 24.580686464279353),
    ]
    res = run_baseline(sc, sizes, RefinerParams(lam=0.1), "flex-ga")
    assert res.log.steps == [
        (1, ((2, 4), (4, 2)), 27.855253918658995),
        (2, ((4, 3),), 26.375986805562455),
        (3, ((4, 0),), 25.133330941699324),
        (4, ((2, 1),), 24.979541859009853),
    ]
