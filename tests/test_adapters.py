import logging

import numpy as np
import pytest

from navstream.adapters import (
    LfGridSpec,
    TrajectoryLog,
    _grid_neighbors,
    _switch_factors,
    build_lf_scenario,
    build_viewport_scenario,
    lifetime_defaults,
)
from navstream.errors import InvalidInputError
from navstream.scenario import validate_navigation_model


# --- light-field grids ------------------------------------------------------

def test_grid_neighbors_counts():
    nb = _grid_neighbors(4, 4)
    assert len(nb[0]) == 3  # corner
    assert len(nb[1]) == 5  # edge
    assert len(nb[5]) == 8  # interior
    assert 5 in nb[0] and 0 in nb[5]


def test_lf_spec_validation():
    with pytest.raises(InvalidInputError):
        LfGridSpec(rows=1, cols=4)
    with pytest.raises(InvalidInputError):
        LfGridSpec(rows=4, cols=4, sigma=0.0)
    with pytest.raises(InvalidInputError):
        LfGridSpec(rows=4, cols=4, quad_samples=0)


def test_lf_scenario_validates_clean():
    graph, nav, sizes = build_lf_scenario(LfGridSpec(rows=4, cols=4))
    assert validate_navigation_model(graph, nav) == []
    assert graph.start == 2 * 4 + 2


def test_lf_rows_normalize():
    graph, nav, _ = build_lf_scenario(LfGridSpec(rows=4, cols=5))
    rows = {}
    for (k, i, _j), p in nav.p_switch.items():
        rows[(k, i)] = rows.get((k, i), 0.0) + p
    assert all(abs(total - 1.0) < 1e-9 for total in rows.values())
    assert sum(nav.p_start.values()) == pytest.approx(1.0, abs=1e-12)


def test_lf_same_tendency_bias():
    # coming from the left, continuing right must beat reversing direction
    graph, nav, _ = build_lf_scenario(LfGridSpec(rows=3, cols=5))
    k, i = 6, 7  # middle row, moving right
    assert nav.p_switch[(k, i, 8)] > nav.p_switch[(k, i, 6)]


def test_lf_reflection_symmetry():
    graph, nav, _ = build_lf_scenario(LfGridSpec(rows=3, cols=3))
    # mirror the grid left-right: (k, i, j) maps to mirrored columns
    def mirror(v):
        r, c = divmod(v, 3)
        return r * 3 + (2 - c)

    for (k, i, j), p in nav.p_switch.items():
        assert nav.p_switch[(mirror(k), mirror(i), mirror(j))] == pytest.approx(
            p, rel=1e-9
        )


def test_lf_quadrature_factors_converge():
    coarse = _switch_factors(0.5, 4)
    fine = _switch_factors(0.5, 8)
    for delta in range(-2, 3):
        rel = abs(fine[delta] - coarse[delta]) / fine[delta]
        assert rel < 0.01


def test_lf_switch_probs_quadrature_convergence():
    g4, n4, _ = build_lf_scenario(LfGridSpec(rows=4, cols=4, quad_samples=4))
    g8, n8, _ = build_lf_scenario(LfGridSpec(rows=4, cols=4, quad_samples=8))
    for key, p in n4.p_switch.items():
        assert abs(n8.p_switch[key] - p) / n8.p_switch[key] < 0.01


def test_lifetime_defaults():
    assert lifetime_defaults(289) == (48.0, 96)
    assert lifetime_defaults(3) == (0.5, 1)
    with pytest.raises(InvalidInputError):
        lifetime_defaults(2)


# --- viewport trajectories --------------------------------------------------

def _log(sessions):
    return TrajectoryLog(sessions=[list(s) for s in sessions])


def test_trajectory_round_trip(tmp_path):
    traj = _log([[0, 1, 2], [2, 1], [1]])
    path = tmp_path / "traj.txt"
    traj.save(path)
    assert TrajectoryLog.load(path).sessions == traj.sessions


def test_trajectory_validate():
    traj = _log([[0, 9], []])
    problems = traj.validate(3)
    assert any("out-of-range" in p for p in problems)
    assert any("empty" in p for p in problems)


def test_viewport_counts_transitions():
    # 0 -> 1 -> 2 always; plus a 0 -> 1 -> 0 session
    traj = _log([[0, 1, 2]] * 8 + [[0, 1, 0]] * 2)
    graph, nav = build_viewport_scenario(traj, 3)
    assert graph.start == 0
    assert nav.p_start == pytest.approx({1: 1.0})
    p12 = nav.p_switch[(0, 1, 2)]
    p10 = nav.p_switch[(0, 1, 0)]
    assert p12 > p10
    assert p12 + p10 == pytest.approx(1.0)
    assert p12 == pytest.approx((8 + 1e-3) / (10 + 2e-3))


def test_viewport_drops_self_transitions():
    traj = _log([[0, 0, 1, 1, 2], [0, 1, 2]])
    graph, nav = build_viewport_scenario(traj, 3)
    assert 1 not in graph.neighbors[1]
    assert (0, 1, 1) not in nav.p_switch


def test_viewport_start_is_modal_first_viewport():
    traj = _log([[2, 1], [2, 0], [1, 0], [2, 1]])
    graph, _ = build_viewport_scenario(traj, 3)
    assert graph.start == 2


def test_viewport_start_tie_goes_lowest():
    traj = _log([[1, 0], [2, 0]])
    graph, _ = build_viewport_scenario(traj, 3)
    assert graph.start == 1


def test_viewport_absorbing_repair_warns(caplog):
    traj = _log([[0, 1], [0, 1]])  # viewport 2 never observed, 1 absorbing
    with caplog.at_level(logging.WARNING, logger="navstream.adapters"):
        graph, nav = build_viewport_scenario(traj, 3)
    assert any("no observed successors" in rec.getMessage()
               for rec in caplog.records)
    assert set(graph.neighbors[1]) == {0, 2}
    assert set(graph.neighbors[2]) == {0, 1}
    assert validate_navigation_model(graph, nav) == []


def test_viewport_rows_normalize():
    rng = np.random.default_rng(51)
    sessions = [
        [int(v) for v in rng.integers(0, 6, size=rng.integers(2, 12))]
        for _ in range(40)
    ]
    graph, nav = build_viewport_scenario(_log(sessions), 6)
    assert validate_navigation_model(graph, nav) == []


def test_viewport_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        build_viewport_scenario(_log([[0, 1]]), 1)
    with pytest.raises(InvalidInputError):
        build_viewport_scenario(_log([]), 3)
