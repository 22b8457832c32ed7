"""Scenario generators for the two target applications.

Light-field grids: MDUs are view-areas bounded by four anchor views, laid
out rows x cols (from a (rows+1) x (cols+1) anchor grid).  Switch
probabilities integrate a same-tendency Gaussian over unit view-areas.

360-degree viewports: switch probabilities are estimated from recorded
viewport trajectories with additive smoothing.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .costs import SizeTable, grid_sizes
from .errors import InvalidInputError, open_input, open_output
from .scenario import MediaGraph, NavigationModel, csr_slots, left_sum

log = logging.getLogger(__name__)

SMOOTHING_EPS = 1e-3


@dataclass(frozen=True)
class LfGridSpec:
    rows: int
    cols: int
    sigma: float = 0.5
    p_unit: float = 1.0
    quad_samples: int = 4

    def __post_init__(self):
        if self.rows < 2 or self.cols < 2:
            raise InvalidInputError("LF grid needs rows, cols >= 2")
        if self.sigma <= 0:
            raise InvalidInputError("sigma must be positive")
        if self.quad_samples < 1:
            raise InvalidInputError("quad_samples must be >= 1")


def _grid_neighbors(rows: int, cols: int) -> tuple[tuple[int, ...], ...]:
    """8-connected adjacency on the view-area grid."""
    out = []
    for r in range(rows):
        for c in range(cols):
            nb = []
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    if dr == 0 and dc == 0:
                        continue
                    rr, cc = r + dr, c + dc
                    if 0 <= rr < rows and 0 <= cc < cols:
                        nb.append(rr * cols + cc)
            out.append(tuple(sorted(nb)))
    return tuple(out)


def _quad_nodes(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [-1/2, 1/2].

    Midpoint sampling is too coarse here: the sigma=0.5 Gaussian tails
    drift ~9% between s=4 and s=8, while Gauss-Legendre stays within 0.03%.
    """
    x, w = np.polynomial.legendre.leggauss(s)
    return 0.5 * x, 0.5 * w


def _switch_factors(sigma: float, s: int) -> dict[int, float]:
    """1-D quadrature factors of the same-tendency Gaussian.

    The squared norm of (w - v) - (v - u) separates per dimension, so the
    triple integral over unit areas is a product of 1-D integrals that
    depend only on the center displacement delta = c_w - 2 c_v + c_u,
    which is in {-2..2} for 8-connected switches.
    """
    offs, wts = _quad_nodes(s)
    a, b, c = np.meshgrid(offs, offs, offs, indexing="ij")
    wa, wb, wc = np.meshgrid(wts, wts, wts, indexing="ij")
    weight = wa * wb * wc
    jitter = c - 2.0 * b + a
    out = {}
    for delta in range(-2, 3):
        vals = np.exp(-((delta + jitter) ** 2) / (2.0 * sigma**2))
        out[delta] = float((vals * weight).sum())
    return out


def _start_factors(sigma: float, s: int) -> dict[int, float]:
    """1-D factors of the first-switch Gaussian from the start viewpoint."""
    offs, wts = _quad_nodes(s)
    out = {}
    for delta in range(-1, 2):
        vals = np.exp(-((delta + offs) ** 2) / (2.0 * sigma**2))
        out[delta] = float((vals * wts).sum())
    return out


def build_lf_scenario(
    spec: LfGridSpec,
) -> tuple[MediaGraph, NavigationModel, SizeTable]:
    rows, cols = spec.rows, spec.cols
    n = rows * cols
    neighbors = _grid_neighbors(rows, cols)
    start = (rows // 2) * cols + cols // 2
    graph = MediaGraph(n=n, neighbors=neighbors, start=start)

    fac = _switch_factors(spec.sigma, spec.quad_samples)
    fac = np.array([fac[delta] for delta in range(-2, 3)])  # fac[delta + 2]

    deg = np.array([len(nb) for nb in neighbors], dtype=np.intp)
    flat = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp)
    # the rows (k, i) in key order: k ascending, then i in N(k)
    row_k, row_i = np.repeat(np.arange(n), deg), flat
    # each row's switches (k, i, j), j in N(i) in graph order
    counts, slots = csr_slots(np.concatenate(([0], np.cumsum(deg))), row_i)
    row = np.repeat(np.arange(len(row_i)), counts)
    k, i, j = row_k[row], row_i[row], flat[slots]
    weight = (
        fac[j // cols - 2 * (i // cols) + k // cols + 2]
        * fac[j % cols - 2 * (i % cols) + k % cols + 2]
    )
    # np.bincount adds each row's weights in turn from 0.0, as left_sum does
    total = np.bincount(row, weights=weight)
    p_switch = dict(
        zip(zip(k.tolist(), i.tolist(), j.tolist()), (weight / total[row]).tolist())
    )

    sfac = _start_factors(spec.sigma, spec.quad_samples)
    sr, sc = divmod(start, cols)
    weights = []
    for j in neighbors[start]:
        jr, jc = divmod(j, cols)
        weights.append((j, sfac[jr - sr] * sfac[jc - sc]))
    total = left_sum(w for _, w in weights)
    p_start = {j: w / total for j, w in weights}

    nav = NavigationModel(p_start=p_start, p_switch=p_switch)
    sizes = grid_sizes(rows, cols, spec.p_unit)
    return graph, nav, sizes


def lifetime_defaults(anchor_view_count: int) -> tuple[float, int]:
    """(mu, t_max) from the anchor-view count: t_max = count // 3, mu half."""
    if anchor_view_count < 3:
        raise InvalidInputError("need at least 3 anchor views")
    t_max = anchor_view_count // 3
    return 0.5 * t_max, t_max


@dataclass
class TrajectoryLog:
    """Recorded viewport visits, one MDU-index sequence per session."""

    sessions: list[list[int]] = field(default_factory=list)

    def validate(self, n_viewports: int) -> list[str]:
        problems = []
        for s_idx, sess in enumerate(self.sessions):
            if len(sess) < 1:
                problems.append(f"session {s_idx} is empty")
            for v in sess:
                if not (0 <= v < n_viewports):
                    problems.append(f"session {s_idx} visits out-of-range {v}")
        if not self.sessions:
            problems.append("trajectory log holds no sessions")
        return problems

    @classmethod
    def load(cls, path) -> "TrajectoryLog":
        with open_input("trajectory log", path) as fh:
            sessions = [[int(tok) for tok in line.split()] for line in fh if line.strip()]
        return cls(sessions=sessions)

    def save(self, path) -> None:
        with open_output("trajectory log", path) as fh:
            for sess in self.sessions:
                fh.write(" ".join(str(v) for v in sess) + "\n")


def build_viewport_scenario(
    traj: TrajectoryLog, n_viewports: int
) -> tuple[MediaGraph, NavigationModel]:
    """Estimate the switch model from trajectories by transition counting.

    N(i) is the set of successors ever observed after i.  A viewport with
    no outgoing observations becomes a uniform jump to every other
    viewport (logged); self-transitions in the log are dropped (staying
    within a viewport costs nothing).
    """
    if n_viewports < 2:
        raise InvalidInputError("need at least 2 viewports")
    problems = traj.validate(n_viewports)
    if problems:
        raise InvalidInputError("; ".join(problems))

    succ: list[set[int]] = [set() for _ in range(n_viewports)]
    pair_counts: Counter = Counter()  # (k, i, j)
    first_counts: Counter = Counter()  # first viewport
    first_moves: Counter = Counter()  # (first, second)
    for sess in traj.sessions:
        steps = [v for idx, v in enumerate(sess) if idx == 0 or v != sess[idx - 1]]
        first_counts[steps[0]] += 1
        if len(steps) >= 2:
            first_moves[(steps[0], steps[1])] += 1
            succ[steps[0]].add(steps[1])
        for k, i, j in zip(steps, steps[1:], steps[2:]):
            succ[i].add(j)
            pair_counts[(k, i, j)] += 1

    for i in range(n_viewports):
        if not succ[i]:
            succ[i] = set(range(n_viewports)) - {i}
            log.warning(
                "viewport %d has no observed successors; assuming uniform "
                "switches to all %d others",
                i,
                n_viewports - 1,
            )

    neighbors = tuple(tuple(sorted(succ[i])) for i in range(n_viewports))
    start = max(first_counts.items(), key=lambda kv: (kv[1], -kv[0]))[0]
    graph = MediaGraph(n=n_viewports, neighbors=neighbors, start=start)

    p_switch: dict[tuple[int, int, int], float] = {}
    for k in range(n_viewports):
        for i in neighbors[k]:
            row = {j: pair_counts.get((k, i, j), 0) + SMOOTHING_EPS
                   for j in neighbors[i]}
            total = left_sum(row.values())
            for j, c in row.items():
                p_switch[(k, i, j)] = c / total

    s_row = {j: first_moves.get((start, j), 0) + SMOOTHING_EPS
             for j in neighbors[start]}
    total = left_sum(s_row.values())
    p_start = {j: c / total for j, c in s_row.items()}

    nav = NavigationModel(p_start=p_start, p_switch=p_switch)
    return graph, nav
