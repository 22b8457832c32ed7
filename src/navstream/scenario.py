"""Navigation space, user behavior model, and session lifetime model.

An MDU (media data unit) index is a plain int in [0, n).  The previous-MDU
slot of the very first switch uses the sentinel ``START`` so that the start
distribution and the one-step-memory switch probabilities share one lookup
path.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# Distinguished "previous MDU" index for the first switch of a session.
START = -1

_PROB_TOL = 1e-9


@dataclass(frozen=True)
class MediaGraph:
    """MDU set with per-MDU switch neighborhoods and a start MDU."""

    n: int
    neighbors: tuple[tuple[int, ...], ...]
    start: int

    def validate(self) -> list[str]:
        problems = []
        if self.n <= 0:
            problems.append("n must be positive")
            return problems
        if len(self.neighbors) != self.n:
            problems.append("neighbors list length != n")
        if not (0 <= self.start < self.n):
            problems.append(f"start {self.start} out of range [0, {self.n})")
        for i, nb in enumerate(self.neighbors):
            for j in nb:
                if not (0 <= j < self.n):
                    problems.append(f"neighbor {j} of MDU {i} out of range")
                elif j == i:
                    problems.append(f"MDU {i} lists itself as a neighbor")
        return problems


@dataclass(frozen=True)
class NavigationModel:
    """Start distribution and one-step-memory switch probabilities.

    p_switch is keyed (prev, cur, target); p_start is the row for the
    sentinel previous MDU at the start MDU.
    """

    p_start: dict[int, float]
    p_switch: dict[tuple[int, int, int], float]

    def prob(self, k: int, i: int, j: int) -> float:
        if k == START:
            return self.p_start.get(j, 0.0)
        return self.p_switch.get((k, i, j), 0.0)


@dataclass(frozen=True)
class LifetimeModel:
    """Truncated-Poisson number of MDU-switches per session."""

    mu: float
    t_max: int
    pmf: tuple[float, ...] = field(repr=False)  # p(T=m), m = 0..t_max
    _tail: tuple[float, ...] = field(repr=False)  # tail[t] = g(t), t = 0..t_max

    def g(self, t: int) -> float:
        """Probability of at least t MDU-switches; zero beyond t_max."""
        if t > self.t_max:
            return 0.0
        if t < 0:
            raise InvalidInputError(f"g(t) undefined for t={t}")
        return self._tail[t]


def build_lifetime_tail(mu: float, t_max: int) -> LifetimeModel:
    """Truncated Poisson tail g(t) = sum_{m=t}^{t_max} mu^m e^-mu / m!.

    Uses the running-term recurrence term_m = term_{m-1} * mu / m, so large
    mu/t_max stay finite (no explicit factorials).
    """
    if mu <= 0:
        raise InvalidInputError(f"mu must be positive, got {mu}")
    if t_max < 1 or int(t_max) != t_max:
        raise InvalidInputError(f"t_max must be a positive integer, got {t_max}")
    t_max = int(t_max)
    term = math.exp(-mu)
    pmf = [term]
    for m in range(1, t_max + 1):
        term *= mu / m
        pmf.append(term)
    tail = [0.0] * (t_max + 1)
    acc = 0.0
    for t in range(t_max, -1, -1):
        acc += pmf[t]
        tail[t] = min(acc, 1.0)
    return LifetimeModel(mu=mu, t_max=t_max, pmf=tuple(pmf), _tail=tuple(tail))


@dataclass(frozen=True)
class Scenario:
    """A complete evaluation scenario: graph + behavior + lifetime."""

    graph: MediaGraph
    nav: NavigationModel
    lifetime: LifetimeModel


def validate_navigation_model(graph: MediaGraph, nav: NavigationModel) -> list[str]:
    """Report-only check of the navigation model against its graph.

    Returns an empty list iff the start row and every reachable (k, i) row
    exist, normalize to 1 within 1e-9, and reference in-range MDUs.
    """
    report = list(graph.validate())
    n = graph.n

    s = graph.start
    start_nb = set(graph.neighbors[s]) if 0 <= s < n else set()
    for j in nav.p_start:
        if j not in start_nb:
            report.append(f"p_start names {j}, not a neighbor of start {s}")
    for j, p in nav.p_start.items():
        if not (0.0 <= p <= 1.0):
            report.append(f"p_start({j}) = {p} outside [0, 1]")
    if start_nb:
        total = sum(nav.p_start.get(j, 0.0) for j in start_nb)
        if abs(total - 1.0) > _PROB_TOL:
            report.append(f"p_start row sums to {total}, expected 1")

    # Every (k, i) with i in N(k) is reachable and needs a normalized row.
    rows: dict[tuple[int, int], float] = {}
    for (k, i, j), p in nav.p_switch.items():
        if not (0 <= k < n and 0 <= i < n and 0 <= j < n):
            report.append(f"p_switch index out of range: ({k}, {i}, {j})")
            continue
        if j not in graph.neighbors[i]:
            report.append(f"p_switch({k},{i},{j}) targets a non-neighbor of {i}")
        if not (0.0 <= p <= 1.0):
            report.append(f"p_switch({k},{i},{j}) = {p} outside [0, 1]")
        rows[(k, i)] = rows.get((k, i), 0.0) + p
    for k in range(n):
        for i in graph.neighbors[k]:
            if not graph.neighbors[i]:
                continue
            if (k, i) not in rows:
                report.append(f"missing p_switch row for (k={k}, i={i})")
            elif abs(rows[(k, i)] - 1.0) > _PROB_TOL:
                report.append(
                    f"p_switch row (k={k}, i={i}) sums to {rows[(k, i)]}, expected 1"
                )
    return report


@dataclass(frozen=True)
class AggregateSwitchProbs:
    """Aggregate probability of each switch event over an expected lifetime."""

    q: dict[tuple[int, int], float]

    def get(self, i: int, j: int) -> float:
        return self.q.get((i, j), 0.0)

    def total(self) -> float:
        return sum(self.q.values())


def aggregate_switch_probabilities(
    graph: MediaGraph, nav: NavigationModel, lifetime: LifetimeModel
) -> AggregateSwitchProbs:
    """q(i,j) = sum_{t=1}^{floor(mu)} g(t) * [v_s P^t](i,j).

    The pair-state chain (prev, cur) is propagated as a sparse vector; the
    full transition matrix is never formed.  The horizon is floor(mu),
    clamped to at least 1.
    """
    horizon = max(1, int(math.floor(lifetime.mu)))
    q: dict[tuple[int, int], float] = {}
    # v_s: mass p_start(j) on pair states (s, j).
    state = {(graph.start, j): p for j, p in nav.p_start.items() if p > 0.0}
    for t in range(1, horizon + 1):
        g_t = lifetime.g(t)
        nxt: dict[tuple[int, int], float] = {}
        for (k, i), mass in state.items():
            for j in graph.neighbors[i]:
                p = nav.p_switch.get((k, i, j), 0.0)
                if p > 0.0:
                    nxt[(i, j)] = nxt.get((i, j), 0.0) + mass * p
        state = nxt
        if g_t > 0.0:
            for pair, mass in state.items():
                q[pair] = q.get(pair, 0.0) + g_t * mass
        if not state:
            break
    return AggregateSwitchProbs(q=q)


def session_tables(scenario: Scenario):
    """Cumulative tables for drawing sessions: switch rows and lifetime.

    rows maps (prev, cur) to (targets, cumulative switch probabilities);
    pairs without outgoing mass have no row.  The lifetime CDF is the
    truncated Poisson renormalized over 0..t_max.
    """
    nav, graph = scenario.nav, scenario.graph
    rows: dict[tuple[int, int], tuple[list[int], np.ndarray]] = {}
    s = graph.start
    targets = sorted(j for j, p in nav.p_start.items() if p > 0.0)
    if targets:
        rows[(START, s)] = (targets, np.cumsum([nav.p_start[j] for j in targets]))
    for k in range(graph.n):
        for i in graph.neighbors[k]:
            targets = [j for j in graph.neighbors[i]]
            probs = [nav.p_switch.get((k, i, j), 0.0) for j in targets]
            total = sum(probs)
            if total > 0.0:
                rows[(k, i)] = (targets, np.cumsum(probs))
    pmf = np.asarray(scenario.lifetime.pmf)
    return rows, np.cumsum(pmf / pmf.sum())


# --- scenario file format ---------------------------------------------------

_SCENARIO_KEYS = {"n", "start", "neighbors", "p_start", "p_switch", "lifetime"}


def scenario_to_dict(sc: Scenario) -> dict:
    return {
        "n": sc.graph.n,
        "start": sc.graph.start,
        "neighbors": [list(nb) for nb in sc.graph.neighbors],
        "p_start": sorted([j, p] for j, p in sc.nav.p_start.items()),
        "p_switch": sorted([k, i, j, p] for (k, i, j), p in sc.nav.p_switch.items()),
        "lifetime": {"mu": sc.lifetime.mu, "t_max": sc.lifetime.t_max},
    }


def scenario_from_dict(data: dict) -> Scenario:
    if not isinstance(data, dict):
        raise InvalidInputError("scenario file must hold a JSON object")
    unknown = set(data) - _SCENARIO_KEYS
    if unknown:
        raise InvalidInputError(f"unknown scenario keys: {sorted(unknown)}")
    missing = _SCENARIO_KEYS - set(data)
    if missing:
        raise InvalidInputError(f"missing scenario keys: {sorted(missing)}")
    try:
        graph = MediaGraph(
            n=int(data["n"]),
            neighbors=tuple(tuple(int(j) for j in nb) for nb in data["neighbors"]),
            start=int(data["start"]),
        )
        nav = NavigationModel(
            p_start={int(j): float(p) for j, p in data["p_start"]},
            p_switch={
                (int(k), int(i), int(j)): float(p)
                for k, i, j, p in data["p_switch"]
            },
        )
        lt = data["lifetime"]
        lifetime = build_lifetime_tail(float(lt["mu"]), int(lt["t_max"]))
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidInputError(f"malformed scenario file: {exc}") from exc
    problems = graph.validate()
    if problems:
        raise InvalidInputError("; ".join(problems))
    return Scenario(graph=graph, nav=nav, lifetime=lifetime)


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_dict(sc), fh, indent=1)


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)
