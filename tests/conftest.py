"""Shared builders for randomized scenarios, sizes, and structures."""

from __future__ import annotations

import numpy as np

from navstream.costs import SizeTable, Structure, uniform_sizes
from navstream.scenario import (
    MediaGraph,
    NavigationModel,
    Scenario,
    build_lifetime_tail,
)


def random_sizes(rng: np.random.Generator, n: int) -> SizeTable:
    i_size = rng.uniform(8.0, 14.0, n)
    m_size = rng.uniform(2.0, 5.0, n)
    p = rng.uniform(0.3, 3.0, (n, n))
    np.fill_diagonal(p, np.nan)
    return SizeTable(i_size, m_size, p)


def pingpong_scenario(mu: float = 1.0, t_max: int = 1) -> Scenario:
    """Two MDUs bouncing deterministically 0 -> 1 -> 0 -> ..."""
    graph = MediaGraph(n=2, neighbors=((1,), (0,)), start=0)
    nav = NavigationModel(
        p_start={1: 1.0},
        p_switch={(0, 1, 0): 1.0, (1, 0, 1): 1.0},
    )
    return Scenario(graph=graph, nav=nav, lifetime=build_lifetime_tail(mu, t_max))


def pingpong_sizes() -> SizeTable:
    """I = 11, M = 3.5, P = 1 so a one-hop transmission costs 4.5 bits."""
    return uniform_sizes(2)


def random_scenario(
    rng: np.random.Generator,
    n: int,
    t_max: int,
    mu: float | None = None,
    max_deg: int = 3,
) -> Scenario:
    """Random graph with normalized rows for every (prev, cur) pair."""
    neighbors = []
    for i in range(n):
        others = [j for j in range(n) if j != i]
        deg = int(rng.integers(1, min(max_deg, len(others)) + 1)) if others else 0
        picked = rng.choice(others, deg, replace=False)
        neighbors.append(tuple(sorted(int(j) for j in picked)))
    neighbors = tuple(neighbors)
    start = int(rng.integers(n))

    def row(targets):
        w = rng.uniform(0.1, 1.0, len(targets))
        w = w / w.sum()
        return dict(zip(targets, w.tolist()))

    p_start = row(neighbors[start]) if neighbors[start] else {}
    p_switch = {}
    for k in range(n):
        for i in neighbors[k]:
            for j, p in row(neighbors[i]).items():
                p_switch[(k, i, j)] = p
    graph = MediaGraph(n=n, neighbors=neighbors, start=start)
    nav = NavigationModel(p_start=p_start, p_switch=p_switch)
    lifetime = build_lifetime_tail(mu if mu is not None else 0.7 * t_max, t_max)
    return Scenario(graph=graph, nav=nav, lifetime=lifetime)


def random_structure(
    rng: np.random.Generator, n: int, edge_prob: float = 0.3
) -> Structure:
    """Random feasible structure: every MDU gets an independent route."""
    i_set = {j for j in range(n) if rng.random() < 0.7}
    if not i_set:
        i_set = {int(rng.integers(n))}
    edges = set()
    pool = sorted(i_set)
    for j in range(n):
        if j not in i_set:
            choices = [l for l in pool if l != j]
            edges.add((int(rng.choice(choices)), j))
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < edge_prob:
                edges.add((i, j))
    return Structure(i_set=frozenset(i_set), p_edges=frozenset(edges))
