"""Landmark selection by recursive binary splitting with Lloyd refinement.

Cost bookkeeping follows the hub-and-spoke reading: switches inside a
partition are served by one P + M transmission predicted from the landmark,
switches across partitions route landmark-to-landmark first.  A switch whose
target IS the buffered landmark is charged nothing (the landmark is already
decoded), which is the one place the within-partition cost needs a special
case.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .costs import LandmarkGroup, SizeTable, Structure
from .errors import InvalidInputError
from .scenario import AggregateSwitchProbs, MediaGraph


@dataclass(frozen=True)
class Partition:
    members: frozenset[int]
    landmark: int

    def __post_init__(self):
        if not self.members:
            raise InvalidInputError("partition must be non-empty")
        if self.landmark not in self.members:
            raise InvalidInputError("landmark must be a partition member")


@dataclass
class PlannerParams:
    w: float  # storage weight, lambda / mu
    q: AggregateSwitchProbs
    max_lloyd_iters: int = 100

    def __post_init__(self):
        if not 0.0 <= self.w < math.inf:
            raise InvalidInputError("storage weight must be finite and non-negative")


def _pred_cost(sizes: SizeTable, l: int, j: int) -> float:
    """P + M bits to reach j from buffered landmark l; free if j is l."""
    if j == l:
        return 0.0
    return sizes.p(l, j) + sizes.m(j)


def _within_pairs(partition: Partition, q: AggregateSwitchProbs):
    mem = partition.members
    return [((i, j), p) for (i, j), p in q.q.items() if i in mem and j in mem]


def phi(partition: Partition, sizes: SizeTable, params: PlannerParams) -> float:
    """Within-partition cost of serving switches through the landmark,
    plus the weighted storage of the landmark I-MDU and its spoke P-MDUs."""
    l = partition.landmark
    trans = sum(
        p * _pred_cost(sizes, l, j)
        for (_, j), p in _within_pairs(partition, params.q)
    )
    store = sizes.i(l) + sum(
        sizes.p(l, i) for i in partition.members if i != l
    )
    return trans + params.w * store


def _phi_all(members: list[int], sizes: SizeTable, params: PlannerParams):
    """phi over every candidate landmark in `members`, vectorized."""
    mem = np.asarray(members)
    mem_set = set(members)
    # total inbound switch mass per target, within the partition
    wq = np.zeros(len(mem))
    pos = {m: idx for idx, m in enumerate(members)}
    for (i, j), p in params.q.q.items():
        if i in mem_set and j in mem_set:
            wq[pos[j]] += p
    p_sub = sizes.p_size[np.ix_(mem, mem)].copy()
    np.fill_diagonal(p_sub, 0.0)
    reach = p_sub + sizes.m_size[mem][None, :]
    np.fill_diagonal(reach, 0.0)  # switching onto the landmark itself is free
    trans = reach @ wq
    store = sizes.i_size[mem] + p_sub.sum(axis=1)
    return trans + params.w * store


def delta(
    p1: Partition, p2: Partition, sizes: SizeTable, params: PlannerParams
) -> float:
    """Cost of cross-partition switches routed landmark-to-landmark, plus
    the weighted storage of the two inter-landmark P-MDUs."""
    if p1.members & p2.members:
        raise InvalidInputError("delta needs disjoint partitions")
    l1, l2 = p1.landmark, p2.landmark
    m1, m2 = p1.members, p2.members
    hop_12 = _pred_cost(sizes, l1, l2)
    hop_21 = _pred_cost(sizes, l2, l1)
    term1 = term2 = 0.0
    for (i, j), p in params.q.q.items():
        if i in m1 and j in m2:
            term1 += p * (hop_12 + _pred_cost(sizes, l2, j))
        elif i in m2 and j in m1:
            term2 += p * (hop_21 + _pred_cost(sizes, l1, j))
    term3 = params.w * (sizes.p(l2, l1) + sizes.p(l1, l2))
    return term1 + term2 + term3


def furthest_init(
    partition: Partition, sizes: SizeTable, params: PlannerParams
) -> int:
    """Member contributing the largest cost difference if promoted to a
    landmark of its own; ties to the lowest index."""
    if len(partition.members) < 2:
        raise InvalidInputError("furthest_init needs at least two members")
    l = partition.landmark
    mem = partition.members
    best_i, best_score = -1, -np.inf
    out_cost: dict[int, float] = {}
    for (i, j), p in params.q.q.items():
        if i in mem and j in mem:
            out_cost[i] = out_cost.get(i, 0.0) + p * _pred_cost(sizes, l, j)
    for i in sorted(mem):
        if i == l:
            continue
        score = (
            out_cost.get(i, 0.0)
            + params.w * sizes.p(l, i)
            - params.w * sizes.i(i)
        )
        if score > best_score:
            best_i, best_score = i, score
    return best_i


def lloyd_split(
    partition: Partition, sizes: SizeTable, params: PlannerParams
) -> tuple[Partition, Partition]:
    """Split one partition in two: furthest-point init, then alternate
    member re-assignment by P size and landmark re-selection by phi."""
    if len(partition.members) < 2:
        raise InvalidInputError("cannot split a singleton partition")
    l1 = partition.landmark
    l2 = furthest_init(partition, sizes, params)
    members2 = {l2}
    members1 = set(partition.members) - members2

    for _ in range(params.max_lloyd_iters):
        new1, new2 = {l1}, {l2}
        for j in sorted(partition.members):
            if j in (l1, l2):
                continue
            if sizes.p(l2, j) < sizes.p(l1, j):  # ties stay with landmark 1
                new2.add(j)
            else:
                new1.add(j)
        # landmarks are pinned to their own side, so neither half can empty
        if new1 == members1 and new2 == members2:
            break
        members1, members2 = new1, new2
        l1 = _argmin_phi(sorted(members1), sizes, params)
        l2 = _argmin_phi(sorted(members2), sizes, params)
        if l1 == l2:  # defensive; landmarks live in disjoint member sets
            raise InvalidInputError("landmark update collapsed the split")
    return (
        Partition(members=frozenset(members1), landmark=l1),
        Partition(members=frozenset(members2), landmark=l2),
    )


def _argmin_phi(members: list[int], sizes: SizeTable, params: PlannerParams) -> int:
    scores = _phi_all(members, sizes, params)
    return members[int(np.argmin(scores))]


def tsvq(
    graph: MediaGraph, sizes: SizeTable, params: PlannerParams
) -> list[Partition]:
    """Recursive partition splitting; a split is kept only when the two
    halves plus the cross-boundary cost undercut the unsplit partition.
    Candidates are processed FIFO so runs are reproducible."""
    members = list(range(graph.n))
    root = Partition(
        members=frozenset(members),
        landmark=_argmin_phi(members, sizes, params),
    )
    pending = deque([root])
    final: list[Partition] = []
    while pending:
        part = pending.popleft()
        if len(part.members) < 2:
            final.append(part)
            continue
        half1, half2 = lloyd_split(part, sizes, params)
        split_cost = (
            phi(half1, sizes, params)
            + phi(half2, sizes, params)
            + delta(half1, half2, sizes, params)
        )
        if split_cost < phi(part, sizes, params):
            pending.append(half1)
            pending.append(half2)
        else:
            final.append(part)
    return final


def build_initial_structure(
    partitions: list[Partition], sizes: SizeTable
) -> Structure:
    """Landmark I-MDUs, spoke P-MDUs to every member, and P-MDUs between
    every ordered pair of landmarks."""
    lms = [p.landmark for p in partitions]
    edges: set[tuple[int, int]] = set()
    for part in partitions:
        for j in part.members:
            if j != part.landmark:
                edges.add((part.landmark, j))
    for a in lms:
        for b in lms:
            if a != b:
                edges.add((a, b))
    return Structure(
        i_set=frozenset(lms),
        p_edges=frozenset(edges),
        landmarks=tuple(
            LandmarkGroup(landmark=p.landmark, members=p.members)
            for p in partitions
        ),
    )
