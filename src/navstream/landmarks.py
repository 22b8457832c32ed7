"""Landmark selection by recursive binary splitting with Lloyd refinement.

Cost bookkeeping follows the hub-and-spoke reading: switches inside a
partition are served by one P + M transmission predicted from the landmark,
switches across partitions route landmark-to-landmark first.  A switch whose
target IS the buffered landmark is charged nothing (the landmark is already
decoded), which is the one place the within-partition cost needs a special
case.

Every cost term reads q through one array view, `AggregateSwitchProbs.arrays`
(q's sources, targets and values in q's key order, built once per q), and
picks a partition's switches with one membership mask, `in[i] & in[j]`.
Sizes are indexed straight from `SizeTable`'s `i_size`, `m_size` and
`p_size`, a row at a time: the table checked every entry when it was built,
except the P diagonal, which may hold anything, so no term reads it (the
one submatrix that spans it, in `_phi_all`, zeroes it first).  The array code
adds its floats in the order the per-switch loops it replaced did, so every
`phi`, `delta` and `furthest_init` score, and so every split decision, is
the same float:

- a sum over switches is the last element of `np.cumsum` over them in q's
  key order;
- a sum per MDU (the inbound mass `wq`, the outbound cost in
  `furthest_init`) is `np.bincount`, which adds its entries in turn;
- phi's storage term adds the spokes in `partition.members`' iteration
  order, and `lloyd_split` builds each side's set in one fixed insertion
  order, so that order is reproducible.

`np.sum` and `np.add.reduce` add pairwise, so none of these sums uses them.
`_phi_all`, which only ranks landmark candidates, keeps its matrix-vector
product and row sums.
"""

from __future__ import annotations

import logging
import math
import time
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .costs import LandmarkGroup, SizeTable, Structure, landmark_edges
from .errors import InvalidInputError
from .scenario import AggregateSwitchProbs, MediaGraph, Scenario

logger = logging.getLogger(__name__)

# the Lloyd iteration counts of the splits of the running `tsvq` call
_LLOYD_ITERATIONS: ContextVar[list[int] | None] = ContextVar(
    "lloyd_iterations", default=None
)


# TSVQ plans the groups a Structure stores
Partition = LandmarkGroup


@dataclass
class PlannerParams:
    w: float  # storage weight, lambda / mu
    q: AggregateSwitchProbs
    max_lloyd_iters: int = 100

    def __post_init__(self):
        if not 0.0 <= self.w < math.inf:
            raise InvalidInputError("storage weight must be finite and non-negative")
        lloyd = self.max_lloyd_iters
        if not isinstance(lloyd, (int, np.integer)) or lloyd < 0:
            raise InvalidInputError(
                f"max Lloyd iterations must be a non-negative integer, got {lloyd!r}"
            )


def _inside(members, n: int) -> np.ndarray:
    """Membership mask over the n MDUs."""
    mask = np.zeros(n, dtype=bool)
    mask[list(members)] = True
    return mask


def _switches(q: AggregateSwitchProbs, src: np.ndarray, dst: np.ndarray):
    """q's switches from a `src` MDU into a `dst` MDU: sources, targets and
    probabilities, in q's key order."""
    qa = q.arrays
    sel = src[qa.i] & dst[qa.j]
    return qa.i[sel], qa.j[sel], qa.p[sel]


def _in_order_sum(values: np.ndarray) -> float:
    """The sum of adding `values` one by one in their order."""
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _hops(sizes: SizeTable, l: int, js: np.ndarray) -> np.ndarray:
    """P + M bits to reach each target in `js` from buffered landmark l;
    free where the target is l."""
    cost = np.zeros(len(js))
    far = js != l
    cost[far] = sizes.p_size[l, js[far]] + sizes.m_size[js[far]]
    return cost


def phi(partition: Partition, sizes: SizeTable, params: PlannerParams) -> float:
    """Within-partition cost of serving switches through the landmark,
    plus the weighted storage of the landmark I-MDU and its spoke P-MDUs."""
    l = partition.landmark
    inside = _inside(partition.members, sizes.n)
    _, js, ps = _switches(params.q, inside, inside)
    spokes = [i for i in partition.members if i != l]
    store = sizes.i(l) + _in_order_sum(sizes.p_size[l, spokes])
    return _in_order_sum(ps * _hops(sizes, l, js)) + params.w * store


def _phi_all(members, sizes: SizeTable, params: PlannerParams) -> np.ndarray:
    """phi over every candidate landmark in `members`, vectorized."""
    mem = np.asarray(members, dtype=np.intp)
    k = len(mem)
    inside = _inside(mem, sizes.n)
    pos = np.zeros(sizes.n, dtype=np.intp)
    pos[mem] = np.arange(k)
    # total inbound switch mass per target, within the partition
    _, js, ps = _switches(params.q, inside, inside)
    wq = np.bincount(pos[js], weights=ps, minlength=k)
    p_sub = sizes.p_size[np.ix_(mem, mem)]
    np.fill_diagonal(p_sub, 0.0)  # a landmark sends no spoke to itself
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
    in1, in2 = _inside(p1.members, sizes.n), _inside(p2.members, sizes.n)
    hop_12 = sizes.p(l1, l2) + sizes.m(l2)
    hop_21 = sizes.p(l2, l1) + sizes.m(l1)
    _, js, ps = _switches(params.q, in1, in2)
    term1 = _in_order_sum(ps * (hop_12 + _hops(sizes, l2, js)))
    _, js, ps = _switches(params.q, in2, in1)
    term2 = _in_order_sum(ps * (hop_21 + _hops(sizes, l1, js)))
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
    inside = _inside(partition.members, sizes.n)
    srcs, js, ps = _switches(params.q, inside, inside)
    out_cost = np.bincount(srcs, weights=ps * _hops(sizes, l, js), minlength=sizes.n)
    inside[l] = False
    others = np.flatnonzero(inside)
    scores = (
        out_cost[others]
        + params.w * sizes.p_size[l, others]
        - params.w * sizes.i_size[others]
    )
    return int(others[np.argmax(scores)])


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
    mem = np.array(sorted(partition.members), dtype=np.intp)

    iterations = 0
    for iterations in range(1, params.max_lloyd_iters + 1):
        rest = mem[(mem != l1) & (mem != l2)]
        # ties stay with landmark 1
        to2 = sizes.p_size[l2, rest] < sizes.p_size[l1, rest]
        # each side's set is built in the same insertion order every time,
        # so its frozenset iterates, and phi sums its spokes, the same way
        new1, new2 = {l1}, {l2}
        new1.update(rest[~to2].tolist())
        new2.update(rest[to2].tolist())
        # landmarks are pinned to their own side, so neither half can empty
        if new1 == members1 and new2 == members2:
            break
        members1, members2 = new1, new2
        l1 = _argmin_phi(sorted(members1), sizes, params)
        l2 = _argmin_phi(sorted(members2), sizes, params)
        if l1 == l2:  # defensive; landmarks live in disjoint member sets
            raise InvalidInputError("landmark update collapsed the split")
    if (counts := _LLOYD_ITERATIONS.get()) is not None:
        counts.append(iterations)
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
    start = time.perf_counter()
    members = list(range(graph.n))
    root = Partition(
        members=frozenset(members),
        landmark=_argmin_phi(members, sizes, params),
    )
    pending = deque([root])
    final: list[Partition] = []
    tried = kept = 0
    iterations: list[int] = []
    token = _LLOYD_ITERATIONS.set(iterations)
    try:
        while pending:
            part = pending.popleft()
            if len(part.members) < 2:
                final.append(part)
                continue
            # through the module global, so a rebound lloyd_split is called
            half1, half2 = lloyd_split(part, sizes, params)
            tried += 1
            split_cost = (
                phi(half1, sizes, params)
                + phi(half2, sizes, params)
                + delta(half1, half2, sizes, params)
            )
            if split_cost < phi(part, sizes, params):
                kept += 1
                pending.append(half1)
                pending.append(half2)
            else:
                final.append(part)
    finally:
        _LLOYD_ITERATIONS.reset(token)
    logger.debug(
        "tsvq: %d partitions, %d of %d Lloyd splits kept, %d Lloyd iterations "
        "in %.4f s",
        len(final), kept, tried, sum(iterations), time.perf_counter() - start,
    )
    return final


def build_initial_structure(
    partitions: list[Partition], sizes: SizeTable
) -> Structure:
    """Landmark I-MDUs and the P-edges of `landmark_edges`: spokes to every
    member, and one between every ordered pair of landmarks."""
    return Structure(
        i_set=frozenset(p.landmark for p in partitions),
        p_edges=landmark_edges(partitions),
        landmarks=tuple(partitions),
    )


def landmark_structure(
    scenario: Scenario,
    sizes: SizeTable,
    lam: float,
    max_lloyd_iters: int = PlannerParams.max_lloyd_iters,
) -> Structure:
    """The landmark structure TSVQ plans at objective weight `lam`.

    Reads q from `scenario.switch_probs`, weighs storage by w = lam / mu,
    splits with `tsvq` and stores the result with `build_initial_structure`.
    A size table that does not cover exactly the scenario's MDUs raises
    `InvalidInputError`.
    """
    if sizes.n != scenario.graph.n:
        raise InvalidInputError(
            f"size table covers {sizes.n} MDUs, the scenario has {scenario.graph.n}"
        )
    params = PlannerParams(
        w=lam / scenario.lifetime.mu,
        q=scenario.switch_probs,
        max_lloyd_iters=max_lloyd_iters,
    )
    return build_initial_structure(tsvq(scenario.graph, sizes, params), sizes)
