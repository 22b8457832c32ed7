"""Navigation space, user behavior model, and session lifetime model.

An MDU (media data unit) index is a plain int in [0, n).  The previous-MDU
slot of the very first switch uses the sentinel ``START`` so that the start
distribution and the one-step-memory switch probabilities share one lookup
path.

The navigation chain is held once, as CSR arrays: `Scenario.request_index`
is built in one pass from the graph and the navigation model, and
`Scenario.pair_index` is that table without its p = 0 requests.  The fixed
and flexible DPs read the first, since they charge every request; the
forward pass `pair_masses` (q and the request weights W), the infinite
buffer and the session sampler `sample_targets` read the second, since a
session takes only requests with p > 0.  The forward pass adds each level's
masses with `np.bincount` in a fixed order (pairs in first-reached order,
each row in graph order), so q and W are reproducible bit for bit.  The
sampler draws its seeded uniforms in blocks and walks all sessions
together on arrays, reading the stream exactly as one draw per lifetime,
survival and target would, in session order.
"""

from __future__ import annotations

import json
import logging
import math
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import chain, islice, takewhile
from operator import add
from typing import NamedTuple

import numpy as np

from .errors import InvalidInputError, open_output

logger = logging.getLogger(__name__)

# Distinguished "previous MDU" index for the first switch of a session.
START = -1

_PROB_TOL = 1e-9
_SAMPLE_BLOCK = 1 << 15  # uniforms drawn at a time by `sample_targets`
_REWALK_SHARE = 4  # `sample_targets` walks every position once > 1 in 4 sessions stop early


def left_sum(values, start=0):
    """start + v0 + v1 + ..., added one by one from the left.

    This is what the builtin `sum` does on Python 3.11; from 3.12 on it adds
    floats with compensated summation, which can change the last bit, so
    every float sum that a pinned value goes through uses this instead.
    """
    return reduce(add, values, start)


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
            seen = set()
            for j in nb:
                if not (0 <= j < self.n):
                    problems.append(f"neighbor {j} of MDU {i} out of range")
                elif j == i:
                    problems.append(f"MDU {i} lists itself as a neighbor")
                elif j in seen:
                    problems.append(f"MDU {i} lists neighbour {j} twice")
                seen.add(j)
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
    """Truncated-Poisson number of MDU-switches per session.

    Four conventions weigh a session's switches, and they do not agree:
    1. the DPs (`evaluate`, `inf_buffer_cost`) and `refine.request_weights`
       weigh a request at depth t by g(1)·…·g(t), from `weights`;
       `unmemoized_eval` and `enumerate_policies` restate it with their own g;
    2. q (`Scenario.switch_probs`) weighs switch t + 1 by g(t) alone;
    3. `simulate_sessions` and `inf_buffer_estimate` draw the number of
       switches from `pmf` renormalised over 0..t_max, from `schedule`;
    4. `simulate_sessions` in consistency mode takes switch t + 1 with
       probability g(t), the DPs' products, from `schedule(True, ...)`.
    So `inf-lm`'s exact cost (1) and the estimate it falls back to (3) are
    on different scales.
    """

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

    def weights(self, weight_first_switch: bool = False) -> tuple[float, ...]:
        """The DPs' (w1, g(1), ..., g(T)), T the last t with g(t) > 0: the
        first switch weighs w1 = g(1) if `weight_first_switch` else 1.0."""
        tail = takewhile(lambda g: g > 0.0, self._tail[1:])
        return (self._tail[1] if weight_first_switch else 1.0, *tail)

    def schedule(self, consistency: bool = False, weight_first_switch: bool = False):
        """What `sample_targets` draws a session's switches from: the pmf
        renormalised over 0..t_max, as its running sums (convention 3); or
        in `consistency` mode the survival list [w, g(1), ..., g(t_max)],
        switch t + 1 taken with probability g(t) and the first with w =
        g(1) if `weight_first_switch`, else None: always (convention 4)."""
        if consistency:
            return [self._tail[1] if weight_first_switch else None, *self._tail[1:]]
        pmf = np.asarray(self.pmf)
        return np.cumsum(pmf / pmf.sum())


def build_lifetime_tail(mu: float, t_max: int) -> LifetimeModel:
    """Truncated Poisson tail g(t) = sum_{m=t}^{t_max} mu^m e^-mu / m!.

    Uses the running-term recurrence term_m = term_{m-1} * mu / m, so large
    mu/t_max stay finite (no explicit factorials).  The recurrence starts
    at e^-mu, which is subnormal for mu above about 708.4 and loses the
    pmf's mass (or all of it), so such mu raise `InvalidInputError`.
    """
    if not mu > 0:  # NaN too
        raise InvalidInputError(f"mu must be positive, got {mu}")
    if t_max < 1 or int(t_max) != t_max:
        raise InvalidInputError(f"t_max must be a positive integer, got {t_max}")
    t_max = int(t_max)
    term = math.exp(-mu)
    if term < sys.float_info.min:
        raise InvalidInputError(
            f"mu {mu} is too large: e^-mu underflows above mu = "
            f"{-math.log(sys.float_info.min):.3f}"
        )
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


class PairIndex(NamedTuple):
    """The (prev, cur) pairs of the navigation chain and their requests.

    Pair a is pairs[a] = (prev, cur[a]); its requests are the slots offsets[a]
    ..offsets[a + 1] - 1, in graph order; slot s requests target[s] with
    probability prob[s] and moves the chain to the pair succ[s] = (cur, target[s]).
    """

    pairs: tuple[tuple[int, int], ...]
    cur: np.ndarray
    offsets: np.ndarray
    succ: np.ndarray
    target: np.ndarray
    prob: np.ndarray


def csr_slots(offsets: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The slots of the rows `ids` of a table whose row a has the slots
    offsets[a]..offsets[a + 1] - 1: each row's length, and all their slots,
    row after row."""
    starts = offsets[ids]
    counts = offsets[ids + 1] - starts
    shift = np.repeat(starts - np.cumsum(counts) + counts, counts)
    return counts, np.arange(len(shift)) + shift


@dataclass(frozen=True)
class Scenario:
    """A complete evaluation scenario: graph + behavior + lifetime."""

    graph: MediaGraph
    nav: NavigationModel
    lifetime: LifetimeModel

    @cached_property
    def request_index(self) -> PairIndex:
        """Every request, p = 0 ones too, for the fixed and flexible DPs
        charge them.  Pair 0 is (START, start), then the edge pairs (k, i) by
        k and by i's place in N(k); a row lists cur's neighbours in graph
        order, and the START row reads p_start, so pairs with the same cur
        have the same row of targets."""
        nb, n = self.graph.neighbors, self.graph.n
        degree = np.fromiter(map(len, nb), dtype=np.intp, count=n)
        prev = np.concatenate([[START], np.repeat(np.arange(n), degree)])
        cur = np.array([self.graph.start, *chain.from_iterable(nb)], dtype=np.intp)
        # edge pair (i, N(i)[m]) is pair 1 + m + the degrees of MDUs below i
        counts, succ = csr_slots(np.cumsum([1, *degree]), cur)
        target = cur[succ]
        k, i = (np.repeat(x, counts).tolist() for x in (prev, cur))
        prob = np.fromiter(map(self.nav.prob, k, i, target.tolist()), float, len(k))
        pairs = tuple(zip(prev.tolist(), cur.tolist()))
        offsets = np.concatenate([[0], np.cumsum(counts)])
        return PairIndex(pairs, cur, offsets, succ, target, prob)

    @cached_property
    def pair_index(self) -> PairIndex:
        """`request_index` without its p = 0 requests, the only ones a
        session takes; the pairs and their ids are the same."""
        index = self.request_index
        kept = index.prob > 0.0
        offsets = np.concatenate([[0], np.cumsum(kept)])[index.offsets]
        return PairIndex(index.pairs, index.cur, offsets, *(x[kept] for x in index[3:]))

    @cached_property
    def switch_probs(self) -> AggregateSwitchProbs:
        """q(i,j) = sum_{t=1}^{floor(mu)} g(t) * [v_s P^t](i,j), built once.

        v_s is the first switch's pair mass, so the unweighted `pair_masses`
        levels 2..floor(mu) + 1 are weighted by g(1)..g(floor(mu)); the full
        transition matrix is never formed.  The horizon is clamped to at
        least 1, and the pass stops at the last t with g(t) > 0.  q's keys
        are in first-reached order, the order TSVQ sums q in.
        """
        start, horizon = time.perf_counter(), max(1, math.floor(self.lifetime.mu))
        weights = self.lifetime.weights()[1:horizon + 1]
        pairs = self.pair_index.pairs
        qv, seen, keys = np.zeros(len(pairs)), np.zeros(len(pairs), dtype=bool), []
        levels = pair_masses(self, [1.0] * (len(weights) + 1))
        for g_t, (order, mass, _, _) in zip(weights, islice(levels, 2, None)):
            keys += order[~seen[order]].tolist()
            seen[order] = True
            qv[order] += g_t * mass[order]
        q = dict(zip(map(pairs.__getitem__, keys), qv[keys].tolist()))
        logger.debug(
            "q: %d pairs over %d levels in %.4f s",
            len(q), len(weights) + 2, time.perf_counter() - start,
        )
        return AggregateSwitchProbs(q=q)


def validate_navigation_model(graph: MediaGraph, nav: NavigationModel) -> list[str]:
    """Report-only check of the navigation model against its graph.

    Returns an empty list iff the start row and every reachable (k, i) row
    exist, normalize to 1 within 1e-9, and reference in-range MDUs.  An
    invalid graph's own report is returned without checking the model.
    """
    report = graph.validate()
    if report:
        return report
    n = graph.n

    s = graph.start
    start_nb = set(graph.neighbors[s])
    for j in nav.p_start:
        if j not in start_nb:
            report.append(f"p_start names {j}, not a neighbor of start {s}")
    for j, p in nav.p_start.items():
        if not (0.0 <= p <= 1.0):
            report.append(f"p_start({j}) = {p} outside [0, 1]")
    if start_nb:
        total = left_sum(nav.p_start.get(j, 0.0) for j in start_nb)
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


class SwitchArrays(NamedTuple):
    """q's switches as arrays in q's key order."""

    i: np.ndarray  # source MDU of each switch
    j: np.ndarray  # target MDU
    p: np.ndarray  # aggregate probability


@dataclass(frozen=True)
class AggregateSwitchProbs:
    """Aggregate probability of each switch event over an expected lifetime."""

    q: dict[tuple[int, int], float]

    @cached_property
    def arrays(self) -> SwitchArrays:
        """q's sources, targets and values in q's key order, built once per q."""
        i, j = np.array(list(self.q), dtype=np.intp).reshape(-1, 2).T.copy()
        return SwitchArrays(i, j, np.fromiter(self.q.values(), float, len(self.q)))

    def get(self, i: int, j: int) -> float:
        return self.q.get((i, j), 0.0)

    def total(self) -> float:
        return left_sum(self.q.values())


def pair_masses(scenario: Scenario, factors):
    """Yield the levels of the navigation chain's forward pass as arrays.

    Each level is (order, mass, slots, flow): its pair ids in first-reached
    order (by their first request in the level above), every pair's mass
    by `Scenario.pair_index` id, the index slots of its followed requests
    (pairs in order, each row in graph order) and each request's flow
    mass * p.  Level 0 is pair (START, start) with mass 1.0.  Level t + 1
    gives pair (i, j) the sum of factors[t] * flow over the requests
    (k, i) -> j of level t, added in slot order by `np.bincount`, which
    starts from 0.0 and adds its entries in turn, so each sum is the float
    that adding them one by one in that order gives.  One level follows
    level 0 per factor.
    """
    index = scenario.pair_index
    order, mass = np.zeros(1, dtype=np.intp), np.zeros(len(index.pairs))
    mass[0] = 1.0
    factors = iter(factors)
    while True:
        counts, slots = csr_slots(index.offsets, order)
        flow = np.repeat(mass[order], counts) * index.prob[slots]
        yield order, mass, slots, flow
        f = next(factors, None)
        if f is None:
            return
        dst = index.succ[slots]
        mass = np.bincount(dst, weights=f * flow, minlength=len(index.pairs))
        # the next level's pairs in the order of their first request
        first = np.full(len(index.pairs), len(dst))
        np.minimum.at(first, dst, np.arange(len(dst)))
        order = np.argsort(first)[: np.count_nonzero(first < len(dst))]


def aggregate_switch_probabilities(
    graph: MediaGraph, nav: NavigationModel, lifetime: LifetimeModel
) -> AggregateSwitchProbs:
    """`Scenario.switch_probs` of a fresh `Scenario` over these models."""
    return Scenario(graph, nav, lifetime).switch_probs


def sample_targets(scenario: Scenario, n_sessions: int, seed: int, survival=None):
    """Draw `n_sessions` seeded sessions: each one's number of switches, and
    its targets in a row of an (n_sessions, longest) array, padded with 0.

    A session starts at (START, start) and draws each target from its
    pair's cumulative probabilities; it ends early at a pair with no
    outgoing mass.  Its number of switches is drawn from the lifetime pmf
    renormalised over 0..t_max, unless `survival` is given: then switch t is
    taken only if a uniform draw falls below survival[t] (None forces it),
    and a session has at most len(survival) switches.

    The sessions read one seeded stream of uniforms in turn: a lifetime
    draw, then a target draw per switch; or, with `survival`, per switch a
    survival draw (unless forced), then a target draw.  Target draw u takes
    the pair's first slot whose cumulative probability is not below u times
    the row's total, found by a bisection per switch.  The stream is drawn
    in blocks, whose unused tail starts the next one.  In a block, the
    draws of a session starting at each position are counted from its
    lifetime or survival draws alone, the starts are chained from those
    counts, and all sessions walk together.  A stop at a pair with no mass
    uses fewer draws than counted: the sessions up to the first stop are
    kept, every stop's count is corrected, and the chain is walked again
    from the stop's true end.  When more than one walked session in
    `_REWALK_SHARE` stopped, every position left in the block is first
    walked for its true count, so that chain walk is the block's last.  No
    session, or a negative seed, raises `InvalidInputError`.
    """
    if n_sessions < 1:
        raise InvalidInputError(f"n_sessions must be positive, got {n_sessions}")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    clock = time.perf_counter()
    index = scenario.pair_index
    counts = np.diff(index.offsets)
    cdf = _row_cumsum(index.prob, index.offsets)
    last = index.offsets[1:] - 1  # each row's last slot, which holds its total
    if survival is None:
        lifetime_cdf = scenario.lifetime.schedule()
        # the lifetime draw, then a target draw per switch
        target_at = np.arange(1, len(lifetime_cdf) + 1)
        steps_of = np.arange(-1, len(lifetime_cdf) + 1)

        def draws_of(u, room):
            return 1 + np.searchsorted(lifetime_cdf, u[:room])
    else:
        checked = np.array([keep is not None for keep in survival], dtype=np.intp)
        first = np.concatenate([[0], np.cumsum(checked + 1)])
        target_at = first[:-1] + checked
        steps_of = np.full(first[-1] + 1, len(survival))
        steps_of[target_at[checked > 0]] = np.flatnonzero(checked)

        def draws_of(u, room):
            # a session stops after its first survival draw that fails
            out = np.full(room, first[-1])
            for k in np.flatnonzero(checked)[::-1].tolist():
                at = first[k]
                np.putmask(out, u[at:at + room] >= survival[k], at + 1)
            return out

    def walk(u, starts, steps, targets=None):
        """The switches of the sessions that start at `starts` in `u`, each
        scheduled for `steps` switches; their targets go to the rows of
        `targets` when it is given."""
        lengths = steps.copy()
        row, pair = np.arange(len(starts)), np.zeros(len(starts), dtype=np.intp)
        for k in range(steps.max(initial=0)):
            degree = counts[pair]
            go = steps[row] > k
            lengths[row[go & (degree == 0)]] = k
            go &= degree > 0
            row, pair, degree = row[go], pair[go], degree[go]
            # bisect_left of u·total in the pair's row: the slot lies in
            # [lo, hi], and cdf[hi], the row's total, is not below u·total
            lo, hi = index.offsets[pair], last[pair]
            x = u[starts[row] + target_at[k]] * cdf[hi]
            for _ in range(int(degree.max(initial=1) - 1).bit_length()):
                mid = (lo + hi) >> 1
                below = cdf[mid] < x
                lo = np.where(below, mid + 1, lo)
                hi = np.where(below, hi, mid)
            pair = index.succ[lo]
            if targets is not None:
                targets[row, k] = index.target[lo]
        return lengths

    width = int(target_at.max(initial=-1)) + 1  # the most draws a session takes
    rng = np.random.default_rng(seed)
    lengths = np.zeros(n_sessions, dtype=np.intp)
    targets = np.zeros((n_sessions, steps_of.max()), dtype=np.intp)
    tail, drawn, repaired, rewalked = np.zeros(0), 0, 0, 0
    done = n_sessions if width == 0 or counts[0] == 0 else 0
    while done < n_sessions:
        fresh = rng.random(max(width, min(_SAMPLE_BLOCK, (n_sessions - done) * width)))
        drawn += len(fresh)
        u = np.concatenate([tail, fresh])
        room = len(u) - width + 1  # the starts whose every draw is in u
        draws = draws_of(u, room)
        at = 0
        while at < room and done < n_sessions:
            starts = _chain(draws, at, room, n_sessions - done)
            steps = steps_of[draws[starts]]
            walked = walk(u, starts, steps, targets[done:done + len(starts)])
            stopped = np.flatnonzero(walked < steps)
            # a stop leaves the rest of the session's counted draws unused
            draws[starts[stopped]] = target_at[walked[stopped]]
            kept = stopped[0] + 1 if len(stopped) else len(starts)
            lengths[done:done + kept] = walked[:kept]
            targets[done + kept:done + len(starts)] = 0  # walked from a wrong start
            done += kept
            at = starts[kept - 1] + draws[starts[kept - 1]]
            if not len(stopped):
                break
            repaired += 1
            if len(stopped) * _REWALK_SHARE > len(starts):
                # about as many repairs to come: count every position left
                rewalked += 1
                every = np.arange(at, room)
                steps = steps_of[draws[every]]
                walked = walk(u, every, steps)
                stopped = walked < steps
                draws[every[stopped]] = target_at[walked[stopped]]
        tail = u[at:]
    logger.debug(
        "sampler: %d sessions, %d switches, %d uniforms drawn, %d used, "
        "%d chains repaired after no-mass stops, %d blocks re-walked from "
        "every position, in %.4f s",
        n_sessions, lengths.sum(), drawn, drawn - len(tail), repaired, rewalked,
        time.perf_counter() - clock,
    )
    return lengths, targets[:, :lengths.max(initial=0)]


def _row_cumsum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Each CSR row's running sums, added one by one from the left as
    `itertools.accumulate` adds them: one vectorised add per column."""
    out = values.copy()
    counts = np.diff(offsets)
    order = np.argsort(-counts, kind="stable")
    firsts, longest = offsets[order], -counts[order]
    for c in range(1, counts.max(initial=0)):
        at = firsts[:np.searchsorted(longest, -c)] + c  # the rows longer than c
        out[at] += out[at - 1]
    return out


def _chain(draws: np.ndarray, at: int, room: int, limit: int) -> np.ndarray:
    """Up to `limit` session starts below `room`, the first at `at` and each
    next one `draws` after the last."""
    first, step, starts = at, draws[at:room].tolist(), []
    while at < room and len(starts) < limit:
        starts.append(at)
        at += step[at - first]
    return np.array(starts, dtype=np.intp)


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


def json_int(value) -> int:
    """`value` if it is a JSON integer; a bool, float or string raises TypeError."""
    if type(value) is not int:
        raise TypeError(f"expected an integer, got {value!r}")
    return value


def json_number(value) -> float:
    """`value` as a float if it is a JSON number; a bool or string raises TypeError."""
    if type(value) not in (int, float):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def _unique(items, what: str) -> dict:
    """The (key, value) `items` as a dict; a key listed twice raises."""
    out = {}
    for key, value in items:
        if key in out:
            raise InvalidInputError(f"repeated {what} {key}")
        out[key] = value
    return out


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
            n=json_int(data["n"]),
            neighbors=tuple(tuple(map(json_int, nb)) for nb in data["neighbors"]),
            start=json_int(data["start"]),
        )
        p_start = ((json_int(j), json_number(p)) for j, p in data["p_start"])
        p_switch = (
            ((json_int(k), json_int(i), json_int(j)), json_number(p))
            for k, i, j, p in data["p_switch"]
        )
        nav = NavigationModel(
            p_start=_unique(p_start, "p_start target"),
            p_switch=_unique(p_switch, "p_switch triple"),
        )
        lt = data["lifetime"]
        lifetime = build_lifetime_tail(json_number(lt["mu"]), json_int(lt["t_max"]))
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidInputError(f"malformed scenario file: {exc}") from exc
    problems = validate_navigation_model(graph, nav)
    if problems:
        raise InvalidInputError("; ".join(problems))
    return Scenario(graph=graph, nav=nav, lifetime=lifetime)


def write_scenario(sc: Scenario, fh) -> None:
    json.dump(scenario_to_dict(sc), fh, indent=1)


def save_scenario(sc: Scenario, path) -> None:
    with open_output("scenario", path) as fh:
        write_scenario(sc, fh)


def load_scenario(path) -> Scenario:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
        raise InvalidInputError(f"cannot read scenario {path}: {exc}") from exc
    return scenario_from_dict(data)
