"""Independent checks of the evaluators.

Three mechanisms, deliberately not sharing the evaluators' level pass:
Monte-Carlo session simulation driven by an extracted policy, a plain
(table-free) recursive evaluator for tiny instances, and brute-force
enumeration of every deterministic policy on even tinier ones.  Only the
simulator reads the scenario's switch rows, through `sample_targets`,
which draws every session on arrays.  It reads the policy's runs over t
as arrays too: it advances all sessions one switch at a time and finds
each switch's run, the one of its context (cur[, buffered], target) that
holds its t, with one `np.searchsorted`, so no Python dict of the policy
is built.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import CostTables, SizeTable, Structure, zero_hop_overhead
from .errors import InvalidInputError, OracleRefusalError, PolicyGapError
from .evaluate import EMPTY
from .policy import Policy, fingerprint
from .scenario import START, Scenario, sample_targets

_UNMEMO_MAX_N = 8
_UNMEMO_MAX_TMAX = 5
_ENUM_MAX_N = 3
_ENUM_MAX_TMAX = 2
_ENUM_MAX_POLICIES = 2_000_000

TRACE_SAMPLE = 10


@dataclass
class SessionTrace:
    path: list[int]
    lifetime: int
    actions: list[tuple]
    bits: float


@dataclass
class SimResult:
    mean: float
    stderr: float
    traces: list[SessionTrace] = field(default_factory=list)


def _pack(rows: np.ndarray, lo, hi) -> np.ndarray:
    """Each int64 row of `rows` that lies in the ranges lo[f]..hi[f] as one
    mixed-radix integer, field f counted from lo[f], and any other row as
    -1: one to one on the rows inside, and in their lexicographic order."""
    code = rows[:, 0] - lo[0]
    for f in range(1, rows.shape[1]):  # wraps on a row outside, which is dropped
        code = code * (hi[f] - lo[f] + 1) + (rows[:, f] - lo[f])
    code[~((rows >= lo) & (rows <= hi)).all(axis=1)] = -1
    return code


def simulate_sessions(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    policy: Policy,
    n_sessions: int,
    seed: int,
    consistency_mode: bool = False,
) -> SimResult:
    """Estimate expected session bits by rolling sessions under `policy`.

    Default lifetime draw: truncated Poisson renormalized over 0..t_max.
    Consistency mode instead reproduces the evaluator's per-switch weights
    exactly: switch m+1 happens with probability g(m) given switch m did
    (first switch forced, or taken with probability g(1) when the policy
    was built with first-switch weighting).

    All sessions are drawn first, then advanced one switch at a time
    together.  The policy's runs whose context lies in this scenario's
    ranges (MDUs below n) and that start by t_max are packed as (context,
    t_first) in lexicographic order by `_pack`; a context outside those
    ranges matches nothing.  A switch at depth t finds the last run at or
    before its (context, t) with `np.searchsorted`, and takes it if the run
    is of its context and t <= t_last.  A session adds r_i[start], then
    each switch's bits in turn, as a Python loop would.  The first gap of the
    lowest-numbered session that has one raises `PolicyGapError`, naming the
    full state (t, prev, cur[, buffered], target).  Without a gap, a policy
    recorded for another structure than `structure` raises
    `InvalidInputError`; a gap is reported first, as it names the state.
    """
    graph, lt = scenario.graph, scenario.lifetime
    n, s = graph.n, graph.start
    tables = CostTables(structure, sizes, n)
    r_i = tables.r_i
    flex = policy.buffer == "flex"
    survival = lt.schedule(True, policy.weight_first_switch) if consistency_mode else None
    lengths, targets = sample_targets(scenario, n_sessions, seed, survival)

    # (t, cur[, buffered], target) ranges, and the runs in them by (context, t_first)
    lo = np.array([0, 0, *[EMPTY] * flex, 0])
    hi = np.array([lt.t_max, *[n - 1] * (2 + flex)])
    if math.prod((hi - lo + 1).tolist()) >= 2**63:
        raise InvalidInputError(f"a scenario of {n} MDUs is too large to simulate")
    run_ctx = np.repeat(_pack(policy.contexts, lo[1:], hi[1:]), np.diff(policy.offsets))
    runs = (run_ctx >= 0) & (policy.t_first <= lt.t_max)
    run_ctx, t_last, picks = run_ctx[runs], policy.t_last[runs], policy.index[runs]
    codes = run_ctx * (lt.t_max + 1) + policy.t_first[runs]
    kind = np.array([("0hop", "1hop", "2hop").index(a[0]) for a in policy.table], dtype=int)
    arg = np.array([[*a[1:], 0, 0][:2] for a in policy.table], dtype=np.int64)
    arg = arg.reshape(-1, 2)  # an empty table too

    def stored(x, y):
        """The hop bits of P-edge (x, y), +inf where none is stored."""
        x, y = (np.where((0 <= m) & (m < n), m + 1, 0) for m in (x, y))
        return tables.p_bits[x, y]

    totals = np.full(n_sessions, r_i[s])
    # the next state (t, prev, cur[, buffered], target); its key drops prev
    state = np.empty((n_sessions, len(lo) + 1), dtype=np.int64)
    state[:, 1:] = [START, s, *[EMPTY] * flex, 0]
    taken = np.zeros((min(n_sessions, TRACE_SAMPLE), targets.shape[1]), dtype=np.intp)
    gaps: dict[int, PolicyGapError] = {}
    live = np.ones(n_sessions, dtype=bool)
    for t in range(targets.shape[1]):
        at = np.flatnonzero(live & (lengths > t))
        full = state[at]
        full[:, 0], full[:, -1] = t, targets[at, t]
        ctx = _pack(full[:, 2:], lo[1:], hi[1:])
        # the last run at or before (ctx, t), if it is of ctx and holds t
        pos = np.searchsorted(codes, ctx * (lt.t_max + 1) + t, side="right") - 1
        hit = (ctx >= 0) & (pos >= 0)
        hit[hit] = (run_ctx[pos[hit]] == ctx[hit]) & (t_last[pos[hit]] >= t)
        for m in np.flatnonzero(~hit).tolist():
            gaps[at[m]] = PolicyGapError(
                f"policy does not cover state {tuple(full[m].tolist())}"
            )
        at, full, act = at[hit], full[hit], picks[pos[hit]]
        j, x, y = full[:, -1], arg[act, 0], arg[act, 1]
        # a 2-hop predicts over (y, x), then (x, j); a 1-hop over (x, j)
        to_mid = np.where(kind[act] == 2, stored(y, x), 0.0)
        to_j = np.where(kind[act] > 0, stored(x, j), r_i[j])
        for m in np.flatnonzero((to_mid == math.inf) | (to_j == math.inf)).tolist():
            edge = (y[m], x[m]) if to_mid[m] == math.inf else (x[m], j[m])
            gaps[at[m]] = PolicyGapError(
                f"policy at state {tuple(full[m].tolist())} predicts over P-edge "
                f"{tuple(map(int, edge))}, which the structure does not store"
            )
        live[list(gaps)] = False
        ok = live[at]
        totals[at[ok]] += (to_mid + to_j)[ok]
        traced = at < len(taken)
        taken[at[traced], t] = act[traced]
        state[at, 1], state[at, 2] = full[:, 2], j
        if flex:
            state[at, 3] = x
    if gaps:
        raise gaps[min(gaps)]
    simulated = fingerprint(structure)
    if policy.structure not in (None, simulated):
        was = policy.structure
        raise InvalidInputError(
            f"policy was built for the structure with I-MDUs {was['i_set']} and "
            f"P-edges {was['p_edges']}, not for the simulated one with I-MDUs "
            f"{simulated['i_set']} and P-edges {simulated['p_edges']}"
        )
    traces = [
        SessionTrace(
            path=[s, *targets[m, :lengths[m]].tolist()],
            lifetime=int(lengths[m]),
            actions=[policy.table[a] for a in taken[m, :lengths[m]].tolist()],
            bits=float(totals[m]),
        )
        for m in range(len(taken))
    ]
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(n_sessions)) if n_sessions > 1 else 0.0
    return SimResult(mean=mean, stderr=stderr, traces=traces)


# --- table-free recursive evaluator ----------------------------------------

def _stored_hop(structure: Structure, sizes: SizeTable):
    """P_j(i) + M_j for a stored P-edge (i, j), +inf for any other pair."""
    edges = structure.p_edges
    return lambda i, j: sizes.p(i, j) + sizes.m(j) if (i, j) in edges else math.inf


def unmemoized_eval(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    buffer: str,
    weight_first_switch: bool = False,
) -> float:
    """Plain recursive restatement of the expected-cost recursion.

    No memoization on purpose: the exponential tree is the point, so the
    instance guard is strict.
    """
    graph, nav, lt = scenario.graph, scenario.nav, scenario.lifetime
    if graph.n > _UNMEMO_MAX_N or lt.t_max > _UNMEMO_MAX_TMAX:
        raise OracleRefusalError(
            f"unmemoized evaluation refused: n={graph.n} (max {_UNMEMO_MAX_N}), "
            f"t_max={lt.t_max} (max {_UNMEMO_MAX_TMAX})"
        )
    if buffer not in ("fixed", "flex"):
        raise InvalidInputError(f"unknown buffer model {buffer!r}")

    def indep(j: int) -> float:
        return zero_hop_overhead(structure, sizes, j)

    pred = _stored_hop(structure, sizes)

    def fixed_cost(t: int, k: int, i: int) -> float:
        g_next = lt.g(t + 1)
        total = 0.0
        for j in graph.neighbors[i]:
            tail = g_next * fixed_cost(t + 1, i, j) if g_next > 0.0 else 0.0
            total += nav.prob(k, i, j) * min(indep(j) + tail, pred(i, j) + tail)
        return total

    def flex_cost(t: int, k: int, i: int, gam: int) -> float:
        g_next = lt.g(t + 1)
        total = 0.0
        for j in graph.neighbors[i]:
            refs = {gam, i} - {EMPTY}
            tails: dict[int, float] = {}

            def tail(nxt: int) -> float:
                if g_next <= 0.0:
                    return 0.0
                if nxt not in tails:
                    tails[nxt] = g_next * flex_cost(t + 1, i, j, nxt)
                return tails[nxt]

            options = [indep(j) + tail(keep) for keep in refs | {gam}]
            for ref in refs:
                one = pred(ref, j)
                if one < math.inf:
                    options.append(one + tail(ref))
                for mid in range(graph.n):
                    if mid in (ref, j):
                        continue
                    two = pred(ref, mid) + pred(mid, j)
                    if two < math.inf:
                        options.append(two + tail(mid))
            total += nav.prob(k, i, j) * min(options)
        return total

    s = graph.start
    w1 = lt.g(1) if weight_first_switch else 1.0
    if buffer == "fixed":
        return indep(s) + w1 * fixed_cost(0, START, s)
    return indep(s) + w1 * flex_cost(0, START, s, EMPTY)


# --- exhaustive policy enumeration ------------------------------------------

def enumerate_policies(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    buffer: str,
    weight_first_switch: bool = False,
) -> float:
    """Minimum expected cost over every deterministic action assignment.

    Decision slots are discovered by closure over all feasible successor
    states, then itertools.product enumerates one action per slot.
    """
    graph, nav, lt = scenario.graph, scenario.nav, scenario.lifetime
    if graph.n > _ENUM_MAX_N or lt.t_max > _ENUM_MAX_TMAX:
        raise OracleRefusalError(
            f"policy enumeration refused: n={graph.n} (max {_ENUM_MAX_N}), "
            f"t_max={lt.t_max} (max {_ENUM_MAX_TMAX})"
        )
    if buffer not in ("fixed", "flex"):
        raise InvalidInputError(f"unknown buffer model {buffer!r}")
    flex = buffer == "flex"
    r_i = CostTables(structure, sizes, graph.n).r_i.tolist()
    hop = _stored_hop(structure, sizes)

    def feasible(i: int, gam: int, j: int):
        """(action, bits, next buffer) triples for one request."""
        keeps = [gam, i] if (flex and gam != i) else [i]
        refs = [ref for ref in keeps if ref != EMPTY]
        out = [(("1hop", ref), hop(ref, j), ref if flex else j) for ref in refs]
        if flex:
            out += [
                (("2hop", mid, ref), hop(ref, mid) + hop(mid, j), mid)
                for mid in range(graph.n) for ref in refs if ref != mid
            ]
            out += [(("0hop", keep), r_i[j], keep) for keep in keeps]
        else:
            out.append((("0hop",), r_i[j], j))
        return [opt for opt in out if opt[1] < math.inf]

    # closure over reachable (t, k, i, buffer) under any action choice
    slots: dict[tuple, list] = {}
    seen: set[tuple] = set()
    stack = [(0, START, graph.start, EMPTY if flex else graph.start)]
    while stack:
        t, k, i, gam = stack.pop()
        if (t, k, i, gam) in seen:
            continue
        seen.add((t, k, i, gam))
        if lt.g(t) <= 0.0 and t > 0:
            continue
        for j in graph.neighbors[i]:
            if nav.prob(k, i, j) <= 0.0:
                continue
            key = (t, k, i, gam, j)
            opts = feasible(i, gam, j)
            slots[key] = opts
            if lt.g(t + 1) > 0.0:
                for _, _, nxt in opts:
                    stack.append((t + 1, i, j, nxt))

    n_policies = 1
    for opts in slots.values():
        n_policies *= len(opts)
        if n_policies > _ENUM_MAX_POLICIES:
            raise OracleRefusalError(
                f"policy enumeration refused: more than {_ENUM_MAX_POLICIES} "
                "deterministic policies"
            )

    keys = sorted(slots)
    s = graph.start
    w1 = lt.g(1) if weight_first_switch else 1.0
    best = math.inf
    for combo in itertools.product(*(slots[key] for key in keys)):
        choice = dict(zip(keys, combo))
        memo: dict[tuple, float] = {}

        def value(t: int, k: int, i: int, gam: int) -> float:
            state = (t, k, i, gam)
            if state in memo:
                return memo[state]
            g_next = lt.g(t + 1)
            total = 0.0
            for j in graph.neighbors[i]:
                p = nav.prob(k, i, j)
                if p <= 0.0:
                    continue
                _, bits, nxt = choice[(t, k, i, gam, j)]
                cont = g_next * value(t + 1, i, j, nxt) if g_next > 0.0 else 0.0
                total += p * (bits + cont)
            memo[state] = total
            return total

        cand = r_i[s] + w1 * value(0, START, s, EMPTY if flex else s)
        if cand < best:
            best = cand
    return best
