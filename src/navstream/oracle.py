"""Independent checks of the evaluators.

Three mechanisms, deliberately not sharing the memoized recursion:
Monte-Carlo session simulation driven by an extracted policy, a plain
(table-free) recursive evaluator for tiny instances, and brute-force
enumeration of every deterministic policy on even tinier ones.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .costs import SizeTable, Structure, zero_hop_overhead
from .errors import InvalidInputError, OracleRefusalError, PolicyGapError
from .evaluate import EMPTY, CostTables, Policy
from .scenario import START, Scenario, session_tables

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
    """
    if n_sessions < 1:
        raise InvalidInputError("n_sessions must be positive")
    graph, lt = scenario.graph, scenario.lifetime
    tables = CostTables(structure, sizes, graph.n)
    r_i, r_p = tables.r_i, tables.r_p
    rows, lifetime_cdf = session_tables(scenario)
    actions = policy.actions
    flex = policy.buffer == "flex"
    rng = np.random.default_rng(seed)
    g = lt.g

    def step_cost(t: int, k: int, i: int, gam: int, j: int):
        key = (t, k, i, gam, j) if flex else (t, k, i, j)
        act = actions.get(key)
        if act is None:
            raise PolicyGapError(f"policy does not cover state {key}")
        kind = act[0]
        if kind == "0hop":
            bits = r_i[j]
            nxt = act[1] if flex else j
        elif kind == "1hop":
            bits = r_p[(act[1], j)]
            nxt = act[1] if flex else j
        elif kind == "2hop":
            mid, pred = act[1], act[2]
            bits = r_p[(pred, mid)] + r_p[(mid, j)]
            nxt = mid
        else:
            raise PolicyGapError(f"unknown action {act} at state {key}")
        return bits, nxt, act

    totals = np.empty(n_sessions)
    traces: list[SessionTrace] = []
    s = graph.start
    for idx in range(n_sessions):
        bits = r_i[s]
        path = [s]
        acts: list[tuple] = []
        k, i, gam = START, s, EMPTY
        if consistency_mode:
            t_total = lt.t_max + 1  # each switch is drawn against g below
        else:
            t_total = int(np.searchsorted(lifetime_cdf, rng.random()))
        for t in range(t_total):
            if consistency_mode and (t > 0 or policy.weight_first_switch):
                if rng.random() >= g(max(t, 1)):
                    break
            row = rows.get((k, i))
            if row is None:
                break  # chain has no outgoing mass; session ends early
            targets, cdf = row
            j = targets[int(np.searchsorted(cdf, rng.random() * cdf[-1]))]
            cost, nxt, act = step_cost(t, k, i, gam, j)
            bits += cost
            path.append(j)
            acts.append(act)
            k, i, gam = i, j, nxt
        totals[idx] = bits
        if len(traces) < TRACE_SAMPLE:
            traces.append(
                SessionTrace(
                    path=path, lifetime=len(path) - 1, actions=acts, bits=bits
                )
            )
    mean = float(totals.mean())
    stderr = float(totals.std(ddof=1) / math.sqrt(n_sessions)) if n_sessions > 1 else 0.0
    return SimResult(mean=mean, stderr=stderr, traces=traces)


# --- table-free recursive evaluator ----------------------------------------

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

    def pred(i: int, j: int) -> float:
        if (i, j) in structure.p_edges:
            return sizes.p(i, j) + sizes.m(j)
        return math.inf

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
    tables = CostTables(structure, sizes, graph.n)
    r_i, r_p, preds = tables.r_i, tables.r_p, tables.preds

    def feasible(i: int, gam: int, j: int):
        """(action, bits, next buffer) triples for one request."""
        refs = [gam, i] if (flex and gam != i) else [i]
        out = []
        for ref in refs:
            if ref == EMPTY:
                continue
            v = r_p.get((ref, j))
            if v is not None:
                out.append((("1hop", ref), v, ref if flex else j))
        if flex:
            for mid in preds[j]:
                if mid == j:
                    continue
                for ref in refs:
                    if ref == EMPTY or ref == mid:
                        continue
                    v = r_p.get((ref, mid))
                    if v is not None:
                        out.append(
                            (("2hop", mid, ref), v + r_p[(mid, j)], mid)
                        )
            for keep in refs:
                out.append((("0hop", keep), r_i[j], keep))
        else:
            out.append((("0hop",), r_i[j], j))
        return out

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
