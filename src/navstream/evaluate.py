"""Expected transmission cost of a structure via memoized dynamic programming.

States are keyed (t, prev, cur) for the fixed one-MDU buffer and
(t, prev, cur, buffered) for the flexible one-MDU buffer.  The previous MDU
at t = 0 is the START sentinel; the flexible buffer starts EMPTY.

Per-request actions recorded in the policy:
  ("0hop",)                fixed-buffer independent reconstruction
  ("1hop", pred)           fixed-buffer P + M from the displayed MDU
  ("0hop", keep)           flexible: independent reconstruction, then keep
                           `keep` in the buffer
  ("1hop", pred)           flexible: predict from `pred`; `pred` becomes the
                           buffer content
  ("2hop", mid, pred)      flexible: route through intermediate `mid`
                           predicted from `pred`; `mid` becomes the buffer

Tie-breaking is deterministic: fixed prefers 1-hop over 0-hop; flexible
prefers 1-hop, then 2-hop, then 0-hop, then the lowest candidate indices.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .costs import SizeTable, Structure
from .errors import InfeasibleStructureError, InvalidInputError
from .scenario import START, Scenario

EMPTY = -2  # flexible-buffer sentinel for "nothing buffered yet"

_RANK_1HOP = 0
_RANK_2HOP = 1
_RANK_0HOP = 2


@dataclass
class Policy:
    """Deterministic per-request action table extracted from a DP run."""

    buffer: str  # "fixed" or "flex"
    weight_first_switch: bool
    actions: dict[tuple, tuple] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "buffer": self.buffer,
            "weight_first_switch": self.weight_first_switch,
            "actions": {
                ",".join(str(x) for x in key): list(act)
                for key, act in sorted(self.actions.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Policy":
        try:
            actions = {}
            for key, act in data["actions"].items():
                parts = key.split(",")
                actions[tuple(int(x) for x in parts)] = (
                    (act[0], *(int(x) for x in act[1:]))
                )
            return cls(
                buffer=data["buffer"],
                weight_first_switch=bool(data["weight_first_switch"]),
                actions=actions,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed policy: {exc}") from exc

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=1)

    @classmethod
    def load(cls, path) -> "Policy":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidInputError(f"cannot read policy {path}: {exc}") from exc


@dataclass
class EvalResult:
    expected_cost: float
    policy: Policy
    dp_stats: dict


class CostTables:
    """Per-(structure, sizes) lookup tables shared by evaluators.

    r_i holds the same values as zero_hop_overhead for every target but is
    built in O(|i_set| + |p_edges|) — this constructor sits on the hot
    path of the refiner's candidate scans.
    """

    def __init__(self, structure: Structure, sizes: SizeTable, n: int):
        self.structure = structure
        self.sizes = sizes
        r_i = [math.inf] * n
        for j in structure.i_set:
            r_i[j] = sizes.i(j)
        for (l, j) in structure.p_edges:
            if l in structure.i_set:
                combo = sizes.i(l) + sizes.p(l, j) + sizes.m(j)
                if combo < r_i[j]:
                    r_i[j] = combo
        bad = [j for j in range(n) if math.isinf(r_i[j])]
        if bad:
            raise InfeasibleStructureError(
                f"MDU {bad[0]} has no independent reconstruction"
            )
        self.r_i = r_i
        self.r_p = {
            (i, j): sizes.p(i, j) + sizes.m(j) for (i, j) in structure.p_edges
        }
        self.preds = [[] for _ in range(n)]  # stored predictors of each target
        for (i, j) in sorted(structure.p_edges):
            self.preds[j].append(i)


def eval_fixed(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
) -> EvalResult:
    """Expected session cost under the fixed one-MDU reference buffer."""
    graph, nav, lt = scenario.graph, scenario.nav, scenario.lifetime
    tables = CostTables(structure, sizes, graph.n)
    r_i, r_p = tables.r_i, tables.r_p
    neighbors = graph.neighbors
    prob = nav.prob
    g = lt.g

    memo: dict[tuple, float] = {}
    policy = Policy(buffer="fixed", weight_first_switch=weight_first_switch)
    actions = policy.actions

    def cost(t: int, k: int, i: int) -> float:
        key = (t, k, i)
        hit = memo.get(key)
        if hit is not None:
            return hit
        g_next = g(t + 1)
        total = 0.0
        for j in neighbors[i]:
            cont = g_next * cost(t + 1, i, j) if g_next > 0.0 else 0.0
            h0 = r_i[j] + cont
            h1 = r_p.get((i, j), math.inf) + cont
            if h1 <= h0:  # ties prefer 1-hop
                actions[(t, k, i, j)] = ("1hop", i)
                total += prob(k, i, j) * h1
            else:
                actions[(t, k, i, j)] = ("0hop",)
                total += prob(k, i, j) * h0
        memo[key] = total
        return total

    first = cost(0, START, graph.start)
    w1 = g(1) if weight_first_switch else 1.0
    expected = r_i[graph.start] + w1 * first
    stats = {"states": len(memo), "actions": len(actions)}
    return EvalResult(expected_cost=expected, policy=policy, dp_stats=stats)


def eval_flexible(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
) -> EvalResult:
    """Expected session cost under the flexible one-MDU reference buffer."""
    graph, nav, lt = scenario.graph, scenario.nav, scenario.lifetime
    tables = CostTables(structure, sizes, graph.n)
    r_i, r_p, preds = tables.r_i, tables.r_p, tables.preds
    neighbors = graph.neighbors
    prob = nav.prob
    g = lt.g
    inf = math.inf

    memo: dict[tuple, float] = {}
    policy = Policy(buffer="flex", weight_first_switch=weight_first_switch)
    actions = policy.actions

    def cost(t: int, k: int, i: int, gam: int) -> float:
        key = (t, k, i, gam)
        hit = memo.get(key)
        if hit is not None:
            return hit
        g_next = g(t + 1)
        total = 0.0
        for j in neighbors[i]:
            cont_cache: dict[int, float] = {}

            def cont(nxt_gam: int) -> float:
                if g_next <= 0.0:
                    return 0.0
                c = cont_cache.get(nxt_gam)
                if c is None:
                    c = g_next * cost(t + 1, i, j, nxt_gam)
                    cont_cache[nxt_gam] = c
                return c

            refs = (gam, i) if gam != i else (i,)
            # best = (cost, rank, index tuple, action)
            best = None
            for ref in refs:
                if ref == EMPTY:
                    continue
                v = r_p.get((ref, j))
                if v is None:
                    continue
                cand = (v + cont(ref), _RANK_1HOP, (ref,), ("1hop", ref))
                if best is None or cand[:3] < best[:3]:
                    best = cand
            for mid in preds[j]:
                hop1 = inf
                hop1_ref = -1
                for ref in refs:
                    if ref == EMPTY or ref == mid:
                        continue
                    v = r_p.get((ref, mid))
                    if v is not None and v < hop1:
                        hop1 = v
                        hop1_ref = ref
                if hop1_ref < 0 or mid == j:
                    continue
                cand = (
                    hop1 + r_p[(mid, j)] + cont(mid),
                    _RANK_2HOP,
                    (mid, hop1_ref),
                    ("2hop", mid, hop1_ref),
                )
                if best is None or cand[:3] < best[:3]:
                    best = cand
            for keep in refs:
                cand = (r_i[j] + cont(keep), _RANK_0HOP, (keep,), ("0hop", keep))
                if best is None or cand[:3] < best[:3]:
                    best = cand
            actions[(t, k, i, gam, j)] = best[3]
            total += prob(k, i, j) * best[0]
        memo[key] = total
        return total

    first = cost(0, START, graph.start, EMPTY)
    w1 = g(1) if weight_first_switch else 1.0
    expected = r_i[graph.start] + w1 * first
    stats = {"states": len(memo), "actions": len(actions)}
    return EvalResult(expected_cost=expected, policy=policy, dp_stats=stats)


def evaluate(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    buffer: str,
    weight_first_switch: bool = False,
) -> EvalResult:
    if buffer == "fixed":
        return eval_fixed(scenario, sizes, structure, weight_first_switch)
    if buffer == "flex":
        return eval_flexible(scenario, sizes, structure, weight_first_switch)
    raise InvalidInputError(f"unknown buffer model {buffer!r}")
