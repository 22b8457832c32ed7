"""Expected transmission cost of a structure by a level-synchronous DP.

One core, `_level_pass`, values the fixed and flexible one-MDU buffers;
each buffer model only lists a request's options.  (The infinite buffer has
its own pass over mask arrays in `baselines`.)  A state is (prev, cur,
buffer) at switch depth t: the fixed buffer holds the displayed MDU, the
flexible one starts EMPTY, and the previous MDU at t = 0 is the START
sentinel.  Policy keys are (t, prev, cur, target) for the fixed buffer and
(t, prev, cur, buffered, target) for the flexible one.

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
prefers 1-hop, then 2-hop, then 0-hop, then the lowest candidate indices,
except that a 2-hop's first hop prefers the buffered MDU to the displayed one.

A policy file (version 2) is one JSON object
  {"version": 2, "buffer", "weight_first_switch", "actions", "keys", "index"}
where `actions` lists each distinct action once in first-seen order, `keys`
is every key's integers flattened in the DP's insertion order (width 4 for
the fixed buffer, 5 for the flexible one), and `index[n]` is the position in
`actions` of key n's action.  It is written and read by json's C codec with
no per-key Python loop.  Version-1 files (no `version`, `actions` an object
keyed "t,k,...,j") still load.  Loading rejects, with `InvalidInputError`,
an unknown buffer, a non-boolean `weight_first_switch`, an action the buffer
model cannot take, keys of the wrong width and out-of-range indices.
"""

from __future__ import annotations

import functools
import json
import logging
import math
from dataclasses import dataclass, field
from itertools import chain

from .costs import CostTables, SizeTable, Structure
from .errors import InvalidInputError, open_output
from .scenario import START, Scenario

logger = logging.getLogger(__name__)

EMPTY = -2  # flexible-buffer sentinel for "nothing buffered yet"


# Per buffer model: the key width, and the (kind, length) of each action.
_KEY_WIDTH = {"fixed": 4, "flex": 5}
_ACTION_SHAPES = {
    "fixed": {("0hop", 1), ("1hop", 2)},
    "flex": {("0hop", 2), ("1hop", 2), ("2hop", 3)},
}


def _malformed(why: str) -> InvalidInputError:
    return InvalidInputError(f"malformed policy: {why}")


def _checked_action(act, buffer: str) -> tuple:
    """`act` as a tuple if it is an action of the `buffer` model, else raise."""
    if (
        isinstance(act, (list, tuple))
        and act
        and (act[0], len(act)) in _ACTION_SHAPES[buffer]
        and all(type(x) is int for x in act[1:])
    ):
        return tuple(act)
    raise _malformed(f"{act!r} is not a {buffer}-buffer action")


def _v1_layout(actions, width: int) -> tuple[list, list, list]:
    """A version-1 {"t,k,...,j": action} dict as version-2 (actions, keys, index)."""
    if not isinstance(actions, dict):
        raise _malformed("version-1 actions must be an object")
    keys, acts = [], []
    for key, act in actions.items():
        parts = key.split(",")
        if len(parts) != width:
            raise _malformed(f"key {key!r} does not have {width} fields")
        keys += map(int, parts)
        acts.append(tuple(act))
    table = list(dict.fromkeys(acts))
    pos = {act: n for n, act in enumerate(table)}
    return table, keys, [pos[act] for act in acts]


@dataclass
class Policy:
    """Deterministic per-request action table extracted from a DP run.

    `save` and `load` use the version-2 file of the module docstring; a
    reloaded table is `==` to the saved one and in the same order.
    """

    buffer: str  # "fixed" or "flex"
    weight_first_switch: bool
    actions: dict[tuple, tuple] = field(default_factory=dict)

    def to_dict(self) -> dict:
        table = dict.fromkeys(self.actions.values())
        pos = {act: n for n, act in enumerate(table)}
        return {
            "version": 2,
            "buffer": self.buffer,
            "weight_first_switch": self.weight_first_switch,
            "actions": list(table),
            "keys": list(chain.from_iterable(self.actions)),
            "index": list(map(pos.__getitem__, self.actions.values())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Policy":
        """Read either file version; raise `InvalidInputError` if it is malformed."""
        try:
            buffer, wfs = data["buffer"], data["weight_first_switch"]
            if buffer not in _KEY_WIDTH:
                raise _malformed(f"unknown buffer model {buffer!r}")
            if type(wfs) is not bool:
                raise _malformed(f"weight_first_switch {wfs!r} is not a boolean")
            width = _KEY_WIDTH[buffer]
            version = data.get("version")
            if version is None:
                table, keys, index = _v1_layout(data["actions"], width)
            elif type(version) is int and version == 2:
                table, keys, index = data["actions"], data["keys"], data["index"]
            else:
                raise _malformed(f"unsupported version {version!r}")
            if not all(isinstance(x, list) for x in (table, keys, index)):
                raise _malformed("actions, keys and index must be lists")
            table = [_checked_action(act, buffer) for act in table]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise _malformed(str(exc)) from exc
        if not set(map(type, keys)) <= {int} or not set(map(type, index)) <= {int}:
            raise _malformed("keys and index must hold integers")
        if len(keys) != width * len(index):
            raise _malformed(
                f"{len(keys)} key fields for {len(index)} keys of width {width}"
            )
        if index and not (0 <= min(index) and max(index) < len(table)):
            raise _malformed(f"an action index is outside [0, {len(table)})")
        actions = dict(zip(zip(*[iter(keys)] * width), map(table.__getitem__, index)))
        return cls(buffer=buffer, weight_first_switch=wfs, actions=actions)

    def save(self, path) -> None:
        # json.dumps without indent runs the C encoder; json.dump never does
        text = json.dumps(self.to_dict(), separators=(",", ":"))
        with open_output("policy", path) as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "Policy":
        try:
            with open(path, encoding="utf-8") as fh:
                return cls.from_dict(json.load(fh))
        except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8
            raise InvalidInputError(f"cannot read policy {path}: {exc}") from exc


@dataclass
class EvalResult:
    expected_cost: float
    policy: Policy
    dp_stats: dict


def _level_pass(
    scenario: Scenario,
    root,
    options,
    actions: dict,
    log: logging.Logger,
    name: str,
) -> tuple[dict, int]:
    """Value every state reachable from `root`, level by level, with no recursion.

    A state is (prev, cur, buffer).  `options(cur, buffer, target)` lists a
    request's options in tie order as (immediate bits, next buffer, action);
    an option leads to the state (cur, target, next buffer) one level down.
    A forward pass collects each level's states (t = 0 up to the last t with
    g(t) > 0), following every option of every request in `Scenario.rows`,
    and logs its size at DEBUG as `name`.  Options and rows read neither t
    nor prev, so once a level is the same set as the one above it, every
    later level is that set too and is not built again.  A backward pass
    then values the states from the last level down.  A request takes the
    first minimum of imm + g(t+1)·V(next), or just imm once g(t+1) = 0,
    computed once per (t, cur, buffer, target): only p(prev, cur, target)
    reads prev.  Each request's action goes into `actions` under (t, prev,
    cur, buffer, target).  Returns the level-0 values and the number of
    states.
    """
    g, rows = scenario.lifetime.g, scenario.rows
    levels, count, fixed = [{root}], 1, False
    log.debug("%s level 0: 1 states", name)
    while g(len(levels)) > 0.0:
        nxt: set = levels[-1]
        if not fixed:
            nxt = {
                (i, j, b)
                for k, i, buf in levels[-1]
                for j, _ in rows[(k, i)]
                for _, b, _ in options(i, buf, j)
            }
            fixed = nxt == levels[-1]
        levels.append(nxt)
        count += len(nxt)
        log.debug("%s level %d: %d states", name, len(levels) - 1, len(nxt))

    values: dict[tuple, float] = {}
    for t in range(len(levels) - 1, -1, -1):
        g_next, cur, picks = g(t + 1), {}, {}
        for k, i, buf in levels[t]:
            total = 0.0
            for j, p in rows[(k, i)]:
                pick = picks.get((i, buf, j))
                if pick is None:
                    best = None
                    for imm, b, act in options(i, buf, j):
                        v = imm + g_next * values[(i, j, b)] if g_next > 0.0 else imm
                        if best is None or v < best:
                            best, best_act = v, act
                    pick = picks[(i, buf, j)] = (best, best_act)
                total += p * pick[0]
                actions[(t, k, i, buf, j)] = pick[1]
            cur[(k, i, buf)] = total
        values = cur
    return values, count


def _result(scenario, tables, root, policy, values, count) -> EvalResult:
    """r_i[start] plus the (optionally g(1)-weighted) value of the root state."""
    w1 = scenario.lifetime.g(1) if policy.weight_first_switch else 1.0
    expected = tables.r_i[scenario.graph.start] + w1 * values[root]
    stats = {"states": count, "actions": len(policy.actions)}
    return EvalResult(expected_cost=expected, policy=policy, dp_stats=stats)


def eval_fixed(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
) -> EvalResult:
    """Expected session cost under the fixed one-MDU reference buffer."""
    tables = CostTables(structure, sizes, scenario.graph.n)
    r_i, r_p = tables.r_i, tables.r_p
    zero_hop = ("0hop",)

    @functools.cache  # options depend on neither t nor prev
    def options(i, _buf, j):
        # the displayed MDU is the reference; either way j is displayed next
        v = r_p.get((i, j))
        if v is None:
            return [(r_i[j], j, zero_hop)]
        return [(v, j, ("1hop", i)), (r_i[j], j, zero_hop)]

    s = scenario.graph.start
    root = (START, s, s)
    found: dict[tuple, tuple] = {}
    values, count = _level_pass(
        scenario, root, options, found, logger, "fixed-buffer",
    )
    policy = Policy(
        buffer="fixed",
        weight_first_switch=weight_first_switch,
        actions={(t, k, i, j): a for (t, k, i, _, j), a in found.items()},
    )
    return _result(scenario, tables, root, policy, values, count)


def eval_flexible(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
) -> EvalResult:
    """Expected session cost under the flexible one-MDU reference buffer."""
    tables = CostTables(structure, sizes, scenario.graph.n)
    r_i, r_p, preds = tables.r_i, tables.r_p, tables.preds

    @functools.cache  # options depend on neither t nor prev
    def options(i, gam, j):
        # 1-hops and 0-hops go by ascending reference (EMPTY, first, predicts
        # nothing); a 2-hop's first hop is the first cheapest in `scan` order
        if gam == i or gam == EMPTY:
            scan = (i,)
            keeps = (i,) if gam == i else (EMPTY, i)
        else:
            scan = (gam, i)
            keeps = (gam, i) if gam < i else (i, gam)
        opts = [
            (v, ref, ("1hop", ref))
            for ref in keeps
            if (v := r_p.get((ref, j))) is not None
        ]
        for mid in preds[j]:
            hop1, hop1_ref = math.inf, -1
            for ref in scan:
                if ref != mid and (v := r_p.get((ref, mid))) is not None and v < hop1:
                    hop1, hop1_ref = v, ref
            if hop1_ref >= 0:
                opts.append((hop1 + r_p[(mid, j)], mid, ("2hop", mid, hop1_ref)))
        opts += [(r_i[j], keep, ("0hop", keep)) for keep in keeps]
        return opts

    root = (START, scenario.graph.start, EMPTY)
    policy = Policy(buffer="flex", weight_first_switch=weight_first_switch)
    values, count = _level_pass(
        scenario, root, options, policy.actions, logger, "flexible-buffer",
    )
    return _result(scenario, tables, root, policy, values, count)


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
