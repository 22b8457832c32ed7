"""The server policy: a DP's picks as runs over t, and its file.

Every prev picks the same action, so a policy is keyed by (t, cur,
target), or (t, cur, buffered, target) for the flexible buffer.  A
`Policy` holds the keys as runs over t, since a pick seldom depends on t:
each run is one context (cur[, buffered], target) with an inclusive range
t_first..t_last over which it is listed with one action.  A t at which the
context is not listed, or picks another action, starts a new run, so the
runs hold exactly the DP's keys.  `Policy.actions` is a read-only mapping
over the keys whose length is summed from the runs and which builds its
dict only when first read.  `navstream.evaluate` builds a policy from its
DP's picks and records the structure's `fingerprint` and its cost, and
`oracle.simulate_sessions` refuses a policy recorded for another structure.

A policy file (version 4) is one JSON object {"version": 4, "buffer",
"weight_first_switch", "structure", "expected_cost", "actions", "keys",
"offsets", "t_first", "t_last", "index"}: `structure` is {"i_set",
"p_edges"}, sorted, or null; `actions` lists each distinct action once,
first seen first; `keys` holds the contexts' integers flattened, sorted and
distinct (width 2 fixed, 3 flexible); context c's runs are offsets[c] to
offsets[c + 1] - 1, in rising and disjoint t ranges; and run r picks
`actions[index[r]]` at each t from t_first[r] to t_last[r].  json's C codec
writes and reads it with no per-run Python loop, and loading it sorts
nothing.  Version-3 files (every key (t, cur[, buffered], target) flattened,
with its index), version-2 files (keys with prev, and no structure or cost)
and version-1 files (no `version`, `actions` keyed "t,k,...,j") load
through one conversion to runs, which drops prev once every copy of a key
has the same action.  Loading rejects, with `InvalidInputError`, an unknown
buffer, a non-boolean `weight_first_switch`, an action the buffer cannot
take, fields of the wrong length, out-of-range indices, a key listed twice
or with two actions, a negative t, contexts out of order, runs that are
empty, overlap or are out of order, and a malformed structure or cost.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .costs import Structure
from .errors import InvalidInputError, open_input, open_output
from .scenario import left_sum

# Per buffer model: the context width, (cur, target) or (cur, buffered,
# target), and the (kind, length) of each action.
_CONTEXT_WIDTH = {"fixed": 2, "flex": 3}
_ACTION_SHAPES = {
    "fixed": {("0hop", 1), ("1hop", 2)},
    "flex": {("0hop", 2), ("1hop", 2), ("2hop", 3)},
}


def fingerprint(structure: Structure) -> dict:
    """The sorted I-MDUs and P-edges of `structure`, as a policy records them."""
    return {
        "i_set": sorted(map(int, structure.i_set)),
        "p_edges": sorted([int(i), int(j)] for i, j in structure.p_edges),
    }


def _malformed(why: str) -> InvalidInputError:
    return InvalidInputError(f"malformed policy: {why}")


def _checked_action(act, buffer: str) -> tuple:
    """`act` as a tuple if it is an action of the `buffer` model, else raise."""
    if (
        isinstance(act, (list, tuple))
        and act
        and (act[0], len(act)) in _ACTION_SHAPES[buffer]
        and all(type(x) is int and -(2**63) <= x < 2**63 for x in act[1:])
    ):
        return tuple(act)
    raise _malformed(f"{act!r} is not a {buffer}-buffer action")


def _checked_fingerprint(value) -> dict | None:
    """A file's {"i_set", "p_edges"} as a `fingerprint`, or None for null."""
    if value is None:
        return None
    i_set, p_edges = value["i_set"], value["p_edges"]
    if not (
        isinstance(i_set, list) and isinstance(p_edges, list)
        and all(type(x) is int for x in i_set)
        and all(isinstance(e, list) and len(e) == 2 for e in p_edges)
        and all(type(x) is int for e in p_edges for x in e)
    ):
        raise _malformed("structure needs integer i_set and [i, j] p_edges")
    return {"i_set": sorted(i_set), "p_edges": sorted(p_edges)}


def _v1_layout(actions, width: int, buffer: str) -> tuple[list, list, list]:
    """A version-1 {"t,k,...,j": action} dict as version-2 (actions, keys,
    index); each action is checked before it is used as a key."""
    if not isinstance(actions, dict):
        raise _malformed("version-1 actions must be an object")
    keys, acts = [], []
    for key, act in actions.items():
        parts = key.split(",")
        if len(parts) != width:
            raise _malformed(f"key {key!r} does not have {width} fields")
        keys += map(int, parts)
        acts.append(_checked_action(act, buffer))
    table = list(dict.fromkeys(acts))
    pos = {act: n for n, act in enumerate(table)}
    return table, keys, [pos[act] for act in acts]


def _first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct `codes` in first-seen order, and where each code is among them."""
    distinct, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


def _int64(values: list) -> np.ndarray:
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError as exc:
        raise _malformed(f"a field is outside the int64 range: {exc}") from exc


def _rising(rows: np.ndarray) -> bool:
    """Whether each row of `rows` is lexicographically above the one before."""
    below, above = rows[:-1], rows[1:]
    differ = below != above
    col = differ.argmax(axis=1)
    at = np.arange(len(col))
    return bool((differ.any(axis=1) & (below[at, col] < above[at, col])).all())


def merge_runs(new: np.ndarray, t_lo: np.ndarray, t_hi: np.ndarray, act: np.ndarray) -> tuple:
    """Picks sorted by context, then t, as runs over t.

    Pick e holds action act[e] from t_lo[e] to t_hi[e], and new[e] says
    whether its context differs from pick e - 1's.  The picks of one context
    merge while the action stays and no t lies between them.  Returns each
    context's first run, then the number of runs, and each run's t_first,
    t_last and action.
    """
    start = new.copy()
    start[1:] |= (act[1:] != act[:-1]) | (t_lo[1:] != t_hi[:-1] + 1)
    first = np.flatnonzero(start)
    last = np.empty_like(first)
    last[:-1], last[-1:] = first[1:] - 1, len(start) - 1
    offsets = np.append(np.flatnonzero(new[first]), len(first))
    return offsets, t_lo[first], t_hi[last], act[first]


def _first_key(rows: np.ndarray) -> tuple:
    """The lexicographically first of `rows`, as a tuple."""
    return tuple(rows[np.lexsort(rows.T[::-1])[0]].tolist())


def _from_keys(keys: np.ndarray, acts: np.ndarray, prev: bool) -> tuple:
    """Version-1 to -3 keys (t[, prev], cur[, buffered], target), one per
    row, with action acts[n], as (contexts, offsets, t_first, t_last,
    actions) runs, each key kept at one copy.  A row listed twice, copies
    of a key with two actions, and a negative t raise `InvalidInputError`,
    naming the first such key (with prev for a repeated row)."""
    ctx = keys[:, 1 + prev:]
    order = np.lexsort((*keys[:, :1 + prev].T[::-1], *ctx.T[::-1]))  # context, t, prev
    keys, ctx, acts = keys[order], ctx[order], acts[order]
    t = keys[:, 0]
    same = np.zeros(len(keys), dtype=bool)  # a copy of the key before it
    same[1:] = (ctx[1:] == ctx[:-1]).all(axis=1) & (t[1:] == t[:-1])
    repeat, clash = same.copy(), same.copy()
    if prev:  # a repeated row has the same prev too
        repeat[1:] &= keys[1:, 1] == keys[:-1, 1]
    clash[1:] &= acts[1:] != acts[:-1]
    compact = np.delete(keys, 1, axis=1) if prev else keys
    for rows, why in ((keys[repeat], "repeats"), (compact[clash], "has two actions"),
                      (compact[t < 0], "has a negative t")):
        if len(rows):
            raise _malformed(f"key {_first_key(rows)} {why}")
    ctx, t, acts = ctx[~same], t[~same], acts[~same]
    new = np.ones(len(ctx), dtype=bool)
    new[1:] = (ctx[1:] != ctx[:-1]).any(axis=1)
    return (ctx[new], *merge_runs(new, t, t, acts))


class _Actions(Mapping):
    """A policy's {(t, cur[, buffered], target): action}, read-only, over its
    runs: by context, each context's keys by t.

    Its length is the runs' total span, counted from the runs; the dict
    behind it is built on the first lookup or iteration.
    """

    def __init__(self, policy: "Policy"):
        self._policy = policy

    def __len__(self) -> int:
        p = self._policy
        return left_sum((p.t_last - p.t_first).tolist(), len(p.t_first))

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __eq__(self, other):
        if isinstance(other, _Actions):
            a, b = self._policy, other._policy
            runs = [(p.contexts, p.offsets, p.t_first, p.t_last) for p in (a, b)]
            if all(map(np.array_equal, *runs)):  # no dict for the same runs
                return a.run_actions() == b.run_actions()
        return self._dict == other if isinstance(other, Mapping) else NotImplemented

    @cached_property
    def _dict(self) -> dict:
        p = self._policy
        span = p.t_last - p.t_first + 1
        run = np.repeat(np.arange(len(span)), span)
        t = p.t_first[run] + np.arange(len(run)) - np.repeat(np.cumsum(span) - span, span)
        ctx = p.contexts[np.repeat(np.arange(len(p.contexts)), np.diff(p.offsets))[run]]
        keys = map(tuple, np.column_stack([t, ctx]).tolist())
        return dict(zip(keys, map(p.run_actions().__getitem__, run.tolist())))


@dataclass(eq=False)
class Policy:
    """Deterministic per-request action table extracted from a DP run, as
    runs over t.

    `contexts` is a (C, width) int64 array of the distinct (cur, target) or
    (cur, buffered, target), sorted.  Context c has the runs offsets[c] to
    offsets[c + 1] - 1, in rising t, and run r picks action table[index[r]]
    at every t from t_first[r] to t_last[r].  A t at which a context is not
    listed, or at which its action changes, starts a new run; so the keys
    (t, *context) are exactly the DP's, and `actions` is the mapping over
    them.  `structure` is the `fingerprint` of the structure the DP ran on
    and `expected_cost` its cost, both None for a policy loaded from a
    version-1 or -2 file.  Two policies are equal when their buffers,
    first-switch weighting and `actions` mappings are.  `save` and `load`
    use the version-4 file of the module docstring; a reloaded policy has
    the same runs, structure and cost.
    """

    buffer: str  # "fixed" or "flex"
    weight_first_switch: bool
    contexts: np.ndarray | None = None
    offsets: np.ndarray | None = None
    t_first: np.ndarray | None = None
    t_last: np.ndarray | None = None
    index: np.ndarray | None = None
    table: tuple = ()
    structure: dict | None = None
    expected_cost: float | None = None

    def __post_init__(self):
        if self.contexts is None:
            self.contexts = np.empty((0, _CONTEXT_WIDTH[self.buffer]), dtype=np.int64)
            self.offsets = np.zeros(1, dtype=np.intp)
            self.t_first = self.t_last = np.empty(0, dtype=np.int64)
            self.index = np.empty(0, dtype=np.intp)

    @cached_property
    def actions(self) -> Mapping:
        return _Actions(self)

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return (
            self.buffer == other.buffer
            and self.weight_first_switch == other.weight_first_switch
            and self.actions == other.actions
        )

    def run_actions(self) -> list:
        return list(map(self.table.__getitem__, self.index.tolist()))

    def to_dict(self) -> dict:
        used, index = _first_seen(self.index)
        return {
            "version": 4,
            "buffer": self.buffer,
            "weight_first_switch": self.weight_first_switch,
            "structure": self.structure,
            "expected_cost": self.expected_cost,
            "actions": [self.table[a] for a in used.tolist()],
            "keys": self.contexts.ravel().tolist(),
            "offsets": self.offsets.tolist(),
            "t_first": self.t_first.tolist(),
            "t_last": self.t_last.tolist(),
            "index": index.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Policy":
        """Read any file version; raise `InvalidInputError` if it is malformed."""
        try:
            buffer, wfs = data["buffer"], data["weight_first_switch"]
            if buffer not in _CONTEXT_WIDTH:
                raise _malformed(f"unknown buffer model {buffer!r}")
            if type(wfs) is not bool:
                raise _malformed(f"weight_first_switch {wfs!r} is not a boolean")
            version, structure, cost = data.get("version"), None, None
            names = ("keys", *["offsets", "t_first", "t_last"] * (version == 4), "index")
            # a version-1 to -3 key is (t, *context), with prev after t before version 3
            width = _CONTEXT_WIDTH[buffer] + (version != 4) + (version in (None, 2))
            if version is None:
                table, *fields = _v1_layout(data["actions"], width, buffer)
            elif type(version) is int and version in (2, 3, 4):
                table, fields = data["actions"], [data[name] for name in names]
                if version > 2:
                    structure = _checked_fingerprint(data["structure"])
                    cost = data["expected_cost"]
                    if cost is not None and type(cost) not in (int, float):
                        raise _malformed(f"expected_cost {cost!r} is not a number")
            else:
                raise _malformed(f"unsupported version {version!r}")
            if not all(isinstance(x, list) for x in (table, *fields)):
                raise _malformed(f"actions, {', '.join(names[:-1])} and index must be lists")
            table = tuple(_checked_action(act, buffer) for act in table)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise _malformed(str(exc)) from exc
        if not all(set(map(type, field)) <= {int} for field in fields):
            raise _malformed(f"{', '.join(names[:-1])} and index must hold integers")
        keys, *runs, index = fields
        if version == 4:
            offsets, t_first, t_last = runs
            if len(keys) != width * (len(offsets) - 1) or not (
                len(t_first) == len(t_last) == len(index)
            ):
                raise _malformed(
                    f"{len(keys)} key fields of width {width} for {len(offsets) - 1} contexts, "
                    f"and {len(t_first)}, {len(t_last)} and {len(index)} run fields, do not match"
                )
            if offsets[0] != 0 or offsets[-1] != len(index):
                raise _malformed(f"offsets must run from 0 to the {len(index)} runs")
        elif len(keys) != width * len(index):
            raise _malformed(f"{len(keys)} key fields for {len(index)} keys of width {width}")
        if index and not (0 <= min(index) and max(index) < len(table)):
            raise _malformed(f"an action index is outside [0, {len(table)})")
        keys, index = _int64(keys).reshape(-1, width), np.array(index, dtype=np.intp)
        if version == 4:
            offsets, t_first, t_last = map(_int64, runs)
            _check_runs(keys, offsets, t_first, t_last)
            arrays = (keys, offsets.astype(np.intp), t_first, t_last, index)
        else:  # copies of a key under several prevs are one key
            seen: dict = {}  # one number per action, even one listed twice
            acts = np.array([seen.setdefault(a, len(seen)) for a in table], dtype=np.intp)
            arrays, table = _from_keys(keys, acts[index], version != 3), tuple(seen)
        cost = None if cost is None else float(cost)
        return cls(buffer, wfs, *arrays, table, structure, cost)

    def save(self, path) -> None:
        # json.dumps without indent runs the C encoder; json.dump never does
        text = json.dumps(self.to_dict(), separators=(",", ":"))
        with open_output("policy", path) as fh:
            fh.write(text)

    @classmethod
    def load(cls, path) -> "Policy":
        with open_input("policy", path) as fh:
            data = json.load(fh)
        return cls.from_dict(data)


def _check_runs(contexts, offsets, t_first, t_last) -> None:
    """Refuse version-4 runs that are not sorted, distinct and disjoint."""
    if (np.diff(offsets) <= 0).any():
        raise _malformed("offsets must rise: each context needs a run")
    if not _rising(contexts):
        raise _malformed("contexts must be sorted and distinct")
    if (t_first < 0).any() or (t_first > t_last).any():
        raise _malformed("each run needs 0 <= t_first <= t_last")
    later = np.ones(len(t_first), dtype=bool)  # runs after another of their context
    later[offsets[:-1]] = False
    if (t_first[later] <= t_last[np.flatnonzero(later) - 1]).any():
        raise _malformed("the runs of a context must be in rising t and disjoint")
