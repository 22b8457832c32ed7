"""Expected transmission cost of a structure by a level-synchronous DP.

One array core, `level_pass`, values the fixed, flexible and infinite
buffers.  A state is (prev, cur, buffer) at switch depth t, held as a uint64
row: the (prev, cur) pair's id in a `PairIndex`, then the buffer words.  The
fixed buffer has none, since it holds the displayed MDU.  The flexible
buffer has one, 0 for EMPTY or m + 1 for a buffered MDU m, and starts EMPTY.
The infinite buffer of `baselines` has ceil(n/64) mask words.  The previous
MDU at t = 0 is the START sentinel.

Each buffer model gives one vectorised lister.  For a batch of requests,
`options` returns every option's immediate bits (+inf where a slot holds no
option) and action code as (rows, K) arrays, in tie order, and a function
that gives the next buffer words of any (request, slot).  The forward pass
collects each level's distinct states, `_CHUNK` halves (below) at a time.
A level that repeats the one above it is not expanded again, and more than
`max_states` states raise `OracleRefusalError` as soon as the running count
passes it.  The backward pass values the levels from the last one up.  A
request takes the first minimum (`argmin`) of imm + g(t+1)·V(next), or just
imm once g(t+1) = 0, and `np.bincount` adds p times that minimum per state
in graph order, from 0.0, as a Python loop would.  It reuses the forward
pass's expansions, up to `_KEPT` bytes of them, and expands a repeated
level only once.

The fixed and flexible DPs charge every request of `Scenario.request_index`
(p = 0 too), where pairs with one cur share one row of targets and a
request's options, pick and next state do not depend on prev.  So a level
is listed once per (cur, buffer) half, a run of its rows keyed by (cur,
buffer word, pair id) in one uint64, and a state adds p(j | prev, cur)·
Q(cur, buffer, j) over its half's minima Q, with or without a policy.  A
level whose halves are all single rows is listed state by state, as the
infinite buffer's always is: it hashes its rows, one half per state.

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

Every prev picks the same action, so a policy is keyed by (t, cur,
target), or (t, cur, buffered, target) for the flexible buffer: one key per
request listed, each half's requests in graph order, the halves of a level
in (cur, buffered) order.  `dp_stats["actions"]` still counts the DP's
decisions, one per request of each state.

A `Policy` holds the picks as arrays: `keys[n]` is the n-th key in the DP's
order (last level first) and `table[index[n]]` its action.  `Policy.actions`
is a read-only mapping over them, of length the number of keys, that builds
its dict only when first read.  `evaluate` also records the structure's
`fingerprint` and its cost, and `oracle.simulate_sessions` refuses a policy
recorded for another structure.

A policy file (version 3) is one JSON object {"version": 3, "buffer",
"weight_first_switch", "structure", "expected_cost", "actions", "keys",
"index"}: `structure` is {"i_set", "p_edges"}, sorted, or null; `actions`
lists each distinct action once, first seen first; `keys` holds every key's
integers flattened in DP order (width 3 fixed, 4 flexible); and `index[n]`
is the position in `actions` of key n's action.  json's C codec writes and
reads it with no per-key Python loop.  Version-2 files (keys with prev, of
width 4 and 5, and no structure or cost) and version-1 files (no `version`,
`actions` keyed "t,k,...,j") load through one reader, which drops prev once
every copy of a key has the same action.  Loading rejects, with
`InvalidInputError`, an unknown buffer, a non-boolean `weight_first_switch`,
an action the buffer cannot take, keys of the wrong width, out-of-range
indices, a key listed twice or with two actions, and a malformed structure
or cost.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np

from .costs import CostTables, SizeTable, Structure
from .errors import InvalidInputError, OracleRefusalError, open_output
from .scenario import PairIndex, Scenario, csr_slots, left_sum

logger = logging.getLogger(__name__)

EMPTY = -2  # flexible-buffer sentinel for "nothing buffered yet"


# Per buffer model: the key width, and the (kind, length) of each action.
_KEY_WIDTH = {"fixed": 3, "flex": 4}
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


class _Actions(Mapping):
    """A policy's {key: action}, read-only, over its arrays and in key order.

    Its length is the number of keys; the dict behind it is built on the
    first lookup or iteration.
    """

    def __init__(self, keys: np.ndarray, index: np.ndarray, table: tuple):
        self._keys, self._index, self._table = keys, index, table

    def __len__(self) -> int:
        return len(self._keys)

    def __getitem__(self, key):
        return self._dict[key]

    def __iter__(self):
        return iter(self._dict)

    def __eq__(self, other):
        if isinstance(other, _Actions) and np.array_equal(self._keys, other._keys):
            return self._actions() == other._actions()  # no dict for the same keys
        return self._dict == other if isinstance(other, Mapping) else NotImplemented

    def _actions(self) -> list:
        return list(map(self._table.__getitem__, self._index.tolist()))

    @cached_property
    def _dict(self) -> dict:
        return dict(zip(map(tuple, self._keys.tolist()), self._actions()))


@dataclass(eq=False)
class Policy:
    """Deterministic per-request action table extracted from a DP run.

    `keys` is an (N, width) int64 array of the module docstring's keys in
    the DP's order, and `table[index[n]]` is key n's action.  `structure`
    is the `fingerprint` of the structure the DP ran on and `expected_cost`
    its cost, both None for a policy loaded from a version-1 or -2 file.
    Two policies are equal when their buffers, first-switch weighting and
    `actions` mappings are.  `save` and `load` use the version-3 file of
    the module docstring; a reloaded policy is equal to the saved one, in
    the same order, with the same structure and cost.
    """

    buffer: str  # "fixed" or "flex"
    weight_first_switch: bool
    keys: np.ndarray | None = None
    index: np.ndarray | None = None
    table: tuple = ()
    structure: dict | None = None
    expected_cost: float | None = None

    def __post_init__(self):
        if self.keys is None:
            self.keys = np.empty((0, _KEY_WIDTH[self.buffer]), dtype=np.int64)
            self.index = np.empty(0, dtype=np.intp)

    @cached_property
    def actions(self) -> Mapping:
        return _Actions(self.keys, self.index, self.table)

    def __eq__(self, other):
        if not isinstance(other, Policy):
            return NotImplemented
        return (
            self.buffer == other.buffer
            and self.weight_first_switch == other.weight_first_switch
            and self.actions == other.actions
        )

    @cached_property
    def order(self) -> np.ndarray:
        """The positions of `keys` in lexicographic order; a key listed twice
        raises `InvalidInputError`."""
        order = np.lexsort(self.keys.T[::-1])
        ranked = self.keys[order]
        same = (ranked[1:] == ranked[:-1]).all(axis=1)
        if same.any():
            raise _malformed(f"key {tuple(ranked[same.argmax()].tolist())} repeats")
        return order

    def _without_prev(self) -> "Policy":
        """This policy of (t, prev, ...) keys keyed without prev, each key at
        its first copy; copies with two different actions raise
        `InvalidInputError`."""
        keys = np.delete(self.keys, 1, axis=1)
        seen: dict = {}  # one number per action, even one listed twice
        acts = np.array([seen.setdefault(a, len(seen)) for a in self.table], dtype=np.intp)
        acts = acts[self.index]
        order = np.lexsort(keys.T[::-1])  # stable: copies stay in file order
        ranked, acts = keys[order], acts[order]
        same = (ranked[1:] == ranked[:-1]).all(axis=1)
        clash = same & (acts[1:] != acts[:-1])
        if clash.any():
            key = tuple(ranked[1:][clash.argmax()].tolist())
            raise _malformed(f"key {key} has two actions")
        first = np.ones(len(order), dtype=bool)
        first[1:] = ~same
        first = np.sort(order[first])
        return Policy(self.buffer, self.weight_first_switch, keys[first],
                      self.index[first], self.table)

    def to_dict(self) -> dict:
        used, index = _first_seen(self.index)
        return {
            "version": 3,
            "buffer": self.buffer,
            "weight_first_switch": self.weight_first_switch,
            "structure": self.structure,
            "expected_cost": self.expected_cost,
            "actions": [self.table[a] for a in used.tolist()],
            "keys": self.keys.ravel().tolist(),
            "index": index.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Policy":
        """Read any file version; raise `InvalidInputError` if it is malformed."""
        try:
            buffer, wfs = data["buffer"], data["weight_first_switch"]
            if buffer not in _KEY_WIDTH:
                raise _malformed(f"unknown buffer model {buffer!r}")
            if type(wfs) is not bool:
                raise _malformed(f"weight_first_switch {wfs!r} is not a boolean")
            version, structure, cost = data.get("version"), None, None
            width = _KEY_WIDTH[buffer] + (version != 3)  # older keys hold prev
            if version is None:
                table, keys, index = _v1_layout(data["actions"], width, buffer)
            elif type(version) is int and version in (2, 3):
                table, keys, index = data["actions"], data["keys"], data["index"]
                if version == 3:
                    structure = _checked_fingerprint(data["structure"])
                    cost = data["expected_cost"]
                    if cost is not None and type(cost) not in (int, float):
                        raise _malformed(f"expected_cost {cost!r} is not a number")
            else:
                raise _malformed(f"unsupported version {version!r}")
            if not all(isinstance(x, list) for x in (table, keys, index)):
                raise _malformed("actions, keys and index must be lists")
            table = tuple(_checked_action(act, buffer) for act in table)
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
        try:
            keys = np.array(keys, dtype=np.int64).reshape(-1, width)
        except OverflowError as exc:
            raise _malformed(f"a key field is outside the int64 range: {exc}") from exc
        cost = None if cost is None else float(cost)
        policy = cls(buffer, wfs, keys, np.array(index, dtype=np.intp), table,
                     structure, cost)
        policy.order  # refuses a repeated key
        return policy if version == 3 else policy._without_prev()

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
    policy: Policy | None  # None when `evaluate` was asked for the cost only
    dp_stats: dict


# --- the level core -----------------------------------------------------------

_MIX = (np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB))


def _hashes(rows: np.ndarray, salt: int) -> np.ndarray:
    """One uint64 per row of `rows`, mixed column by column from `salt`."""
    h = np.full(len(rows), salt, dtype=np.uint64)
    for col in rows.T:
        h ^= col
        h ^= h >> np.uint64(30)
        h *= _MIX[0]
        h ^= h >> np.uint64(27)
        h *= _MIX[1]
        h ^= h >> np.uint64(31)
    return h


class _Collision(Exception):
    """Two different states hashed alike; the pass starts again with a new salt."""


class _Level:
    """The distinct states of one level as rows [pair id, buffer words...].

    Rows are kept in the order of their keys, which are distinct.  A key is
    a hash, confirmed on the whole row; with a one-MDU lister's `pack` (cur
    and pair id by pair id, the pair id's bits) it is the row itself,
    packed, and a half is a run of one (cur, buffer word).  `bounds`, read
    once the level is whole, lists where its `halves` start, then the end;
    None: each row is its own half."""

    def __init__(self, width: int, salt: int, pack: tuple | None = None):
        self.salt, self.pack = salt, pack
        self.keys = np.empty(0, dtype=np.uint64)
        self.rows = np.empty((0, width), dtype=np.uint64)

    def _hashes(self, rows: np.ndarray) -> np.ndarray:
        if self.pack is None:
            return _hashes(rows, self.salt)
        key = self.pack[0][rows[:, 0]]
        for col in rows.T[1:]:  # none or one buffer word
            key |= col << self.pack[1]
        return key

    def add(self, rows: np.ndarray) -> np.ndarray | None:
        """Add the states `rows`, which may repeat each other or this level's.

        Into an empty level, returns where each of `rows` now is.
        """
        h = self._hashes(rows)
        order = np.argsort(h)
        h, rows = h[order], rows[order]
        head = np.ones(len(h), dtype=bool)
        head[1:] = h[1:] != h[:-1]
        h, firsts, rank = h[head], rows[head], np.cumsum(head) - 1
        if self.pack is None and not (rows == firsts[rank]).all():
            raise _Collision
        if not len(self.keys):
            self.keys, self.rows = h, firsts
            placed = np.empty_like(rank)
            placed[order] = rank
            return placed
        pos = np.searchsorted(self.keys, h)
        hit = np.zeros(len(h), dtype=bool)
        inside = pos < len(self.keys)
        hit[inside] = self.keys[pos[inside]] == h[inside]
        if self.pack is None and not (self.rows[pos[hit]] == firsts[hit]).all():
            raise _Collision
        self.keys = np.insert(self.keys, pos[~hit], h[~hit])
        self.rows = np.insert(self.rows, pos[~hit], firsts[~hit], axis=0)
        return None

    @cached_property
    def bounds(self) -> np.ndarray | None:
        if self.pack is None:
            return None
        half = self.keys >> self.pack[1]
        new = np.empty(len(half) + 1, dtype=bool)  # a half starts, or the end
        new[0] = new[-1] = True
        np.not_equal(half[1:], half[:-1], out=new[1:-1])
        return None if len(bounds := new.nonzero()[0]) == len(new) else bounds

    halves = property(lambda self: len(self.keys if self.bounds is None else self.bounds[1:]))

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The positions of the states `rows`, each of which is in this level."""
        h = self._hashes(rows)
        pos = np.minimum(np.searchsorted(self.keys, h), len(self.keys) - 1)
        if not ((self.keys[pos] == h).all() and (self.rows[pos] == rows).all()):
            raise RuntimeError("level pass: a successor is not in its level")
        return pos


_CHUNK = 4096  # halves expanded at once; a refusal stops within a level
_KEPT = 1 << 20  # bytes of expansions the forward pass keeps for the backward one


@dataclass
class _Expansion:
    """The requests of a chunk of halves and where their options lead.

    Each request's half (a position in the chunk) and index slot, from the
    half's first row, the pair, buffer words and target the lister was
    asked about, its options' bits and action codes from the lister, the
    flat position in `bits` of every option, and the row `nxt` of the state
    each option leads to; `pos` and `terms` come once the DP needs them."""

    half: np.ndarray
    slots: np.ndarray
    pair: np.ndarray
    buf: np.ndarray
    j: np.ndarray
    bits: np.ndarray
    act: np.ndarray | None
    opt: np.ndarray
    nxt: np.ndarray
    pos: np.ndarray | None = None
    terms: tuple | None = None

    def nbytes(self) -> int:
        return left_sum(a.nbytes for a in vars(self).values() if a is not None)


def _expand(index: PairIndex, lister, level: _Level, lo: int, leads=True) -> _Expansion:
    """The `_Expansion` of `level`'s halves from half `lo` over the requests of
    `index`, each listed from its first row; opt and nxt None unless `leads`."""
    heads = slice(lo, lo + _CHUNK) if level.bounds is None else level.bounds[lo:-1][:_CHUNK]
    rows = level.rows[heads]
    pair = rows[:, 0].astype(np.intp)
    counts, slots = csr_slots(index.offsets, pair)
    half = np.repeat(np.arange(len(rows)), counts)
    asked = pair[half], rows[half, 1:], index.target[slots]
    bits, act, after = lister.options(*asked)
    if not leads:
        return _Expansion(half, slots, *asked, bits, act, None, None)
    opt = np.flatnonzero(bits < math.inf)
    r, k = np.divmod(opt, bits.shape[1])
    nxt = np.empty((len(r), rows.shape[1]), dtype=np.uint64)
    nxt[:, 0] = index.succ[slots[r]]
    nxt[:, 1:] = after(r, k)
    return _Expansion(half, slots, *asked, bits, act, opt, nxt)


def _terms(index: PairIndex, level: _Level, lo: int, chunk: _Expansion) -> tuple:
    """The rows s0..s1 - 1 of `chunk`'s states, and their requests in graph order:
    each one's state (a row of the chunk), p, and place among the listed ones."""
    if level.bounds is None:  # each state its own half
        return lo, min(lo + _CHUNK, len(level.keys)), chunk.half, index.prob[chunk.slots], ...
    runs = level.bounds[lo:lo + _CHUNK + 1]
    s0, s1 = runs[0], runs[-1]
    pair = level.rows[s0:s1, 0].astype(np.intp)
    counts, slots = csr_slots(index.offsets, pair)
    listed = counts[runs[:-1] - s0]  # each half's requests, one half after another
    base = np.repeat(np.cumsum(listed) - listed, runs[1:] - runs[:-1]) - index.offsets[pair]
    state = np.repeat(np.arange(s1 - s0), counts)
    return s0, s1, state, index.prob[slots], np.repeat(base, counts) + slots


def _levels(index, weights, lister, max_states, salt, log, name) -> tuple[list, dict]:
    """The reachable states of levels 0..T, as `_Level`s hashed with `salt`,
    for `weights` = (w1, g(1), ..., g(T)).

    A level equal to the one above it is that same `_Level`.  Also returns
    the chunk expansions kept for the backward pass, by (level, first half),
    up to `_KEPT` bytes in all, and where the roots are in level 0.
    """
    width = lister.roots.shape[1]
    levels, kept, room = [_Level(width, salt, lister.pack)], {}, _KEPT
    roots = levels[0].add(lister.roots)
    reached, repeats = len(levels[0].keys), False
    while reached <= max_states and len(levels) < len(weights):
        above = levels[-1]
        if not repeats:
            nxt = _Level(width, salt, lister.pack)
            for lo in range(0, above.halves, _CHUNK):
                chunk = _expand(index, lister, above, lo)
                if (size := chunk.nbytes()) <= room:
                    kept[above, lo], room = chunk, room - size
                successors, chunk = chunk.nxt, None  # the rest is freed unless kept
                placed = nxt.add(successors)
                if reached + len(nxt.keys) > max_states:
                    break
            if above.halves <= _CHUNK and (above, 0) in kept:
                kept[above, 0].pos = placed  # from the level's only add: final
            repeats = np.array_equal(nxt.rows, above.rows)
        levels.append(above if repeats else nxt)
        reached += len(levels[-1].keys)
    for t, level in enumerate(levels):
        log.debug("%s level %d: %d states", name, t, len(level.keys))
    if reached > max_states:
        raise OracleRefusalError(
            f"{name} pass exceeds {max_states} reachable states "
            f"at level {len(levels) - 1}"
        )
    return levels, kept, roots


def level_pass(index: PairIndex, weights, lister, log, name, max_states=math.inf):
    """Value every state reachable from `lister.roots` over the requests of `index`.

    `weights` is `LifetimeModel.weights`' (w1, g(1), ..., g(T)): the levels
    run from t = 0 to T, a state at level t adds g(t + 1)·V(next) to each
    option (nothing at level T), and the expected cost is the minimum over
    the roots of root_bits + w1·V(root).  Each level's size is logged at
    DEBUG on `log` as "`name` level t: c states" once the forward pass is
    done, and on this module's logger as "`name` level t: h (cur, buffer)
    halves, r requests listed" as the backward pass values it.  Returns that
    cost; the number of states; the number of requests valued, one per
    request of each state; and, for a lister with action codes, (t, keys,
    codes) per level, last level first, with each listed request's packed
    key (`lister.keys`) and picked code (for any other lister, no levels).
    """
    for salt in count():
        try:
            levels, kept, roots = _levels(index, weights, lister, max_states, salt, log, name)
            break
        except _Collision:
            continue
    values, picks, requests = None, [], 0
    g_next_of = (*weights[1:], 0.0)  # g(t + 1) at level t
    for t in range(len(levels) - 1, -1, -1):
        g_next, level = g_next_of[t], levels[t]
        repeated = t > 0 and levels[t - 1] is level
        leads = g_next > 0.0 or repeated  # its options' next states are needed
        cur = np.empty(len(level.keys))
        keys, codes, asked = [], [], 0
        for lo in range(0, level.halves, _CHUNK):
            chunk = kept.pop((level, lo), None) or _expand(index, lister, level, lo, leads)
            if repeated:  # the same chunk, with the same successors, serves t - 1
                kept[level, lo] = chunk
            bits = chunk.bits
            if g_next > 0.0:
                if chunk.pos is None:
                    chunk.pos = levels[t + 1].index(chunk.nxt)
                bits = bits.copy()  # a repeated level's chunk is valued again
                bits.ravel()[chunk.opt] += g_next * values[chunk.pos]
            if chunk.act is None:
                least = bits.min(axis=1)
            else:  # each request's first cheapest option, as a flat position in `bits`
                pick = np.arange(0, bits.size, bits.shape[1]) + bits.argmin(axis=1)
                least = bits.ravel()[pick]
                keys.append(lister.keys(chunk.pair, chunk.buf, chunk.j))
                codes.append(chunk.act.ravel()[pick])
            chunk.terms = chunk.terms or _terms(index, level, lo, chunk)
            s0, s1, state, prob, gather = chunk.terms
            # np.bincount adds each state's terms in turn from 0.0, in graph order
            cur[s0:s1] = np.bincount(state, weights=prob * least[gather], minlength=s1 - s0)
            requests += len(state)
            asked += len(chunk.j)
        if keys:
            picks.append((t, np.concatenate(keys), np.concatenate(codes)))
        logger.debug("%s level %d: %d (cur, buffer) halves, %d requests listed",
                     name, t, level.halves, asked)
        values = cur
    first = zip(lister.root_bits.tolist(), values[roots].tolist())
    cost = min(c + weights[0] * v for c, v in first)
    states = left_sum(len(level.keys) for level in levels)
    return cost, states, requests, picks


# --- the fixed and flexible listers --------------------------------------------

_KINDS = ("0hop", "1hop", "2hop")


class _OneMduLister:
    """What the fixed and flexible listers share.

    A buffer word is 0 for EMPTY and m + 1 for MDU m, so that words sort as
    the buffer contents do, EMPTY first.  `r_p` is `CostTables.p_bits` with
    rows by word and columns by MDU: row 0, EMPTY, predicts nothing.  An
    action is coded as kind·S² + a·S + b for S = n + 1, with the kind's
    position in `_KINDS` and its arguments a and b as words; `action` turns
    a code back into the tuple of the module docstring.  A lister built with
    `actions` False gives no codes (act None), so the DP records no policy.
    """

    arity: tuple  # the number of arguments of each kind's action
    name: str  # the buffer's name in its DEBUG level lines

    def __init__(self, scenario: Scenario, tables: CostTables, actions: bool):
        self.n, self.actions = scenario.graph.n, actions
        self.cur = scenario.request_index.cur
        # a `_Level` key: cur, then the buffer word if any, then the pair id
        word, pair = self.n.bit_length(), (len(self.cur) - 1).bit_length()
        if 2 * word + pair > 64:
            raise InvalidInputError(f"{self.n} MDUs are too many to pack a state in 64 bits")
        table = self.cur.astype(np.uint64) << word * (self.roots.shape[1] - 1) + pair
        table |= np.arange(len(self.cur), dtype=np.uint64)
        self.pack = (table, pair)  # a pair id's key, and the bits below its half's
        self.r_i = np.array(tables.r_i)
        self.r_p = tables.p_bits[:, 1:]
        self.root_bits = np.array([tables.r_i[scenario.graph.start]])

    def action(self, code: int) -> tuple:
        kind, ab = divmod(code, (self.n + 1) ** 2)
        args = [w - 1 if w else EMPTY for w in divmod(ab, self.n + 1)]
        return (_KINDS[kind], *args[: self.arity[kind]])

    def keys(self, pair, buf, j) -> np.ndarray:
        """The (cur[, buffer word], target) of the requests from pairs pair[r]
        with buffer words buf[r] for targets j[r], each packed in base n + 1."""
        code = self.cur[pair]
        for word in buf.T:  # none for the fixed buffer, one for the flexible
            code = code * (self.n + 1) + word.astype(np.int64)
        return code * (self.n + 1) + j

    def key_rows(self, t: int, code: np.ndarray) -> np.ndarray:
        """The policy keys (t, cur[, buffered], target) of `keys`' codes at depth t."""
        out = np.empty((len(code), self.roots.shape[1] + 2), dtype=np.int64)
        out[:, 0] = t
        for f in range(out.shape[1] - 1, 0, -1):
            code, out[:, f] = np.divmod(code, self.n + 1)
        if out.shape[1] == 4:  # a buffer word as the buffered MDU
            out[:, 2] -= 1
            out[out[:, 2] < 0, 2] = EMPTY
        return out


class _FixedLister(_OneMduLister):
    """The fixed buffer's options: the 1-hop from the displayed MDU, then the 0-hop."""

    arity = (0, 1)
    name = "fixed-buffer"
    roots = np.zeros((1, 1), dtype=np.uint64)

    def options(self, pair, buf, j):
        i = self.cur[pair]
        bits = np.empty((len(j), 2))
        bits[:, 0], bits[:, 1] = self.r_p[i + 1, j], self.r_i[j]
        act = None
        if self.actions:
            act = np.zeros((len(j), 2), dtype=np.int64)
            act[:, 0] = (self.n + 2 + i) * (self.n + 1)  # ("1hop", i)
        return bits, act, lambda r, k: np.empty((len(r), 0), dtype=np.uint64)


class _FlexLister(_OneMduLister):
    """The flexible buffer's options, in tie order: the 1-hops by ascending
    reference, the 2-hops in `CostTables.preds` order, then the 0-hops by
    ascending keep (EMPTY first).  The references and keeps are the buffered
    and the displayed MDU, or the displayed one alone when it is buffered;
    a 2-hop's first hop is the first cheapest of (buffered, displayed)."""

    arity = (1, 1, 2)
    name = "flexible-buffer"
    roots = np.zeros((1, 2), dtype=np.uint64)

    def __init__(self, scenario: Scenario, tables: CostTables, actions: bool):
        super().__init__(scenario, tables, actions)
        self.pred, self.pred_bits = tables.pred_table
        # slots: 1-hop from each keep, a 2-hop per predictor, 0-hop to each keep
        kinds = [1, 1, *[2] * self.pred.shape[1], 0, 0]
        self.kind = np.array(kinds) * (self.n + 1) ** 2

    def options(self, pair, buf, j):
        r_p, d = self.r_p, self.pred.shape[1]
        i, gam = self.cur[pair] + 1, buf[:, 0].astype(np.intp)
        lo, hi = np.minimum(gam, i), np.maximum(gam, i)
        mid = self.pred[j]
        via_gam, via_i = r_p[gam[:, None], mid], r_p[i[:, None], mid]
        bits = np.empty((len(j), 4 + d))
        bits[:, 0], bits[:, 1] = r_p[lo, j], r_p[hi, j]
        bits[:, 2:2 + d] = np.minimum(via_gam, via_i) + self.pred_bits[j]
        bits[:, 2 + d] = bits[:, 3 + d] = self.r_i[j]
        bits[gam == i, 1::2 + d] = math.inf  # one keep: the displayed MDU
        nbuf = np.empty(bits.shape, dtype=np.intp)
        nbuf[:, 0] = nbuf[:, 2 + d] = lo
        nbuf[:, 1] = nbuf[:, 3 + d] = hi
        nbuf[:, 2:2 + d] = mid + 1
        act = None
        if self.actions:
            act = self.kind + nbuf * (self.n + 1)
            act[:, 2:2 + d] += np.where(via_i < via_gam, i[:, None], gam[:, None])
        return bits, act, lambda r, k: nbuf[r, k, None]


_LISTERS = {"fixed": _FixedLister, "flex": _FlexLister}


def evaluate(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    buffer: str,
    weight_first_switch: bool = False,
    *,
    policy: bool = True,
) -> EvalResult:
    """Expected session cost under the fixed or the flexible one-MDU
    reference buffer, `buffer` "fixed" or "flex", and the policy behind it,
    or no policy (None) when `policy` is False."""
    if buffer not in _LISTERS:
        raise InvalidInputError(f"unknown buffer model {buffer!r}")
    tables = CostTables(structure, sizes, scenario.graph.n)
    lister = _LISTERS[buffer](scenario, tables, policy)
    weights = scenario.lifetime.weights(weight_first_switch)
    cost, states, requests, picks = level_pass(
        scenario.request_index, weights, lister, logger, lister.name
    )
    stats = {"states": states, "actions": requests}
    if not policy:
        return EvalResult(cost, None, stats)
    keys = np.concatenate([lister.key_rows(t, code) for t, code, _ in picks])
    table, index = np.unique(np.concatenate([c for *_, c in picks]), return_inverse=True)
    actions = tuple(map(lister.action, table.tolist()))
    found = Policy(buffer, weight_first_switch, keys, index, actions,
                   fingerprint(structure), cost)
    return EvalResult(cost, found, stats)


def eval_fixed(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
) -> EvalResult:
    """Expected session cost under the fixed one-MDU reference buffer."""
    return evaluate(scenario, sizes, structure, "fixed", weight_first_switch)


def eval_flexible(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
) -> EvalResult:
    """Expected session cost under the flexible one-MDU reference buffer."""
    return evaluate(scenario, sizes, structure, "flex", weight_first_switch)
