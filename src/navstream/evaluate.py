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
request listed.  `dp_stats["actions"]` still counts the DP's decisions, one
per request of each state.

`evaluate` returns the picks as a `navstream.policy.Policy` of runs over
t: each run is one context (cur[, buffered], target), an inclusive range
t_first..t_last and one action, and a t at which the context is not
listed, or picks another action, starts a new run.  It builds the runs
from `level_pass`'s picks, where a level that repeats the one above it
lists only the picks that change, with one stable sort of the packed keys,
and records the structure's `fingerprint` and the cost.  The version-4
policy file holds the sorted contexts (`keys`), the run `offsets`,
`t_first`, `t_last` and each run's action `index` (see `navstream.policy`).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import count

import numpy as np

from .costs import CostTables, SizeTable, Structure
from .errors import InvalidInputError, OracleRefusalError
from .policy import Policy, fingerprint, merge_runs
from .scenario import PairIndex, Scenario, csr_slots, left_sum

logger = logging.getLogger(__name__)

EMPTY = -2  # flexible-buffer sentinel for "nothing buffered yet"


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
    request of each state; and, for a lister with action codes, (t, low,
    keys, codes) per level, last level first (for any other lister, no
    levels): listed requests' packed keys (`lister.keys`) and picked codes.
    A pick holds from level t down to level `low`, or to the next level
    below that lists its key.  The levels that are one `_Level` list the
    same keys in the same order, and `low` is the first of them; below the
    last, such a level lists only the keys whose codes differ from level
    t + 1.  Any other level's `low` is t.
    """
    for salt in count():
        try:
            levels, kept, roots = _levels(index, weights, lister, max_states, salt, log, name)
            break
        except _Collision:
            continue
    values, picks, requests = None, [], 0
    g_next_of = (*weights[1:], 0.0)  # g(t + 1) at level t
    low = next(t for t, level in enumerate(levels) if level is levels[-1])
    for t in range(len(levels) - 1, -1, -1):
        g_next, level = g_next_of[t], levels[t]
        repeated = t > 0 and levels[t - 1] is level
        leads = g_next > 0.0 or repeated  # its options' next states are needed
        relisted = low <= t < len(levels) - 1  # level t + 1's keys, in its order
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
                if not relisted:
                    keys.append(lister.keys(chunk.pair, chunk.buf, chunk.j))
                codes.append(chunk.act.ravel()[pick])
            chunk.terms = chunk.terms or _terms(index, level, lo, chunk)
            s0, s1, state, prob, gather = chunk.terms
            # np.bincount adds each state's terms in turn from 0.0, in graph order
            cur[s0:s1] = np.bincount(state, weights=prob * least[gather], minlength=s1 - s0)
            requests += len(state)
            asked += len(chunk.j)
        if codes:
            code = np.concatenate(codes)
            if relisted:
                moved = np.flatnonzero(code != listed[1])
                picks.append((t, low, listed[0][moved], code[moved]))
                listed = listed[0], code
            else:
                listed = np.concatenate(keys), code
                picks.append((t, min(low, t), *listed))
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
        self.r_i = tables.r_i
        self.r_p = tables.p_bits[:, 1:]
        self.root_bits = self.r_i[[scenario.graph.start]]

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

    def contexts(self, code: np.ndarray) -> np.ndarray:
        """The policy contexts (cur[, buffered], target) of `keys`' codes."""
        out = np.empty((len(code), self.roots.shape[1] + 1), dtype=np.int64)
        for f in range(out.shape[1] - 1, -1, -1):
            code, out[:, f] = np.divmod(code, self.n + 1)
        if out.shape[1] == 3:  # a buffer word as the buffered MDU
            out[:, 1] -= 1
            out[out[:, 1] < 0, 1] = EMPTY
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
    reference, the 2-hops by ascending predictor, as `CostTables.pred_table`
    lists them, then the 0-hops by ascending keep (EMPTY first).  The references and keeps are the buffered
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
    runs = _runs(picks, lister)
    found = Policy(buffer, weight_first_switch, *runs, fingerprint(structure), cost)
    return EvalResult(cost, found, stats)


def _runs(picks, lister) -> tuple:
    """`level_pass`'s picks as a `Policy`'s contexts, offsets, t_first,
    t_last, index and table: one stable sort of the packed keys, taken in
    rising t, puts each context's picks in rising t."""
    picks = picks[::-1]
    keys = np.concatenate([k for *_, k, _ in picks])
    order = np.argsort(keys, kind="stable")
    keys, code = keys[order], np.concatenate([c for *_, c in picks])[order]
    counts = [len(k) for *_, k, _ in picks]
    t = np.repeat([t for t, *_ in picks], counts)[order]
    low = np.repeat([low for _, low, *_ in picks], counts)[order]
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    # a pick holds down to its `low`, or to just above its key's pick below
    t_lo = low.copy()
    t_lo[1:] = np.where(new[1:], low[1:], np.maximum(low[1:], t[:-1] + 1))
    offsets, t_first, t_last, code = merge_runs(new, t_lo, t, code)
    table, index = np.unique(code, return_inverse=True)
    actions = tuple(map(lister.action, table.tolist()))
    return lister.contexts(keys[new]), offsets, t_first, t_last, index, actions


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
