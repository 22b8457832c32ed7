"""Reference optimizers and the infinite-buffer cost model.

Variants:
  flex-ga / fixed-ga  all-I start, greedy addition of single P-edges (plus
                      symmetric reverse pairs for the flexible buffer)
  flex-lm-i           all-I start plus the landmark P-edges, greedy add
                      then greedy subtract
  inf-lm              landmark structure costed under an infinite buffer
                      where every previously transmitted MDU is a free
                      predictor and revisits are free

flex-ga, fixed-ga and flex-lm-i are each one call of refine's greedy engine
(`greedy_search`): flex-ga scans add-edge then add-pair moves, fixed-ga
add-edge moves, and flex-lm-i runs an add-edge phase and then a remove-edge
phase, so its added structure is evaluated once.  All three honour
`enable_pruning`, so the engine's request bound prunes their moves, and
each takes its final exact cost from the engine's log instead of evaluating
the result again.

flex-lm-i and inf-lm plan their landmarks with `landmarks.landmark_structure`
on the caller's Scenario, so they read the q its `switch_probs` caches.

inf-lm's exact cost is a level pass over states (prev, cur, avail) held as
uint64 rows: the (prev, cur) pair's `Scenario.pair_index` id, then `avail`,
the MDUs sent so far, as ceil(n/64) mask words.  Each level's distinct
states are found by hashing whole rows, and every hash match is confirmed
word by word.  The pass grows each level a chunk of states at a time and
refuses more than `max_states` reachable states as soon as its running count
passes that, before any state is valued; the baseline then reports the
Monte-Carlo estimate and logs at INFO which cost it used.  One vectorised
lister, `_Lister`, gives a request's options in tie order to both the exact
pass and the estimate, which draws its sessions from
`scenario.sample_sessions` and advances them all one switch at a time.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass, replace
from itertools import chain, count

import numpy as np

from .costs import CostTables, SizeTable, Structure, all_i_structure, storage_cost
from .errors import InvalidInputError, OracleRefusalError, open_output
from .landmarks import landmark_structure
from .refine import (
    RefinerParams,
    RefineLog,
    TradeoffRow,
    add_edges,
    add_reverse_pairs,
    greedy_search,
    one_edge_steps,
    remove_edges,
)
from .scenario import PairIndex, Scenario, csr_slots, left_sum, sample_sessions

logger = logging.getLogger(__name__)

VARIANTS = ("flex-ga", "fixed-ga", "flex-lm-i", "inf-lm")

_INF_MAX_STATES = 200_000
_INF_ESTIMATE_SESSIONS = 20_000


@dataclass
class BaselineResult:
    variant: str
    structure: Structure
    expected_cost: float
    storage_bits: float
    log: RefineLog | None = None


class _Lister:
    """The infinite buffer's options, listed for many requests at once.

    A mask of held MDUs is ceil(n/64) uint64 words, MDU m in bit m % 64 of
    word m // 64.  `bits(avail, j)` takes masks avail[r] and targets j[r]
    and returns every request's options as a (rows, K) array of immediate
    bits, +inf where a slot holds no option; slot k of target j sends the
    MDUs `add[j, k]`, so it leads to the mask avail[r] | add[j[r], k].  The
    slots are in the tie order of both infinite-buffer paths:

    - a held target: 0 bits, and it sends nothing; then no other option;
    - each of j's zero-hop sources, `CostTables.sources[j]`;
    - the cheapest 1-hop from a held predictor of j;
    - per stored predictor `mid` of j, ascending, that is not held but has a
      held predictor: the cheapest such 2-hop through `mid`.

    `start_bits` lists the options of the start MDU to an empty mask: its
    zero-hop sources.
    """

    def __init__(self, scenario: Scenario, sizes: SizeTable, structure: Structure):
        n = scenario.graph.n
        tables = CostTables(structure, sizes, n)
        n_src = max(map(len, tables.sources))
        n_pred = max(map(len, tables.preds))
        self.words = -(-n // 64)
        onehot = np.zeros((n, self.words), dtype=np.uint64)
        onehot[np.arange(n), np.arange(n) // 64] = np.uint64(1) << (
            np.arange(n) % 64
        ).astype(np.uint64)
        self.src_bits = np.full((n, n_src), math.inf)
        self.pred = np.zeros((n, n_pred), dtype=np.intp)
        self.pred_bits = np.full((n, n_pred), math.inf)
        # slots: held target, sources, 1-hop, one 2-hop per stored predictor
        self.add = np.zeros((n, 2 + n_src + n_pred, self.words), dtype=np.uint64)
        for j in range(n):
            for s, (c, l) in enumerate(tables.sources[j]):
                self.src_bits[j, s] = c
                self.add[j, 1 + s] = onehot[l] | onehot[j]
            self.add[j, 1 + n_src:] = onehot[j]
            for d, l in enumerate(tables.preds[j]):
                self.pred[j, d] = l
                self.pred_bits[j, d] = tables.r_p[(l, j)]
                self.add[j, 2 + n_src + d] |= onehot[l]
        self.start = scenario.graph.start
        self.start_bits = self.bits(
            np.zeros((1, self.words), dtype=np.uint64), np.array([self.start])
        )[0]

    @staticmethod
    def _held(avail: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Whether mask avail[r] holds MDU x[r, d], for x of shape (rows, D)."""
        words = np.take_along_axis(avail, x // 64, axis=1)
        return (words >> (x % 64).astype(np.uint64) & np.uint64(1)).astype(bool)

    def _hop(self, avail: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The cheapest 1-hop into each x[r] from a predictor held in avail[r]."""
        held = self._held(avail, self.pred[x])
        return np.where(held, self.pred_bits[x], math.inf).min(axis=1, initial=math.inf)

    def bits(self, avail: np.ndarray, j: np.ndarray) -> np.ndarray:
        """The (rows, K) bits of every slot for masks avail[r] and targets j[r]."""
        n_src = self.src_bits.shape[1]
        held = self._held(avail, j[:, None])[:, 0]
        out = np.empty((len(j), self.add.shape[1]))
        out[:, 0] = np.where(held, 0.0, math.inf)
        out[:, 1:1 + n_src] = self.src_bits[j]
        out[:, 1 + n_src] = self._hop(avail, j)
        mid = self.pred[j]
        two = np.full(mid.shape, math.inf)
        r, d = np.nonzero((self.pred_bits[j] < math.inf) & ~self._held(avail, mid))
        two[r, d] = self._hop(avail[r], mid[r, d]) + self.pred_bits[j[r], d]
        out[:, 2 + n_src:] = two
        out[held, 1:] = math.inf
        return out


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
    """The distinct states of one level as rows [pair id, mask words...].

    Rows are kept in the order of their hashes, which are distinct.  A hash
    only finds a candidate: every match is confirmed on the whole row.
    """

    def __init__(self, width: int, salt: int):
        self.salt = salt
        self.keys = np.empty(0, dtype=np.uint64)
        self.rows = np.empty((0, width), dtype=np.uint64)

    def add(self, rows: np.ndarray) -> None:
        """Add the states `rows`, which may repeat each other or this level's."""
        h = _hashes(rows, self.salt)
        order = np.argsort(h)
        h, rows = h[order], rows[order]
        head = np.ones(len(h), dtype=bool)
        head[1:] = h[1:] != h[:-1]
        h, firsts = h[head], rows[head]
        if not (rows == firsts[np.cumsum(head) - 1]).all():
            raise _Collision
        pos = np.searchsorted(self.keys, h)
        hit = np.zeros(len(h), dtype=bool)
        inside = pos < len(self.keys)
        hit[inside] = self.keys[pos[inside]] == h[inside]
        if not (self.rows[pos[hit]] == firsts[hit]).all():
            raise _Collision
        self.keys = np.insert(self.keys, pos[~hit], h[~hit])
        self.rows = np.insert(self.rows, pos[~hit], firsts[~hit], axis=0)

    def index(self, rows: np.ndarray) -> np.ndarray:
        """The positions of the states `rows`, each of which is in this level."""
        h = _hashes(rows, self.salt)
        pos = np.minimum(np.searchsorted(self.keys, h), len(self.keys) - 1)
        if not ((self.keys[pos] == h).all() and (self.rows[pos] == rows).all()):
            raise RuntimeError("infinite-buffer pass: a successor is not in its level")
        return pos


_CHUNK = 4096  # states expanded at once; a refusal stops within a level


def _expand(index: PairIndex, lister: _Lister, rows: np.ndarray):
    """The requests of the states `rows` and where their options lead.

    Returns each request's state (a position in `rows`) and pair-index
    slot, its options' bits from `lister`, the (request, slot) of every
    option, and the row of the state each option leads to.
    """
    counts, slots = csr_slots(index.offsets, rows[:, 0].astype(np.intp))
    state = np.repeat(np.arange(len(rows)), counts)
    avail, j = rows[state, 1:], index.target[slots]
    bits = lister.bits(avail, j)
    r, k = np.nonzero(bits < math.inf)
    nxt = np.empty((len(r), rows.shape[1]), dtype=np.uint64)
    nxt[:, 0] = index.succ[slots[r]]
    nxt[:, 1:] = avail[r] | lister.add[j[r], k]
    return state, slots, bits, (r, k), nxt


def _inf_levels(scenario, lister, roots, max_states, salt) -> list:
    """The reachable states, level by level, as `_Level`s hashed with `salt`."""
    index, g = scenario.pair_index, scenario.lifetime.g
    levels = [_Level(roots.shape[1], salt)]
    levels[0].add(roots)
    reached = len(levels[0].keys)
    while reached <= max_states and g(len(levels)) > 0.0:
        above, nxt = levels[-1].rows, _Level(roots.shape[1], salt)
        for lo in range(0, len(above), _CHUNK):
            nxt.add(_expand(index, lister, above[lo:lo + _CHUNK])[-1])
            if reached + len(nxt.keys) > max_states:
                break
        reached += len(nxt.keys)
        levels.append(nxt)
    for t, level in enumerate(levels):
        logger.debug("infinite-buffer level %d: %d states", t, len(level.keys))
    if reached > max_states:
        raise OracleRefusalError(
            f"infinite-buffer pass exceeds {max_states} reachable states "
            f"at level {len(levels) - 1}"
        )
    return levels


def inf_buffer_cost(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    weight_first_switch: bool = False,
    max_states: int = _INF_MAX_STATES,
) -> float:
    """Exact expected cost with an unbounded reference buffer.

    Any MDU transmitted earlier in the session is a free predictor and a
    free revisit, so a state is (prev, cur, avail), `avail` the mask of
    transmitted MDUs, and a request's options are `_Lister`'s.  A forward
    pass collects each level's distinct states (t = 0 up to the last t with
    g(t) > 0) from the followed requests of `Scenario.pair_index`, `_CHUNK`
    states at a time, and logs each level's size at DEBUG.  More than
    `max_states` states in all raise `OracleRefusalError` as soon as the
    running count passes it, before any state is valued.  A backward pass
    then values the states from the last level down: a request takes the
    minimum of imm + g(t+1)·V(next), or just imm once g(t+1) = 0, and each
    state adds p · that minimum over its requests in graph order.
    """
    lister = _Lister(scenario, sizes, structure)
    index, g = scenario.pair_index, scenario.lifetime.g
    (ks,) = np.nonzero(lister.start_bits < math.inf)
    roots = np.zeros((len(ks), 1 + lister.words), dtype=np.uint64)
    roots[:, 1:] = lister.add[lister.start, ks]
    for salt in count():
        try:
            levels = _inf_levels(scenario, lister, roots, max_states, salt)
            break
        except _Collision:
            continue
    values = None
    for t in range(len(levels) - 1, -1, -1):
        g_next, rows = g(t + 1), levels[t].rows
        cur = np.empty(len(rows))
        for lo in range(0, len(rows), _CHUNK):
            chunk = rows[lo:lo + _CHUNK]
            state, slots, bits, (r, k), nxt = _expand(index, lister, chunk)
            if g_next > 0.0:
                bits[r, k] += g_next * values[levels[t + 1].index(nxt)]
            best = bits.min(axis=1)
            # np.bincount adds each state's terms in turn from 0.0, in graph order
            cur[lo:lo + len(chunk)] = np.bincount(
                state, weights=index.prob[slots] * best, minlength=len(chunk)
            )
        values = cur
    w1 = g(1) if weight_first_switch else 1.0
    first = zip(lister.start_bits[ks].tolist(), values[levels[0].index(roots)].tolist())
    return min(c + w1 * v for c, v in first)


def inf_buffer_estimate(
    scenario: Scenario,
    sizes: SizeTable,
    structure: Structure,
    n_sessions: int = _INF_ESTIMATE_SESSIONS,
    seed: int = 0,
) -> float:
    """Monte-Carlo myopic estimate of the infinite-buffer cost.

    Each request takes the first cheapest of `_Lister`'s options along
    sessions from `sample_sessions`, whose lengths follow the renormalised
    lifetime pmf, not the g-products of `inf_buffer_cost`, so this is no
    bound on that value.  Used where the exact pass refuses.  All sessions
    are drawn first, then advanced one switch at a time together.
    """
    lister = _Lister(scenario, sizes, structure)
    paths = list(sample_sessions(scenario, n_sessions, seed))
    lengths = np.array(list(map(len, paths)), dtype=np.intp)
    targets = np.zeros((n_sessions, lengths.max(initial=0)), dtype=np.intp)
    targets[np.arange(targets.shape[1]) < lengths[:, None]] = list(
        chain.from_iterable(paths)
    )
    k = lister.start_bits.argmin()
    avail = np.tile(lister.add[lister.start, k], (n_sessions, 1))
    bits = np.full(n_sessions, lister.start_bits[k])
    for t in range(targets.shape[1]):
        at = np.flatnonzero(lengths > t)
        j = targets[at, t]
        opts = lister.bits(avail[at], j)
        k = opts.argmin(axis=1)
        bits[at] += opts[np.arange(len(at)), k]
        avail[at] |= lister.add[j, k]
    return left_sum(bits.tolist()) / n_sessions


def run_baseline(
    scenario: Scenario,
    sizes: SizeTable,
    params: RefinerParams,
    variant: str,
) -> BaselineResult:
    if variant not in VARIANTS:
        raise InvalidInputError(
            f"unknown baseline variant {variant!r}; pick one of {VARIANTS}"
        )
    n = scenario.graph.n
    if variant == "inf-lm":
        lm = landmark_structure(scenario, sizes, params.lam)
        try:
            cost = inf_buffer_cost(scenario, sizes, lm)
        except OracleRefusalError as exc:
            cost = inf_buffer_estimate(scenario, sizes, lm)
            logger.info(
                "inf-lm cost: Monte-Carlo estimate %r over %d sessions after "
                "the exact pass refused: %s",
                cost, _INF_ESTIMATE_SESSIONS, exc,
            )
        else:
            logger.info("inf-lm cost: exact infinite-buffer cost %r", cost)
        return BaselineResult(
            variant=variant,
            structure=lm,
            expected_cost=cost,
            storage_bits=storage_cost(lm, sizes),
        )
    buffer = "fixed" if variant == "fixed-ga" else "flex"
    run = replace(params, buffer=buffer)
    if variant == "flex-lm-i":
        lm = landmark_structure(scenario, sizes, params.lam)
        init = replace(lm, i_set=frozenset(range(n)))
        final, log = greedy_search(
            scenario, sizes, init, run, (add_edges,), (remove_edges,)
        )
        one_edge_steps(log)
    else:
        moves = (add_edges, add_reverse_pairs) if buffer == "flex" else (add_edges,)
        final, log = greedy_search(scenario, sizes, all_i_structure(n), run, moves)
    return BaselineResult(
        variant=variant,
        structure=final,
        expected_cost=log.expected_cost,
        storage_bits=storage_cost(final, sizes),
        log=log,
    )


def emit_tradeoff_csv(rows: list[tuple[str, TradeoffRow]], path) -> None:
    """CSV of (method, lambda, storage, transmission, landmark/edge counts)."""
    if not rows:
        raise InvalidInputError("no tradeoff rows to write")
    with open_output("tradeoff", path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "lambda", "storage_bits", "expected_bits",
             "landmarks", "p_edges"]
        )
        for method, row in rows:
            writer.writerow(
                [method, repr(float(row.lam)), repr(float(row.storage_bits)),
                 repr(float(row.expected_bits)), row.landmarks, row.p_edges]
            )
