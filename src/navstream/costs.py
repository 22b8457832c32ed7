"""Coding sizes, the redundant MDU structure, and what a request costs.

Size conventions: p(i, j) is the bitrate of the P representation of target
j predicted from i.  M representations exist for every MDU by default and
are therefore excluded from storage cost.

The price of a hop, P + M, and of a combo, (I + P) + M, does not depend on
the structure, so each `SizeTable` holds them as (n, n) matrices, computed
once; a `CostTables` reads them at the structure's stored edges instead of
pricing MDU by MDU.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import (
    CorruptTableError,
    InfeasibleStructureError,
    InvalidInputError,
    open_input,
    open_output,
)
from .scenario import json_int


class SizeTable:
    """Per-MDU I/M sizes and the complete ordered-pair P size matrix.

    The table is checked once, when it is built: every I size, every M size
    and every P size off the diagonal must be finite and positive, and the
    first bad entry raises `CorruptTableError`.  The diagonal of `p_size` may
    hold anything (`grid_sizes` writes NaN there), since nothing predicts an
    MDU from itself.  The arrays are the caller's (no copy is made) and must
    not be rewritten afterwards, so every read is a plain lookup, and the
    (n, n) `hop_bits` and `combo_bits` that every `CostTables` over this
    table masks are computed once, on first use.
    """

    def __init__(self, i_size, m_size, p_size):
        self.i_size = np.asarray(i_size, dtype=float)
        self.m_size = np.asarray(m_size, dtype=float)
        self.p_size = np.asarray(p_size, dtype=float)
        n = len(self.i_size)
        if self.m_size.shape != (n,) or self.p_size.shape != (n, n):
            raise InvalidInputError("size table arrays have inconsistent shapes")
        self.n = n
        diagonal = np.eye(n, dtype=bool)
        for kind, values, free in (
            ("I", self.i_size, False),
            ("M", self.m_size, False),
            ("P", self.p_size, diagonal),
        ):
            bad = np.argwhere(~(((values > 0) & (values < np.inf)) | free))
            if len(bad):
                where = tuple(int(k) for k in bad[0])
                what = f"pair {where}" if kind == "P" else f"MDU {where[0]}"
                raise CorruptTableError(f"bad {kind} size for {what}: {values[where]}")

    @cached_property
    def hop_bits(self) -> np.ndarray:
        """P_j(l) + M_j at (l, j): j predicted from l, then merged."""
        return self.p_size + self.m_size[None, :]

    @cached_property
    def combo_bits(self) -> np.ndarray:
        """I_l + P_j(l) + M_j at (l, j): j reconstructed from the I-MDU of l."""
        return self.i_size[:, None] + self.p_size + self.m_size[None, :]

    def i(self, j: int) -> float:
        return float(self.i_size[j])

    def m(self, j: int) -> float:
        return float(self.m_size[j])

    def p(self, i: int, j: int) -> float:
        if i == j:
            raise InvalidInputError(f"self-prediction P_{j}({i}) is undefined")
        return float(self.p_size[i, j])


def grid_sizes(rows: int, cols: int, p_unit: float = 1.0) -> SizeTable:
    """Synthetic sizes on a rows x cols MDU grid.

    P grows linearly with Chebyshev grid distance; I and M follow the
    measured intra/merge-to-P ratios (11x and 3.5x the adjacent P unit).
    """
    if rows < 1 or cols < 1 or p_unit <= 0:
        raise InvalidInputError("grid_sizes needs rows, cols >= 1 and p_unit > 0")
    n = rows * cols
    r = np.arange(n) // cols
    c = np.arange(n) % cols
    dist = np.maximum(
        np.abs(r[:, None] - r[None, :]), np.abs(c[:, None] - c[None, :])
    ).astype(float)
    p = p_unit * (0.2 + 0.8 * dist)
    np.fill_diagonal(p, np.nan)
    i_size = np.full(n, 11.0 * p_unit)
    m_size = np.full(n, 3.5 * p_unit)
    return SizeTable(i_size, m_size, p)


def uniform_sizes(n: int, p_unit: float = 1.0) -> SizeTable:
    """Paper-ratio sizes for any graph: |I| = 11x, |M| = 3.5x, |P| = 1x p_unit."""
    if p_unit <= 0:
        raise InvalidInputError("uniform_sizes needs p_unit > 0")
    p = np.full((n, n), float(p_unit))
    np.fill_diagonal(p, np.nan)
    return SizeTable(np.full(n, 11.0 * p_unit), np.full(n, 3.5 * p_unit), p)


@dataclass(frozen=True)
class LandmarkGroup:
    """A landmark and the member MDUs it predicts; the landmark is a member,
    so a group is never empty."""

    landmark: int
    members: frozenset[int]

    def __post_init__(self):
        if self.landmark not in self.members:
            raise InvalidInputError(f"landmark {self.landmark} is not in its group")


def landmark_edges(groups) -> frozenset[tuple[int, int]]:
    """The P-edges a landmark structure stores: a spoke from each landmark
    to every other member of its group, and one per ordered landmark pair."""
    lms = [g.landmark for g in groups]
    spokes = ((g.landmark, j) for g in groups for j in g.members if j != g.landmark)
    pairs = ((a, b) for a in lms for b in lms if a != b)
    # a set first, then frozen: that table layout fixes the order p_edges
    # iterates in, and so the order storage_cost adds its sizes in
    return frozenset({*spokes, *pairs})


@dataclass(frozen=True)
class Structure:
    """The stored representation set: I flags, P edges, landmark partitions."""

    i_set: frozenset[int]
    p_edges: frozenset[tuple[int, int]]
    landmarks: tuple[LandmarkGroup, ...] | None = None

    def with_edge(self, edge: tuple[int, int]) -> "Structure":
        return replace(self, p_edges=self.p_edges | {edge})

    def with_edges(self, edges) -> "Structure":
        return replace(self, p_edges=self.p_edges | set(edges))

    def without_edge(self, edge: tuple[int, int]) -> "Structure":
        new = replace(self, p_edges=self.p_edges - {edge})
        if new.landmarks is not None and new._landmark_edges_broken():
            new = replace(new, landmarks=None)
        return new

    def _landmark_edges_broken(self) -> bool:
        return not landmark_edges(self.landmarks or ()) <= self.p_edges

    def validate(self, n: int) -> list[str]:
        problems = _end_problems(self, n)
        if self.landmarks is not None:
            seen: set[int] = set()
            for grp in self.landmarks:
                if grp.landmark not in self.i_set:
                    problems.append(f"landmark {grp.landmark} has no stored I-MDU")
                if seen & grp.members:
                    problems.append("landmark partitions overlap")
                seen |= grp.members
            if seen != set(range(n)):
                problems.append("landmark partitions do not cover all MDUs")
            if self._landmark_edges_broken():
                problems.append("landmark P-edges missing from p_edges")
        return problems


def all_i_structure(n: int) -> Structure:
    """Every MDU intra-coded, no P edges: the no-landmark initialization."""
    return Structure(i_set=frozenset(range(n)), p_edges=frozenset())


def _end_problems(structure: Structure, n: int) -> list[str]:
    """The least I-MDU and the least P-edge of `structure` with an end
    outside [0, n), and its least self-edge (l, l): nothing predicts an MDU
    from itself.  One min/max pass finds a structure with none."""
    problems, i_set, p_edges = [], structure.i_set, structure.p_edges
    if i_set and not (0 <= min(i_set) and max(i_set) < n):
        outside = min(j for j in i_set if not 0 <= j < n)
        problems.append(f"I-MDU {outside} is outside [0, {n})")
    ends = list(chain.from_iterable(p_edges))
    if ends and not (0 <= min(ends) and max(ends) < n):
        l, j = min(e for e in p_edges if not (0 <= min(e) and max(e) < n))
        problems.append(f"P-edge ({l}, {j}) is outside [0, {n})")
    loops = [l for (l, j) in p_edges if l == j]
    if loops:
        problems.append(f"P-edge ({min(loops)}, {min(loops)}) is a self-edge")
    return problems


def _refuse_outside(structure: Structure, n: int) -> None:
    """Raise `InvalidInputError` with the first of `_end_problems`."""
    problems = _end_problems(structure, n)
    if problems:
        raise InvalidInputError(problems[0])


def refuse_other_n(sizes: SizeTable, n: int) -> None:
    """Raise `InvalidInputError` unless the size table covers exactly `n` MDUs."""
    if sizes.n != n:
        raise InvalidInputError(f"size table covers {sizes.n} MDUs, the scenario has {n}")


def storage_cost(structure: Structure, sizes: SizeTable) -> float:
    """Total bits of stored I-MDUs and P-MDUs (M-MDUs are implicit); a
    structure outside the size table's MDUs raises `InvalidInputError`."""
    _refuse_outside(structure, sizes.n)
    total = 0.0
    for j in structure.i_set:
        total += sizes.i(j)
    for (i, j) in structure.p_edges:
        total += sizes.p(i, j)
    return total


class CostTables:
    """The one place that prices a request under (structure, sizes).

    Every price is an array, read from the size table's `hop_bits` and
    `combo_bits` matrices at the structure's stored edges; `i_mask` marks
    the stored I-MDUs and `stored` the stored edges.  `source_bits[l, j]`
    is what reconstructing j independently via l costs: its diagonal holds
    the bare I-MDUs, and entry (l, j) `combo_bits[l, j]` for a stored I-MDU
    l with a stored edge (l, j); +inf elsewhere.  `r_i[j]` is its column
    minimum, the cheapest independent reconstruction of j.  `p_bits` holds
    `hop_bits` at the stored edges and `pred_table` each MDU's stored
    predictors in ascending order.  A size table that does not cover
    exactly `n` MDUs, or an I-MDU or P-edge end outside [0, n), or a
    self-edge, raises `InvalidInputError`, an MDU with no independent
    reconstruction `InfeasibleStructureError`.  Only `r_i` is built up
    front; the rest when first read, from the edges' ends.
    """

    def __init__(self, structure: Structure, sizes: SizeTable, n: int):
        refuse_other_n(sizes, n)
        self.structure = structure
        self.sizes = sizes
        self.n = n
        _refuse_outside(structure, n)
        i_set, p_edges = structure.i_set, structure.p_edges
        self.i_mask = np.zeros(n, dtype=bool)
        self.i_mask[np.fromiter(i_set, np.intp, len(i_set))] = True
        ends = np.fromiter(chain.from_iterable(p_edges), np.intp, 2 * len(p_edges))
        self._tail, self._head = ends.reshape(-1, 2).T  # in `p_edges` order
        r_i = np.where(self.i_mask, sizes.i_size, math.inf)
        l, j = self._combos
        np.minimum.at(r_i, j, sizes.combo_bits[l, j])
        (bad,) = np.nonzero(r_i == math.inf)
        if len(bad):
            raise InfeasibleStructureError(
                f"MDU {bad[0]} has no independent reconstruction"
            )
        self.r_i = r_i

    @property
    def _combos(self) -> tuple[np.ndarray, np.ndarray]:
        """The stored edges (l, j) from a stored I-MDU l."""
        combo = self.i_mask[self._tail]
        return self._tail[combo], self._head[combo]

    @cached_property
    def stored(self) -> np.ndarray:
        stored = np.zeros((self.n, self.n), dtype=bool)
        stored[self._tail, self._head] = True
        return stored

    @cached_property
    def source_bits(self) -> np.ndarray:
        bits = np.full((self.n, self.n), math.inf)
        l, j = self._combos
        bits[l, j] = self.sizes.combo_bits[l, j]
        np.fill_diagonal(bits, np.where(self.i_mask, self.sizes.i_size, math.inf))
        return bits

    @cached_property
    def p_bits(self) -> np.ndarray:
        """The stored edges' hop bits as an (n + 1, n + 1) matrix indexed by
        MDU + 1 on both axes, +inf where no edge is stored.  Row and column 0
        stand for no MDU (the empty buffer, or an index out of range) and are
        +inf throughout."""
        bits = np.full((self.n + 1, self.n + 1), math.inf)
        l, j = self._tail, self._head
        bits[l + 1, j + 1] = self.sizes.hop_bits[l, j]
        return bits

    @cached_property
    def pred_table(self) -> tuple[np.ndarray, np.ndarray]:
        """Each MDU's stored predictors as an (n, D) matrix, D the most
        predictors of any MDU, and each predictor's hop bits: row j lists j's
        stored predictors in ascending order, padded with MDU 0 at +inf bits."""
        order = np.lexsort((self._tail, self._head))
        l, j = self._tail[order], self._head[order]
        rank = np.arange(len(j)) - np.searchsorted(j, j)
        pred = np.zeros((self.n, rank.max(initial=-1) + 1), dtype=np.intp)
        bits = np.full(pred.shape, math.inf)
        pred[j, rank] = l
        bits[j, rank] = self.sizes.hop_bits[l, j]
        return pred, bits


def zero_hop_overhead(structure: Structure, sizes: SizeTable, target: int) -> float:
    """Cheapest independent reconstruction of the target, worked out from
    scratch: its own stored I-MDU, or I_l + P_target(l) + M_target for a
    stored I-MDU l with a stored edge (l, target).  The reference that
    `CostTables.r_i` is checked against; the unmemoized oracle reads it.
    """
    costs = [
        sizes.i(l) + sizes.p(l, target) + sizes.m(target)
        for l in structure.i_set
        if (l, target) in structure.p_edges
    ]
    if target in structure.i_set:
        costs.append(sizes.i(target))
    if not costs:
        raise InfeasibleStructureError(
            f"MDU {target} has no independent reconstruction"
        )
    return min(costs)


# --- file formats -----------------------------------------------------------

def save_structure(structure: Structure, path) -> None:
    data = {
        "i_set": sorted(structure.i_set),
        "p_edges": sorted([i, j] for (i, j) in structure.p_edges),
    }
    if structure.landmarks is not None:
        data["landmarks"] = [
            {"l": grp.landmark, "members": sorted(grp.members)}
            for grp in structure.landmarks
        ]
    with open_output("structure", path) as fh:
        json.dump(data, fh, indent=1)


def load_structure(path) -> Structure:
    with open_input("structure", path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidInputError("structure file must hold a JSON object")
    unknown = set(data) - {"i_set", "p_edges", "landmarks"}
    if unknown:
        raise InvalidInputError(f"unknown structure keys: {sorted(unknown)}")
    try:
        landmarks = None
        if "landmarks" in data and data["landmarks"] is not None:
            landmarks = tuple(
                LandmarkGroup(
                    landmark=json_int(grp["l"]),
                    members=frozenset(map(json_int, grp["members"])),
                )
                for grp in data["landmarks"]
            )
        return Structure(
            i_set=frozenset(map(json_int, data["i_set"])),
            p_edges=frozenset((json_int(i), json_int(j)) for i, j in data["p_edges"]),
            landmarks=landmarks,
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidInputError(f"malformed structure file: {exc}") from exc


def write_sizes(sizes: SizeTable, fh) -> None:
    """The sizes CSV, to `fh` opened with newline=""."""
    writer = csv.writer(fh)
    writer.writerow(["kind", "i", "j", "bits"])
    for i in range(sizes.n):
        writer.writerow(["I", i, "", repr(float(sizes.i_size[i]))])
    for i in range(sizes.n):
        writer.writerow(["M", i, "", repr(float(sizes.m_size[i]))])
    for i in range(sizes.n):
        for j in range(sizes.n):
            if i != j:
                writer.writerow(["P", i, j, repr(float(sizes.p_size[i, j]))])


def save_sizes(sizes: SizeTable, path) -> None:
    with open_output("sizes", path, newline="") as fh:
        write_sizes(sizes, fh)


def load_sizes(path) -> SizeTable:
    with open_input("sizes", path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames, list(reader)
    if header != ["kind", "i", "j", "bits"]:
        raise InvalidInputError(f"sizes CSV must have header kind,i,j,bits, got {header}")
    try:
        n = 1 + max(
            max((int(r["i"]) for r in rows), default=-1),
            max((int(r["j"]) for r in rows if r["j"] != ""), default=-1),
        )
    except (TypeError, ValueError) as exc:  # TypeError: a short row
        raise InvalidInputError(f"malformed sizes CSV: {exc}") from exc
    if n <= 0:
        raise InvalidInputError("sizes CSV holds no entries")
    if len(rows) < n * n + n:
        # n I rows, n M rows and n(n - 1) P rows, none repeated: checked before
        # the n x n table is allocated, so a stray large index cannot exhaust memory
        raise CorruptTableError(
            f"sizes CSV has {len(rows)} rows, but a complete table up to MDU "
            f"{n - 1} needs {n * n + n}"
        )
    tables = {"I": np.full(n, np.nan), "M": np.full(n, np.nan)}
    tables["P"] = np.full((n, n), np.nan)
    seen = set()
    for r in rows:
        try:
            kind, bits = r["kind"], float(r["bits"])
            if kind not in tables:
                raise InvalidInputError(f"unknown size kind {kind!r}")
            at = (int(r["i"]), int(r["j"])) if kind == "P" else (int(r["i"]),)
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed sizes row {r}: {exc}") from exc
        if min(at) < 0:
            raise InvalidInputError(f"negative MDU index in sizes row {r}")
        if (kind, at) in seen:
            raise InvalidInputError(f"repeated sizes row {r}")
        seen.add((kind, at))
        tables[kind][at] = bits
    return SizeTable(tables["I"], tables["M"], tables["P"])
