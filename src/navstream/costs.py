"""Coding sizes and the redundant MDU structure.

Size conventions: p(i, j) is the bitrate of the P representation of target
j predicted from i.  M representations exist for every MDU by default and
are therefore excluded from storage cost.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import CorruptTableError, InfeasibleStructureError, InvalidInputError

UNAVAILABLE = math.inf


class SizeTable:
    """Per-MDU I/M sizes and the complete ordered-pair P size matrix."""

    def __init__(self, i_size, m_size, p_size):
        self.i_size = np.asarray(i_size, dtype=float)
        self.m_size = np.asarray(m_size, dtype=float)
        self.p_size = np.asarray(p_size, dtype=float)
        n = len(self.i_size)
        if self.m_size.shape != (n,) or self.p_size.shape != (n, n):
            raise InvalidInputError("size table arrays have inconsistent shapes")
        self.n = n

    def i(self, j: int) -> float:
        v = self.i_size[j]
        if not np.isfinite(v) or v <= 0:
            raise CorruptTableError(f"bad I size for MDU {j}: {v}")
        return float(v)

    def m(self, j: int) -> float:
        v = self.m_size[j]
        if not np.isfinite(v) or v <= 0:
            raise CorruptTableError(f"bad M size for MDU {j}: {v}")
        return float(v)

    def p(self, i: int, j: int) -> float:
        if i == j:
            raise InvalidInputError(f"self-prediction P_{j}({i}) is undefined")
        v = self.p_size[i, j]
        if not np.isfinite(v) or v <= 0:
            raise CorruptTableError(f"bad P size for pair ({i}, {j}): {v}")
        return float(v)

    def validate(self) -> list[str]:
        problems = []
        if np.any(~np.isfinite(self.i_size)) or np.any(self.i_size <= 0):
            problems.append("I sizes must be positive and finite")
        if np.any(~np.isfinite(self.m_size)) or np.any(self.m_size <= 0):
            problems.append("M sizes must be positive and finite")
        off = ~np.eye(self.n, dtype=bool)
        if np.any(~np.isfinite(self.p_size[off])) or np.any(self.p_size[off] <= 0):
            problems.append("P sizes must be positive and finite for all i != j")
        return problems


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
    """A landmark and the member MDUs it predicts."""

    landmark: int
    members: frozenset[int]


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
        for grp in self.landmarks or ():
            for j in grp.members:
                if j != grp.landmark and (grp.landmark, j) not in self.p_edges:
                    return True
        lms = [g.landmark for g in self.landmarks or ()]
        for a in lms:
            for b in lms:
                if a != b and (a, b) not in self.p_edges:
                    return True
        return False

    def validate(self, n: int) -> list[str]:
        problems = []
        for j in self.i_set:
            if not (0 <= j < n):
                problems.append(f"i_set MDU {j} out of range")
        for (i, j) in self.p_edges:
            if i == j:
                problems.append(f"self-edge ({i}, {j})")
            if not (0 <= i < n and 0 <= j < n):
                problems.append(f"p_edge ({i}, {j}) out of range")
        if self.landmarks is not None:
            seen: set[int] = set()
            for grp in self.landmarks:
                if grp.landmark not in grp.members:
                    problems.append(f"landmark {grp.landmark} not in its members")
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


def storage_cost(structure: Structure, sizes: SizeTable) -> float:
    """Total bits of stored I-MDUs and P-MDUs (M-MDUs are implicit)."""
    total = 0.0
    for j in structure.i_set:
        total += sizes.i(j)
    for (i, j) in structure.p_edges:
        total += sizes.p(i, j)
    return total


def one_hop_overhead(
    structure: Structure, sizes: SizeTable, predictor: int, target: int
) -> float:
    """P + M bits for a stored edge, UNAVAILABLE (+inf) otherwise."""
    if predictor == target:
        raise InvalidInputError("one-hop predictor must differ from target")
    if (predictor, target) not in structure.p_edges:
        return UNAVAILABLE
    return sizes.p(predictor, target) + sizes.m(target)


def zero_hop_overhead(structure: Structure, sizes: SizeTable, target: int) -> float:
    """Cheapest independent reconstruction of the target.

    Candidates: the stored I-MDU of the target itself, or a stored I-MDU l
    with a stored edge (l, target) sent as I_l + P_target(l) + M_target.
    Ties go to the bare I-MDU, then to the lowest predictor index.
    """
    best = UNAVAILABLE
    if target in structure.i_set:
        best = sizes.i(target)
    for l in sorted(structure.i_set):
        if l == target or (l, target) not in structure.p_edges:
            continue
        combo = sizes.i(l) + sizes.p(l, target) + sizes.m(target)
        if combo < best:
            best = combo
    if best is UNAVAILABLE or math.isinf(best):
        raise InfeasibleStructureError(
            f"MDU {target} has no independent reconstruction"
        )
    return best


def zero_hop_sources(structure: Structure, sizes: SizeTable, target: int):
    """All (cost, transmitted-MDU-set) independent reconstructions of target."""
    out = []
    if target in structure.i_set:
        out.append((sizes.i(target), frozenset([target])))
    for l in sorted(structure.i_set):
        if l == target or (l, target) not in structure.p_edges:
            continue
        cost = sizes.i(l) + sizes.p(l, target) + sizes.m(target)
        out.append((cost, frozenset([l, target])))
    if not out:
        raise InfeasibleStructureError(
            f"MDU {target} has no independent reconstruction"
        )
    return out


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def load_structure(path) -> Structure:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InvalidInputError(f"cannot read structure {path}: {exc}") from exc
    unknown = set(data) - {"i_set", "p_edges", "landmarks"}
    if unknown:
        raise InvalidInputError(f"unknown structure keys: {sorted(unknown)}")
    try:
        landmarks = None
        if "landmarks" in data and data["landmarks"] is not None:
            landmarks = tuple(
                LandmarkGroup(
                    landmark=int(grp["l"]),
                    members=frozenset(int(m) for m in grp["members"]),
                )
                for grp in data["landmarks"]
            )
        return Structure(
            i_set=frozenset(int(j) for j in data["i_set"]),
            p_edges=frozenset((int(i), int(j)) for i, j in data["p_edges"]),
            landmarks=landmarks,
        )
    except (TypeError, ValueError, KeyError) as exc:
        raise InvalidInputError(f"malformed structure file: {exc}") from exc


def save_sizes(sizes: SizeTable, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
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


def load_sizes(path) -> SizeTable:
    rows = []
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != ["kind", "i", "j", "bits"]:
                raise InvalidInputError(
                    f"sizes CSV must have header kind,i,j,bits, got {reader.fieldnames}"
                )
            rows = list(reader)
    except OSError as exc:
        raise InvalidInputError(f"cannot read sizes {path}: {exc}") from exc
    try:
        n = 1 + max(
            max((int(r["i"]) for r in rows), default=-1),
            max((int(r["j"]) for r in rows if r["j"] != ""), default=-1),
        )
    except ValueError as exc:
        raise InvalidInputError(f"malformed sizes CSV: {exc}") from exc
    if n <= 0:
        raise InvalidInputError("sizes CSV holds no entries")
    i_size = np.full(n, np.nan)
    m_size = np.full(n, np.nan)
    p_size = np.full((n, n), np.nan)
    for r in rows:
        try:
            kind, i, bits = r["kind"], int(r["i"]), float(r["bits"])
            if kind == "I":
                i_size[i] = bits
            elif kind == "M":
                m_size[i] = bits
            elif kind == "P":
                p_size[i, int(r["j"])] = bits
            else:
                raise InvalidInputError(f"unknown size kind {kind!r}")
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"malformed sizes row {r}: {exc}") from exc
    table = SizeTable(i_size, m_size, p_size)
    problems = table.validate()
    if problems:
        raise CorruptTableError("; ".join(problems))
    return table
