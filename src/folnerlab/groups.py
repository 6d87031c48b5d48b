"""Group arithmetic and Folner-set machinery.

Built-in groups: the integers ``Z``, the lattices ``Z^d`` (tag ``"Z^2"``,
``"Z^3"``, ...) and the discrete Heisenberg group (tag ``"heisenberg"``,
coordinates (a, b, c) with law (a,b,c)*(a',b',c') = (a+a', b+b', c+c'+a*b')).

All counting quantities (averaging-set defects, temperedness ratios) are
exact rationals; coordinates are arbitrary-precision integers, so nothing
can overflow silently.

How the counts are made.  Each count is the size of a product set A*B:
|gF sym-diff F| = 2(|{e, g}F| - |F|) because translation is a bijection,
and the temperedness union is (union of F_k^{-1}) F_n.  When the
coordinates fit in int64, every product a*b is packed into one int64 key
over the box that holds all products, as ka + kb plus, for the Heisenberg
group, a0*b1 in the c-column; no product coordinates are formed.  Keys
are marked on a bool bitmap when the box has at most 2^24 cells, and
otherwise collected as unique keys in a set.  Exact Python-int bounds are
checked before each int64 step (inverses, the a0*b1 corners, a box under
2^62 cells), so no step can wrap.  When a check fails, or a coordinate
does not fit in int64, the products are counted as a set of Python-int
tuples.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import GroupMismatchError, SearchBudgetExceededError, UnsupportedCaseError

__all__ = [
    "GroupElement",
    "FiniteSubset",
    "FolnerSequence",
    "TemperednessReport",
    "group_rank",
    "identity",
    "element",
    "multiply",
    "inverse",
    "translate_left",
    "translate_right",
    "invert_subset",
    "product_subset",
    "symmetric_difference_size",
    "folner_defect_left",
    "folner_defect_right",
    "z_intervals",
    "zd_boxes",
    "heisenberg_boxes",
    "explicit_sequence",
    "temperedness_report",
    "extract_tempered_subsequence",
    "sequence_to_dict",
    "sequence_from_dict",
]

_HEISENBERG = "heisenberg"

# Keys for set cardinality are packed into int64; stay clear of the edge.
_PACK_LIMIT = 1 << 62
# Product keys are formed in chunks of at most this many cells (8 MB of int64).
_CHUNK_CELLS = 1_000_000
# Key ranges up to this many cells are counted on a bool bitmap (16 MB).
_BITMAP_CELLS = 1 << 24


def group_rank(group_id: str) -> int:
    """Coordinate tuple length for a group tag."""
    if group_id == "Z":
        return 1
    if group_id == _HEISENBERG:
        return 3
    if group_id.startswith("Z^"):
        d = int(group_id[2:])
        if d < 2:
            raise ValueError(f"bad lattice tag {group_id!r}; use 'Z' for d=1")
        return d
    raise ValueError(f"unknown group {group_id!r}")


@dataclass(frozen=True)
class GroupElement:
    group_id: str
    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.coords) != group_rank(self.group_id):
            raise ValueError(
                f"{self.group_id} element needs {group_rank(self.group_id)} "
                f"coordinates, got {len(self.coords)}"
            )


def element(group_id: str, *coords: int) -> GroupElement:
    return GroupElement(group_id, tuple(int(c) for c in coords))


def identity(group_id: str) -> GroupElement:
    return GroupElement(group_id, (0,) * group_rank(group_id))


def _check_same_group(a: str, b: str) -> None:
    if a != b:
        raise GroupMismatchError(f"group mismatch: {a!r} vs {b!r}")


def _mul_coords(group_id: str, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if group_id == _HEISENBERG:
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])
    return tuple(x + y for x, y in zip(a, b))


def _inv_coords(group_id: str, a: tuple[int, ...]) -> tuple[int, ...]:
    if group_id == _HEISENBERG:
        return (-a[0], -a[1], -a[2] + a[0] * a[1])
    return tuple(-x for x in a)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    _check_same_group(a.group_id, b.group_id)
    return GroupElement(a.group_id, _mul_coords(a.group_id, a.coords, b.coords))


def inverse(g: GroupElement) -> GroupElement:
    return GroupElement(g.group_id, _inv_coords(g.group_id, g.coords))


def _rows(rows: Sequence[Sequence[int]], rank: int) -> np.ndarray:
    """Coordinate rows as int64, or as Python ints (dtype object) if one won't fit."""
    try:
        return np.array(rows, dtype=np.int64).reshape(len(rows), rank)
    except OverflowError:
        return np.array(rows, dtype=object).reshape(len(rows), rank)


@dataclass(frozen=True)
class FiniteSubset:
    """A finite subset of a group with a fixed enumeration order."""

    group_id: str
    elements: tuple[GroupElement, ...]

    def __post_init__(self) -> None:
        seen = set()
        for g in self.elements:
            _check_same_group(self.group_id, g.group_id)
            if g.coords in seen:
                raise ValueError(f"duplicate element {g.coords}")
            seen.add(g.coords)

    @classmethod
    def from_coords(
        cls, group_id: str, coords: Iterable[Sequence[int]], sort: bool = True
    ) -> "FiniteSubset":
        tuples = [tuple(int(c) for c in t) for t in coords]
        if sort:
            tuples.sort()
        return cls(group_id, tuple(GroupElement(group_id, t) for t in tuples))

    @property
    def size(self) -> int:
        return len(self.elements)

    def coord_set(self) -> set[tuple[int, ...]]:
        return {g.coords for g in self.elements}

    def coords_array(self) -> np.ndarray:
        """The coordinates as int64 rows, or as Python ints if one does not fit."""
        return _rows([g.coords for g in self.elements], group_rank(self.group_id))

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)


def translate_left(g: GroupElement, F: FiniteSubset) -> FiniteSubset:
    """The subset g*F, in F's enumeration order."""
    _check_same_group(g.group_id, F.group_id)
    gid = F.group_id
    return FiniteSubset(
        gid,
        tuple(GroupElement(gid, _mul_coords(gid, g.coords, f.coords)) for f in F),
    )


def translate_right(F: FiniteSubset, g: GroupElement) -> FiniteSubset:
    """The subset F*g, in F's enumeration order."""
    _check_same_group(g.group_id, F.group_id)
    gid = F.group_id
    return FiniteSubset(
        gid,
        tuple(GroupElement(gid, _mul_coords(gid, f.coords, g.coords)) for f in F),
    )


def invert_subset(F: FiniteSubset) -> FiniteSubset:
    """The subset {f^{-1} : f in F}, in F's enumeration order."""
    gid = F.group_id
    return FiniteSubset(
        gid, tuple(GroupElement(gid, _inv_coords(gid, f.coords)) for f in F)
    )


def product_subset(A: FiniteSubset, B: FiniteSubset) -> FiniteSubset:
    """The product set A*B = {a*b}, enumerated lexicographically."""
    _check_same_group(A.group_id, B.group_id)
    gid = A.group_id
    coords = {_mul_coords(gid, a.coords, b.coords) for a in A for b in B}
    return FiniteSubset.from_coords(gid, coords)


def symmetric_difference_size(A: FiniteSubset, B: FiniteSubset) -> int:
    _check_same_group(A.group_id, B.group_id)
    return len(A.coord_set() ^ B.coord_set())


def _defect(F: FiniteSubset, g: GroupElement, left: bool) -> Fraction:
    # Translation is a bijection, so |gF sym-diff F| = 2(|gF union F| - |F|),
    # and gF union F is the product set {e, g}F (F{e, g} on the right).
    if F.size == 0:
        raise ValueError("defect of an empty subset is undefined")
    _check_same_group(g.group_id, F.group_id)
    gid = F.group_id
    eg = _rows([identity(gid).coords, g.coords], group_rank(gid))
    X = F.coords_array()
    union = _product_size(gid, eg, X) if left else _product_size(gid, X, eg)
    return Fraction(2 * (union - F.size), F.size)


def folner_defect_left(F: FiniteSubset, g: GroupElement) -> Fraction:
    """|gF symmetric-difference F| / |F| as an exact rational."""
    return _defect(F, g, left=True)


def folner_defect_right(F: FiniteSubset, g: GroupElement) -> Fraction:
    """|F symmetric-difference Fg| / |F| as an exact rational."""
    return _defect(F, g, left=False)


# ---------------------------------------------------------------------------
# Folner sequences


@dataclass(frozen=True)
class FolnerSequence:
    """An indexed family of finite subsets, 1-based.

    Kinds: ``z_interval`` (integers; anchor "left" gives {0..n-1}, anchor
    "right" gives {-n+1..0}), ``zd_box`` (the cube [-n, n]^d),
    ``heisenberg_box`` (|a| <= n, |b| <= n, |c| <= n^2) and
    ``explicit_list`` (user-supplied subsets).  ``claimed_sides`` records on
    which side the averaging property is claimed; the claim is metadata,
    validated numerically through the defect operations.
    """

    group_id: str
    kind: str
    anchor: str = "left"
    subsets: tuple[FiniteSubset, ...] = ()
    claimed_sides: frozenset[str] = frozenset({"left", "right"})

    def __post_init__(self) -> None:
        if self.kind not in ("z_interval", "zd_box", "heisenberg_box", "explicit_list"):
            raise ValueError(f"unknown Folner kind {self.kind!r}")
        if self.kind == "z_interval" and self.anchor not in ("left", "right"):
            raise ValueError(f"bad anchor {self.anchor!r}")
        if self.kind == "explicit_list" and not self.subsets:
            raise ValueError("explicit_list needs at least one subset")
        for S in self.subsets:
            _check_same_group(self.group_id, S.group_id)
            if S.size == 0:
                raise ValueError("explicit subsets must be nonempty")

    def max_index(self) -> int | None:
        return len(self.subsets) if self.kind == "explicit_list" else None

    def subset(self, n: int) -> FiniteSubset:
        if n < 1:
            raise ValueError("indices are 1-based")
        if self.kind == "z_interval":
            if self.anchor == "left":
                return FiniteSubset.from_coords("Z", ((k,) for k in range(n)))
            return FiniteSubset.from_coords("Z", ((k,) for k in range(-n + 1, 1)))
        if self.kind == "zd_box":
            d = group_rank(self.group_id)
            rng = range(-n, n + 1)
            return FiniteSubset.from_coords(
                self.group_id, itertools.product(rng, repeat=d)
            )
        if self.kind == "heisenberg_box":
            rng = range(-n, n + 1)
            crng = range(-n * n, n * n + 1)
            return FiniteSubset.from_coords(
                _HEISENBERG, ((a, b, c) for a in rng for b in rng for c in crng)
            )
        if n > len(self.subsets):
            raise IndexError(f"explicit sequence has {len(self.subsets)} subsets")
        return self.subsets[n - 1]


def z_intervals(anchor: str = "left") -> FolnerSequence:
    return FolnerSequence("Z", "z_interval", anchor=anchor)


def zd_boxes(d: int) -> FolnerSequence:
    group_id = "Z" if d == 1 else f"Z^{d}"
    return FolnerSequence(group_id, "zd_box")


def heisenberg_boxes() -> FolnerSequence:
    return FolnerSequence(_HEISENBERG, "heisenberg_box")


def explicit_sequence(
    subsets: Sequence[FiniteSubset], claimed_sides: Iterable[str] = ("left",)
) -> FolnerSequence:
    subsets = tuple(subsets)
    if not subsets:
        raise ValueError("explicit_list needs at least one subset")
    return FolnerSequence(
        subsets[0].group_id,
        "explicit_list",
        subsets=subsets,
        claimed_sides=frozenset(claimed_sides),
    )


def sequence_to_dict(seq: FolnerSequence) -> dict:
    """JSON-friendly description: {group, kind, params}."""
    params: dict = {}
    if seq.kind == "z_interval":
        params["anchor"] = seq.anchor
    if seq.kind == "explicit_list":
        params["subsets"] = [
            [list(g.coords) for g in S.elements] for S in seq.subsets
        ]
        params["claimed_sides"] = sorted(seq.claimed_sides)
    return {"group": seq.group_id, "kind": seq.kind, "params": params}


def sequence_from_dict(data: dict) -> FolnerSequence:
    group_id = data["group"]
    kind = data["kind"]
    params = data.get("params", {})
    if kind == "z_interval":
        return FolnerSequence(group_id, kind, anchor=params.get("anchor", "left"))
    if kind in ("zd_box", "heisenberg_box"):
        return FolnerSequence(group_id, kind)
    subsets = tuple(
        FiniteSubset.from_coords(group_id, rows, sort=False)
        for rows in params["subsets"]
    )
    return FolnerSequence(
        group_id,
        kind,
        subsets=subsets,
        claimed_sides=frozenset(params.get("claimed_sides", ("left",))),
    )


# ---------------------------------------------------------------------------
# Temperedness


@dataclass(frozen=True)
class TemperednessReport:
    """Exact ratios |union_{k<n} F_k^{-1} F_n| / |F_n| for n = 2..upto."""

    indices: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    constant: Fraction

    def satisfies(self, C: Fraction) -> bool:
        return self.constant <= C


def _fits(lo: int, hi: int) -> bool:
    return -(2**63) <= lo and hi < 2**63


def _column_bounds(X: np.ndarray) -> list[tuple[int, int]]:
    return [(int(lo), int(hi)) for lo, hi in zip(X.min(axis=0), X.max(axis=0))]


def _product_range(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    corners = [a * b for a in x for b in y]
    return min(corners), max(corners)


def _inv_rows(gid: str, X: np.ndarray) -> np.ndarray:
    """Rows f^{-1} for the rows f of X; int64 only where no step can wrap."""
    if X.dtype == np.int64:
        bounds = _column_bounds(X)
        fits = all(_fits(-hi, -lo) for lo, hi in bounds)
        if fits and gid == _HEISENBERG:
            ab_lo, ab_hi = _product_range(bounds[0], bounds[1])
            c_lo, c_hi = bounds[2]
            fits = _fits(ab_lo, ab_hi) and _fits(ab_lo - c_hi, ab_hi - c_lo)
        if not fits:
            X = X.astype(object)
    out = -X
    if gid == _HEISENBERG:
        out[:, 2] = X[:, 0] * X[:, 1] - X[:, 2]
    return out


def _product_size(gid: str, A: np.ndarray, B: np.ndarray) -> int:
    """|{a*b : a a row of A, b a row of B}|, counted exactly (module docstring).

    The key of a*b is ka + kb, plus a0*b1 - min(a0*b1) in the Heisenberg
    c-column, where ka and kb pack A - min(A) and B - min(B) over the box of
    all products.  Every partial sum is nonnegative and at most the final key,
    which is below the box size, and the a0*b1 corners are checked to fit.
    """
    rank = A.shape[1]
    c_lo = c_hi = 0
    packable = A.dtype == np.int64 and B.dtype == np.int64
    if packable:
        a_bounds, b_bounds = _column_bounds(A), _column_bounds(B)
        if gid == _HEISENBERG:
            c_lo, c_hi = _product_range(a_bounds[0], b_bounds[1])
            packable = _fits(c_lo, c_hi)
        ranges = [
            ah - al + bh - bl + 1 for (al, ah), (bl, bh) in zip(a_bounds, b_bounds)
        ]
        ranges[-1] += c_hi - c_lo  # the Heisenberg c-column is the last one
        cells = math.prod(ranges)
        packable = packable and cells < _PACK_LIMIT
    if not packable:
        B_list = B.tolist()
        return len({_mul_coords(gid, a, b) for a in A.tolist() for b in B_list})

    strides = np.array(
        [math.prod(ranges[i + 1 :]) for i in range(rank)], dtype=np.int64
    )
    ka = (A - A.min(axis=0)) @ strides
    kb = (B - B.min(axis=0)) @ strides
    bitmap = np.zeros(cells, dtype=bool) if cells <= _BITMAP_CELLS else None
    keys: set[int] = set()
    step = max(_CHUNK_CELLS // len(B), 1)
    for start in range(0, len(A), step):
        stop = start + step
        if gid == _HEISENBERG:
            block = np.multiply.outer(A[start:stop, 0], B[:, 1])
            block -= c_lo
            block += ka[start:stop, None]
            block += kb[None, :]
        else:
            block = ka[start:stop, None] + kb[None, :]
        if bitmap is not None:
            bitmap[block.ravel()] = True
        else:
            keys.update(np.unique(block).tolist())
    return int(np.count_nonzero(bitmap)) if bitmap is not None else len(keys)


def temperedness_report(seq: FolnerSequence, upto: int) -> TemperednessReport:
    """Exact ratios |union_{k<n} F_k^{-1} F_n| / |F_n| for n = 2..upto.

    When the sequence is verified nested up to F_{n-1}, the union collapses
    to F_{n-1}^{-1} F_n exactly (inverses preserve inclusion); otherwise all
    k < n contribute.  Either way the count is exact.
    """
    if upto < 2:
        raise ValueError("upto must be at least 2")
    max_n = seq.max_index()
    if max_n is not None and upto > max_n:
        raise IndexError(f"sequence has only {max_n} subsets")

    gid = seq.group_id
    subsets = [seq.subset(n) for n in range(1, upto + 1)]
    rows = [S.coords_array() for S in subsets]
    inverses = [_inv_rows(gid, X) for X in rows]
    e = _rows([identity(gid).coords], group_rank(gid))

    nested_through = 1
    for k in range(1, upto):
        # F_k lies in F_{k+1} exactly when their union is no larger than F_{k+1}
        if _product_size(gid, np.vstack(rows[k - 1 : k + 1]), e) == subsets[k].size:
            nested_through = k + 1
        else:
            break

    indices, ratios = [], []
    for n in range(2, upto + 1):
        contributing = (
            inverses[n - 2 : n - 1] if nested_through >= n - 1 else inverses[: n - 1]
        )
        card = _product_size(gid, np.vstack(contributing), rows[n - 1])
        indices.append(n)
        ratios.append(Fraction(card, subsets[n - 1].size))
    return TemperednessReport(tuple(indices), tuple(ratios), max(ratios))


def extract_tempered_subsequence(
    seq: FolnerSequence, C: Fraction | int | str, count: int
) -> tuple[int, ...]:
    """Greedy tempered subsequence: smallest admissible next index each step.

    Step j accepts index m when |(union of chosen subsets)^{-1} F_m| <=
    C * |F_m|, compared in exact integer arithmetic.  The scan for step j is
    capped at 10x the previously chosen index; exhausting the cap (or an
    explicit sequence's subsets) raises SearchBudgetExceededError.
    """
    C = Fraction(C)
    if C <= 1:
        raise ValueError("the temperedness constant must exceed 1")
    if count < 1:
        raise ValueError("count must be positive")
    max_n = seq.max_index()
    if max_n is not None and count > max_n:
        raise UnsupportedCaseError(
            f"cannot pick {count} indices from {max_n} subsets"
        )

    chosen: list[int] = [1]
    union_coords = seq.subset(1).coord_set()
    gid = seq.group_id
    while len(chosen) < count:
        last = chosen[-1]
        budget = 10 * last
        if max_n is not None:
            budget = min(budget, max_n)
        inv = _inv_rows(gid, _rows(list(union_coords), group_rank(gid)))
        for m in range(last + 1, budget + 1):
            F_m = seq.subset(m)
            card = _product_size(gid, inv, F_m.coords_array())
            if card * C.denominator <= C.numerator * F_m.size:
                break
        else:
            raise SearchBudgetExceededError(
                f"no admissible index in ({last}, {budget}] for C={C} "
                f"after choosing {tuple(chosen)}"
            )
        chosen.append(m)
        union_coords |= F_m.coord_set()
    return tuple(chosen)
