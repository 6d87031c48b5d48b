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
group, a0*b1 in the c-column; no product coordinates are formed.  The
keys are written one tile at a time, over row ranges of both A and B, into
one int64 buffer of 64K cells (512 KB).  They are marked on a bool bitmap
when the box has at most 2^24 cells, and otherwise kept as sorted int64
arrays of distinct keys, one per tile, merged as they grow.  So a count
needs one 512 KB tile and a bitmap of at most 2^24 bytes, or past the
bitmap cap the distinct keys themselves.  Exact Python-int bounds
are checked before each int64 step (inverses, the a0*b1 corners, a box
under 2^62 cells), so no step can wrap.  When a check fails, or a
coordinate does not fit in int64, the products are a set of Python-int
tuples.  Product sets are decoded from the same keys: sorted keys give
rows in lexicographic order, the first coordinate being the top digit.

How subsets are held.  A ``FiniteSubset`` keeps one read-only array of
coordinate rows in its enumeration order: int64, or Python ints (dtype
object) when a coordinate does not fit.  The built-in Folner sets are made
as arrays, translates follow the element law on Python ints, inverses and
products use the int64 guards above, and every product set and count reads
the rows.  ``GroupElement`` objects are built only when something iterates
the subset or reads its ``elements``, and are then kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    GroupMismatchError,
    SearchBudgetExceededError,
    UnsupportedCaseError,
)

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
# Product keys are formed in one buffer of this many cells (512 KB of int64).
_TILE_CELLS = 1 << 16
# Key ranges up to this many cells are counted on a bool bitmap (16 MB).
_BITMAP_CELLS = 1 << 24


def group_rank(group_id: str) -> int:
    """Coordinate tuple length for a group tag."""
    if group_id == "Z":
        return 1
    if group_id == _HEISENBERG:
        return 3
    if group_id.startswith("Z^"):
        tail = group_id[2:]
        d = int(tail) if tail.isascii() and tail.isdigit() else 0
        if d < 2 or tail != str(d):
            raise ValueError(
                f"bad lattice tag {group_id!r}; use 'Z' for d=1 and 'Z^d' for d >= 2"
            )
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


# ---------------------------------------------------------------------------
# Coordinate rows


def _fits(lo: int, hi: int) -> bool:
    return -(2**63) <= lo and hi < 2**63


def _column_bounds(X: np.ndarray) -> list[tuple[int, int]]:
    return [(int(lo), int(hi)) for lo, hi in zip(X.min(axis=0), X.max(axis=0))]


def _product_range(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    corners = [a * b for a in x for b in y]
    return min(corners), max(corners)


def _rows(gid: str, rows: Sequence[Sequence[int]]) -> np.ndarray:
    """Coordinate rows as int64, or as Python ints (dtype object) if one won't fit."""
    rank = group_rank(gid)
    shape = (len(rows), rank)
    try:
        X = np.array(rows, dtype=np.int64) if len(rows) else np.empty(shape, np.int64)
    except OverflowError:
        X = np.array([[int(c) for c in row] for row in rows], dtype=object)
    except ValueError:  # ragged rows, or a coordinate that is not an integer
        X = None
    if X is None or X.shape != shape:
        for row in rows:
            if len(row) != rank:
                raise ValueError(
                    f"{gid} element needs {rank} coordinates, got {len(row)}"
                )
        raise ValueError(f"{gid} coordinates must be integers")
    return X


def _canonical(X: np.ndarray) -> np.ndarray:
    """X as int64 when every entry fits, so equal rows are stored alike."""
    if X.dtype == object:
        try:
            return X.astype(np.int64)
        except OverflowError:
            pass
    return X


def _lex_order(X: np.ndarray) -> np.ndarray:
    """The permutation that sorts the rows of X lexicographically."""
    return np.lexsort(X.T[::-1])


def _check_distinct(sorted_rows: np.ndarray) -> None:
    same = (sorted_rows[1:] == sorted_rows[:-1]).all(axis=1)
    if same.any():
        row = sorted_rows[int(np.argmax(same))]
        raise ValueError(f"duplicate element {tuple(row.tolist())}")


def _inv_rows(gid: str, X: np.ndarray) -> np.ndarray:
    """Rows f^{-1} for the rows f of X; int64 only where no step can wrap."""
    if X.dtype == np.int64 and len(X):
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


class FiniteSubset:
    """A finite subset of a group with a fixed enumeration order.

    The subset holds its coordinate rows, in that order, in one read-only
    array (int64, or Python ints when one does not fit).  The
    ``GroupElement`` objects of ``elements`` are built only when something
    iterates the subset or reads them, and are then kept.  Equality and
    hashing follow the enumeration order, as for a tuple of elements.
    """

    __slots__ = ("group_id", "_coords", "_elements")

    def __init__(self, group_id: str, elements: Iterable[GroupElement]) -> None:
        elements = tuple(elements)
        for g in elements:
            _check_same_group(group_id, g.group_id)
        X = _rows(group_id, [g.coords for g in elements])
        _check_distinct(X[_lex_order(X)])
        self._init(group_id, X, elements)

    def _init(self, group_id: str, X: np.ndarray, elements) -> None:
        X = _canonical(X)
        X.flags.writeable = False
        object.__setattr__(self, "group_id", group_id)
        object.__setattr__(self, "_coords", X)
        object.__setattr__(self, "_elements", elements)

    @classmethod
    def _of_rows(cls, group_id: str, X: np.ndarray) -> "FiniteSubset":
        """The subset enumerating the rows of X, which must be distinct."""
        self = object.__new__(cls)
        self._init(group_id, X, None)
        return self

    @classmethod
    def from_coords(
        cls, group_id: str, coords: Iterable[Sequence[int]], sort: bool = True
    ) -> "FiniteSubset":
        X = _rows(group_id, list(coords))
        S = X[_lex_order(X)]
        _check_distinct(S)
        return cls._of_rows(group_id, S if sort else X)

    @property
    def elements(self) -> tuple[GroupElement, ...]:
        if self._elements is None:
            gid = self.group_id
            elements = tuple(GroupElement(gid, tuple(t)) for t in self._coords.tolist())
            object.__setattr__(self, "_elements", elements)
        return self._elements

    @property
    def size(self) -> int:
        return len(self._coords)

    def coord_set(self) -> set[tuple[int, ...]]:
        return set(map(tuple, self._coords.tolist()))

    def coords_array(self) -> np.ndarray:
        """The coordinate rows, read-only: int64, or Python ints if one won't fit."""
        return self._coords

    def __iter__(self) -> Iterator[GroupElement]:
        return iter(self.elements)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        X, Y = self._coords, other._coords
        same_shape = self.group_id == other.group_id and X.shape == Y.shape
        return same_shape and bool((X == Y).all())

    def __hash__(self) -> int:
        X = self._coords
        rows = X.tobytes() if X.dtype == np.int64 else tuple(map(tuple, X.tolist()))
        return hash((self.group_id, rows))

    def __repr__(self) -> str:
        rows = self._coords.tolist()
        return f"FiniteSubset(group_id={self.group_id!r}, coords={rows!r})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a FiniteSubset")

    def __reduce__(self):
        return (FiniteSubset._of_rows, (self.group_id, self._coords))


def translate_left(g: GroupElement, F: FiniteSubset) -> FiniteSubset:
    """The subset g*F, in F's enumeration order."""
    _check_same_group(g.group_id, F.group_id)
    gid = F.group_id
    rows = [_mul_coords(gid, g.coords, f) for f in F.coords_array().tolist()]
    return FiniteSubset._of_rows(gid, _rows(gid, rows))


def translate_right(F: FiniteSubset, g: GroupElement) -> FiniteSubset:
    """The subset F*g, in F's enumeration order."""
    _check_same_group(g.group_id, F.group_id)
    gid = F.group_id
    rows = [_mul_coords(gid, f, g.coords) for f in F.coords_array().tolist()]
    return FiniteSubset._of_rows(gid, _rows(gid, rows))


def invert_subset(F: FiniteSubset) -> FiniteSubset:
    """The subset {f^{-1} : f in F}, in F's enumeration order."""
    return FiniteSubset._of_rows(F.group_id, _inv_rows(F.group_id, F.coords_array()))


def product_subset(A: FiniteSubset, B: FiniteSubset) -> FiniteSubset:
    """The product set A*B = {a*b}, enumerated lexicographically."""
    _check_same_group(A.group_id, B.group_id)
    gid = A.group_id
    rows = _product_rows(gid, A.coords_array(), B.coords_array())
    return FiniteSubset._of_rows(gid, rows)


def _identity_row(gid: str) -> np.ndarray:
    return np.zeros((1, group_rank(gid)), dtype=np.int64)


def symmetric_difference_size(A: FiniteSubset, B: FiniteSubset) -> int:
    # |A sym-diff B| = 2|A union B| - |A| - |B|, and A union B is (A, B)*{e}
    _check_same_group(A.group_id, B.group_id)
    gid = A.group_id
    both = np.vstack([A.coords_array(), B.coords_array()])
    return 2 * _product_size(gid, both, _identity_row(gid)) - A.size - B.size


def _defect(F: FiniteSubset, g: GroupElement, left: bool) -> Fraction:
    # Translation is a bijection, so |gF sym-diff F| = 2(|gF union F| - |F|),
    # and gF union F is the product set {e, g}F (F{e, g} on the right).
    if F.size == 0:
        raise ValueError("defect of an empty subset is undefined")
    _check_same_group(g.group_id, F.group_id)
    gid = F.group_id
    eg = _rows(gid, [(0,) * group_rank(gid), g.coords])
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
class FolnerKind:
    """A Folner kind's catalog line, the params it takes and those it needs."""

    description: str
    params: tuple[str, ...] = ()
    required: tuple[str, ...] = ()


FOLNER_KINDS: dict[str, FolnerKind] = {
    "z_interval": FolnerKind(
        "integer intervals; anchor left {0..n-1} or right {-n+1..0}", ("anchor",)
    ),
    "zd_box": FolnerKind("cubes [-n, n]^d in Z^d"),
    "heisenberg_box": FolnerKind("Heisenberg boxes |a|,|b| <= n, |c| <= n^2"),
    "explicit_list": FolnerKind(
        "user-supplied subsets", ("subsets", "claimed_sides"), ("subsets",)
    ),
}


@dataclass(frozen=True)
class FolnerSequence:
    """An indexed family of finite subsets, 1-based.

    The kind is a key of ``FOLNER_KINDS``, which describes each one.  A
    built-in kind over another group raises ``GroupMismatchError``.
    ``claimed_sides`` records on which side the averaging property is
    claimed; the claim is metadata, validated numerically through the defect
    operations.
    """

    group_id: str
    kind: str
    anchor: str = "left"
    subsets: tuple[FiniteSubset, ...] = ()
    claimed_sides: frozenset[str] = frozenset({"left", "right"})

    def __post_init__(self) -> None:
        group_rank(self.group_id)  # raises ValueError for an unknown tag
        # compared by ==, so an unhashable kind is reported like any other
        if self.kind not in tuple(FOLNER_KINDS):
            raise ValueError(f"unknown Folner kind {self.kind!r}")
        if self.kind == "z_interval" and self.group_id != "Z":
            raise GroupMismatchError(
                f"z_interval needs the group Z, not {self.group_id!r}"
            )
        if self.kind == "zd_box" and self.group_id == _HEISENBERG:
            raise GroupMismatchError("zd_box needs a group Z or Z^d")
        if self.kind == "heisenberg_box" and self.group_id != _HEISENBERG:
            raise GroupMismatchError("heisenberg_box needs the Heisenberg group")
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
        if self.kind == "explicit_list":
            if n > len(self.subsets):
                raise IndexError(f"explicit sequence has {len(self.subsets)} subsets")
            return self.subsets[n - 1]
        # the built-in sets are boxes, enumerated lexicographically: an "ij"
        # meshgrid varies its last axis fastest
        side = np.arange(-n, n + 1, dtype=np.int64)
        if self.kind == "z_interval":
            first = 0 if self.anchor == "left" else 1 - n
            axes = [np.arange(first, first + n, dtype=np.int64)]
        elif self.kind == "zd_box":
            axes = [side] * group_rank(self.group_id)
        else:
            axes = [side, side, np.arange(-n * n, n * n + 1, dtype=np.int64)]
        grid = np.meshgrid(*axes, indexing="ij")
        rows = np.stack([g.ravel() for g in grid], axis=1)
        return FiniteSubset._of_rows(self.group_id, rows)


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
        params["subsets"] = [S.coords_array().tolist() for S in seq.subsets]
        params["claimed_sides"] = sorted(seq.claimed_sides)
    return {"group": seq.group_id, "kind": seq.kind, "params": params}


def sequence_from_dict(data: dict) -> FolnerSequence:
    """The sequence ``sequence_to_dict`` describes.

    A missing ``group``, ``kind`` or required param raises ``ConfigError``
    naming its key path; an unknown kind raises ``ValueError``.
    """
    for key in ("group", "kind"):
        if key not in data:
            raise ConfigError(f"missing key {key!r}", key)
    group_id = data["group"]
    kind = data["kind"]
    params = data.get("params", {})
    if kind not in tuple(FOLNER_KINDS):  # compared by ==, as FolnerSequence does
        raise ValueError(f"unknown Folner kind {kind!r}")
    for key in FOLNER_KINDS[kind].required:
        if key not in params:
            raise ConfigError(f"{kind} needs {key!r}", f"params.{key}")
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


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of keys, sorted."""
    keys = np.sort(keys, kind="stable")  # merges the sorted runs it is given
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def _product_keys(gid: str, A: np.ndarray, B: np.ndarray):
    """The distinct products a*b, a a row of A and b a row of B (module docstring).

    Returns (keys, box): a bool bitmap over the box of all products, or past
    _BITMAP_CELLS its sorted distinct int64 keys, and box = (strides, ranges,
    lo), a key being a*b - lo in mixed radix; or (set of product tuples, None).

    The key of a*b is ka + kb, plus a0*b1 - min(a0*b1) in the Heisenberg
    c-column, where ka and kb pack A - min(A) and B - min(B) over the box of
    all products.  Every partial sum is nonnegative and at most the final key,
    which is below the box size, and the a0*b1 corners are checked to fit.
    """
    c_lo = c_hi = 0
    packable = A.dtype == np.int64 and B.dtype == np.int64 and len(A) and len(B)
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
        return {_mul_coords(gid, a, b) for a in A.tolist() for b in B_list}, None

    lo = [al + bl for (al, _), (bl, _) in zip(a_bounds, b_bounds)]
    lo[-1] += c_lo
    strides = np.array([math.prod(ranges[i + 1 :]) for i in range(len(ranges))])
    ka = (A - A.min(axis=0)) @ strides
    kb = (B - B.min(axis=0)) @ strides
    bitmap = np.zeros(cells, dtype=bool) if cells <= _BITMAP_CELLS else None
    # past the bitmap cap: sorted runs of distinct keys, merged into the
    # first run once the others hold as many keys as it does
    sparse: list[np.ndarray] = []
    pending = 0
    tile = np.empty(min(len(A) * len(B), _TILE_CELLS), dtype=np.int64)
    cols = min(len(B), _TILE_CELLS)
    rows = _TILE_CELLS // cols
    for s in range(0, len(A), rows):
        t = min(s + rows, len(A))
        for u in range(0, len(B), cols):
            w = min(u + cols, len(B))
            keys = tile[: (t - s) * (w - u)]
            block = keys.reshape(t - s, w - u)
            if gid == _HEISENBERG:
                np.multiply.outer(A[s:t, 0], B[u:w, 1], out=block)
                block -= c_lo
                block += ka[s:t, None]
                block += kb[None, u:w]
            else:
                np.add(ka[s:t, None], kb[None, u:w], out=block)
            if bitmap is not None:
                bitmap[keys] = True
                continue
            sparse.append(_distinct(keys))
            pending += len(sparse[-1])
            if pending >= 2 * len(sparse[0]):
                sparse = [_distinct(np.concatenate(sparse))]
                pending = len(sparse[0])
    keys = bitmap if bitmap is not None else _distinct(np.concatenate(sparse))
    return keys, (strides, ranges, lo)


def _product_size(gid: str, A: np.ndarray, B: np.ndarray) -> int:
    """|{a*b : a a row of A, b a row of B}|, counted exactly."""
    keys, box = _product_keys(gid, A, B)
    return int(np.count_nonzero(keys)) if box and keys.dtype == bool else len(keys)


def _product_rows(gid: str, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The distinct rows a*b in lexicographic order, which is the keys' order."""
    keys, box = _product_keys(gid, A, B)
    if box is None:
        return _rows(gid, sorted(keys))
    strides, ranges, lo = box
    keys = np.flatnonzero(keys) if keys.dtype == bool else keys
    fits = all(_fits(l, l + r - 1) for l, r in zip(lo, ranges))
    X = (keys[:, None] // strides % ranges).astype(np.int64 if fits else object)
    return X + np.array(lo, dtype=X.dtype)


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
    e = _identity_row(gid)

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
    union = seq.subset(1).coords_array()
    gid = seq.group_id
    e = _identity_row(gid)
    while len(chosen) < count:
        last = chosen[-1]
        budget = 10 * last
        if max_n is not None:
            budget = min(budget, max_n)
        inv = _inv_rows(gid, union)
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
        union = _product_rows(gid, np.vstack([union, F_m.coords_array()]), e)
    return tuple(chosen)
