"""Compact metric spaces with group actions, and a catalog of examples.

Each space kind is one Space object in the module table _SPACES, and that
table is the one place a new kind plugs in.  A Space writes its action once,
as ``orbit(sys, x, rows)``: the points g*x for the coordinate rows g in
``rows``, in order.  Rows are sequences of Python ints (``tolist()`` of a
subset's coordinate array), so exact Fraction arithmetic never meets numpy
integers.  ``orbit_coords(sys, x, rows, tol)`` is the same action in batch
form: the coordinate array of the orbit, bit for bit ``coords`` of the
points, with no point built.  Circle, torus and union orbits are integer
numerators over one denominator D, from one private helper that feeds both
methods (circle and union share ``_rotation_numerators``, where a row of Z
costs one multiply-add); their floats are n / D by Python-int true
division, which is correctly rounded and so equals float(Fraction(n, D)).
A shift orbit is its base word read at shifted offsets.
``observables(sys)`` yields the kind's fixed dense observable family, on
which the weak-* metric of ``measures`` is built.  The Space also holds the
scalar metric, the vectorized distance kernel, point (de)serialization, CSV
columns and the near-pair draw.  The public functions look the space up
from ``sys.space_kind``.

Payloads, and the observable families (1-based index i), per space kind:
  circle    exact Fraction in [0, 1), arc metric min(|u-v|, 1-|u-v|);
            i = 2j-1 -> cos(2*pi*j*x), i = 2j -> sin(2*pi*j*x)
  torus     tuple of Fractions, sum of arc metrics per coordinate;
            characters k in Z^d \\ {0} enumerated by sup-norm shell then
            lexicographically; character c gives cos at i = 2c+1 and sin at
            i = 2c+2
  shift     a words.Word over {0,1} indexed by the integers;
            cylinder indicators: windows of radius r = 0, 1, ... centred at
            the origin, patterns in lexicographic order within each window
  interval  float in [0, 1], absolute-difference metric; monomials x^i
  union     (component tag, Fraction); intra-component arc metric halved,
            cross-component distance exactly 1;
            i = 1 the component-a indicator, then for j = 1, 2, ... the block
            (cos_j on a, sin_j on a, cos_j on b, sin_j on b), each vanishing
            off its component
  product   pair of factor points, sum metric;
            h(x, y) = f_i(x) * g_j(y) with factor indices (i, j) walked along
            anti-diagonals i + j = 1, 2, ... (index 0 means the constant 1)

Every family observable is one formula over the orbit's coordinate array,
which a reader reads once per orbit and tol and shares between observables:
``read(tol)`` is ``coords`` of a point list or ``orbit_coords`` of an orbit,
equal bit for bit, and ``read.side(i)`` is the reader of product factor i.
The reader is the one path to a coordinate array: W1, the means, the
distance matrices and the integrals all read through it, and a product's
``read(tol)`` is the pair of its sides' arrays at tol/2, so the factor
orbits that its observables read are the ones its W1 reads.
  circle    ``read()``, the float64 array (float of each payload)
  torus     ``read()``, the (n, d) float64 array
  shift     ``read(2^-(2r+1))`` for a cylinder of radius r: depth 2r+1, the
            int8 symbols at positions -r..r in ``_z_enumeration`` column
            order, so each pattern is permuted into that order
  interval  ``read()``, the float64 array of the payloads
  union     ``read()``, the pair (tags, floats), tag 0 for component a
  product   ``f(read.side(0)) * g(read.side(1))``
numpy applies only +, -, *, comparisons and ``where`` to these arrays;
cos, sin and x**j run element by element on Python floats (``tolist``), so
every value is bit for bit the float formula applied to one point.  ``fn(p)``
is the same formula over a one-point reader.  Plain callables, and
observables built directly from ``fn``, run on every atom.

A shift orbit reads its symbols from one strip: it is its base word at
shifted offsets, so base.symbol(lo..hi) is read once and each row gathered
at its offset, when that strip is no longer than the table.  A point list
reads each symbol.

Rotation numbers are exact rationals.  A parameter standing in for an
irrational is a "surrogate": a rational approximant with denominator above
1e9, flagged on the built system.  At this scale every periodicity statement
is approximate and the workbench never claims otherwise.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError, GroupMismatchError, SystemMismatchError, UnsupportedCaseError
)
from .groups import FiniteSubset, GroupElement
from .rationals import GOLDEN_ALPHA, SURROGATE_DENOMINATOR, parse_rational
from .words import (
    FlippedWord, PeriodicWord, RandomWord, SplicedWord, Word,
    _unshifted, shift_word, word_from_dict, word_to_dict,
)

__all__ = [
    "SystemPoint",
    "GSystem",
    "SystemCatalogEntry",
    "ExpectedProperties",
    "GOLDEN_ALPHA",
    "SURROGATE_DENOMINATOR",
    "rotation",
    "zd_rotation",
    "heisenberg_rotation",
    "full_shift",
    "two_rotations",
    "interval_square",
    "product_system",
    "act",
    "metric",
    "orbit_sample",
    "pairwise_distances",
    "paired_distances",
    "circle_point",
    "torus_point",
    "shift_point",
    "interval_point",
    "union_point",
    "pair_point",
    "parse_point",
    "point_to_dict",
    "atom_row",
    "atom_header",
    "catalog",
    "build_system",
    "parse_rational",
]

@dataclass(frozen=True)
class SystemPoint:
    system_id: str
    payload: object

    def __repr__(self) -> str:
        return f"SystemPoint({self.system_id}, {self.payload!r})"


@dataclass(frozen=True)
class GSystem:
    system_id: str
    group_id: str
    space_kind: str
    params: tuple[tuple[str, object], ...]
    diameter_bound: float
    factors: tuple["GSystem", ...] = ()
    flags: frozenset[str] = frozenset()

    def param(self, name: str) -> object:
        for key, value in self.params:
            if key == name:
                return value
        raise KeyError(name)

    def act(self, g: GroupElement, x: SystemPoint) -> SystemPoint:
        return act(self, g, x)

    def metric(self, x: SystemPoint, y: SystemPoint, tol: float = 1e-9) -> float:
        return metric(self, x, y, tol)


# ---------------------------------------------------------------------------
# Point constructors


def _check_point(sys: GSystem, x: SystemPoint) -> None:
    if x.system_id != sys.system_id:
        raise SystemMismatchError(
            f"point belongs to {x.system_id!r}, not {sys.system_id!r}"
        )


def _check_tol(tol: float) -> None:
    """Refuse a tol that is not a positive finite number.

    An infinite tol would read a shift's symbols too shallowly: W1 of two
    random orbit pieces would read 0.
    """
    if not tol > 0:  # NaN included
        raise ValueError("tol must be positive")
    if tol == math.inf:
        raise ValueError("tol must be positive and finite")


def _check_group(sys: GSystem, g: GroupElement) -> None:
    if g.group_id != sys.group_id:
        raise GroupMismatchError(
            f"system {sys.system_id!r} is acted on by {sys.group_id!r}, "
            f"not {g.group_id!r}"
        )


def circle_point(sys: GSystem, value: object) -> SystemPoint:
    if sys.space_kind != "circle":
        raise SystemMismatchError(f"{sys.system_id!r} is not a circle system")
    return SystemPoint(sys.system_id, parse_rational(value) % 1)


def torus_point(sys: GSystem, values: Sequence[object]) -> SystemPoint:
    if sys.space_kind != "torus":
        raise SystemMismatchError(f"{sys.system_id!r} is not a torus system")
    coords = tuple(parse_rational(v) % 1 for v in values)
    if len(coords) != len(sys.param("alphas")):
        raise ValueError("coordinate count does not match the torus rank")
    return SystemPoint(sys.system_id, coords)


def shift_point(sys: GSystem, word: Word) -> SystemPoint:
    if sys.space_kind != "shift":
        raise SystemMismatchError(f"{sys.system_id!r} is not a shift system")
    return SystemPoint(sys.system_id, word)


def interval_point(sys: GSystem, value: float) -> SystemPoint:
    if sys.space_kind != "interval":
        raise SystemMismatchError(f"{sys.system_id!r} is not an interval system")
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError("interval coordinate must lie in [0, 1]")
    return SystemPoint(sys.system_id, value)


def union_point(sys: GSystem, component: str, value: object) -> SystemPoint:
    if sys.space_kind != "union":
        raise SystemMismatchError(f"{sys.system_id!r} is not a union system")
    if component not in ("a", "b"):
        raise ValueError("component must be 'a' or 'b'")
    return SystemPoint(sys.system_id, (component, parse_rational(value) % 1))


def pair_point(sys: GSystem, x: SystemPoint, y: SystemPoint) -> SystemPoint:
    if sys.space_kind != "product":
        raise SystemMismatchError(f"{sys.system_id!r} is not a product system")
    _check_point(sys.factors[0], x)
    _check_point(sys.factors[1], y)
    return SystemPoint(sys.system_id, (x, y))


# ---------------------------------------------------------------------------
# Observables


_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Observable:
    name: str
    sup_norm: float
    fn: Callable[[SystemPoint], float]

    def __call__(self, x: SystemPoint) -> float:
        return self.fn(x)


class ObservableFamily:
    """Lazily enumerated observables with certified sup-norm bounds."""

    def __init__(self, space_id: str, generator: Iterator[Observable]):
        self.space_id = space_id
        self._gen = generator
        self._cache: list[Observable] = []

    def observable(self, i: int) -> Observable:
        """The i-th observable, 1-based."""
        if i < 1:
            raise ValueError("observable indices are 1-based")
        while len(self._cache) < i:
            self._cache.append(next(self._gen))
        return self._cache[i - 1]


@dataclass(frozen=True)
class _BatchObservable(Observable):
    """A family observable: ``batch(read)`` is its formula over a whole orbit.

    ``read`` is the orbit's reader (``_Reader``); ``fn`` is the same formula
    over a one-point orbit.
    """

    batch: Callable[["_Reader"], np.ndarray]


class _Reader:
    """The arrays of one orbit, each read on first use and then kept.

    ``read(tol)`` is the space's coordinate array of the orbit at that tol,
    read once per tol where the space's coords read the tol and once in all
    where they do not.  It comes from ``fetch(tol)``, except on a product:
    there it is the pair of its sides' arrays, each read at tol/2.
    ``read.side(i)`` is the reader of product factor i, through
    ``make_side(i)``; ``points`` is the orbit's point list, built by
    ``make_points`` only when a plain callable asks for it.  This class is
    the one place a coordinate array is read.
    """

    def __init__(
        self, sys: "GSystem", fetch: Callable, make_side: Callable, make_points: Callable
    ):
        self._reads_tol = space_of(sys).reads_tol(sys)
        self._fetch = self._read_sides if sys.factors else fetch
        self._make_side = make_side
        self._make_points = make_points
        self._arrays: dict = {}
        self._sides: dict = {}

    def __call__(self, tol: float = 1.0):
        _check_tol(tol)
        key = tol if self._reads_tol else None
        if key not in self._arrays:
            self._arrays[key] = self._fetch(tol)
        return self._arrays[key]

    def _read_sides(self, tol: float) -> tuple:
        return self.side(0)(tol / 2.0), self.side(1)(tol / 2.0)

    def side(self, i: int) -> "_Reader":
        if i not in self._sides:
            self._sides[i] = self._make_side(i)
        return self._sides[i]

    @functools.cached_property
    def points(self) -> Sequence[SystemPoint]:
        return self._make_points()


def _reader(sys: "GSystem", points: Sequence[SystemPoint]) -> _Reader:
    """read(tol) = coords(sys, points, tol); side i reads factor i of each point."""
    for p in points:
        _check_point(sys, p)
    space = space_of(sys)
    return _Reader(
        sys,
        lambda tol: space.coords(sys, points, tol),
        lambda i: _reader(sys.factors[i], [p.payload[i] for p in points]),
        lambda: points,
    )


def _orbit_reader(sys: "GSystem", x: SystemPoint, rows: Sequence) -> _Reader:
    """read(tol) = orbit_coords(sys, x, rows, tol), over the orbit g*x for g in rows.

    The orbit's points are acted out only if something asks for ``points``.
    """
    _check_point(sys, x)
    space = space_of(sys)
    return _Reader(
        sys,
        lambda tol: space.orbit_coords(sys, x, rows, tol),
        # the action is diagonal: each side's orbit is its factor point's orbit
        lambda i: _orbit_reader(sys.factors[i], x.payload[i], rows),
        lambda: _orbit(sys, x, rows),
    )


def _batched(sys: "GSystem", name: str, batch, sup_norm: float = 1.0) -> Observable:
    def fn(p: SystemPoint) -> float:
        return float(batch(_reader(sys, [p]))[0])

    return _BatchObservable(name, sup_norm, fn, batch)


def _elementwise(fn: Callable, arr: np.ndarray, *args) -> np.ndarray:
    """fn on each element as Python floats (math.cos, math.sin, operator.pow)."""
    return np.fromiter(map(fn, arr.tolist(), *args), np.float64, len(arr))


_WAVES = (("cos", math.cos), ("sin", math.sin))

# the constant 1, a product's factor at index 0; its batch broadcasts
_ONE = _BatchObservable("one", 1.0, lambda p: 1.0, lambda read: 1.0)


def _strip_symbols(
    base: Word, offsets: Sequence[int], positions: Sequence[int]
) -> np.ndarray:
    """int8 table [[base.symbol(o + k) for k in positions] for o in offsets].

    When the strip base.symbol(lo..hi) covering every entry is no longer than
    the table, the table is gathered from that one strip; otherwise each
    entry reads its symbol.
    """
    n, K = len(offsets), len(positions)
    if n and K:
        o_min, k_min = min(offsets), min(positions)
        lo = o_min + k_min
        span = max(offsets) + max(positions) - lo + 1
        if span <= n * K:
            strip = np.fromiter(map(base.symbol, range(lo, lo + span)), np.int8, span)
            rel_o = np.array([o - o_min for o in offsets], dtype=np.intp)
            rel_k = np.array([k - k_min for k in positions], dtype=np.intp)
            return strip[rel_o[:, None] + rel_k[None, :]]
    rows = [[base.symbol(o + k) for k in positions] for o in offsets]
    return np.array(rows, dtype=np.int8).reshape(-1, K)


def _shift_offsets(x: SystemPoint, rows: Sequence) -> tuple[Word, list[int]]:
    """The shift action: g*x is the base word of x shifted by offset + g."""
    base, offset = _unshifted(x.payload)
    return base, [offset + n for (n,) in rows]


def _lattice_characters(d: int) -> Iterator[tuple[int, ...]]:
    r = 1
    while True:
        shell = sorted(
            v
            for v in itertools.product(range(-r, r + 1), repeat=d)
            if max(abs(c) for c in v) == r
        )
        yield from shell
        r += 1


# ---------------------------------------------------------------------------
# Space kinds


def _interval_power(value: float, n: int) -> float:
    # x -> x^2 iterated n times (or its inverse sqrt for n < 0), stopped at a
    # fixed point: 0.0 and 1.0 for both maps, and 1 - 2^-53 for sqrt, which
    # sqrt reaches within 64 steps from any positive double below it.  Once a
    # trajectory settles it stays there, so composing opposite-sign powers
    # across calls is only approximate near 0 and 1.
    v = value
    for _ in range(abs(n)):
        w = v * v if n >= 0 else math.sqrt(v)
        if w == v:
            break
        v = w
    return v


def _arc(u: float, v: float) -> float:
    d = abs(u - v)
    return min(d, 1.0 - d)


def _arcs(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    D = np.abs(U - V)
    return np.minimum(D, 1.0 - D)


def _truncation_depth(tol: float) -> int:
    # smallest K with 2^{-K} <= tol (tail of the symbol-weight series)
    K = 1
    while math.ldexp(1.0, -K) > tol and K < 1080:
        K += 1
    return K


def _z_enumeration(K: int) -> list[int]:
    """The fixed enumeration 0, -1, 1, -2, 2, ... of the integers."""
    out = []
    for i in range(K):
        half, odd = divmod(i + 1, 2)
        out.append(half if odd else -half)
    return out


def _dyadic(rng: random.Random) -> Fraction:
    return Fraction(rng.getrandbits(48), 1 << 48)


def _offset(rng: random.Random, step: Fraction) -> Fraction:
    return step * Fraction(rng.randint(-999, 999), 1000)


def _common_denominator(*values: Fraction) -> tuple[int, list[int]]:
    """D and the numerators of the values written over D, their common denominator."""
    D = math.lcm(*(v.denominator for v in values))
    return D, [v.numerator * (D // v.denominator) for v in values]


def _rotation_numerators(
    x: Fraction, steps: Sequence[Fraction], rows: Sequence
) -> tuple[int, list[int]]:
    """D and the numerators over D of x + sum g_i steps_i mod 1, for each row g.

    D is the common denominator of x and the steps.  A one-coordinate row (an
    element of Z) costs one multiply-add.
    """
    D, (a, *s) = _common_denominator(x, *steps)
    if len(s) == 1:
        (b,) = s
        return D, [(a + g * b) % D for (g,) in rows]
    return D, [(a + sum(map(operator.mul, g, s))) % D for g in rows]


class Space:
    """Everything one space kind knows; each method takes the system first.

    ``coords`` turns points into a coordinate array, or a tuple of them, with
    the points on the leading axis.  ``kernel`` maps two coordinate sets to
    distances elementwise, broadcasting over the leading axes, so the
    distance matrix is ``kernel(U[:, None], V[None])`` and its diagonal is
    ``kernel(U, V)``.  The scalar ``metric`` is separate code on purpose: it
    is the reference the kernel is checked against.  ``near_pair`` draws a
    pair at distance below delta.  ``orbit`` is the action, over coordinate
    rows, and ``observables`` yields the family (module docstring).
    ``orbit_coords(sys, x, rows, tol)`` is the batch form of the action: it
    returns ``coords(sys, orbit(sys, x, rows), tol)`` bit for bit, and that
    composition is its reference.  Each kind reads the orbit from the same
    private helper as its ``orbit``, so the action is still written once.
    Only the readers (``_reader``, ``_orbit_reader``) call ``coords`` and
    ``orbit_coords``.  ``reads_tol`` says whether the scalar metric's value
    depends on the tol it is given.
    """

    kind = ""

    def reads_tol(self, sys: GSystem) -> bool:
        return False

    def near_pair(self, sys: GSystem, rng: random.Random, delta: float):
        raise UnsupportedCaseError(
            f"no built-in near-pair sampler for {self.kind!r} spaces"
        )


class _Circle(Space):
    kind = "circle"

    def orbit(self, sys, x, rows):
        D, numerators = _rotation_numerators(x.payload, sys.param("alphas"), rows)
        return [SystemPoint(sys.system_id, Fraction(n, D)) for n in numerators]

    def orbit_coords(self, sys, x, rows, tol):
        # int / int is correctly rounded, so n / D == float(Fraction(n, D))
        D, numerators = _rotation_numerators(x.payload, sys.param("alphas"), rows)
        return np.array([n / D for n in numerators], dtype=np.float64)

    def metric(self, sys, x, y, tol):
        return _arc(float(x.payload), float(y.payload))

    def coords(self, sys, points, tol):
        return np.array([float(p.payload) for p in points], dtype=np.float64)

    def kernel(self, sys, U, V):
        return _arcs(U, V)

    def parse_point(self, sys, spec):
        return circle_point(sys, spec.get("value") if isinstance(spec, dict) else spec)

    def point_to_dict(self, sys, x):
        return {"value": str(x.payload)}

    def atom_header(self, sys):
        return ["x"]

    def atom_row(self, sys, x):
        return [_cell(float(x.payload))]

    def near_pair(self, sys, rng, delta):
        step = min(Fraction(delta), Fraction(1, 2))
        x = _dyadic(rng)
        return circle_point(sys, x), circle_point(sys, x + _offset(rng, step))

    def observables(self, sys):
        j = 1
        while True:
            w = _TWO_PI * j
            for name, wave in _WAVES:
                yield _batched(
                    sys,
                    f"{name}_{j}",
                    lambda read, w=w, wave=wave: _elementwise(wave, w * read()),
                )
            j += 1


class _Torus(Space):
    kind = "torus"

    def _numerators(self, sys, x, rows):
        # coordinate i moves by g_i * alpha_i; later group coordinates act trivially
        d = len(x.payload)
        D, numerators = _common_denominator(*x.payload, *sys.param("alphas"))
        columns = [
            [(c + g[i] * b) % D for g in rows]
            for i, (c, b) in enumerate(zip(numerators[:d], numerators[d:]))
        ]
        return D, list(zip(*columns))

    def orbit(self, sys, x, rows):
        D, numerators = self._numerators(sys, x, rows)
        return [
            SystemPoint(sys.system_id, tuple(Fraction(c, D) for c in row))
            for row in numerators
        ]

    def orbit_coords(self, sys, x, rows, tol):
        D, numerators = self._numerators(sys, x, rows)
        floats = [[c / D for c in row] for row in numerators]
        return np.array(floats, dtype=np.float64).reshape(-1, len(sys.param("alphas")))

    def metric(self, sys, x, y, tol):
        s = 0.0
        for u, v in zip(x.payload, y.payload):
            s += _arc(float(u), float(v))
        return s

    def coords(self, sys, points, tol):
        rows = [[float(c) for c in p.payload] for p in points]
        return np.array(rows, dtype=np.float64).reshape(-1, len(sys.param("alphas")))

    def kernel(self, sys, U, V):
        D = _arcs(U[..., 0], V[..., 0])
        for c in range(1, U.shape[-1]):
            D = D + _arcs(U[..., c], V[..., c])
        return D

    def parse_point(self, sys, spec):
        return torus_point(sys, spec.get("values") if isinstance(spec, dict) else spec)

    def point_to_dict(self, sys, x):
        return {"values": [str(c) for c in x.payload]}

    def atom_header(self, sys):
        return [f"x{i}" for i in range(len(sys.param("alphas")))]

    def atom_row(self, sys, x):
        return [_cell(float(c)) for c in x.payload]

    def near_pair(self, sys, rng, delta):
        d = len(sys.param("alphas"))
        step = min(Fraction(delta) / d, Fraction(1, 2))
        xs = [_dyadic(rng) for _ in range(d)]
        ys = [c + _offset(rng, step) for c in xs]
        return torus_point(sys, xs), torus_point(sys, ys)

    def observables(self, sys):
        for k in _lattice_characters(len(sys.param("alphas"))):
            label = ",".join(map(str, k))

            def phase(read, k=k) -> np.ndarray:
                # k . v accumulated from 0.0 coordinate by coordinate, as sum() does
                V, s = read(), 0.0
                for c, ki in enumerate(k):
                    s = s + ki * V[:, c]
                return _TWO_PI * s

            for name, wave in _WAVES:
                yield _batched(
                    sys,
                    f"{name}[{label}]",
                    lambda read, ph=phase, wave=wave: _elementwise(wave, ph(read)),
                )


class _Shift(Space):
    kind = "shift"

    def orbit(self, sys, x, rows):
        base, offsets = _shift_offsets(x, rows)
        return [SystemPoint(sys.system_id, shift_word(base, o)) for o in offsets]

    def orbit_coords(self, sys, x, rows, tol):
        positions = _z_enumeration(_truncation_depth(tol))
        return _strip_symbols(*_shift_offsets(x, rows), positions)

    def reads_tol(self, sys):
        return True  # the tol picks the symbol-comparison depth

    def metric(self, sys, x, y, tol):
        u, v = x.payload, y.payload
        s = 0.0
        for i, pos in enumerate(_z_enumeration(_truncation_depth(tol))):
            if u.symbol(pos) != v.symbol(pos):
                s += math.ldexp(1.0, -i - 1)
        return s

    def coords(self, sys, points, tol):
        # one int8 symbol column per enumerated position
        positions = _z_enumeration(_truncation_depth(tol))
        rows = [[p.payload.symbol(pos) for pos in positions] for p in points]
        return np.array(rows, dtype=np.int8).reshape(-1, len(positions))

    def kernel(self, sys, U, V):
        D = np.zeros(np.broadcast_shapes(U.shape[:-1], V.shape[:-1]))
        for i in range(U.shape[-1]):
            D += math.ldexp(1.0, -i - 1) * (U[..., i] != V[..., i])
        return D

    def parse_point(self, sys, spec):
        if not isinstance(spec, dict):
            raise ConfigError("shift points need a word description")
        return shift_point(sys, word_from_dict(spec))

    def point_to_dict(self, sys, x):
        return word_to_dict(x.payload)

    def atom_header(self, sys):
        return ["word"]

    def atom_row(self, sys, x):
        return [json.dumps(word_to_dict(x.payload), sort_keys=True)]

    def near_pair(self, sys, rng, delta):
        # positions with |p| >= c sit at enumeration index >= 2c-1,
        # so any disagreement confined there keeps d <= 2^(1-2c)
        c = 1
        while math.ldexp(1.0, 1 - 2 * c) >= delta:
            c += 1
        base = RandomWord(rng.getrandbits(32))
        if rng.random() < 0.5:
            other = SplicedWord(base, PeriodicWord((1,)), c + rng.randint(0, 3))
        else:
            other = FlippedWord(base, {c + rng.randint(0, 8)})
        return shift_point(sys, base), shift_point(sys, other)

    def observables(self, sys):
        r = 0
        while True:
            # depth 2r+1 reads positions -r..r, in _z_enumeration column order
            tol = math.ldexp(1.0, -2 * r - 1)
            order = [k + r for k in _z_enumeration(2 * r + 1)]
            for pattern in itertools.product((0, 1), repeat=2 * r + 1):
                label = "".join(map(str, pattern))
                columns = [pattern[k] for k in order]
                yield _batched(
                    sys,
                    f"cyl[{-r}..{r}={label}]",
                    lambda read, tol=tol, columns=columns: np.where(
                        np.all(read(tol) == columns, axis=1), 1.0, 0.0
                    ),
                )
            r += 1


class _Interval(Space):
    kind = "interval"

    def _values(self, sys, x, rows):
        # g*x is one power step from the nearest exponent between 0 and g;
        # powers of one sign compose exactly, so each point is bit-identical
        # to iterating |g| times from x
        at = {0: x.payload}
        exponents = sorted({n for (n,) in rows})
        positive = [n for n in exponents if n > 0]
        negative = [n for n in reversed(exponents) if n < 0]
        for side in (positive, negative):
            prev = 0
            for n in side:
                at[n] = _interval_power(at[prev], n - prev)
                prev = n
        return [at[n] for (n,) in rows]

    def orbit(self, sys, x, rows):
        return [SystemPoint(sys.system_id, v) for v in self._values(sys, x, rows)]

    def orbit_coords(self, sys, x, rows, tol):
        return np.array(self._values(sys, x, rows), dtype=np.float64)

    def metric(self, sys, x, y, tol):
        return abs(x.payload - y.payload)

    def coords(self, sys, points, tol):
        return np.array([p.payload for p in points], dtype=np.float64)

    def kernel(self, sys, U, V):
        return np.abs(U - V)

    def parse_point(self, sys, spec):
        value = spec.get("value") if isinstance(spec, dict) else spec
        return interval_point(sys, float(value))

    def point_to_dict(self, sys, x):
        return {"value": x.payload}

    def atom_header(self, sys):
        return ["x"]

    def atom_row(self, sys, x):
        return [_cell(x.payload)]

    def near_pair(self, sys, rng, delta):
        x = rng.random()
        y = min(1.0, max(0.0, x + (2.0 * rng.random() - 1.0) * delta * 0.999))
        return interval_point(sys, x), interval_point(sys, y)

    def observables(self, sys):
        j = 1
        while True:
            yield _batched(
                sys,
                f"pow_{j}",
                lambda read, j=j: _elementwise(operator.pow, read(), itertools.repeat(j)),
            )
            j += 1


class _Union(Space):
    kind = "union"

    def _numerators(self, sys, x, rows):
        # the component's rotation, in integer numerators over one denominator
        tag, value = x.payload
        alpha = sys.param("alpha_a") if tag == "a" else sys.param("alpha_b")
        return (tag, *_rotation_numerators(value, (alpha,), rows))

    def orbit(self, sys, x, rows):
        tag, D, numerators = self._numerators(sys, x, rows)
        return [SystemPoint(sys.system_id, (tag, Fraction(m, D))) for m in numerators]

    def orbit_coords(self, sys, x, rows, tol):
        tag, D, numerators = self._numerators(sys, x, rows)
        tags = np.array([0 if tag == "a" else 1] * len(numerators))
        return tags, np.array([m / D for m in numerators], dtype=np.float64)

    def metric(self, sys, x, y, tol):
        (tag_x, u), (tag_y, v) = x.payload, y.payload
        if tag_x != tag_y:
            return 1.0
        return _arc(float(u), float(v)) * 0.5

    def coords(self, sys, points, tol):
        tags = np.array([0 if p.payload[0] == "a" else 1 for p in points])
        return tags, np.array([float(p.payload[1]) for p in points], dtype=np.float64)

    def kernel(self, sys, U, V):
        (tags_u, u), (tags_v, v) = U, V
        return np.where(tags_u != tags_v, 1.0, _arcs(u, v) * 0.5)

    def parse_point(self, sys, spec):
        if not isinstance(spec, dict):
            raise ConfigError("union points need {'component', 'value'}")
        return union_point(sys, spec["component"], spec["value"])

    def point_to_dict(self, sys, x):
        return {"component": x.payload[0], "value": str(x.payload[1])}

    def atom_header(self, sys):
        return ["component", "x"]

    def atom_row(self, sys, x):
        return [x.payload[0], _cell(float(x.payload[1]))]

    def near_pair(self, sys, rng, delta):
        tag = rng.choice(("a", "b"))
        step = min(Fraction(delta) * 2, Fraction(1, 2))
        x = _dyadic(rng)
        return union_point(sys, tag, x), union_point(sys, tag, x + _offset(rng, step))

    def observables(self, sys):
        # read() is (tags, floats), tag 0 for component a
        yield _batched(sys, "component_a", lambda read: np.where(read()[0] == 0, 1.0, 0.0))

        def on(tag: int, w: float, wave: Callable[[float], float]) -> Callable:
            def batch(read):
                tags, u = read()
                return np.where(tags == tag, _elementwise(wave, w * u), 0.0)

            return batch

        j = 1
        while True:
            w = _TWO_PI * j
            for tag, label in enumerate(("a", "b")):
                for name, wave in _WAVES:
                    yield _batched(sys, f"{name}_{j}@{label}", on(tag, w, wave))
            j += 1


class _Product(Space):
    """Pairs of factor points; every method recurses through the factors."""

    kind = "product"

    def orbit(self, sys, x, rows):
        (a, b), (p, q) = sys.factors, x.payload
        if rows:
            _check_point(a, p)
            _check_point(b, q)
        left = space_of(a).orbit(a, p, rows)
        right = space_of(b).orbit(b, q, rows)
        return [SystemPoint(sys.system_id, pair) for pair in zip(left, right)]

    # coords and orbit_coords are their reader's: the sides, each at tol/2
    def orbit_coords(self, sys, x, rows, tol):
        return _orbit_reader(sys, x, rows)(tol)

    def reads_tol(self, sys):
        return any(space_of(f).reads_tol(f) for f in sys.factors)

    def metric(self, sys, x, y, tol):
        (a, b), (p1, q1), (p2, q2) = sys.factors, x.payload, y.payload
        half = tol / 2.0
        return metric(a, p1, p2, half) + metric(b, q1, q2, half)

    def coords(self, sys, points, tol):
        return _reader(sys, points)(tol)

    def kernel(self, sys, U, V):
        (a, b), (U1, U2), (V1, V2) = sys.factors, U, V
        return space_of(a).kernel(a, U1, V1) + space_of(b).kernel(b, U2, V2)

    def parse_point(self, sys, spec):
        if not isinstance(spec, dict) or "left" not in spec or "right" not in spec:
            raise ConfigError("product points need {'left', 'right'}")
        a, b = sys.factors
        left, right = parse_point(a, spec["left"]), parse_point(b, spec["right"])
        return pair_point(sys, left, right)

    def point_to_dict(self, sys, x):
        (a, b), (p, q) = sys.factors, x.payload
        return {"left": point_to_dict(a, p), "right": point_to_dict(b, q)}

    def atom_header(self, sys):
        left = [f"left_{c}" for c in atom_header(sys.factors[0])]
        right = [f"right_{c}" for c in atom_header(sys.factors[1])]
        return left + right

    def atom_row(self, sys, x):
        (a, b), (p, q) = sys.factors, x.payload
        return atom_row(a, p) + atom_row(b, q)

    def observables(self, sys):
        left, right = (
            ObservableFamily(f.system_id, space_of(f).observables(f)) for f in sys.factors
        )

        def factor(family: ObservableFamily, idx: int) -> Observable:
            return _ONE if idx == 0 else family.observable(idx)

        s = 1
        while True:
            for i in range(s + 1):
                f = factor(left, i)
                g = factor(right, s - i)
                yield _batched(
                    sys,
                    f"{f.name}*{g.name}",
                    lambda read, f=f.batch, g=g.batch: f(read.side(0)) * g(read.side(1)),
                    f.sup_norm * g.sup_norm,
                )
            s += 1


# The one table of space kinds: a new kind plugs in here.
_SPACES: dict[str, Space] = {
    space.kind: space
    for space in (_Circle(), _Torus(), _Shift(), _Interval(), _Union(), _Product())
}


def space_of(sys: GSystem) -> Space:
    """The Space object for the system's space kind."""
    try:
        return _SPACES[sys.space_kind]
    except KeyError:
        raise ValueError(f"unknown space kind {sys.space_kind!r}") from None


# ---------------------------------------------------------------------------
# Action and metric


def act(sys: GSystem, g: GroupElement, x: SystemPoint) -> SystemPoint:
    _check_group(sys, g)
    _check_point(sys, x)
    return space_of(sys).orbit(sys, x, [g.coords])[0]


def _check_subset(sys: GSystem, F: FiniteSubset) -> None:
    if F.group_id != sys.group_id:
        raise GroupMismatchError(
            f"Folner subset over {F.group_id!r} cannot act on {sys.system_id!r}"
        )


def _orbit(sys: GSystem, x: SystemPoint, rows: Sequence) -> list[SystemPoint]:
    """The points g*x for the coordinate rows g, in order."""
    _check_point(sys, x)
    return space_of(sys).orbit(sys, x, rows)


def _rows(F: FiniteSubset) -> list:
    """F's coordinate rows as lists of Python ints, the rows ``Space.orbit`` takes."""
    return F.coords_array().tolist()


def orbit_sample(sys: GSystem, x: SystemPoint, F: FiniteSubset) -> list[SystemPoint]:
    """The orbit piece [g*x for g in F], in F's enumeration order."""
    _check_point(sys, x)
    _check_subset(sys, F)
    return space_of(sys).orbit(sys, x, _rows(F))


def metric(sys: GSystem, x: SystemPoint, y: SystemPoint, tol: float = 1e-9) -> float:
    """Distance with absolute error at most tol.

    Algebraic payloads are exact to float roundoff (far below any sensible
    tol); for shift systems the tol picks the symbol-comparison depth.
    """
    _check_tol(tol)
    _check_point(sys, x)
    _check_point(sys, y)
    return space_of(sys).metric(sys, x, y, tol)


def _at(coords, key):
    """coords[key], applied through the tuples of union and product coords."""
    if isinstance(coords, tuple):
        return tuple(_at(c, key) for c in coords)
    return coords[key]


def pairwise_distances(
    sys: GSystem,
    xs: Sequence[SystemPoint],
    ys: Sequence[SystemPoint],
    tol: float = 1e-9,
) -> np.ndarray:
    """Matrix D[i, j] = metric(sys, xs[i], ys[j], tol), vectorized.

    Agrees with the scalar metric bit for bit: both paths use the same
    floating-point formulas in the same order.
    """
    return _kernel_matrix(sys, _reader(sys, xs)(tol), _reader(sys, ys)(tol))


def _kernel_matrix(sys: GSystem, U, V) -> np.ndarray:
    """D[i, j] = kernel(U[i], V[j]) for two coordinate sets read by a reader."""
    return space_of(sys).kernel(sys, _at(U, np.s_[:, None]), _at(V, np.s_[None]))


def paired_distances(
    sys: GSystem,
    xs: Sequence[SystemPoint],
    ys: Sequence[SystemPoint],
    tol: float = 1e-9,
) -> np.ndarray:
    """Vector of metric(xs[i], ys[i], tol); the diagonal counterpart."""
    if len(xs) != len(ys):
        raise ValueError("paired_distances needs equally long sequences")
    return space_of(sys).kernel(sys, _reader(sys, xs)(tol), _reader(sys, ys)(tol))


# ---------------------------------------------------------------------------
# Catalog


def _surrogate_flags(*values: Fraction) -> frozenset[str]:
    if all(v.denominator > SURROGATE_DENOMINATOR for v in values):
        return frozenset({"irrational_surrogate"})
    return frozenset()


def rotation(alpha: object = "golden") -> GSystem:
    a = parse_rational(alpha) % 1
    if a == 0:
        raise ConfigError("rotation number must be nonzero mod 1", "alpha")
    return GSystem(
        system_id=f"rotation(alpha={a})",
        group_id="Z",
        space_kind="circle",
        params=(("alphas", (a,)),),
        diameter_bound=0.5,
        flags=_surrogate_flags(a),
    )


def zd_rotation(alphas: Sequence[object]) -> GSystem:
    parsed = tuple(parse_rational(a) % 1 for a in alphas)
    if len(parsed) < 2:
        raise ConfigError("need at least two rotation numbers", "alphas")
    group_id = f"Z^{len(parsed)}"
    label = ",".join(str(a) for a in parsed)
    return GSystem(
        system_id=f"zd_rotation(alphas={label})",
        group_id=group_id,
        space_kind="circle",
        params=(("alphas", parsed),),
        diameter_bound=0.5,
        flags=_surrogate_flags(*parsed),
    )


def heisenberg_rotation(alpha: object = "golden", beta: object = "golden") -> GSystem:
    a = parse_rational(alpha) % 1
    b = parse_rational(beta) % 1
    return GSystem(
        system_id=f"heisenberg_rotation(alpha={a},beta={b})",
        group_id="heisenberg",
        space_kind="torus",
        params=(("alphas", (a, b)),),
        diameter_bound=1.0,
        flags=_surrogate_flags(a, b),
    )


def full_shift() -> GSystem:
    return GSystem(
        system_id="full_shift()",
        group_id="Z",
        space_kind="shift",
        params=(),
        diameter_bound=1.0,
    )


def two_rotations(alpha_a: object = "golden", alpha_b: object = "golden") -> GSystem:
    a = parse_rational(alpha_a) % 1
    b = parse_rational(alpha_b) % 1
    return GSystem(
        system_id=f"two_rotations(alpha_a={a},alpha_b={b})",
        group_id="Z",
        space_kind="union",
        params=(("alpha_a", a), ("alpha_b", b)),
        diameter_bound=1.0,
        flags=_surrogate_flags(a, b),
    )


def interval_square() -> GSystem:
    return GSystem(
        system_id="interval_square()",
        group_id="Z",
        space_kind="interval",
        params=(),
        diameter_bound=1.0,
    )


def product_system(sys: GSystem) -> GSystem:
    """The product of a system with itself; diagonal action, sum metric."""
    return GSystem(
        system_id=f"product({sys.system_id})",
        group_id=sys.group_id,
        space_kind="product",
        params=(),
        diameter_bound=2.0 * sys.diameter_bound,
        factors=(sys, sys),
        flags=sys.flags,
    )


@dataclass(frozen=True)
class ExpectedProperties:
    """Documented expectations for a catalog entry (at surrogate scale)."""

    uniquely_ergodic: bool
    mean_equicontinuous: bool
    weak_mean_equicontinuous: bool
    full_measure_center: bool


@dataclass(frozen=True)
class SystemCatalogEntry:
    name: str
    summary: str
    param_schema: tuple[tuple[str, str], ...]
    expected: ExpectedProperties
    build: Callable[..., GSystem] = field(compare=False)


_CATALOG: dict[str, SystemCatalogEntry] = {
    entry.name: entry
    for entry in (
        SystemCatalogEntry(
            name="rotation",
            summary="circle rotation x -> x + alpha under the integers",
            param_schema=(("alpha", "rational; 'golden' for the built-in surrogate"),),
            expected=ExpectedProperties(True, True, True, True),
            build=lambda params: rotation(params.get("alpha", "golden")),
        ),
        SystemCatalogEntry(
            name="zd_rotation",
            summary="Z^d translating the circle: g maps x to x + sum g_i alpha_i",
            param_schema=(("alphas", "list of rationals, length d >= 2"),),
            expected=ExpectedProperties(True, True, True, True),
            build=lambda params: zd_rotation(params["alphas"]),
        ),
        SystemCatalogEntry(
            name="heisenberg_rotation",
            summary="Heisenberg group translating the 2-torus through (a, b); "
            "exercises nonabelian Folner bookkeeping on an equicontinuous space",
            param_schema=(("alpha", "rational"), ("beta", "rational")),
            expected=ExpectedProperties(True, True, True, True),
            build=lambda params: heisenberg_rotation(
                params.get("alpha", "golden"), params.get("beta", "golden")
            ),
        ),
        SystemCatalogEntry(
            name="full_shift",
            summary="the shift on {0,1}^Z; points are rule-backed words",
            param_schema=(),
            expected=ExpectedProperties(False, False, False, True),
            build=lambda params: full_shift(),
        ),
        SystemCatalogEntry(
            name="two_rotations",
            summary="disjoint union of two circle rotations; cross distance 1, "
            "intra distance at most 1/4",
            param_schema=(
                ("alpha_a", "rational for component a"),
                ("alpha_b", "rational for component b"),
            ),
            expected=ExpectedProperties(False, True, True, True),
            build=lambda params: two_rotations(
                params.get("alpha_a", "golden"), params.get("alpha_b", "golden")
            ),
        ),
        SystemCatalogEntry(
            name="interval_square",
            summary="x -> x^2 on [0, 1] extended to an invertible integer action; "
            "fixed points 0 and 1, measure center strictly smaller than the space",
            param_schema=(),
            expected=ExpectedProperties(False, False, False, False),
            build=lambda params: interval_square(),
        ),
    )
}


def catalog() -> dict[str, SystemCatalogEntry]:
    return dict(_CATALOG)


def build_system(name: str, params: dict | None = None) -> GSystem:
    if name not in _CATALOG:
        known = ", ".join(sorted(_CATALOG))
        raise ConfigError(f"unknown system {name!r}; known systems: {known}")
    entry = _CATALOG[name]
    params = dict(params or {})
    allowed = {key for key, _ in entry.param_schema}
    for key in params:
        if key not in allowed:
            raise ConfigError(f"unknown parameter {key!r} for system {name!r}", key)
    return entry.build(params)


# ---------------------------------------------------------------------------
# Point (de)serialization


def parse_point(sys: GSystem, spec: object) -> SystemPoint:
    """Build a point from a JSON-style description."""
    return space_of(sys).parse_point(sys, spec)


def point_to_dict(sys: GSystem, x: SystemPoint) -> object:
    return space_of(sys).point_to_dict(sys, x)


def atom_header(sys: GSystem) -> list[str]:
    """CSV column names for one atom of this system."""
    return space_of(sys).atom_header(sys)


def atom_row(sys: GSystem, x: SystemPoint) -> list[str]:
    """CSV cells for one atom, matching atom_header."""
    return space_of(sys).atom_row(sys, x)


def _cell(value: object) -> str:
    """One CSV cell: a float to 12 significant digits; an int, an exact
    Fraction (as p/q) or a tag by str."""
    return "%.12g" % value if isinstance(value, float) else str(value)
