"""Empirical measures along Folner sets and a weak-* metric on them.

The weak-* metric is built from a fixed, documented observable family per
space; comparing values produced with different families is meaningless and
never done here.

Families (1-based index i):
  circle    i = 2j-1 -> cos(2*pi*j*x), i = 2j -> sin(2*pi*j*x)
  torus     characters k in Z^d \\ {0} enumerated by sup-norm shell then
            lexicographically; character c gives cos at i = 2c+1 and sin at
            i = 2c+2
  shift     cylinder indicators: windows of radius r = 0, 1, ... centred at
            the origin, patterns in lexicographic order within each window
  interval  monomials x^i
  union     i = 1 the component-a indicator, then for j = 1, 2, ... the block
            (cos_j on a, sin_j on a, cos_j on b, sin_j on b), each vanishing
            off its component
  product   h(x, y) = f_i(x) * g_j(y) with factor indices (i, j) walked along
            anti-diagonals i + j = 1, 2, ... (index 0 means the constant 1)

Every family observable reads a point through a view shared by many
observables, and is ``on_view(view(p))``:
  circle    the payload as a float
  torus     the tuple of coordinate floats
  shift     the symbol window of radius r (one view per radius)
  interval  the payload
  union     (component tag, float)
  product   the pair of the two factor views
An empirical measure computes a view once for all its atoms and keeps it, so
``integrate`` applies only ``on_view`` per atom; the values are bit for bit
those of ``fn``, which performs the same float operations in the same order.
Plain callables, and observables built directly from ``fn``, still run on
every atom.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from .errors import SystemMismatchError
from .groups import FiniteSubset
from .systems import GSystem, SystemPoint, atom_header, atom_row, orbit_sample, point_to_dict

__all__ = [
    "EmpiricalMeasure",
    "Observable",
    "ObservableFamily",
    "MeasureDistanceResult",
    "empirical_measure",
    "integrate",
    "birkhoff_average",
    "rho_distance",
    "observable_family",
    "measure_csv_table",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atomic measure on an orbit piece; weights are exactly 1/n."""

    system: GSystem
    atoms: tuple[SystemPoint, ...]
    origin: tuple[str, str]
    # view -> [view(a) for a in atoms], filled on first use; not part of the value
    _views: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("an empirical measure needs at least one atom")

    def _view(self, view: Callable[[SystemPoint], object]) -> list:
        try:
            return self._views[view]
        except KeyError:
            values = self._views[view] = [view(a) for a in self.atoms]
            return values

    @property
    def count(self) -> int:
        return len(self.atoms)

    @property
    def weight(self) -> Fraction:
        return Fraction(1, self.count)


def empirical_measure(sys: GSystem, x: SystemPoint, F: FiniteSubset) -> EmpiricalMeasure:
    """The measure (1/|F|) * sum of point masses at g*x for g in F."""
    if F.size == 0:
        raise ValueError("Folner subset must be nonempty")
    return _measure_on(sys, x, F, orbit_sample(sys, x, F))


def _measure_on(
    sys: GSystem, x: SystemPoint, F: FiniteSubset, atoms: Sequence[SystemPoint]
) -> EmpiricalMeasure:
    """The empirical measure of x over F, given the orbit atoms g*x for g in F."""
    origin = (
        json.dumps(point_to_dict(sys, x), sort_keys=True),
        f"{F.group_id} subset, size {F.size}",
    )
    return EmpiricalMeasure(sys, tuple(atoms), origin)


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
class _ViewObservable(Observable):
    """An observable whose fn is on_view(view(p)); measures cache the view."""

    view: Callable[[SystemPoint], object]
    on_view: Callable[[object], float]


def _viewed(
    name: str,
    view: Callable[[SystemPoint], object],
    on_view: Callable[[object], float],
    sup_norm: float = 1.0,
) -> Observable:
    return _ViewObservable(name, sup_norm, lambda p: on_view(view(p)), view, on_view)


def _float_payload(p: SystemPoint) -> float:
    return float(p.payload)


def _float_coords(p: SystemPoint) -> tuple[float, ...]:
    return tuple(float(c) for c in p.payload)


def _payload(p: SystemPoint) -> object:
    return p.payload


def _tagged_float(p: SystemPoint) -> tuple[str, float]:
    return p.payload[0], float(p.payload[1])


def _no_view(p: SystemPoint) -> None:
    return None


@dataclass(frozen=True)
class _Window:
    """The symbols of a shift point at positions -radius..radius.

    Views that compare equal share one cache entry in a measure, so the
    families of separate observable_family calls share their windows.
    """

    radius: int

    def __call__(self, p: SystemPoint) -> tuple[int, ...]:
        word = p.payload
        return tuple(word.symbol(k) for k in range(-self.radius, self.radius + 1))


@dataclass(frozen=True)
class _PairView:
    """The two factor views of a product point."""

    left: Callable[[SystemPoint], object]
    right: Callable[[SystemPoint], object]

    def __call__(self, p: SystemPoint) -> tuple[object, object]:
        return self.left(p.payload[0]), self.right(p.payload[1])


def _circle_gen() -> Iterator[Observable]:
    j = 1
    while True:
        w = _TWO_PI * j
        yield _viewed(f"cos_{j}", _float_payload, lambda v, w=w: math.cos(w * v))
        yield _viewed(f"sin_{j}", _float_payload, lambda v, w=w: math.sin(w * v))
        j += 1


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


def _torus_gen(d: int) -> Iterator[Observable]:
    for k in _lattice_characters(d):
        label = ",".join(map(str, k))

        def phase(v: tuple[float, ...], k=k) -> float:
            return _TWO_PI * sum(ki * c for ki, c in zip(k, v))

        yield _viewed(f"cos[{label}]", _float_coords, lambda v, ph=phase: math.cos(ph(v)))
        yield _viewed(f"sin[{label}]", _float_coords, lambda v, ph=phase: math.sin(ph(v)))


def _cylinder_gen() -> Iterator[Observable]:
    r = 0
    while True:
        window = _Window(r)
        for pattern in itertools.product((0, 1), repeat=2 * r + 1):
            label = "".join(map(str, pattern))
            yield _viewed(
                f"cyl[{-r}..{r}={label}]",
                window,
                lambda v, pattern=pattern: 1.0 if v == pattern else 0.0,
            )
        r += 1


def _monomial_gen() -> Iterator[Observable]:
    j = 1
    while True:
        yield _viewed(f"pow_{j}", _payload, lambda v, j=j: v**j)
        j += 1


def _union_gen() -> Iterator[Observable]:
    yield _viewed("component_a", _tagged_float, lambda v: 1.0 if v[0] == "a" else 0.0)
    j = 1
    while True:
        w = _TWO_PI * j
        for tag in ("a", "b"):
            yield _viewed(
                f"cos_{j}@{tag}",
                _tagged_float,
                lambda v, w=w, tag=tag: math.cos(w * v[1]) if v[0] == tag else 0.0,
            )
            yield _viewed(
                f"sin_{j}@{tag}",
                _tagged_float,
                lambda v, w=w, tag=tag: math.sin(w * v[1]) if v[0] == tag else 0.0,
            )
        j += 1


def _product_gen(left: ObservableFamily, right: ObservableFamily) -> Iterator[Observable]:
    one = _viewed("one", _no_view, lambda v: 1.0)

    def factor(family: ObservableFamily, idx: int) -> Observable:
        return one if idx == 0 else family.observable(idx)

    s = 1
    while True:
        for i in range(s + 1):
            f = factor(left, i)
            g = factor(right, s - i)
            yield _viewed(
                f"{f.name}*{g.name}",
                _PairView(f.view, g.view),
                lambda v, f=f.on_view, g=g.on_view: f(v[0]) * g(v[1]),
                f.sup_norm * g.sup_norm,
            )
        s += 1


def observable_family(sys: GSystem) -> ObservableFamily:
    """The fixed dense family for this system's space."""
    kind = sys.space_kind
    if kind == "circle":
        gen = _circle_gen()
    elif kind == "torus":
        gen = _torus_gen(len(sys.param("alphas")))
    elif kind == "shift":
        gen = _cylinder_gen()
    elif kind == "interval":
        gen = _monomial_gen()
    elif kind == "union":
        gen = _union_gen()
    elif kind == "product":
        gen = _product_gen(
            observable_family(sys.factors[0]), observable_family(sys.factors[1])
        )
    else:
        raise ValueError(f"unknown space kind {kind!r}")
    return ObservableFamily(sys.system_id, gen)


def integrate(
    mu: EmpiricalMeasure, f: Observable | Callable[[SystemPoint], float], tol: float = 1e-9
) -> float:
    """(1/n) * sum of f over the atoms, with compensated summation.

    The summation itself is correctly rounded (fsum); tol is the budget the
    caller grants for the per-atom evaluations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if isinstance(f, _ViewObservable):
        values = map(f.on_view, mu._view(f.view))
    else:
        values = map(f.fn if isinstance(f, Observable) else f, mu.atoms)
    return math.fsum(values) / mu.count


def birkhoff_average(
    sys: GSystem,
    f: Observable | Callable[[SystemPoint], float],
    x: SystemPoint,
    F: FiniteSubset,
    tol: float = 1e-9,
) -> float:
    """(1/|F|) * sum over g in F of f(g*x)."""
    return integrate(empirical_measure(sys, x, F), f, tol)


@dataclass(frozen=True)
class MeasureDistanceResult:
    value: float
    tail_bound: float
    terms_used: int


def rho_distance(
    mu: EmpiricalMeasure,
    nu: EmpiricalMeasure,
    family: ObservableFamily | None = None,
    N: int = 40,
) -> MeasureDistanceResult:
    """Partial sum of sum_i |int f_i dmu - int f_i dnu| / (2^i (||f_i|| + 1)).

    The returned value is a lower bound for the full series; value plus
    tail_bound = 2^(1-N) is an upper bound.
    """
    if N < 1:
        raise ValueError("N must be at least 1")
    if mu.system.system_id != nu.system.system_id:
        raise SystemMismatchError(
            f"measures live on different spaces: {mu.system.system_id!r} "
            f"vs {nu.system.system_id!r}"
        )
    if family is None:
        family = observable_family(mu.system)
    terms = []
    for i in range(1, N + 1):
        f = family.observable(i)
        gap = abs(integrate(mu, f) - integrate(nu, f))
        terms.append(gap / (math.ldexp(1.0, i) * (f.sup_norm + 1.0)))
    return MeasureDistanceResult(math.fsum(terms), math.ldexp(1.0, 1 - N), N)


def measure_csv_table(mu: EmpiricalMeasure) -> tuple[list[str], list[list[str]]]:
    """Header and rows (atom coordinates plus exact weight) for CSV export."""
    header = atom_header(mu.system) + ["weight"]
    weight = str(mu.weight)
    rows = [atom_row(mu.system, a) + [weight] for a in mu.atoms]
    return header, rows
