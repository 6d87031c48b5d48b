"""Empirical measures along Folner sets and a weak-* metric on them.

The weak-* metric is built from a fixed, documented observable family per
space; comparing values produced with different families is meaningless and
never done here.  Each space kind's ``Space`` in ``systems`` owns its family,
and the ``systems`` docstring tables each family and the coordinate arrays
its observables read.

Integrals come from one evaluation per orbit point: ``_integrals`` runs each
observable once over an orbit, as one batch for a family observable, and
takes the integral over each subset of the orbit from those values.  The
sum is ``math.fsum``, exactly rounded, so the order of the points does not
change it, and an integral over a shared orbit equals ``integrate`` on the
subset's own measure bit for bit.

A measure made by ``empirical_measure`` is an orbit piece: it holds its
point x and its subset F, and builds its atoms g*x only when something reads
``atoms`` (its ``repr``, ``==``, ``hash``, a CSV export).
``EmpiricalMeasure(sys, atoms, origin)`` is a point-list measure that holds
the atoms it is given.  The two forms are equal when their atoms are.

The orbit comes as a reader: ``systems._orbit_reader(sys, x, rows)`` reads
``orbit_coords`` of an orbit piece's point and rows, building the points only
when a plain callable needs them, and ``systems._reader(sys, atoms)`` reads
the space's ``coords`` of a point list's atoms; the arrays are bit for bit
the same.  ``integrate``, ``rho_distance``, ``birkhoff_average``, W1 and the
cost matrix read a measure through ``EmpiricalMeasure._reader``, so on an
orbit piece none of them builds an atom.
"""

from __future__ import annotations

import json
import math
from dataclasses import FrozenInstanceError, dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import SystemMismatchError
from .groups import FiniteSubset
from .systems import (
    GSystem, Observable, ObservableFamily, SystemPoint, _BatchObservable, _Reader,
    _check_point, _check_subset, _check_tol, _orbit, _orbit_reader, _reader, _rows,
    atom_header, atom_row, point_to_dict, space_of,
)

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


class EmpiricalMeasure:
    """Uniform atomic measure on an orbit piece; weights are exactly 1/n.

    ``EmpiricalMeasure(system, atoms, origin)`` holds the atoms it is given.
    A measure made by ``empirical_measure`` is the orbit piece itself: it
    holds the point x and the subset F, takes ``count`` from F and builds
    ``atoms``, the points g*x for the rows g of F, only when they are first
    read.  Both forms compare, hash and print by (system, atoms, origin), and
    neither can be changed once made.
    """

    def __init__(
        self, system: GSystem, atoms: tuple[SystemPoint, ...], origin: tuple[str, str]
    ) -> None:
        if not atoms:
            raise ValueError("an empirical measure needs at least one atom")
        for a in atoms:
            _check_point(system, a)
        self._init(system, atoms, origin, None)

    def _init(self, system: GSystem, atoms, origin: tuple[str, str], orbit) -> None:
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "_atoms", atoms)
        object.__setattr__(self, "_orbit", orbit)

    @classmethod
    def _of_orbit(
        cls, system: GSystem, x: SystemPoint, F: FiniteSubset, origin: tuple[str, str]
    ) -> "EmpiricalMeasure":
        """The measure on the orbit piece g*x for g in F, with no atom built."""
        self = object.__new__(cls)
        self._init(system, None, origin, (x, F))
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def atoms(self) -> tuple[SystemPoint, ...]:
        if self._atoms is None:
            x, F = self._orbit
            object.__setattr__(self, "_atoms", tuple(_orbit(self.system, x, _rows(F))))
        return self._atoms

    @property
    def count(self) -> int:
        return len(self.atoms) if self._orbit is None else self._orbit[1].size

    @property
    def weight(self) -> Fraction:
        return Fraction(1, self.count)

    def _reader(self) -> _Reader:
        """The reader of the atoms: of the orbit piece, or of the point list."""
        if self._orbit is None:
            return _reader(self.system, self.atoms)
        x, F = self._orbit
        return _orbit_reader(self.system, x, _rows(F))

    def _key(self) -> tuple:
        return (self.system, self.atoms, self.origin)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(system={self.system!r}, "
            f"atoms={self.atoms!r}, origin={self.origin!r})"
        )


def empirical_measure(sys: GSystem, x: SystemPoint, F: FiniteSubset) -> EmpiricalMeasure:
    """The measure (1/|F|) * sum of point masses at g*x for g in F.

    It is the orbit piece (x, F): its atoms are built only when read.
    """
    if F.size == 0:
        raise ValueError("Folner subset must be nonempty")
    _check_point(sys, x)
    _check_subset(sys, F)
    origin = (
        json.dumps(point_to_dict(sys, x), sort_keys=True),
        f"{F.group_id} subset, size {F.size}",
    )
    return EmpiricalMeasure._of_orbit(sys, x, F, origin)


def observable_family(sys: GSystem) -> ObservableFamily:
    """The fixed dense family for this system's space (see ``systems``)."""
    return ObservableFamily(sys.system_id, space_of(sys).observables(sys))


def _integrals(
    read: _Reader,
    positions: Sequence[np.ndarray],
    observables: Sequence[Observable | Callable[[SystemPoint], float]],
) -> list[list[float]]:
    """table[k][i] = (1/|F_k|) * fsum of observables[i] over the orbit at positions[k].

    Each observable is evaluated once per orbit point: a family observable as
    one batch over the reader's coordinate arrays, any other per point of
    ``read.points``.  ``positions[k]`` holds the indices into the orbit of
    the k-th subset's points.
    """
    columns = []
    for f in observables:
        if isinstance(f, _BatchObservable):
            columns.append(f.batch(read))
        else:
            fn = f.fn if isinstance(f, Observable) else f
            atoms = read.points
            # object dtype keeps each returned value as fsum would see it
            columns.append(np.fromiter(map(fn, atoms), object, len(atoms)))
    return [
        [math.fsum(values[pos].tolist()) / len(pos) for values in columns]
        for pos in positions
    ]


def _everywhere(count: int) -> list[np.ndarray]:
    """Every position of a count-point orbit, as the one subset of _integrals."""
    return [np.arange(count)]


def integrate(
    mu: EmpiricalMeasure, f: Observable | Callable[[SystemPoint], float], tol: float = 1e-9
) -> float:
    """(1/n) * sum of f over the atoms, with compensated summation.

    tol must be positive and finite, and it does not change the value: family
    observables are exact to float rounding, and the sum is ``math.fsum``,
    correctly rounded.
    """
    _check_tol(tol)
    return _integrals(mu._reader(), _everywhere(mu.count), [f])[0][0]


def birkhoff_average(
    sys: GSystem,
    f: Observable | Callable[[SystemPoint], float],
    x: SystemPoint,
    F: FiniteSubset,
    tol: float = 1e-9,
) -> float:
    """(1/|F|) * sum over g in F of f(g*x).

    As in ``integrate``, tol must be positive and finite and does not change
    the value.
    """
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
    if family is None:
        family = observable_family(mu.system)
    terms = _rho_terms(family, N)
    if mu.system.system_id != nu.system.system_id:
        raise SystemMismatchError(
            f"measures live on different spaces: {mu.system.system_id!r} "
            f"vs {nu.system.system_id!r}"
        )
    a, b = (_integrals(m._reader(), _everywhere(m.count), terms)[0] for m in (mu, nu))
    return MeasureDistanceResult(_rho_sum(terms, a, b), math.ldexp(1.0, 1 - N), N)


def _rho_terms(family: ObservableFamily, N: int) -> list[Observable]:
    """The first N observables of the family, rho's terms."""
    if N < 1:
        raise ValueError("N must be at least 1")
    return [family.observable(i) for i in range(1, N + 1)]


def _rho_sum(terms: Sequence[Observable], a: Sequence[float], b: Sequence[float]) -> float:
    """rho's partial sum, given each term's integral under the two measures."""
    return math.fsum(
        abs(x - y) / (math.ldexp(1.0, i) * (f.sup_norm + 1.0))
        for i, (f, x, y) in enumerate(zip(terms, a, b), start=1)
    )


def measure_csv_table(mu: EmpiricalMeasure) -> tuple[list[str], list[list[str]]]:
    """Header and rows (atom coordinates plus exact weight) for CSV export."""
    header = atom_header(mu.system) + ["weight"]
    weight = str(mu.weight)
    rows = [atom_row(mu.system, a) + [weight] for a in mu.atoms]
    return header, rows
