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

The orbit comes as a reader: ``systems._reader(sys, atoms)`` reads the
space's ``coords`` of a measure's atoms, and ``systems._orbit_reader(sys, x,
rows)`` reads ``orbit_coords`` of a point and coordinate rows, bit for bit the
same arrays, building the points only when a plain callable needs them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .errors import SystemMismatchError
from .groups import FiniteSubset
from .systems import (
    GSystem, Observable, ObservableFamily, SystemPoint, _BatchObservable, _Reader,
    _reader, atom_header, atom_row, orbit_sample, point_to_dict, space_of,
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


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Uniform atomic measure on an orbit piece; weights are exactly 1/n."""

    system: GSystem
    atoms: tuple[SystemPoint, ...]
    origin: tuple[str, str]

    def __post_init__(self) -> None:
        if not self.atoms:
            raise ValueError("an empirical measure needs at least one atom")

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

    The summation itself is correctly rounded (fsum); tol is the budget the
    caller grants for the per-atom evaluations.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    return _integrals(_reader(mu.system, mu.atoms), _everywhere(mu.count), [f])[0][0]


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
    if family is None:
        family = observable_family(mu.system)
    terms = _rho_terms(family, N)
    if mu.system.system_id != nu.system.system_id:
        raise SystemMismatchError(
            f"measures live on different spaces: {mu.system.system_id!r} "
            f"vs {nu.system.system_id!r}"
        )
    a, b = (
        _integrals(_reader(m.system, m.atoms), _everywhere(m.count), terms)[0]
        for m in (mu, nu)
    )
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
