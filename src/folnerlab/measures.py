"""Empirical measures along Folner sets and a weak-* metric on them.

The weak-* metric is built from a fixed, documented observable family per
space; comparing values produced with different families is meaningless and
never done here.  Each space kind's ``Space`` in ``systems`` owns its family
and the views its observables read; the ``systems`` docstring tables both.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

from .errors import SystemMismatchError
from .groups import FiniteSubset
from .systems import (
    GSystem, Observable, ObservableFamily, SystemPoint, _ViewObservable, atom_header,
    atom_row, orbit_sample, point_to_dict, space_of,
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


def observable_family(sys: GSystem) -> ObservableFamily:
    """The fixed dense family for this system's space (see ``systems``)."""
    return ObservableFamily(sys.system_id, space_of(sys).observables(sys))


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
