"""Pseudometric traces and finite-scale diagnostics.

Every limit-flavoured quantity here is estimated from a finite trace and
reported as evidence, never certified: the limsup estimate of a trace is the
maximum over the last half of the computed indices.  Thresholds (such as the
0.05 default for "consistent with unique ergodicity at this scale") are
reported alongside the raw values.
"""

from __future__ import annotations

import math
import random
from dataclasses import astuple, dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import UnsupportedCaseError
from .groups import FiniteSubset, FolnerSequence
from .measures import (
    EmpiricalMeasure,
    Observable,
    ObservableFamily,
    _integrals,
    _rho_sum,
    _rho_terms,
    empirical_measure,
    observable_family,
)
from .systems import (
    GSystem, SystemPoint, _at, _cell, _check_point, _check_subset, _orbit_reader,
    _rows, metric, pair_point, space_of,
)
from .transport import _w1_many, wasserstein_empirical

__all__ = [
    "PseudometricTrace",
    "ModulusEstimate",
    "GenericMeasureTrace",
    "CouplingBoundsRow",
    "CouplingBoundsReport",
    "UniqueErgodicityReport",
    "ContinuityReport",
    "UniformConvergenceReport",
    "wasserstein_trace",
    "mean_distance_trace",
    "orbit_permutation_distance",
    "coupling_bounds_check",
    "modulus_estimate",
    "near_pair_sampler",
    "unique_ergodicity_diagnostic",
    "generic_measure_trace",
    "measure_map_continuity_diagnostic",
    "uniform_convergence_diagnostic",
]

DEFAULT_UNIQUE_ERGODICITY_THRESHOLD = 0.05


def _last_half_max(values: Sequence[float]) -> float:
    return max(values[len(values) // 2 :])


def _check_indices(indices: Sequence[int]) -> tuple[int, ...]:
    out = tuple(int(n) for n in indices)
    if not out:
        raise ValueError("need at least one index")
    if any(n < 1 for n in out) or any(a >= b for a, b in zip(out, out[1:])):
        raise ValueError("indices must be positive and strictly increasing")
    return out


def _csv(header: Sequence[str], rows) -> tuple[list[str], list[list[str]]]:
    """A report's CSV table: the header, and each row's values as cells."""
    return list(header), [[_cell(v) for v in row] for row in rows]


def _records(header: Sequence[str], rows) -> list[dict]:
    """A report's JSON rows: each row's values keyed by the CSV header."""
    return [dict(zip(header, row)) for row in rows]


def _union_rows(
    sys: GSystem, subsets: Sequence[FiniteSubset]
) -> tuple[list[tuple[int, ...]], list[np.ndarray]]:
    """The rows of the subsets' union, each once, and each subset's positions in it.

    The union lists the last subset's rows first, with one dict from
    coordinate row to position, so for a nested sequence every earlier subset
    is a lookup; a row outside it is appended when first met.
    """
    index: dict[tuple[int, ...], int] = {}
    positions = []
    for F in reversed(subsets):
        _check_subset(sys, F)
        rows = list(map(tuple, _rows(F)))
        missing = [g for g in rows if g not in index]
        index.update(zip(missing, range(len(index), len(index) + len(missing))))
        positions.append(np.fromiter(map(index.__getitem__, rows), np.intp, len(rows)))
    return list(index), positions[::-1]


def _coords_along(sys: GSystem, points: Sequence[SystemPoint], subsets, tol) -> list:
    """out[k][i]: the coords of points[i]'s orbit over subsets[k] at tol/|F_k|.

    A space whose coords do not depend on the tol reads each point once, over
    the union of the subsets, and slices that orbit per subset.
    """
    if not space_of(sys).reads_tol(sys):
        rows, positions = _union_rows(sys, subsets)
        orbits = [_orbit_reader(sys, p, rows)(tol) for p in points]
        return [[_at(U, pos) for U in orbits] for pos in positions]
    # a shift's symbol depth: each index reads its points together at tol/|F|
    out = []
    for F in subsets:
        rows, _ = _union_rows(sys, [F])
        out.append([_orbit_reader(sys, p, rows)(tol / F.size) for p in points])
    return out


def _mean_distance(sys: GSystem, U, V) -> float:
    """(1/n) * fsum of the kernel over n paired coordinates."""
    d = space_of(sys).kernel(sys, U, V)
    return math.fsum(d.tolist()) / len(d)


@dataclass(frozen=True)
class PseudometricTrace:
    """Finite trace n -> value of a pseudometric estimate."""

    kind: str  # "wasserstein" | "mean_distance"
    indices: tuple[int, ...]
    values: tuple[float, ...]
    _header = ("n", "value")

    @property
    def limsup_estimate(self) -> float:
        return _last_half_max(self.values)

    def csv_table(self) -> tuple[list[str], list[list[str]]]:
        return _csv(self._header, zip(self.indices, self.values))


def wasserstein_trace(
    sys: GSystem,
    x: SystemPoint,
    y: SystemPoint,
    seq: FolnerSequence,
    indices: Sequence[int],
    tol: float = 1e-9,
) -> PseudometricTrace:
    """values[k] = W(empirical(x, F_{n_k}), empirical(y, F_{n_k})).

    The indices' W1s are solved as one batch (``transport._w1_many``).
    """
    return _wasserstein_traces(sys, [(x, y)], seq, indices, tol)[0]


def _wasserstein_traces(
    sys: GSystem,
    xys: Sequence[tuple[SystemPoint, SystemPoint]],
    seq: FolnerSequence,
    indices: Sequence[int],
    tol: float,
) -> list[PseudometricTrace]:
    """wasserstein_trace of every pair (x, y) in xys, as one batch of W1s."""
    indices = _check_indices(indices)
    subsets = [seq.subset(n) for n in indices]
    sides = [side for x, y in xys for side in _coords_along(sys, [x, y], subsets, tol)]
    w = iter(_w1_many(sys, sides))
    return [
        PseudometricTrace("wasserstein", indices, tuple(next(w) for _ in indices))
        for _ in xys
    ]


def mean_distance_trace(
    sys: GSystem,
    x: SystemPoint,
    y: SystemPoint,
    seq: FolnerSequence,
    indices: Sequence[int],
    tol: float = 1e-9,
) -> PseudometricTrace:
    """values[k] = (1/|F_{n_k}|) * sum over g of d(g*x, g*y), each d at tol/|F_{n_k}|.

    The distances are the space's kernel on the two orbits' coords, read
    straight from the orbits; the kernel equals the scalar metric bit for
    bit and fsum is exactly rounded, so each value is the fsum of the scalar
    metric over the atoms.
    """
    indices = _check_indices(indices)
    along = _coords_along(sys, [x, y], [seq.subset(n) for n in indices], tol)
    values = tuple(_mean_distance(sys, *c) for c in along)
    return PseudometricTrace("mean_distance", indices, values)


def orbit_permutation_distance(
    sys: GSystem, x: SystemPoint, y: SystemPoint, F: FiniteSubset, tol: float = 1e-9
) -> float:
    """min over pairings h of (1/|F|) * sum d(g*x, h(g)*y).

    By the doubly-stochastic extreme-point argument this is the Wasserstein
    distance of the two empirical measures, and it is computed as that.
    """
    return wasserstein_empirical(
        empirical_measure(sys, x, F), empirical_measure(sys, y, F), tol
    )


# ---------------------------------------------------------------------------
# Coupling bounds (finite-scale core of the product-system equivalence)


@dataclass(frozen=True)
class CouplingBoundsRow:
    pair_index: int
    n: int
    w_product: float
    diagonal_mean: float
    w_to_diagonal: float
    base_mean: float

    @property
    def upper_violation(self) -> float:
        return self.w_product - self.diagonal_mean

    @property
    def lower_violation(self) -> float:
        return self.base_mean - self.w_to_diagonal


@dataclass(frozen=True)
class CouplingBoundsReport:
    """Checks, at each finite index, the two transport bounds that drive the
    product-system characterization of mean equicontinuity:

    upper: W(mu_{z1,F}, mu_{z2,F}) <= (1/|F|) sum d~(g z1, g z2)
           (the diagonal pairing is itself a transport plan);
    lower: W(mu_{(x,y),F}, mu_{(y,y),F}) >= (1/|F|) sum d(g x, g y)
           (any pairing against the diagonal moves mass at least that far).
    """

    rows: tuple[CouplingBoundsRow, ...]
    tolerance: float
    # the CSV columns, one per CouplingBoundsRow field in order
    _header = ("pair", "n", "w_product", "diagonal_mean", "w_to_diagonal", "base_mean")

    @property
    def max_violation_upper(self) -> float:
        return max((r.upper_violation for r in self.rows), default=0.0)

    @property
    def max_violation_lower(self) -> float:
        return max((r.lower_violation for r in self.rows), default=0.0)

    @property
    def max_violation(self) -> float:
        return max(self.max_violation_upper, self.max_violation_lower, 0.0)

    def to_json_dict(self) -> dict:
        return {
            "tolerance": self.tolerance,
            "max_violation": self.max_violation,
            "max_violation_upper": self.max_violation_upper,
            "max_violation_lower": self.max_violation_lower,
            "rows": _records(self._header, map(astuple, self.rows)),
        }

    def csv_table(self) -> tuple[list[str], list[list[str]]]:
        return _csv(self._header, map(astuple, self.rows))


def coupling_bounds_check(
    sys: GSystem,
    pairs: Sequence[tuple[SystemPoint, SystemPoint]],
    seq: FolnerSequence,
    indices: Sequence[int],
    tol: float = 1e-9,
) -> CouplingBoundsReport:
    """Evaluate both coupling bounds on pairs of product-system points.

    sys must be a product system.  An index's two W1s and two means come from
    the coords that the traces read, so they equal ``wasserstein_empirical``
    and ``mean_distance_trace`` values bit for bit, all from Space.kernel; the
    scalar metric, which the kernel equals bit for bit, is their oracle in
    the tests and in ``verify weak-star``.  Every W1 of every pair and index
    is solved in one batch (``transport._w1_many``).
    """
    if sys.space_kind != "product":
        raise UnsupportedCaseError("coupling_bounds_check needs a product system")
    if not pairs:
        raise ValueError("need at least one pair")
    for pair in pairs:
        for z in pair:
            _check_point(sys, z)
    base = sys.factors[0]
    indices = _check_indices(indices)
    subsets = [seq.subset(n) for n in indices]
    means, w1_pairs = [], []
    for pi, (z1, z2) in enumerate(pairs):
        x1, y1 = z1.payload
        diagonal = pair_point(sys, y1, y1)
        for n, (Z1, Z2, D), (X1, Y1) in zip(
            indices,
            _coords_along(sys, [z1, z2, diagonal], subsets, tol),
            _coords_along(base, [x1, y1], subsets, tol),
        ):
            means.append(
                (pi, n, _mean_distance(sys, Z1, Z2), _mean_distance(base, X1, Y1))
            )
            w1_pairs += [(Z1, Z2), (Z1, D)]
    w = iter(_w1_many(sys, w1_pairs))
    rows = tuple(
        CouplingBoundsRow(pi, n, next(w), diagonal_mean, next(w), base_mean)
        for pi, n, diagonal_mean, base_mean in means
    )
    return CouplingBoundsReport(rows, tol)


# ---------------------------------------------------------------------------
# Equicontinuity moduli


@dataclass(frozen=True)
class ModulusEstimate:
    """Estimated sup of a pseudometric over sampled pairs with d(x,y) < delta.

    Pairs sampled for a smaller delta remain valid witnesses for every larger
    delta, so the sup is taken over the pooled sample; this makes sup_values
    nondecreasing by construction.
    """

    kind: str
    delta_grid: tuple[float, ...]
    sup_values: tuple[float, ...]
    sample_count: int
    _header = ("delta", "sup_value", "samples_per_delta")

    def csv_table(self) -> tuple[list[str], list[list[str]]]:
        sups = zip(self.delta_grid, self.sup_values)
        return _csv(self._header, [(d, s, self.sample_count) for d, s in sups])


def near_pair_sampler(
    sys: GSystem, seed: int
) -> Callable[[float, int], list[tuple[SystemPoint, SystemPoint]]]:
    """Seeded sampler producing pairs at distance strictly below delta."""
    rng = random.Random(seed)
    space = space_of(sys)

    def sample(delta: float, count: int) -> list[tuple[SystemPoint, SystemPoint]]:
        if not 0 < delta < math.inf:  # NaN included
            raise ValueError(f"delta must be positive and finite, got {delta!r}")
        return [space.near_pair(sys, rng, delta) for _ in range(count)]

    return sample


def modulus_estimate(
    sys: GSystem,
    kind: str,
    seq: FolnerSequence,
    delta_grid: Sequence[float],
    pair_sampler: Callable[[float, int], list[tuple[SystemPoint, SystemPoint]]],
    indices: Sequence[int],
    pairs_per_delta: int = 32,
    tol: float = 1e-9,
) -> ModulusEstimate:
    """Per-delta sup of trace limsup estimates over sampled close pairs."""
    if kind not in ("wasserstein", "mean_distance"):
        raise ValueError(f"unknown trace kind {kind!r}")
    deltas = sorted(float(d) for d in delta_grid)
    if not deltas:
        raise ValueError("delta grid must be nonempty")
    if pairs_per_delta < 1:
        raise ValueError("pairs_per_delta must be positive")
    # every delta's pairs are sampled first, so that the W1s of all their
    # traces are solved as one batch
    samples = [list(pair_sampler(delta, pairs_per_delta)) for delta in deltas]
    xys = [xy for sample in samples for xy in sample]
    if kind == "wasserstein":
        traces = iter(_wasserstein_traces(sys, xys, seq, indices, tol))
    else:
        traces = (mean_distance_trace(sys, x, y, seq, indices, tol) for x, y in xys)
    sup_values = []
    pooled_sup = 0.0
    for sample in samples:
        for _ in sample:
            pooled_sup = max(pooled_sup, next(traces).limsup_estimate)
        sup_values.append(pooled_sup)
    return ModulusEstimate(kind, tuple(deltas), tuple(sup_values), pairs_per_delta)


# ---------------------------------------------------------------------------
# Unique ergodicity and generic measures


def _integrated(
    sys: GSystem, points: Sequence[SystemPoint], F: FiniteSubset,
    family: ObservableFamily, N: int,
) -> tuple[list, list[Observable], list[list[float]]]:
    """Each point's orbit reader over F, rho's N terms, and their integrals
    over each orbit."""
    rows, everywhere = _union_rows(sys, [F])
    readers = [_orbit_reader(sys, p, rows) for p in points]
    terms = _rho_terms(family, N)
    return readers, terms, [_integrals(read, everywhere, terms)[0] for read in readers]


@dataclass(frozen=True)
class UniqueErgodicityReport:
    n: int
    threshold: float
    pair_rows: tuple[tuple[int, int, float, float], ...]  # (i, j, w, rho)
    max_w: float
    max_rho: float
    _header = ("i", "j", "w", "rho")

    @property
    def consistent(self) -> bool:
        return max(self.max_w, self.max_rho) <= self.threshold

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "threshold": self.threshold,
            "max_w": self.max_w,
            "max_rho": self.max_rho,
            "consistent": self.consistent,
            "pairs": _records(self._header, self.pair_rows),
        }

    def csv_table(self) -> tuple[list[str], list[list[str]]]:
        return _csv(self._header, self.pair_rows)


def unique_ergodicity_diagnostic(
    sys: GSystem,
    points: Sequence[SystemPoint],
    seq: FolnerSequence,
    n: int,
    family: ObservableFamily | None = None,
    N: int = 40,
    threshold: float = DEFAULT_UNIQUE_ERGODICITY_THRESHOLD,
    tol: float = 1e-9,
) -> UniqueErgodicityReport:
    """Pairwise W and rho between empirical measures of the sampled points.

    Verdict "consistent with unique ergodicity at scale n" means every pair
    sits at or below the threshold in both metrics.
    """
    if len(points) < 2:
        raise ValueError("need at least two sample points")
    if family is None:
        family = observable_family(sys)
    F = seq.subset(n)
    readers, terms, integrals = _integrated(sys, points, F, family, N)
    # W1 reads the arrays the integrals read, where the coords ignore the tol
    coords = [read(tol / F.size) for read in readers]
    ij = [(i, j) for i in range(len(points)) for j in range(i + 1, len(points))]
    ws = _w1_many(sys, [(coords[i], coords[j]) for i, j in ij])
    rows = tuple(
        (i, j, w, _rho_sum(terms, integrals[i], integrals[j]))
        for (i, j), w in zip(ij, ws)
    )
    max_w = max(0.0, *ws)
    max_rho = max(0.0, *(row[3] for row in rows))
    return UniqueErgodicityReport(n, threshold, rows, max_w, max_rho)


@dataclass(frozen=True)
class GenericMeasureTrace:
    """Empirical measures along increasing indices with a Cauchy diagnostic.

    consecutive_rho[k] is the weak-* distance between the measures at
    indices[k] and indices[k+1]; cauchy_defect is its maximum over the last
    half of those gaps.
    """

    indices: tuple[int, ...]
    measures: tuple[EmpiricalMeasure, ...]
    consecutive_rho: tuple[float, ...]
    _header = ("n_from", "n_to", "rho")

    @property
    def cauchy_defect(self) -> float:
        return _last_half_max(self.consecutive_rho)

    def csv_table(self) -> tuple[list[str], list[list[str]]]:
        return _csv(self._header, zip(self.indices, self.indices[1:], self.consecutive_rho))


def generic_measure_trace(
    sys: GSystem,
    x: SystemPoint,
    seq: FolnerSequence,
    indices: Sequence[int],
    family: ObservableFamily | None = None,
    N: int = 40,
) -> GenericMeasureTrace:
    indices = _check_indices(indices)
    if len(indices) < 2:
        raise ValueError("need at least two indices for a Cauchy diagnostic")
    if family is None:
        family = observable_family(sys)
    subsets = [seq.subset(n) for n in indices]
    rows, positions = _union_rows(sys, subsets)
    read = _orbit_reader(sys, x, rows)
    # orbit pieces: their atoms are acted only if a caller reads them
    measures = tuple(empirical_measure(sys, x, F) for F in subsets)
    terms = _rho_terms(family, N)
    table = _integrals(read, positions, terms)
    gaps = tuple(_rho_sum(terms, a, b) for a, b in zip(table, table[1:]))
    return GenericMeasureTrace(indices, measures, gaps)


@dataclass(frozen=True)
class ContinuityReport:
    """rho between empirical measures of adjacent grid points at one scale."""

    n: int
    rows: tuple[tuple[int, float, float], ...]  # (i, d(x_i, x_{i+1}), rho)
    _header = ("i", "distance", "rho")

    def to_json_dict(self) -> dict:
        return {"n": self.n, "rows": _records(self._header, self.rows)}

    def csv_table(self) -> tuple[list[str], list[list[str]]]:
        return _csv(self._header, self.rows)


def measure_map_continuity_diagnostic(
    sys: GSystem,
    grid: Sequence[SystemPoint],
    seq: FolnerSequence,
    n: int,
    family: ObservableFamily | None = None,
    N: int = 40,
    tol: float = 1e-9,
) -> ContinuityReport:
    if len(grid) < 2:
        raise ValueError("need at least two grid points")
    if family is None:
        family = observable_family(sys)
    _, terms, integrals = _integrated(sys, grid, seq.subset(n), family, N)
    rows = []
    for i in range(len(grid) - 1):
        d = metric(sys, grid[i], grid[i + 1], tol)
        r = _rho_sum(terms, integrals[i], integrals[i + 1])
        rows.append((i, d, r))
    return ContinuityReport(n, tuple(rows))


@dataclass(frozen=True)
class UniformConvergenceReport:
    """sup over a grid of |A_{F_n} f - A_{F_m} f| for index pairs n < m."""

    rows: tuple[tuple[int, int, float], ...]  # (n, m, sup_gap)
    _header = ("n", "m", "sup_gap")

    def to_json_dict(self) -> dict:
        return {"rows": _records(self._header, self.rows)}

    def csv_table(self) -> tuple[list[str], list[list[str]]]:
        return _csv(self._header, self.rows)


def uniform_convergence_diagnostic(
    sys: GSystem,
    f: Observable | Callable[[SystemPoint], float],
    grid: Sequence[SystemPoint],
    seq: FolnerSequence,
    index_pairs: Sequence[tuple[int, int]],
) -> UniformConvergenceReport:
    if not grid:
        raise ValueError("grid must be nonempty")
    if not index_pairs:
        raise ValueError("need at least one index pair")
    for n, m in index_pairs:
        if not 1 <= n < m:
            raise ValueError("index pairs must satisfy 1 <= n < m")
    ks = sorted({k for pair in index_pairs for k in pair})
    subsets = [seq.subset(k) for k in ks]
    rows, positions = _union_rows(sys, subsets)
    # grid points outside: one orbit is alive at a time
    averages: dict[int, list[float]] = {k: [] for k in ks}
    for p in grid:
        read = _orbit_reader(sys, p, rows)
        for k, (value,) in zip(ks, _integrals(read, positions, [f])):
            averages[k].append(value)
    rows = tuple(
        (n, m, max(abs(a - b) for a, b in zip(averages[n], averages[m])))
        for n, m in index_pairs
    )
    return UniformConvergenceReport(rows)
