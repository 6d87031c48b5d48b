"""Exact Wasserstein-1 distance between equal-size uniform atomic measures.

For two uniform measures with n atoms each, every transport plan is a doubly
stochastic matrix and the extreme points of those are the permutation
matrices, so the optimum is attained at an assignment.  The solver is a
primal-dual shortest-augmenting-path method, O(n^3), returning dual
potentials as an optimality certificate.  A constant matrix (cross-component
pairs of a disjoint union, orbit pieces of fixed points) skips the loop: it
returns the identity matching and the potentials the loop would, bit for
bit, and those leave every reduced cost exactly 0.  A round whose delta is 0
skips the potential pass, which is exact because adding or subtracting 0.0
leaves every potential's bits unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeLimitError, UnsupportedCaseError
from .measures import EmpiricalMeasure
from .systems import GSystem, _kernel_matrix

__all__ = [
    "CostMatrix",
    "TransportPlan",
    "AssignmentResult",
    "assignment_min",
    "bruteforce_min",
    "plan_cost",
    "wasserstein_empirical",
    "orbit_cost_matrix",
    "cost_matrix_to_csv",
    "cost_matrix_from_csv",
]

_BRUTEFORCE_CAP = 8
_MAX_SOLVER_SIZE = 4096


@dataclass(frozen=True)
class CostMatrix:
    """Nonnegative square cost matrix; entries[i][j] = cost of pairing i with j."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"cost matrix must be square, got shape {a.shape}")
        if a.shape[0] == 0:
            raise ValueError("cost matrix must be nonempty")
        if not np.all(np.isfinite(a)):
            raise ValueError("cost entries must be finite")
        if np.any(a < 0):
            raise ValueError("cost entries must be nonnegative")
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class TransportPlan:
    """Either a permutation (row_for_col) or a doubly stochastic matrix."""

    kind: str  # "permutation" | "doubly_stochastic"
    permutation: tuple[int, ...] | None = None
    matrix: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind == "permutation":
            if self.permutation is None:
                raise ValueError("permutation plan needs a permutation")
            n = len(self.permutation)
            if sorted(self.permutation) != list(range(n)):
                raise ValueError("not a bijection on 0..n-1")
        elif self.kind == "doubly_stochastic":
            if self.matrix is None:
                raise ValueError("doubly stochastic plan needs a matrix")
            m = np.asarray(self.matrix, dtype=np.float64)
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError("plan matrix must be square")
            if np.any(m < -1e-15):
                raise ValueError("plan matrix must be nonnegative")
            if np.max(np.abs(m.sum(axis=0) - 1.0)) > 1e-12 or np.max(
                np.abs(m.sum(axis=1) - 1.0)
            ) > 1e-12:
                raise ValueError("row and column sums must equal 1 within 1e-12")
            m.setflags(write=False)
            object.__setattr__(self, "matrix", m)
        else:
            raise ValueError(f"unknown plan kind {self.kind!r}")

    @property
    def n(self) -> int:
        if self.kind == "permutation":
            return len(self.permutation)
        return self.matrix.shape[0]


@dataclass(frozen=True)
class AssignmentResult:
    """Optimal pairing: column j is served by row row_for_col[j].

    cost is the normalized value (1/n) * sum of the selected entries.  The
    duals (u, v) certify optimality: entries[i][j] - u[i] - v[j] >= 0 up to
    float drift, with equality on the selected pairs.
    """

    row_for_col: tuple[int, ...]
    cost: float
    row_potentials: tuple[float, ...] = ()
    col_potentials: tuple[float, ...] = ()

    @property
    def n(self) -> int:
        return len(self.row_for_col)


def _assignment_core(cost, n):
    # Shortest augmenting path with potentials; column n is the virtual root.
    INF = np.inf
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    link = np.full(n + 1, -1, dtype=np.int64)
    minv = np.empty(n + 1)
    way = np.empty(n + 1, dtype=np.int64)
    used = np.empty(n + 1, dtype=np.bool_)
    for i in range(n):
        link[n] = i
        j0 = n
        for j in range(n + 1):
            minv[j] = INF
            way[j] = n
            used[j] = False
        while True:
            used[j0] = True
            i0 = link[j0]
            row, ui0 = cost[i0], u[i0]
            delta = INF
            j1 = -1
            for j in range(n):
                if not used[j]:
                    cur = row[j] - ui0 - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            # u and v are never -0.0, so a zero delta leaves their bits as they
            # are; minv's sign of zero is only ever compared
            if delta != 0.0:
                for j in range(n + 1):
                    if used[j]:
                        u[link[j]] += delta
                        v[j] -= delta
                    else:
                        minv[j] -= delta
            j0 = j1
            if link[j0] == -1:
                break
        while j0 != n:
            j1 = way[j0]
            link[j0] = link[j1]
            j0 = j1
    return link[:n], u[:n], v[:n]


def assignment_min(C: CostMatrix) -> AssignmentResult:
    """Globally optimal assignment; the cost is unique, the matching is the
    loop's pick among ties.

    On a constant matrix (every entry == c, so -0.0 and 0.0 alike) every
    matching is optimal and the loop is skipped: the result is the identity
    matching with row potentials 0.0 + c and column potentials 0.0, which is
    what the loop returns there, bit for bit.
    """
    n = C.n
    if n > _MAX_SOLVER_SIZE:
        raise SizeLimitError(f"solver supports n <= {_MAX_SOLVER_SIZE}, got {n}")
    c = C.entries[0, 0]
    if np.all(C.entries == c):
        # the loop's row i: its first round adds c to u[i], every later delta
        # is 0.0, and the path ends at column i; 0.0 + c turns -0.0 into 0.0
        link, u, v = np.arange(n), np.zeros(n) + c, np.zeros(n)
    else:
        link, u, v = _assignment_core(C.entries, n)
    row_for_col = tuple(int(r) for r in link)
    cost = math.fsum(C.entries[row_for_col[j], j] for j in range(n)) / n
    return AssignmentResult(row_for_col, cost, tuple(u.tolist()), tuple(v.tolist()))


_PERM_CACHE: dict[int, np.ndarray] = {}


def _permutations_array(n: int) -> np.ndarray:
    if n not in _PERM_CACHE:
        import itertools

        _PERM_CACHE[n] = np.array(
            list(itertools.permutations(range(n))), dtype=np.int64
        )
    return _PERM_CACHE[n]


def bruteforce_min(C: CostMatrix) -> AssignmentResult:
    """Literal minimum over all n! pairings; the small-instance oracle."""
    n = C.n
    if n > _BRUTEFORCE_CAP:
        raise SizeLimitError(f"brute force is capped at n = {_BRUTEFORCE_CAP}")
    perms = _permutations_array(n)
    picked = C.entries[perms, np.arange(n)]
    totals = picked.sum(axis=1)
    # a float sum of n nonnegative terms is within a factor 1 +- (n-1)*2^-53
    # of the exact sum, so a pairing of least exact total has a float total
    # within 1 + 2n*eps of the smallest one; fsum ranks those candidates
    near = np.flatnonzero(totals <= totals.min() * (1 + 2 * n * np.finfo(float).eps))
    best = perms[min(near.tolist(), key=lambda k: math.fsum(picked[k].tolist()))]
    row_for_col = tuple(int(r) for r in best)
    cost = math.fsum(C.entries[row_for_col[j], j] for j in range(n)) / n
    return AssignmentResult(row_for_col, cost)


def plan_cost(C: CostMatrix, plan: TransportPlan) -> float:
    """(1/n) * sum over (i, j) of plan[i][j] * C[i][j]."""
    if plan.n != C.n:
        raise ValueError(f"plan size {plan.n} does not match cost size {C.n}")
    n = C.n
    if plan.kind == "permutation":
        return math.fsum(C.entries[plan.permutation[j], j] for j in range(n)) / n
    cells = (plan.matrix * C.entries).ravel()
    return math.fsum(cells.tolist()) / n


def orbit_cost_matrix(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, tol: float
) -> CostMatrix:
    """Entries d(atom_i of mu, atom_j of nu) with per-entry error <= tol."""
    return CostMatrix(_kernel_matrix(mu.system, mu._reader()(tol), nu._reader()(tol)))


def _bytes_key(U) -> object:
    """U's bytes, taken tuple by tuple for union and product coords."""
    if isinstance(U, tuple):
        return tuple(map(_bytes_key, U))
    return U.tobytes()


def _w1(sys: GSystem, U, V) -> float:
    """W1 between the uniform measures on two equal-size coordinate sets of sys.

    The sides are ordered by their bytes before the cost matrix is built.
    Swapping the arguments then builds the same matrix, and sides with equal
    bytes give a symmetric one, since every kernel is symmetric bit for bit;
    so the result is exactly symmetric in (U, V).  The float solve's optimum
    can depend on the matrix's orientation in its last bits, so the order
    picks which of the two values W1 takes.
    """
    if _bytes_key(V) < _bytes_key(U):
        U, V = V, U
    return assignment_min(CostMatrix(_kernel_matrix(sys, U, V))).cost


def wasserstein_empirical(
    mu: EmpiricalMeasure, nu: EmpiricalMeasure, tol: float = 1e-9
) -> float:
    """Exact W1 between equal-size uniform empirical measures, within tol.

    It is ``_w1`` of the measures' coords at tol/n, read by their readers,
    which builds no atom of an orbit piece and is exactly symmetric in (mu, nu).
    """
    if mu.system.system_id != nu.system.system_id:
        raise UnsupportedCaseError(
            f"measures live on different spaces: {mu.system.system_id!r} "
            f"vs {nu.system.system_id!r}"
        )
    if mu.count != nu.count:
        raise UnsupportedCaseError(
            f"only equal-size uniform measures are supported "
            f"({mu.count} vs {nu.count} atoms)"
        )
    return _w1(mu.system, mu._reader()(tol / mu.count), nu._reader()(tol / nu.count))


def cost_matrix_to_csv(C: CostMatrix, path: str) -> None:
    np.savetxt(path, C.entries, fmt="%.17g", delimiter=",")


def cost_matrix_from_csv(path: str) -> CostMatrix:
    data = np.loadtxt(path, delimiter=",", dtype=np.float64)
    if data.ndim == 0:
        data = data.reshape(1, 1)
    elif data.ndim == 1:
        data = data.reshape(1, -1)
    return CostMatrix(data)
