"""Assignment solver against oracles, duals, plans, and W1 on measures."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import folnerlab as fl
from folnerlab import SizeLimitError, UnsupportedCaseError


def random_cost(rng, n, style="uniform"):
    if style == "uniform":
        M = rng.random((n, n))
    elif style == "integer":
        M = rng.integers(0, 4, size=(n, n)).astype(np.float64)
    elif style == "binary":
        M = rng.integers(0, 2, size=(n, n)).astype(np.float64)
    elif style == "constant":
        M = np.full((n, n), float(rng.integers(0, 5)))
    else:
        raise AssertionError(style)
    return fl.CostMatrix(M)


# ---------------------------------------------------------------------------
# solver vs oracles


def test_solver_matches_bruteforce_on_small_instances():
    rng = np.random.default_rng(0)
    for trial in range(300):
        n = int(rng.integers(1, 8))
        style = ("uniform", "integer", "binary", "constant")[trial % 4]
        C = random_cost(rng, n, style)
        fast = fl.assignment_min(C)
        brute = fl.bruteforce_min(C)
        assert abs(fast.cost - brute.cost) <= 1e-12
        assert sorted(fast.row_for_col) == list(range(n))


def test_solver_matches_scipy_on_medium_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(2, 65))
        C = random_cost(rng, n)
        ours = fl.assignment_min(C).cost
        rows, cols = scipy_opt.linear_sum_assignment(C.entries)
        reference = float(C.entries[rows, cols].sum()) / n
        assert abs(ours - reference) <= 1e-10


def test_worked_three_by_three_instance():
    C = fl.CostMatrix(np.array([[4.0, 1.0, 3.0], [2.0, 0.0, 5.0], [3.0, 2.0, 2.0]]))
    res = fl.assignment_min(C)
    assert res.row_for_col == (1, 0, 2)
    assert res.cost == pytest.approx(5.0 / 3.0, abs=1e-15)
    assert fl.bruteforce_min(C).cost == pytest.approx(5.0 / 3.0, abs=1e-15)


def test_diagonal_dominant_matrix_picks_identity():
    n = 6
    C = fl.CostMatrix(np.ones((n, n)) - np.eye(n))
    res = fl.assignment_min(C)
    assert res.row_for_col == tuple(range(n))
    assert res.cost == 0.0


def test_single_atom_instance():
    C = fl.CostMatrix(np.array([[0.75]]))
    res = fl.assignment_min(C)
    assert res.row_for_col == (0,)
    assert res.cost == 0.75


def test_solver_is_deterministic():
    rng = np.random.default_rng(3)
    C = random_cost(rng, 40)
    first = fl.assignment_min(C)
    second = fl.assignment_min(C)
    assert first.row_for_col == second.row_for_col
    assert first.cost == second.cost
    assert first.row_potentials == second.row_potentials


# ---------------------------------------------------------------------------
# dual certificates


def test_duals_certify_optimality():
    rng = np.random.default_rng(4)
    for _ in range(40):
        n = int(rng.integers(1, 50))
        C = random_cost(rng, n)
        res = fl.assignment_min(C)
        u = np.asarray(res.row_potentials)
        v = np.asarray(res.col_potentials)
        slack = C.entries - u[:, None] - v[None, :]
        assert slack.min() >= -1e-9
        for j, i in enumerate(res.row_for_col):
            assert abs(slack[i, j]) <= 1e-9
        # strong duality: the dual objective equals the primal cost
        assert abs((u.sum() + v.sum()) / n - res.cost) <= 1e-9


# ---------------------------------------------------------------------------
# constant matrices skip the loop


CONSTANTS = (0.0, -0.0, "mixed", 5e-324, 1e-300, 0.1, 0.30000000000000004, 1.0, 3.7e5)


def constant_entries(n, c):
    if c == "mixed":
        # zeros of both signs: == treats them as one constant
        signs = np.random.default_rng(n).random((n, n)) < 0.5
        return np.where(signs, -0.0, 0.0)
    return np.full((n, n), c)


def same_bits(xs, ys):
    return len(xs) == len(ys) and all(
        x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
        for x, y in zip(xs, ys)
    )


def counting_core(monkeypatch):
    calls = []
    core = fl.transport._assignment_core

    def counting(cost, n):
        calls.append(n)
        return core(cost, n)

    monkeypatch.setattr(fl.transport, "_assignment_core", counting)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 6, 17])
@pytest.mark.parametrize("c", CONSTANTS)
def test_constant_matrix_returns_the_loops_result_bit_for_bit(n, c, monkeypatch):
    C = fl.CostMatrix(constant_entries(n, c))
    link, u, v = fl.transport._assignment_core(C.entries, n)
    calls = counting_core(monkeypatch)
    res = fl.assignment_min(C)
    assert calls == []
    assert res.row_for_col == tuple(int(r) for r in link) == tuple(range(n))
    assert same_bits(res.row_potentials, u.tolist())
    assert same_bits(res.col_potentials, v.tolist())
    # every reduced cost is exactly 0: an exact LP-duality certificate
    slack = C.entries - np.asarray(res.row_potentials)[:, None] - np.asarray(
        res.col_potentials
    )[None, :]
    assert np.all(slack == 0.0)
    if n <= 8:
        assert res.cost == fl.bruteforce_min(C).cost


@pytest.mark.parametrize("c", CONSTANTS)
def test_one_ulp_off_constant_runs_the_loop(c, monkeypatch):
    rng = np.random.default_rng(17)
    calls = counting_core(monkeypatch)
    for n in range(2, 9):
        for toward in (np.inf, 0.0):
            M = constant_entries(n, c)
            i, j = (int(k) for k in rng.integers(0, n, size=2))
            M[i, j] = np.nextafter(M[i, j], toward)
            if M[i, j] == constant_entries(n, c)[0, 0]:
                continue  # a zero cannot move down and stay nonnegative
            C = fl.CostMatrix(M)
            before = len(calls)
            res = fl.assignment_min(C)
            assert len(calls) == before + 1
            # brute force ranks by a float sum, so only the cost is compared
            assert abs(res.cost - fl.bruteforce_min(C).cost) <= 1e-12
            assert sorted(res.row_for_col) == list(range(n))


def test_bruteforce_is_the_literal_minimum_one_ulp_below_a_constant():
    # every float total rounds alike, so only an exact ranking sees the ulp
    c = 0.30000000000000004
    M = constant_entries(7, c)
    M[2, 5] = np.nextafter(c, 0.0)
    C = fl.CostMatrix(M)
    brute = fl.bruteforce_min(C)
    assert brute.cost == fl.assignment_min(C).cost == 0.3
    assert brute.row_for_col[5] == 2


@pytest.mark.parametrize("n", [1, 50, 200])
def test_union_cross_component_pairs_skip_the_loop(n, monkeypatch):
    un = fl.two_rotations()
    F = fl.z_intervals().subset(n)
    mu = fl.empirical_measure(un, fl.union_point(un, "a", Fraction(1, 5)), F)
    nu = fl.empirical_measure(un, fl.union_point(un, "b", Fraction(1, 9)), F)
    calls = counting_core(monkeypatch)
    assert fl.wasserstein_empirical(mu, nu) == 1.0
    assert calls == []


@pytest.mark.parametrize("n", [1, 50, 200])
def test_interval_fixed_points_skip_the_loop(n, monkeypatch):
    sq = fl.interval_square()
    F = fl.z_intervals().subset(n)
    zero = fl.empirical_measure(sq, fl.interval_point(sq, 0.0), F)
    one = fl.empirical_measure(sq, fl.interval_point(sq, 1.0), F)
    calls = counting_core(monkeypatch)
    assert fl.wasserstein_empirical(zero, one) == 1.0
    assert fl.wasserstein_empirical(one, one) == 0.0
    assert calls == []


def test_same_component_pair_runs_the_loop(monkeypatch):
    un = fl.two_rotations()
    F = fl.z_intervals().subset(50)
    mu = fl.empirical_measure(un, fl.union_point(un, "a", Fraction(1, 5)), F)
    nu = fl.empirical_measure(un, fl.union_point(un, "a", Fraction(1, 9)), F)
    calls = counting_core(monkeypatch)
    assert 0.0 < fl.wasserstein_empirical(mu, nu) < 1.0
    assert calls == [50]


# ---------------------------------------------------------------------------
# matrix symmetries


def test_transpose_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 40))
        C = random_cost(rng, n)
        a = fl.assignment_min(C).cost
        b = fl.assignment_min(fl.CostMatrix(C.entries.T.copy())).cost
        assert abs(a - b) <= 1e-12


def test_scale_and_shift_equivariance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        C = random_cost(rng, n)
        base = fl.assignment_min(C).cost
        lam = float(rng.random()) * 3.0
        shift = float(rng.random())
        scaled = fl.assignment_min(fl.CostMatrix(lam * C.entries)).cost
        shifted = fl.assignment_min(fl.CostMatrix(C.entries + shift)).cost
        assert abs(scaled - lam * base) <= 1e-12
        # one unit moved per column: a constant shift adds itself verbatim
        assert abs(shifted - (base + shift)) <= 1e-12


# ---------------------------------------------------------------------------
# transport plans


def random_ds_plan(rng, n):
    # convex combination of permutation matrices (Birkhoff-von Neumann)
    k = int(rng.integers(1, 5))
    weights = rng.random(k) + 0.01
    weights /= weights.sum()
    M = np.zeros((n, n))
    for w in weights:
        perm = rng.permutation(n)
        M[perm, np.arange(n)] += w
    return fl.TransportPlan(kind="doubly_stochastic", matrix=M)


def test_no_doubly_stochastic_plan_beats_the_assignment():
    rng = np.random.default_rng(7)
    for _ in range(500):
        n = int(rng.integers(1, 12))
        C = random_cost(rng, n)
        best = fl.assignment_min(C).cost
        plan = random_ds_plan(rng, n)
        assert fl.plan_cost(C, plan) >= best - 1e-9


def test_no_permutation_plan_beats_the_assignment():
    rng = np.random.default_rng(8)
    for _ in range(200):
        n = int(rng.integers(1, 15))
        C = random_cost(rng, n)
        best = fl.assignment_min(C)
        perm = tuple(int(i) for i in rng.permutation(n))
        plan = fl.TransportPlan(kind="permutation", permutation=perm)
        assert fl.plan_cost(C, plan) >= best.cost - 1e-12
        optimal_plan = fl.TransportPlan(kind="permutation", permutation=best.row_for_col)
        assert fl.plan_cost(C, optimal_plan) == pytest.approx(best.cost, abs=1e-15)


def test_plan_cost_uniform_and_identity_pinned():
    rng = np.random.default_rng(9)
    n = 10
    C = random_cost(rng, n)
    uniform = fl.TransportPlan(
        kind="doubly_stochastic", matrix=np.full((n, n), 1.0 / n)
    )
    assert fl.plan_cost(C, uniform) == pytest.approx(C.entries.mean(), abs=1e-12)
    identity = fl.TransportPlan(kind="permutation", permutation=tuple(range(n)))
    assert fl.plan_cost(C, identity) == pytest.approx(
        float(np.trace(C.entries)) / n, abs=1e-15
    )


def test_plan_validation():
    with pytest.raises(ValueError):
        fl.TransportPlan(kind="permutation", permutation=(0, 0, 1))
    with pytest.raises(ValueError):
        fl.TransportPlan(kind="permutation", permutation=None)
    with pytest.raises(ValueError):
        fl.TransportPlan(kind="doubly_stochastic", matrix=np.full((2, 2), 0.7))
    with pytest.raises(ValueError):
        fl.TransportPlan(kind="doubly_stochastic", matrix=np.array([[1.2, -0.2], [-0.2, 1.2]]))
    with pytest.raises(ValueError):
        fl.TransportPlan(kind="teleport", permutation=(0,))
    with pytest.raises(ValueError):
        fl.plan_cost(
            fl.CostMatrix(np.zeros((3, 3))),
            fl.TransportPlan(kind="permutation", permutation=(1, 0)),
        )


# ---------------------------------------------------------------------------
# input validation and size caps


def test_cost_matrix_validation():
    with pytest.raises(ValueError):
        fl.CostMatrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        fl.CostMatrix(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        fl.CostMatrix(np.array([[1.0, -0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        fl.CostMatrix(np.array([[np.inf, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        fl.CostMatrix(np.array([[np.nan, 1.0], [0.0, 1.0]]))


def test_cost_matrix_entries_are_read_only():
    C = fl.CostMatrix(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        C.entries[0, 0] = 1.0


def test_bruteforce_size_cap():
    with pytest.raises(SizeLimitError):
        fl.bruteforce_min(fl.CostMatrix(np.zeros((9, 9))))


def test_solver_size_cap():
    with pytest.raises(SizeLimitError):
        fl.assignment_min(fl.CostMatrix(np.zeros((4097, 4097))))


# ---------------------------------------------------------------------------
# W1 between empirical measures


def rotation_measure(alpha, x0, n):
    sys_obj = fl.rotation(alpha)
    x = fl.circle_point(sys_obj, x0)
    return fl.empirical_measure(sys_obj, x, fl.z_intervals().subset(n))


def test_wasserstein_quarter_rotation_pinned():
    # nu's atoms interleave mu's at spacing exactly 1/8
    mu = rotation_measure("1/4", 0, 4)
    nu = rotation_measure("1/4", Fraction(1, 8), 4)
    assert fl.wasserstein_empirical(mu, nu) == 0.125


def test_wasserstein_identical_measures_is_zero():
    mu = rotation_measure("golden", Fraction(1, 9), 25)
    assert fl.wasserstein_empirical(mu, mu) == 0.0


def test_wasserstein_is_exactly_symmetric():
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(1, 40)
        mu = rotation_measure("golden", Fraction(rng.getrandbits(20), 1 << 20), n)
        nu = rotation_measure("golden", Fraction(rng.getrandbits(20), 1 << 20), n)
        assert fl.wasserstein_empirical(mu, nu) == fl.wasserstein_empirical(nu, mu)


# interval_square orbit pairs (n, x, y), drawn from random.Random(22), on
# which the float solve gives different last bits on C and on its transpose
ORIENTED_INTERVAL_PAIRS = [
    (8, 0.6514212405579194, 0.3456448375625667),
    (8, 0.8327784131559905, 0.10315897493962733),
    (25, 0.5271934518295606, 0.7677969095579009),
    (25, 0.41443307824771025, 0.14990264370274142),
    (40, 0.04912510769380796, 0.53181657121498),
    (40, 0.27255137638648574, 0.03526105001132884),
]


@pytest.mark.parametrize("n, x, y", ORIENTED_INTERVAL_PAIRS)
def test_wasserstein_is_exactly_symmetric_where_orientation_matters(n, x, y):
    iv, seq = fl.interval_square(), fl.z_intervals()
    p, q = fl.interval_point(iv, x), fl.interval_point(iv, y)
    mu, nu = (fl.empirical_measure(iv, r, seq.subset(n)) for r in (p, q))
    C = fl.orbit_cost_matrix(mu, nu, 1e-9 / n)
    assert fl.assignment_min(C).cost != fl.assignment_min(fl.CostMatrix(C.entries.T)).cost
    w = fl.wasserstein_empirical(mu, nu)
    assert repr(w) == repr(fl.wasserstein_empirical(nu, mu))
    traces = [fl.wasserstein_trace(iv, a, b, seq, [n]).values for a, b in ((p, q), (q, p))]
    assert repr(traces[0]) == repr(traces[1]) == repr((w,))


def test_wasserstein_triangle_inequality():
    rng = random.Random(11)
    tol = 1e-9
    for _ in range(30):
        n = rng.randint(1, 32)
        mus = [
            rotation_measure("golden", Fraction(rng.getrandbits(20), 1 << 20), n)
            for _ in range(3)
        ]
        a, b, c = mus
        d_ac = fl.wasserstein_empirical(a, c, tol)
        d_ab = fl.wasserstein_empirical(a, b, tol)
        d_bc = fl.wasserstein_empirical(b, c, tol)
        assert d_ac <= d_ab + d_bc + 3 * tol


def test_wasserstein_across_union_components_is_one():
    sys_obj = fl.two_rotations()
    F = fl.z_intervals().subset(12)
    mu = fl.empirical_measure(sys_obj, fl.union_point(sys_obj, "a", 0), F)
    nu = fl.empirical_measure(
        sys_obj, fl.union_point(sys_obj, "b", Fraction(1, 3)), F
    )
    # every pairing crosses components, and every crossing costs exactly 1
    assert fl.wasserstein_empirical(mu, nu) == 1.0


def test_wasserstein_rejects_mismatches():
    mu = rotation_measure("golden", 0, 4)
    nu = rotation_measure("1/3", 0, 4)
    with pytest.raises(UnsupportedCaseError):
        fl.wasserstein_empirical(mu, nu)
    with pytest.raises(UnsupportedCaseError):
        fl.wasserstein_empirical(
            rotation_measure("golden", 0, 4), rotation_measure("golden", 0, 5)
        )


def test_orbit_cost_matrix_entries_are_distances():
    mu = rotation_measure("golden", 0, 6)
    nu = rotation_measure("golden", Fraction(1, 5), 6)
    C = fl.orbit_cost_matrix(mu, nu, 1e-9)
    assert C.n == 6
    for i in (0, 3, 5):
        for j in (0, 2, 4):
            assert C.entries[i, j] == fl.metric(
                mu.system, mu.atoms[i], nu.atoms[j], 1e-9
            )


# ---------------------------------------------------------------------------
# CSV round trip


def test_cost_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(12)
    for n in (1, 2, 17):
        C = random_cost(rng, n)
        path = str(tmp_path / f"cost_{n}.csv")
        fl.cost_matrix_to_csv(C, path)
        back = fl.cost_matrix_from_csv(path)
        assert np.array_equal(back.entries, C.entries)


def test_wasserstein_rejects_a_nan_tolerance():
    shift = fl.full_shift()
    F = fl.z_intervals().subset(8)
    mu, nu = (
        fl.empirical_measure(shift, fl.shift_point(shift, fl.RandomWord(seed)), F)
        for seed in (1, 2)
    )
    with pytest.raises(ValueError, match="tol must be positive"):
        fl.wasserstein_empirical(mu, nu, math.nan)


# ---------------------------------------------------------------------------
# the loop against a frozen reference copy


def reference_core(cost, n, zero_rounds=None):
    """The solver loop with a potential pass in every round, zero delta or
    not; appends each round's ``delta == 0.0`` to zero_rounds when given."""
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
            delta = INF
            j1 = -1
            for j in range(n):
                if not used[j]:
                    cur = cost[i0, j] - u[i0] - v[j]
                    if cur < minv[j]:
                        minv[j] = cur
                        way[j] = j0
                    if minv[j] < delta:
                        delta = minv[j]
                        j1 = j
            if zero_rounds is not None:
                zero_rounds.append(delta == 0.0)
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


def assert_core_matches_reference(M, zero_rounds=None):
    C = fl.CostMatrix(M)
    link, u, v = fl.transport._assignment_core(C.entries, C.n)
    ref_link, ref_u, ref_v = reference_core(C.entries, C.n, zero_rounds)
    assert link.tolist() == ref_link.tolist()
    assert same_bits(u.tolist(), ref_u.tolist())
    assert same_bits(v.tolist(), ref_v.tolist())


@pytest.mark.parametrize("style", ["continuous", "012", "signed_zeros"])
def test_core_matches_reference_bit_for_bit(style):
    rng = np.random.default_rng(20)
    for n in range(1, 41):
        if style == "continuous":
            M = rng.random((n, n))
        elif style == "012":
            M = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        else:
            # zeros of both signs among a few ones: mostly zero-delta rounds
            M = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
            M[rng.random((n, n)) < 0.2] = 1.0
        assert_core_matches_reference(M)


def product_measures(factor, points, n):
    prod = fl.product_system(factor)
    F = fl.z_intervals().subset(n)
    return [
        fl.empirical_measure(prod, fl.pair_point(prod, x, y), F)
        for x, y in (points[:2], points[2:])
    ]


def test_core_matches_reference_on_a_rotation_product():
    rot = fl.rotation("golden")
    rng = random.Random(56)
    points = [
        fl.circle_point(rot, Fraction(rng.getrandbits(32), 1 << 32)) for _ in range(4)
    ]
    mu, nu = product_measures(rot, points, 56)
    zero_rounds = []
    assert_core_matches_reference(
        fl.orbit_cost_matrix(mu, nu, 1e-9).entries, zero_rounds
    )
    # most rounds there have delta 0, so the skip is what is compared
    assert sum(zero_rounds) > len(zero_rounds) / 2


def test_core_matches_reference_on_a_shift_product():
    sh = fl.full_shift()
    points = [fl.shift_point(sh, fl.RandomWord(seed)) for seed in (7, 8, 9, 10)]
    mu, nu = product_measures(sh, points, 66)
    assert_core_matches_reference(fl.orbit_cost_matrix(mu, nu, 1e-6).entries)
