"""Trace pseudometrics, coupling bounds, moduli, and ergodicity diagnostics."""

import itertools
import math
import random
from fractions import Fraction

import pytest

import folnerlab as fl
from folnerlab import FolnerlabError, SystemMismatchError, UnsupportedCaseError


GOLDEN = fl.rotation("golden")


def cpoint(frac):
    return fl.circle_point(GOLDEN, frac)


def block_word():
    # 0 on [0, 10), 1 on [10, 100), 0 elsewhere: averages swing with n
    zeros = fl.PeriodicWord((0,))
    ones = fl.PeriodicWord((1,))
    return fl.SplicedWord(zeros, fl.SplicedWord(ones, zeros, 100), 10)


# ---------------------------------------------------------------------------
# traces


def test_wasserstein_trace_below_mean_distance_trace():
    # the diagonal pairing is one admissible transport plan
    cases = [
        (GOLDEN, cpoint(0), cpoint(Fraction(1, 5)), 1e-9),
        (
            fl.full_shift(),
            fl.shift_point(fl.full_shift(), fl.RandomWord(1)),
            fl.shift_point(fl.full_shift(), fl.RandomWord(2)),
            1e-6,
        ),
        (
            fl.two_rotations(),
            fl.union_point(fl.two_rotations(), "a", 0),
            fl.union_point(fl.two_rotations(), "a", Fraction(1, 9)),
            1e-9,
        ),
    ]
    for sys_obj, x, y, tol in cases:
        indices = [4, 8, 16, 32]
        w = fl.wasserstein_trace(sys_obj, x, y, fl.z_intervals(), indices, tol)
        d = fl.mean_distance_trace(sys_obj, x, y, fl.z_intervals(), indices, tol)
        assert w.indices == d.indices == (4, 8, 16, 32)
        for wv, dv in zip(w.values, d.values):
            assert wv <= dv + 2 * tol


def test_trace_values_satisfy_triangle_inequality():
    rng = random.Random(1)
    tol = 1e-9
    pts = [cpoint(Fraction(rng.getrandbits(16), 1 << 16)) for _ in range(3)]
    indices = [5, 10, 20]
    for trace_fn in (fl.wasserstein_trace, fl.mean_distance_trace):
        t_ab = trace_fn(GOLDEN, pts[0], pts[1], fl.z_intervals(), indices, tol)
        t_bc = trace_fn(GOLDEN, pts[1], pts[2], fl.z_intervals(), indices, tol)
        t_ac = trace_fn(GOLDEN, pts[0], pts[2], fl.z_intervals(), indices, tol)
        for ab, bc, ac in zip(t_ab.values, t_bc.values, t_ac.values):
            assert ac <= ab + bc + 3 * tol


def test_mean_distance_trace_is_constant_for_rotations():
    # the rotation acts by isometries, so every orbit average equals d(x, y)
    x, y = cpoint(Fraction(1, 10)), cpoint(Fraction(2, 7))
    d = fl.metric(GOLDEN, x, y)
    trace = fl.mean_distance_trace(GOLDEN, x, y, fl.z_intervals(), [1, 5, 50, 200])
    for v in trace.values:
        assert v == pytest.approx(d, abs=1e-12)


def test_rotation_wasserstein_trace_frozen():
    trace = fl.wasserstein_trace(
        GOLDEN, cpoint(0), cpoint(Fraction(3, 10)),
        fl.z_intervals(), list(range(50, 1001, 50)),
    )
    assert trace.values[-1] == pytest.approx(0.00028198643942461, abs=1e-12)
    assert trace.limsup_estimate == pytest.approx(0.0009293652651041243, abs=1e-12)


def test_shift_trace_between_distinct_fixed_points_stays_near_one():
    sys_obj = fl.full_shift()
    zeros = fl.shift_point(sys_obj, fl.PeriodicWord((0,)))
    ones = fl.shift_point(sys_obj, fl.PeriodicWord((1,)))
    tol = 1e-6
    trace = fl.wasserstein_trace(sys_obj, zeros, ones, fl.z_intervals(), [2, 8, 32], tol)
    for v in trace.values:
        # both measures are point masses at the two fixed points; the value
        # is the truncated metric, within tol of the true distance 1
        assert 1.0 - tol <= v <= 1.0


def test_limsup_estimate_is_max_of_last_half():
    trace = fl.PseudometricTrace("wasserstein", (1, 2, 3, 4), (9.0, 1.0, 3.0, 2.0))
    assert trace.limsup_estimate == 3.0
    short = fl.PseudometricTrace("wasserstein", (1,), (0.5,))
    assert short.limsup_estimate == 0.5


def test_traces_are_deterministic():
    a = fl.wasserstein_trace(GOLDEN, cpoint(0), cpoint(Fraction(1, 3)), fl.z_intervals(), [10, 20])
    b = fl.wasserstein_trace(GOLDEN, cpoint(0), cpoint(Fraction(1, 3)), fl.z_intervals(), [10, 20])
    assert a.values == b.values


def test_trace_index_validation():
    for bad in ([], [0, 1], [3, 3], [5, 2]):
        with pytest.raises(ValueError):
            fl.wasserstein_trace(GOLDEN, cpoint(0), cpoint(Fraction(1, 3)), fl.z_intervals(), bad)


def test_trace_csv_table():
    trace = fl.mean_distance_trace(GOLDEN, cpoint(0), cpoint(Fraction(1, 3)), fl.z_intervals(), [2, 4])
    header, rows = trace.csv_table()
    assert header == ["n", "value"]
    assert [r[0] for r in rows] == ["2", "4"]
    for r in rows:
        float(r[1])


# ---------------------------------------------------------------------------
# assignment distance on orbits


def test_orbit_permutation_distance_matches_bruteforce_pairing():
    rng = random.Random(2)
    for n in (1, 2, 3, 4, 5, 6):
        x = cpoint(Fraction(rng.getrandbits(16), 1 << 16))
        y = cpoint(Fraction(rng.getrandbits(16), 1 << 16))
        F = fl.z_intervals().subset(n)
        value = fl.orbit_permutation_distance(GOLDEN, x, y, F)
        xs = fl.orbit_sample(GOLDEN, x, F)
        ys = fl.orbit_sample(GOLDEN, y, F)
        brute = min(
            math.fsum(fl.metric(GOLDEN, a, ys[p]) for a, p in zip(xs, perm)) / n
            for perm in itertools.permutations(range(n))
        )
        assert abs(value - brute) <= 1e-9


def test_orbit_permutation_distance_equals_wasserstein():
    # bit for bit and in both orders, on rotation, shift and product orbits
    rng = random.Random(3)
    cases = []
    for _ in range(10):
        n = rng.randint(1, 30)
        x = cpoint(Fraction(rng.getrandbits(16), 1 << 16))
        y = cpoint(Fraction(rng.getrandbits(16), 1 << 16))
        cases.append((GOLDEN, x, y, n, 1e-9))
    sh, prod = fl.full_shift(), fl.product_system(GOLDEN)
    for n in (1, 7, 24):
        cases.append((sh, fl.shift_point(sh, fl.RandomWord(5)),
                      fl.shift_point(sh, fl.RandomWord(105)), n, 1e-4))
        cases.append((prod, fl.pair_point(prod, cpoint(Fraction(1, 5)), cpoint(0)),
                      fl.pair_point(prod, cpoint(Fraction(1, 9)), cpoint(Fraction(3, 4))),
                      n, 1e-9))
    for sys_obj, x, y, n, tol in cases:
        F = fl.z_intervals().subset(n)
        mu = fl.empirical_measure(sys_obj, x, F)
        nu = fl.empirical_measure(sys_obj, y, F)
        w = repr(fl.wasserstein_empirical(mu, nu, tol))
        assert repr(fl.orbit_permutation_distance(sys_obj, x, y, F, tol)) == w
        assert repr(fl.orbit_permutation_distance(sys_obj, y, x, F, tol)) == w


# ---------------------------------------------------------------------------
# translate bound: moving the window moves the measure by the boundary share


def translate_bound_case(sys_obj, seq, x, g, ns, tol):
    for n in ns:
        F = seq.subset(n)
        gF = fl.translate_left(g, F)
        sym_diff = F.coord_set() ^ gF.coord_set()
        bound = sys_obj.diameter_bound * len(sym_diff) / (2 * F.size)
        trace = fl.wasserstein_trace(sys_obj, x, fl.act(sys_obj, g, x), seq, [n], tol)
        assert trace.values[0] <= bound + 2 * tol


def test_translate_bound_on_z():
    # abelian action: the orbit of g*x over F equals the orbit of x over gF,
    # so W is at most diameter * |gF symdiff F| / (2|F|)
    for k in (1, 2, 5):
        translate_bound_case(
            GOLDEN, fl.z_intervals(), cpoint(Fraction(1, 7)),
            fl.element("Z", k), (8, 32, 128), 1e-9,
        )


def test_translate_bound_on_z2():
    sys_obj = fl.zd_rotation(["golden", "1/7"])
    x = fl.circle_point(sys_obj, Fraction(1, 11))
    translate_bound_case(
        sys_obj, fl.zd_boxes(2), x, fl.element("Z^2", 1, 2), (4, 8, 12), 1e-9
    )


def test_translate_bound_is_not_vacuous():
    # the bound must shrink along the sequence while staying above the trace
    k, ns = 3, (16, 64, 256)
    bounds = [GOLDEN.diameter_bound * 2 * k / (2 * n) for n in ns]
    assert bounds[0] > bounds[1] > bounds[2]
    trace = fl.wasserstein_trace(
        GOLDEN, cpoint(0), fl.act(GOLDEN, fl.element("Z", k), cpoint(0)),
        fl.z_intervals(), list(ns),
    )
    for v, b in zip(trace.values, bounds):
        assert v <= b + 2e-9


# ---------------------------------------------------------------------------
# coupling bounds on product systems


def test_coupling_bounds_hold_for_rotation_product():
    prod = fl.product_system(GOLDEN)
    pairs = [
        (
            fl.pair_point(prod, cpoint(0), cpoint(Fraction(1, 3))),
            fl.pair_point(prod, cpoint(Fraction(1, 8)), cpoint(Fraction(2, 5))),
        ),
        (
            fl.pair_point(prod, cpoint(Fraction(1, 7)), cpoint(Fraction(1, 7))),
            fl.pair_point(prod, cpoint(Fraction(1, 2)), cpoint(Fraction(5, 6))),
        ),
    ]
    tol = 1e-9
    report = fl.coupling_bounds_check(prod, pairs, fl.z_intervals(), [8, 32, 128], tol)
    assert len(report.rows) == 6
    assert report.max_violation <= 2 * tol
    for row in report.rows:
        assert row.w_product <= row.diagonal_mean + 2 * tol
        assert row.base_mean <= row.w_to_diagonal + 2 * tol


def test_coupling_bounds_hold_for_shift_product():
    sh = fl.full_shift()
    prod = fl.product_system(sh)
    mk = lambda w: fl.shift_point(sh, w)
    pairs = [
        (
            fl.pair_point(prod, mk(fl.RandomWord(1)), mk(fl.RandomWord(2))),
            fl.pair_point(prod, mk(fl.RandomWord(3)), mk(fl.PeriodicWord((0, 1)))),
        ),
    ]
    tol = 1e-6
    report = fl.coupling_bounds_check(prod, pairs, fl.z_intervals(), [4, 8, 16], tol)
    # metric truncation can leak at most the per-call budget into each side
    assert report.max_violation <= 2 * tol


def test_coupling_bounds_requires_product_system():
    with pytest.raises(UnsupportedCaseError):
        fl.coupling_bounds_check(GOLDEN, [], fl.z_intervals(), [4])


@pytest.mark.parametrize("foreign", [0, 1], ids=["z1", "z2"])
def test_coupling_bounds_rejects_a_point_of_another_system(foreign):
    prod = fl.product_system(GOLDEN)
    z = fl.pair_point(prod, cpoint(0), cpoint(Fraction(1, 4)))
    pair = [z, z]
    pair[foreign] = cpoint(Fraction(1, 3))
    with pytest.raises(SystemMismatchError):
        fl.coupling_bounds_check(prod, [(z, z), tuple(pair)], fl.z_intervals(), [4])


def test_coupling_bounds_report_tables():
    prod = fl.product_system(GOLDEN)
    z1 = fl.pair_point(prod, cpoint(0), cpoint(Fraction(1, 4)))
    z2 = fl.pair_point(prod, cpoint(Fraction(1, 9)), cpoint(Fraction(1, 2)))
    report = fl.coupling_bounds_check(prod, [(z1, z2)], fl.z_intervals(), [4, 8])
    header, rows = report.csv_table()
    assert header[0] == "pair"
    assert len(rows) == 2
    payload = report.to_json_dict()
    assert payload["max_violation"] == report.max_violation
    assert len(payload["rows"]) == 2


def test_diagnostics_refuse_a_verdict_from_no_pairs():
    seq = fl.z_intervals()
    with pytest.raises(ValueError, match="at least two sample points"):
        fl.unique_ergodicity_diagnostic(GOLDEN, [cpoint(0)], seq, 8)
    for grid in ([], [cpoint(0)]):
        with pytest.raises(ValueError, match="at least two grid points"):
            fl.measure_map_continuity_diagnostic(GOLDEN, grid, seq, 8)
    with pytest.raises(ValueError, match="at least one pair"):
        fl.coupling_bounds_check(fl.product_system(GOLDEN), [], seq, [4])


# ---------------------------------------------------------------------------
# equicontinuity moduli


def test_modulus_sup_values_are_nondecreasing():
    sampler = fl.near_pair_sampler(GOLDEN, 5)
    est = fl.modulus_estimate(
        GOLDEN, "mean_distance", fl.z_intervals(), [0.05, 0.001, 0.01],
        sampler, [10, 20], pairs_per_delta=8,
    )
    assert est.delta_grid == (0.001, 0.01, 0.05)
    assert list(est.sup_values) == sorted(est.sup_values)


def test_rotation_wasserstein_modulus_frozen():
    sampler = fl.near_pair_sampler(GOLDEN, 11)
    est = fl.modulus_estimate(
        GOLDEN, "wasserstein", fl.z_intervals(), [0.001, 0.01, 0.05],
        sampler, [100, 200], pairs_per_delta=16,
    )
    expected = (0.0009689999999999992, 0.0025138041894085016, 0.0026000000000000007)
    for got, want in zip(est.sup_values, expected):
        assert got == pytest.approx(want, abs=1e-12)
    # small deltas force small sups: the rotation is mean equicontinuous
    assert est.sup_values[0] < 0.001


def test_shift_modulus_stays_large_at_small_delta_frozen():
    sh = fl.full_shift()
    sampler = fl.near_pair_sampler(sh, 11)
    w_est = fl.modulus_estimate(
        sh, "wasserstein", fl.z_intervals(), [0.001, 0.01, 0.05],
        sampler, [16, 32], pairs_per_delta=8, tol=1e-6,
    )
    d_est = fl.modulus_estimate(
        sh, "mean_distance", fl.z_intervals(), [0.001, 0.01, 0.05],
        sampler, [16, 32], pairs_per_delta=8, tol=1e-6,
    )
    for got, want in zip(
        w_est.sup_values, (0.40042874217033386, 0.5243394309654832, 0.591112376190722)
    ):
        assert got == pytest.approx(want, abs=1e-12)
    for got, want in zip(
        d_est.sup_values, (0.4706590222194791, 0.5998091083019972, 0.5998091083019972)
    ):
        assert got == pytest.approx(want, abs=1e-12)
    # nearby shift points still drift far apart in the mean: no modulus here
    assert w_est.sup_values[0] > 0.4
    assert d_est.sup_values[0] >= w_est.sup_values[0] - 2e-6


def test_modulus_validation():
    sampler = fl.near_pair_sampler(GOLDEN, 1)
    with pytest.raises(ValueError):
        fl.modulus_estimate(GOLDEN, "wobbly", fl.z_intervals(), [0.1], sampler, [4])
    with pytest.raises(ValueError):
        fl.modulus_estimate(GOLDEN, "wasserstein", fl.z_intervals(), [], sampler, [4])


@pytest.mark.parametrize("sys_obj", [GOLDEN, fl.full_shift(), fl.interval_square()],
                         ids=["rotation", "full_shift", "interval_square"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -0.5])
def test_near_pair_sampler_needs_a_positive_finite_delta(sys_obj, bad):
    sampler = fl.near_pair_sampler(sys_obj, 1)
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        sampler(bad, 2)
    with pytest.raises(ValueError, match="delta must be positive and finite"):
        fl.modulus_estimate(
            sys_obj, "mean_distance", fl.z_intervals(), [bad], sampler, [4]
        )


@pytest.mark.parametrize("count", [0, -3])
def test_modulus_needs_a_positive_pair_count(count):
    # no samples would read as a zero sup, that is as "equicontinuous"
    sampler = fl.near_pair_sampler(GOLDEN, 1)
    with pytest.raises(ValueError, match="pairs_per_delta must be positive"):
        fl.modulus_estimate(
            GOLDEN, "wasserstein", fl.z_intervals(), [0.1], sampler, [4], count
        )


@pytest.mark.parametrize(
    "sys_obj,tol",
    [
        (GOLDEN, 1e-9),
        (fl.zd_rotation(["golden", "1/7"]), 1e-9),
        (fl.interval_square(), 1e-9),
        (fl.two_rotations(), 1e-9),
        (fl.full_shift(), None),
    ],
    ids=lambda v: getattr(v, "system_id", str(v)),
)
def test_near_pair_sampler_respects_delta(sys_obj, tol):
    sampler = fl.near_pair_sampler(sys_obj, 7)
    for delta in (0.5, 0.03, 0.002):
        metric_tol = tol if tol is not None else delta / 16
        for x, y in sampler(delta, 25):
            assert fl.metric(sys_obj, x, y, metric_tol) < delta + metric_tol


def test_near_pair_sampler_rejects_bad_delta_and_products():
    sampler = fl.near_pair_sampler(GOLDEN, 1)
    with pytest.raises(ValueError):
        sampler(0.0, 4)
    prod_sampler = fl.near_pair_sampler(fl.product_system(GOLDEN), 1)
    with pytest.raises(UnsupportedCaseError):
        prod_sampler(0.1, 4)


@pytest.mark.parametrize(
    "sys_obj,expected",
    [
        (
            fl.heisenberg_rotation(),
            [
                (
                    {"values": ["33350058038919/35184372088832",
                                "111132926676279/281474976710656"]},
                    {"values": ["34752140342069754299/36028797018963968000",
                                "25203834617718770303/72057594037927936000"]},
                ),
                (
                    {"values": ["231168335884083/281474976710656",
                                "26493659877419/281474976710656"]},
                    {"values": ["58274771181149252353/72057594037927936000",
                                "3740667795393582509/36028797018963968000"]},
                ),
                (
                    {"values": ["256057609356405/281474976710656",
                                "60432369274613/281474976710656"]},
                    {"values": ["62225290030389305569/72057594037927936000",
                                "12505516539640193269/72057594037927936000"]},
                ),
            ],
        ),
        (
            fl.interval_square(),
            [
                ({"value": 0.32383276483316237}, {"value": 0.2540724297832778}),
                ({"value": 0.6509344730398537}, {"value": 0.5655072431160288}),
                ({"value": 0.5358820043066892}, {"value": 0.5090466499058238}),
            ],
        ),
        (
            fl.two_rotations(),
            [
                (
                    {"component": "b", "value": "10616029434745/70368744177664"},
                    {"component": "b",
                     "value": "2029553512232508173/18014398509481984000"},
                ),
                (
                    {"component": "a", "value": "231168335884083/281474976710656"},
                    {"component": "a",
                     "value": "7573927853683579453/9007199254740992000"},
                ),
                (
                    {"component": "a", "value": "20504907069759/35184372088832"},
                    {"component": "a",
                     "value": "7324375402345882243/18014398509481984000"},
                ),
            ],
        ),
    ],
    ids=lambda v: getattr(v, "space_kind", ""),
)
def test_near_pair_sampler_frozen(sys_obj, expected):
    # pins the draw order of the torus, interval and union samplers
    pairs = fl.near_pair_sampler(sys_obj, 7)(0.1, 3)
    got = [(fl.point_to_dict(sys_obj, x), fl.point_to_dict(sys_obj, y)) for x, y in pairs]
    assert got == expected


def test_modulus_csv_table():
    sampler = fl.near_pair_sampler(GOLDEN, 5)
    est = fl.modulus_estimate(
        GOLDEN, "wasserstein", fl.z_intervals(), [0.01, 0.1], sampler, [10],
        pairs_per_delta=4,
    )
    header, rows = est.csv_table()
    assert header == ["delta", "sup_value", "samples_per_delta"]
    assert len(rows) == 2
    assert rows[0][2] == "4"


# ---------------------------------------------------------------------------
# unique ergodicity diagnostics


def test_rotation_consistent_with_unique_ergodicity():
    points = [cpoint(0), cpoint(Fraction(1, 3)), cpoint(Fraction(5, 8)), cpoint(Fraction(1, 7))]
    report = fl.unique_ergodicity_diagnostic(GOLDEN, points, fl.z_intervals(), 512)
    assert report.consistent
    assert report.max_w <= 0.05
    assert report.max_rho <= 0.05
    assert len(report.pair_rows) == 6
    for i, j, w, rho in report.pair_rows:
        assert i < j
        assert w >= 0 and rho >= 0


def test_union_system_flunks_unique_ergodicity():
    un = fl.two_rotations()
    points = [
        fl.union_point(un, "a", 0),
        fl.union_point(un, "b", Fraction(1, 7)),
        fl.union_point(un, "a", Fraction(1, 3)),
    ]
    report = fl.unique_ergodicity_diagnostic(un, points, fl.z_intervals(), 200)
    assert not report.consistent
    # component-crossing pairs transport all mass across the gap
    assert report.max_w == 1.0
    assert report.max_rho == pytest.approx(0.25085413994072403, abs=1e-12)
    intra = [w for i, j, w, _ in report.pair_rows if (i, j) == (0, 2)]
    assert intra[0] == pytest.approx(0.001443129740017085, abs=1e-12)


def test_unique_ergodicity_validation_and_tables():
    with pytest.raises(ValueError):
        fl.unique_ergodicity_diagnostic(GOLDEN, [], fl.z_intervals(), 8)
    report = fl.unique_ergodicity_diagnostic(
        GOLDEN, [cpoint(0), cpoint(Fraction(1, 2))], fl.z_intervals(), 16
    )
    header, rows = report.csv_table()
    assert header == ["i", "j", "w", "rho"]
    assert len(rows) == 1
    payload = report.to_json_dict()
    assert payload["consistent"] == report.consistent
    assert payload["n"] == 16


# ---------------------------------------------------------------------------
# generic measure traces


def test_rotation_generic_measure_trace_frozen():
    trace = fl.generic_measure_trace(
        GOLDEN, cpoint(0), fl.z_intervals(),
        [100, 200, 300, 400, 500, 600, 700, 800],
    )
    assert len(trace.measures) == 8
    assert len(trace.consecutive_rho) == 7
    assert trace.cauchy_defect == pytest.approx(0.0006552544319741795, abs=1e-12)


def test_generic_measure_trace_needs_two_indices():
    with pytest.raises(ValueError):
        fl.generic_measure_trace(GOLDEN, cpoint(0), fl.z_intervals(), [10])


def test_generic_measure_trace_csv():
    trace = fl.generic_measure_trace(GOLDEN, cpoint(0), fl.z_intervals(), [5, 10, 20])
    header, rows = trace.csv_table()
    assert header == ["n_from", "n_to", "rho"]
    assert [r[:2] for r in rows] == [["5", "10"], ["10", "20"]]


# ---------------------------------------------------------------------------
# continuity of the point -> empirical measure map


def test_rotation_measure_map_looks_continuous_frozen():
    grid = [cpoint(Fraction(k, 6)) for k in range(6)]
    report = fl.measure_map_continuity_diagnostic(GOLDEN, grid, fl.z_intervals(), 1000)
    assert len(report.rows) == 5
    top = max(r for _, _, r in report.rows)
    assert top == pytest.approx(9.141092477592432e-05, abs=1e-12)


def test_union_measure_map_jumps_across_components():
    un = fl.two_rotations()
    grid = [
        fl.union_point(un, "a", 0),
        fl.union_point(un, "a", Fraction(1, 100)),
        fl.union_point(un, "b", Fraction(1, 100)),
    ]
    report = fl.measure_map_continuity_diagnostic(un, grid, fl.z_intervals(), 200)
    (i0, d0, r0), (i1, d1, r1) = report.rows
    assert d0 < 0.01 and r0 < 0.01
    # adjacent in the grid but in different components: distance 1, rho jumps
    assert d1 == 1.0
    assert r1 > 0.2


def test_continuity_singleton_grid_and_tables():
    with pytest.raises(ValueError):
        fl.measure_map_continuity_diagnostic(GOLDEN, [cpoint(0)], fl.z_intervals(), 8)
    grid = [cpoint(0), cpoint(Fraction(1, 2))]
    report = fl.measure_map_continuity_diagnostic(GOLDEN, grid, fl.z_intervals(), 8)
    header, rows = report.csv_table()
    assert header == ["i", "distance", "rho"]
    assert len(rows) == 1
    assert report.to_json_dict()["n"] == 8


# ---------------------------------------------------------------------------
# uniform convergence of averages


def test_rotation_character_averages_converge_uniformly():
    # two-route check: the sup gap must obey the geometric-series bound
    # |A_n f| <= 2 / (n |1 - e^(2 pi i alpha)|) for f = cos_1
    f = fl.observable_family(GOLDEN).observable(1)
    grid = [cpoint(Fraction(k, 8)) for k in range(8)]
    pairs = [(100, 200), (200, 400), (500, 1000)]
    report = fl.uniform_convergence_diagnostic(GOLDEN, f, grid, fl.z_intervals(), pairs)
    alpha = float(fl.GOLDEN_ALPHA)
    c = abs(1.0 - complex(math.cos(2 * math.pi * alpha), math.sin(2 * math.pi * alpha)))
    for n, m, sup_gap in report.rows:
        assert sup_gap <= 2.0 / (n * c) + 2.0 / (m * c)
    assert report.rows[-1][2] < 0.005


def test_shift_block_word_averages_do_not_converge_at_small_scales():
    sh = fl.full_shift()
    f = fl.observable_family(sh).observable(2)  # indicator of symbol 1 at 0
    grid = [
        fl.shift_point(sh, fl.PeriodicWord((0,))),
        fl.shift_point(sh, block_word()),
    ]
    report = fl.uniform_convergence_diagnostic(
        sh, f, grid, fl.z_intervals(), [(10, 100), (100, 1000)]
    )
    gaps = {(n, m): s for n, m, s in report.rows}
    assert gaps[(10, 100)] == pytest.approx(0.9, abs=1e-12)
    assert gaps[(100, 1000)] == pytest.approx(0.81, abs=1e-12)


def test_constant_observable_gives_zero_gaps():
    grid = [cpoint(Fraction(k, 5)) for k in range(5)]
    report = fl.uniform_convergence_diagnostic(
        GOLDEN, lambda p: 0.75, grid, fl.z_intervals(), [(3, 9), (9, 27)]
    )
    for _, _, sup_gap in report.rows:
        assert sup_gap == 0.0


def test_uniform_convergence_validation_and_tables():
    f = lambda p: 1.0
    with pytest.raises(ValueError):
        fl.uniform_convergence_diagnostic(GOLDEN, f, [], fl.z_intervals(), [(1, 2)])
    with pytest.raises(ValueError):
        fl.uniform_convergence_diagnostic(GOLDEN, f, [cpoint(0)], fl.z_intervals(), [(5, 5)])
    with pytest.raises(ValueError):
        fl.uniform_convergence_diagnostic(GOLDEN, f, [cpoint(0)], fl.z_intervals(), [(0, 4)])
    report = fl.uniform_convergence_diagnostic(
        GOLDEN, f, [cpoint(0)], fl.z_intervals(), [(2, 4)]
    )
    header, rows = report.csv_table()
    assert header == ["n", "m", "sup_gap"]
    assert rows == [["2", "4", "0"]]
    assert report.to_json_dict()["rows"][0]["sup_gap"] == 0.0


# ---------------------------------------------------------------------------
# ergodic diagnostics beyond the rotation, pinned to the last bit


def _product_of_rotations():
    prod = fl.product_system(GOLDEN)
    return prod, fl.pair_point(prod, cpoint(Fraction(1, 3)), cpoint(Fraction(1, 7)))


def _product_of_shifts():
    sh = fl.full_shift()
    prod = fl.product_system(sh)
    x = fl.pair_point(
        prod,
        fl.shift_point(sh, fl.RandomWord(5)),
        fl.shift_point(sh, fl.PeriodicWord((0, 1))),
    )
    return prod, x


@pytest.mark.parametrize(
    "make, seq, indices, expected",
    [
        (
            lambda: (fl.full_shift(), fl.shift_point(fl.full_shift(), fl.RandomWord(5))),
            fl.z_intervals(), [8, 16, 32],
            (0.033143187294854215, 0.03911412596536934),
        ),
        (
            lambda: (
                fl.heisenberg_rotation(),
                fl.torus_point(fl.heisenberg_rotation(), ["1/3", "1/5"]),
            ),
            fl.heisenberg_boxes(), [1, 2, 3],
            (0.012268959798495337, 0.01577246759455346),
        ),
        (
            lambda: (
                fl.two_rotations(),
                fl.union_point(fl.two_rotations(), "b", Fraction(2, 7)),
            ),
            fl.z_intervals("right"), [5, 10, 20],
            (0.00038871024252445805, 0.0012028723508539418),
        ),
        (
            _product_of_rotations, fl.z_intervals(), [6, 12, 24],
            (0.03308138818358978, 0.02639787432124996),
        ),
        (
            _product_of_shifts, fl.z_intervals(), [4, 8, 16],
            (0.02172869723290205, 0.010929317452848863),
        ),
    ],
    ids=["full_shift", "heisenberg_rotation", "two_rotations", "product-rotation",
         "product-shift"],
)
def test_generic_measure_trace_pinned(make, seq, indices, expected):
    sys_obj, x = make()
    trace = fl.generic_measure_trace(sys_obj, x, seq, indices)
    assert trace.consecutive_rho == expected
    for n, mu in zip(indices, trace.measures):
        assert mu == fl.empirical_measure(sys_obj, x, seq.subset(n))


def test_zd_rotation_mean_distance_trace_pinned():
    zd = fl.zd_rotation(["golden", "1/3"])
    x, y = fl.circle_point(zd, "1/5"), fl.circle_point(zd, "3/4")
    trace = fl.mean_distance_trace(zd, x, y, fl.zd_boxes(2), [1, 2, 4])
    assert trace.values == (0.44999999999999996, 0.45, 0.44999999999999996)


def test_uniform_convergence_rows_pinned():
    f = fl.observable_family(GOLDEN).observable(3)
    grid = [cpoint(Fraction(k, 5)) for k in range(5)]
    report = fl.uniform_convergence_diagnostic(
        GOLDEN, f, grid, fl.z_intervals(), [(10, 40), (5, 20), (10, 20)]
    )
    assert report.rows == (
        (10, 40, 0.09493656582577989),
        (5, 20, 0.17411502309376914),
        (10, 20, 0.12131616656539677),
    )
    un = fl.two_rotations()
    f = fl.observable_family(un).observable(4)
    grid = [fl.union_point(un, t, Fraction(k, 3)) for t in "ab" for k in range(3)]
    report = fl.uniform_convergence_diagnostic(
        un, f, grid, fl.z_intervals(), [(4, 8), (8, 16)]
    )
    assert report.rows == ((4, 8, 0.23342857141762965), (8, 16, 0.0038543646837565695))


def test_uniform_convergence_checks_every_pair_before_averaging():
    calls = []

    def f(p):
        calls.append(p)
        return 0.0

    with pytest.raises(ValueError, match=r"index pairs must satisfy 1 <= n < m"):
        fl.uniform_convergence_diagnostic(
            GOLDEN, f, [cpoint(0)], fl.z_intervals(), [(5, 10), (0, 4)]
        )
    assert calls == []


SHIFT = fl.full_shift()
ZD = fl.zd_rotation(["1/3", "golden"])
HEIS = fl.heisenberg_rotation("2/9", "golden")
UNION = fl.two_rotations()
INTERVAL = fl.interval_square()


@pytest.mark.parametrize(
    "base, points, seq, indices, reads",
    [
        # one union pass per point: the kernel does not read its tol
        (GOLDEN, (cpoint(0), cpoint(Fraction(1, 3))), fl.z_intervals(), [10, 20, 40],
         [40, 40]),
        # a shift metric reads its tol, so each index keeps its own tol/|F|
        (SHIFT, (fl.shift_point(SHIFT, fl.RandomWord(3)),
                 fl.shift_point(SHIFT, fl.RandomWord(4))),
         fl.z_intervals(), [10, 20, 40], [10, 10, 20, 20, 40, 40]),
        (ZD, (fl.circle_point(ZD, 0), fl.circle_point(ZD, Fraction(1, 7))),
         fl.zd_boxes(2), [1, 2], [25, 25]),
        (HEIS, (fl.torus_point(HEIS, [0, 0]), fl.torus_point(HEIS, ["1/3", "1/5"])),
         fl.heisenberg_boxes(), [1, 2], [225, 225]),
        # a cross-component pair
        (UNION, (fl.union_point(UNION, "a", 0), fl.union_point(UNION, "b", Fraction(1, 3))),
         fl.z_intervals(), [5, 10, 20], [20, 20]),
        # 1 is a fixed point of the map
        (INTERVAL, (fl.interval_point(INTERVAL, 1.0), fl.interval_point(INTERVAL, 0.3)),
         fl.z_intervals(), [5, 10, 20], [20, 20]),
    ],
    ids=["rotation", "shift", "zd_rotation", "heisenberg_rotation", "two_rotations",
         "interval_square"],
)
def test_coupling_base_means_evaluate_each_row_once(
    base, points, seq, indices, reads, monkeypatch
):
    P = fl.product_system(base)
    x, y = points
    tol = 1e-6
    seen = []
    orbit_reader = fl.analysis._orbit_reader

    def counting(sys_obj, p, rows):
        if sys_obj is base:
            seen.append(len(rows))
        return orbit_reader(sys_obj, p, rows)

    monkeypatch.setattr(fl.analysis, "_orbit_reader", counting)
    z1, z2 = fl.pair_point(P, x, y), fl.pair_point(P, y, x)
    report = fl.coupling_bounds_check(P, [(z1, z2)], seq, indices, tol)
    monkeypatch.undo()
    assert seen == reads
    for row in report.rows:
        F = seq.subset(row.n)
        for sys_obj, (a, b), mean in (
            (base, (x, y), row.base_mean), (P, (z1, z2), row.diagonal_mean)
        ):
            ga, gb = fl.orbit_sample(sys_obj, a, F), fl.orbit_sample(sys_obj, b, F)
            expected = math.fsum(
                fl.metric(sys_obj, u, v, tol / F.size) for u, v in zip(ga, gb)
            ) / F.size
            assert repr(mean) == repr(expected)


def test_diagnostics_build_no_group_elements(monkeypatch):
    built = []
    post_init = fl.GroupElement.__post_init__

    def counting(self):
        built.append(self.coords)
        post_init(self)

    z2 = fl.zd_rotation(["1/3", "golden"])
    heis = fl.heisenberg_rotation("2/9", "golden")
    unnested = fl.explicit_sequence([
        fl.FiniteSubset.from_coords("Z", [[3], [-1], [8]], sort=False),
        fl.FiniteSubset.from_coords("Z", [[0], [3], [5], [-1]], sort=False),
    ])
    cases = [
        (GOLDEN, cpoint(0), cpoint(Fraction(1, 3)), fl.z_intervals(), [5, 10, 20]),
        (z2, fl.circle_point(z2, 0), fl.circle_point(z2, Fraction(1, 7)),
         fl.zd_boxes(2), [1, 2, 3]),
        (heis, fl.torus_point(heis, [Fraction(1, 3), 0]),
         fl.torus_point(heis, [0, Fraction(1, 2)]), fl.heisenberg_boxes(), [1, 2]),
        (GOLDEN, cpoint(0), cpoint(Fraction(1, 3)), unnested, [1, 2]),
    ]
    monkeypatch.setattr(fl.GroupElement, "__post_init__", counting)
    for sys_obj, x, y, seq, indices in cases:
        P = fl.product_system(sys_obj)
        f = fl.observable_family(sys_obj).observable(1)
        fl.wasserstein_trace(sys_obj, x, y, seq, indices)
        fl.mean_distance_trace(sys_obj, x, y, seq, indices)
        fl.generic_measure_trace(sys_obj, x, seq, indices, N=5)
        fl.uniform_convergence_diagnostic(
            sys_obj, f, [x, y], seq, [(indices[0], indices[-1])]
        )
        pairs = [(fl.pair_point(P, x, y), fl.pair_point(P, y, x))]
        fl.coupling_bounds_check(P, pairs, seq, indices)
        fl.birkhoff_average(sys_obj, f, x, seq.subset(indices[-1]))
    assert built == []


def test_generic_measure_trace_evaluates_each_observable_once_per_orbit_point():
    calls = []

    def counting(i):
        def fn(p):
            calls.append(i)
            return float(p.payload) * i

        return fl.Observable(f"f{i}", 3.0, fn)

    family = fl.ObservableFamily(GOLDEN.system_id, (counting(i) for i in (1, 2, 3)))
    fl.generic_measure_trace(
        GOLDEN, cpoint(Fraction(1, 7)), fl.z_intervals(), [25, 50, 100], family, N=3
    )
    assert len(calls) == 3 * 100


def test_uniform_convergence_evaluates_f_once_per_orbit_point():
    calls = []

    def f(p):
        calls.append(p)
        return float(p.payload)

    grid = [cpoint(Fraction(k, 4)) for k in range(4)]
    fl.uniform_convergence_diagnostic(GOLDEN, f, grid, fl.z_intervals(), [(10, 40)])
    assert len(calls) == 40 * len(grid)


# ---------------------------------------------------------------------------
# family diagnostics read their arrays straight from the orbit


def _orbit_read_cases():
    z2 = fl.zd_rotation(["1/3", "golden"])
    heis = fl.heisenberg_rotation("2/9", "golden")
    un = fl.two_rotations()
    cases = [
        (GOLDEN, [cpoint(Fraction(k, 5)) for k in range(3)], fl.z_intervals(), [5, 20]),
        (z2, [fl.circle_point(z2, Fraction(k, 7)) for k in range(3)], fl.zd_boxes(2),
         [1, 3]),
        (heis, [fl.torus_point(heis, [Fraction(k, 3), Fraction(1, 5)]) for k in range(3)],
         fl.heisenberg_boxes(), [1, 2]),
        (un, [fl.union_point(un, t, Fraction(1, 4)) for t in "aba"],
         fl.z_intervals("right"), [4, 16]),
    ]
    for sys_obj, points, seq, indices in list(cases):
        P = fl.product_system(sys_obj)
        pairs = [fl.pair_point(P, p, q) for p, q in zip(points, points[1:] + points[:1])]
        cases.append((P, pairs, seq, indices))
    return cases


@pytest.mark.parametrize(
    "sys_obj, points, seq, indices", _orbit_read_cases(),
    ids=lambda v: getattr(v, "system_id", None) or getattr(v, "kind", None) or "",
)
def test_family_diagnostics_build_no_orbit_points(sys_obj, points, seq, indices,
                                                  monkeypatch):
    calls = []
    for space in fl.systems._SPACES.values():
        def counting(self, s, x, rows, orbit=type(space).orbit):
            calls.append(s.space_kind)
            return orbit(self, s, x, rows)

        monkeypatch.setattr(type(space), "orbit", counting)
    family = fl.observable_family(sys_obj)
    n, m = indices
    for i in (1, 2, 7):
        fl.uniform_convergence_diagnostic(sys_obj, family.observable(i), points, seq,
                                          [(n, m)])
    fl.measure_map_continuity_diagnostic(sys_obj, points, seq, m, N=12)
    fl.mean_distance_trace(sys_obj, points[0], points[1], seq, indices)
    assert calls == []
    # the reference path does act: the counter sees the points it builds
    fl.orbit_sample(sys_obj, points[0], seq.subset(n))
    assert calls


def test_shift_mean_distance_reads_each_index_at_its_own_tol():
    sh = fl.full_shift()
    x = fl.shift_point(sh, fl.RandomWord(8))
    y = fl.shift_point(sh, fl.FlippedWord(fl.RandomWord(8), {3, 40}))
    seq, indices, tol = fl.z_intervals(), [2, 9, 33], 1e-4
    trace = fl.mean_distance_trace(sh, x, y, seq, indices, tol)
    for n, value in zip(indices, trace.values):
        F = seq.subset(n)
        pairs = zip(fl.orbit_sample(sh, x, F), fl.orbit_sample(sh, y, F))
        expected = math.fsum(fl.metric(sh, a, b, tol / n) for a, b in pairs) / n
        assert repr(value) == repr(expected)


def test_unique_ergodicity_converts_each_measure_once(monkeypatch):
    calls = []
    orbit_coords = fl.systems._Circle.orbit_coords

    def orbit_counting(self, sys_obj, x, rows, tol):
        calls.append(len(rows))
        return orbit_coords(self, sys_obj, x, rows, tol)

    # the rho integrals and W1 read each point's orbit once between them
    monkeypatch.setattr(fl.systems._Circle, "orbit_coords", orbit_counting)
    points = [cpoint(Fraction(k, 5)) for k in range(5)]
    F = fl.z_intervals().subset(64)
    report = fl.unique_ergodicity_diagnostic(GOLDEN, points, fl.z_intervals(), 64)
    assert calls == [64] * 5
    monkeypatch.undo()
    measures = [fl.empirical_measure(GOLDEN, p, F) for p in points]
    assert len(report.pair_rows) == 10
    for i, j, w, _ in report.pair_rows:
        assert repr(w) == repr(fl.wasserstein_empirical(measures[i], measures[j]))
        assert repr(w) == repr(fl.wasserstein_empirical(measures[j], measures[i]))


def test_product_unique_ergodicity_reads_each_factor_orbit_once(monkeypatch):
    calls = []
    orbit_coords = fl.systems._Circle.orbit_coords

    def orbit_counting(self, sys_obj, x, rows, tol):
        calls.append(len(rows))
        return orbit_coords(self, sys_obj, x, rows, tol)

    # W1 reads the product's sides, the very arrays the rho integrals read
    monkeypatch.setattr(fl.systems._Circle, "orbit_coords", orbit_counting)
    P = fl.product_system(GOLDEN)
    points = [
        fl.pair_point(P, cpoint(0), cpoint(Fraction(1, 3))),
        fl.pair_point(P, cpoint(Fraction(1, 5)), cpoint(Fraction(1, 5))),
        fl.pair_point(P, cpoint(Fraction(2, 7)), cpoint(Fraction(5, 8))),
    ]
    report = fl.unique_ergodicity_diagnostic(P, points, fl.z_intervals(), 16)
    assert calls == [16] * 6
    assert [tuple(map(repr, row)) for row in report.pair_rows] == [
        ("0", "1", "0.3333333333333333", "0.034141916039910084"),
        ("0", "2", "0.052164208854560995", "0.014081362509543928"),
        ("1", "2", "0.3392857142857143", "0.033293570633949145"),
    ]  # frozen


def test_mean_distance_trace_rejects_a_nan_tolerance():
    shift = fl.full_shift()
    x, y = (fl.shift_point(shift, fl.RandomWord(seed)) for seed in (1, 2))
    for sys_obj, a, b in ((shift, x, y), (GOLDEN, cpoint(0), cpoint(Fraction(1, 3)))):
        with pytest.raises(ValueError, match="tol must be positive"):
            fl.mean_distance_trace(sys_obj, a, b, fl.z_intervals(), [3, 5], math.nan)


def test_w1_reads_coordinates_only(monkeypatch):
    acted, read = [], []
    circle = fl.systems._Circle
    orbit, orbit_coords = circle.orbit, circle.orbit_coords

    def counting_orbit(self, sys_obj, x, rows):
        acted.append(len(rows))
        return orbit(self, sys_obj, x, rows)

    def counting_coords(self, sys_obj, x, rows, tol):
        read.append(len(rows))
        return orbit_coords(self, sys_obj, x, rows, tol)

    monkeypatch.setattr(circle, "orbit", counting_orbit)
    monkeypatch.setattr(circle, "orbit_coords", counting_coords)
    seq, indices = fl.z_intervals(), [25, 50, 100]
    x, y = cpoint(0), cpoint(Fraction(1, 3))
    trace = fl.wasserstein_trace(GOLDEN, x, y, seq, indices)
    # each point once over the union of the nested subsets, not 175 rows a point
    assert (sum(acted), sum(read)) == (0, 200)
    P = fl.product_system(GOLDEN)
    z1 = fl.pair_point(P, x, y)
    z2 = fl.pair_point(P, cpoint(Fraction(1, 5)), cpoint(Fraction(2, 7)))
    acted.clear()
    read.clear()
    report = fl.coupling_bounds_check(P, [(z1, z2)], seq, indices)
    # z1, z2 and the diagonal point over two factors, and the base pair
    assert (sum(acted), sum(read)) == (0, 3 * 2 * 100 + 2 * 100)
    monkeypatch.undo()
    diagonal = fl.pair_point(P, y, y)
    for n, w, row in zip(indices, trace.values, report.rows):
        F = seq.subset(n)
        mu_x, mu_y, mu1, mu2, mu_diag = (
            fl.empirical_measure(s, p, F)
            for s, p in ((GOLDEN, x), (GOLDEN, y), (P, z1), (P, z2), (P, diagonal))
        )
        assert repr(w) == repr(fl.wasserstein_empirical(mu_x, mu_y))
        assert repr(row.w_product) == repr(fl.wasserstein_empirical(mu1, mu2))
        assert repr(row.w_to_diagonal) == repr(fl.wasserstein_empirical(mu1, mu_diag))
