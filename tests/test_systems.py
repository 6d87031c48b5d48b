"""Catalog systems: action laws, metric axioms, vectorized-path agreement."""

import math
import os
import random
import subprocess
import sys as sysmod
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import folnerlab as fl
from folnerlab import ConfigError, GroupMismatchError, SystemMismatchError
from folnerlab.systems import atom_header, atom_row


def all_systems():
    return [
        fl.rotation("golden"),
        fl.zd_rotation(["golden", "1/7"]),
        fl.heisenberg_rotation(),
        fl.full_shift(),
        fl.two_rotations(),
        fl.interval_square(),
        fl.product_system(fl.rotation("golden")),
    ]


def random_point(rng, sys_obj):
    kind = sys_obj.space_kind
    if kind == "circle":
        return fl.circle_point(sys_obj, Fraction(rng.getrandbits(24), 1 << 24))
    if kind == "torus":
        d = len(sys_obj.param("alphas"))
        return fl.torus_point(
            sys_obj, [Fraction(rng.getrandbits(24), 1 << 24) for _ in range(d)]
        )
    if kind == "shift":
        pool = [
            fl.PeriodicWord((0, 1)),
            fl.SturmianWord(fl.GOLDEN_ALPHA, Fraction(rng.getrandbits(8), 256)),
            fl.RandomWord(rng.randint(0, 99)),
            fl.shift_word(fl.RandomWord(rng.randint(0, 99)), rng.randint(-5, 5)),
        ]
        return fl.shift_point(sys_obj, rng.choice(pool))
    if kind == "interval":
        return fl.interval_point(sys_obj, rng.random())
    if kind == "union":
        return fl.union_point(
            sys_obj, rng.choice("ab"), Fraction(rng.getrandbits(24), 1 << 24)
        )
    if kind == "product":
        return fl.pair_point(
            sys_obj,
            random_point(rng, sys_obj.factors[0]),
            random_point(rng, sys_obj.factors[1]),
        )
    raise AssertionError(kind)


def random_group_element(rng, gid, bound=20):
    return fl.element(gid, *[rng.randint(-bound, bound) for _ in range(fl.group_rank(gid))])


# ---------------------------------------------------------------------------
# action laws


@pytest.mark.parametrize("sys_obj", all_systems(), ids=lambda s: s.system_id)
def test_identity_acts_trivially(sys_obj):
    rng = random.Random(1)
    e = fl.identity(sys_obj.group_id)
    for _ in range(200):
        x = random_point(rng, sys_obj)
        assert fl.act(sys_obj, e, x) == x


@pytest.mark.parametrize(
    "sys_obj",
    [s for s in all_systems() if s.space_kind != "interval"],
    ids=lambda s: s.system_id,
)
def test_action_law_exact_for_algebraic_systems(sys_obj):
    rng = random.Random(2)
    gid = sys_obj.group_id
    for _ in range(1000):
        g = random_group_element(rng, gid)
        h = random_group_element(rng, gid)
        x = random_point(rng, sys_obj)
        assert fl.act(sys_obj, fl.multiply(g, h), x) == fl.act(
            sys_obj, g, fl.act(sys_obj, h, x)
        )


def test_action_law_interval_same_sign_exact():
    # composing powers of the same sign replays the identical float chain
    sys_obj = fl.interval_square()
    rng = random.Random(2)
    for _ in range(500):
        sign = rng.choice((-1, 1))
        g = fl.element("Z", sign * rng.randint(0, 25))
        h = fl.element("Z", sign * rng.randint(0, 25))
        x = random_point(rng, sys_obj)
        assert fl.act(sys_obj, fl.multiply(g, h), x) == fl.act(
            sys_obj, g, fl.act(sys_obj, h, x)
        )


def naive_square_chain(value, n):
    # reference for the repeated-application semantics; flags trajectories
    # that reach a fixed point or lose precision in the subnormal range
    degraded = value == 0.0 or value == 1.0
    for _ in range(abs(n)):
        value = value * value if n > 0 else math.sqrt(value)
        if value == 0.0 or value == 1.0:
            return value, True
        if value < sysmod.float_info.min:
            degraded = True
    return value, degraded


def test_action_law_interval_mixed_sign_drift():
    # opposite-sign powers only cancel approximately: sqrt and squaring are
    # correctly rounded but not mutually inverse, and once a trajectory is
    # absorbed at 0.0 or 1.0 the inverse branch cannot recover it
    sys_obj = fl.interval_square()
    rng = random.Random(3)
    checked = 0
    for _ in range(2000):
        a, b = rng.randint(1, 20), -rng.randint(1, 20)
        if rng.random() < 0.5:
            a, b = b, a
        x = rng.random()
        via_h, bad_inner = naive_square_chain(x, b)
        via_gh, bad_outer = naive_square_chain(via_h, a)
        direct, bad_direct = naive_square_chain(x, a + b)
        staged = fl.act(
            sys_obj,
            fl.element("Z", a),
            fl.act(sys_obj, fl.element("Z", b), fl.interval_point(sys_obj, x)),
        )
        assert staged.payload == via_gh
        if bad_inner or bad_outer or bad_direct:
            continue
        checked += 1
        assert abs(via_gh - direct) <= 1e-6
    assert checked > 400


def test_rotation_act_pinned():
    sys_obj = fl.rotation("1/4")
    x = fl.circle_point(sys_obj, 0)
    g = fl.element("Z", 3)
    assert fl.act(sys_obj, g, x).payload == Fraction(3, 4)


def test_shift_act_moves_the_window():
    sys_obj = fl.full_shift()
    w = fl.RandomWord(3)
    x = fl.shift_point(sys_obj, w)
    moved = fl.act(sys_obj, fl.element("Z", 4), x)
    for k in range(-6, 7):
        assert moved.payload.symbol(k) == w.symbol(k + 4)


def test_union_act_preserves_component():
    sys_obj = fl.two_rotations()
    x = fl.union_point(sys_obj, "b", Fraction(1, 5))
    y = fl.act(sys_obj, fl.element("Z", 7), x)
    assert y.payload[0] == "b"


def test_heisenberg_abelianized_action():
    sys_obj = fl.heisenberg_rotation("1/5", "1/7")
    x = fl.torus_point(sys_obj, [0, 0])
    g = fl.element("heisenberg", 2, 3, 999)  # central part acts trivially
    y = fl.act(sys_obj, g, x)
    assert y.payload == (Fraction(2, 5), Fraction(3, 7))


def test_interval_action_hits_fixed_points():
    sys_obj = fl.interval_square()
    x = fl.interval_point(sys_obj, 0.5)
    forward = fl.act(sys_obj, fl.element("Z", 60), x)
    backward = fl.act(sys_obj, fl.element("Z", -200), x)
    assert forward.payload == 0.0
    # sqrt(1 - 2^-53) rounds back to 1 - 2^-53, so the backward orbit parks
    # on the largest double below 1 instead of reaching 1.0 itself
    assert backward.payload == 1.0 - 2.0**-53
    assert fl.act(sys_obj, fl.element("Z", -1), backward) == backward


def test_interval_orbit_at_exponent_minus_2_pow_70_returns():
    # sqrt parks on 1 - 2^-53 within 64 steps, so the orbit must stop there
    # instead of running 2^70 of them; a subprocess keeps a regression from
    # hanging the suite
    code = (
        "import folnerlab as fl\n"
        "sys_obj = fl.interval_square()\n"
        "x = fl.interval_point(sys_obj, 0.3)\n"
        "F = fl.FiniteSubset.from_coords('Z', [[-(2**70)], [-(2**70) + 1], [3]])\n"
        "print(repr([p.payload for p in fl.orbit_sample(sys_obj, x, F)]))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(fl.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sysmod.executable, "-c", code], capture_output=True, text=True,
        timeout=30, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    sys_obj = fl.interval_square()
    x = fl.interval_point(sys_obj, 0.3)
    parked = fl.act(sys_obj, fl.element("Z", -200), x).payload
    assert parked == 1.0 - 2.0**-53
    forward = fl.act(sys_obj, fl.element("Z", 3), x).payload
    assert proc.stdout.strip() == repr([parked, parked, forward])


def test_interval_orbit_on_unsorted_gapped_elements_equals_act():
    # the orbit steps between neighbouring exponents; every point must still
    # be bit-identical to acting by its own element, fixed points included
    sys_obj = fl.interval_square()
    rng = random.Random(17)
    for _ in range(40):
        coords = rng.sample(range(-250, 251), rng.randint(1, 30))
        if rng.random() < 0.5:
            coords.append(0)
        F = fl.FiniteSubset.from_coords("Z", [[k] for k in set(coords)], sort=False)
        F = fl.FiniteSubset("Z", tuple(rng.sample(F.elements, F.size)))
        x = random_point(rng, sys_obj)
        orbit = fl.orbit_sample(sys_obj, x, F)
        assert [p.payload for p in orbit] == [fl.act(sys_obj, g, x).payload for g in F]
        assert [p.payload for p in orbit] == [
            naive_square_chain(x.payload, g.coords[0])[0] for g in F
        ]


def test_act_rejects_mismatched_ids():
    rot = fl.rotation("golden")
    other = fl.rotation("1/3")
    x = fl.circle_point(other, 0)
    with pytest.raises(SystemMismatchError):
        fl.act(rot, fl.element("Z", 1), x)
    with pytest.raises(GroupMismatchError):
        fl.act(rot, fl.element("Z^2", 1, 0), fl.circle_point(rot, 0))


# ---------------------------------------------------------------------------
# metric axioms


@pytest.mark.parametrize("sys_obj", all_systems(), ids=lambda s: s.system_id)
def test_metric_axioms_on_random_triples(sys_obj):
    rng = random.Random(4)
    tol = 1e-9
    for _ in range(350):
        x, y, z = (random_point(rng, sys_obj) for _ in range(3))
        dxy = fl.metric(sys_obj, x, y, tol)
        assert dxy >= 0
        assert dxy <= sys_obj.diameter_bound + tol
        assert dxy == fl.metric(sys_obj, y, x, tol)
        assert fl.metric(sys_obj, x, x, tol) <= tol
        dxz = fl.metric(sys_obj, x, z, tol)
        dyz = fl.metric(sys_obj, y, z, tol)
        assert dxz <= dxy + dyz + 3 * tol


def test_metric_rejects_nonpositive_tolerance():
    sys_obj = fl.rotation("golden")
    x = fl.circle_point(sys_obj, 0)
    with pytest.raises(ValueError):
        fl.metric(sys_obj, x, x, 0.0)


def test_circle_metric_pinned():
    sys_obj = fl.rotation("golden")
    x = fl.circle_point(sys_obj, Fraction(1, 10))
    y = fl.circle_point(sys_obj, Fraction(9, 10))
    assert fl.metric(sys_obj, x, y) == pytest.approx(0.2, abs=1e-15)


def test_shift_metric_fixed_points_distance_one():
    sys_obj = fl.full_shift()
    zeros = fl.shift_point(sys_obj, fl.PeriodicWord((0,)))
    ones = fl.shift_point(sys_obj, fl.PeriodicWord((1,)))
    assert fl.metric(sys_obj, zeros, ones, 1e-12) == pytest.approx(1.0, abs=1e-12)


def test_shift_metric_single_difference_at_origin():
    sys_obj = fl.full_shift()
    zeros = fl.shift_point(sys_obj, fl.PeriodicWord((0,)))
    flipped = fl.shift_point(sys_obj, fl.FlippedWord(fl.PeriodicWord((0,)), {0}))
    # origin is the first position in the enumeration: weight 2^{-1}
    assert fl.metric(sys_obj, zeros, flipped, 1e-12) == 0.5


def test_shift_metric_truncation_error_bound():
    sys_obj = fl.full_shift()
    rng = random.Random(8)
    for _ in range(40):
        u = fl.shift_point(sys_obj, fl.RandomWord(rng.randint(0, 999)))
        v = fl.shift_point(sys_obj, fl.RandomWord(rng.randint(0, 999)))
        for K in (10, 20, 30):
            coarse = fl.metric(sys_obj, u, v, math.ldexp(1, -K))
            fine = fl.metric(sys_obj, u, v, math.ldexp(1, -K - 8))
            assert abs(coarse - fine) <= math.ldexp(1, -K)


def test_union_metric_pinned():
    sys_obj = fl.two_rotations()
    a1 = fl.union_point(sys_obj, "a", 0)
    a2 = fl.union_point(sys_obj, "a", Fraction(1, 4))
    b1 = fl.union_point(sys_obj, "b", 0)
    assert fl.metric(sys_obj, a1, a2) == pytest.approx(0.125, abs=1e-15)
    assert fl.metric(sys_obj, a1, b1) == 1.0
    # intra-component distances never exceed 1/4
    assert fl.metric(
        sys_obj, a1, fl.union_point(sys_obj, "a", Fraction(1, 2))
    ) == pytest.approx(0.25, abs=1e-15)


def test_product_metric_is_sum_of_factors():
    base = fl.rotation("golden")
    prod = fl.product_system(base)
    rng = random.Random(9)
    for _ in range(100):
        x1, y1, x2, y2 = (random_point(rng, base) for _ in range(4))
        z1 = fl.pair_point(prod, x1, y1)
        z2 = fl.pair_point(prod, x2, y2)
        expected = fl.metric(base, x1, x2, 5e-10) + fl.metric(base, y1, y2, 5e-10)
        assert fl.metric(prod, z1, z2) == expected
    z = fl.pair_point(prod, x1, y1)
    assert fl.metric(prod, z, z) == 0.0


def test_rotation_action_is_isometry_to_roundoff():
    # payloads rotate exactly, but the metric rounds each coordinate to a
    # double before taking the arc, so invariance holds to a few ulps
    for sys_obj in (fl.rotation("golden"), fl.zd_rotation(["1/3", "golden"])):
        rng = random.Random(10)
        for _ in range(300):
            x = random_point(rng, sys_obj)
            y = random_point(rng, sys_obj)
            g = random_group_element(rng, sys_obj.group_id)
            gx, gy = fl.act(sys_obj, g, x), fl.act(sys_obj, g, y)
            assert abs(fl.metric(sys_obj, gx, gy) - fl.metric(sys_obj, x, y)) <= 1e-15


# ---------------------------------------------------------------------------
# orbit samples and vectorized distances


def test_orbit_sample_rational_rotation_pinned():
    sys_obj = fl.rotation("1/4")
    F = fl.z_intervals().subset(4)
    orbit = fl.orbit_sample(sys_obj, fl.circle_point(sys_obj, 0), F)
    assert [p.payload for p in orbit] == [
        Fraction(0), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)
    ]


def test_orbit_sample_singleton():
    sys_obj = fl.full_shift()
    F = fl.FiniteSubset.from_coords("Z", [[0]])
    x = fl.shift_point(sys_obj, fl.RandomWord(1))
    assert fl.orbit_sample(sys_obj, x, F) == [x]


def _circle_reference(x, alphas, g):
    return (x + sum((gi * a for gi, a in zip(g.coords, alphas)), Fraction(0))) % 1


@pytest.mark.parametrize(
    "sys_obj, seq, n",
    [
        (fl.rotation("golden"), fl.z_intervals(), 40),
        (fl.rotation("3/10"), fl.z_intervals("right"), 40),
        (fl.zd_rotation(["golden", "1/7"]), fl.zd_boxes(2), 3),
        (fl.zd_rotation(["2/9", "golden", "5/12"]), fl.zd_boxes(3), 2),
        (fl.heisenberg_rotation(), fl.heisenberg_boxes(), 2),
        (fl.heisenberg_rotation("1/6", "3/8"), fl.heisenberg_boxes(), 1),
        (fl.product_system(fl.rotation("golden")), fl.z_intervals("right"), 30),
        (fl.product_system(fl.zd_rotation(["1/3", "golden"])), fl.zd_boxes(2), 2),
        # coordinates past int64 reach the action as Python ints
        (fl.rotation("golden"), fl.explicit_sequence([fl.FiniteSubset.from_coords(
            "Z", [[2**70], [-3], [1 - 2**71], [5]], sort=False)]), 1),
    ],
    ids=lambda v: getattr(v, "system_id", None) or getattr(v, "kind", None) or str(v),
)
def test_batch_orbit_equals_elementwise_act_exactly(sys_obj, seq, n):
    rng = random.Random(11)
    F = seq.subset(n)
    for _ in range(3):
        x = random_point(rng, sys_obj)
        orbit = fl.orbit_sample(sys_obj, x, F)
        assert orbit == [fl.act(sys_obj, g, x) for g in F]
        factors = sys_obj.factors or (sys_obj,)
        for i, factor in enumerate(factors):
            alphas = factor.param("alphas")
            base = x.payload[i] if sys_obj.factors else x
            for g, p in zip(F, orbit):
                got = p.payload[i] if sys_obj.factors else p
                if factor.space_kind == "circle":
                    expected = (_circle_reference(base.payload, alphas, g),)
                    got = (got.payload,)
                else:
                    expected = tuple(
                        (c + gi * a) % 1
                        for c, gi, a in zip(base.payload, g.coords, alphas)
                    )
                    got = got.payload
                assert all(type(c) is Fraction for c in got)
                assert [(c.numerator, c.denominator) for c in got] == [
                    (c.numerator, c.denominator) for c in expected
                ]


def test_batch_orbit_keeps_group_checks():
    rot = fl.rotation("golden")
    x = fl.circle_point(rot, Fraction(1, 3))
    with pytest.raises(GroupMismatchError, match="Folner subset over 'Z\\^2' cannot act"):
        fl.orbit_sample(rot, x, fl.zd_boxes(2).subset(1))
    heis = fl.heisenberg_rotation()
    with pytest.raises(GroupMismatchError, match="is acted on by 'heisenberg', not 'Z'"):
        fl.act(heis, fl.element("Z", 1), fl.torus_point(heis, [0, 0]))
    prod = fl.product_system(rot)
    with pytest.raises(GroupMismatchError):
        fl.orbit_sample(prod, fl.pair_point(prod, x, x), fl.zd_boxes(2).subset(1))
    assert fl.orbit_sample(rot, x, fl.FiniteSubset("Z", ())) == []


def test_empty_subset_of_another_group_is_rejected():
    rot = fl.rotation("golden")
    x = fl.circle_point(rot, Fraction(1, 3))
    with pytest.raises(GroupMismatchError, match="subset over 'Z\\^2' cannot act"):
        fl.orbit_sample(rot, x, fl.FiniteSubset("Z^2", ()))


def test_sturmian_orbit_matches_rotation_coding():
    # shifting the word corresponds to rotating the coding base point
    sys_obj = fl.full_shift()
    alpha, x0 = Fraction(5, 13), Fraction(1, 9)
    x = fl.shift_point(sys_obj, fl.SturmianWord(alpha, x0))
    F = fl.z_intervals().subset(6)
    orbit = fl.orbit_sample(sys_obj, x, F)
    for k, p in enumerate(orbit):
        expected = math.floor(x0 + (k + 1) * alpha) - math.floor(x0 + k * alpha)
        assert p.payload.symbol(0) == expected


def vectorized_cases():
    # tol 1e-3 changes the shift truncation depth; nested products reach the
    # recursive kernel through every factor kind
    products = [
        fl.product_system(fl.full_shift()),
        fl.product_system(fl.two_rotations()),
        fl.product_system(fl.heisenberg_rotation()),
        fl.product_system(fl.interval_square()),
        fl.product_system(fl.product_system(fl.full_shift())),
    ]
    cases = [pytest.param(s, 1e-9, id=s.system_id) for s in all_systems()]
    for s in all_systems() + products:
        for tol in ((1e-9, 1e-3) if s in products else (1e-3,)):
            cases.append(pytest.param(s, tol, id=f"{s.system_id}-tol={tol:g}"))
    return cases


@pytest.mark.parametrize("sys_obj,tol", vectorized_cases())
def test_vectorized_distances_match_scalar_bitwise(sys_obj, tol):
    rng = random.Random(12)
    xs = [random_point(rng, sys_obj) for _ in range(12)]
    ys = [random_point(rng, sys_obj) for _ in range(12)]
    M = fl.pairwise_distances(sys_obj, xs, ys, tol)
    assert M.shape == (12, 12)
    for i in range(0, 12, 3):
        for j in range(0, 12, 3):
            assert M[i, j] == fl.metric(sys_obj, xs[i], ys[j], tol)
    paired = fl.paired_distances(sys_obj, xs, ys, tol)
    for i in range(12):
        assert paired[i] == fl.metric(sys_obj, xs[i], ys[i], tol)


# ---------------------------------------------------------------------------
# catalog, construction, serialization


def test_catalog_lists_all_systems():
    entries = fl.catalog()
    assert set(entries) == {
        "rotation",
        "zd_rotation",
        "heisenberg_rotation",
        "full_shift",
        "two_rotations",
        "interval_square",
    }
    for entry in entries.values():
        assert entry.summary
        assert entry.expected is not None


def test_expected_properties_flags():
    entries = fl.catalog()
    assert entries["rotation"].expected.uniquely_ergodic
    assert entries["rotation"].expected.mean_equicontinuous
    assert not entries["full_shift"].expected.uniquely_ergodic
    assert not entries["two_rotations"].expected.uniquely_ergodic
    assert entries["two_rotations"].expected.mean_equicontinuous
    assert not entries["interval_square"].expected.full_measure_center


def test_build_system_validates():
    sys_obj = fl.build_system("rotation", {"alpha": "1/3"})
    assert sys_obj.param("alphas") == (Fraction(1, 3),)
    with pytest.raises(ConfigError):
        fl.build_system("rotation", {"alpha": "1/3", "beta": "1/2"})
    with pytest.raises(ConfigError):
        fl.build_system("no_such_system", {})


def test_rotation_rejects_integer_angle():
    with pytest.raises(ConfigError):
        fl.rotation("3")


def test_surrogate_flagging():
    assert "irrational_surrogate" in fl.rotation("golden").flags
    assert "irrational_surrogate" not in fl.rotation("1/3").flags
    assert fl.GOLDEN_ALPHA.denominator > 10**9
    assert abs(float(fl.GOLDEN_ALPHA) - (math.sqrt(5) - 1) / 2) < 1e-18


def test_zd_rotation_needs_at_least_two_angles():
    with pytest.raises(ConfigError):
        fl.zd_rotation(["1/3"])


def test_point_parsing_round_trips():
    rng = random.Random(20)
    for sys_obj in all_systems():
        for _ in range(10):
            x = random_point(rng, sys_obj)
            back = fl.parse_point(sys_obj, fl.point_to_dict(sys_obj, x))
            assert back == x


def test_parse_point_accepts_plain_rational_strings():
    sys_obj = fl.rotation("golden")
    assert fl.parse_point(sys_obj, "1/3").payload == Fraction(1, 3)
    assert fl.parse_point(sys_obj, 0).payload == Fraction(0)


def test_atom_rows_are_csv_ready():
    for sys_obj in all_systems():
        rng = random.Random(21)
        x = random_point(rng, sys_obj)
        header = atom_header(sys_obj)
        row = atom_row(sys_obj, x)
        assert len(header) == len(row)
        assert all(isinstance(cell, str) for cell in row)


def test_point_reduction_mod_one():
    sys_obj = fl.rotation("golden")
    assert fl.circle_point(sys_obj, Fraction(7, 3)).payload == Fraction(1, 3)
    assert fl.circle_point(sys_obj, Fraction(-1, 4)).payload == Fraction(3, 4)


def test_interval_point_requires_unit_interval():
    sys_obj = fl.interval_square()
    with pytest.raises(ValueError):
        fl.interval_point(sys_obj, 1.5)


def test_diameter_bounds():
    assert fl.rotation("golden").diameter_bound == 0.5
    assert fl.full_shift().diameter_bound == 1.0
    assert fl.two_rotations().diameter_bound == 1.0
    assert fl.interval_square().diameter_bound == 1.0
    assert fl.product_system(fl.rotation("golden")).diameter_bound == 1.0


def test_product_of_product_composes():
    prod2 = fl.product_system(fl.product_system(fl.rotation("golden")))
    rng = random.Random(30)
    x = random_point(rng, prod2)
    assert fl.metric(prod2, x, x) == 0.0


def test_package_exports_each_module_name_as_the_same_object():
    modules = [fl.errors, fl.groups, fl.words, fl.systems, fl.measures,
               fl.transport, fl.analysis]
    for module in modules:
        for name in module.__all__:
            assert getattr(fl, name) is getattr(module, name), (module.__name__, name)
    assert sorted(fl.__all__) == sorted({n for m in modules for n in m.__all__})


# ---------------------------------------------------------------------------
# orbit_coords, the batch action, against its reference coords(orbit)


def _same_coords(a, b):
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(_same_coords, a, b))
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# coordinates past int64 reach the action as Python ints
HUGE_Z = fl.explicit_sequence([fl.FiniteSubset.from_coords(
    "Z", [[2**70], [-3], [-(2**70)], [5], [0]], sort=False)])


def orbit_coords_cases():
    cases = []
    z_systems = [
        fl.rotation("golden"),
        fl.full_shift(),
        fl.two_rotations(),
        fl.interval_square(),
        fl.product_system(fl.rotation("golden")),
        fl.product_system(fl.full_shift()),
    ]
    for s in z_systems:
        for seq, n in ((fl.z_intervals(), 9), (fl.z_intervals("right"), 9), (HUGE_Z, 1)):
            cases.append(pytest.param(s, seq, n, id=f"{s.system_id}-{seq.kind}-{n}"))
    for s, seq, n in (
        (fl.zd_rotation(["golden", "1/7"]), fl.zd_boxes(2), 2),
        (fl.product_system(fl.zd_rotation(["golden", "1/7"])), fl.zd_boxes(2), 1),
        (fl.heisenberg_rotation(), fl.heisenberg_boxes(), 2),
        (fl.product_system(fl.heisenberg_rotation()), fl.heisenberg_boxes(), 1),
    ):
        cases.append(pytest.param(s, seq, n, id=f"{s.system_id}-{seq.kind}-{n}"))
    return cases


def test_orbit_coords_cases_cover_every_space_kind():
    kinds = {p.values[0].space_kind for p in orbit_coords_cases()}
    assert kinds == set(fl.systems._SPACES)


@pytest.mark.parametrize("sys_obj, seq, n", orbit_coords_cases())
def test_orbit_coords_equal_coords_of_the_orbit_bitwise(sys_obj, seq, n):
    space = fl.systems.space_of(sys_obj)
    rows = seq.subset(n).coords_array().tolist()
    rng = random.Random(21)
    for _ in range(3):
        x = random_point(rng, sys_obj)
        for tol in (1e-3, 1e-6, 1e-9, 1e-12):
            reference = space.coords(sys_obj, space.orbit(sys_obj, x, rows), tol)
            assert _same_coords(space.orbit_coords(sys_obj, x, rows, tol), reference)


# ---------------------------------------------------------------------------
# the rotation numerators that circle and union orbits share


def _numerator_rows(rank, rng):
    """A box of Z^rank, random rows, and rows holding +-2^70."""
    big = 2**70
    if rank == 1:
        rows = [[k] for k in range(-60, 61)] + [[big], [-big], [big + 1], [1 - 2 * big]]
    else:
        rows = [[a, b] for a in range(-6, 7) for b in range(-6, 7)]
        rows += [[big, -3], [-big, big], [5, -big - 1], [big, big]]
    return rows + [[rng.randint(-10**6, 10**6) for _ in range(rank)] for _ in range(40)]


def _written_out(x, steps, rows):
    """D and (a + sum g_i s_i) % D, with a and s_i the numerators over D."""
    D = math.lcm(x.denominator, *(t.denominator for t in steps))
    a = x.numerator * (D // x.denominator)
    s = [t.numerator * (D // t.denominator) for t in steps]
    return D, [(a + sum(gi * si for gi, si in zip(g, s))) % D for g in rows]


@pytest.mark.parametrize(
    "sys_obj",
    [
        fl.rotation("golden"),
        fl.rotation("3/10"),
        fl.zd_rotation(["golden", "1/7"]),
        fl.two_rotations("golden", "2/11"),
    ],
    ids=lambda s: s.system_id,
)
def test_rotation_numerators_equal_the_written_out_sum(sys_obj):
    rng = random.Random(37)
    space = fl.systems.space_of(sys_obj)
    rows = _numerator_rows(fl.group_rank(sys_obj.group_id), rng)
    union = sys_obj.space_kind == "union"
    for _ in range(4):
        # 48-bit dyadic points put D far past 2^53
        value = Fraction(rng.getrandbits(48), 1 << 48)
        if union:
            tag = rng.choice("ab")
            x = fl.union_point(sys_obj, tag, value)
            steps = (sys_obj.param(f"alpha_{tag}"),)
        else:
            x = fl.circle_point(sys_obj, value)
            steps = sys_obj.param("alphas")
        D, expected = _written_out(value, steps, rows)
        assert fl.systems._rotation_numerators(value, steps, rows) == (D, expected)
        points = [(value + sum(gi * t for gi, t in zip(g, steps))) % 1 for g in rows]
        assert points == [Fraction(m, D) for m in expected]
        orbit = [p.payload for p in space.orbit(sys_obj, x, rows)]
        floats = space.orbit_coords(sys_obj, x, rows, 1e-9)
        if union:
            assert orbit == [(tag, p) for p in points]
            tags, floats = floats
            assert tags.tolist() == [0 if tag == "a" else 1] * len(rows)
        else:
            assert orbit == points
        assert floats.tolist() == [float(p) for p in points]


STRIP_WORDS = [
    fl.RandomWord(7),
    fl.SturmianWord(fl.GOLDEN_ALPHA, Fraction(1, 9)),
    fl.PeriodicWord((0, 1, 1)),
    fl.FlippedWord(fl.RandomWord(7), {0, 2, -3}),
    fl.SplicedWord(fl.PeriodicWord((1,)), fl.RandomWord(2), 4),
]


def _fresh(word):
    # the same rule with an empty memo, so the reference reads every symbol itself
    return fl.word_from_dict(fl.word_to_dict(word))


@pytest.mark.parametrize("word", STRIP_WORDS, ids=lambda w: w.key()[0])
def test_shift_orbit_strips_equal_per_symbol_reads(word, monkeypatch):
    from folnerlab.systems import (
        _shift_offsets, _strip_symbols, _truncation_depth, _z_enumeration,
    )

    sh = fl.full_shift()
    space = fl.systems.space_of(sh)
    strips = []

    def counting(base, offsets, positions):
        strips.append(len(offsets))
        return _strip_symbols(base, offsets, positions)

    monkeypatch.setattr(fl.systems, "_strip_symbols", counting)
    for start in (0, -4, 7):
        x = fl.shift_point(sh, fl.shift_word(_fresh(word), start))
        for seq, n in ((fl.z_intervals(), 12), (fl.z_intervals("right"), 12), (HUGE_Z, 1)):
            rows = seq.subset(n).coords_array().tolist()
            points = space.orbit(sh, x, rows)
            words = [p.payload for p in points]
            spans = [range(-r, r + 1) for r in range(4)]
            spans += [
                _z_enumeration(_truncation_depth(t)) for t in (1e-3, 1e-6, 1e-9, 1e-12)
            ]
            for positions in spans:
                expected = np.array(
                    [[_fresh(w).symbol(k) for k in positions] for w in words],
                    dtype=np.int8,
                ).reshape(-1, len(positions))
                got = _strip_symbols(*_shift_offsets(x, rows), positions)
                assert _same_coords(got, expected)
            for r in range(4):
                strips.clear()
                window = math.ldexp(1.0, -2 * r - 1)  # depth 2r+1: positions -r..r
                got = space.orbit_coords(sh, x, rows, window)
                assert strips, "an orbit's window goes through the strip reader"
                assert _same_coords(got, space.coords(sh, points, window))
            for tol in (1e-3, 1e-12):
                expected = space.coords(sh, points, tol)
                assert _same_coords(space.orbit_coords(sh, x, rows, tol), expected)


def test_shift_point_lists_read_each_symbol(monkeypatch):
    from folnerlab.systems import _truncation_depth, _z_enumeration

    strips = []
    monkeypatch.setattr(fl.systems, "_strip_symbols", lambda *a: strips.append(a))
    sh = fl.full_shift()
    base = fl.RandomWord(3)
    point_lists = [
        [  # no shared base
            fl.RandomWord(3),
            fl.shift_word(fl.RandomWord(3), 2),  # an equal base, but another object
            fl.shift_word(fl.PeriodicWord((0, 1)), -5),
            fl.FlippedWord(fl.RandomWord(3), {1}),
        ],
        [fl.shift_word(base, k) for k in (0, 1, 2, 5)],  # one base: still per point
    ]
    for words in point_lists:
        points = [fl.shift_point(sh, w) for w in words]
        for tol in (math.ldexp(1.0, -5), 1e-4):  # the radius-2 window, then depth 14
            positions = _z_enumeration(_truncation_depth(tol))
            expected = [[_fresh(w).symbol(k) for k in positions] for w in words]
            got = fl.systems.space_of(sh).coords(sh, points, tol)
            assert got.dtype == np.int8 and got.tolist() == expected
    assert strips == []


def test_metric_rejects_a_nan_tolerance():
    # a NaN tol would pass a "tol <= 0" check and pick symbol depth 1
    shift = fl.full_shift()
    x, y = (fl.shift_point(shift, fl.RandomWord(seed)) for seed in (1, 2))
    circle = fl.rotation("golden")
    a, b = fl.circle_point(circle, 0), fl.circle_point(circle, "1/3")
    with pytest.raises(ValueError, match="tol must be positive"):
        fl.metric(shift, x, y, math.nan)
    with pytest.raises(ValueError, match="tol must be positive"):
        fl.metric(circle, a, b, math.nan)


def test_metric_and_readers_reject_an_infinite_tolerance():
    # inf passes a "tol > 0" check and would read a shift's symbols too shallowly
    shift = fl.full_shift()
    x, y = (fl.shift_point(shift, fl.RandomWord(seed)) for seed in (1, 2))
    circle = fl.rotation("golden")
    a, b = fl.circle_point(circle, 0), fl.circle_point(circle, "1/3")
    rows = fl.systems._rows(fl.z_intervals().subset(8))
    for sys_obj, p, q in ((shift, x, y), (circle, a, b)):
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            fl.metric(sys_obj, p, q, math.inf)
        with pytest.raises(ValueError, match="^tol must be positive and finite$"):
            fl.systems._orbit_reader(sys_obj, p, rows)(math.inf)


@pytest.mark.parametrize("value", ["1/0", " 3/0 ", math.inf, -math.inf, math.nan])
def test_parse_rational_names_values_that_are_not_finite_rationals(value):
    with pytest.raises(ValueError) as raised:
        fl.parse_rational(value)
    assert str(raised.value) == f"{value!r} is not a finite rational number"
