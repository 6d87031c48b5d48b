"""Empirical measures, observable families, and the weak-* distance rho."""

import cmath
import itertools
import math
import random
from fractions import Fraction

import pytest

import folnerlab as fl
from folnerlab import SystemMismatchError
from folnerlab.measures import observable_family


def delta(sys_obj, x):
    # single-atom measure: orbit piece over the singleton {identity}
    return fl.empirical_measure(sys_obj, x, fl.z_intervals().subset(1))


def rotation_measures(n_list, alpha="golden", x0=Fraction(1, 7)):
    sys_obj = fl.rotation(alpha)
    x = fl.circle_point(sys_obj, x0)
    return sys_obj, [
        fl.empirical_measure(sys_obj, x, fl.z_intervals().subset(n)) for n in n_list
    ]


# ---------------------------------------------------------------------------
# empirical measures


def test_weights_are_exact_unit_fractions():
    _, measures = rotation_measures([1, 2, 3, 7, 100])
    for mu in measures:
        assert mu.weight == Fraction(1, mu.count)
        assert mu.weight * mu.count == 1


def test_atoms_follow_subset_order():
    sys_obj = fl.rotation("golden")
    x = fl.circle_point(sys_obj, 0)
    F = fl.FiniteSubset.from_coords("Z", [[3], [-1], [0]])
    mu = fl.empirical_measure(sys_obj, x, F)
    assert list(mu.atoms) == fl.orbit_sample(sys_obj, x, F)
    assert mu.count == 3


def test_empirical_measure_rejects_empty_input():
    sys_obj = fl.rotation("golden")
    x = fl.circle_point(sys_obj, 0)
    with pytest.raises(ValueError):
        fl.empirical_measure(sys_obj, x, fl.z_intervals().subset(0))
    with pytest.raises(ValueError):
        fl.EmpiricalMeasure(sys_obj, (), ("", ""))


def test_rational_rotation_atoms_pinned():
    sys_obj = fl.rotation("1/2")
    x = fl.circle_point(sys_obj, 0)
    mu = fl.empirical_measure(sys_obj, x, fl.z_intervals().subset(4))
    assert [a.payload for a in mu.atoms] == [
        Fraction(0), Fraction(1, 2), Fraction(0), Fraction(1, 2)
    ]


# ---------------------------------------------------------------------------
# integration


def test_integrate_constant_is_exact():
    _, measures = rotation_measures([1, 3, 7, 97])
    for mu in measures:
        assert fl.integrate(mu, lambda p: 1.0) == 1.0
        assert fl.integrate(mu, lambda p: 0.0) == 0.0


def test_integrate_is_linear():
    _, (mu,) = rotation_measures([64])
    f = lambda p: float(p.payload)
    g = lambda p: math.cos(2 * math.pi * float(p.payload))
    lhs = fl.integrate(mu, lambda p: 2.5 * f(p) - 0.75 * g(p))
    rhs = 2.5 * fl.integrate(mu, f) - 0.75 * fl.integrate(mu, g)
    assert lhs == pytest.approx(rhs, abs=1e-14)


def test_integrate_monotone():
    _, (mu,) = rotation_measures([101])
    f = lambda p: float(p.payload)
    g = lambda p: float(p.payload) + 0.25
    assert fl.integrate(mu, f) <= fl.integrate(mu, g)


def test_integrate_is_order_independent():
    # fsum is correctly rounded, so atom order cannot change the result
    sys_obj, (mu,) = rotation_measures([50])
    rng = random.Random(5)
    f = observable_family(sys_obj).observable(1)
    reference = fl.integrate(mu, f)
    atoms = list(mu.atoms)
    for _ in range(10):
        rng.shuffle(atoms)
        shuffled = fl.EmpiricalMeasure(sys_obj, tuple(atoms), mu.origin)
        assert fl.integrate(shuffled, f) == reference


def test_integrate_rejects_nonpositive_tol():
    _, (mu,) = rotation_measures([3])
    with pytest.raises(ValueError):
        fl.integrate(mu, lambda p: 1.0, 0.0)


def test_birkhoff_equals_integrate_of_empirical_measure():
    sys_obj = fl.rotation("golden")
    x = fl.circle_point(sys_obj, Fraction(2, 9))
    F = fl.z_intervals().subset(33)
    f = observable_family(sys_obj).observable(2)
    assert fl.birkhoff_average(sys_obj, f, x, F) == fl.integrate(
        fl.empirical_measure(sys_obj, x, F), f
    )


def test_rotation_character_average_matches_geometric_sum():
    # (1/n) sum cos(2 pi (x0 + k a)) is the real part of a geometric series
    for alpha in ("golden", "1/7", "3/8"):
        sys_obj = fl.rotation(alpha)
        a = float(sys_obj.param("alphas")[0])
        x0 = Fraction(1, 3)
        x = fl.circle_point(sys_obj, x0)
        f = observable_family(sys_obj).observable(1)  # cos_1
        for n in (7, 50, 333):
            q = cmath.exp(2j * math.pi * a)
            total = cmath.exp(2j * math.pi * float(x0)) * (
                n if q == 1.0 else (q**n - 1.0) / (q - 1.0)
            )
            expected = total.real / n
            got = fl.birkhoff_average(sys_obj, f, x, fl.z_intervals().subset(n))
            assert got == pytest.approx(expected, abs=1e-10)


def test_sturmian_symbol_frequency():
    # frequency of symbol 1 in a Sturmian word telescopes to floor(n a)/n
    sys_obj = fl.full_shift()
    x = fl.shift_point(sys_obj, fl.SturmianWord(fl.GOLDEN_ALPHA, 0))
    fam = observable_family(sys_obj)
    cyl_one = fam.observable(2)
    assert cyl_one.name == "cyl[0..0=1]"
    n = 1000
    avg = fl.birkhoff_average(sys_obj, cyl_one, x, fl.z_intervals().subset(n))
    exact = Fraction(math.floor(n * fl.GOLDEN_ALPHA), n)
    assert avg == pytest.approx(float(exact), abs=1e-12)
    assert abs(avg - float(fl.GOLDEN_ALPHA)) < 0.01


def test_interval_forward_averages_decrease():
    # forward squaring orbit is strictly decreasing, so longer averages drop
    sys_obj = fl.interval_square()
    x = fl.interval_point(sys_obj, 0.9)
    f = observable_family(sys_obj).observable(1)  # identity monomial
    values = [
        fl.birkhoff_average(sys_obj, f, x, fl.z_intervals().subset(n))
        for n in (10, 100, 1000)
    ]
    assert values[0] > values[1] > values[2]
    assert values[2] < 0.01


# ---------------------------------------------------------------------------
# observable families


def all_systems():
    return [
        fl.rotation("golden"),
        fl.zd_rotation(["golden", "1/7"]),
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
        return fl.shift_point(sys_obj, fl.RandomWord(rng.randint(0, 999)))
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


@pytest.mark.parametrize("sys_obj", all_systems(), ids=lambda s: s.system_id)
def test_observable_sup_norms_hold(sys_obj):
    rng = random.Random(7)
    fam = observable_family(sys_obj)
    points = [random_point(rng, sys_obj) for _ in range(40)]
    for i in range(1, 26):
        f = fam.observable(i)
        for p in points:
            assert abs(f(p)) <= f.sup_norm + 1e-12


@pytest.mark.parametrize("sys_obj", all_systems(), ids=lambda s: s.system_id)
def test_observable_names_unique(sys_obj):
    fam = observable_family(sys_obj)
    names = [fam.observable(i).name for i in range(1, 41)]
    assert len(set(names)) == 40


def test_observable_indices_are_one_based():
    fam = observable_family(fl.rotation("golden"))
    with pytest.raises(ValueError):
        fam.observable(0)


def test_cylinder_observables_are_indicators():
    sys_obj = fl.full_shift()
    fam = observable_family(sys_obj)
    w = fl.PeriodicWord((0, 1))  # ... 0 1 0 1 ... with w[0] = 0
    x = fl.shift_point(sys_obj, w)
    # radius-0 cylinders: [0]=0 matches, [0]=1 does not
    assert fam.observable(1)(x) == 1.0
    assert fam.observable(2)(x) == 0.0
    # radius-1 cylinders cover positions -1..1; w there reads 1 0 1
    hits = [i for i in range(3, 11) if fam.observable(i)(x) == 1.0]
    assert len(hits) == 1
    assert fam.observable(hits[0]).name == "cyl[-1..1=101]"


def test_union_component_indicator():
    sys_obj = fl.two_rotations()
    fam = observable_family(sys_obj)
    mu = fl.empirical_measure(
        sys_obj, fl.union_point(sys_obj, "a", 0), fl.z_intervals().subset(9)
    )
    nu = fl.empirical_measure(
        sys_obj, fl.union_point(sys_obj, "b", 0), fl.z_intervals().subset(9)
    )
    indicator = fam.observable(1)
    assert fl.integrate(mu, indicator) == 1.0
    assert fl.integrate(nu, indicator) == 0.0


def test_product_family_multiplies_factors():
    base = fl.rotation("golden")
    prod = fl.product_system(base)
    fam = observable_family(prod)
    base_fam = observable_family(base)
    p = fl.pair_point(
        prod,
        fl.circle_point(base, Fraction(1, 5)),
        fl.circle_point(base, Fraction(2, 7)),
    )
    # anti-diagonal s = 1: (one, f_1) then (f_1, one)
    assert fam.observable(1)(p) == base_fam.observable(1)(
        fl.circle_point(base, Fraction(2, 7))
    )
    assert fam.observable(2)(p) == base_fam.observable(1)(
        fl.circle_point(base, Fraction(1, 5))
    )
    # s = 2 mixes both coordinates: (f_1, f_1) sits in the middle
    mixed = fam.observable(4)
    assert mixed(p) == pytest.approx(
        base_fam.observable(1)(fl.circle_point(base, Fraction(1, 5)))
        * base_fam.observable(1)(fl.circle_point(base, Fraction(2, 7))),
        abs=1e-15,
    )


# ---------------------------------------------------------------------------
# the weak-* distance rho


def test_rho_of_equal_measures_is_zero():
    _, (mu,) = rotation_measures([17])
    res = fl.rho_distance(mu, mu)
    assert res.value == 0.0
    assert res.terms_used == 40


def test_rho_is_symmetric_bitwise():
    sys_obj, (mu, nu) = rotation_measures([8, 21])
    assert fl.rho_distance(mu, nu).value == fl.rho_distance(nu, mu).value


def test_rho_triangle_inequality():
    sys_obj = fl.rotation("golden")
    rng = random.Random(11)
    for _ in range(20):
        mus = []
        for _ in range(3):
            x = fl.circle_point(sys_obj, Fraction(rng.getrandbits(20), 1 << 20))
            mus.append(
                fl.empirical_measure(
                    sys_obj, x, fl.z_intervals().subset(rng.randint(1, 12))
                )
            )
        a, b, c = mus
        d_ac = fl.rho_distance(a, c).value
        d_ab = fl.rho_distance(a, b).value
        d_bc = fl.rho_distance(b, c).value
        assert d_ac <= d_ab + d_bc + 1e-12


def test_rho_partial_sums_nondecreasing_with_matching_tail():
    sys_obj, (mu, nu) = rotation_measures([5, 13])
    fam = observable_family(sys_obj)
    values = []
    for N in range(1, 16):
        res = fl.rho_distance(mu, nu, fam, N=N)
        assert res.tail_bound == math.ldexp(1.0, 1 - N)
        assert res.terms_used == N
        values.append(res.value)
    assert all(a <= b + 1e-18 for a, b in zip(values, values[1:]))
    # every truncation brackets the full series
    full = fl.rho_distance(mu, nu, fam, N=40)
    for N, v in enumerate(values, start=1):
        assert v <= full.value + 1e-15
        assert full.value <= v + math.ldexp(1.0, 1 - N)


def test_rho_bounded_by_one_for_unit_families():
    rng = random.Random(13)
    sys_obj = fl.full_shift()
    for _ in range(5):
        mu = fl.empirical_measure(
            sys_obj,
            fl.shift_point(sys_obj, fl.RandomWord(rng.randint(0, 99))),
            fl.z_intervals().subset(rng.randint(1, 30)),
        )
        nu = fl.empirical_measure(
            sys_obj,
            fl.shift_point(sys_obj, fl.RandomWord(rng.randint(100, 199))),
            fl.z_intervals().subset(rng.randint(1, 30)),
        )
        assert 0.0 <= fl.rho_distance(mu, nu).value < 1.0


def test_rho_delta_measures_pinned():
    # deltas at 0 and 1/2: only odd cosine characters differ, each by 2, so
    # the full series is 8/15 and the N = 40 truncation drops 16^-10 of it
    sys_obj = fl.rotation("golden")
    mu = delta(sys_obj, fl.circle_point(sys_obj, 0))
    nu = delta(sys_obj, fl.circle_point(sys_obj, Fraction(1, 2)))
    res = fl.rho_distance(mu, nu)
    closed_form = Fraction(8, 15) * (1 - Fraction(1, 16) ** 10)
    assert res.value == pytest.approx(float(closed_form), abs=1e-13)
    assert res.value == 0.5333333333328483  # frozen
    assert res.value + res.tail_bound >= 8 / 15


def test_rho_rejects_mismatched_systems():
    golden = fl.rotation("golden")
    third = fl.rotation("1/3")
    mu = delta(golden, fl.circle_point(golden, 0))
    nu = delta(third, fl.circle_point(third, 0))
    with pytest.raises(SystemMismatchError):
        fl.rho_distance(mu, nu)


@pytest.mark.parametrize(
    "use",
    [
        lambda mu, nu: fl.integrate(mu, lambda p: 1.0),
        lambda mu, nu: fl.rho_distance(mu, nu),
        lambda mu, nu: fl.wasserstein_empirical(mu, nu),
        lambda mu, nu: fl.measure_csv_table(mu),
    ],
    ids=["integrate", "rho_distance", "wasserstein_empirical", "measure_csv_table"],
)
def test_point_list_measure_rejects_another_systems_atoms(use):
    rot, square = fl.rotation("golden"), fl.interval_square()
    x = fl.circle_point(rot, Fraction(1, 3))
    F = fl.z_intervals().subset(4)
    foreign = fl.orbit_sample(square, fl.interval_point(square, 0.3), F)
    nu = fl.empirical_measure(rot, x, F)
    with pytest.raises(SystemMismatchError):
        use(fl.EmpiricalMeasure(rot, tuple(foreign), nu.origin), nu)


def test_rho_rejects_bad_term_count():
    _, (mu,) = rotation_measures([2])
    with pytest.raises(ValueError):
        fl.rho_distance(mu, mu, N=0)


# ---------------------------------------------------------------------------
# CSV export


def folner_subset_for(sys_obj, n):
    if sys_obj.group_id == "Z":
        return fl.z_intervals().subset(n)
    if sys_obj.group_id == "Z^2":
        return fl.zd_boxes(2).subset(n)
    if sys_obj.group_id == "heisenberg":
        return fl.heisenberg_boxes().subset(n)
    raise AssertionError(sys_obj.group_id)


def test_measure_csv_table_shapes_and_weights():
    for sys_obj in all_systems():
        rng = random.Random(17)
        F = folner_subset_for(sys_obj, 2)
        mu = fl.empirical_measure(sys_obj, random_point(rng, sys_obj), F)
        header, rows = fl.measure_csv_table(mu)
        assert header[-1] == "weight"
        assert len(rows) == F.size
        for row in rows:
            assert len(row) == len(header)
            assert row[-1] == f"1/{F.size}"
            assert all(isinstance(cell, str) for cell in row)


@pytest.mark.parametrize(
    "sys_obj",
    all_systems() + [
        fl.heisenberg_rotation(),
        fl.product_system(fl.full_shift()),
        fl.product_system(fl.two_rotations()),
    ],
    ids=lambda s: s.system_id,
)
def test_integrate_through_views_matches_per_atom_fn_bitwise(sys_obj):
    rng = random.Random(5)
    fam = observable_family(sys_obj)
    F = {
        "Z": fl.z_intervals("right").subset(24),
        "Z^2": fl.zd_boxes(2).subset(2),
        "heisenberg": fl.heisenberg_boxes().subset(1),
    }[sys_obj.group_id]
    mu = fl.empirical_measure(sys_obj, random_point(rng, sys_obj), F)
    for i in range(1, 41):
        f = fam.observable(i)
        assert fl.integrate(mu, f) == fl.integrate(mu, lambda p: f.fn(p))
        assert fl.integrate(mu, f) == math.fsum(f(a) for a in mu.atoms) / mu.count


def test_filled_view_cache_is_not_part_of_the_measure():
    sys_obj = fl.full_shift()
    x = fl.shift_point(sys_obj, fl.RandomWord(3))
    F = fl.z_intervals().subset(16)
    used = fl.empirical_measure(sys_obj, x, F)
    fresh = fl.empirical_measure(sys_obj, x, F)
    fl.rho_distance(used, delta(sys_obj, x))
    assert used == fresh
    assert hash(used) == hash(fresh)
    assert repr(used) == repr(fresh)
    assert len({used, fresh}) == 1


# ---------------------------------------------------------------------------
# integrals against the family formulas, written out per atom


def _shells(d):
    """Z^d minus 0 by sup-norm shell, lexicographic within a shell."""
    r = 1
    while True:
        for k in sorted(
            k for k in itertools.product(range(-r, r + 1), repeat=d)
            if max(map(abs, k)) == r
        ):
            yield k
        r += 1


def _cylinders():
    r = 0
    while True:
        for pattern in itertools.product((0, 1), repeat=2 * r + 1):
            yield r, pattern
        r += 1


def _anti_diagonals():
    s = 1
    while True:
        for i in range(s + 1):
            yield i, s - i
        s += 1


def family_value(sys_obj, i, p):
    """The i-th family observable at p, from the documented formulas."""
    kind, v = sys_obj.space_kind, p.payload
    if kind == "circle":
        j, wave = (i + 1) // 2, (math.cos if i % 2 else math.sin)
        return wave(2 * math.pi * j * float(v))
    if kind == "torus":
        k = next(itertools.islice(_shells(len(v)), (i - 1) // 2, None))
        wave = math.cos if i % 2 else math.sin
        return wave(2 * math.pi * sum(kc * float(c) for kc, c in zip(k, v)))
    if kind == "shift":
        r, pattern = next(itertools.islice(_cylinders(), i - 1, None))
        window = tuple(v.symbol(k) for k in range(-r, r + 1))
        return 1.0 if window == pattern else 0.0
    if kind == "interval":
        return v**i
    if kind == "union":
        tag, x = v
        if i == 1:
            return 1.0 if tag == "a" else 0.0
        j, slot = divmod(i - 2, 4)
        if tag != "ab"[slot // 2]:
            return 0.0
        return (math.cos, math.sin)[slot % 2](2 * math.pi * (j + 1) * float(x))
    if kind == "product":
        a, b = next(itertools.islice(_anti_diagonals(), i - 1, None))
        left, right = sys_obj.factors
        fa = family_value(left, a, v[0]) if a else 1.0
        fb = family_value(right, b, v[1]) if b else 1.0
        return fa * fb
    raise AssertionError(kind)


@pytest.mark.parametrize(
    "sys_obj",
    [
        fl.rotation("golden"),
        fl.zd_rotation(["golden", "1/7"]),
        fl.heisenberg_rotation(),
        fl.full_shift(),
        fl.interval_square(),
        fl.two_rotations(),
        fl.product_system(fl.rotation("golden")),
        fl.product_system(fl.full_shift()),
        fl.product_system(fl.two_rotations()),
    ],
    ids=lambda s: s.system_id,
)
def test_integrate_matches_written_out_family_formulas_bitwise(sys_obj):
    rng = random.Random(41)
    fam = observable_family(sys_obj)
    F = {
        "Z": fl.z_intervals("right").subset(30),
        "Z^2": fl.zd_boxes(2).subset(2),
        "heisenberg": fl.heisenberg_boxes().subset(1),
    }[sys_obj.group_id]
    for _ in range(2):
        mu = fl.empirical_measure(sys_obj, random_point(rng, sys_obj), F)
        for i in range(1, 41):
            f = fam.observable(i)
            values = [family_value(sys_obj, i, a) for a in mu.atoms]
            assert fl.integrate(mu, f) == math.fsum(values) / mu.count, f.name


# ---------------------------------------------------------------------------
# orbit-piece measures against their point-list copies


# coordinates past int64 reach the action as Python ints
HUGE_Z = fl.explicit_sequence([fl.FiniteSubset.from_coords(
    "Z", [[2**70], [-3], [-(2**70)], [5], [0]], sort=False)])


def orbit_piece_cases():
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
        (fl.heisenberg_rotation(), fl.heisenberg_boxes(), 1),
        (fl.product_system(fl.heisenberg_rotation()), fl.heisenberg_boxes(), 1),
    ):
        cases.append(pytest.param(s, seq, n, id=f"{s.system_id}-{seq.kind}-{n}"))
    return cases


def test_orbit_piece_cases_cover_every_space_kind():
    kinds = {p.values[0].space_kind for p in orbit_piece_cases()}
    assert kinds == set(fl.systems._SPACES)
    products = {p.values[0].system_id for p in orbit_piece_cases()
                if p.values[0].space_kind == "product"}
    assert len(products) == 4


def _point_list(sys_obj, x, F, origin):
    """The point-list measure of x over F, its atoms acted by orbit_sample."""
    return fl.EmpiricalMeasure(sys_obj, tuple(fl.orbit_sample(sys_obj, x, F)), origin)


def _readings(mu, nu, terms):
    """Every value read from a pair of measures that needs no atom of an orbit piece."""
    return [
        mu.count, mu.origin, mu.weight,
        [repr(fl.integrate(mu, f)) for f in terms],
        repr(fl.integrate(mu, lambda p: len(repr(p.payload)) / 7.0)),
        repr(fl.rho_distance(mu, nu, N=len(terms))),
    ]


@pytest.mark.parametrize("sys_obj, seq, n", orbit_piece_cases())
def test_orbit_piece_measures_equal_their_point_lists_bitwise(sys_obj, seq, n):
    F = seq.subset(n)
    rng = random.Random(29)
    family = observable_family(sys_obj)
    terms = [family.observable(i) for i in range(1, 13)]
    for _ in range(2):
        x, y = random_point(rng, sys_obj), random_point(rng, sys_obj)
        mu, nu = (fl.empirical_measure(sys_obj, p, F) for p in (x, y))
        # read from the orbit pieces before any of their atoms is built
        from_orbit = _readings(mu, nu, terms)
        w = [repr(fl.wasserstein_empirical(mu, nu, tol)) for tol in (1e-3, 1e-9)]
        listed_mu, listed_nu = _point_list(sys_obj, x, F, mu.origin), _point_list(
            sys_obj, y, F, nu.origin
        )
        assert _readings(listed_mu, listed_nu, terms) == from_orbit
        assert [repr(fl.wasserstein_empirical(listed_mu, listed_nu, tol))
                for tol in (1e-3, 1e-9)] == w
        assert repr(fl.wasserstein_empirical(listed_nu, mu)) == w[1]
        assert mu.atoms == listed_mu.atoms
        assert mu == listed_mu and listed_mu == mu and not mu != listed_mu
        assert hash(mu) == hash(listed_mu)
        assert repr(mu) == repr(listed_mu)
        reversed_mu = fl.EmpiricalMeasure(sys_obj, listed_mu.atoms[::-1], mu.origin)
        assert (mu == reversed_mu) == (mu.atoms == reversed_mu.atoms)
        fresh = fl.empirical_measure(sys_obj, y, F)
        assert repr(fresh) == repr(listed_nu)
        assert len({fresh, listed_nu, nu}) == 1


def test_orbit_piece_measures_are_frozen():
    sys_obj, (mu,) = rotation_measures([5])
    for name in ("atoms", "system", "origin", "count"):
        with pytest.raises(AttributeError):
            setattr(mu, name, None)
    with pytest.raises(AttributeError):
        del mu.origin
    listed = fl.EmpiricalMeasure(sys_obj, mu.atoms, mu.origin)
    with pytest.raises(AttributeError):
        listed.atoms = ()
    assert listed == mu


def _count_orbit_calls(monkeypatch):
    calls = []
    for space in fl.systems._SPACES.values():
        def counting(self, s, x, rows, orbit=type(space).orbit):
            calls.append(s.space_kind)
            return orbit(self, s, x, rows)

        monkeypatch.setattr(type(space), "orbit", counting)
    return calls


GOLDEN_ROT = fl.rotation("golden")


def _trace_cases():
    heis = fl.heisenberg_rotation("2/9", "golden")
    un = fl.two_rotations()
    sh = fl.full_shift()
    iv = fl.interval_square()
    cases = [
        (GOLDEN_ROT, fl.circle_point(GOLDEN_ROT, Fraction(1, 7)), fl.z_intervals(), [5, 20]),
        (heis, fl.torus_point(heis, [Fraction(1, 3), 0]), fl.heisenberg_boxes(), [1, 2]),
        (un, fl.union_point(un, "b", Fraction(1, 4)), fl.z_intervals("right"), [4, 16]),
        (sh, fl.shift_point(sh, fl.RandomWord(4)), fl.z_intervals(), [3, 12]),
        (iv, fl.interval_point(iv, 0.5), fl.z_intervals("right"), [3, 12]),
        (fl.product_system(GOLDEN_ROT),
         fl.pair_point(fl.product_system(GOLDEN_ROT), fl.circle_point(GOLDEN_ROT, 0),
                       fl.circle_point(GOLDEN_ROT, Fraction(1, 3))),
         fl.z_intervals(), [2, 8]),
    ]
    return [pytest.param(*case, id=case[0].space_kind) for case in cases]


@pytest.mark.parametrize("sys_obj, x, seq, indices", _trace_cases())
def test_generic_trace_and_birkhoff_act_out_no_orbit(sys_obj, x, seq, indices,
                                                      monkeypatch):
    calls = _count_orbit_calls(monkeypatch)
    trace = fl.generic_measure_trace(sys_obj, x, seq, indices, N=12)
    assert len(trace.consecutive_rho) == len(indices) - 1
    assert trace.cauchy_defect >= 0.0
    assert [mu.count for mu in trace.measures] == [seq.subset(n).size for n in indices]
    f = fl.observable_family(sys_obj).observable(2)
    fl.birkhoff_average(sys_obj, f, x, seq.subset(indices[-1]))
    assert calls == []
    # reading a traced measure's atoms acts its orbit piece, once
    atoms = trace.measures[-1].atoms
    assert calls.count(sys_obj.space_kind) == 1
    assert list(atoms) == fl.orbit_sample(sys_obj, x, seq.subset(indices[-1]))
    assert trace.measures[-1].atoms is atoms


def test_integrate_rejects_a_nan_tolerance():
    sys_obj = fl.rotation("golden")
    x = fl.circle_point(sys_obj, 0)
    mu = fl.empirical_measure(sys_obj, x, fl.z_intervals().subset(4))
    f = observable_family(sys_obj).observable(1)
    with pytest.raises(ValueError, match="tol must be positive"):
        fl.integrate(mu, f, math.nan)


def test_integrate_rejects_an_infinite_tolerance():
    sys_obj = fl.rotation("golden")
    x = fl.circle_point(sys_obj, 0)
    mu = fl.empirical_measure(sys_obj, x, fl.z_intervals().subset(4))
    f = observable_family(sys_obj).observable(1)
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        fl.integrate(mu, f, math.inf)
    with pytest.raises(ValueError, match="^tol must be positive and finite$"):
        fl.birkhoff_average(sys_obj, f, x, fl.z_intervals().subset(4), math.inf)
