"""Group arithmetic, defects, temperedness, and extraction."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import folnerlab as fl
from folnerlab import GroupMismatchError, SearchBudgetExceededError

GROUPS = ["Z", "Z^2", "Z^3", "heisenberg"]


def random_element(rng, gid, bound=50):
    rank = fl.group_rank(gid)
    return fl.element(gid, *[rng.randint(-bound, bound) for _ in range(rank)])


# ---------------------------------------------------------------------------
# naive oracles (pure dict/set reimplementations, no shared code paths)


def naive_mul(gid, a, b):
    if gid == "heisenberg":
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])
    return tuple(x + y for x, y in zip(a, b))


def naive_inv(gid, a):
    if gid == "heisenberg":
        return (-a[0], -a[1], -a[2] + a[0] * a[1])
    return tuple(-x for x in a)


def naive_product_set(gid, A, B):
    return {naive_mul(gid, a, b) for a in A for b in B}


# ---------------------------------------------------------------------------
# group axioms


@pytest.mark.parametrize("gid", GROUPS)
def test_group_axioms_on_random_triples(gid):
    rng = random.Random(2024)
    e = fl.identity(gid)
    for _ in range(10_000):
        a, b, c = (random_element(rng, gid) for _ in range(3))
        assert fl.multiply(fl.multiply(a, b), c) == fl.multiply(a, fl.multiply(b, c))
        assert fl.multiply(e, a) == a == fl.multiply(a, e)
        assert fl.multiply(a, fl.inverse(a)) == e
        assert fl.multiply(fl.inverse(a), a) == e


@pytest.mark.parametrize("gid", GROUPS)
def test_multiply_matches_naive_law(gid):
    rng = random.Random(7)
    for _ in range(500):
        a, b = random_element(rng, gid), random_element(rng, gid)
        assert fl.multiply(a, b).coords == naive_mul(gid, a.coords, b.coords)
        assert fl.inverse(a).coords == naive_inv(gid, a.coords)


def test_heisenberg_law_pinned_values():
    a = fl.element("heisenberg", 1, 0, 0)
    b = fl.element("heisenberg", 0, 1, 0)
    assert fl.multiply(a, b).coords == (1, 1, 1)
    assert fl.multiply(b, a).coords == (1, 1, 0)  # witnesses noncommutativity
    g = fl.element("heisenberg", 3, -2, 5)
    assert fl.inverse(g).coords == (-3, 2, -5 + 3 * (-2))


def test_z_multiply_and_inverse_pinned():
    assert fl.multiply(fl.element("Z", 3), fl.element("Z", 5)).coords == (8,)
    assert fl.inverse(fl.element("Z", 4)).coords == (-4,)
    assert fl.inverse(fl.element("Z^2", 2, -1)).coords == (-2, 1)


def test_group_mismatch_rejected():
    with pytest.raises(GroupMismatchError):
        fl.multiply(fl.element("Z", 1), fl.element("Z^2", 1, 1))


@given(st.tuples(st.integers(), st.integers(), st.integers()),
       st.tuples(st.integers(), st.integers(), st.integers()))
def test_heisenberg_inverse_is_two_sided(a, b):
    x = fl.element("heisenberg", *a)
    y = fl.element("heisenberg", *b)
    e = fl.identity("heisenberg")
    assert fl.multiply(x, fl.inverse(x)) == e
    assert fl.inverse(fl.inverse(y)) == y


# ---------------------------------------------------------------------------
# finite subsets and set operations


def test_subset_rejects_duplicates():
    with pytest.raises(ValueError):
        fl.FiniteSubset.from_coords("Z", [[1], [1]], sort=False)


def test_from_coords_sorts_lexicographically():
    S = fl.FiniteSubset.from_coords("Z^2", [[1, 0], [0, 5], [0, 1]])
    assert [g.coords for g in S] == [(0, 1), (0, 5), (1, 0)]


def test_translate_preserves_order_and_size():
    F = fl.FiniteSubset.from_coords("Z", [[0], [1], [2]], sort=False)
    g = fl.element("Z", 1)
    assert [x.coords for x in fl.translate_left(g, F)] == [(1,), (2,), (3,)]
    assert [x.coords for x in fl.translate_left(fl.identity("Z"), F)] == [
        (0,), (1,), (2,)
    ]


def test_translate_heisenberg_pinned():
    F = fl.FiniteSubset.from_coords(
        "heisenberg", [[0, 0, 0], [0, 1, 0]], sort=False
    )
    g = fl.element("heisenberg", 1, 0, 0)
    assert [x.coords for x in fl.translate_left(g, F)] == [(1, 0, 0), (1, 1, 1)]


@pytest.mark.parametrize("gid", GROUPS)
def test_set_ops_match_hash_set_oracle(gid):
    rng = random.Random(11)
    for _ in range(60):
        A_coords = {random_element(rng, gid, 8).coords for _ in range(rng.randint(1, 12))}
        B_coords = {random_element(rng, gid, 8).coords for _ in range(rng.randint(1, 12))}
        A = fl.FiniteSubset.from_coords(gid, A_coords)
        B = fl.FiniteSubset.from_coords(gid, B_coords)
        g = random_element(rng, gid, 8)

        assert fl.translate_left(g, A).coord_set() == {
            naive_mul(gid, g.coords, a) for a in A_coords
        }
        assert fl.translate_right(A, g).coord_set() == {
            naive_mul(gid, a, g.coords) for a in A_coords
        }
        assert fl.invert_subset(A).coord_set() == {
            naive_inv(gid, a) for a in A_coords
        }
        assert fl.product_subset(A, B).coord_set() == naive_product_set(
            gid, A_coords, B_coords
        )
        assert fl.symmetric_difference_size(A, B) == len(A_coords ^ B_coords)


def test_inverse_of_product_is_reversed_product_of_inverses():
    rng = random.Random(3)
    for _ in range(200):
        a = random_element(rng, "heisenberg")
        b = random_element(rng, "heisenberg")
        lhs = fl.inverse(fl.multiply(a, b))
        rhs = fl.multiply(fl.inverse(b), fl.inverse(a))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# Folner defects


def test_z_interval_defect_exact_2_over_n():
    seq = fl.z_intervals()
    for n in range(1, 1025):
        F = seq.subset(n)
        for k in (1, -1):
            g = fl.element("Z", k)
            assert fl.folner_defect_left(F, g) == Fraction(2, n)
            assert fl.folner_defect_right(F, g) == Fraction(2, n)


def test_z2_box_defect_exact():
    seq = fl.zd_boxes(2)
    g = fl.element("Z^2", 1, 0)
    for n in range(1, 65):
        assert fl.folner_defect_left(seq.subset(n), g) == Fraction(2, 2 * n + 1)


def test_abelian_left_defect_equals_right_defect():
    rng = random.Random(5)
    for gid, seq in [("Z", fl.z_intervals()), ("Z^2", fl.zd_boxes(2)), ("Z^3", fl.zd_boxes(3))]:
        for _ in range(25):
            F = seq.subset(rng.randint(1, 6))
            g = random_element(rng, gid, 4)
            assert fl.folner_defect_left(F, g) == fl.folner_defect_right(F, g)


def test_heisenberg_defects_frozen_and_decreasing():
    seq = fl.heisenberg_boxes()
    ga = fl.element("heisenberg", 1, 0, 0)
    gb = fl.element("heisenberg", 0, 1, 0)
    # Exact counts recorded from the set computation at n = 2, 4, 8;
    # re-asserted here so any box-shape regression is loud.
    left_a = [Fraction(46, 75), Fraction(914, 2673), Fraction(2230, 12427)]
    left_b = [Fraction(2, 5), Fraction(2, 9), Fraction(2, 17)]
    for i, n in enumerate((2, 4, 8)):
        F = seq.subset(n)
        assert fl.folner_defect_left(F, ga) == left_a[i]
        assert fl.folner_defect_left(F, gb) == left_b[i]
    assert left_a[0] > left_a[1] > left_a[2]
    assert left_b[0] > left_b[1] > left_b[2]


def test_heisenberg_right_defects_mirror_left():
    # Right translation swaps the roles of the two generators in this box.
    seq = fl.heisenberg_boxes()
    ga = fl.element("heisenberg", 1, 0, 0)
    gb = fl.element("heisenberg", 0, 1, 0)
    for n in (2, 4):
        F = seq.subset(n)
        assert fl.folner_defect_right(F, ga) == Fraction(2, 2 * n + 1)
        assert fl.folner_defect_right(F, gb) == fl.folner_defect_left(F, ga)


def test_defect_against_naive_translation_count():
    rng = random.Random(13)
    seq = fl.heisenberg_boxes()
    for n in (1, 2, 3):
        F = seq.subset(n)
        coords = F.coord_set()
        for _ in range(5):
            g = random_element(rng, "heisenberg", 2)
            shifted = {naive_mul("heisenberg", g.coords, a) for a in coords}
            expected = Fraction(len(shifted ^ coords), len(coords))
            assert fl.folner_defect_left(F, g) == expected


# ---------------------------------------------------------------------------
# Folner sequences


def test_builtin_cardinalities_nondecreasing():
    for seq in (fl.z_intervals(), fl.zd_boxes(2), fl.heisenberg_boxes()):
        sizes = [seq.subset(n).size for n in range(1, 9)]
        assert sizes == sorted(sizes)
        assert all(s > 0 for s in sizes)


def test_z_interval_anchors():
    assert fl.z_intervals().subset(3).coord_set() == {(0,), (1,), (2,)}
    assert fl.z_intervals(anchor="right").subset(3).coord_set() == {
        (0,), (-1,), (-2,)
    }


def test_heisenberg_box_shape():
    F = fl.heisenberg_boxes().subset(2)
    assert F.size == 5 * 5 * 9
    assert all(
        abs(a) <= 2 and abs(b) <= 2 and abs(c) <= 4 for a, b, c in F.coord_set()
    )


def test_sequence_json_round_trip():
    for seq in (
        fl.z_intervals(anchor="right"),
        fl.zd_boxes(3),
        fl.heisenberg_boxes(),
        fl.explicit_sequence(
            [fl.FiniteSubset.from_coords("Z", [[0], [2]])], ("left",)
        ),
    ):
        back = fl.sequence_from_dict(fl.sequence_to_dict(seq))
        assert back == seq


def test_explicit_sequence_rejects_empty():
    with pytest.raises(ValueError):
        fl.explicit_sequence([])


# ---------------------------------------------------------------------------
# temperedness


def naive_temperedness_constant(seq, upto):
    ratios = []
    for n in range(2, upto + 1):
        union = set()
        F_n = [g.coords for g in seq.subset(n)]
        for k in range(1, n):
            for g in seq.subset(k):
                gi = naive_inv(seq.group_id, g.coords)
                union.update(naive_mul(seq.group_id, gi, h) for h in F_n)
        ratios.append(Fraction(len(union), len(F_n)))
    return max(ratios)


def test_z_interval_temperedness_exact_formula():
    report = fl.temperedness_report(fl.z_intervals(), 64)
    assert report.indices == tuple(range(2, 65))
    for n, r in zip(report.indices, report.ratios):
        assert r == Fraction(2 * n - 2, n)
    assert report.constant == Fraction(126, 64)
    assert report.satisfies(Fraction(2))
    assert not report.satisfies(Fraction(3, 2))


def test_temperedness_matches_naive_enumeration():
    for seq, upto in [
        (fl.z_intervals(), 20),
        (fl.z_intervals(anchor="right"), 12),
        (fl.zd_boxes(2), 8),
        (fl.heisenberg_boxes(), 4),
    ]:
        fast = fl.temperedness_report(seq, upto).constant
        assert fast == naive_temperedness_constant(seq, upto)


def test_temperedness_non_nested_explicit_sequence():
    # Non-nested subsets force the full union; compare against brute force.
    subsets = [
        fl.FiniteSubset.from_coords("Z", [[5], [9]]),
        fl.FiniteSubset.from_coords("Z", [[0], [1], [2]]),
        fl.FiniteSubset.from_coords("Z", [[-4], [0], [4], [8]]),
    ]
    seq = fl.explicit_sequence(subsets)
    report = fl.temperedness_report(seq, 3)
    assert report.constant == naive_temperedness_constant(seq, 3)


def test_temperedness_ratio_one_when_first_set_is_identity():
    subsets = [
        fl.FiniteSubset.from_coords("Z", [[0]]),
        fl.FiniteSubset.from_coords("Z", [[3], [7]]),
    ]
    report = fl.temperedness_report(fl.explicit_sequence(subsets), 2)
    assert report.ratios[0] == 1


def test_temperedness_ratios_positive():
    for seq in (fl.z_intervals(), fl.zd_boxes(2)):
        report = fl.temperedness_report(seq, 10)
        assert all(r > 0 for r in report.ratios)


def test_z2_temperedness_recorded_max():
    report = fl.temperedness_report(fl.zd_boxes(2), 32)
    assert report.constant == Fraction(16129, 4225)  # ((4n-1)/(2n+1))^2 at n=32
    assert report.constant <= 9


def test_big_coordinate_union_count_is_exact():
    # Heisenberg c-products exceed 64-bit here; the count must stay exact.
    big = 2**33
    S1 = fl.FiniteSubset.from_coords("heisenberg", [[0, 0, 0], [big, 1, 0]])
    S2 = fl.FiniteSubset.from_coords("heisenberg", [[0, 0, 0], [1, big, 0]])
    seq = fl.explicit_sequence([S1, S2])
    report = fl.temperedness_report(seq, 2)
    assert report.constant == naive_temperedness_constant(seq, 2)


# ---------------------------------------------------------------------------
# tempered subsequence extraction


def test_extraction_z_intervals_identity():
    seq = fl.z_intervals()
    assert fl.extract_tempered_subsequence(seq, Fraction(2), 5) == (1, 2, 3, 4, 5)


def test_extraction_count_one_is_trivial():
    seq = fl.explicit_sequence([fl.FiniteSubset.from_coords("Z", [[17]])])
    assert fl.extract_tempered_subsequence(seq, Fraction(3, 2), 1) == (1,)


def test_extraction_shifted_blocks_frozen_and_reverified():
    # F_n = {n^2 .. n^2+n-1}: consecutive indices are not admissible at C=2,
    # the greedy has to jump.
    subsets = [
        fl.FiniteSubset.from_coords("Z", [[k] for k in range(n * n, n * n + n)])
        for n in range(1, 201)
    ]
    seq = fl.explicit_sequence(subsets)
    picked = fl.extract_tempered_subsequence(seq, Fraction(2), 4)
    assert picked == (1, 2, 4, 18)
    # direct enumeration of the defining inequality for each prefix
    for j in range(1, len(picked)):
        union = set()
        target = [g.coords for g in seq.subset(picked[j])]
        for k in picked[:j]:
            for g in seq.subset(k):
                union.update(
                    naive_mul("Z", naive_inv("Z", g.coords), h) for h in target
                )
        assert len(union) <= 2 * len(target)


def test_extraction_output_reverifies_through_report():
    for base, C, count in [
        (fl.z_intervals(), Fraction(2), 6),
        (fl.zd_boxes(2), Fraction(5), 4),
    ]:
        picked = fl.extract_tempered_subsequence(base, C, count)
        sub = fl.explicit_sequence([base.subset(n) for n in picked])
        assert fl.temperedness_report(sub, count).satisfies(C)


def test_extraction_budget_exhaustion_is_loud():
    subsets = [
        fl.FiniteSubset.from_coords("Z", [[0], [3**n]]) for n in range(1, 31)
    ]
    seq = fl.explicit_sequence(subsets)
    with pytest.raises(SearchBudgetExceededError):
        fl.extract_tempered_subsequence(seq, Fraction(3, 2), 3)


def test_extraction_requires_constant_above_one():
    with pytest.raises(ValueError):
        fl.extract_tempered_subsequence(fl.z_intervals(), Fraction(1), 2)


# ---------------------------------------------------------------------------
# packed-key counting against plain sets of coordinate tuples


def naive_ratios(subsets, gid):
    ratios = []
    for n in range(2, len(subsets) + 1):
        union = naive_product_set(
            gid,
            {naive_inv(gid, a) for S in subsets[: n - 1] for a in S},
            subsets[n - 1],
        )
        ratios.append(Fraction(len(union), len(subsets[n - 1])))
    return ratios


def naive_defects(gid, F, g):
    left = {naive_mul(gid, g, f) for f in F}
    right = {naive_mul(gid, f, g) for f in F}
    return Fraction(len(left ^ F), len(F)), Fraction(len(right ^ F), len(F))


def assert_counts_match_naive(gid, subsets, elements):
    seq = fl.explicit_sequence(
        [fl.FiniteSubset.from_coords(gid, S, sort=False) for S in subsets]
    )
    report = fl.temperedness_report(seq, len(subsets))
    assert list(report.ratios) == naive_ratios(subsets, gid)
    for F in seq.subsets:
        for g in elements:
            left, right = naive_defects(gid, F.coord_set(), g)
            assert fl.folner_defect_left(F, fl.element(gid, *g)) == left
            assert fl.folner_defect_right(F, fl.element(gid, *g)) == right


@pytest.mark.parametrize("gid", ["Z^2", "Z^3", "heisenberg"])
def test_random_non_box_subsets_match_tuple_sets(gid):
    rng = random.Random(29)
    rank = fl.group_rank(gid)
    for _ in range(12):
        subsets = [
            sorted({tuple(rng.randint(-6, 6) for _ in range(rank))
                    for _ in range(rng.randint(1, 40))})
            for _ in range(rng.randint(2, 5))
        ]
        elements = [tuple(rng.randint(-7, 7) for _ in range(rank)) for _ in range(3)]
        assert_counts_match_naive(gid, subsets, elements)


def test_random_nested_subsets_match_tuple_sets():
    # nested sequences take the single-inverse branch of the report
    rng = random.Random(31)
    for gid in ("Z^2", "heisenberg"):
        rank = fl.group_rank(gid)
        for _ in range(8):
            grown, subsets = set(), []
            for _ in range(4):
                grown |= {tuple(rng.randint(-5, 5) for _ in range(rank))
                          for _ in range(rng.randint(1, 25))}
                subsets.append(sorted(grown))
            assert_counts_match_naive(gid, subsets, [(1,) * rank])


def test_heisenberg_defects_with_2_pow_33_coordinates():
    # a0*b1 reaches 2^66 here: the int64 guards must hand these to exact tuples
    big = 2**33
    rng = random.Random(37)
    for _ in range(20):
        F = sorted({(rng.choice((0, big, -big)) + rng.randint(-2, 2),
                     rng.choice((0, big, -big)) + rng.randint(-2, 2),
                     rng.randint(-3, 3)) for _ in range(rng.randint(1, 12))})
        g = (rng.choice((1, big, -big)), rng.choice((1, big, -big)), rng.randint(-3, 3))
        assert_counts_match_naive("heisenberg", [F, F[: len(F) // 2 + 1]], [g])


def test_z_coordinates_beyond_int64_are_exact():
    big = 2**70
    subsets = [[(big,)], [(0,), (big,), (-big,)], [(k * big,) for k in range(-3, 5)]]
    assert_counts_match_naive("Z", subsets, [(1,), (big,), (-(2**63),)])
    seq = fl.explicit_sequence(
        [fl.FiniteSubset.from_coords("Z", [[k] for k in range(big, big + n)])
         for n in range(1, 8)]
    )
    assert fl.extract_tempered_subsequence(seq, Fraction(2), 5) == (1, 2, 3, 4, 5)


def test_int64_edge_coordinates_are_exact():
    # inverses and product keys of these overflow int64 unless guarded
    lo, hi = -(2**63), 2**63 - 1
    assert_counts_match_naive("Z", [[(lo,), (hi,)], [(lo,), (0,), (hi,)]], [(1,), (hi,)])
    assert_counts_match_naive(
        "heisenberg",
        [[(0, 0, lo), (1, 1, hi)], [(0, 0, lo), (2**31, 2**32, 0), (1, 1, hi)]],
        [(2**32, 2**31, 1)],
    )
    # a small box of c-values that all lie past int64: a0*b1 = 2^64 + k*2^32
    assert_counts_match_naive(
        "heisenberg",
        [[(-(2**32), 0, 0)], [(0, 2**32, 0), (0, 2**32 + 1, 5), (0, 2**32, 2)]],
        [(0, 0, 1)],
    )


@pytest.mark.parametrize("extra", [-1, 0, 1, 2])
def test_packed_range_around_the_bitmap_cap(extra):
    # the product box of {0} with {0, cap + extra - 1} has cap + extra cells:
    # up to the cap it is counted on the bitmap, past it as a set of keys
    cap = fl.groups._BITMAP_CELLS
    far = cap + extra - 1
    subsets = [[(0,)], [(0,), (far,), (far - 5,)], [(3,), (far,)]]
    assert_counts_match_naive("Z", subsets, [(5,), (far,)])


# ---------------------------------------------------------------------------
# subsets held as coordinate rows


def tuple_built_subset(gid, coords):
    """The subset as it was built from element objects, one tuple at a time."""
    return fl.FiniteSubset(gid, tuple(fl.GroupElement(gid, tuple(t)) for t in coords))


def test_builtin_subsets_equal_the_tuple_construction():
    cases = [
        (fl.z_intervals(), lambda n: [(k,) for k in range(n)]),
        (fl.z_intervals(anchor="right"), lambda n: [(k,) for k in range(-n + 1, 1)]),
    ]
    for d in (1, 2, 3):
        cases.append(
            (
                fl.zd_boxes(d),
                lambda n, d=d: itertools.product(range(-n, n + 1), repeat=d),
            )
        )
    cases.append(
        (
            fl.heisenberg_boxes(),
            lambda n: [
                (a, b, c)
                for a in range(-n, n + 1)
                for b in range(-n, n + 1)
                for c in range(-n * n, n * n + 1)
            ],
        )
    )
    for seq, enumerate_box in cases:
        for n in (1, 2, 3):
            F = seq.subset(n)
            expected = tuple_built_subset(F.group_id, enumerate_box(n))
            assert F.group_id == seq.group_id
            assert F.elements == expected.elements
            assert [g.coords for g in F] == [g.coords for g in expected]
            assert F == expected and hash(F) == hash(expected)
            assert F.coords_array().dtype == np.int64


def test_subset_equality_and_hash_follow_the_order():
    A = fl.FiniteSubset.from_coords("Z^2", [[1, 0], [0, 5], [0, 1]])
    B = fl.FiniteSubset.from_coords("Z^2", [[1, 0], [0, 5], [0, 1]], sort=False)
    C = tuple_built_subset("Z^2", [(0, 1), (0, 5), (1, 0)])
    assert A != B and A.coord_set() == B.coord_set()
    assert A == C and hash(A) == hash(C)
    assert B == fl.FiniteSubset.from_coords("Z^2", [[1, 0], [0, 5], [0, 1]], sort=False)
    assert len({A, B, C}) == 2
    assert A != fl.FiniteSubset.from_coords("Z^2", [[0, 1], [0, 5]])
    assert fl.FiniteSubset("Z", ()) != fl.FiniteSubset("Z^2", ())
    big = 2**64
    D = fl.FiniteSubset.from_coords("Z", [[big], [-big]])
    E = fl.FiniteSubset.from_coords("Z", [[-big], [big]], sort=False)
    assert D == E and hash(D) == hash(E)
    assert D != fl.FiniteSubset.from_coords("Z", [[big], [-big]], sort=False)


@pytest.mark.parametrize(
    "rows", [[[3, 1], [0, 0], [3, 1]], [[2**70, 1], [0, 0], [2**70, 1]]]
)
def test_duplicate_rows_are_rejected(rows):
    for sort in (True, False):
        with pytest.raises(ValueError, match="duplicate element"):
            fl.FiniteSubset.from_coords("Z^2", rows, sort=sort)
    with pytest.raises(ValueError, match="duplicate element"):
        tuple_built_subset("Z^2", rows)


def test_rows_of_the_wrong_length_or_group_are_rejected():
    with pytest.raises(ValueError, match="needs 2 coordinates, got 3"):
        fl.FiniteSubset.from_coords("Z^2", [[0, 0], [1, 2, 3]])
    with pytest.raises(ValueError, match="needs 1 coordinates, got 2"):
        fl.FiniteSubset.from_coords("Z", [[0, 0], [1, 2]])
    with pytest.raises(GroupMismatchError):
        fl.FiniteSubset("Z^2", (fl.element("Z^2", 0, 0), fl.element("Z", 1)))


def test_coordinates_past_int64_stay_exact():
    big = 2**63 + 5
    F = fl.FiniteSubset.from_coords("Z", [[big + 1], [big], [-big]])
    X = F.coords_array()
    assert X.dtype == object and X.tolist() == [[-big], [big], [big + 1]]
    assert F.coord_set() == {(-big,), (big,), (big + 1,)}
    assert [g.coords for g in F] == [(-big,), (big,), (big + 1,)]
    assert fl.folner_defect_left(F, fl.element("Z", 1)) == Fraction(4, 3)
    assert fl.folner_defect_right(F, fl.element("Z", -big)) == Fraction(6, 3)
    G = fl.FiniteSubset.from_coords("Z", [[big + k] for k in range(-2, 4)])
    report = fl.temperedness_report(fl.explicit_sequence([F, G]), 2)
    expected = naive_ratios([F.coord_set(), G.coord_set()], "Z")
    assert list(report.ratios) == expected
    # a translate that comes back inside int64 is stored as int64 again
    back = fl.translate_left(fl.element("Z", -(2**63)), G)
    assert back.coords_array().dtype == np.int64
    assert back == fl.FiniteSubset.from_coords("Z", [[5 + k] for k in range(-2, 4)])


def test_heisenberg_row_arithmetic_past_int64():
    big = 2**40
    A = fl.FiniteSubset.from_coords(
        "heisenberg", [[big, big, 0], [1, 2, 3], [-big, 1, 2]]
    )
    rows = [g.coords for g in A]
    products = naive_product_set("heisenberg", rows, rows)
    assert fl.product_subset(A, A).coord_set() == products
    assert [g.coords for g in fl.invert_subset(A)] == [
        naive_inv("heisenberg", a) for a in rows
    ]
    g = fl.element("heisenberg", big, -big, 1)
    assert [h.coords for h in fl.translate_left(g, A)] == [
        naive_mul("heisenberg", g.coords, a) for a in rows
    ]
    assert [h.coords for h in fl.translate_right(A, g)] == [
        naive_mul("heisenberg", a, g.coords) for a in rows
    ]


def test_builtin_counts_build_no_group_elements(monkeypatch):
    built = []
    post_init = fl.GroupElement.__post_init__

    def counting(self):
        built.append(self.coords)
        post_init(self)

    shifts = [fl.element("Z", k) for k in (1, -1, 3)]
    monkeypatch.setattr(fl.GroupElement, "__post_init__", counting)
    fl.temperedness_report(fl.zd_boxes(2), 6)
    fl.temperedness_report(fl.heisenberg_boxes(), 3)
    seq = fl.z_intervals()
    table = [
        (fl.folner_defect_left(F, g), fl.folner_defect_right(F, g))
        for F in map(seq.subset, range(1, 20))
        for g in shifts
    ]
    fl.extract_tempered_subsequence(fl.zd_boxes(2), Fraction(5), 3)
    assert built == []
    assert table[0] == (Fraction(2), Fraction(2))
    # iterating a subset is what builds its elements, once
    F = seq.subset(4)
    assert list(F) == list(F) and len(built) == 4


@pytest.mark.parametrize(
    "group_id, kind, message",
    [
        ("Z^2", "z_interval", "z_interval needs the group Z, not 'Z^2'"),
        ("heisenberg", "z_interval", "z_interval needs the group Z, not 'heisenberg'"),
        ("heisenberg", "zd_box", "zd_box needs a group Z or Z^d"),
        ("Z", "heisenberg_box", "heisenberg_box needs the Heisenberg group"),
        ("Z^3", "heisenberg_box", "heisenberg_box needs the Heisenberg group"),
    ],
)
def test_folner_sequence_rejects_contradictory_group_and_kind(group_id, kind, message):
    with pytest.raises(GroupMismatchError) as raised:
        fl.FolnerSequence(group_id, kind)
    assert str(raised.value) == message
    with pytest.raises(GroupMismatchError) as raised:
        fl.sequence_from_dict({"group": group_id, "kind": kind})
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "group_id, kind, message",
    [
        ("foo", "zd_box", "unknown group 'foo'"),
        ("Z^1", "zd_box", "bad lattice tag 'Z^1'"),
        ("Z^x", "zd_box", "bad lattice tag 'Z^x'"),
        ("Z^02", "zd_box", "bad lattice tag 'Z^02'"),
        ("foo", "explicit_list", "unknown group 'foo'"),
    ],
)
def test_folner_sequence_rejects_unknown_group_tags(group_id, kind, message):
    # the tag is checked when the sequence is made, not at its first subset
    with pytest.raises(ValueError, match=re.escape(message)):
        fl.FolnerSequence(group_id, kind)
    with pytest.raises(ValueError, match=re.escape(message)):
        fl.sequence_from_dict({"group": group_id, "kind": kind, "params": {"subsets": []}})


@pytest.mark.parametrize(
    "data, key_path",
    [
        ({"kind": "z_interval"}, "group"),
        ({"group": "Z"}, "kind"),
        ({}, "group"),
        ({"group": "Z", "kind": "explicit_list"}, "params.subsets"),
        ({"group": "Z", "kind": "explicit_list", "params": {}}, "params.subsets"),
    ],
)
def test_sequence_from_dict_names_a_missing_key(data, key_path):
    with pytest.raises(fl.ConfigError) as raised:
        fl.sequence_from_dict(data)
    assert raised.value.key_path == key_path
    assert str(raised.value).startswith(f"{key_path}: ")


@pytest.mark.parametrize("kind", ["nope", ["z_interval"], None])
def test_sequence_from_dict_rejects_an_unknown_kind(kind):
    with pytest.raises(ValueError) as raised:
        fl.sequence_from_dict({"group": "Z", "kind": kind})
    assert str(raised.value) == f"unknown Folner kind {kind!r}"


# ---------------------------------------------------------------------------
# key tiles: product keys are formed in one buffer of _TILE_CELLS cells


def assert_product_size_matches_naive(gid, A, B):
    count = fl.groups._product_size(
        gid, np.array(A, dtype=np.int64), np.array(B, dtype=np.int64)
    )
    assert count == len(naive_product_set(gid, A, B))


def test_product_wider_than_one_tile_matches_tuple_sets():
    tile = fl.groups._TILE_CELLS
    rng = random.Random(41)
    B = [(rng.randint(-3 * tile, 3 * tile),) for _ in range(tile + 300)]
    assert_product_size_matches_naive("Z", [(0,), (7,), (tile,)], B)
    B2 = [(rng.randint(-400, 400), rng.randint(-400, 400)) for _ in range(tile + 5)]
    assert_product_size_matches_naive("Z^2", [(0, 0), (1, -2)], B2)


@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_products_at_the_tile_size_match_tuple_sets(extra):
    # |A||B| = tile - 1 = 255 * 257, tile = 256 * 256 and tile + 1 (a prime)
    tile = fl.groups._TILE_CELLS
    cells = tile + extra
    rng = random.Random(43 + extra)
    a_len = next(k for k in range(int(math.isqrt(cells)), 0, -1) if cells % k == 0)
    for a_rows, b_rows in ((a_len, cells // a_len), (cells // a_len, a_len)):
        A = [(rng.randint(-900, 900), rng.randint(-9, 9)) for _ in range(a_rows)]
        B = [(rng.randint(-900, 900), rng.randint(-9, 9)) for _ in range(b_rows)]
        assert_product_size_matches_naive("Z^2", A, B)


def test_heisenberg_product_over_several_tiles_matches_tuple_sets():
    tile = fl.groups._TILE_CELLS
    rng = random.Random(47)
    A = [tuple(rng.randint(-12, 12) for _ in range(3)) for _ in range(300)]
    B = [tuple(rng.randint(-12, 12) for _ in range(3)) for _ in range(700)]
    assert len(A) * len(B) > 3 * tile
    assert_product_size_matches_naive("heisenberg", A, B)
    # and on the sparse path, with c-columns that make the box pass the cap
    A = [(rng.randint(-500, 500), rng.randint(-500, 500), rng.randint(-9, 9))
         for _ in range(300)]
    assert_product_size_matches_naive("heisenberg", A, B)


def test_sparse_product_past_the_bitmap_cap_with_1e5_keys():
    # intervals [a, a + 300) and [a + 100, a + 400) for 400 far-apart a: the
    # box has about 10^8 cells, so the keys are merged as sorted int64 runs,
    # and pairs of rows repeat keys within a tile and across tiles
    rng = random.Random(53)
    starts = rng.sample(range(0, 10**8, 1000), 400)
    A = [(a + shift,) for a in starts for shift in (0, 100)]
    B = [(b,) for b in range(300)]
    assert len(A) * len(B) > 3 * fl.groups._TILE_CELLS
    assert len(naive_product_set("Z", A, B)) == 400 * 400
    assert_product_size_matches_naive("Z", A, B)
    assert_product_size_matches_naive("Z", sorted(A), B)


def test_exact_counts_run_in_bounded_memory():
    # a count holds its inputs, one 512 KB key tile and a bitmap of the
    # product box, which is small for these boxes
    for seq, upto in ((fl.heisenberg_boxes(), 4), (fl.zd_boxes(3), 5)):
        expected = fl.temperedness_report(seq, upto)
        tracemalloc.start()
        try:
            report = fl.temperedness_report(seq, upto)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == expected
        assert peak < 2 * 2**20, (seq.kind, peak)


# ---------------------------------------------------------------------------
# product sets: decoded from the same keys that the counts mark


def assert_product_rows_are_sorted_naive(gid, A, B):
    P = fl.product_subset(
        fl.FiniteSubset.from_coords(gid, A, sort=False),
        fl.FiniteSubset.from_coords(gid, B, sort=False),
    )
    assert P.coords_array().tolist() == [
        list(t) for t in sorted(naive_product_set(gid, A, B))
    ]


@pytest.mark.parametrize("gid", GROUPS)
def test_product_rows_on_the_bitmap_are_sorted_naive_products(gid):
    rng = random.Random(59)
    rank = fl.group_rank(gid)
    for _ in range(10):
        A, B = (
            {tuple(rng.randint(-9, 9) for _ in range(rank))
             for _ in range(rng.randint(1, 30))}
            for _ in range(2)
        )
        assert_product_rows_are_sorted_naive(gid, A, B)


@pytest.mark.parametrize(
    "gid, spread", [("Z", 10**9), ("Z^2", 10**6), ("heisenberg", 10**3)]
)
def test_sparse_product_rows_are_sorted_naive_products(gid, spread):
    # scattered rows put the box past the bitmap cap, and 300 x 300 products
    # span two key tiles
    rng = random.Random(61)
    rank = fl.group_rank(gid)
    A, B = (
        {tuple(rng.randint(-spread, spread) for _ in range(rank)) for _ in range(300)}
        for _ in range(2)
    )
    assert len(A) * len(B) > fl.groups._TILE_CELLS
    A_rows, B_rows = (np.array(sorted(S), dtype=np.int64) for S in (A, B))
    keys, _ = fl.groups._product_keys(gid, A_rows, B_rows)
    assert keys.dtype == np.int64  # the sorted keys, not a bitmap
    assert_product_rows_are_sorted_naive(gid, A, B)


def test_tuple_path_product_rows_are_sorted_naive_products():
    # a0*b1 reaches 2^66, past int64: the products are a set of tuples
    big = 2**33
    A = [(big, 1, 0), (-big, 2, 5), (0, 0, 0), (3, -big, 1)]
    B = [(1, big, 0), (0, -big, 2), (0, 0, 0), (big, big, -4)]
    A_rows, B_rows = (np.array(S, dtype=np.int64) for S in (A, B))
    assert isinstance(fl.groups._product_keys("heisenberg", A_rows, B_rows)[0], set)
    assert_product_rows_are_sorted_naive("heisenberg", A, B)
    # a small box whose products pass int64 is packed, and decoded exactly
    edge = 2**62
    A, B = [(edge, 0), (edge + 1, 5)], [(edge, 1)]
    A_rows, B_rows = (np.array(S, dtype=np.int64) for S in (A, B))
    assert fl.groups._product_keys("Z^2", A_rows, B_rows)[0].dtype == bool
    assert_product_rows_are_sorted_naive("Z^2", A, B)


@pytest.mark.parametrize("gid", GROUPS)
def test_product_with_an_empty_factor_is_empty(gid):
    empty = fl.FiniteSubset(gid, [])
    F = fl.FiniteSubset.from_coords(gid, [(1,) * fl.group_rank(gid)])
    for A, B in ((empty, F), (F, empty), (empty, empty)):
        assert fl.product_subset(A, B) == empty
    assert fl.symmetric_difference_size(empty, empty) == 0
    assert fl.symmetric_difference_size(empty, F) == 1


def test_heisenberg_product_set_runs_in_bounded_memory():
    # invert(F3) * F4: 931 x 2673 products, 14163 distinct
    seq = fl.heisenberg_boxes()
    A, B = fl.invert_subset(seq.subset(3)), seq.subset(4)
    tracemalloc.start()
    try:
        P = fl.product_subset(A, B)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert P.size == 14163
    naive = naive_product_set("heisenberg", A.coord_set(), B.coord_set())
    assert P.coords_array().tolist() == [list(t) for t in sorted(naive)]
    assert peak < 8 * 2**20, peak
