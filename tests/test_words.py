"""Rule-backed words: coding correctness, shifting, serialization."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import folnerlab as fl
from folnerlab import (
    FlippedWord,
    PeriodicWord,
    RandomWord,
    SplicedWord,
    SturmianWord,
    shift_word,
    word_from_dict,
    word_to_dict,
)


def test_periodic_word_cycles():
    w = PeriodicWord((0, 1, 1))
    assert [w.symbol(k) for k in range(-3, 6)] == [0, 1, 1, 0, 1, 1, 0, 1, 1]


def test_periodic_word_rejects_bad_symbols():
    with pytest.raises(ValueError):
        PeriodicWord((0, 2))
    with pytest.raises(ValueError):
        PeriodicWord(())


def test_sturmian_matches_direct_floor_coding():
    alpha = Fraction(5, 13)
    x0 = Fraction(1, 7)
    w = SturmianWord(alpha, x0)
    for k in range(-50, 51):
        direct = math.floor(x0 + (k + 1) * alpha) - math.floor(x0 + k * alpha)
        assert w.symbol(k) == direct


def test_sturmian_golden_frequency():
    # symbol frequency over a long window approximates the slope
    w = SturmianWord(fl.GOLDEN_ALPHA, 0)
    n = 10_000
    freq = sum(w.symbol(k) for k in range(n)) / n
    assert abs(freq - float(fl.GOLDEN_ALPHA)) < 1e-3


def test_random_word_reproducible_and_seed_sensitive():
    a = RandomWord(5)
    b = RandomWord(5)
    c = RandomWord(6)
    window = list(range(-20, 21))
    assert [a.symbol(k) for k in window] == [b.symbol(k) for k in window]
    assert [a.symbol(k) for k in window] != [c.symbol(k) for k in window]


def test_random_word_bias():
    w = RandomWord(1, Fraction(9, 10))
    n = 5000
    freq = sum(w.symbol(k) for k in range(n)) / n
    assert 0.85 < freq < 0.95


@pytest.mark.parametrize(
    "p_one",
    [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
     1 - Fraction(1, 2**53), Fraction(1, 2**53)],
    ids=str,
)
def test_random_word_matches_the_float_draw_against_p_one(p_one):
    for seed in (0, 11):
        w = RandomWord(seed, p_one)
        for k in range(-300, 301):
            draw = random.Random(f"{seed}:{k}").random() < p_one
            assert w.symbol(k) == (1 if draw else 0)


def test_flipped_word_flips_exactly_the_named_positions():
    base = PeriodicWord((0,))
    w = FlippedWord(base, {0, 3})
    assert [w.symbol(k) for k in range(-1, 5)] == [0, 1, 0, 0, 1, 0]


def test_spliced_word_switches_at_cut():
    w = SplicedWord(PeriodicWord((0,)), PeriodicWord((1,)), cut=2)
    assert [w.symbol(k) for k in range(-2, 5)] == [0, 0, 0, 0, 1, 1, 1]


def test_shift_word_relabels_positions():
    w = SturmianWord(Fraction(2, 7), 0)
    s = shift_word(w, 3)
    for k in range(-10, 11):
        assert s.symbol(k) == w.symbol(k + 3)


def test_shift_composition_collapses():
    w = PeriodicWord((0, 1))
    assert shift_word(shift_word(w, 2), 5) == shift_word(w, 7)
    assert shift_word(shift_word(w, 2), -2) == w
    assert shift_word(w, 0) is w


@given(st.integers(-100, 100), st.integers(-100, 100))
def test_shift_is_action(m, n):
    w = SturmianWord(Fraction(3, 11), Fraction(1, 2))
    assert shift_word(shift_word(w, m), n) == shift_word(w, m + n)


def test_word_equality_is_structural():
    assert PeriodicWord((0, 1)) == PeriodicWord((0, 1))
    assert PeriodicWord((0, 1)) != PeriodicWord((1, 0))
    assert SturmianWord(Fraction(1, 3)) == SturmianWord(Fraction(1, 3), 0)
    assert hash(RandomWord(2)) == hash(RandomWord(2))


def test_word_serialization_round_trip():
    words = [
        PeriodicWord((1, 0, 0)),
        SturmianWord(fl.GOLDEN_ALPHA, Fraction(1, 3)),
        RandomWord(9, Fraction(1, 4)),
        FlippedWord(PeriodicWord((0,)), {-2, 5}),
        SplicedWord(PeriodicWord((0,)), PeriodicWord((1,)), 4),
        shift_word(SturmianWord(Fraction(2, 5)), -3),
    ]
    for w in words:
        back = word_from_dict(word_to_dict(w))
        assert back == w
        assert [back.symbol(k) for k in range(-8, 9)] == [
            w.symbol(k) for k in range(-8, 9)
        ]


def test_word_from_dict_accepts_golden():
    w = word_from_dict({"kind": "sturmian", "alpha": "golden"})
    assert w == SturmianWord(fl.GOLDEN_ALPHA, 0)


def test_word_from_dict_unknown_kind():
    with pytest.raises(ValueError):
        word_from_dict({"kind": "fibonacci"})


def test_memoization_returns_stable_values():
    w = RandomWord(31)
    first = [w.symbol(k) for k in range(100)]
    second = [w.symbol(k) for k in range(100)]
    assert first == second
