"""Rule-backed bi-infinite words over the alphabet {0, 1}.

Words are evaluated lazily: a word is a rule mapping an integer position to
a symbol, memoized on demand, so orbit samples over large index windows stay
cheap.  Evaluation is pure; if two threads race on the same position they
recompute the same value, which is harmless.

Equality and hashing go through ``key()``, a canonical description of the
rule, so structurally identical words compare equal.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .rationals import parse_rational

__all__ = [
    "Word",
    "PeriodicWord",
    "SturmianWord",
    "RandomWord",
    "FlippedWord",
    "SplicedWord",
    "shift_word",
    "word_from_dict",
    "word_to_dict",
]


class Word:
    """Base class; subclasses implement _compute(k) and key()."""

    def __init__(self) -> None:
        self._memo: dict[int, int] = {}

    def symbol(self, k: int) -> int:
        try:
            return self._memo[k]
        except KeyError:
            value = self._compute(k)
            self._memo[k] = value
            return value

    def _compute(self, k: int) -> int:
        raise NotImplementedError

    def key(self) -> tuple:
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"{type(self).__name__}{self.key()[1:]}"


class PeriodicWord(Word):
    """Repeats a finite pattern: symbol(k) = pattern[k mod len]."""

    def __init__(self, pattern: tuple[int, ...] | list[int]):
        super().__init__()
        self.pattern = tuple(int(s) for s in pattern)
        if not self.pattern or any(s not in (0, 1) for s in self.pattern):
            raise ValueError("pattern must be a nonempty 0/1 sequence")

    def _compute(self, k: int) -> int:
        return self.pattern[k % len(self.pattern)]

    def key(self) -> tuple:
        return ("periodic", self.pattern)


class SturmianWord(Word):
    """Rotation coding: symbol(k) = floor(x0+(k+1)a) - floor(x0+k*a), exact."""

    def __init__(self, alpha: Fraction, x0: Fraction = Fraction(0)):
        super().__init__()
        self.alpha = Fraction(alpha)
        self.x0 = Fraction(x0)
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")

    def _compute(self, k: int) -> int:
        return math.floor(self.x0 + (k + 1) * self.alpha) - math.floor(
            self.x0 + k * self.alpha
        )

    def key(self) -> tuple:
        return ("sturmian", self.alpha, self.x0)


_TWO_53 = float(1 << 53)


class RandomWord(Word):
    """Seeded i.i.d. word; position k draws from random.Random(f"{seed}:{k}")."""

    def __init__(self, seed: int, p_one: Fraction = Fraction(1, 2)):
        super().__init__()
        self.seed = int(seed)
        self.p_one = Fraction(p_one)
        if not 0 <= self.p_one <= 1:
            raise ValueError("p_one must lie in [0, 1]")
        # random() is m / 2^53 for an integer m, so random() < p_one exactly
        # when m * den < num * 2^53
        self._den = self.p_one.denominator
        self._scaled_num = self.p_one.numerator << 53

    def _compute(self, k: int) -> int:
        m = int(random.Random(f"{self.seed}:{k}").random() * _TWO_53)
        return 1 if m * self._den < self._scaled_num else 0

    def key(self) -> tuple:
        return ("random", self.seed, self.p_one)


class FlippedWord(Word):
    """A base word with the symbols at finitely many positions flipped."""

    def __init__(self, base: Word, positions: frozenset[int] | set[int]):
        super().__init__()
        self.base = base
        self.positions = frozenset(int(p) for p in positions)

    def _compute(self, k: int) -> int:
        s = self.base.symbol(k)
        return 1 - s if k in self.positions else s

    def key(self) -> tuple:
        return ("flipped", self.base.key(), tuple(sorted(self.positions)))


class SplicedWord(Word):
    """Left word below the cut position, right word from the cut onward."""

    def __init__(self, left: Word, right: Word, cut: int):
        super().__init__()
        self.left = left
        self.right = right
        self.cut = int(cut)

    def _compute(self, k: int) -> int:
        return self.left.symbol(k) if k < self.cut else self.right.symbol(k)

    def key(self) -> tuple:
        return ("spliced", self.left.key(), self.right.key(), self.cut)


class _ShiftedWord(Word):
    def __init__(self, base: Word, offset: int):
        super().__init__()
        self.base = base
        self.offset = int(offset)

    def _compute(self, k: int) -> int:
        return self.base.symbol(k + self.offset)

    def key(self) -> tuple:
        return ("shifted", self.base.key(), self.offset)


def shift_word(word: Word, offset: int) -> Word:
    """The word k -> word(k + offset); shifts compose and cancel."""
    if offset == 0:
        return word
    if isinstance(word, _ShiftedWord):
        combined = word.offset + offset
        return word.base if combined == 0 else _ShiftedWord(word.base, combined)
    return _ShiftedWord(word, offset)


def _unshifted(word: Word) -> tuple[Word, int]:
    """(base, offset) with word.symbol(k) == base.symbol(k + offset) for every k."""
    if isinstance(word, _ShiftedWord):
        return word.base, word.offset
    return word, 0


def word_to_dict(word: Word) -> dict:
    if isinstance(word, PeriodicWord):
        return {"kind": "periodic", "pattern": list(word.pattern)}
    if isinstance(word, SturmianWord):
        return {"kind": "sturmian", "alpha": str(word.alpha), "x0": str(word.x0)}
    if isinstance(word, RandomWord):
        return {"kind": "random", "seed": word.seed, "p_one": str(word.p_one)}
    if isinstance(word, FlippedWord):
        return {
            "kind": "flip",
            "base": word_to_dict(word.base),
            "positions": sorted(word.positions),
        }
    if isinstance(word, SplicedWord):
        return {
            "kind": "splice",
            "left": word_to_dict(word.left),
            "right": word_to_dict(word.right),
            "cut": word.cut,
        }
    if isinstance(word, _ShiftedWord):
        return {"kind": "shift", "base": word_to_dict(word.base), "offset": word.offset}
    raise ValueError(f"cannot serialize word {word!r}")


def word_from_dict(data: dict) -> Word:
    kind = data.get("kind")
    if kind == "periodic":
        return PeriodicWord(data["pattern"])
    if kind == "sturmian":
        return SturmianWord(
            parse_rational(data["alpha"]), parse_rational(data.get("x0", 0))
        )
    if kind == "random":
        return RandomWord(
            data["seed"], parse_rational(data.get("p_one", Fraction(1, 2)))
        )
    if kind == "flip":
        return FlippedWord(word_from_dict(data["base"]), set(data["positions"]))
    if kind == "splice":
        return SplicedWord(
            word_from_dict(data["left"]), word_from_dict(data["right"]), data["cut"]
        )
    if kind == "shift":
        return shift_word(word_from_dict(data["base"]), data["offset"])
    raise ValueError(f"unknown word kind {kind!r}")
