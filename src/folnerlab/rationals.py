"""Exact rational parameters, including the shared irrational surrogate."""

from __future__ import annotations

from fractions import Fraction

from .errors import ConfigError

__all__ = ["GOLDEN_ALPHA", "SURROGATE_DENOMINATOR", "parse_rational"]

# Fibonacci 1134903170 / 1836311903; approximates the golden mean conjugate
# to ~1e-19 and has denominator large enough to count as a surrogate.
SURROGATE_DENOMINATOR = 10**9
GOLDEN_ALPHA = Fraction(1134903170, 1836311903)


def parse_rational(value: object) -> Fraction:
    """Exact rational from "golden", "p/q", decimal strings, or numbers.

    A zero denominator, an infinity or a NaN raises a ValueError that names
    the value.
    """
    if isinstance(value, str) and value.strip().lower() == "golden":
        return GOLDEN_ALPHA
    if not isinstance(value, (str, int, float, Fraction)):
        raise ConfigError(f"cannot interpret {value!r} as a rational number")
    try:
        return Fraction(value.strip() if isinstance(value, str) else value)
    except (ZeroDivisionError, OverflowError):  # "p/0", or an infinite float
        pass
    except ValueError:  # a NaN float, or a bad literal, which Fraction names
        if isinstance(value, str):
            raise
    raise ValueError(f"{value!r} is not a finite rational number")
