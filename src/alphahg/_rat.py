"""The package's one exact-arithmetic boundary.

Every rational a caller hands in is admitted by :func:`exact`, since a
verdict on an exact threshold can flip on one rounded bit.  The LP
tableau and the subset kernels clear denominators once with
:func:`scaled` and then run on Python ints.  ``BACKEND`` names this, the
only backend, for records of a run's environment.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Any, Sequence

from .errors import InvalidInputError

BACKEND = "fractions"


def exact(value: Any) -> Fraction:
    """An exact rational from a ``Fraction``, an int or other
    ``numbers.Rational``, or an integer or ``"p/q"`` string.

    Floats, float-like strings ("2.5", "1e3") and bools are rejected.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, float):
        raise InvalidInputError(
            f"floating-point literal {value!r} rejected; write an exact \"p/q\" string"
        )
    if isinstance(value, str):
        parts = value.strip().split("/")
        try:
            numbers = [int(p) for p in parts]
        except ValueError:
            numbers = []
        if len(numbers) == 1:
            return Fraction(numbers[0])
        if len(numbers) == 2:
            if numbers[1] == 0:
                raise InvalidInputError(f"zero denominator in {value!r}")
            return Fraction(numbers[0], numbers[1])
        raise InvalidInputError(f"not an exact rational: {value!r}")
    raise InvalidInputError(f"not a rational: {value!r}")


def scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The rationals times the LCM of their denominators, as ints, and
    that LCM."""
    common = lcm(*{x.denominator for x in values})
    return [x.numerator * (common // x.denominator) for x in values], common
