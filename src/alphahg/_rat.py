"""The package's one exact-arithmetic boundary.

Every rational a caller hands in is admitted by :func:`exact`, since a
verdict on an exact threshold can flip on one rounded bit, every
sequence of them by :func:`rationals`, and every size, count or agent
index by :func:`integer`, except that an LP entry that is an int stays
an int.  Every denominator is cleared by :func:`scaled`: the LP
tableau's, the search rows', the price of anarchy's alpha values, and
each weight matrix's once for the subset kernels
(``alphahg.core._scaled_pairs`` scales its upper triangle), which then
run on Python ints.  ``BACKEND`` names this, the only backend, for
records of a run's environment.

A rational string is an optional sign and ASCII digits, then optionally
``/`` and a denominator written the same way that is not zero, with
whitespace around each part: ``"3"``, ``" -2/6 "`` and ``"1 / +4"`` are
admitted; ``"2.5"``, ``"1e3"``, ``"1_000"``, non-ASCII digits and
``"1/0"`` are refused.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Any, Callable, NoReturn, Sequence

from .errors import InvalidInputError

BACKEND = "fractions"


def exact(value: Any) -> Fraction:
    """An exact rational from a ``Fraction`` (returned as it is), an int
    or other ``numbers.Rational``, or a rational string (see above).

    Floats, float-like strings ("2.5", "1e3") and bools are rejected.
    """
    # the exact types first: an isinstance test against Fraction or
    # Rational is an ABC check, which costs more than the conversion
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if kind is str:
        return _parse(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational) and not isinstance(value, bool):
        return Fraction(int(value.numerator), int(value.denominator))
    if isinstance(value, float):
        reject_float(repr(value))
    if isinstance(value, str):
        return _parse(value)
    raise InvalidInputError(f"not a rational: {value!r}")


def reject_float(literal: str) -> NoReturn:
    """Refuse a float, written as ``literal``: a value here, and every
    float literal of a JSON file (``json.load``'s ``parse_float``)."""
    raise InvalidInputError(
        f"floating-point literal {literal} rejected; write an exact \"p/q\" string"
    )


def rationals(values: Any, admit: Callable[[Any], Any] = exact) -> tuple:
    """``admit`` (by default :func:`exact`) of each of ``values``, as a
    tuple; a ``str`` or ``bytes`` is refused rather than read as a
    sequence of characters or of bytes."""
    if isinstance(values, (str, bytes)):
        raise InvalidInputError(f"not a sequence of rationals: {values!r}")
    return tuple(map(admit, values))


def _parse(text: str) -> Fraction:
    """A rational string: ``[sign] digits [/ [sign] digits]``, each part
    ASCII and free of ``_``, which ``int`` would otherwise accept.  An
    integer string is built as ``Fraction(p)``, which takes no gcd."""
    num, slash, den = text.partition("/")
    num, den = num.strip(), den.strip()
    if (num + den).isascii() and "_" not in num and "_" not in den:
        try:
            p = int(num)
            if not slash:
                return Fraction(p)
            q = int(den)
        except ValueError:
            pass
        else:
            if q == 0:
                raise InvalidInputError(f"zero denominator in {text!r}")
            return Fraction(p, q)
    raise InvalidInputError(f"not an exact rational: {text!r}")


def integer(value: Any) -> int:
    """A size, count or agent index: an ``int`` and not a bool, returned
    as it is.

    Floats, rationals (even whole ones), strings and bools are rejected.
    """
    if type(value) is int or (isinstance(value, int) and not isinstance(value, bool)):
        return value
    raise InvalidInputError(f"not an integer: {value!r}")


def scaled(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """The rationals times the LCM of their denominators, as ints, and
    that LCM."""
    common = lcm(*{x.denominator for x in values})
    return [x.numerator * (common // x.denominator) for x in values], common
