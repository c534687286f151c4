"""Internal rational-arithmetic backend.

Public APIs speak :class:`fractions.Fraction` everywhere.  The
brute-force kernels (the stability and price-of-anarchy subset sums)
run on ``gmpy2.mpq`` when gmpy2 is importable and fall back to
``Fraction`` otherwise.  Both types are exact; results are identical.
The LP does not use this shim: its tableau is plain ints.
"""

from __future__ import annotations

from fractions import Fraction

try:
    from gmpy2 import mpq as _mpq

    def to_rat(value) -> object:
        return _mpq(value)

    BACKEND = "gmpy2"
except ImportError:  # pragma: no cover - exercised only without gmpy2
    def to_rat(value) -> object:
        return value if isinstance(value, Fraction) else Fraction(value)

    BACKEND = "fractions"


def to_fraction(value) -> Fraction:
    """Convert a backend rational back to a Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(int(value.numerator), int(value.denominator))
