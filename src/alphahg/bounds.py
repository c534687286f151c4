"""Closed-form improvement bounds and structural class predicates.

The central quantity: if a partition admits no coalition of size at most
``q`` in which everyone improves by more than a factor ``k``, then no
coalition of size ``m >= q + 1`` lets everyone improve by more than

    max(1, k * (floor((m-1)/(q-1)) * alpha(m)/alpha(q)
                + [ (q-1) does not divide (m-1) ]
                  * alpha(m) / alpha((m-1) mod (q-1) + 1)))

where ``[..]`` is 0/1.  Fractional and additively separable games admit
the simpler forms ``k * (1 + floor((m-2)/(q-1))/m)`` and
``k * (1 + floor((m-2)/(q-1)))``.  All floor/mod arithmetic is on
integers; no rational rounding is ever involved.

Factor ``k`` is a reduction, not a new bound: scaling every baseline by
``k`` turns the question at factor ``k`` and improvement ``gamma`` into
the question at factor 1 and improvement ``gamma / k``, so wherever the
factor-1 bound exceeds 1 the factor-``k`` bound is exactly ``k`` times it.
"""

from __future__ import annotations

from fractions import Fraction

from ._rat import exact, integer
from .core import AlphaFunction, _at_least
from .errors import DomainError


def _check_sizes(stable_size: int, coalition_size: int, factor: Fraction) -> None:
    _at_least(stable_size, 2, "stable_size")
    if integer(coalition_size) < stable_size + 1:
        raise DomainError("coalition_size must be >= stable_size + 1")
    if factor < 1:
        raise DomainError("factor must be >= 1")


def improvement_bound(
    alpha: AlphaFunction,
    stable_size: int,
    coalition_size: int,
    factor: Fraction | int = 1,
) -> Fraction:
    """Upper bound on the improvement factor of a blocking coalition of
    ``coalition_size`` agents against a baseline that is stable for
    coalitions of size up to ``stable_size`` at factor ``factor``."""
    q, m, k = stable_size, coalition_size, exact(factor)
    _check_sizes(q, m, k)
    steps, rem = divmod(m - 1, q - 1)
    total = steps * alpha.value(m) / alpha.value(q)
    if rem:
        # rem + 1 >= 2 here, so alpha(1) = 0 variants can never divide by zero
        total += alpha.value(m) / alpha.value(rem + 1)
    return max(Fraction(1), k * total)


def fhg_improvement_bound(
    stable_size: int, coalition_size: int, factor: Fraction | int = 1
) -> Fraction:
    """Fractional-game form; equals ``improvement_bound`` with alpha = 1/m."""
    q, m, k = stable_size, coalition_size, exact(factor)
    _check_sizes(q, m, k)
    return k * (1 + Fraction((m - 2) // (q - 1), m))


def ashg_improvement_bound(
    stable_size: int, coalition_size: int, factor: Fraction | int = 1
) -> Fraction:
    """Additively separable form; equals ``improvement_bound`` with alpha = 1."""
    q, m, k = stable_size, coalition_size, exact(factor)
    _check_sizes(q, m, k)
    return k * (1 + (m - 2) // (q - 1))


def fhg_improvement_limit(stable_size: int) -> Fraction:
    """Size-independent ceiling q/(q-1) for fractional games: a baseline
    stable up to ``stable_size`` is improvement stable at this factor."""
    q = _at_least(stable_size, 2, "stable_size")
    return Fraction(q, q - 1)


def simple_fhg_bound(coalition_size: int) -> Fraction:
    """For binary-weight fractional games with a 3-size-stable baseline:
    no coalition of ``coalition_size >= 4`` agents improves everyone by
    more than 3(m-1)/(2m)."""
    m = _at_least(coalition_size, 4, "coalition_size")
    return Fraction(3 * (m - 1), 2 * m)


def is_hospitable(alpha: AlphaFunction, max_size: int) -> bool:
    """alpha(q)/alpha(q-1) >= (q-2)/(q-1) for all q in 2..max_size.

    Checked in cross-multiplied form so alpha(1) = 0 needs no special
    case.  Growing a coalition by one agent never shrinks the per-size
    weight by more than the member-count ratio.  alpha is sampled
    pointwise, so ``max_size`` must lie in its domain (for a ``table``
    alpha, at most the table's length).
    """
    _at_least(max_size, 2, "max_size")
    # on ints: each alpha value is read once and carried to the next size
    # as its numerator and (positive) denominator
    below = alpha.value(1)
    num, den = below.numerator, below.denominator
    for q in range(2, max_size + 1):
        value = alpha.value(q)
        next_num, next_den = value.numerator, value.denominator
        if next_num * den * (q - 1) < num * next_den * (q - 2):
            return False
        num, den = next_num, next_den
    return True


def is_decreasing(alpha: AlphaFunction, max_size: int) -> bool:
    """alpha non-increasing in coalition size over 1..max_size.

    alpha(1) = 0 is a singleton placeholder (self-weights are zero, so
    it never scales a utility); the q=1 comparison is skipped then.
    ``max_size`` must lie in alpha's domain.
    """
    _at_least(max_size, 2, "max_size")
    start = 2 if alpha.value(1) == 0 else 1
    return all(
        alpha.value(q) >= alpha.value(q + 1) for q in range(start, max_size)
    )


def guarantees_core_existence(alpha: AlphaFunction, max_size: int) -> bool:
    """(m-1) * alpha(m) <= alpha(2) for all m in 2..max_size.

    When this holds, any pairing with no blocking pair is already core
    stable, so a core stable partition always exists.  The verdict is
    bounded: sizes beyond ``max_size`` are not sampled, and
    ``max_size`` must lie in alpha's domain.
    """
    _at_least(max_size, 2, "max_size")
    a2 = alpha.value(2)
    return all((m - 1) * alpha.value(m) <= a2 for m in range(2, max_size + 1))


def cpoa_upper_bound(
    alpha: AlphaFunction, stable_size: int, max_size: int
) -> Fraction:
    """Upper bound on the size-stable core price of anarchy: twice the
    largest improvement bound over coalition sizes up to ``max_size``.

    Requires a decreasing alpha.
    """
    q = _at_least(stable_size, 2, "stable_size")
    if integer(max_size) < q + 1:
        raise DomainError("max_size must be >= stable_size + 1")
    if not is_decreasing(alpha, max_size):
        raise DomainError("cpoa_upper_bound requires a decreasing alpha")
    return 2 * max(improvement_bound(alpha, q, m) for m in range(q + 1, max_size + 1))
