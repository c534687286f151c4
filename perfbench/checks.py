"""The benchmark's own reference arithmetic, independent of ``alphahg``.

Known answers (closed-form bounds, construction factors), computed work
counts (coalitions scanned, partitions enumerated) and the naive
certificate checker live here, so that no check trusts the code it
measures.  Every work count is *computed* from the inputs and the
verdict, not observed inside the package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations


def alpha_value(name: str, size: int) -> Fraction:
    """alpha(size) for the three built-in classes the workloads use."""
    if name == "ashg":
        return Fraction(1)
    if name == "fhg":
        return Fraction(1, size)
    if name == "mfhg":
        return Fraction(0) if size == 1 else Fraction(1, size - 1)
    raise ValueError(f"unknown alpha {name!r}")


def improvement_bound(alpha: str, q: int, m: int) -> Fraction:
    """The paper's closed-form bound on the improvement factor of an
    m-agent coalition against a baseline stable up to size q."""
    steps, rem = divmod(m - 1, q - 1)
    total = steps * alpha_value(alpha, m) / alpha_value(alpha, q)
    if rem:
        total += alpha_value(alpha, m) / alpha_value(alpha, rem + 1)
    return max(Fraction(1), total)


def complete_factor(alpha: str, q: int, m: int) -> Fraction:
    """Improvement factor of the complete-graph construction."""
    return alpha_value(alpha, m) * (m - 1) / (alpha_value(alpha, q) * (q - 1))


def mantel_factor(m: int) -> Fraction:
    """Improvement factor of the Mantel construction (fractional, q = 3)."""
    return 1 + Fraction((m - 2) // 2, m)


def bell(n: int) -> int:
    """Bell(n), the number of partitions of an n-set (Bell triangle)."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[-1]


def subsets_in_range(n: int, lo: int, hi: int) -> int:
    """Coalitions of n agents with size in lo..hi."""
    return sum(math.comb(n, s) for s in range(lo, hi + 1))


def lex_rank(n: int, members: tuple[int, ...]) -> int:
    """0-based position of a sorted k-subset of range(n) in the
    lexicographic order that ``itertools.combinations`` produces."""
    k = len(members)
    rank = 0
    prev = -1
    for pos, member in enumerate(members):
        for skipped in range(prev + 1, member):
            rank += math.comb(n - skipped - 1, k - pos - 1)
        prev = member
    return rank


def coalitions_scanned(n: int, lo: int, hi: int, witness) -> int:
    """Coalitions a (size, lex) scan of sizes lo..hi visits: all of them
    when no witness is found, else up to and including the witness."""
    if witness is None:
        return subsets_in_range(n, lo, hi)
    members = tuple(sorted(witness))
    return subsets_in_range(n, lo, len(members) - 1) + lex_rank(n, members) + 1


def first_blocking(weights, baselines, alpha: str, max_size: int):
    """Naive scan, sizes 2..max_size in lex order: the 1-based position
    of the first coalition whose members all strictly beat their
    baselines, or None."""
    m = len(baselines)
    position = 0
    for s in range(2, max_size + 1):
        a = alpha_value(alpha, s)
        for combo in combinations(range(m), s):
            position += 1
            if all(a * sum(weights[i][j] for j in combo) > baselines[i] for i in combo):
                return position
    return None


def parse_scenario(doc: dict):
    """(alpha, weight matrix, baselines) from a scenario JSON document."""
    m = doc["n"]
    weights = [[Fraction(0)] * m for _ in range(m)]
    for i, j, w in doc["weights"]:
        weights[i][j] = weights[j][i] = Fraction(w)
    return doc["alpha"], weights, [Fraction(b) for b in doc["baselines"]]


def certificate_error(doc: dict, q: int, gamma: Fraction, weight_bound, baseline_bound):
    """Re-check a feasible search certificate from first principles.

    Returns None when the scenario lies in the box, admits no blocking
    coalition of size up to q, and lets the full coalition improve every
    agent by a factor strictly above gamma; otherwise a reason.
    """
    alpha, weights, baselines = parse_scenario(doc)
    m = len(baselines)
    if any(abs(w) > weight_bound for row in weights for w in row):
        return "weight outside the box"
    if any(not 1 <= b <= baseline_bound for b in baselines):
        return "baseline outside the box"
    if first_blocking(weights, baselines, alpha, q) is not None:
        return f"not stable up to {q}"
    a = alpha_value(alpha, m)
    if not all(a * sum(weights[i]) > gamma * baselines[i] for i in range(m)):
        return "improvement factor not above gamma"
    return None
