"""Exact S_n characters via the Murnaghan-Nakayama rule.

Cycle types are tuples of non-increasing positive integers summing to n,
with fixed points included as 1s, e.g. a transposition in S_5 is
(2, 1, 1, 1).  Characters are exact Python integers, character ratios exact
``Fraction`` values; nothing here ever touches floating point except the
closed-form ratio bounds, which are themselves exact rationals.

The recursion removes the largest remaining cycle first, as the border
strips of ``partitions.bead_moves``, and is memoized on (partition,
remaining cycle multiset) in a dict its caller owns: a fresh one per
``character`` call, one per spectrum build, so no table outlives the
build.  With an all-ones remainder it short circuits to the dimension,
kept in the same memo and computed on one factorial table per build, so
evaluating a character at a single k-cycle class costs one border-strip
sweep plus one dimension per remainder.

For a single cycle of length k <= 4 the content polynomials of
``class_numerator`` give (n)_k chi_lambda/d_lambda as one integer with no
recursion and no dimension; the spectra use them, and the recursion stays
as their cross-check and as the route for every other class.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable

from .partitions import (
    Partition,
    bead_moves,
    beta_dimension,
    check_partition,
    dimension,
    factorials,
)

CycleType = tuple[int, ...]


# ---------------------------------------------------------------------------
# cycle types
# ---------------------------------------------------------------------------

def check_cycle_type(cycles: Iterable[int]) -> CycleType:
    """Canonicalize to a non-increasing tuple of positive cycle lengths."""
    c = tuple(sorted((int(x) for x in cycles), reverse=True))
    if any(x < 1 for x in c):
        raise ValueError(f"cycle lengths must be positive, got {c}")
    return c


def support(cycles: CycleType) -> int:
    """Number of non-fixed points of a class element."""
    return sum(c for c in cycles if c > 1)


def is_even_class(cycles: CycleType) -> bool:
    """True iff elements of the class lie in A_n (sign +1)."""
    return sum(c - 1 for c in cycles) % 2 == 0


def class_size(cycles: CycleType) -> int:
    """Number of elements of S_n with the given cycle type: n! / prod k^m_k m_k!."""
    n = sum(cycles)
    z = 1
    for k, m in Counter(cycles).items():
        z *= k**m * math.factorial(m)
    return math.factorial(n) // z


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama recursion
# ---------------------------------------------------------------------------

def character(parts: Partition, cycles: CycleType) -> int:
    """Exact character chi_lambda(alpha) by Murnaghan-Nakayama.

    The largest cycle of ``cycles`` is peeled off first; each border strip
    of that size contributes (-1)^{leg} times the character of the remainder
    at the remaining cycles.  No removable strip means contribution zero.
    """
    parts = check_partition(parts)
    cycles = check_cycle_type(cycles)
    if sum(parts) != sum(cycles):
        raise ValueError(
            f"degree mismatch: partition of {sum(parts)} vs class of {sum(cycles)}"
        )
    return mn_character(parts, cycles, {}, factorials(sum(parts)))


def mn_character(parts: Partition, cycles: CycleType, memo: dict, fact: list[int]) -> int:
    """``character`` without validation, memoized in ``memo`` on (partition,
    remaining cycles), with ``fact[k] = k!`` for k <= |parts|: one dict and
    one table serve every diagram of one spectrum build."""
    if not parts:
        return 1
    key = (parts, cycles)
    cached = memo.get(key)
    if cached is not None:
        return cached
    if cycles[0] == 1:  # only fixed points left
        total = beta_dimension(parts, fact)
    else:
        total = 0
        rest = cycles[1:]
        for _, mu, crossed in bead_moves(parts, cycles[0]):
            term = mn_character(mu, rest, memo, fact)
            total += -term if crossed % 2 else term
    memo[key] = total
    return total


def char_ratio(parts: Partition, cycles: CycleType) -> Fraction:
    """Normalized character chi_lambda(alpha)/d_lambda as a reduced rational."""
    if not parts:
        raise ValueError("the empty partition has no character ratio")
    return Fraction(character(parts, cycles), dimension(check_partition(parts)))


# ---------------------------------------------------------------------------
# moment sums and the 4-cycle closed form
# ---------------------------------------------------------------------------

def m_moment(parts: Partition, l: int) -> int:
    """M_{lambda,2l} = sum_j [(lam_j - j)^l (lam_j - j + 1)^l - j^l (j-1)^l]."""
    if l < 1:
        raise ValueError("l must be positive")
    parts = check_partition(parts)
    total = 0
    for j, lam_j in enumerate(parts, start=1):
        total += (lam_j - j) ** l * (lam_j - j + 1) ** l - j**l * (j - 1) ** l
    return total


def class_numerator(parts: Partition, k: int) -> int:
    """The integer (n)_k chi_lambda(c)/d_lambda at a single k-cycle c, k = 2, 3, 4.

    Content polynomials, independent of the Murnaghan-Nakayama recursion:
    twice the content sum M_{lambda,2} for k = 2 (Frobenius), 3 sum of
    squared contents - 3n(n-1)/2 for k = 3 (Ingram), and
    M_{lambda,4} - 2(2n-3) M_{lambda,2} for k = 4.
    """
    parts = check_partition(parts)
    n = sum(parts)
    if k not in (2, 3, 4):
        raise ValueError(f"content formulas cover k = 2, 3, 4, not {k}")
    if n < k:
        raise ValueError(f"a {k}-cycle needs n >= {k}")
    return content_numerator(parts, n, k)


def content_numerator(parts: Partition, n: int, k: int) -> int:
    """``class_numerator`` without validation: ``parts`` must be a partition
    of n and k one of 2, 3, 4."""
    if k == 3:
        # row j holds the contents 1-j .. a with a = lam_j - j, and the
        # cubic g(x) = x(x+1)(2x+1) has g(a) - g(-j) = 6 sum of their squares
        six_squares = 0
        for j, lam_j in enumerate(parts, start=1):
            a = lam_j - j
            six_squares += a * (a + 1) * (2 * a + 1) + j * (j - 1) * (2 * j - 1)
        return (six_squares - 3 * n * (n - 1)) // 2
    m2 = m4 = 0
    for j, lam_j in enumerate(parts, start=1):
        x = (lam_j - j) * (lam_j - j + 1)
        y = j * (j - 1)
        m2 += x - y
        m4 += x * x - y * y
    return m2 if k == 2 else m4 - 2 * (2 * n - 3) * m2


def r4_exact(parts: Partition) -> Fraction:
    """Normalized character at the 4-cycle class from the moment identity
    (n)_4 r4(lambda) = M_{lambda,4} - 2(2n-3) M_{lambda,2}; independent of
    the Murnaghan-Nakayama recursion, hence usable as a cross-check against it.
    """
    n = sum(check_partition(parts))
    if n < 4:
        raise ValueError("r4 needs n >= 4")
    return Fraction(class_numerator(parts, 4), math.perm(n, 4))


def char_ratio_bound(parts: Partition, class_kind: str) -> Fraction:
    """Closed-form upper bound on the normalized character at short cycles.

    ``transposition``: 1 - 2(n-lam1)(lam1+1)/(n(n-1)) when lam1 >= n/2, else
    (lam1-1)/(n-1).  ``four_cycle`` (valid for n >= 11): same split with
    1 - 2*lam1*(n-lam1)/(n(n-1)) on the large-first-row branch.
    """
    parts = check_partition(parts)
    n = sum(parts)
    lam1 = parts[0] if parts else 0
    if class_kind == "transposition":
        if 2 * lam1 >= n:
            return 1 - Fraction(2 * (n - lam1) * (lam1 + 1), n * (n - 1))
        return Fraction(lam1 - 1, n - 1)
    if class_kind == "four_cycle":
        if n < 11:
            raise ValueError("four_cycle ratio bound requires n >= 11")
        if 2 * lam1 >= n:
            return 1 - Fraction(2 * lam1 * (n - lam1), n * (n - 1))
        return Fraction(lam1 - 1, n - 1)
    raise ValueError(f"unknown class kind {class_kind!r}")
