"""Exact S_n characters via the Murnaghan-Nakayama rule.

Cycle types are tuples of non-increasing positive integers summing to n,
with fixed points included as 1s, e.g. a transposition in S_5 is
(2, 1, 1, 1).  Characters are exact Python integers, character ratios exact
``Fraction`` values; nothing here ever touches floating point except the
closed-form ratio bounds, which are themselves exact rationals.

The recursion removes the largest remaining cycle first and is memoized on
(partition, remaining cycle multiset).  With an all-ones remainder it short
circuits to the dimension, so evaluating a character at a single k-cycle
class costs one border-strip sweep plus dimension lookups.

For a single cycle of length k <= 4 the content polynomials of
``class_numerator`` give (n)_k chi_lambda/d_lambda as one integer with no
recursion and no dimension; the spectra use them, and the recursion stays
as their cross-check and as the route for every other class.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .partitions import Partition, check_partition, dimension

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


def identity_type(n: int) -> CycleType:
    return (1,) * n


def one_cycle_type(n: int, k: int) -> CycleType:
    """The class of a single k-cycle in S_n: cycle type (k, 1, ..., 1)."""
    if not 2 <= k <= n:
        raise ValueError("need 2 <= k <= n")
    return (k,) + (1,) * (n - k)


def transposition_type(n: int) -> CycleType:
    return one_cycle_type(n, 2)


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
# border strips
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SkewHookRemoval:
    """Result of removing one k-cell border strip: what is left and its leg length."""

    remainder: Partition
    leg_length: int


def remove_skew_hooks(parts: Partition, k: int) -> list[SkewHookRemoval]:
    """All ways to remove a connected rim strip of k cells from the diagram.

    Works on the first-column hook lengths ("beta numbers") B_i = lam_i + m - i:
    removable k-strips correspond to b in B with b - k >= 0 and b - k not in B,
    and the strip's leg length is the number of beta values strictly between
    b - k and b.  Returns an empty list when no strip of size k exists.
    """
    parts = check_partition(parts)
    if k < 1:
        raise ValueError("strip size must be positive")
    m = len(parts)
    beta = [parts[i] + (m - 1 - i) for i in range(m)]
    beta_set = set(beta)
    out = []
    for b in beta:
        target = b - k
        if target < 0 or target in beta_set:
            continue
        leg = sum(1 for x in beta if target < x < b)
        new_beta = sorted((beta_set - {b}) | {target}, reverse=True)
        remainder = tuple(x - (m - 1 - i) for i, x in enumerate(new_beta))
        remainder = tuple(x for x in remainder if x > 0)
        out.append(SkewHookRemoval(remainder, leg))
    return out


# ---------------------------------------------------------------------------
# Murnaghan-Nakayama recursion
# ---------------------------------------------------------------------------

# Memo table shared by every caller.  Plain dict reads/writes are atomic under
# the GIL, so concurrent lookups plus duplicate computation are safe.
_cache: dict = {}


def character_cache_size() -> int:
    return len(_cache)


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
    return _character_rec(parts, cycles)


def _character_rec(parts: Partition, cycles: CycleType) -> int:
    if not parts:
        return 1
    if cycles[0] == 1:  # only fixed points left
        return dimension(parts)
    key = (parts, cycles)
    cached = _cache.get(key)
    if cached is not None:
        return cached
    total = 0
    rest = cycles[1:]
    for removal in remove_skew_hooks(parts, cycles[0]):
        term = _character_rec(removal.remainder, rest)
        total += -term if removal.leg_length % 2 else term
    _cache[key] = total
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
