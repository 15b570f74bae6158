"""Integer partitions, Young diagrams, hooks and representation dimensions.

A partition of n is stored as a plain tuple of non-increasing positive
integers; the empty tuple is the (unique) partition of 0.  Rows and columns
of the associated Young diagram are 1-indexed throughout, so the cell (i, j)
sits in row i (from the top) and column j (from the left).

All dimension arithmetic is exact: d_lambda is computed from the beta
numbers l_i = lambda_i + len(lambda) - i as n! prod_{i<j} (l_i - l_j) /
prod_i l_i! using Python integers, never floats.  The hook lengths stay
as the reference the tests check it against.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator

from mpmath import mp

Partition = tuple[int, ...]


def check_partition(parts: Iterable[int]) -> Partition:
    """Canonicalize ``parts`` to a tuple and validate the partition shape."""
    p = tuple(int(x) for x in parts)
    for i, x in enumerate(p):
        if x < 1:
            raise ValueError(f"partition parts must be positive, got {p}")
        if i + 1 < len(p) and p[i + 1] > x:
            raise ValueError(f"partition parts must be non-increasing, got {p}")
    return p


def partitions(n: int, max_part: int | None = None) -> Iterator[Partition]:
    """Yield all partitions of n in reverse-lexicographic order.

    The first partition is (n) (or (max_part, ...) when capped) and the last
    is (1,)*n.  Reverse-lexicographic order is part of the public contract:
    callers rely on it for stable, reproducible output.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        yield ()
        return
    first = n if max_part is None else min(n, max_part)
    if first < 1:
        return
    parts = [first] * (n // first) + ([n % first] if n % first else [])
    while True:
        yield tuple(parts)
        # the successor lowers the last part above 1 by one and refills the
        # freed cells, with the trailing ones, greedily in parts of that size
        ones = 0
        while parts and parts[-1] == 1:
            parts.pop()
            ones += 1
        if not parts:
            return
        size = parts.pop() - 1
        full, rest = divmod(size + 1 + ones, size)
        parts.extend([size] * full)
        if rest:
            parts.append(rest)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n as a list, reverse-lexicographically ordered."""
    return list(partitions(n))


def conjugate(parts: Partition) -> Partition:
    """Transpose the Young diagram: conjugate(lam)_j = #{i : lam_i >= j}."""
    if not parts:
        return ()
    return tuple(sum(1 for x in parts if x >= j) for j in range(1, parts[0] + 1))


def hook_lengths(parts: Partition) -> dict[tuple[int, int], int]:
    """Hook length h_{i,j} = arm + leg + 1 of every cell (i, j), row-major order."""
    conj = conjugate(parts)
    return {
        (i, j): (row_len - j) + (conj[j - 1] - i) + 1
        for i, row_len in enumerate(parts, start=1)
        for j in range(1, row_len + 1)
    }


def factorials(n: int) -> list[int]:
    """[0!, 1!, ..., n!]."""
    table = [1]
    for k in range(1, n + 1):
        table.append(table[-1] * k)
    return table


def beta_dimension(parts: Partition, fact: list[int]) -> int:
    """d_lambda = n! prod_{i<j} (l_i - l_j) / prod_i l_i! on the beta numbers
    l_i = lambda_i + len(lambda) - i, with ``fact[k] = k!`` for k <= n.

    ``parts`` is not validated.  Raises ArithmeticError if the quotient is
    not an integer (which would mean the formula itself is broken).
    """
    length = len(parts)
    beta = [x + length - 1 - i for i, x in enumerate(parts)]
    vandermonde = denominator = 1
    for i, b in enumerate(beta):
        denominator *= fact[b]
        for c in beta[i + 1:]:
            vandermonde *= b - c
    quot, rem = divmod(fact[sum(parts)] * vandermonde, denominator)
    if rem:
        raise ArithmeticError(f"beta-number formula for {parts} is not an integer")
    return quot


@lru_cache(maxsize=None)
def dimension(parts: Partition) -> int:
    """Dimension of the irreducible S_n representation indexed by ``parts``,
    by ``beta_dimension``."""
    parts = check_partition(parts)
    return beta_dimension(parts, factorials(sum(parts)))


def dim_square_sum_bound(n: int, l: int) -> int:
    """Upper bound C(n,l)^2 * (n-l)! for the sum of d_lambda^2 over lambda_1 = l."""
    if not 1 <= l <= n:
        raise ValueError("need 1 <= l <= n")
    return math.comb(n, l) ** 2 * math.factorial(n - l)


def dim_square_sum_exact(n: int, l: int) -> int:
    """Exact sum of d_lambda^2 over all partitions of n with first part l."""
    if not 1 <= l <= n:
        raise ValueError("need 1 <= l <= n")
    total = 0
    for tail in partitions(n - l, l):
        total += dimension((l,) + tail) ** 2
    return total


def box_dim_lower_bound(parts: Partition, s: int, t: int, prec: int = 128):
    """Lower bound (n / (e*(s+t-1)))^n for d_lambda when the diagram fits in s x t.

    Every hook of a diagram inside an s x t box has length at most s+t-1,
    which together with Stirling's bound on n! gives the estimate.
    """
    parts = check_partition(parts)
    n = sum(parts)
    if len(parts) > s or (parts and parts[0] > t):
        raise ValueError(f"partition {parts} does not fit in a {s}x{t} box")
    if n == 0:
        return mp.mpf(1)
    with mp.workprec(prec):
        return mp.exp(n * (mp.log(n) - 1 - mp.log(s + t - 1)))


def near_square_partition(n: int) -> Partition:
    """Canonical almost-square diagram inside a box of side ceil(sqrt(n)).

    Rows are filled greedily: floor(n/k) full rows of length k = ceil(sqrt(n))
    plus one remainder row.  The result always fits in the k x k box and its
    dimension dominates (sqrt(n)/(4e))^n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    k = math.isqrt(n)
    if k * k < n:
        k += 1
    full, rest = divmod(n, k)
    parts = (k,) * full + ((rest,) if rest else ())
    return parts


def staircase_partition(m: int) -> Partition:
    """The triangular diagram (m, m-1, ..., 1), a partition of m(m+1)/2."""
    if m < 1:
        raise ValueError("m must be positive")
    return tuple(range(m, 0, -1))


def dominates(hi: Partition, lo: Partition) -> bool:
    """Dominance order: prefix sums of ``hi`` weakly majorize those of ``lo``.

    Equivalent to ``hi`` being reachable from ``lo`` by moving diagram boxes
    up and to the right.  Both partitions must have the same size.
    """
    if sum(hi) != sum(lo):
        raise ValueError("dominance compares partitions of the same n")
    acc_hi = acc_lo = 0
    for k in range(max(len(hi), len(lo))):
        acc_hi += hi[k] if k < len(hi) else 0
        acc_lo += lo[k] if k < len(lo) else 0
        if acc_hi < acc_lo:
            return False
    return True
