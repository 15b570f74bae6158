"""Exact spectra on S_n: class walks, transpose top with random and random
insertion.

A class walk holds with probability ``hold`` and otherwise steps uniformly
in one conjugacy class C, given by its cycle type ``cycles`` with fixed
points, as every walk rt, class:<parts> and lazy:<parts>:<eps> does;
``walks.WalkSpec`` parses the walk string and supplies both.  Convolution
by the step acts on each lambda-isotypic block as the scalar
beta_lambda = hold + (1 - hold) chi_lambda(C)/d_lambda, with multiplicity
d_lambda^2.  Eigenvalues are kept as exact rationals all the way; only the
distance evaluation layer converts to reals.

Many diagrams share an eigenvalue, so a spectrum is its ``Blocks``: the
nontrivial part grouped by distinct eigenvalue, (beta_b, m_b) pairs that
the distance layer sums over and that carry no walk name.  ``spectrum``
makes one pass over the diagrams, keyed by the integer content numerator of
``characters.class_numerator`` when C is one short cycle (rt, class:2/3/4,
lazy) and by the Murnaghan-Nakayama ratio otherwise, then one Fraction per
block.  ``diagram_eigenvalues`` yields the Murnaghan-Nakayama S_n rows one
diagram at a time, the reference for both keys.  ``alternating_blocks``
folds the S_n blocks of a walk on an even class to A_n: the sign diagram
joins the trivial block and every other multiplicity is halved, to an
integer, since a pair lambda/lambda' shares its eigenvalue and a
self-conjugate diagram has even dimension.  Which walks have an A_n
spectrum, and which fold they take, ``walks.WalkSpec.profile_blocks``
decides.

Transpose top with random and random insertion are not class walks, but
their spectra are known in closed form and come out as the same exact
``Blocks``, trivial block excluded: ``ttr_blocks`` prices each removable
corner of a diagram by the dimension of what is left (Jucys-Murphy), and
``ri_blocks`` sums the horizontal strips of each diagram weighted by
desarrangement counts (Dieker-Saliola); both take their corners from
``partitions.bead_moves`` and their dimensions from the branching rule.
``walks.WalkSpec.blocks`` is the one entry point that picks the source.

``ttr_bound_spectrum`` writes the transpose-top bound sum of ``bounds`` as
blocks of the same kind, with its factorial weights (``lemma_weight``) as
multiplicities, so that a profile draws it as it draws a walk.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator

from .characters import (
    CycleType,
    char_ratio,
    content_numerator,
    mn_character,
    support,
)
from .errors import ResourceGuardError
from .partitions import (
    Partition,
    bead_moves,
    beta_dimension,
    dimension,
    factorials,
    partitions,
)


# ---------------------------------------------------------------------------
# class walks
# ---------------------------------------------------------------------------

def walk_eigenvalue(parts: Partition, cycles: CycleType, hold: Fraction) -> Fraction:
    """Exact eigenvalue hold + (1 - hold) chi_lambda/d_lambda of the class
    walk on the lambda-isotypic block."""
    return hold + (1 - hold) * char_ratio(parts, cycles)


#: (eigenvalue, integer multiplicity) per distinct eigenvalue
Blocks = tuple[tuple[Fraction, int], ...]


def group_blocks(pairs: Iterable[tuple[Fraction, Fraction | int]]) -> Blocks:
    """Sum the multiplicities of equal eigenvalues, in order of first
    appearance, dropping blocks whose multiplicities cancel to zero.

    Raises ValueError if a summed multiplicity is not an integer.
    """
    totals: dict[Fraction, Fraction] = {}
    for beta, mult in pairs:
        totals[beta] = totals.get(beta, Fraction(0)) + mult
    blocks = []
    for beta, mult in totals.items():
        if mult.denominator != 1:
            raise ValueError(f"eigenvalue {beta} has non-integer multiplicity {mult}")
        if mult:
            blocks.append((beta, int(mult)))
    return tuple(blocks)


def diagram_eigenvalues(
    cycles: CycleType, hold: Fraction
) -> Iterator[tuple[Partition, Fraction, int]]:
    """(lambda, beta_lambda, d_lambda^2) for every diagram lambda of the class
    walk's degree, on S_n, by Murnaghan-Nakayama: the reference ``spectrum``
    is checked against."""
    for lam in partitions(sum(cycles)):
        yield lam, walk_eigenvalue(lam, cycles, hold), dimension(lam) ** 2


def alternating_blocks(blocks: Blocks) -> Blocks:
    """A_n blocks from the nontrivial S_n blocks of a walk on even classes:
    the sign diagram (eigenvalue 1, multiplicity 1) goes and every other
    multiplicity is halved."""
    without_sign = group_blocks(blocks + ((Fraction(1), -1),))
    return group_blocks((beta, Fraction(m, 2)) for beta, m in without_sign)


def spectrum(cycles: CycleType, hold: Fraction) -> Blocks:
    """The blocks on S_n of the class walk that holds with probability
    ``hold`` and otherwise steps in the class ``cycles`` (fixed points
    included, so n = sum(cycles)), every diagram but lambda = (n).

    One pass over the diagrams sums d_lambda^2 per key: the content
    numerator (n)_k chi_lambda/d_lambda when the class is one k-cycle, k <= 4
    (rt, class:2/3/4 and their lazy versions), otherwise chi_lambda/d_lambda
    by Murnaghan-Nakayama with one memo for the build.  Each key then maps
    to its eigenvalue hold + (1 - hold) key/(n)_k (denominator 1 on the
    Murnaghan-Nakayama path), one-to-one since 1 - hold > 0, so blocks keep
    the order in which their eigenvalue first appears.
    """
    n, k = sum(cycles), support(cycles)
    content = cycles[0] == k <= 4  # a single cycle of length k <= 4
    fact = factorials(n)
    memo: dict = {}
    totals: dict = {}
    diagrams = partitions(n)
    next(diagrams)  # lambda = (n), the trivial block
    for lam in diagrams:
        dim = beta_dimension(lam, fact)
        if content:
            key = content_numerator(lam, n, k)
        else:
            key = Fraction(mn_character(lam, cycles, memo, fact), dim)
        totals[key] = totals.get(key, 0) + dim * dim
    slope = Fraction(1 - hold, math.perm(n, k) if content else 1)
    return tuple((hold + slope * key, m) for key, m in totals.items())


# ---------------------------------------------------------------------------
# the walks that are not class walks: transpose top with random, random insertion
# ---------------------------------------------------------------------------

def ttr_blocks(n: int) -> Blocks:
    """The nontrivial blocks of transpose top with random on S_n.

    Its step is (e + J_n)/n for the Jucys-Murphy element J_n, the sum of the
    transpositions that move n.  On the Gelfand-Tsetlin basis of V_lambda,
    J_n acts by the content c of the box that holds n, so each removable
    corner of lambda gives eigenvalue (1 + c)/n with multiplicity
    d_lambda d_(lambda - corner) (Flatto-Odlyzko-Wales 1985).  The blocks
    are keyed by c; d_mu comes from one table over mu |- n - 1, and
    d_lambda is the sum of d_mu over the corners.
    """
    fact = factorials(n - 1)
    below = {mu: beta_dimension(mu, fact) for mu in partitions(n - 1)}
    totals: dict[int, int] = {}
    diagrams = partitions(n)
    next(diagrams)  # lambda = (n): its one corner is the trivial block
    for lam in diagrams:
        corners = [(lam[row - 1] - row, below[mu]) for row, mu, _ in bead_moves(lam, 1)]
        dim = sum(d for _, d in corners)
        for content, d in corners:
            totals[content] = totals.get(content, 0) + dim * d
    return tuple((Fraction(1 + c, n), m) for c, m in totals.items())


def ri_blocks(n: int) -> Blocks:
    """The nontrivial blocks of random insertion on S_n, 1/n^2 on each
    ordered pair (take a card, put it back at a uniform position).

    By Dieker-Saliola (Adv. Math. 323, 2018) the eigenvalues are indexed by
    lambda |- n and mu such that lambda/mu is a horizontal strip, with
    n^2 beta = (sum of the contents of lambda/mu) + (n(n+1) - m(m+1))/2 for
    m = |mu|, that is key(lambda) - key(mu) for key(mu) = (content sum of
    mu) + m(m+1)/2, and multiplicity d_lambda d^mu.  d^mu counts the
    desarrangement tableaux of shape mu, those whose first ascent is even.
    Taking the largest entry out of its corner keeps the first ascent unless
    the rest is the column 1..m-1, so d^mu is the sum of d^(mu - corner)
    over the corners of mu, except for a column (1^m), where it is 1 for
    even m and 0 for odd m.  Over the same corners d_mu is the sum of
    d_(mu - corner), and a corner of content c gives key(mu - corner) + c + m.
    One memo, local to the build, holds (key, d_mu, d^mu) for every mu of
    size at most n.  The blocks are keyed by n^2 beta.
    """
    memo: dict[Partition, tuple[int, int, int]] = {(): (0, 1, 1)}
    for size in range(1, n + 1):
        for mu in partitions(size):
            dim = desarrangements = 0
            for row, nu, _ in bead_moves(mu, 1):
                key, d, des = memo[nu]
                dim += d
                desarrangements += des
            if mu[0] == 1:
                desarrangements = 1 - size % 2
            # key from the last corner, of content mu_row - row
            memo[mu] = (key + mu[row - 1] - row + size, dim, desarrangements)
    totals: dict[int, int] = {}
    diagrams = partitions(n)
    next(diagrams)  # lambda = (n): d^mu = 0 for mu = (k), k >= 1, so only the trivial block
    for lam in diagrams:
        top, dim, _ = memo[lam]
        strips = itertools.product(*(range(low, high + 1)
                                     for high, low in zip(lam, lam[1:] + (0,))))
        for mu in strips:
            key, _, desarrangements = memo[mu if mu[-1] else mu[:-1]]
            if desarrangements:
                totals[top - key] = totals.get(top - key, 0) + dim * desarrangements
    return tuple((Fraction(key, n * n), m) for key, m in totals.items())


# ---------------------------------------------------------------------------
# the transpose-top bound sum
# ---------------------------------------------------------------------------

#: largest n of a bound sum or lemma term table: their cost grows faster
#: than n^2, and n = 2000 takes about a second
MAX_BOUND_N = 2000


def check_bound_n(n: int) -> None:
    """The cap on bound sums and term tables, checked before any weight."""
    if n > MAX_BOUND_N:
        raise ResourceGuardError(f"bound sums are capped at n <= {MAX_BOUND_N}, got n = {n}")


def lemma_weight(n: int, j: int) -> int:
    """(n!/(n-j)!)^2 / j! = C(n, j) n!/(n-j)!, exactly."""
    return math.comb(n, j) * math.perm(n, j)


def ttr_bound_spectrum(n: int) -> Blocks:
    """Blocks whose d2^2 is the bound sum sum_{j=1}^{n-1} (n!/(n-j)!)^2 (1/j!) b_j,
    with b_j = (1 - j/n)^(2t) in discrete and e^(-2tj/n) in continuous time:
    eigenvalue 1 - j/n with the integer multiplicity C(n, j) n!/(n-j)!."""
    if n < 1:
        raise ValueError("need n >= 1")
    check_bound_n(n)
    return tuple((Fraction(n - j, n), lemma_weight(n, j)) for j in range(1, n))
