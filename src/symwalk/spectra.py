"""Walk measures constant on conjugacy classes and their exact spectra.

For a class measure q the convolution operator on l2(G) acts on each
lambda-isotypic block as the scalar

    beta_lambda = sum_j q(C_j) * chi_lambda(c_j) / d_lambda,

with multiplicity d_lambda^2.  Eigenvalues are kept as exact rationals all
the way; only the distance evaluation layer converts to reals.

Many diagrams share an eigenvalue, so a ``Spectrum`` is the nontrivial
part grouped by distinct eigenvalue (``Spectrum.blocks``), which is what
the distance layer sums over.  For a walk that holds or moves by one short
cycle class (rt, class:2/3/4, lazy) ``spectrum`` groups the diagrams by the
integer content numerator of ``characters.class_numerator`` and makes one
Fraction per block; every other measure goes through Murnaghan-Nakayama.
``diagram_eigenvalues`` yields the Murnaghan-Nakayama S_n rows one diagram
at a time, the reference for both.  ``alternating_blocks`` folds the blocks of a walk
on even classes to A_n: the sign diagram joins the trivial block and every
other multiplicity is halved, to an integer, since a pair lambda/lambda'
shares its eigenvalue and a self-conjugate diagram has even dimension.
The odd-class A_n profile is the same fold on the blocks of q*q.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .characters import (
    CycleType,
    char_ratio,
    check_cycle_type,
    content_numerator,
    is_even_class,
    support,
)
from .partitions import (
    Partition,
    beta_dimension,
    check_partition,
    dimension,
    factorials,
    partitions,
)


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClassMeasure:
    """A probability measure on S_n constant on conjugacy classes.

    ``atoms`` maps each cycle type to the total weight of its class.  Class
    measures are automatically symmetric (every class is closed under
    inversion), so the walks they drive are reversible.
    """

    n: int
    atoms: tuple[tuple[CycleType, Fraction], ...]
    name: str = "walk"

    def __post_init__(self) -> None:
        total = Fraction(0)
        for cycles, weight in self.atoms:
            check_cycle_type(cycles)
            if sum(cycles) != self.n:
                raise ValueError(f"atom {cycles} has degree {sum(cycles)} != {self.n}")
            if weight < 0:
                raise ValueError("weights must be non-negative")
            total += weight
        if total != 1:
            raise ValueError(f"weights sum to {total}, expected 1")

    @property
    def even_support(self) -> bool:
        """True iff every atom class lies in A_n (the identity counts as even)."""
        return all(is_even_class(c) for c, w in self.atoms if w > 0)


def random_transposition_measure(n: int) -> ClassMeasure:
    """Pick two positions independently uniformly and swap: mass 1/n at the
    identity, 2/n^2 at each transposition (class weight (n-1)/n)."""
    if n < 2:
        raise ValueError("random transposition needs n >= 2")
    atoms = (
        ((1,) * n, Fraction(1, n)),
        ((2,) + (1,) * (n - 2), Fraction(n - 1, n)),
    )
    return ClassMeasure(n, atoms, name="rt")


def uniform_class_measure(cycles: CycleType) -> ClassMeasure:
    """Uniform measure on one non-identity conjugacy class."""
    cycles = check_cycle_type(cycles)
    if support(cycles) == 0:
        raise ValueError("the identity class does not drive a walk")
    name = "class:" + ",".join(str(c) for c in cycles if c > 1)
    return ClassMeasure(sum(cycles), ((cycles, Fraction(1)),), name=name)


def lazy_class_measure(cycles: CycleType, eps: Fraction) -> ClassMeasure:
    """Hold with probability eps, otherwise take a uniform class step."""
    eps = Fraction(eps)
    if not 0 < eps < 1:
        raise ValueError("eps must lie strictly between 0 and 1")
    step = uniform_class_measure(cycles)
    ((cycles, _),) = step.atoms
    name = "lazy" + step.name.removeprefix("class") + f":{eps}"
    return ClassMeasure(step.n, (((1,) * step.n, eps), (cycles, 1 - eps)), name=name)


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def walk_eigenvalue(q: ClassMeasure, parts: Partition) -> Fraction:
    """Exact eigenvalue of convolution by q on the lambda-isotypic block."""
    parts = check_partition(parts)
    if sum(parts) != q.n:
        raise ValueError(f"partition of {sum(parts)} does not match degree {q.n}")
    beta = Fraction(0)
    for cycles, weight in q.atoms:
        if weight == 0:
            continue
        if support(cycles) == 0:
            beta += weight
        else:
            beta += weight * char_ratio(parts, cycles)
    return beta


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


@dataclass(frozen=True)
class Spectrum:
    """The nontrivial eigenvalues of a walk on S_n or A_n, grouped by
    distinct eigenvalue (every diagram but the trivial lambda = (n))."""

    n: int
    group: str  # "sn" | "an"
    name: str
    blocks: Blocks


def diagram_eigenvalues(q: ClassMeasure) -> Iterator[tuple[Partition, Fraction, int]]:
    """(lambda, beta_lambda, d_lambda^2) for every diagram lambda of n, on S_n,
    by Murnaghan-Nakayama: the reference ``spectrum`` is checked against."""
    for lam in partitions(q.n):
        yield lam, walk_eigenvalue(q, lam), dimension(lam) ** 2


def alternating_blocks(blocks: Blocks) -> Blocks:
    """A_n blocks from the nontrivial S_n blocks of a walk on even classes:
    the sign diagram (eigenvalue 1, multiplicity 1) goes and every other
    multiplicity is halved."""
    without_sign = group_blocks(blocks + ((Fraction(1), -1),))
    return group_blocks((beta, Fraction(m, 2)) for beta, m in without_sign)


def _single_cycle_walk(q: ClassMeasure) -> tuple[Fraction, Fraction, int] | None:
    """(w0, w1, k) when q holds with weight w0 and otherwise moves by one
    k-cycle class, k <= 4, with weight w1 > 0; else None.  Such a walk has
    the eigenvalue w0 + w1 N/(n)_k with N the integer content numerator."""
    hold = Fraction(0)
    moves = []
    for cycles, weight in q.atoms:
        if support(cycles) == 0:
            hold += weight
        elif weight:
            moves.append((cycles, weight))
    if len(moves) != 1:
        return None
    ((cycles, weight),) = moves
    k = cycles[0]
    if k > 4 or support(cycles) != k:
        return None
    return hold, weight, k


def spectrum(q: ClassMeasure, group: str = "sn") -> Spectrum:
    """The grouped spectrum of q on S_n or A_n, without lambda = (n).

    One pass over the diagrams sums d_lambda^2 per key: the content
    numerator of a single short cycle class (rt, class:2/3/4 and their lazy
    versions), otherwise the Murnaghan-Nakayama eigenvalue.  Blocks keep
    the order in which their eigenvalue first appears.
    """
    if group not in ("sn", "an"):
        raise ValueError(f"unknown group {group!r}")
    if group == "an" and not q.even_support:
        raise ValueError("A_n spectra need a measure supported on even classes")
    n = q.n
    fact = factorials(n)
    single_cycle = _single_cycle_walk(q)
    totals: dict = {}
    diagrams = partitions(n)
    next(diagrams)  # lambda = (n), the trivial block
    for lam in diagrams:
        if single_cycle is None:
            key = walk_eigenvalue(q, lam)
        else:
            key = content_numerator(lam, n, single_cycle[2])
        totals[key] = totals.get(key, 0) + beta_dimension(lam, fact) ** 2
    if single_cycle is not None:
        hold, weight, k = single_cycle
        falling = math.perm(n, k)
        totals = {hold + weight * Fraction(key, falling): m for key, m in totals.items()}
    blocks = tuple(totals.items())
    if group == "an":
        blocks = alternating_blocks(blocks)
    return Spectrum(n, group, q.name, blocks)


# ---------------------------------------------------------------------------
# transpose top with random
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransposeTopData:
    """Eigenvalues of the transpose-top operator restricted to one diagram.

    sigma_i = lam_i - i are the eigenvalues of M = sum_i rho((1, i)); the walk
    operator (M + I)/n then has eigenvalues alpha_i = (sigma_i + 1)/n, with
    dominant alpha_1 = lam_1/n.  Multiplicities are not tracked here; exact
    transpose-top distances go through the brute-force oracle instead.
    """

    partition: Partition
    sigma: tuple[int, ...]
    alpha: tuple[Fraction, ...]

    @property
    def alpha1(self) -> Fraction:
        return self.alpha[0]


def transpose_top_sigma(parts: Partition) -> TransposeTopData:
    parts = check_partition(parts)
    if not parts:
        raise ValueError("need a non-empty partition")
    n = sum(parts)
    sigma = tuple(lam_i - i for i, lam_i in enumerate(parts, start=1))
    alpha = tuple(Fraction(s + 1, n) for s in sigma)
    return TransposeTopData(parts, sigma, alpha)
