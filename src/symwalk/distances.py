"""l2 (chi-square) distance profiles from exact spectra.

A spectrum is its blocks: the distinct nontrivial eigenvalues beta_b with
their integer multiplicities m_b (``spectra.Blocks``).  From them alone,

    d2(q^(t), u)^2 = sum_b m_b beta_b^(2t)          (discrete time)
    d2(h_t, u)^2   = sum_b m_b exp(-2t(1 - beta_b)) (continuous time)

One evaluator, ``l2_curve``, computes both over a whole time grid with no
transcendental call per term.  Terms span hundreds of orders of magnitude
(multiplicities d_lambda^2 against exp(-2t)), so powers are arbitrary-
exponent binary reals (raw ``mpmath.libmp``).  In discrete time beta_b^2
is an exact rational and each block's beta_b^(2t) is carried along the
sorted times by one power (beta_b^2)^(dt) per step.  In continuous time
every gap 1 - beta_b is j_b/D over the common denominator D, so
exp(-2t(1 - beta_b)) = x^(j_b) with x = exp(-2t/D): one exp per time
point, then integer powers walked in ascending j_b.  The m_b-weighted
terms, all non-negative, are summed as integers in fixed point below the
largest one.  Everything runs at the caller's precision plus guard bits
for the largest exponent (t or j_b) and the number of terms and is rounded
once, at the final square root, so every d2 (and d2^2) has relative error
at most 2^(2 - prec) whatever t is (default 128 bits, far below the
documented 1e-12 budget).  Values are returned as mpf so profile tails
below the float64 underflow threshold survive to the output layer.

``l2_discrete``/``l2_continuous`` are one-point wrappers and
``l2_single_term_lower`` a one-block one.  ``spectrum_profile`` turns a
curve into rows of (group, t, d2); ``walks.WalkSpec.profile_blocks``
decides which blocks a profile draws under which group label, and the CLI
names the walk and n.  The definitional distances of oracle-scale
distributions live here too but load numpy only when called, so the
spectral path never imports numpy or the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import mpmath
from mpmath import libmp, mp
from mpmath.libmp import (
    fone,
    from_man_exp,
    from_rational,
    fzero,
    mpf_mul,
    mpf_pow_int,
    mpf_sqrt,
    round_nearest,
)

from .characters import CycleType
from .partitions import Partition, check_partition, dimension
from .spectra import Blocks, walk_eigenvalue

if TYPE_CHECKING:
    from .group_oracle import GroupDistribution

DEFAULT_PREC = 128
MODES = ("discrete", "continuous")


def check_times(times, mode: str) -> list:
    """The time grid as a list, after checking every time against ``mode``:
    discrete times are non-negative integers, continuous ones non-negative
    and finite."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    times = list(times)
    for t in times:
        if mode == "discrete" and not (0 <= t < math.inf and t == int(t)):
            raise ValueError(f"discrete time {t} must be a non-negative integer")
        if mode == "continuous" and not 0 <= t < math.inf:
            raise ValueError(f"continuous time {t} must be non-negative and finite")
    return times


# guard bits on top of the exponent and term-count bit lengths: they absorb
# the few roundings of each power, product and sum that the bit lengths
# do not count
_GUARD_MARGIN = 10
# discrete steps whose power tables are kept at once: an auto grid
# alternates between two or three steps, and memory stays O(blocks)
_STEP_TABLES = 8


def _working_prec(prec: int, max_exponent: int, n_terms: int) -> int:
    return prec + _GUARD_MARGIN + max_exponent.bit_length() + n_terms.bit_length()


def _positive_sum(ms, powers, wp: int) -> tuple:
    """sum_b m_b p_b for positive integers m_b and non-negative raw mpf p_b,
    as a raw mpf.  The sum is fixed point at 2^-wp of the largest term, so
    each term is cut by less than one unit of that and n terms by n units."""
    terms = [(m * man, exp) for m, (_, man, exp, _) in zip(ms, powers) if man]
    if not terms:
        return fzero
    base = max(man.bit_length() + exp for man, exp in terms) - wp
    return from_man_exp(
        sum(man << (exp - base) if exp >= base else man >> (base - exp) for man, exp in terms),
        base)


def _discrete_sums(blocks: Blocks, times: list[int], prec: int):
    """sum_b m_b beta_b^(2t) as a raw mpf for each of the ascending distinct
    ``times``: each beta_b^(2t) is carried from the previous time by one
    (beta_b^2)^dt."""
    wp = _working_prec(prec, max(times, default=0), len(blocks))
    squares = [from_rational(b.numerator ** 2, b.denominator ** 2, wp, round_nearest)
               for b, _ in blocks]
    ms = [m for _, m in blocks]
    powers = [fone] * len(blocks)
    tables: dict[int, list] = {}
    prev = 0
    for t in times:
        dt = t - prev
        if dt:
            step = tables.get(dt)
            if step is None:
                if len(tables) == _STEP_TABLES:
                    tables.clear()
                step = tables[dt] = [mpf_pow_int(sq, dt, wp, round_nearest) for sq in squares]
            # a beta = 0 block becomes 0 here: 0^0 = 1 only at t = 0
            powers = [mpf_mul(p, s, wp, round_nearest) for p, s in zip(powers, step)]
            prev = t
        yield _positive_sum(ms, powers, wp)


def _continuous_sums(blocks: Blocks, times: list[Fraction], prec: int):
    """sum_b m_b exp(-2t(1 - beta_b)) as a raw mpf for each time.  With the
    gaps 1 - beta_b = j_b/D over their common denominator D, each term is
    m_b x^(j_b) for x = exp(-2t/D); walked in ascending j_b, each power is
    the previous one times a cached x^(dj)."""
    # a beta = -1 block (odd-class periodicity witness) has gap 2: the gaps
    # need no special casing
    gaps = sorted((1 - beta, m) for beta, m in blocks)
    denominator = math.lcm(*(gap.denominator for gap, _ in gaps))
    js = [gap.numerator * (denominator // gap.denominator) for gap, _ in gaps]
    ms = [m for _, m in gaps]
    wp = _working_prec(prec, max(js, default=0), len(blocks))
    for t in times:
        arg = -2 * t / denominator
        # exp reads its argument to absolute precision 2^-wp: keep that many
        # fractional bits beyond the integer part
        magnitude = int(-arg).bit_length()
        x = libmp.mpf_exp(
            from_rational(arg.numerator, arg.denominator, wp + magnitude, round_nearest),
            wp, round_nearest)
        steps: dict[int, tuple] = {}
        power, prev, powers = fone, 0, []
        for j in js:
            if j != prev:
                dj = j - prev
                step = steps.get(dj)
                if step is None:
                    step = steps[dj] = mpf_pow_int(x, dj, wp, round_nearest)
                power = mpf_mul(power, step, wp, round_nearest)
                prev = j
            powers.append(power)
        yield _positive_sum(ms, powers, wp)


def l2_curve(blocks: Blocks, times, mode: str, prec: int) -> list[mpmath.mpf]:
    """d2 at every time in ``times`` (any order, repeats allowed) from a
    grouped nontrivial spectrum, each with relative error <= 2^(2 - prec)."""
    times = check_times(times, mode)
    if mode == "discrete":
        keys = [int(t) for t in times]
        sums = _discrete_sums
    else:
        keys = [Fraction(t) for t in times]
        sums = _continuous_sums
    distinct = sorted(set(keys))
    value = {
        t: mp.make_mpf(mpf_sqrt(s, prec, round_nearest))
        for t, s in zip(distinct, sums(blocks, distinct, prec))
    }
    return [value[t] for t in keys]


def l2_discrete(blocks: Blocks, t: int, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """d2(q^(t), u) from the blocks at integer time t >= 0."""
    return l2_curve(blocks, [t], "discrete", prec)[0]


def l2_continuous(blocks: Blocks, t, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """d2(h_t, u) from the blocks at real time t >= 0."""
    return l2_curve(blocks, [t], "continuous", prec)[0]


def l2_single_term_lower(
    parts: Partition,
    cycles: CycleType,
    hold: Fraction,
    t,
    mode: str = "continuous",
    prec: int = DEFAULT_PREC,
) -> mpmath.mpf:
    """One representation's contribution d * |beta|^t (discrete) or
    d * exp(-t(1-beta)) (continuous) for the class walk of ``cycles`` and
    ``hold`` (``spectra.spectrum``); always a lower bound for the full d2."""
    parts = check_partition(parts)
    if parts == (sum(cycles),):
        raise ValueError("the trivial block is excluded from distance bounds")
    block = (walk_eigenvalue(parts, cycles, hold), dimension(parts) ** 2)
    return l2_curve((block,), [t], mode, prec)[0]


# ---------------------------------------------------------------------------
# definitional distances for oracle-scale distributions
# ---------------------------------------------------------------------------

def _check_normalized(dist: GroupDistribution) -> None:
    if abs(dist.total() - 1.0) > 1e-12:
        raise ValueError(f"distribution sums to {dist.total()!r}, expected 1")


def chi_square_of(dist: GroupDistribution, normalized: bool = True) -> float:
    """Definitional d2: sqrt(|G| * sum_x |q(x) - 1/|G||^2).

    Pass ``normalized=False`` for sub-probability inputs such as truncated
    Poisson mixtures (the tiny mass defect is part of the approximation).
    """
    if normalized:
        _check_normalized(dist)
    g = math.factorial(dist.n)
    import numpy as np

    return float(math.sqrt(g * float(np.sum((dist.values - 1.0 / g) ** 2))))


def tv_of(dist: GroupDistribution, normalized: bool = True) -> float:
    """Total variation distance to uniform: (1/2) sum |q(x) - 1/|G||."""
    if normalized:
        _check_normalized(dist)
    g = math.factorial(dist.n)
    import numpy as np

    return float(np.sum(np.abs(dist.values - 1.0 / g))) / 2.0


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileRow:
    group: str
    t: float
    d2: mpmath.mpf

    @property
    def log10_d2_sq(self) -> mpmath.mpf:
        """2 log10(d2) at 113 bits, so its float is correctly rounded."""
        if self.d2 == 0:
            return mp.mpf("-inf")
        with mp.workprec(113):
            return 2 * mp.log10(self.d2)


def spectrum_profile(
    blocks: Blocks, group: str, mode: str, times, prec: int = DEFAULT_PREC
) -> list[ProfileRow]:
    """Distance curve of the blocks over a time grid, one row per time."""
    times = list(times)
    cast = int if mode == "discrete" else float
    return [ProfileRow(group, cast(t), d2)
            for t, d2 in zip(times, l2_curve(blocks, times, mode, prec))]
