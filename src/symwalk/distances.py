"""l2 (chi-square) distance profiles from exact spectra.

For a walk whose nontrivial spectrum has distinct eigenvalues beta_b with
integer multiplicities m_b (the grouped ``Spectrum.blocks``),

    d2(q^(t), u)^2 = sum_b m_b beta_b^(2t)          (discrete time)
    d2(h_t, u)^2   = sum_b m_b exp(-2t(1 - beta_b)) (continuous time)

One evaluator, ``_l2_curve``, computes both over a whole time grid.  Terms
span hundreds of orders of magnitude (multiplicities d_lambda^2 against
exp(-2t)), so each term is assembled in log space and summed as
arbitrary-exponent mpmath reals under a caller-chosen working precision
(default 128 bits, i.e. well past the 80-bit requirement; per-term relative
error is ~2^-prec, far below the documented 1e-12 budget).  log m_b and
log|beta_b| (or 1 - beta_b) are computed once per block per call, so every
further time point costs one exp per distinct eigenvalue.  Values are
returned as mpf so profile tails below the float64 underflow threshold
survive to the output layer.

``l2_discrete``/``l2_continuous`` are one-point wrappers and
``l2_single_term_lower`` a one-block one.  ``spectrum_profile`` labels a
curve's rows; the odd-class A_n profile is the same evaluator on the
blocks of q*q, folded by ``spectra.alternating_blocks``.  The definitional
distances of oracle-scale distributions live here too but load numpy only
when called, so the spectral path never imports numpy or the oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

import mpmath
from mpmath import mp

from .characters import is_even_class
from .partitions import Partition, check_partition, dimension
from .spectra import (
    Blocks,
    ClassMeasure,
    Spectrum,
    alternating_blocks,
    group_blocks,
    spectrum,
    walk_eigenvalue,
)

if TYPE_CHECKING:
    from .group_oracle import GroupDistribution

DEFAULT_PREC = 128
MODES = ("discrete", "continuous")


def _frac(x: Fraction) -> mpmath.mpf:
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _l2_curve(blocks: Blocks, times, mode: str, prec: int) -> list[mpmath.mpf]:
    """d2 at every time in ``times`` from a grouped nontrivial spectrum."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    out = []
    with mp.workprec(prec):
        if mode == "discrete":
            # beta = 0 blocks only contribute at t = 0 (0^0 = 1)
            zero_mass = sum(m for beta, m in blocks if beta == 0)
            terms = [
                (mp.log(m), 2 * (mp.log(abs(beta.numerator)) - mp.log(beta.denominator)))
                for beta, m in blocks
                if beta != 0
            ]
            for t in times:
                if t < 0 or t != int(t):
                    raise ValueError("discrete time must be a non-negative integer")
                t = int(t)
                total = mp.mpf(zero_mass if t == 0 else 0)
                for log_m, log_beta_sq in terms:
                    total += mp.exp(log_m + t * log_beta_sq)
                out.append(mp.sqrt(total))
        else:
            # a beta = -1 block (odd-class periodicity witness) contributes
            # e^(-4t), which the gap 1 - beta handles with no special casing
            terms = [(mp.log(m), 2 * _frac(1 - beta)) for beta, m in blocks]
            for t in times:
                if t < 0:
                    raise ValueError("continuous time must be non-negative")
                tt = mp.mpf(t)
                total = mp.mpf(0)
                for log_m, twice_gap in terms:
                    total += mp.exp(log_m - tt * twice_gap)
                out.append(mp.sqrt(total))
    return out


def l2_discrete(spec: Spectrum, t: int, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """d2(q^(t), u) from the spectrum at integer time t >= 0."""
    return _l2_curve(spec.blocks, [t], "discrete", prec)[0]


def l2_continuous(spec: Spectrum, t, prec: int = DEFAULT_PREC) -> mpmath.mpf:
    """d2(h_t, u) from the spectrum at real time t >= 0."""
    return _l2_curve(spec.blocks, [t], "continuous", prec)[0]


def l2_single_term_lower(
    parts: Partition,
    q: ClassMeasure,
    t,
    mode: str = "continuous",
    prec: int = DEFAULT_PREC,
) -> mpmath.mpf:
    """One representation's contribution d * |beta|^t (discrete) or
    d * exp(-t(1-beta)) (continuous); always a lower bound for the full d2."""
    parts = check_partition(parts)
    if parts == (q.n,):
        raise ValueError("the trivial block is excluded from distance bounds")
    block = (walk_eigenvalue(q, parts), dimension(parts) ** 2)
    return _l2_curve((block,), [t], mode, prec)[0]


# ---------------------------------------------------------------------------
# definitional distances for oracle-scale distributions
# ---------------------------------------------------------------------------

def _check_normalized(dist: GroupDistribution) -> None:
    if dist.exact:
        if dist.total() != 1:
            raise ValueError(f"distribution sums to {dist.total()}, expected 1")
    elif abs(dist.total() - 1.0) > 1e-12:
        raise ValueError(f"distribution sums to {dist.total()!r}, expected 1")


def chi_square_of(dist: GroupDistribution, normalized: bool = True) -> float:
    """Definitional d2: sqrt(|G| * sum_x |q(x) - 1/|G||^2).

    Pass ``normalized=False`` for sub-probability inputs such as truncated
    Poisson mixtures (the tiny mass defect is part of the approximation).
    """
    if normalized:
        _check_normalized(dist)
    g = math.factorial(dist.n)
    if dist.exact:
        u = Fraction(1, g)
        total = sum(((v - u) ** 2 for v in dist.values), Fraction(0))
        return math.sqrt(g * total.numerator / total.denominator)
    import numpy as np

    arr = np.asarray(dist.values)
    return float(math.sqrt(g * float(np.sum((arr - 1.0 / g) ** 2))))


def tv_of(dist: GroupDistribution, normalized: bool = True) -> float:
    """Total variation distance to uniform: (1/2) sum |q(x) - 1/|G||."""
    if normalized:
        _check_normalized(dist)
    g = math.factorial(dist.n)
    if dist.exact:
        u = Fraction(1, g)
        total = sum((abs(v - u) for v in dist.values), Fraction(0))
        return float(total) / 2.0
    import numpy as np

    arr = np.asarray(dist.values)
    return float(np.sum(np.abs(arr - 1.0 / g))) / 2.0


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProfileRow:
    walk: str
    group: str
    n: int
    t: float
    d2: mpmath.mpf

    @property
    def log10_d2_sq(self) -> mpmath.mpf:
        if self.d2 == 0:
            return mp.mpf("-inf")
        return 2 * mp.log10(self.d2)


def spectrum_profile(
    spec: Spectrum, mode: str, times, prec: int = DEFAULT_PREC
) -> list[ProfileRow]:
    """Distance curve of a spectrum over a time grid, one row per time."""
    times = list(times)
    cast = int if mode == "discrete" else float
    return [
        ProfileRow(spec.name, spec.group, spec.n, cast(t), d2)
        for t, d2 in zip(times, _l2_curve(spec.blocks, times, mode, prec))
    ]


def class_walk_profile(
    q: ClassMeasure,
    group: str,
    mode: str,
    times,
    prec: int = DEFAULT_PREC,
) -> list[ProfileRow]:
    """Distance curve of a class-measure walk over a time grid.

    Conventions for odd classes (walks that alternate between cosets of A_n):

    * continuous time is aperiodic, so the distance is always taken on the
      full symmetric group and rows are labelled ``sn`` whatever was asked;
    * discrete time with ``group="an"`` reports the walk driven by q*q on
      A_n (row time t means 2t raw steps), followed by the raw alternating
      S_n sequence at the same grid for transparency.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if group not in ("sn", "an"):
        raise ValueError(f"unknown group {group!r}")
    if group == "sn" or q.even_support:
        return spectrum_profile(spectrum(q, group), mode, times, prec)
    spec_sn = spectrum(q, "sn")
    if mode == "continuous":
        return spectrum_profile(spec_sn, mode, times, prec)
    if any(is_even_class(c) for c, w in q.atoms if w > 0):
        # a mixed measure (identity or even atoms) never confines the
        # walk to one coset, so the q*q restriction does not apply
        raise ValueError("A_n discrete profiles need a pure odd-class measure")
    times = list(times)  # the fold reads the grid twice
    # q*q is an even walk: the sign diagram's -1 squares to the 1 the fold removes
    squared = group_blocks((beta * beta, m) for beta, m in spec_sn.blocks)
    spec_an = Spectrum(q.n, "an", q.name, alternating_blocks(squared))
    rows = spectrum_profile(spec_an, mode, times, prec)
    return rows + spectrum_profile(spec_sn, mode, times, prec)
