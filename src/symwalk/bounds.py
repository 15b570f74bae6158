"""Term-by-term evaluation of the explicit analytic bounds.

Each theorem's inequality chain is split into its named summands (the
bound terms A_j, B_j and their partial sums phi_0, phi_1, phi_2, gamma) so
every link can be checked numerically.  Factorial ratios are evaluated as
log-gamma differences at the working precision, once per (n, precision)
and shared by every term family and time point; the exact big-integer
cross-check for small n lives in the test suite.

Naming note: the fixed-point sets {phi >= j} and the bound summands are
both called A_j in the usual notation; here the sets live behind
``matching_tail`` and the summands behind ``a_terms``/``b_terms``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath import mp

from .distances import DEFAULT_PREC, l2_curve
from .spectra import Spectrum, random_transposition_measure, spectrum, uniform_class_measure


@lru_cache(maxsize=64)
def _log_weights(n: int, prec: int) -> tuple[mpmath.mpf, ...]:
    """log of (n!/(n-j)!)^2 / j! at ``prec`` bits, indexed by j = 0..n."""
    with mp.workprec(prec):
        log_fact = [mp.loggamma(k + 1) for k in range(n + 1)]
        return tuple(2 * (log_fact[n] - log_fact[n - j]) - log_fact[j] for j in range(n + 1))


def _log_frac(x: Fraction) -> mpmath.mpf:
    if x <= 0:
        raise ValueError("log of non-positive rational")
    return mp.log(x.numerator) - mp.log(x.denominator)


# ---------------------------------------------------------------------------
# random transposition, discrete time
# ---------------------------------------------------------------------------

@dataclass
class RtDiscreteTerms:
    """Discrete-time bound terms at the reference exponent n*log(n).

    a_terms[j] = (n!/(n-j)!)^2 (1/j!) (1 - (2j/n)(1-(j-1)/n))^(n log n) for
    1 <= j <= n/2, b_terms[j] analogous with base (1 - j/n), n/2 <= j <= n.
    phi_0 sums a over j <= floor(n/4), phi_1 over ceil(n/4)..floor(n/2),
    phi_2 sums b; a shared boundary index is counted in both ranges.
    """

    n: int
    a_terms: dict = field(default_factory=dict)
    b_terms: dict = field(default_factory=dict)
    phi0: mpmath.mpf = mp.mpf(0)
    phi1: mpmath.mpf = mp.mpf(0)
    phi2: mpmath.mpf = mp.mpf(0)
    #: 2 + phi1 + phi2, the computable stand-in for the B^2 constant
    b_square_bound: mpmath.mpf = mp.mpf(2)


def rt_discrete_terms(n: int, prec: int = DEFAULT_PREC) -> RtDiscreteTerms:
    if n < 14:
        raise ValueError("discrete-time term bounds are stated for n >= 14")
    out = RtDiscreteTerms(n)
    log_w = _log_weights(n, prec)
    with mp.workprec(prec):
        exponent = n * mp.log(n)
        for j in range(1, n // 2 + 1):
            base = 1 - Fraction(2 * j, n) * (1 - Fraction(j - 1, n))
            out.a_terms[j] = mp.exp(log_w[j] + exponent * _log_frac(base))
        for j in range(-(-n // 2), n + 1):
            if j == n:
                out.b_terms[j] = mp.mpf(0)
                continue
            out.b_terms[j] = mp.exp(log_w[j] + exponent * _log_frac(Fraction(n - j, n)))
        out.phi0 = mp.fsum(out.a_terms[j] for j in range(1, n // 4 + 1))
        out.phi1 = mp.fsum(out.a_terms[j] for j in range(-(-n // 4), n // 2 + 1))
        out.phi2 = mp.fsum(out.b_terms.values())
        out.b_square_bound = 2 + out.phi1 + out.phi2
    return out


# ---------------------------------------------------------------------------
# random transposition, continuous time
# ---------------------------------------------------------------------------

@dataclass
class RtContinuousTerms:
    """Continuous-time analogues with exponent -2j log(n) (1 - j/n) - 2j.

    b_terms carry the squared factorial ratio (n!/(n-j)!)^2 exactly like
    a_terms; the consecutive-term ratio (n-j)^2/(j+1) * e^(-log n - 2) used
    to sum them, and the boundary identity b[n/2] = a[n/2] at even n, both
    require the square.
    """

    n: int
    a_terms: dict = field(default_factory=dict)
    b_terms: dict = field(default_factory=dict)
    sum_a_low: mpmath.mpf = mp.mpf(0)   # j = 1 .. floor(n/4)
    sum_a_mid: mpmath.mpf = mp.mpf(0)   # j = ceil(n/4) .. floor(n/2)
    gamma: mpmath.mpf = mp.mpf(0)       # j = ceil(n/2) .. n


def rt_continuous_terms(n: int, prec: int = DEFAULT_PREC) -> RtContinuousTerms:
    if n < 10:
        raise ValueError("continuous-time term bounds are stated for n >= 10")
    out = RtContinuousTerms(n)
    log_w = _log_weights(n, prec)
    with mp.workprec(prec):
        logn = mp.log(n)
        for j in range(1, n // 2 + 1):
            out.a_terms[j] = mp.exp(log_w[j] - 2 * j * logn * (1 - mp.mpf(j) / n) - 2 * j)
        for j in range(-(-n // 2), n + 1):
            out.b_terms[j] = mp.exp(log_w[j] - j * logn - 2 * j)
        out.sum_a_low = mp.fsum(out.a_terms[j] for j in range(1, n // 4 + 1))
        out.sum_a_mid = mp.fsum(out.a_terms[j] for j in range(-(-n // 4), n // 2 + 1))
        out.gamma = mp.fsum(out.b_terms.values())
    return out


# ---------------------------------------------------------------------------
# transpose top with random
# ---------------------------------------------------------------------------

def ttr_bound_spectrum(n: int) -> Spectrum:
    """Blocks whose d2^2 is the bound sum sum_{j=1}^{n-1} (n!/(n-j)!)^2 (1/j!) b_j,
    with b_j = (1 - j/n)^(2t) in discrete and e^(-2tj/n) in continuous time:
    eigenvalue 1 - j/n with the integer multiplicity C(n, j) n!/(n-j)!."""
    if n < 1:
        raise ValueError("need n >= 1")
    blocks = tuple((Fraction(n - j, n), math.comb(n, j) * math.perm(n, j)) for j in range(1, n))
    return Spectrum(n, "sn", "ttr-bound", blocks)


# ---------------------------------------------------------------------------
# theorem reproduction
# ---------------------------------------------------------------------------

@dataclass
class BoundReport:
    """One ``verify`` verdict: does ``computed <= guaranteed`` hold?

    ``t`` is a theorem's threshold time; ``tv_inequality`` is the oracle's
    side condition 2 TV <= chi-square, which must hold as well when present.
    """

    name: str
    n: int
    c: float | None
    guaranteed: mpmath.mpf | float
    computed: mpmath.mpf | float
    t: float | None = None
    tv_inequality: bool | None = None

    @property
    def passed(self) -> bool:
        return bool(self.computed <= self.guaranteed) and self.tv_inequality is not False

    def as_dict(self) -> dict:
        out = {
            "name": self.name,
            "n": self.n,
            "c": self.c,
            "guaranteed": float(self.guaranteed),
            "computed": float(self.computed),
            "pass": self.passed,
        }
        if self.t is not None:
            out["t"] = self.t
            out["details"] = {"threshold_time": self.t}
        if self.tv_inequality is not None:
            out["details"] = {"tv_inequality": self.tv_inequality}
        return out


# One row per theorem: least n and c, threshold time, source of the spectrum
# at n, distance at each threshold of a list, guaranteed constant.
# Evaluators look distance functions up at call time.
Theorem = namedtuple("Theorem", "min_n min_c threshold source evaluate guaranteed")


def _rt_time(n: int, c: float) -> float:
    return (n / 2) * (math.log(n) + c)


def _rt_spectrum(n: int) -> Spectrum:
    return spectrum(random_transposition_measure(n))


THEOREMS = {
    # d2(q_rt^(t), u) <= 2 e^-c at t = ceil((n/2)(log n + c))
    "rt_discrete": Theorem(
        15, 0, lambda n, c: math.ceil(_rt_time(n, c)), _rt_spectrum,
        lambda spec, ts, prec: l2_curve(spec.blocks, ts, "discrete", prec),
        lambda c: 2 * mp.exp(-c)),
    # bound sum on d2^2 <= 2 e^-2c at t = ceil(n(log n + c))
    "ttr": Theorem(
        1, 0, lambda n, c: math.ceil(n * (math.log(n) + c)), ttr_bound_spectrum,
        lambda spec, ts, prec: [d ** 2 for d in l2_curve(spec.blocks, ts, "discrete", prec)],
        lambda c: 2 * mp.exp(-2 * c)),
    # d2(h_rt,t, u) <= e^-(c-2) at t = (n/2)(log n + c)
    "rt_continuous": Theorem(
        10, 2, _rt_time, _rt_spectrum,
        lambda spec, ts, prec: l2_curve(spec.blocks, ts, "continuous", prec),
        lambda c: mp.exp(-(c - 2))),
    # d2(h_c4,t, u) <= e^-(c-2) at the same threshold
    "four_cycle": Theorem(
        11, 2, _rt_time, lambda n: spectrum(uniform_class_measure((4,) + (1,) * (n - 4))),
        lambda spec, ts, prec: l2_curve(spec.blocks, ts, "continuous", prec),
        lambda c: mp.exp(-(c - 2))),
    # d2(q_ri^(t), u)^2 <= e^-(c-2) at t = 2n(log n + c), through the Dirichlet
    # comparison as d2(h_rt, t/4)^2
    "random_insertion": Theorem(
        10, 2, lambda n, c: 2 * n * (math.log(n) + c), _rt_spectrum,
        lambda spec, ts, prec: [
            d ** 2 for d in l2_curve(spec.blocks, [t / 4 for t in ts], "continuous", prec)],
        lambda c: mp.exp(-(c - 2))),
}


def theorem_bounds(walk: str, n: int, cs, prec: int = DEFAULT_PREC) -> list[BoundReport]:
    """Exact distance (or bound sum) at a theorem's time threshold vs its
    constant, for every c of ``cs``: one spectrum and one evaluation of its
    l2 curve over all thresholds.  ``walk`` names a row of ``THEOREMS``."""
    theorem = THEOREMS.get(walk)
    if theorem is None:
        raise ValueError(f"unknown bound {walk!r}")
    cs = list(cs)
    if n < theorem.min_n or not all(math.isfinite(c) and c >= theorem.min_c for c in cs):
        raise ValueError(f"{walk} needs n >= {theorem.min_n} and a finite c >= {theorem.min_c}")
    with mp.workprec(prec):
        times = [theorem.threshold(n, c) for c in cs]
        computed = theorem.evaluate(theorem.source(n), times, prec)
        return [
            BoundReport(walk, n, c, theorem.guaranteed(c), value, t=float(t))
            for c, t, value in zip(cs, times, computed)
        ]


def theorem_bound(walk: str, n: int, c: float, prec: int = DEFAULT_PREC) -> BoundReport:
    """``theorem_bounds`` at one c."""
    return theorem_bounds(walk, n, [c], prec)[0]


# One group per term-table family: the family (looked up at call time, like
# the theorem evaluators), its least n, and per lemma the name, the
# attribute of the family's table at n it reads and the guaranteed bound at n.
LEMMAS = (
    (lambda n, prec: rt_discrete_terms(n, prec), 14, (
        ("phi0<=2", "phi0", lambda n: mp.mpf(2)),
        ("phi1", "phi1", lambda n: mp.exp(2 - n * mp.log(n) / 6)),
        ("phi2", "phi2", lambda n: mp.exp(1 - mp.mpf(3) * n * mp.log(n) / 1000)),
    )),
    (lambda n, prec: rt_continuous_terms(n, prec), 10, (
        ("cont_sum_a_low<=2/3", "sum_a_low", lambda n: mp.mpf(2) / 3),
        ("cont_sum_a_mid<=1/4", "sum_a_mid", lambda n: mp.mpf(1) / 4),
        ("cont_gamma", "gamma", lambda n: 2 * mp.exp(mp.mpf(3) * n / 2 * (mp.log(2) - 1))),
    )),
)


def lemma_checks(n: int, prec: int = DEFAULT_PREC) -> list[BoundReport]:
    """Every lemma stated at ``n``, building one term table per family."""
    least = min(min_n for _, min_n, _ in LEMMAS)
    if n < least:
        raise ValueError(f"the lemmas are stated for n >= {least}")
    out = []
    with mp.workprec(prec):
        for family, min_n, lemmas in LEMMAS:
            if n >= min_n:
                terms = family(n, prec)
                for name, attr, guaranteed in lemmas:
                    computed = getattr(terms, attr)
                    out.append(BoundReport(f"lemma:{name}", n, None, guaranteed(n), computed))
    return out


# ---------------------------------------------------------------------------
# matching problem, Stirling, calculus helper
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MatchingTail:
    """u(A_j): uniform mass of permutations with at least j fixed points."""

    value: Fraction
    bound: float | None  # e^-1 / (j-1)! for j >= 2


def matching_tail(n: int, j: int) -> MatchingTail:
    """Exact u(A_j) = sum_{m=j}^n (1/m!) sum_{v=0}^{n-m} (-1)^v / v!.

    Counted in integers: the permutations with exactly m fixed points number
    C(n, m) D_{n-m}, with derangement numbers D_k = k D_{k-1} + (-1)^k.
    """
    if not 1 <= j <= n:
        raise ValueError("need 1 <= j <= n")
    derangements = [1]
    for k in range(1, n - j + 1):
        derangements.append(k * derangements[-1] + (-1) ** k)
    count = sum(math.comb(n, m) * derangements[n - m] for m in range(j, n + 1))
    total = Fraction(count, math.factorial(n))
    bound = math.exp(-1) / math.factorial(j - 1) if j >= 2 else None
    return MatchingTail(total, bound)


def stirling_envelope(n: int, prec: int = DEFAULT_PREC) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(sqrt(2 pi n)(n/e)^n, e^(1/12n) sqrt(2 pi n)(n/e)^n), bracketing n!."""
    if n < 1:
        raise ValueError("n must be positive")
    with mp.workprec(prec):
        lower = mp.sqrt(2 * mp.pi * n) * mp.exp(n * (mp.log(n) - 1))
        return lower, mp.exp(mp.mpf(1) / (12 * n)) * lower


def calculus_claim(w: float, x: float) -> bool:
    """Whether 2 log(1-x) >= -w x; true on 0 <= x <= 1 - 1/w for w >= 4."""
    if x >= 1:
        return False
    if x == 0:
        return True
    return 2 * math.log1p(-x) >= -w * x
