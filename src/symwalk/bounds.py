"""Term-by-term evaluation of the explicit analytic bounds.

Each theorem's inequality chain is split into its named summands (the
bound terms A_j, B_j and their partial sums phi_0, phi_1, phi_2, gamma) so
every link can be checked numerically.  Every term is the factorial
weight (n!/(n-j)!)^2/j!, the exact integer C(n, j) n!/(n-j)!
(``lemma_weight``), times an integer power of a few constants.  In
continuous time the powers are walked in j by ratio updates from three
exps per table; in discrete time each A_j costs one log and one exp, and
the B_j are products of one exp per prime up to n/2.  Everything runs on
the integer binary floats of ``distances`` (``_exp_neg``, ``_log``,
``_pow``, ``_positive_sum``), so no bound loads mpmath.  As in
``distances.l2_curve``, the powers run at the caller's precision plus
guard bits for the largest exponent and the term count, with every log in
fixed point at those bits, the weighted sums are fixed point, and every
term and sum is rounded once, so each has relative error at most
2^(2 - prec).  Each guaranteed constant of THEOREMS and LEMMAS is one exp
of an exact or fixed-point argument, rounded once to ``prec`` (2, 2/3 and
1/4 are exact).  The transpose-top bound sum is
``spectra.ttr_bound_spectrum``, whose weights and cap (``lemma_weight``,
``check_bound_n``) the term tables share.

Naming note: the fixed-point sets {phi >= j} and the bound summands are
both called A_j in the usual notation; here the sets live behind
``montecarlo.matching_tail`` and the summands behind ``a_terms``/``b_terms``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from typing import NamedTuple

from .distances import (
    DEFAULT_PREC,
    Dyadic,
    _exp_neg,
    _log,
    _pow,
    _positive_sum,
    _quotient,
    _round,
    _working_prec,
    l2_curve,
)
from .errors import ResourceGuardError
from .spectra import MAX_BOUND_N, check_bound_n, lemma_weight, ttr_bound_spectrum
from .walks import WalkSpec, check_spectral_sweep

#: most work, summed n^2 over the --n range, that a sweep of bound sums or
#: term tables does: ten tables at MAX_BOUND_N
MAX_BOUND_SWEEP = 10 * MAX_BOUND_N**2


def check_bound_sweep(ns: range) -> float:
    """The caps on a sweep of bound sums or term tables over the non-empty
    range ``ns`` of positive n: the largest n within MAX_BOUND_N, then the
    work, counted as the sum of n^2 over ``ns``, within MAX_BOUND_SWEEP.
    Both are checked before any weight; returns the work over the cap."""
    check_bound_n(ns[-1])

    def squares(m: int) -> int:  # 1^2 + ... + m^2
        return m * (m + 1) * (2 * m + 1) // 6

    work = squares(ns[-1]) - squares(ns[0] - 1)
    if work > MAX_BOUND_SWEEP:
        raise ResourceGuardError(f"bound-sum sweeps are capped at {MAX_BOUND_SWEEP} "
                                 f"(the sum of n^2 over --n), got {work}")
    return work / MAX_BOUND_SWEEP


def _lemma_table(n: int, powers: dict, wp: int, prec: int, *ranges) -> tuple[dict, list]:
    """The terms lemma_weight(n, j) p_j of the binary floats p_j, each
    rounded once to ``prec`` bits, and their sums over each range of j,
    summed in fixed point at ``wp`` bits and rounded once."""
    weights = {j: lemma_weight(n, j) for j in powers}
    terms = {j: Dyadic(*_round(w * powers[j][0], powers[j][1], prec))
             for j, w in weights.items()}
    sums = [Dyadic(*_round(*_positive_sum([weights[j] for j in js], [powers[j] for j in js], wp),
                           prec))
            for js in ranges]
    return terms, sums


def _smallest_prime_factors(m: int) -> list[int]:
    """spf[k] for 0 <= k <= m: the least prime dividing k (k itself below 2)."""
    spf = list(range(m + 1))
    for p in range(2, math.isqrt(m) + 1):
        if spf[p] == p:
            for k in range(p * p, m + 1, p):
                if spf[k] == k:
                    spf[k] = p
    return spf


def _product(wp: int):
    """The product of two binary floats, rounded to ``wp`` bits."""
    def mul(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
        return _round(p[0] * q[0], p[1] + q[1], wp)
    return mul


# ---------------------------------------------------------------------------
# random transposition, discrete time
# ---------------------------------------------------------------------------

class RtDiscreteTerms(NamedTuple):
    """Discrete-time bound terms at the reference exponent n*log(n).

    a_terms[j] = (n!/(n-j)!)^2 (1/j!) (1 - (2j/n)(1-(j-1)/n))^(n log n) for
    1 <= j <= n/2, b_terms[j] analogous with base (1 - j/n), n/2 <= j <= n.
    phi_0 sums a over j <= floor(n/4), phi_1 over ceil(n/4)..floor(n/2),
    phi_2 sums b; a shared boundary index is counted in both ranges.
    """

    n: int
    a_terms: dict
    b_terms: dict
    phi0: Dyadic
    phi1: Dyadic
    phi2: Dyadic
    #: 2 + phi1 + phi2, the computable stand-in for the B^2 constant
    b_square_bound: Dyadic


def rt_discrete_terms(n: int, prec: int = DEFAULT_PREC) -> RtDiscreteTerms:
    """The a_j base is m_j/n^2 for the integer m_j = n^2 - 2j(n - j + 1),
    the b_j base is k/n for k = n - j <= n/2, and each power base^L, with
    L = n log n, is exp(L log base)."""
    if n < 14:
        raise ValueError("discrete-time term bounds are stated for n >= 14")
    check_bound_n(n)
    half = n // 2
    # an absolute error in L log(base) is the same relative error in the
    # power, and those exponents reach L log(n^2) in size
    wp = _working_prec(prec, math.ceil(2 * n * math.log(n) ** 2), n + 1)
    mul = _product(wp)
    log_n = _log(n, wp)  # every log here is fixed point at wp bits
    big_l = n * log_n

    def power(log_base: int) -> tuple[int, int]:
        return _exp_neg(-(big_l * log_base >> wp), -wp, wp)

    a = {j: power(_log(n * n - 2 * j * (n - j + 1), wp) - 2 * log_n)
         for j in range(1, half + 1)}
    # k^L as the product of p^L over the prime factors p of k: one exp per prime
    spf = _smallest_prime_factors(half)
    k_power = [(0, 0), (1, 0)]
    for k in range(2, half + 1):
        p = spf[k]
        k_power.append(power(_log(k, wp)) if p == k else mul(k_power[p], k_power[k // p]))
    n_power = power(-log_n)  # n^-L
    b = {j: mul(k_power[n - j], n_power) for j in range(-(-n // 2), n + 1)}
    a_terms, (phi0, phi1) = _lemma_table(
        n, a, wp, prec, range(1, n // 4 + 1), range(-(-n // 4), half + 1))
    b_terms, (phi2,) = _lemma_table(n, b, wp, prec, b.keys())
    b_square = _positive_sum((2, 1, 1), ((1, 0), (phi1.man, phi1.exp), (phi2.man, phi2.exp)), wp)
    return RtDiscreteTerms(n, a_terms, b_terms, phi0, phi1, phi2, Dyadic(*_round(*b_square, prec)))


# ---------------------------------------------------------------------------
# random transposition, continuous time
# ---------------------------------------------------------------------------

class RtContinuousTerms(NamedTuple):
    """Continuous-time analogues with exponent -2j log(n) (1 - j/n) - 2j.

    b_terms carry the squared factorial ratio (n!/(n-j)!)^2 exactly like
    a_terms; the consecutive-term ratio (n-j)^2/(j+1) * e^(-log n - 2) used
    to sum them, and the boundary identity b[n/2] = a[n/2] at even n, both
    require the square.
    """

    n: int
    a_terms: dict
    b_terms: dict
    sum_a_low: Dyadic   # j = 1 .. floor(n/4)
    sum_a_mid: Dyadic   # j = ceil(n/4) .. floor(n/2)
    gamma: Dyadic       # j = ceil(n/2) .. n


def rt_continuous_terms(n: int, prec: int = DEFAULT_PREC) -> RtContinuousTerms:
    """a_j = W y^(j(n-j)) x^j and b_j = W z^j, with W = lemma_weight(n, j),
    y = n^(-2/n), x = e^-2 and z = x/n."""
    if n < 10:
        raise ValueError("continuous-time term bounds are stated for n >= 10")
    check_bound_n(n)
    half = n // 2
    # the ratio walk below carries y to powers up to about n^2/4, which
    # multiply its relative error
    wp = _working_prec(prec, n * n, n + 1)
    mul = _product(wp)
    x = _exp_neg(2, 0, wp)
    log_y = -2 * _log(n, wp) // n  # fixed point at wp bits
    y = _exp_neg(-log_y, -wp, wp)
    y_inv2 = _exp_neg(2 * log_y, -wp, wp)
    # a_(j+1)/a_j has the power part r_j = y^(n-2j-1) x, and r_(j+1) = r_j y^-2
    a = {}
    power = (1, 0)
    ratio = mul(_pow(*y, n - 1, wp), x)
    for j in range(1, half + 1):
        power = a[j] = mul(power, ratio)
        ratio = mul(ratio, y_inv2)
    man, exp = _quotient(x[0], n, wp)
    z = (man, exp + x[1])
    first = -(-n // 2)
    b = {first: _pow(*z, first, wp)}
    for j in range(first + 1, n + 1):
        b[j] = mul(b[j - 1], z)
    a_terms, (sum_a_low, sum_a_mid) = _lemma_table(
        n, a, wp, prec, range(1, n // 4 + 1), range(-(-n // 4), half + 1))
    b_terms, (gamma,) = _lemma_table(n, b, wp, prec, b.keys())
    return RtContinuousTerms(n, a_terms, b_terms, sum_a_low, sum_a_mid, gamma)


# ---------------------------------------------------------------------------
# theorem reproduction
# ---------------------------------------------------------------------------

class BoundReport(NamedTuple):
    """One ``verify`` verdict: does ``computed <= guaranteed`` hold?

    The two sides are ``distances.Dyadic`` values, exact rationals, floats
    or mpmath numbers.  ``t`` is a theorem's threshold time;
    ``tv_inequality`` is the oracle's side condition 2 TV <= chi-square,
    which must hold as well when present.
    """

    name: str
    n: int
    c: float | None
    guaranteed: Dyadic | Fraction | float
    computed: Dyadic | float
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


def _exp_real(x: Fraction, prec: int, scale: int = 0) -> Dyadic:
    """2^scale exp(x) for a rational x with a power-of-two denominator (a
    float's exact value), rounded once to ``prec`` bits."""
    man, exp = _exp_neg(-x.numerator, 1 - x.denominator.bit_length(), prec)
    return Dyadic(man, exp + scale)


def _exp_log(a: int, b: int, m: int, d: int, prec: int, scale: int = 0) -> Dyadic:
    """2^scale exp((a + b log m)/d) for integers a, b, m >= 1 and d >= 1,
    rounded once to ``prec`` bits: the argument is fixed point, with guard
    bits for the error of b log m."""
    wp = _working_prec(prec, abs(b), 1)
    man, exp = _exp_neg(-(((a << wp) + b * _log(m, wp)) // d), -wp, prec)
    return Dyadic(man, exp + scale)


# One row per theorem, keyed by its verify suite: least n, the caps on a sweep
# of its blocks over a range of n (which return the sweep's work over its
# cap), least c, threshold time, the blocks at n,
# the l2 curve's mode, the factor on the threshold time at which the curve is
# read, whether the bound is on d2 squared, and the guaranteed constant at c
# and a precision.
Theorem = namedtuple("Theorem", "min_n cap min_c threshold source mode scale squared guaranteed")


def _rt_time(n: int, c: float) -> float:
    return (n / 2) * (math.log(n) + c)


THEOREMS = {
    # d2(q_rt^(t), u) <= 2 e^-c at t = ceil((n/2)(log n + c))
    "rt-discrete": Theorem(
        15, check_spectral_sweep, 0, lambda n, c: math.ceil(_rt_time(n, c)),
        WalkSpec("rt").blocks, "discrete", 1, False,
        lambda c, prec: _exp_real(-Fraction(c), prec, 1)),
    # d2(h_rt,t, u) <= e^-(c-2) at t = (n/2)(log n + c)
    "rt-continuous": Theorem(
        10, check_spectral_sweep, 2, _rt_time, WalkSpec("rt").blocks, "continuous", 1, False,
        lambda c, prec: _exp_real(2 - Fraction(c), prec)),
    # bound sum on d2^2 <= 2 e^-2c at t = ceil(n(log n + c))
    "ttr": Theorem(
        1, check_bound_sweep, 0, lambda n, c: math.ceil(n * (math.log(n) + c)),
        ttr_bound_spectrum, "discrete", 1, True,
        lambda c, prec: _exp_real(-2 * Fraction(c), prec, 1)),
    # d2(h_c4,t, u) <= e^-(c-2) at the same threshold
    "four-cycle": Theorem(
        11, check_spectral_sweep, 2, _rt_time, WalkSpec("class", (4,)).blocks, "continuous", 1,
        False, lambda c, prec: _exp_real(2 - Fraction(c), prec)),
    # d2(q_ri^(t), u)^2 <= e^-(c-2) at t = 2n(log n + c), through the Dirichlet
    # comparison as d2(h_rt, t/4)^2
    "random-insertion": Theorem(
        10, check_spectral_sweep, 2, lambda n, c: 2 * n * (math.log(n) + c),
        WalkSpec("rt").blocks, "continuous", 0.25, True,
        lambda c, prec: _exp_real(2 - Fraction(c), prec)),
}


def check_theorem(walk: str, ns: range, cs=None) -> tuple[Theorem, list[float], float]:
    """The row of ``walk`` in THEOREMS, its c list (default: the least c
    and the next two) and the sweep's work over its cap, once the least n of
    the non-empty range ``ns``, every c and the caps on a sweep of its
    blocks over ``ns`` are checked."""
    theorem = THEOREMS.get(walk)
    if theorem is None:
        raise ValueError(f"unknown bound {walk!r}")
    cs = [float(theorem.min_c + k) for k in range(3)] if cs is None else list(cs)
    if ns[0] < theorem.min_n or not all(math.isfinite(c) and c >= theorem.min_c for c in cs):
        raise ValueError(f"{walk} needs n >= {theorem.min_n} and a finite c >= {theorem.min_c}")
    return theorem, cs, theorem.cap(ns)


def theorem_bounds(walk: str, n: int, cs=None, prec: int = DEFAULT_PREC) -> list[BoundReport]:
    """Exact distance (or bound sum) at a theorem's time threshold vs its
    constant, for every c of ``cs`` (see ``check_theorem``): one set of
    blocks and one evaluation of its l2 curve over all thresholds.  A
    squared bound squares each d2 exactly and rounds it once."""
    theorem, cs, _ = check_theorem(walk, range(n, n + 1), cs)
    name = walk.replace("-", "_")  # verdict rows say rt_discrete, four_cycle, ...
    times = [theorem.threshold(n, c) for c in cs]
    curve = l2_curve(theorem.source(n), [t * theorem.scale for t in times], theorem.mode, prec)
    if theorem.squared:
        curve = [Dyadic(*_round(d.man * d.man, 2 * d.exp, prec)) for d in curve]
    return [
        BoundReport(name, n, c, theorem.guaranteed(c, prec), value, t=float(t))
        for c, t, value in zip(cs, times, curve)
    ]


# One group per term-table family: the family (looked up at call time, as
# theorem_bounds looks up l2_curve), its least n, and per lemma the name, the
# attribute of the family's table at n it reads and the guaranteed bound at n
# and a precision.
LEMMAS = (
    (lambda n, prec: rt_discrete_terms(n, prec), 14, (
        ("phi0<=2", "phi0", lambda n, prec: 2),
        # exp(2 - n log n/6)
        ("phi1", "phi1", lambda n, prec: _exp_log(12, -n, n, 6, prec)),
        # exp(1 - 3 n log n/1000)
        ("phi2", "phi2", lambda n, prec: _exp_log(1000, -3 * n, n, 1000, prec)),
    )),
    (lambda n, prec: rt_continuous_terms(n, prec), 10, (
        ("cont_sum_a_low<=2/3", "sum_a_low", lambda n, prec: Fraction(2, 3)),
        ("cont_sum_a_mid<=1/4", "sum_a_mid", lambda n, prec: Fraction(1, 4)),
        # 2 exp(3n/2 (log 2 - 1))
        ("cont_gamma", "gamma", lambda n, prec: _exp_log(-3 * n, 3 * n, 2, 2, prec, 1)),
    )),
)


def check_lemma_ns(ns: range) -> float:
    """Raise unless some lemma is stated at every n of the non-empty range
    ``ns`` and a sweep of their tables over ``ns`` is within the caps;
    returns the sweep's work over its cap."""
    least = min(min_n for _, min_n, _ in LEMMAS)
    if ns[0] < least:
        raise ValueError(f"the lemmas are stated for n >= {least}")
    return check_bound_sweep(ns)


def lemma_checks(n: int, prec: int = DEFAULT_PREC) -> list[BoundReport]:
    """Every lemma stated at ``n``, building one term table per family."""
    check_lemma_ns(range(n, n + 1))
    out = []
    for family, min_n, lemmas in LEMMAS:
        if n >= min_n:
            terms = family(n, prec)
            for name, attr, guaranteed in lemmas:
                out.append(BoundReport(f"lemma:{name}", n, None, guaranteed(n, prec),
                                       getattr(terms, attr)))
    return out


# ---------------------------------------------------------------------------
# calculus helper
# ---------------------------------------------------------------------------

def calculus_claim(w: float, x: float) -> bool:
    """Whether 2 log(1-x) >= -w x; true on 0 <= x <= 1 - 1/w for w >= 4."""
    if x >= 1:
        return False
    if x == 0:
        return True
    return 2 * math.log1p(-x) >= -w * x
