"""Term-by-term evaluation of the explicit analytic bounds.

Each theorem's inequality chain is split into its named summands (the
bound terms A_j, B_j and their partial sums phi_0, phi_1, phi_2, gamma) so
every link can be checked numerically.  Every term is the factorial
weight (n!/(n-j)!)^2/j!, the exact integer C(n, j) n!/(n-j)!
(``lemma_weight``), times an integer power of a few constants.  In
continuous time the powers are walked in j by ratio updates from three
exps per table; in discrete time each A_j costs one log and one exp, and
the B_j are products of one exp per prime up to n/2.  As in
``distances.l2_curve``, the powers run at the caller's precision plus
guard bits for the largest exponent and the term count, the weighted sums
are fixed point (``distances._positive_sum``, fed the (man, exp) pairs of
the raw mpmath.libmp powers here), and every term and sum is rounded once,
so each has relative error at most 2^(2 - prec).  The transpose-top bound
sum is ``spectra.ttr_bound_spectrum``, whose weights and cap
(``lemma_weight``, ``check_bound_n``) the term tables share.

Naming note: the fixed-point sets {phi >= j} and the bound summands are
both called A_j in the usual notation; here the sets live behind
``montecarlo.matching_tail`` and the summands behind ``a_terms``/``b_terms``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import mpmath
from mpmath import libmp, mp
from mpmath.libmp import (
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_div,
    mpf_log,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_pow_int,
    mpf_shift,
    mpf_sub,
    round_nearest,
)

from .distances import DEFAULT_PREC, _positive_sum, _working_prec, l2_curve
from .errors import ResourceGuardError
from .spectra import MAX_BOUND_N, check_bound_n, lemma_weight, ttr_bound_spectrum
from .walks import WalkSpec, check_spectral_sweep

#: most work, summed n^2 over the --n range, that a sweep of bound sums or
#: term tables does: ten tables at MAX_BOUND_N
MAX_BOUND_SWEEP = 10 * MAX_BOUND_N**2


def check_bound_sweep(ns: range) -> None:
    """The caps on a sweep of bound sums or term tables over the non-empty
    range ``ns`` of positive n: the largest n within MAX_BOUND_N, then the
    work, counted as the sum of n^2 over ``ns``, within MAX_BOUND_SWEEP.
    Both are checked before any weight."""
    check_bound_n(ns[-1])

    def squares(m: int) -> int:  # 1^2 + ... + m^2
        return m * (m + 1) * (2 * m + 1) // 6

    work = squares(ns[-1]) - squares(ns[0] - 1)
    if work > MAX_BOUND_SWEEP:
        raise ResourceGuardError(f"bound-sum sweeps are capped at {MAX_BOUND_SWEEP} "
                                 f"(the sum of n^2 over --n), got {work}")


def _lemma_table(n: int, powers: dict, wp: int, prec: int, *ranges) -> tuple[dict, list]:
    """The terms lemma_weight(n, j) p_j of the raw powers p_j, each rounded
    once to ``prec`` bits, and their sums over each range of j, summed in
    fixed point at ``wp`` bits and rounded once."""
    weights = {j: lemma_weight(n, j) for j in powers}
    terms = {
        j: mp.make_mpf(mpf_mul_int(powers[j], w, prec, round_nearest))
        for j, w in weights.items()
    }
    sums = [
        mp.make_mpf(from_man_exp(
            *_positive_sum([weights[j] for j in js], [powers[j][1:3] for j in js], wp),
            prec, round_nearest))
        for js in ranges
    ]
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
    """The a_j base is m_j/n^2 for the integer m_j = n^2 - 2j(n - j + 1),
    the b_j base is k/n for k = n - j <= n/2, and each power base^L, with
    L = n log n, is exp(L log base)."""
    if n < 14:
        raise ValueError("discrete-time term bounds are stated for n >= 14")
    check_bound_n(n)
    out = RtDiscreteTerms(n)
    half = n // 2
    # an absolute error in L log(base) is the same relative error in the
    # power, and those exponents reach L log(n^2) in size
    wp = _working_prec(prec, math.ceil(2 * n * math.log(n) ** 2), n + 1)
    log_n = mpf_log(from_int(n), wp, round_nearest)
    big_l = mpf_mul(from_int(n), log_n, wp, round_nearest)

    def power(log_base):
        return libmp.mpf_exp(mpf_mul(big_l, log_base, wp, round_nearest), wp, round_nearest)

    log_n2 = mpf_shift(log_n, 1)
    a = {
        j: power(mpf_sub(
            mpf_log(from_int(n * n - 2 * j * (n - j + 1)), wp, round_nearest),
            log_n2, wp, round_nearest))
        for j in range(1, half + 1)
    }
    # k^L as the product of p^L over the prime factors p of k: one exp per prime
    spf = _smallest_prime_factors(half)
    k_power = [fzero, fone]
    for k in range(2, half + 1):
        p = spf[k]
        k_power.append(power(mpf_log(from_int(k), wp, round_nearest)) if p == k
                       else mpf_mul(k_power[p], k_power[k // p], wp, round_nearest))
    n_power = power(mpf_neg(log_n))  # n^-L
    b = {j: mpf_mul(k_power[n - j], n_power, wp, round_nearest)
         for j in range(-(-n // 2), n + 1)}
    out.a_terms, (out.phi0, out.phi1) = _lemma_table(
        n, a, wp, prec, range(1, n // 4 + 1), range(-(-n // 4), half + 1))
    out.b_terms, (out.phi2,) = _lemma_table(n, b, wp, prec, b.keys())
    with mp.workprec(prec):
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
    """a_j = W y^(j(n-j)) x^j and b_j = W z^j, with W = lemma_weight(n, j),
    y = n^(-2/n), x = e^-2 and z = x/n."""
    if n < 10:
        raise ValueError("continuous-time term bounds are stated for n >= 10")
    check_bound_n(n)
    out = RtContinuousTerms(n)
    half = n // 2
    # the ratio walk below carries y to powers up to about n^2/4, which
    # multiply its relative error
    wp = _working_prec(prec, n * n, n + 1)
    x = libmp.mpf_exp(from_int(-2), wp, round_nearest)
    log_y = mpf_div(mpf_shift(mpf_log(from_int(n), wp, round_nearest), 1), from_int(-n),
                    wp, round_nearest)
    y = libmp.mpf_exp(log_y, wp, round_nearest)
    y_inv2 = libmp.mpf_exp(mpf_shift(mpf_neg(log_y), 1), wp, round_nearest)
    # a_(j+1)/a_j has the power part r_j = y^(n-2j-1) x, and r_(j+1) = r_j y^-2
    a = {}
    power = fone
    ratio = mpf_mul(mpf_pow_int(y, n - 1, wp, round_nearest), x, wp, round_nearest)
    for j in range(1, half + 1):
        power = a[j] = mpf_mul(power, ratio, wp, round_nearest)
        ratio = mpf_mul(ratio, y_inv2, wp, round_nearest)
    z = mpf_div(x, from_int(n), wp, round_nearest)
    first = -(-n // 2)
    b = {first: mpf_pow_int(z, first, wp, round_nearest)}
    for j in range(first + 1, n + 1):
        b[j] = mpf_mul(b[j - 1], z, wp, round_nearest)
    out.a_terms, (out.sum_a_low, out.sum_a_mid) = _lemma_table(
        n, a, wp, prec, range(1, n // 4 + 1), range(-(-n // 4), half + 1))
    out.b_terms, (out.gamma,) = _lemma_table(n, b, wp, prec, b.keys())
    return out


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


# One row per theorem, keyed by its verify suite: least n, the caps on a sweep
# of its blocks over a range of n, least c, threshold time, the blocks at n,
# the l2 curve's mode, the factor on the threshold time at which the curve is
# read, whether the bound is on d2 squared, and the guaranteed constant.
Theorem = namedtuple("Theorem", "min_n cap min_c threshold source mode scale squared guaranteed")


def _rt_time(n: int, c: float) -> float:
    return (n / 2) * (math.log(n) + c)


THEOREMS = {
    # d2(q_rt^(t), u) <= 2 e^-c at t = ceil((n/2)(log n + c))
    "rt-discrete": Theorem(
        15, check_spectral_sweep, 0, lambda n, c: math.ceil(_rt_time(n, c)),
        WalkSpec("rt").blocks, "discrete", 1, False, lambda c: 2 * mp.exp(-c)),
    # d2(h_rt,t, u) <= e^-(c-2) at t = (n/2)(log n + c)
    "rt-continuous": Theorem(
        10, check_spectral_sweep, 2, _rt_time, WalkSpec("rt").blocks, "continuous", 1, False,
        lambda c: mp.exp(-(c - 2))),
    # bound sum on d2^2 <= 2 e^-2c at t = ceil(n(log n + c))
    "ttr": Theorem(
        1, check_bound_sweep, 0, lambda n, c: math.ceil(n * (math.log(n) + c)),
        ttr_bound_spectrum, "discrete", 1, True, lambda c: 2 * mp.exp(-2 * c)),
    # d2(h_c4,t, u) <= e^-(c-2) at the same threshold
    "four-cycle": Theorem(
        11, check_spectral_sweep, 2, _rt_time, WalkSpec("class", (4,)).blocks, "continuous", 1,
        False, lambda c: mp.exp(-(c - 2))),
    # d2(q_ri^(t), u)^2 <= e^-(c-2) at t = 2n(log n + c), through the Dirichlet
    # comparison as d2(h_rt, t/4)^2
    "random-insertion": Theorem(
        10, check_spectral_sweep, 2, lambda n, c: 2 * n * (math.log(n) + c),
        WalkSpec("rt").blocks, "continuous", 0.25, True, lambda c: mp.exp(-(c - 2))),
}


def check_theorem(walk: str, ns: range, cs=None) -> tuple[Theorem, list[float]]:
    """The row of ``walk`` in THEOREMS and its c list (default: the least c
    and the next two), once the least n of the non-empty range ``ns``, every
    c and the caps on a sweep of its blocks over ``ns`` are checked."""
    theorem = THEOREMS.get(walk)
    if theorem is None:
        raise ValueError(f"unknown bound {walk!r}")
    cs = [float(theorem.min_c + k) for k in range(3)] if cs is None else list(cs)
    if ns[0] < theorem.min_n or not all(math.isfinite(c) and c >= theorem.min_c for c in cs):
        raise ValueError(f"{walk} needs n >= {theorem.min_n} and a finite c >= {theorem.min_c}")
    theorem.cap(ns)
    return theorem, cs


def theorem_bounds(walk: str, n: int, cs=None, prec: int = DEFAULT_PREC) -> list[BoundReport]:
    """Exact distance (or bound sum) at a theorem's time threshold vs its
    constant, for every c of ``cs`` (see ``check_theorem``): one set of
    blocks and one evaluation of its l2 curve over all thresholds."""
    theorem, cs = check_theorem(walk, range(n, n + 1), cs)
    name = walk.replace("-", "_")  # verdict rows say rt_discrete, four_cycle, ...
    with mp.workprec(prec):
        times = [theorem.threshold(n, c) for c in cs]
        curve = l2_curve(theorem.source(n), [t * theorem.scale for t in times], theorem.mode, prec)
        computed = [mp.mpf(d) ** 2 for d in curve] if theorem.squared else curve
        return [
            BoundReport(name, n, c, theorem.guaranteed(c), value, t=float(t))
            for c, t, value in zip(cs, times, computed)
        ]


# One group per term-table family: the family (looked up at call time, as
# theorem_bounds looks up l2_curve), its least n, and per lemma the name, the
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


def check_lemma_ns(ns: range) -> None:
    """Raise unless some lemma is stated at every n of the non-empty range
    ``ns`` and a sweep of their tables over ``ns`` is within the caps."""
    least = min(min_n for _, min_n, _ in LEMMAS)
    if ns[0] < least:
        raise ValueError(f"the lemmas are stated for n >= {least}")
    check_bound_sweep(ns)


def lemma_checks(n: int, prec: int = DEFAULT_PREC) -> list[BoundReport]:
    """Every lemma stated at ``n``, building one term table per family."""
    check_lemma_ns(range(n, n + 1))
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
# Stirling, Poisson window, calculus helper
# ---------------------------------------------------------------------------

def stirling_envelope(n: int, prec: int = DEFAULT_PREC) -> tuple[mpmath.mpf, mpmath.mpf]:
    """(sqrt(2 pi n)(n/e)^n, e^(1/12n) sqrt(2 pi n)(n/e)^n), bracketing n!."""
    if n < 1:
        raise ValueError("n must be positive")
    with mp.workprec(prec):
        lower = mp.sqrt(2 * mp.pi * n) * mp.exp(n * (mp.log(n) - 1))
        return lower, mp.exp(mp.mpf(1) / (12 * n)) * lower


def poisson_window_mass(k: float, alpha: float) -> float:
    """P(X <= k + k^alpha) for X ~ Poisson(k); tends to 1 as k grows."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0.5 < alpha < 1.0:
        raise ValueError("alpha must lie in (1/2, 1)")
    m = math.floor(k + k**alpha)
    return float(mp.gammainc(m + 1, a=k, regularized=True))


def calculus_claim(w: float, x: float) -> bool:
    """Whether 2 log(1-x) >= -w x; true on 0 <= x <= 1 - 1/w for w >= 4."""
    if x >= 1:
        return False
    if x == 0:
        return True
    return 2 * math.log1p(-x) >= -w * x
