"""l2 (chi-square) distance profiles from exact spectra.

A spectrum is its blocks: the distinct nontrivial eigenvalues beta_b with
their integer multiplicities m_b (``spectra.Blocks``).  From them alone,

    d2(q^(t), u)^2 = sum_b m_b beta_b^(2t)          (discrete time)
    d2(h_t, u)^2   = sum_b m_b exp(-2t(1 - beta_b)) (continuous time)

One evaluator, ``l2_curve``, computes both over a whole time grid with no
transcendental call per term, in Python integers alone.  Terms span
hundreds of orders of magnitude (multiplicities d_lambda^2 against
exp(-2t)), so each power is a binary float (man, exp): an integer mantissa
rounded to the working precision, to nearest with ties to even, and an
exponent of any size.  In discrete time beta_b^2 is an exact rational and
each block's beta_b^(2t) is carried along the sorted times by one power
(beta_b^2)^(dt) per step; a block is dropped once a bound shows that its
term stays below what the sum keeps, so a huge time pays for the few
blocks of largest |beta_b| only, with every bit unchanged.  In continuous
time every gap 1 - beta_b is j_b/D over the common denominator D, so
exp(-2t(1 - beta_b)) = x^(j_b) with x = exp(-2t/D): one exp per time
point (``_exp_neg``: reduction by a multiple of ln 2, a Taylor series of
the rest scaled by 2^-s, s squarings), then integer powers walked in
ascending j_b.  The m_b-weighted
terms, all non-negative, are summed as integers in fixed point below the
largest one (``_positive_sum``).  ``bounds`` shares this kernel, with
``_exp_neg`` taking a signed argument and ``_log``, a fixed-point log of a
positive integer, for its term tables and constants.  Everything runs
at the caller's precision plus guard bits for the largest exponent (t or
j_b) and the number of terms and is rounded once, at the final square root
(``math.isqrt``), so every d2 (and d2^2) has relative error at most
2^(2 - prec) whatever t is (default 128 bits, far below the documented
1e-12 budget).  Values are returned as exact ``Dyadic`` numbers, so profile
tails below the float64 underflow threshold survive to the output layer,
and a profile loads neither mpmath nor ``bounds``.

``l2_discrete``/``l2_continuous`` are one-point wrappers and
``l2_single_term_lower`` a one-block one.  ``spectrum_profile`` turns a
curve into rows of (group, t, d2); ``walks.WalkSpec.profile_blocks``
decides which blocks a profile draws under which group label, and the CLI
names the walk and n.  This module imports neither numpy nor the
oracle: the definitional distances of oracle-scale distributions live in
``group_oracle``, above it.
"""

from __future__ import annotations

import functools
import math
from decimal import Context, Decimal
from fractions import Fraction
from typing import NamedTuple

from .characters import CycleType
from .partitions import Partition, check_partition, dimension
from .spectra import Blocks, walk_eigenvalue

DEFAULT_PREC = 128
MODES = ("discrete", "continuous")


@functools.total_ordering
class Dyadic:
    """The exact non-negative real man * 2^exp, for integers man >= 0 and exp
    of any size, kept with man odd (or 0) as mpmath keeps its mantissas.

    Ordered exactly against other Dyadic values, ints, Fractions and finite
    floats.
    ``_mpf_`` is mpmath's raw form, so ``mp.mpf(x)``, mpf arithmetic and mpf
    comparisons take a Dyadic with no import here."""

    __slots__ = ("man", "exp")

    def __init__(self, man: int, exp: int = 0):
        if man:
            zeros = (man & -man).bit_length() - 1
            man, exp = man >> zeros, exp + zeros
        else:
            exp = 0
        self.man, self.exp = man, exp

    def __repr__(self) -> str:
        return f"Dyadic({self.man}, {self.exp})"

    @property
    def _mpf_(self) -> tuple:
        return (0, self.man, self.exp, self.man.bit_length())

    def rounded(self, bits: int) -> Dyadic:
        """The value rounded to ``bits`` bits, to nearest with ties to even."""
        return Dyadic(*_round(self.man, self.exp, bits))

    def __float__(self) -> float:
        """The nearest float, as mpmath converts: 0.0 below the subnormals,
        inf above the largest float."""
        x = self.rounded(53)
        try:
            return math.ldexp(x.man, x.exp)
        except OverflowError:
            return math.inf

    def _cmp(self, other):
        mine = self.man
        if isinstance(other, Dyadic):
            man, exp = other.man, other.exp
        elif isinstance(other, int):
            man, exp = other, 0
        elif isinstance(other, float) and math.isfinite(other):
            man, den = other.as_integer_ratio()
            exp = 1 - den.bit_length()  # den is a power of two
        elif isinstance(other, Fraction):
            man, exp = other.numerator, 0
            mine *= other.denominator  # self * den against the numerator
        else:
            return NotImplemented
        if man < 0:
            return 1
        if not man or not mine:
            return (mine > 0) - (man > 0)
        top, other_top = mine.bit_length() + self.exp, man.bit_length() + exp
        if top != other_top:
            return 1 if top > other_top else -1
        shift = self.exp - exp  # equal tops: the shift is below both lengths
        if shift >= 0:
            mine <<= shift
        else:
            man <<= -shift
        return (mine > man) - (mine < man)

    def __eq__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c == 0

    def __lt__(self, other):
        c = self._cmp(other)
        return c if c is NotImplemented else c < 0

    __hash__ = None


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
# guard bits of an exp below its target precision
_EXP_GUARD = 20
# discrete steps whose power tables are kept at once: an auto grid
# alternates between two or three steps, and memory stays O(blocks)
_STEP_TABLES = 8


def _working_prec(prec: int, max_exponent: int, n_terms: int) -> int:
    return prec + _GUARD_MARGIN + max_exponent.bit_length() + n_terms.bit_length()


# Binary floats (man, exp) with man >= 0.  Each operation rounds as mpmath's
# round_nearest does, so each power is the one mpmath.libmp would give.

def _round(man: int, exp: int, bits: int, sticky: bool = False) -> tuple[int, int]:
    """man * 2^exp rounded to ``bits`` bits, to nearest with ties to even;
    ``sticky`` says the true value lies a little above man * 2^exp."""
    shift = man.bit_length() - bits
    if shift <= 0:
        return man, exp
    half = 1 << (shift - 1)
    rest = man & ((half << 1) - 1)
    man >>= shift
    if rest > half or rest == half and (sticky or man & 1):
        man += 1
    return man, exp + shift


def _quotient(p: int, q: int, bits: int) -> tuple[int, int]:
    """p/q for integers p >= 0 and q > 0, correctly rounded to ``bits`` bits."""
    shift = bits + 2 - p.bit_length() + q.bit_length()  # a quotient of bits + 2 bits or more
    man, rest = divmod(p << shift, q) if shift >= 0 else divmod(p, q << -shift)
    return _round(man, -shift, bits, rest != 0)


def _pow(man: int, exp: int, n: int, bits: int) -> tuple[int, int]:
    """(man * 2^exp)^n for n >= 1 at ``bits`` bits as mpmath's mpf_pow_int
    computes it: exactly, then rounded, for a small power; otherwise by
    binary powering truncated to bits + 4 bitlen(n) + 4 bits, then rounded."""
    if not man:
        return 0, 0
    zeros = (man & -man).bit_length() - 1
    man, exp = man >> zeros, exp + zeros
    if n <= 2 or man.bit_length() * n < 1000:
        return _round(man ** n, exp * n, bits)
    work = bits + 4 * n.bit_length() + 4
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = pm * man, pe + exp
            shift = pm.bit_length() - work
            if shift > 0:
                pm, pe = pm >> shift, pe + shift
            n -= 1
            if not n:
                return _round(pm, pe, bits)
        man, exp = man * man, exp + exp
        shift = man.bit_length() - work
        if shift > 0:
            man, exp = man >> shift, exp + shift
        n //= 2


def _sqrt(man: int, exp: int, bits: int) -> tuple[int, int]:
    """sqrt(man * 2^exp), correctly rounded to ``bits`` bits."""
    if exp & 1:
        man, exp = man << 1, exp - 1
    shift = max(0, 2 * bits + 4 - man.bit_length())
    shift += shift & 1
    square = man << shift
    root = math.isqrt(square)
    return _round(root, (exp - shift) // 2, bits, root * root != square)


_LN2 = [0, 0]  # the most precise ln 2 yet: (fractional bits, fixed-point value)


def _ln2(bits: int) -> int:
    """ln 2 in fixed point at ``bits`` fractional bits, less than 2^-bits
    short, from ln 2 = 2 atanh(1/3) = sum 2/((2i+1) 3^(2i+1)); computed once
    past the largest precision asked for so far."""
    have, value = _LN2
    if have < bits:
        have = bits + 64
        work = have + 16
        power, total, i = (2 << work) // 3, 0, 1
        while power:
            total += power // i
            power //= 9
            i += 2
        value = total >> 16
        _LN2[:] = have, value
    return value >> (have - bits)


def _exp_fixed(x: int, prec: int) -> int:
    """exp(x) for a fixed-point |x| < 1 at ``prec`` fractional bits: the
    Taylor series of x/2^s, s = isqrt(prec), in even and odd halves with one
    product per two terms, then s squarings."""
    s = math.isqrt(prec)
    wp = prec + s  # x read at wp bits is x/2^s
    even = odd = 1 << wp
    square = term = x * x >> wp
    k = 2
    while term:
        term //= k
        even += term
        term //= k + 1
        odd += term
        k += 2
        term = term * square >> wp
    y = even + (odd * x >> wp)
    for _ in range(s):
        y = y * y >> wp
    return y >> s


def _exp_neg(man: int, exp: int, bits: int) -> tuple[int, int]:
    """exp(-man * 2^exp) for a signed integer man, rounded to ``bits`` bits:
    |man| * 2^exp = k ln 2 + r with 0 <= r < ln 2, so the value is
    2^-k exp(-r) for man > 0 and 2^k exp(r) for man < 0."""
    if not man:
        return 1, 0
    sign = 1 if man > 0 else -1
    man = abs(man)
    mag = max(0, man.bit_length() + exp)  # bits of the argument's integer part
    frac = bits + _EXP_GUARD
    work = frac + mag  # k ln 2 needs mag more bits than r
    shift = exp + work
    arg = man << shift if shift >= 0 else man >> -shift
    k, r = divmod(arg, _ln2(work))
    return _round(_exp_fixed(-sign * (r >> mag), frac), -sign * k - frac, bits)


def _log(m: int, bits: int) -> int:
    """log m for an integer m >= 1 in fixed point at ``bits`` fractional
    bits, within 2^-bits: from y, the float log m cut to the working bits,
    log m = y + 2 atanh(z) for z = (m - e^y)/(m + e^y), about 2^-54 log m
    in size, whose series gains over 80 bits a term."""
    wp = bits + _GUARD_MARGIN
    num, den = math.log(m).as_integer_ratio()
    y = (num << wp) // den
    man, exp = _exp_neg(-y, -wp, wp)  # e^y >= 1, so exp >= -wp
    power, scaled = man << (exp + wp), m << wp
    z = (abs(scaled - power) << wp) // (scaled + power)
    square, total, k = z * z >> wp, 0, 1
    while z:
        total += z // k
        z = z * square >> wp
        k += 2
    y += 2 * total if scaled >= power else -2 * total
    return (y + (1 << (_GUARD_MARGIN - 1))) >> _GUARD_MARGIN


def _positive_sum(ms, powers, wp: int) -> tuple[int, int]:
    """sum_b m_b p_b for positive integers m_b and binary floats p_b =
    (man, exp), as an exact (man, exp).  The sum is fixed point at 2^-wp of
    the largest term, so each term is cut by less than one unit of that and
    n terms by n units."""
    terms = [(m * man, exp) for m, (man, exp) in zip(ms, powers) if man]
    if not terms:
        return 0, 0
    base = max(man.bit_length() + exp for man, exp in terms) - wp
    return (sum(man << (exp - base) if exp >= base else man >> (base - exp)
                for man, exp in terms), base)


def _log2_above(p: int, q: int) -> float:
    """A float at or above log2(p/q) for integers p >= 0 and q > 0 (-inf at
    p = 0): the float logs are each within a few units of their last place,
    and the slack is 16 units of both."""
    if not p:
        return -math.inf
    a, b = math.log2(p), math.log2(q)
    return a - b + 2.0**-48 * (abs(a) + abs(b) + 1)


def _decay_bounds(blocks: Blocks) -> tuple[list[float], list[float]]:
    """For each block b, floats (offset_b, slope_b) with offset_b + t slope_b
    at or above log2 of m_b beta_b^(2t) / (m_top beta_top^(2t)) for every
    t >= 0, taking t as float(t) and rounding as floats do, where top is a
    block of largest |beta|.  slope_b <= 0: the bound never grows in t."""
    top, m_top = max(blocks, key=lambda block: (abs(block[0]), block[1]))
    offsets, slopes = [], []
    for beta, m in blocks:
        offsets.append(_log2_above(m, m_top))
        ratio = _log2_above(abs(beta.numerator) * top.denominator,
                            beta.denominator * abs(top.numerator))
        # shrink the slope by more than the roundings of float(t) and t * slope
        slopes.append(2 * min(0.0, ratio) * (1 - 2.0**-50))
    return offsets, slopes


def _discrete_sums(blocks: Blocks, times: list[int], prec: int):
    """sum_b m_b beta_b^(2t) as (man, exp) for each of the ascending distinct
    ``times``: each beta_b^(2t) is carried from the previous time by one
    (beta_b^2)^dt.  A block is dropped at the first time its term is
    provably below 2^(-wp - 3) of the largest-|beta| block's term
    (``_decay_bounds``): that ratio never grows, and the carried powers are
    far more accurate than the factor 8 it leaves to spare, so
    ``_positive_sum``, which keeps 2^-wp of the largest term, would cut the
    term to 0 then and at every later time.  A huge time then pays for the
    few blocks of largest |beta| only."""
    wp = _working_prec(prec, max(times, default=0), len(blocks))
    squares = [_quotient(b.numerator ** 2, b.denominator ** 2, wp) for b, _ in blocks]
    ms = [m for _, m in blocks]
    powers = [(1, 0)] * len(blocks)
    offsets, slopes = _decay_bounds(blocks) if blocks else ([], [])
    cut = -wp - 3
    tables: dict[int, list] = {}
    prev = 0
    for t in times:
        dt = t - prev
        if dt:
            x = float(min(t, 10**300))  # a smaller t gives a larger bound
            keep = [i for i, (a, b) in enumerate(zip(offsets, slopes)) if a + x * b >= cut]
            if len(keep) < len(ms):
                squares, ms, powers, offsets, slopes = (
                    [seq[i] for i in keep] for seq in (squares, ms, powers, offsets, slopes))
                tables = {d: [step[i] for i in keep] for d, step in tables.items()}
            step = tables.get(dt)
            if step is None:
                if len(tables) == _STEP_TABLES:
                    tables.clear()
                step = tables[dt] = [_pow(man, exp, dt, wp) for man, exp in squares]
            # a beta = 0 block becomes 0 here: 0^0 = 1 only at t = 0
            powers = [_round(pm * sm, pe + se, wp) for (pm, pe), (sm, se) in zip(powers, step)]
            prev = t
        yield _positive_sum(ms, powers, wp)


def _continuous_sums(blocks: Blocks, times: list[Fraction], prec: int):
    """sum_b m_b exp(-2t(1 - beta_b)) as (man, exp) for each time.  With the
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
        arg = 2 * t / denominator
        # exp reads its argument to absolute precision 2^-wp: keep that many
        # fractional bits beyond the integer part
        magnitude = int(arg).bit_length()
        x = _exp_neg(*_quotient(arg.numerator, arg.denominator, wp + magnitude), wp)
        steps: dict[int, tuple] = {}
        (pm, pe), prev, powers = (1, 0), 0, []
        for j in js:
            if j != prev:
                dj = j - prev
                step = steps.get(dj)
                if step is None:
                    step = steps[dj] = _pow(*x, dj, wp)
                pm, pe = _round(pm * step[0], pe + step[1], wp)
                prev = j
            powers.append((pm, pe))
        yield _positive_sum(ms, powers, wp)


def l2_curve(blocks: Blocks, times, mode: str, prec: int) -> list[Dyadic]:
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
    value = {t: Dyadic(*_sqrt(*s, prec))
             for t, s in zip(distinct, sums(blocks, distinct, prec))}
    return [value[t] for t in keys]


def l2_discrete(blocks: Blocks, t: int, prec: int = DEFAULT_PREC) -> Dyadic:
    """d2(q^(t), u) from the blocks at integer time t >= 0."""
    return l2_curve(blocks, [t], "discrete", prec)[0]


def l2_continuous(blocks: Blocks, t, prec: int = DEFAULT_PREC) -> Dyadic:
    """d2(h_t, u) from the blocks at real time t >= 0."""
    return l2_curve(blocks, [t], "continuous", prec)[0]


def l2_single_term_lower(
    parts: Partition,
    cycles: CycleType,
    hold: Fraction,
    t,
    mode: str = "continuous",
    prec: int = DEFAULT_PREC,
) -> Dyadic:
    """One representation's contribution d * |beta|^t (discrete) or
    d * exp(-t(1-beta)) (continuous) for the class walk of ``cycles`` and
    ``hold`` (``spectra.spectrum``); always a lower bound for the full d2."""
    parts = check_partition(parts)
    if parts == (sum(cycles),):
        raise ValueError("the trivial block is excluded from distance bounds")
    block = (walk_eigenvalue(parts, cycles, hold), dimension(parts) ** 2)
    return l2_curve((block,), [t], mode, prec)[0]


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

class ProfileRow(NamedTuple):
    group: str
    t: float
    d2: Dyadic

    @property
    def log10_d2_sq(self) -> float:
        """2 log10(d2) as the float nearest a decimal log10 of d2's mantissa
        plus its exponent times log10(2), carried to 40 digits past the
        exponent's own (-inf at d2 = 0)."""
        man, exp = self.d2.man, self.d2.exp
        if not man:
            return -math.inf
        ctx = Context(prec=40 + len(str(abs(exp) + man.bit_length())))
        log = ctx.add(ctx.log10(Decimal(man)), ctx.multiply(exp, ctx.log10(2)))
        return 2 * float(log)


def spectrum_profile(
    blocks: Blocks, group: str, mode: str, times, prec: int = DEFAULT_PREC
) -> list[ProfileRow]:
    """Distance curve of the blocks over a time grid, one row per time."""
    times = list(times)
    cast = int if mode == "discrete" else float
    return [ProfileRow(group, cast(t), d2)
            for t, d2 in zip(times, l2_curve(blocks, times, mode, prec))]
