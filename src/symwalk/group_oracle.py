"""Brute-force ground truth on small symmetric groups.

Elements of S_n are enumerated in Lehmer-code order, i.e. lexicographic
order of one-line notation, with the identity at index 0.  Composition is
fixed once and for all as (s*t)(i) = s(t(i)); every formula in this module
is transcribed against that convention, and the convolution used everywhere
is f*q(x) = sum_y f(x y^-1) q(y), matching the walk X_t = xi_1 ... xi_t.

``step_law`` reads a parsed ``walks.WalkSpec`` as exact rational weights
on elements: the rt, class and lazy laws come from the walk's class and
holding probability (``WalkSpec.cycle_type``, ``WalkSpec.hold``), and ttr
and ri are written out from their definitions.  The oracle computes
independently of the spectra, by convolution rather than by characters.

The oracle suite convolves on orbits, in Python integers.  If conjugation
by every element of a subgroup H fixes the step law, it fixes every
convolution power, so a power is one value per H-orbit of S_n, kept at one
representative per orbit (``Orbits``).  ``law_orbits`` finds H from the
law's own symmetries: the candidate conjugations that fix it, out of the
generators of S_n, those of the stabiliser of position 0 and the reversal
w0 (p -> n-1-p), generate H.  The class walks get the conjugacy classes,
ttr the top stabiliser's orbits and ri the pairs {x, w0 x w0}.
``orbit_powers`` checks that the law is constant on each orbit, then, with
L the least common denominator of the weights, gives every L^t q^(t) as an
exact integer vector over the orbits.
``chi_square_of`` and ``tv_of`` are the definitional distances to uniform
over orbit values and sizes (a dense distribution is the case where every
size is 1), exact and rounded once.

The tests' references read the same ``step_law`` and are exact, with no
tolerance: ``convolve``, the eigenfunction checks (residual exactly 0 on a
true eigenpair), ``certify_blocks`` (claimed blocks against the orbit powers)
and ``form_dominates`` (Dirichlet forms by fraction-free elimination).  The
module imports no numpy.  Size guards (n! growth) raise ResourceGuardError
before any work: listings, laws and references at n <= 8 (MAX_MEASURE_N),
the oracle suite and the n! x n! form matrix at n <= 6 (MAX_ORACLE_N).

``oracle_checks`` gives the rows of ``verify --suite oracle`` and owns the
suite's walks, times, tolerance and size cap: each row checks the walk's
exact blocks, ``WalkSpec.blocks``, against the exact orbit powers.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import itemgetter, mul
from typing import NamedTuple

from . import bounds, distances, walks
from .characters import CycleType, class_size
from .errors import ResourceGuardError  # re-exported: callers catch it from here

Perm = tuple[int, ...]

MAX_MEASURE_N = 8
#: the oracle suite, and the form comparison's n! x n! matrix: at n = 7 the suite's
#: orbit closures and powers take about 0.6 s, 0.5 s of it ri (Python 3.11, 2-CPU x86_64)
MAX_ORACLE_N = 6
#: every continuous-time law drops a Poisson tail of less than this mass
POISSON_TAIL = 1e-14


def _guard(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ResourceGuardError(f"{what} is capped at n <= {cap}, got n = {n}")


def _common_denominator(values) -> tuple[list[int], int]:
    """Ints, Fractions or floats, each taken exactly, as integers over their
    least common denominator D, and D."""
    values = list(values)
    if all(type(v) is int for v in values):
        return values, 1
    exact = [Fraction(v) for v in values]
    common = math.lcm(*(v.denominator for v in exact))
    return [v.numerator * (common // v.denominator) for v in exact], common


# ---------------------------------------------------------------------------
# permutation plumbing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _perm_data(n: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    perms = tuple(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return perms, index


def _listing(n: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    _guard(n, MAX_MEASURE_N, "permutation enumeration")
    return _perm_data(n)


def all_permutations(n: int) -> tuple[Perm, ...]:
    """All of S_n in Lehmer-code (lexicographic one-line) order."""
    return _listing(n)[0]


def perm_index(p: Perm) -> int:
    return _listing(len(p))[1][tuple(p)]


def compose(s: Perm, t: Perm) -> Perm:
    """(s*t)(i) = s(t(i))."""
    return tuple(s[t[i]] for i in range(len(s)))


def _times(s: Perm):
    """x -> x*s on one-line tuples: (x*s)(i) = x(s(i))."""
    if len(s) < 2:  # itemgetter of one index returns the entry, not a tuple
        return lambda x: compose(x, s)
    return itemgetter(*s)


def invert(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def cycle_type_of(p: Perm) -> CycleType:
    seen = [False] * len(p)
    lengths = []
    for i in range(len(p)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# step laws
# ---------------------------------------------------------------------------

def insertion_cycle(n: int, i: int, j: int) -> Perm:
    """The cycle c_{i,j} moved by taking the card at position i to position j.

    For i < j this is the cycle (j, j-1, ..., i+1, i); for j < i the cycle
    (j, j+1, ..., i-1, i); i = j gives the identity.  Positions are 0-based.
    """
    deck = list(range(n))
    deck.insert(j, deck.pop(i))
    return invert(tuple(deck))  # the deck lists the cards by new position


def step_law(walk: walks.WalkSpec, n: int) -> dict[int, Fraction]:
    """The exact step law of a walk: element index -> weight, on its support.

    rt, class and lazy put the walk's hold (``WalkSpec.hold``) on e and
    (1 - hold)/|C| on each element of its class C (``WalkSpec.cycle_type``);
    ttr puts 1/n on e and on each (1, i); ri puts 1/n^2 on c_{i,j} for every
    ordered pair, which folds to 1/n on e and 2/n^2 on the adjacent
    (transposition) cycles.
    """
    perms, index = _listing(n)
    walk.check_n(n)
    acc: dict[int, Fraction] = {}

    def add(p: Perm, w: Fraction) -> None:
        idx = index[p]
        acc[idx] = acc.get(idx, Fraction(0)) + w

    if walk.kind == "ttr":
        w = Fraction(1, n)
        add(tuple(range(n)), w)
        for i in range(1, n):
            p = list(range(n))
            p[0], p[i] = p[i], p[0]
            add(tuple(p), w)
    elif walk.kind == "ri":
        w = Fraction(1, n * n)
        for i in range(n):
            for j in range(n):
                add(insertion_cycle(n, i, j), w)
    else:
        cycles, hold = walk.cycle_type(n), walk.hold(n)
        if hold:
            add(perms[0], hold)
        w = (1 - hold) / class_size(cycles)
        for p in perms:
            if cycle_type_of(p) == cycles:
                add(p, w)
    return acc


# ---------------------------------------------------------------------------
# the exact engine: convolution powers on conjugation orbits
# ---------------------------------------------------------------------------

class Orbits(NamedTuple):
    """The orbits of S_n under conjugation by a subgroup H: ``of`` gives
    each element's orbit in enumeration order, ``reps`` each orbit's first
    element and ``sizes`` its number of elements."""

    n: int
    of: tuple[int, ...]
    reps: tuple[int, ...]
    sizes: tuple[int, ...]


def _conjugation(h: Perm):
    """x -> h x h^-1 on one-line tuples."""
    right = _times(invert(h))
    return lambda x: tuple(map(h.__getitem__, right(x)))


@lru_cache(maxsize=None)
def _orbits(n: int, generators: tuple[Perm, ...]) -> Orbits:
    """The orbits of conjugation x -> h x h^-1 by the group the generators
    generate, each closed from its first element and numbered in order."""
    perms, index = _listing(n)
    conjugations = [_conjugation(h) for h in generators]
    of, reps, sizes = [-1] * len(perms), [], []
    for i, p in enumerate(perms):
        if of[i] >= 0:
            continue
        orbit, todo = len(reps), [p]
        of[i] = orbit
        reps.append(i)
        sizes.append(1)
        while todo:
            x = todo.pop()
            for conjugate in conjugations:
                j = index[conjugate(x)]
                if of[j] < 0:
                    of[j] = orbit
                    sizes[orbit] += 1
                    todo.append(perms[j])
    return Orbits(n, tuple(of), tuple(reps), tuple(sizes))


def _symmetric_generators(n: int, first: int) -> tuple[Perm, ...]:
    """A transposition and a long cycle generating the symmetric group of
    the positions first..n-1 (no generator for fewer than two positions)."""
    if n - first < 2:
        return ()
    swap, cycle = list(range(n)), list(range(n))
    swap[first], swap[first + 1] = first + 1, first
    for i in range(first, n):
        cycle[i] = i + 1 if i < n - 1 else first
    return tuple(swap), tuple(cycle)


def law_orbits(law: dict[int, Fraction], n: int) -> Orbits:
    """The orbits of conjugation by the candidates that fix the step law:
    the generators of S_n, those of the stabiliser of position 0 and the
    reversal w0 (p -> n-1-p).  A class walk is fixed by all of them and gets
    the conjugacy classes, ttr the top stabiliser's orbits and ri the pairs
    {x, w0 x w0}."""
    perms, index = _listing(n)

    def fixes(h: Perm) -> bool:
        conjugate = _conjugation(h)
        return all(law.get(index[conjugate(perms[y])]) == w for y, w in law.items())

    symmetric = _symmetric_generators(n, 0)
    if symmetric and all(map(fixes, symmetric)):
        return _orbits(n, symmetric)  # S_n holds the other candidates: they add nothing
    candidates = (*symmetric, *_symmetric_generators(n, 1), tuple(range(n - 1, -1, -1)))
    return _orbits(n, tuple(filter(fixes, candidates)))


def orbit_powers(law: dict[int, Fraction], orbits: Orbits,
                 t_max: int) -> tuple[list[list[int]], int]:
    """[L^t q^(t) for t = 0..t_max] as integer vectors over ``orbits``, and
    L, the least common denominator of the step law's weights: q^(t)(x) is
    powers[t][orbits.of[x]] / L^t.

    Raises ValueError unless the law is constant on each orbit.  Each step
    is (f*q)(x) = sum_y q(y) f(x y^-1) at every representative x, from one
    table built here of the orbits of the x y^-1, the weights L q(y) of the
    y that land in one orbit summed into one integer coefficient."""
    perms, index = _listing(orbits.n)
    of = orbits.of
    if any(law.get(x) != law.get(orbits.reps[of[x]]) for x in range(len(of))):
        raise ValueError(f"the step law is not constant on the orbits in S_{orbits.n}")
    weights, L = _common_denominator(law.values())
    steps = [(weight, _times(invert(perms[y]))) for y, weight in zip(law, weights)]
    table = []
    for x in orbits.reps:
        x = perms[x]
        row: dict[int, int] = {}
        for weight, times in steps:
            orbit = of[index[times(x)]]
            row[orbit] = row.get(orbit, 0) + weight
        table.append((tuple(row), tuple(row.values())))
    f = [0] * len(orbits.reps)
    f[of[0]] = 1
    powers = [f]
    for _ in range(t_max):
        f = [sum(map(mul, map(f.__getitem__, orbits_in), coefficients))
             for orbits_in, coefficients in table]
        powers.append(f)
    return powers, L


# ---------------------------------------------------------------------------
# definitional distances to uniform, exact and rounded once
# ---------------------------------------------------------------------------

def _deviations(values, sizes, den: int, normalized: bool) -> tuple[list[tuple[int, int]], int, int]:
    """For the distribution of ``chi_square_of``: the pairs (size, g v - D)
    for each value v brought over one common denominator D, with g the sum
    of the sizes, then g and D.  With ``normalized``, raises ValueError
    unless the mass is 1 within 1e-12."""
    values, common = _common_denominator(values)
    den *= common
    sizes = (1,) * len(values) if sizes is None else sizes
    if normalized:
        total = Fraction(sum(map(mul, sizes, values)), den)
        if abs(total - 1) > 1e-12:
            raise ValueError(f"distribution sums to {float(total)!r}, expected 1")
    g = sum(sizes)
    return [(size, g * v - den) for size, v in zip(sizes, values)], g, den


def _sqrt_ratio(p: int, q: int) -> float:
    """sqrt(p/q) for integers p >= 0 and q > 0, correctly rounded to a float."""
    shift = max(0, 110 - p.bit_length() + q.bit_length())
    shift += shift & 1
    square, rest = divmod(p << shift, q)
    root = math.isqrt(square)
    man, exp = distances._round(root, -shift // 2, 53, bool(rest) or root * root != square)
    return math.ldexp(man, exp)


def chi_square_of(values, sizes=None, den: int = 1, normalized: bool = True) -> float:
    """Definitional d2 of the distribution that puts values[i] / den on each
    of sizes[i] elements of a group of sum(sizes) elements:
    sqrt(|G| sum_x |q(x) - 1/|G||^2), computed exactly and rounded once.
    The values are ints, Fractions or floats, each taken exactly; ``sizes``
    None means one element per value (a dense distribution).

    Pass ``normalized=False`` for sub-probability inputs such as truncated
    Poisson mixtures (the tiny mass defect is part of the approximation).
    """
    deviations, g, den = _deviations(values, sizes, den, normalized)
    return _sqrt_ratio(sum(size * d * d for size, d in deviations), g * den * den)


def tv_of(values, sizes=None, den: int = 1, normalized: bool = True) -> float:
    """Total variation distance to uniform, (1/2) sum_x |q(x) - 1/|G||, of
    the distribution of ``chi_square_of``, exact and rounded once."""
    deviations, g, den = _deviations(values, sizes, den, normalized)
    return float(Fraction(sum(size * abs(d) for size, d in deviations), 2 * g * den))


# ---------------------------------------------------------------------------
# the tests' references: exact, in integers
# ---------------------------------------------------------------------------

def _gathers(weights, n: int, inverse: bool) -> list[tuple[object, list[int]]]:
    """Pairs (w, table) for the pairs (y, w) of ``weights``: table[x] is
    idx(x y^-1) with ``inverse`` and idx(x y) without."""
    perms, index = _listing(n)
    return [(w, [index[x] for x in map(_times(invert(perms[y]) if inverse else perms[y]), perms)])
            for y, w in weights]


def convolve(f: list[int], law: dict[int, Fraction], n: int) -> list[int]:
    """L (f*q)(x) = sum_y f(x y^-1) L q(y) for every x in enumeration order,
    with the integer weights L q(y) that ``orbit_powers`` takes: t steps from
    the point mass at e give L^t q^(t), the dense reference of the orbit
    powers."""
    weights, _ = _common_denominator(law.values())
    gathers = _gathers(zip(law, weights), n, inverse=True)
    out = [0] * math.factorial(n)
    for weight, table in gathers:
        out = [o + weight * f[j] for o, j in zip(out, table)]
    return out


def _fixed_points(p: Perm) -> int:
    return sum(i == v for i, v in enumerate(p))


def fixed_points_minus_one(n: int) -> list[int]:
    """phi(sigma) - 1 in enumeration order, an eigenfunction of every
    class-measure convolution."""
    return [_fixed_points(p) - 1 for p in all_permutations(n)]


def ttr_remark_eigenfunction(n: int) -> list[Fraction]:
    """The rational part g of the transpose-top eigenfunction of eigenvalue 1 - 1/n:

    g(sigma) = phi(sigma) - 2 when sigma fixes the top position and
    phi(sigma) - 1 + 1/(n-1) otherwise.  The remark's eigenfunction is
    f = sqrt((n-1)/(n-2)) g, normalized in l2(u), with f(e)^2 = (n-1)(n-2).
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    off_top = Fraction(1, n - 1) - 1
    return [_fixed_points(p) + (-2 if p[0] == 0 else off_top) for p in all_permutations(n)]


def position_weighted_sums(n: int) -> list[int]:
    """sum_j sigma(j) * j over positions j = 0..n-1, for every sigma."""
    return [sum(v * j for j, v in enumerate(p)) for p in all_permutations(n)]


def ri_wilson_function(n: int) -> list[Fraction]:
    """Wilson's random-insertion eigenfunction.

    f(sigma) = -n + 4/(n-1)^2 * sum_j sigma(j) j with positions 0..n-1.  It is
    quoted with eigenvalue 1 - 1/n and sum_sigma f(sigma)^2 = n! n^2/(n-1);
    the exact ones are (n+1)(n-2)/n^2 and n! n^2 (n+1)^2 / (9 (n-1)^3).
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    return [Fraction(4 * s, (n - 1) ** 2) - n for s in position_weighted_sums(n)]


def eigenfunction_residual(f: list, law: dict[int, Fraction], n: int, beta) -> Fraction:
    """max_x |(f*q)(x) - beta f(x)| for exact values f in enumeration order,
    exactly: 0 certifies the eigenpair.  beta is an int, a Fraction or a
    float taken exactly; with f over one denominator D and the law's weights
    over L, the residual is computed in integers."""
    values, D = _common_denominator(f)
    L = _common_denominator(law.values())[1]
    a, b = Fraction(beta).as_integer_ratio()
    # with F = D f and beta = a/b: L b D ((f*q)(x) - beta f(x)) = b L (F*q)(x) - a L F(x)
    gaps = (abs(b * c - a * L * v) for c, v in zip(convolve(values, law, n), values))
    return Fraction(max(gaps), L * b * D)


def square_gradient_sup(f: list, law: dict[int, Fraction], n: int) -> Fraction:
    """sup_x (1/2) sum_y |f(x) - f(y)|^2 K(x, y) with K(x, y) = q(x^-1 y),
    exactly, in integers as in ``eigenfunction_residual``."""
    values, D = _common_denominator(f)
    weights, L = _common_denominator(law.values())
    acc = [0] * len(values)
    for weight, table in _gathers(zip(law, weights), n, inverse=False):
        acc = [s + weight * (v - values[j]) ** 2 for s, v, j in zip(acc, values, table)]
    return Fraction(max(acc), 2 * L * D * D)


def certify_blocks(law: dict[int, Fraction], n: int, blocks) -> bool:
    """Whether the blocks (beta, m) and the trivial 1 are the whole spectrum
    of convolution by q, symmetric (else ValueError), exactly.  Each b = L beta
    (L the weights' common denominator) is an integer; p(y) = prod_b (y - b)
    has p(L K) q^(0) = 0, so p(L K) = 0 (q^(0)'s translates span), and
    n! L^k q^(k)(e) = tr (L K)^k = sum_b m_b b^k, k <= len(blocks), fixes the m_b."""
    perms, index = _listing(n)
    if any(law.get(index[invert(perms[y])]) != w for y, w in law.items()):
        raise ValueError("certify_blocks needs a symmetric measure, q(x) = q(x^-1)")
    powers, L = orbit_powers(law, law_orbits(law, n), len(blocks) + 1)
    spectrum = [(L * Fraction(beta), m) for beta, m in ((1, 1), *blocks)]
    if any(b.denominator != 1 for b, _ in spectrum):
        return False
    coefficients = [1]  # of prod (y - b), lowest degree first
    for b, _ in spectrum:
        coefficients = [s - b.numerator * c for s, c in zip([0, *coefficients], [*coefficients, 0])]
    traces = [sum(m * b.numerator**k for b, m in spectrum) for k in range(len(spectrum))]
    return (not any(sum(map(mul, coefficients, column)) for column in zip(*powers))
            and traces == [math.factorial(n) * f[0] for f in powers[:-1]])  # e is orbit 0


def form_dominates(law: dict[int, Fraction], law_tilde: dict[int, Fraction], n: int, a) -> bool:
    """Whether a E_q - E_{q~} >= 0, so E_{q~} <= a E_q, for the Dirichlet
    forms (I - K)/|G|, exactly.  a (I - K_q) - (I - K_{q~}) is the kernel of
    r = (a - 1) delta_e - a q + q~, and fraction-free (Bareiss) elimination on
    positive pivots runs on the integer matrix D (r(x^-1 y) + r(y^-1 x))."""
    _guard(n, MAX_ORACLE_N, "exact form comparisons")
    a = Fraction(a)
    r = {y: law_tilde.get(y, 0) - a * law.get(y, 0) for y in {*law, *law_tilde}}
    r[0] = r.get(0, 0) + a - 1
    form = [[0] * math.factorial(n) for _ in range(math.factorial(n))]
    for w, table in _gathers(zip(r, _common_denominator(r.values())[0]), n, inverse=False):
        for x, y in enumerate(table):
            form[x][y] += w
            form[y][x] += w
    last = 1
    while form:  # the rows left hold the Schur complement times the last pivot, a positive minor
        diagonal = [row[i] for i, row in enumerate(form)]
        p = max(diagonal)
        if min(diagonal) < 0 or p == 0:  # a zero diagonal passes only if all that is left is 0
            return min(diagonal) == 0 and not any(map(any, form))
        k = diagonal.index(p)
        pivot = form.pop(k)
        form = [[(p * v - row[k] * u) // last for j, (v, u) in enumerate(zip(row, pivot)) if j != k]
                for row in form]
        last = p
    return True


# ---------------------------------------------------------------------------
# the oracle suite: spectral formulas against exact convolution
# ---------------------------------------------------------------------------

#: the walks the oracle suite checks; a class that does not fit S_n is skipped
ORACLE_WALKS = ("rt", "ttr", "ri", "class:3", "class:4", "lazy:3:1/2")
_ORACLE_DISCRETE_T = 12
_ORACLE_CONTINUOUS_T = (0.5, 1.0, 2.0, 4.0)
_ORACLE_TOL = 1e-8


def check_oracle_ns(ns: range) -> None:
    """Raise unless the oracle suite runs at every n of the non-empty range
    ``ns``: 2 <= n <= MAX_ORACLE_N."""
    if ns[0] < 2:
        raise ValueError(f"--n must be at least 2 for the oracle suite, got {ns[0]}")
    _guard(ns[-1], MAX_ORACLE_N, "oracle verification")


def oracle_checks(n: int, prec: int) -> list[bounds.BoundReport]:
    """One ``oracle:<walk>`` report for every walk of ORACLE_WALKS that fits
    S_n; n is checked before any measure or convolution is made."""
    check_oracle_ns(range(n, n + 1))
    specs = [(text, walks.WalkSpec.parse(text)) for text in ORACLE_WALKS]
    return [_oracle_check(n, text, spec, prec) for text, spec in specs if sum(spec.cycles) <= n]


def _oracle_check(n: int, text: str, spec: walks.WalkSpec, prec: int) -> bounds.BoundReport:
    """The walk's exact blocks (``WalkSpec.blocks``) against definitional
    chi-square from the exact orbit powers, at the discrete times
    0.._ORACLE_DISCRETE_T and the continuous ones: one path for every walk.
    A continuous law mixes the exact powers with the float Poisson weights,
    each taken exactly, so every distance is rounded once."""
    law = step_law(spec, n)
    orbits = law_orbits(law, n)
    mixes = [_poisson_weights(t) for t in _ORACLE_CONTINUOUS_T]
    t_max = max(_ORACLE_DISCRETE_T, *(len(weights) - 1 for weights in mixes))
    powers, L = orbit_powers(law, orbits, t_max)
    blocks = spec.blocks(n)
    spectral = distances.l2_curve(blocks, range(_ORACLE_DISCRETE_T + 1), "discrete", prec)
    spectral += distances.l2_curve(blocks, _ORACLE_CONTINUOUS_T, "continuous", prec)
    laws = [(powers[t], orbits.sizes, L**t) for t in range(_ORACLE_DISCRETE_T + 1)]
    chi2 = [chi_square_of(*law) for law in laws]
    tv_ok = all(2 * tv_of(*law) <= x + 1e-12 for law, x in zip(laws, chi2))
    for weights in mixes:
        nums, den = _mix(powers, L, weights)
        chi2.append(chi_square_of(nums, orbits.sizes, den, normalized=False))
    worst = max(abs(x - float(y)) for x, y in zip(chi2, spectral))
    return bounds.BoundReport(f"oracle:{text}", n, None, _ORACLE_TOL, worst, tv_inequality=tv_ok)


def _mix(powers: list[list[int]], L: int, weights: list[float]) -> tuple[list[int], int]:
    """sum_s w_s q^(s), exactly, from the orbit powers L^s q^(s) of
    ``orbit_powers`` and floats w_s = a_s / 2^(k_s): integers over the
    orbits and their one denominator 2^K L^S, for K the largest k_s and S
    the last s."""
    ratios = [w.as_integer_ratio() for w in weights]
    K, S = max(den.bit_length() - 1 for _, den in ratios), len(weights) - 1
    coefficients = [a << (K - den.bit_length() + 1) for a, den in ratios]
    coefficients = [c * L ** (S - s) for s, c in enumerate(coefficients)]
    return ([sum(c * f[o] for c, f in zip(coefficients, powers)) for o in range(len(powers[0]))],
            L ** S << K)


def _poisson_weights(t: float) -> list[float]:
    """e^-t t^s/s! for s = 0..T, with T the least that leaves a tail of
    less than POISSON_TAIL."""
    if t < 0:
        raise ValueError("t must be non-negative")
    # log pmf recurrence keeps this stable for all oracle-scale t
    log_pmf = -t
    weights = [math.exp(log_pmf)]
    cum = weights[0]
    while 1.0 - cum > POISSON_TAIL:
        if len(weights) > 100000:
            raise RuntimeError("Poisson truncation failed to converge")
        log_pmf += math.log(t) - math.log(len(weights))
        weights.append(math.exp(log_pmf))
        cum += weights[-1]
    return weights
