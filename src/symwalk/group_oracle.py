"""Brute-force ground truth on small symmetric groups.

Elements of S_n are enumerated in Lehmer-code order, i.e. lexicographic
order of one-line notation, with the identity at index 0.  Composition is
fixed once and for all as (s*t)(i) = s(t(i)); every formula in this module
is transcribed against that convention, and the convolution used everywhere
is f*q(x) = sum_y f(x y^-1) q(y), matching the walk X_t = xi_1 ... xi_t.

``element_measure`` reads a parsed ``walks.WalkSpec``: the rt, class and
lazy laws come from the walk's class and holding probability
(``WalkSpec.cycle_type``, ``WalkSpec.hold``), and ttr and ri are written
out from their definitions.  The oracle still computes independently of the
spectra, by convolution rather than by characters.  All distributions are
float64.  Each step weight is summed exactly as a Fraction and rounded
once, so every weight is the correctly rounded value.

Size guards (n! growth): per-element measures up to n = 8, dense
convolutions up to n = 7, and dense operator matrices up to n = 6.
Exceeding a guard raises ResourceGuardError rather than attempting the
computation.

``oracle_checks`` gives the rows of ``verify --suite oracle`` and owns the
suite's walks, times, tolerance and size cap.  Each row checks the walk's
exact blocks, ``WalkSpec.blocks``, against convolution: no row solves a
dense eigenproblem.  ``operator_eigenvalues`` and ``kernel_matrix`` remain
as the reference the tests compare the blocks with, and for
``comparison_gap``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import bounds, distances, walks
from .characters import CycleType, class_size
from .errors import ResourceGuardError  # re-exported: callers catch it from here

Perm = tuple[int, ...]

MAX_MEASURE_N = 8
MAX_CONVOLUTION_N = 7
MAX_DENSE_N = 6
#: every continuous-time law drops a Poisson tail of less than this mass
POISSON_TAIL = 1e-14


def _guard(n: int, cap: int, what: str) -> None:
    if n > cap:
        raise ResourceGuardError(f"{what} is capped at n <= {cap}, got n = {n}")


# ---------------------------------------------------------------------------
# permutation plumbing
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _perm_data(n: int) -> tuple[tuple[Perm, ...], dict[Perm, int]]:
    perms = tuple(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return perms, index


def all_permutations(n: int) -> tuple[Perm, ...]:
    """All of S_n in Lehmer-code (lexicographic one-line) order."""
    _guard(n, MAX_MEASURE_N, "permutation enumeration")
    return _perm_data(n)[0]


def perm_index(p: Perm) -> int:
    return _perm_data(len(p))[1][tuple(p)]


def compose(s: Perm, t: Perm) -> Perm:
    """(s*t)(i) = s(t(i))."""
    return tuple(s[t[i]] for i in range(len(s)))


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


def fixed_point_counts(n: int) -> np.ndarray:
    """phi(sigma) for every sigma, indexed by enumeration order."""
    perms = all_permutations(n)
    return np.array([sum(1 for i, v in enumerate(p) if i == v) for p in perms])


@lru_cache(maxsize=None)
def _perm_array(n: int) -> np.ndarray:
    """S_n in enumeration order as an n! x n array of one-line rows."""
    perms = _perm_data(n)[0]
    return np.array(perms, dtype=np.int64).reshape(len(perms), n)


def _lehmer_ranks(rows: np.ndarray) -> np.ndarray:
    """Enumeration index of every one-line row: sum_i c_i (n-1-i)!, with c_i
    the number of entries right of position i that are below row[i]."""
    n = rows.shape[1]
    ranks = np.zeros(len(rows), dtype=np.int64)
    for i in range(n - 1):
        smaller = np.count_nonzero(rows[:, i + 1:] < rows[:, i:i + 1], axis=1)
        ranks += smaller * math.factorial(n - 1 - i)
    return ranks


@lru_cache(maxsize=None)
def _translation_map(n: int, s: Perm) -> np.ndarray:
    """idx(x * s) for every x; right translation as an index gather table.
    Row x of the permutation array gathered at the columns s is x * s."""
    return _lehmer_ranks(_perm_array(n)[:, list(s)])


# ---------------------------------------------------------------------------
# distributions
# ---------------------------------------------------------------------------

class GroupDistribution(NamedTuple):
    """Dense float64 probability vector over S_n in enumeration order."""

    n: int
    values: np.ndarray

    def total(self) -> float:
        return float(np.sum(self.values))

    def support(self) -> list[int]:
        return [int(i) for i in np.nonzero(self.values)[0]]


def point_mass(n: int) -> GroupDistribution:
    arr = np.zeros(math.factorial(n))
    arr[0] = 1.0
    return GroupDistribution(n, arr)


def insertion_cycle(n: int, i: int, j: int) -> Perm:
    """The cycle c_{i,j} moved by taking the card at position i to position j.

    For i < j this is the cycle (j, j-1, ..., i+1, i); for j < i the cycle
    (j, j+1, ..., i-1, i); i = j gives the identity.  Positions are 0-based.
    """
    p = list(range(n))
    if i < j:
        for k in range(i + 1, j + 1):
            p[k] = k - 1
        p[i] = j
    elif j < i:
        for k in range(j, i):
            p[k] = k + 1
        p[i] = j
    return tuple(p)


def element_measure(walk: walks.WalkSpec, n: int) -> GroupDistribution:
    """Per-element step distribution of a walk.

    rt, class and lazy put the walk's hold (``WalkSpec.hold``) on e and
    (1 - hold)/|C| on each element of its class C (``WalkSpec.cycle_type``);
    ttr puts 1/n on e and on each (1, i); ri puts 1/n^2 on c_{i,j} for every
    ordered pair, which folds to 1/n on e and 2/n^2 on the adjacent
    (transposition) cycles.
    """
    _guard(n, MAX_MEASURE_N, "per-element measures")
    walk.check_n(n)
    perms, index = _perm_data(n)
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
        add(perms[0], hold)
        w = (1 - hold) / class_size(cycles)
        for p in perms:
            if cycle_type_of(p) == cycles:
                add(p, w)

    arr = np.zeros(len(perms))
    for idx, w in acc.items():
        arr[idx] = float(w)
    return GroupDistribution(n, arr)


def _support_maps(q: GroupDistribution, inverse: bool) -> list[tuple[np.ndarray, float]]:
    """Pairs (gather table, weight) for y in supp(q): table[x] = idx(x*y^±1)."""
    perms, _ = _perm_data(q.n)
    out = []
    for idx in q.support():
        s = perms[idx]
        target = invert(s) if inverse else s
        out.append((_translation_map(q.n, target), q.values[idx]))
    return out


def convolve(f_values: np.ndarray, q: GroupDistribution, maps=None) -> np.ndarray:
    """(f*q)(x) = sum_y f(x y^-1) q(y) for a dense vector of f-values."""
    if maps is None:
        maps = _support_maps(q, inverse=True)
    out = np.zeros_like(f_values)
    for table, w in maps:
        out += w * f_values[table]
    return out


def _extend_powers(q: GroupDistribution, powers: list[GroupDistribution], t_max: int) -> None:
    """Append q^(s) to ``powers`` = [q^(0), ...] until it reaches q^(t_max)."""
    if len(powers) > t_max:
        return
    maps = _support_maps(q, inverse=True)
    while len(powers) <= t_max:
        powers.append(GroupDistribution(q.n, convolve(powers[-1].values, q, maps)))


def convolution_powers_upto(q: GroupDistribution, t_max: int) -> list[GroupDistribution]:
    """[q^(0), q^(1), ..., q^(t_max)] sharing one pass of convolutions."""
    _guard(q.n, MAX_CONVOLUTION_N, "dense convolutions")
    powers = [point_mass(q.n)]
    _extend_powers(q, powers, t_max)
    return powers


def continuous_law(
    q: GroupDistribution, t: float, powers: list[GroupDistribution] | None = None,
) -> tuple[GroupDistribution, int]:
    """Poisson mixture h_t = e^-t sum_s t^s/s! q^(s), truncated at tail < POISSON_TAIL.

    Returns the (sub-probability) mixture and the truncation point T; the
    omitted Poisson tail mass beyond T is below ``POISSON_TAIL``.  ``powers``,
    a list [q^(0), q^(1), ...] as ``convolution_powers_upto`` returns, is
    mixed from and extended in place up to q^(T), so laws at several t
    share one pass of convolutions.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    _guard(q.n, MAX_CONVOLUTION_N, "dense convolutions")
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
    if powers is None:
        powers = [point_mass(q.n)]
    _extend_powers(q, powers, len(weights) - 1)
    mix = np.zeros(math.factorial(q.n))
    for w, power in zip(weights, powers):
        mix += w * power.values
    return GroupDistribution(q.n, mix), len(weights) - 1


# ---------------------------------------------------------------------------
# functions on the group, eigen-checks, comparison forms
# ---------------------------------------------------------------------------

class GroupFunction(NamedTuple):
    n: int
    values: np.ndarray


def fixed_points_minus_one(n: int) -> GroupFunction:
    """phi(sigma) - 1, an eigenfunction of every class-measure convolution."""
    return GroupFunction(n, fixed_point_counts(n).astype(np.float64) - 1.0)


def ttr_remark_eigenfunction(n: int) -> GroupFunction:
    """The explicit transpose-top eigenfunction with eigenvalue 1 - 1/n.

    f(sigma) = sqrt((n-1)/(n-2)) * (phi(sigma) - 2) when sigma fixes the top
    position, and sqrt((n-1)/(n-2)) * (phi(sigma) - 1 + 1/(n-1)) otherwise;
    its value at the identity satisfies f(e)^2 = (n-1)(n-2).
    """
    if n < 3:
        raise ValueError("needs n >= 3")
    perms = all_permutations(n)
    phi = fixed_point_counts(n).astype(np.float64)
    scale = math.sqrt((n - 1) / (n - 2))
    fixes_top = np.array([p[0] == 0 for p in perms])
    vals = np.where(fixes_top, phi - 2.0, phi - 1.0 + 1.0 / (n - 1))
    return GroupFunction(n, scale * vals)


def position_weighted_sums(n: int) -> list[int]:
    """sum_j sigma(j) * j over positions j = 0..n-1, for every sigma."""
    perms = all_permutations(n)
    return [sum(v * j for j, v in enumerate(p)) for p in perms]


def ri_wilson_function(n: int) -> GroupFunction:
    """Wilson's random-insertion eigenfunction.

    f(sigma) = -n + 4/(n-1)^2 * sum_j sigma(j) j with positions 0..n-1.  It
    satisfies f * q_ri = (1 - 1/n) f and sum_sigma f(sigma)^2 = n! n^2/(n-1).
    """
    if n < 2:
        raise ValueError("needs n >= 2")
    sums = position_weighted_sums(n)
    vals = np.array([-n + 4.0 * s / (n - 1) ** 2 for s in sums])
    return GroupFunction(n, vals)


def eigenfunction_residual(f: GroupFunction, q: GroupDistribution, beta: float) -> float:
    """max_x |(f*q)(x) - beta f(x)|; ~0 certifies the eigenpair."""
    if f.n != q.n:
        raise ValueError("degree mismatch")
    conv = convolve(f.values, q)
    return float(np.max(np.abs(conv - beta * f.values)))


def square_gradient_sup(f: GroupFunction, q: GroupDistribution) -> float:
    """sup_x (1/2) sum_y |f(x) - f(y)|^2 K(x, y) with K(x, y) = q(x^-1 y)."""
    if f.n != q.n:
        raise ValueError("degree mismatch")
    acc = np.zeros_like(f.values)
    for table, w in _support_maps(q, inverse=False):
        acc += w * (f.values - f.values[table]) ** 2
    return float(np.max(acc)) / 2.0


def kernel_matrix(q: GroupDistribution) -> np.ndarray:
    """Dense K(x, y) = q(x^-1 y); symmetric whenever q is."""
    _guard(q.n, MAX_DENSE_N, "dense operator matrices")
    size = math.factorial(q.n)
    K = np.zeros((size, size))
    rows = np.arange(size)
    for table, w in _support_maps(q, inverse=False):
        K[rows, table] += w
    return K


def operator_eigenvalues(q: GroupDistribution) -> np.ndarray:
    """All n! eigenvalues of convolution by q, descending.  q must be
    symmetric, q(x) = q(x^-1), which is checked on the measure: then its one
    dense matrix is symmetric, and no second n! x n! array is made."""
    perms, index = _perm_data(q.n)
    if any(q.values[index[invert(perms[i])]] != q.values[i] for i in q.support()):
        raise ValueError("operator_eigenvalues needs a symmetric measure, q(x) = q(x^-1)")
    return np.linalg.eigvalsh(kernel_matrix(q))[::-1]


def comparison_gap(q: GroupDistribution, q_tilde: GroupDistribution, a: float) -> float:
    """Minimum eigenvalue of the quadratic form a*E_q - E_{q_tilde}.

    A non-negative value certifies E_{q_tilde} <= a * E_q.  Both Dirichlet
    forms are taken with the uniform reversible measure, i.e. the form matrix
    of E_p is (I - K_p)/|G|.
    """
    if q.n != q_tilde.n:
        raise ValueError("degree mismatch")
    _guard(q.n, MAX_DENSE_N, "comparison-form eigenproblems")
    size = math.factorial(q.n)
    eye = np.eye(size)
    form = (a * (eye - kernel_matrix(q)) - (eye - kernel_matrix(q_tilde))) / size
    vals = np.linalg.eigvalsh((form + form.T) / 2.0)
    return float(vals[0])


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
    ``ns``: 2 <= n <= MAX_DENSE_N."""
    if ns[0] < 2:
        raise ValueError(f"--n must be at least 2 for the oracle suite, got {ns[0]}")
    _guard(ns[-1], MAX_DENSE_N, "oracle verification")


def oracle_checks(n: int, prec: int) -> list[bounds.BoundReport]:
    """One ``oracle:<walk>`` report for every walk of ORACLE_WALKS that fits
    S_n; n is checked before any measure or convolution is made."""
    check_oracle_ns(range(n, n + 1))
    specs = [(text, walks.WalkSpec.parse(text)) for text in ORACLE_WALKS]
    return [_oracle_check(n, text, spec, prec) for text, spec in specs if sum(spec.cycles) <= n]


def _oracle_check(n: int, text: str, spec: walks.WalkSpec, prec: int) -> bounds.BoundReport:
    """The walk's exact blocks (``WalkSpec.blocks``) against definitional
    chi-square from exact convolution, at the discrete times
    0.._ORACLE_DISCRETE_T and the continuous ones: one path for every walk."""
    qel = element_measure(spec, n)
    powers = convolution_powers_upto(qel, _ORACLE_DISCRETE_T)
    shared = powers[:]  # every Poisson mixture extends this copy and mixes from it
    laws = [continuous_law(qel, t, powers=shared)[0] for t in _ORACLE_CONTINUOUS_T]
    blocks = spec.blocks(n)
    spectral = distances.l2_curve(blocks, range(len(powers)), "discrete", prec)
    spectral += distances.l2_curve(blocks, _ORACLE_CONTINUOUS_T, "continuous", prec)
    chi2 = [distances.chi_square_of(dist) for dist in powers]
    tv_ok = all(2 * distances.tv_of(dist) <= x + 1e-12 for dist, x in zip(powers, chi2))
    chi2 += [distances.chi_square_of(h, normalized=False) for h in laws]
    worst = max(abs(x - float(y)) for x, y in zip(chi2, spectral))
    return bounds.BoundReport(f"oracle:{text}", n, None, _ORACLE_TOL, worst, tv_inequality=tv_ok)
