"""Monte Carlo total-variation experiments for the shuffle walks.

Trajectories are simulated in fixed-size blocks; block b draws from a
Philox counter-based generator seeded by block_seed(seed, b), so
results are bit-for-bit reproducible for a given (seed, config) no matter
how blocks are scheduled, and blocks can run in parallel with no shared
RNG state.  Aggregation follows the fixed block order.

The estimator of interest is the fixed-point event A_j = {phi >= j}:
empirical q^(t)(A_j) minus the exact stationary mass u(A_j) is a valid
(noisy) lower bound for the total variation distance at time t.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from mpmath import mp

from .bounds import matching_tail
from .errors import ResourceGuardError
from .walks import WalkSpec

BLOCK_SIZE = 8192
#: largest n simulated: blocks of BLOCK_SIZE x n positions, exact u(A_j) in ~n^2 steps
MAX_SIMULATE_N = 4096
#: version of the map from Philox draws to steps; recorded in the simulate
#: manifest.  2: O(support) class/lazy steps (ttr, rt, ri unchanged from 1)
STREAM_VERSION = 2
_PROGRESS_EVERY = 10**6
_MIN_SAMPLES_FOR_STDERR = 1000


@dataclass(frozen=True)
class SimConfig:
    """Everything that determines a simulation bit-for-bit."""

    n: int
    walk: str  # a walk string, parsed by WalkSpec.parse
    t: int
    n_samples: int
    seed: int
    j: int = 2

    def __post_init__(self) -> None:
        if self.n < 2 or self.t < 0 or self.n_samples < 1:
            raise ValueError("need n >= 2, t >= 0, n_samples >= 1")
        if self.n > MAX_SIMULATE_N:
            raise ResourceGuardError(f"simulation is capped at n <= {MAX_SIMULATE_N}")


def trajectory_dtype(n: int) -> type[np.signedinteger]:
    """The smallest signed dtype the stepper stores positions 0..n-1 in."""
    return np.int16 if n - 1 <= np.iinfo(np.int16).max else np.int32


class _Stepper:
    """Vectorized one-step kernels; X has one trajectory per row and the
    update is always the right multiplication X <- X o xi.

    Each kernel touches only the positions its step moves: swaps and the
    class rotation go through flat indices ``rows * n + position`` of the
    C-contiguous X, and ri shifts one segment per row with masked copies.
    """

    def __init__(self, spec: WalkSpec, n: int):
        self.n = n
        self.kind = spec.kind
        self.cycles = spec.cycles
        if spec.cycles:
            spec.cycle_type(n)  # the class must fit in S_n
        self.eps = None if spec.eps is None else float(spec.eps)
        self.positions = np.arange(n, dtype=trajectory_dtype(n))
        self._base = np.zeros(0, dtype=np.int64)

    def _distinct_positions(self, m: int, rng: np.random.Generator) -> np.ndarray:
        """Per row, a uniform ordered tuple of sum(cycles) distinct positions.

        Sequential skipping: the k-th pick is uniform over the n-k positions
        still free, found by adding 1 for each earlier pick at or below it,
        taking the earlier picks in ascending order.
        """
        s = sum(self.cycles)
        picks = np.empty((m, s), dtype=np.int64)
        for k in range(s):
            p = rng.integers(0, self.n - k, size=m)
            for earlier in np.sort(picks[:, :k], axis=1).T:
                p += earlier <= p
            picks[:, k] = p
        return picks

    def step(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = self.n
        m = X.shape[0]
        X = np.ascontiguousarray(X)  # the flat view below must write through
        flat = X.reshape(-1)
        if len(self._base) != m:  # flat index of each row's start, once per block size
            self._base = np.arange(m, dtype=np.int64) * n
        base = self._base
        if self.kind == "ttr":
            a = base + rng.integers(0, n, size=m)
            tmp = flat[a]
            flat[a] = flat[base]
            flat[base] = tmp
            return X
        if self.kind == "rt":
            a = base + rng.integers(0, n, size=m)
            b = base + rng.integers(0, n, size=m)
            tmp = flat[a]
            flat[a] = flat[b]
            flat[b] = tmp
            return X
        if self.kind == "ri":
            # the card at j moves to i; the cards between shift one place toward j's side
            i = rng.integers(0, n, size=m)
            j = rng.integers(0, n, size=m)
            # compare in the compact dtype: the masks are most of the step's cost
            i_col, j_col = (v.astype(self.positions.dtype)[:, None] for v in (i, j))
            right, left = self.positions[1:], self.positions[:-1]
            new = X.copy()
            np.copyto(new[:, 1:], X[:, :-1], where=(i_col < right) & (right <= j_col))
            np.copyto(new[:, :-1], X[:, 1:], where=(j_col <= left) & (left < i_col))
            new.reshape(-1)[base + i] = flat[base + j]
            return new
        # class/lazy: xi is a uniform element of the class, given by its support
        # positions in cycle order; the step rotates X's values along each cycle
        idx = base[:, None] + self._distinct_positions(m, rng)
        vals = flat[idx]
        start = 0
        for c in self.cycles:
            vals[:, start:start + c] = np.roll(vals[:, start:start + c], -1, axis=1)
            start += c
        if self.kind == "lazy":
            move = rng.random(m) >= self.eps
            idx, vals = idx[move], vals[move]
        flat[idx] = vals
        return X


@dataclass
class WalkStatistics:
    """Aggregated fixed-point data from n_samples independent trajectories."""

    config: SimConfig
    fixed_point_histogram: np.ndarray  # counts of phi(X_t) = 0..n

    def event_frequency(self, j: int) -> float:
        """Empirical probability of A_j = {phi >= j}."""
        return float(self.fixed_point_histogram[j:].sum()) / self.config.n_samples


def block_seed(seed: int, b: int) -> np.random.SeedSequence:
    """SeedSequence(seed).spawn(k)[b] for any k > b, without the other k - 1."""
    return np.random.SeedSequence(seed, spawn_key=(b,))


def sample_walk(cfg: SimConfig, progress: bool = False) -> WalkStatistics:
    """Run n_samples trajectories of t steps and tally phi(X_t)."""
    stepper = _Stepper(WalkSpec.parse(cfg.walk), cfg.n)
    hist = np.zeros(cfg.n + 1, dtype=np.int64)
    n_blocks = -(-cfg.n_samples // BLOCK_SIZE)
    target = stepper.positions
    done = 0
    next_progress = _PROGRESS_EVERY
    for b in range(n_blocks):
        m = min(BLOCK_SIZE, cfg.n_samples - b * BLOCK_SIZE)
        rng = np.random.Generator(np.random.Philox(block_seed(cfg.seed, b)))
        X = np.tile(target, (m, 1))
        for _ in range(cfg.t):
            X = stepper.step(X, rng)
        counts = (X == target[None, :]).sum(axis=1)
        hist += np.bincount(counts, minlength=cfg.n + 1)
        done += m
        if progress and done >= next_progress:
            print(f"symwalk: {done} trajectories done", file=sys.stderr)
            next_progress += _PROGRESS_EVERY
    return WalkStatistics(cfg, hist)


@dataclass(frozen=True)
class TVLowerBound:
    estimate: float     # empirical q^(t)(A_j) - u(A_j)
    std_err: float      # binomial standard error of the empirical term
    frequency: float    # empirical q^(t)(A_j)
    u_exact: float      # exact stationary mass of A_j
    config: SimConfig


def fixed_point_tv_lower(
    n: int,
    t: int,
    j: int,
    n_samples: int,
    seed: int,
    walk: str = "ttr",
    progress: bool = False,
) -> TVLowerBound:
    """Noisy TV lower bound q^(t)(A_j) - u(A_j) with exact u(A_j)."""
    if not 2 <= j <= n:
        raise ValueError("need 2 <= j <= n")
    if n_samples < _MIN_SAMPLES_FOR_STDERR:
        raise ValueError(
            f"need at least {_MIN_SAMPLES_FOR_STDERR} trajectories for the std-error column")
    cfg = SimConfig(n=n, walk=walk, t=t, n_samples=n_samples, seed=seed, j=j)
    stats = sample_walk(cfg, progress=progress)
    p_hat = stats.event_frequency(j)
    u = float(matching_tail(n, j).value)
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / n_samples)
    return TVLowerBound(p_hat - u, se, p_hat, u, cfg)


# ---------------------------------------------------------------------------
# coupon collector bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CouponStats:
    """Balls-in-boxes waiting time V_{n-j}: exact moments and their bounds.

    The mean sum runs over i = 1..n-j-1 (empty range contributes 0); the
    variance sum adds Var(V_{i+1} - V_i) = (n/(n-i))^2 (1 - (n-i)/n) over
    the same range.  chebyshev_tail is 1/(j (c - log(j+1))^2) when a drift
    constant c is supplied.
    """

    mean_sum: Fraction
    mean_lower: float           # n log(n/(j+1))
    variance_sum: Fraction
    variance_upper: Fraction    # n^2 / j
    chebyshev_tail: float | None


def coupon_stats(n: int, j: int, c: float | None = None) -> CouponStats:
    if not 1 <= j < n:
        raise ValueError("need 1 <= j < n")
    mean_sum = Fraction(0)
    var_sum = Fraction(0)
    for i in range(1, n - j):
        geo = Fraction(n, n - i)
        mean_sum += geo
        var_sum += geo * geo * (1 - Fraction(n - i, n))
    tail = None
    if c is not None:
        drift = c - math.log(j + 1)
        if drift <= 0:
            raise ValueError("Chebyshev bound needs c > log(j+1)")
        tail = 1.0 / (j * drift * drift)
    return CouponStats(
        mean_sum=mean_sum,
        mean_lower=n * math.log(n / (j + 1)),
        variance_sum=var_sum,
        variance_upper=Fraction(n * n, j),
        chebyshev_tail=tail,
    )


def poisson_window_mass(k: float, alpha: float) -> float:
    """P(X <= k + k^alpha) for X ~ Poisson(k); tends to 1 as k grows."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0.5 < alpha < 1.0:
        raise ValueError("alpha must lie in (1/2, 1)")
    m = math.floor(k + k**alpha)
    return float(mp.gammainc(m + 1, a=k, regularized=True))
