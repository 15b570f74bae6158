"""Monte Carlo total-variation experiments for the shuffle walks.

Trajectories are simulated in fixed-size blocks; block b draws from a
Philox counter-based generator seeded by SeedSequence(seed).spawn()[b], so
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
from .walks import WalkSpec

BLOCK_SIZE = 8192
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


def _class_representative(cycles: tuple[int, ...]) -> np.ndarray:
    rep = np.arange(sum(cycles), dtype=np.int64)
    start = 0
    for c in cycles:
        for off in range(c):
            rep[start + off] = start + (off + 1) % c
        start += c
    return rep


class _Stepper:
    """Vectorized one-step kernels; X has one trajectory per row and the
    update is always the right multiplication X <- X o xi."""

    def __init__(self, spec: WalkSpec, n: int):
        self.n = n
        self.kind = spec.kind
        self.rep = _class_representative(spec.cycle_type(n)) if spec.cycles else None
        self.eps = None if spec.eps is None else float(spec.eps)

    def step(self, X: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        n = self.n
        m = X.shape[0]
        rows = np.arange(m)
        if self.kind == "ttr":
            i = rng.integers(0, n, size=m)
            tmp = X[rows, i].copy()
            X[rows, i] = X[rows, 0]
            X[rows, 0] = tmp
            return X
        if self.kind == "rt":
            i = rng.integers(0, n, size=m)
            j = rng.integers(0, n, size=m)
            tmp = X[rows, i].copy()
            X[rows, i] = X[rows, j]
            X[rows, j] = tmp
            return X
        if self.kind == "ri":
            i = rng.integers(0, n, size=m)
            j = rng.integers(0, n, size=m)
            cols = np.arange(n)[None, :]
            lo = np.minimum(i, j)[:, None]
            hi = np.maximum(i, j)[:, None]
            down = (cols > lo) & (cols <= hi) & (i < j)[:, None]
            up = (cols >= lo) & (cols < hi) & (j < i)[:, None]
            idx = cols - down.astype(np.int64) + up.astype(np.int64)
            idx[rows, i] = j
            return np.take_along_axis(X, idx, axis=1)
        # uniform class step: conjugate the representative by a uniform g
        G = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        Ginv = np.argsort(G, axis=1)
        xi = np.take_along_axis(G, self.rep[Ginv], axis=1)
        stepped = np.take_along_axis(X, xi, axis=1)
        if self.kind == "lazy":
            hold = rng.random(m) < self.eps
            stepped[hold] = X[hold]
        return stepped


@dataclass
class WalkStatistics:
    """Aggregated fixed-point data from n_samples independent trajectories."""

    config: SimConfig
    fixed_point_histogram: np.ndarray  # counts of phi(X_t) = 0..n

    def event_frequency(self, j: int) -> float:
        """Empirical probability of A_j = {phi >= j}."""
        return float(self.fixed_point_histogram[j:].sum()) / self.config.n_samples


def sample_walk(cfg: SimConfig, progress: bool = False) -> WalkStatistics:
    """Run n_samples trajectories of t steps and tally phi(X_t)."""
    stepper = _Stepper(WalkSpec.parse(cfg.walk), cfg.n)
    hist = np.zeros(cfg.n + 1, dtype=np.int64)
    n_blocks = -(-cfg.n_samples // BLOCK_SIZE)
    streams = np.random.SeedSequence(cfg.seed).spawn(n_blocks)
    target = np.arange(cfg.n)
    done = 0
    next_progress = _PROGRESS_EVERY
    for b, stream in enumerate(streams):
        m = min(BLOCK_SIZE, cfg.n_samples - b * BLOCK_SIZE)
        rng = np.random.Generator(np.random.Philox(stream))
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
        raise ValueError(f"need at least {_MIN_SAMPLES_FOR_STDERR} samples")
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
