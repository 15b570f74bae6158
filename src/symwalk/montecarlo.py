"""Monte Carlo total-variation experiments for the shuffle walks.

Trajectories are simulated in fixed-size blocks; block b draws from its own
counter-based stream, ``BlockStream(seed, b)``: SplitMix64 words addressed by
(seed, b, index) and mapped to exactly uniform integers by Lemire's
multiply-shift with rejection.  So results are bit-for-bit reproducible for a
given (seed, config) no matter how blocks are scheduled, blocks can run in
parallel with no shared RNG state, and numpy's RNG package is never loaded.
Aggregation follows the fixed block order.

The estimator of interest is the fixed-point event A_j = {phi >= j}:
empirical q^(t)(A_j) minus the exact stationary mass u(A_j) is a valid
(noisy) lower bound for the total variation distance at time t.

``SimConfig`` is the one check of a simulation's inputs; the sampler and
the estimator take a checked config and check nothing.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ResourceGuardError
from .walks import WalkSpec, eval_time_expr

BLOCK_SIZE = 8192
#: largest n simulated: blocks of BLOCK_SIZE x n positions, exact u(A_j) in ~n^2 steps
MAX_SIMULATE_N = 4096
#: largest simulated work N x t in row steps, over 20x the largest acceptance run (4.6e7),
#: and largest N x n, the positions a run stores and counts
MAX_ROW_STEPS = 10**9
#: version of the map from seeds to steps; recorded in the simulate manifest.
#: 1: Philox streams; 2: O(support) class/lazy steps (ttr, rt, ri unchanged);
#: 3: BlockStream in place of Philox, every step kind drawing as in 2
STREAM_VERSION = 3
#: bytes added to each row of a block: a row of BLOCK_SIZE entries spans a
#: multiple of 4096 bytes, so without them one column of every row shares an
#: L1 cache set and the scattered swaps and rotations evict each other
_ROW_PAD_BYTES = 64
_PROGRESS_EVERY = 10**6
_MIN_SAMPLES_FOR_STDERR = 1000


class _SimFields(NamedTuple):
    walk: WalkSpec
    n: int
    t: int
    j: int
    n_samples: int
    seed: int


class SimConfig(_SimFields):
    """Everything that determines a simulation bit-for-bit, and the one check of
    simulate's flags as given, in flag order with each message naming its flag:
    the walk fits S_n, 2 <= n <= MAX_SIMULATE_N, t >= 0, 2 <= j <= n, N >= 1000,
    N x t <= MAX_ROW_STEPS, N x n <= MAX_ROW_STEPS, seed >= 0.  ``t``, a time
    expression in n, is held as steps rounded up.  Immutable, as a tuple."""

    __slots__ = ()

    def __new__(cls, walk: str, n: int, t: str, j: int, n_samples: int, seed: int) -> SimConfig:
        spec = WalkSpec.parse(walk)
        if sum(spec.cycles) > n:  # not spec.cycle_type(n): that builds n entries before the cap
            raise ValueError(f"class {spec.cycles} does not fit in S_{n}")
        if n < 2:
            raise ValueError(f"--n must be at least 2, got {n}")
        if n > MAX_SIMULATE_N:
            raise ResourceGuardError(f"simulation is capped at n <= {MAX_SIMULATE_N}")
        steps = eval_time_expr(t, n)
        if steps < 0:
            raise ValueError(f"--t must be non-negative, got {steps:g}")
        if not 2 <= j <= n:
            raise ValueError(f"--j must lie in 2..{n}, got {j}")
        if n_samples < _MIN_SAMPLES_FOR_STDERR:
            raise ValueError(f"--N must be at least {_MIN_SAMPLES_FOR_STDERR} for the "
                             f"std-error column, got {n_samples}")
        steps = math.ceil(steps)
        if n_samples * steps > MAX_ROW_STEPS:
            raise ResourceGuardError(f"simulation is capped at --N x --t <= {MAX_ROW_STEPS} "
                                     f"row steps, got {n_samples} x {steps:g}")
        if n_samples * n > MAX_ROW_STEPS:
            raise ResourceGuardError(f"simulation is capped at --N x --n <= {MAX_ROW_STEPS} "
                                     f"positions, got {n_samples} x {n}")
        if seed < 0:
            raise ValueError(f"--seed must be a non-negative integer, got {seed}")
        return super().__new__(cls, spec, n, steps, j, n_samples, seed)


def trajectory_dtype(n: int) -> type[np.unsignedinteger]:
    """The smallest unsigned dtype the stepper stores positions 0..n-1 in."""
    return np.min_scalar_type(n - 1).type


def new_block(n: int, m: int) -> np.ndarray:
    """An uninitialised block of m trajectories: shape (n, m) in the trajectory
    dtype, each row padded by _ROW_PAD_BYTES."""
    dtype = np.dtype(trajectory_dtype(n))
    return np.empty((n, m + _ROW_PAD_BYTES // dtype.itemsize), dtype=dtype)[:, :m]


_MASK64 = (1 << 64) - 1
#: SplitMix64's Weyl increment (2^64 over the golden ratio, made odd) and its
#: two mixing multipliers
_GAMMA, _M1, _M2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


def _mix64(z: int) -> int:
    """SplitMix64's output function, a bijection of [0, 2^64), on a Python int."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def _lemire(lanes: np.ndarray, n: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's multiply-shift with rejection on uniform ``width``-bit lanes,
    for 1 <= n <= 2^width <= 2^32: lane x maps to (x n) >> width and is accepted
    when the low ``width`` bits of x n are at least 2^width mod n.  Each value
    0..n-1 is then the image of exactly floor(2^width / n) lanes.  Returns the
    values as uint64 and the accepted mask."""
    product = np.multiply(lanes, np.uint64(n), dtype=np.uint64)
    accepted = (product & np.uint64((1 << width) - 1)) >= np.uint64((1 << width) % n)
    product >>= np.uint64(width)
    return product, accepted


class BlockStream:
    """The random stream of block ``block`` of a run seeded by ``seed``:
    word i is mix64(key + i gamma mod 2^64), SplitMix64 (Steele, Lea and Flood
    2014), where the key folds the seed's 64-bit limbs, least significant
    first, and then the block index through mix64.  Any word is addressed by
    its index, so blocks are independent of each other's schedule, and any
    non-negative seed is accepted.

    The sampler needs two methods, drawn from the words in call order:
    ``integers(0, n, size)``, exactly uniform, and ``random(size)``, 53-bit
    floats in [0, 1).
    """

    def __init__(self, seed: int, block: int):
        key = 0
        for shift in range(0, max(seed.bit_length(), 1), 64):
            key = _mix64((key + ((seed >> shift) & _MASK64) + _GAMMA) & _MASK64)
        self.key = _mix64((key + block + _GAMMA) & _MASK64)
        self._drawn = 0  # words drawn so far
        self._offsets = np.empty(0, dtype=np.uint64)  # i gamma for i < len, grown on demand

    def words(self, k: int) -> np.ndarray:
        """The next k words, as uint64."""
        # uint64 scalars throughout, so that numpy 1.x (value-based casting)
        # and 2.x give the same words
        u = np.uint64
        if len(self._offsets) < k:
            self._offsets = np.arange(k, dtype=u) * u(_GAMMA)
        z = self._offsets[:k] + u((self.key + self._drawn * _GAMMA) & _MASK64)
        self._drawn += k
        z ^= z >> u(30)
        z *= u(_M1)
        z ^= z >> u(27)
        z *= u(_M2)
        z ^= z >> u(31)
        return z

    def _lanes(self, size: int) -> np.ndarray:
        """size 32-bit lanes: the low then the high half of each next word."""
        return self.words((size + 1) // 2).astype("<u8", copy=False).view("<u4")[:size]

    def integers(self, low: int, high: int, size: int) -> np.ndarray:
        """size int64 draws, exactly uniform on low..high-1 for 1 <= high - low
        <= 2^32.  Rejected lanes are drawn again, in index order, from the
        following words."""
        n = high - low
        if not 1 <= n <= 1 << 32:
            raise ValueError(f"integers needs 1 <= high - low <= 2^32, got {n}")
        values, accepted = _lemire(self._lanes(size), n, 32)
        while not accepted.all():  # each lane is rejected with chance (2^32 mod n) / 2^32
            redo = np.flatnonzero(~accepted)
            values[redo], accepted[redo] = _lemire(self._lanes(len(redo)), n, 32)
        out = values.view(np.int64)  # values < 2^32: the same numbers
        if low:
            out += low
        return out

    def random(self, size: int) -> np.ndarray:
        """size float64 draws, uniform on the multiples of 2^-53 in [0, 1):
        (w >> 11) 2^-53, numpy's rule for 53-bit doubles."""
        return (self.words(size) >> np.uint64(11)).astype(np.float64) * 2.0**-53


class _Stepper:
    """Vectorized one-step kernels bound to one block X of shape (n, m):
    column r is trajectory r, ``X[p, r]`` its card at position p, and each
    step is the right multiplication X <- X o xi, in place.

    Each kernel touches only the positions its step moves: swaps and the
    class rotation go through flat indices ``position * row + column``
    (``row`` is X's row stride, m plus any padding), and ri shifts one
    segment per column by arithmetic blends of adjacent rows, exact mod 2^k
    in X's unsigned dtype.  X's rows must be unit-stride, as ``new_block``'s
    are; any other X is rejected, not copied.
    """

    def __init__(self, spec: WalkSpec, X: np.ndarray):
        n, m = X.shape
        size = X.itemsize
        if X.strides[1] != size or X.strides[0] % size or X.strides[0] < m * size:
            raise ValueError("block rows must be unit-stride and not overlap, "
                             f"got strides {X.strides}")
        self.X = X
        self.row = X.strides[0] // size
        self.flat = np.lib.stride_tricks.as_strided(X, ((n - 1) * self.row + m,), (size,))
        self.columns = np.arange(m, dtype=np.int64)
        self.kind = spec.kind
        self.cycles = spec.cycles
        self.eps = None if spec.eps is None else float(spec.eps)
        self.positions = np.arange(n, dtype=trajectory_dtype(n))
        # support row order that rotates each cycle one place: X[pos_k] <- X[pos_k+1]
        rotate, start = [], 0
        for c in self.cycles:
            rotate += [start + (q + 1) % c for q in range(c)]
            start += c
        self._rotate = np.array(rotate, dtype=np.intp)

    def _at(self, p: np.ndarray) -> np.ndarray:
        """Flat indices of positions p in their columns, computed in place."""
        p *= self.row
        p += self.columns
        return p

    def _distinct_positions(self, rng: BlockStream) -> np.ndarray:
        """Per column, a uniform ordered tuple of sum(cycles) distinct positions,
        as rows of an (s, m) array.

        Sequential skipping: the k-th pick is uniform over the n-k positions
        still free, found by adding 1 for each earlier pick at or below it,
        taking the earlier picks in ascending order; those are kept sorted
        per column by one min/max insertion pass per pick.
        """
        s, (n, m) = sum(self.cycles), self.X.shape
        picks = np.empty((s, m), dtype=np.int64)
        ascending = np.empty((s - 1, m), dtype=np.int64)
        for k in range(s):
            p = rng.integers(0, n - k, size=m)
            for earlier in ascending[:k]:
                p += earlier <= p
            picks[k] = p
            if k == s - 1:
                break
            carry = p.copy()
            for earlier in ascending[:k]:
                low = np.minimum(earlier, carry)
                np.maximum(earlier, carry, out=carry)
                earlier[:] = low
            ascending[k] = carry
        return picks

    def step(self, rng: BlockStream) -> None:
        X, flat, (n, m) = self.X, self.flat, self.X.shape
        if self.kind in ("ttr", "rt"):
            # swap position a with the top (ttr) or with a second uniform b (rt)
            a = self._at(rng.integers(0, n, size=m))
            if self.kind == "ttr":
                top = X[0].copy()
                X[0] = flat[a]
                flat[a] = top
                return
            b = self._at(rng.integers(0, n, size=m))
            tmp = flat[a]
            flat[a] = flat[b]
            flat[b] = tmp
            return
        if self.kind == "ri":
            # the card at j moves to i; the cards between shift one place toward j's side
            i = rng.integers(0, n, size=m)
            j = rng.integers(0, n, size=m)
            # masks in the compact dtype; blends, not masked copies, apply them
            i_row, j_row = (v.astype(self.positions.dtype) for v in (i, j))
            right, left = self.positions[1:, None], self.positions[:-1, None]
            moved = flat[self._at(j)]  # read before X changes
            # one blend per direction, in place: a column that one shifts, the
            # other leaves alone; masks and differences reuse their buffers
            diff = X[:-1] - X[1:]  # X[p] - X[p + 1], mod 2^k in an unsigned X
            mask = i_row < right
            mask &= right <= j_row  # p in (i, j]
            diff *= mask
            X[1:] += diff
            np.subtract(X[1:], X[:-1], out=diff)
            np.less_equal(j_row, left, out=mask)
            mask &= left < i_row  # p in [j, i)
            diff *= mask
            X[:-1] += diff
            flat[self._at(i)] = moved
            return
        # class/lazy: xi is a uniform element of the class, given by its support
        # positions in cycle order; the step rotates X's values along each cycle
        idx = self._at(self._distinct_positions(rng))
        if self.kind == "lazy":
            idx = idx[:, rng.random(m) >= self.eps]
        flat[idx] = flat[idx[self._rotate]]


def sample_walk(cfg: SimConfig) -> np.ndarray:
    """Run n_samples trajectories of t steps; the counts of phi(X_t) = 0..n.
    A line on stderr marks every 10^6 trajectories done."""
    hist = np.zeros(cfg.n + 1, dtype=np.int64)
    block = new_block(cfg.n, min(BLOCK_SIZE, cfg.n_samples))  # every block's storage
    target = np.arange(cfg.n, dtype=block.dtype)
    next_progress = _PROGRESS_EVERY
    for b, start in enumerate(range(0, cfg.n_samples, BLOCK_SIZE)):
        m = min(BLOCK_SIZE, cfg.n_samples - start)
        X = block[:, :m]
        X[...] = target[:, None]
        stepper = _Stepper(cfg.walk, X)
        rng = BlockStream(cfg.seed, b)
        for _ in range(cfg.t):
            stepper.step(rng)
        counts = np.zeros(m, dtype=np.int64)
        for p, row in zip(target, X):  # one position row at a time: no n x m mask
            counts += row == p
        hist += np.bincount(counts, minlength=cfg.n + 1)
        if start + m >= next_progress:
            print(f"symwalk: {start + m} trajectories done", file=sys.stderr)
            next_progress += _PROGRESS_EVERY
    return hist


class MatchingTail(NamedTuple):
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


class TVLowerBound(NamedTuple):
    estimate: float     # empirical q^(t)(A_j) - u(A_j)
    std_err: float      # binomial standard error of the empirical term
    frequency: float    # empirical q^(t)(A_j)
    u_exact: float      # exact stationary mass of A_j


def fixed_point_tv_lower(cfg: SimConfig) -> TVLowerBound:
    """Noisy TV lower bound q^(t)(A_j) - u(A_j) with exact u(A_j)."""
    hist = sample_walk(cfg)
    p_hat = float(hist[cfg.j:].sum()) / cfg.n_samples
    u = float(matching_tail(cfg.n, cfg.j).value)
    se = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / cfg.n_samples)
    return TVLowerBound(p_hat - u, se, p_hat, u)


# ---------------------------------------------------------------------------
# coupon collector bounds
# ---------------------------------------------------------------------------

class CouponStats(NamedTuple):
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
