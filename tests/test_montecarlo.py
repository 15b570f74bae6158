import math
from fractions import Fraction

import numpy as np
import pytest
from mpmath import mp

from symwalk import group_oracle as go
from symwalk import montecarlo as mc
from symwalk.errors import ResourceGuardError
from symwalk.group_oracle import tv_of
from symwalk.montecarlo import matching_tail
from symwalk.walks import WalkSpec


def test_sim_config_validation():
    with pytest.raises(ValueError):
        mc.SimConfig("ttr", n=1, t="1", j=2, n_samples=1000, seed=0)
    with pytest.raises(ValueError):
        mc.SimConfig("ttr", n=5, t="-1", j=2, n_samples=1000, seed=0)
    mc.SimConfig("ttr", n=mc.MAX_SIMULATE_N, t="1", j=2, n_samples=1000, seed=0)
    with pytest.raises(ResourceGuardError):
        mc.SimConfig("ttr", n=mc.MAX_SIMULATE_N + 1, t="1", j=2, n_samples=1000, seed=0)
    with pytest.raises(ValueError):
        WalkSpec.parse("bogus")
    with pytest.raises(ValueError):
        WalkSpec.parse("lazy:3:2")
    with pytest.raises(ValueError):
        mc.SimConfig("class:3:junk", n=5, t="1", j=2, n_samples=1000, seed=0)


def test_sim_config_checks_in_flag_order():
    # every field bad at first; mend one at a time and the message moves on
    # to the next flag: --walk (fits S_n), --n, --t, --j, --N, --seed
    good = dict(walk="rt", n=6, t="nlogn", j=2, n_samples=1000, seed=0)
    bad = dict(walk="class:7", n=0, t="-n", j=9, n_samples=999, seed=-1)
    expected = ["class (7,) does not fit in S_0", "--n must be at least 2, got 0",
                "--t must be non-negative, got -6", "--j must lie in 2..6, got 9",
                "--N must be at least 1000 for the std-error column, got 999",
                "--seed must be a non-negative integer, got -1"]
    fields = dict(bad)
    for name, message in zip(good, expected):
        with pytest.raises(ValueError) as exc:
            mc.SimConfig(**fields)
        assert str(exc.value) == message, name
        fields[name] = good[name]
    cfg = mc.SimConfig(**fields)
    assert cfg.walk == WalkSpec("rt")
    assert cfg.t == math.ceil(6 * math.log(6))


def test_t_zero_is_identity():
    cfg = mc.SimConfig("rt", n=30, t="0", j=2, n_samples=1000, seed=1)
    hist = mc.sample_walk(cfg)
    assert hist[30] == 1000
    for j in range(31):
        assert float(hist[j:].sum()) / cfg.n_samples == 1.0


def test_bitwise_reproducibility():
    cfg = mc.SimConfig("ri", n=12, t="9", j=2, n_samples=20000, seed=42)
    a = mc.sample_walk(cfg)
    b = mc.sample_walk(cfg)
    assert np.array_equal(a, b)
    c = mc.sample_walk(mc.SimConfig("ri", n=12, t="9", j=2, n_samples=20000, seed=43))
    assert not np.array_equal(a, c)


def lehmer_rank(X):
    """Row ranks in lexicographic order, the order of ``all_permutations``:
    sum_i c_i (n-1-i)!, with c_i the entries right of position i below X[:, i]."""
    n = X.shape[1]
    rank = np.zeros(len(X), dtype=np.int64)
    for i in range(n - 1):
        smaller = np.count_nonzero(X[:, i + 1:] < X[:, i:i + 1], axis=1)
        rank += smaller * math.factorial(n - 1 - i)
    return rank


def identity_block(n, m):
    """A ``new_block`` of m trajectories at the identity."""
    X = mc.new_block(n, m)
    X[...] = np.arange(n)[:, None]
    return X


def one_step_empirical_tv(walk, n, n_samples, seed):
    X = identity_block(n, n_samples)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    mc._Stepper(WalkSpec.parse(walk), X).step(rng)
    perms = go.all_permutations(n)
    assert np.array_equal(lehmer_rank(np.array(perms)), np.arange(len(perms)))
    counts = np.bincount(lehmer_rank(X.T), minlength=len(perms))
    emp = counts / n_samples
    exact = go.element_measure(WalkSpec.parse(walk), n)
    return 0.5 * float(np.sum(np.abs(emp - np.asarray(exact.values))))


@pytest.mark.parametrize("walk", ["rt", "ttr", "ri", "class:3", "class:2,2", "lazy:3:1/2"])
def test_sampler_one_step_law(walk):
    n_samples = 10**6
    for n in (4, 5):
        tv = one_step_empirical_tv(walk, n, n_samples, seed=7)
        assert tv <= 4 / math.sqrt(n_samples), (walk, n, tv)


def test_tv_lower_bound_at_t_zero():
    res = mc.fixed_point_tv_lower(mc.SimConfig("ttr", 20, "0", 3, 2000, seed=5))
    assert res.frequency == 1.0
    assert res.estimate == pytest.approx(1 - float(matching_tail(20, 3).value), rel=1e-12)


def test_tv_lower_bound_is_below_exact_tv(exact):
    # compare against the oracle TV at desk scale, allowing 3 sigma of noise
    for n in (5, 6):
        t, j, N = 3, 2, 40000
        res = mc.fixed_point_tv_lower(mc.SimConfig("ttr", n, str(t), j, N, seed=9))
        (exact_tv,) = exact("ttr", n, [t]).distances(tv_of)
        assert res.estimate <= exact_tv + 3 * math.sqrt(1 / (4 * N))


def test_tv_lower_bound_vanishes_when_mixed():
    res = mc.fixed_point_tv_lower(mc.SimConfig("ttr", 12, "400", 2, 5000, seed=3))
    assert abs(res.estimate) <= 5 * max(res.std_err, math.sqrt(1 / (4 * 5000)))


def test_tv_lower_bound_validation():
    with pytest.raises(ValueError):
        mc.SimConfig("ttr", 10, "5", 1, 2000, seed=0)
    with pytest.raises(ValueError):
        mc.SimConfig("ttr", 10, "5", 2, 999, seed=0)


def test_coupon_stats():
    cs = mc.coupon_stats(100, 3, c=3.0)
    assert float(cs.mean_sum) >= cs.mean_lower
    assert cs.variance_sum <= cs.variance_upper
    assert cs.chebyshev_tail == pytest.approx(1 / (3 * (3.0 - math.log(4)) ** 2))
    # mean sum is sum_{i=1}^{n-j-1} n/(n-i) exactly
    n, j = 10, 4
    expected = sum(Fraction(n, n - i) for i in range(1, n - j))
    assert mc.coupon_stats(n, j).mean_sum == expected
    # degenerate range: empty sums
    empty = mc.coupon_stats(10, 9)
    assert empty.mean_sum == 0 and empty.variance_sum == 0
    with pytest.raises(ValueError):
        mc.coupon_stats(10, 10)
    with pytest.raises(ValueError):
        mc.coupon_stats(10, 3, c=0.1)


def poisson_window_mass(k: float, alpha: float) -> float:
    """P(X <= k + k^alpha) for X ~ Poisson(k); tends to 1 as k grows."""
    if k <= 0:
        raise ValueError("k must be positive")
    if not 0.5 < alpha < 1.0:
        raise ValueError("alpha must lie in (1/2, 1)")
    m = math.floor(k + k**alpha)
    return float(mp.gammainc(m + 1, a=k, regularized=True))


def test_poisson_window_mass():
    assert poisson_window_mass(100, 0.75) >= 0.99
    masses = [poisson_window_mass(100, a) for a in (0.55, 0.65, 0.75, 0.85, 0.95)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    # for fixed alpha the window spans k^(alpha-1/2) standard deviations,
    # so the mass increases to 1 along growing k
    trend = [poisson_window_mass(k, 0.6) for k in (100, 1000, 10**4)]
    assert all(a < b for a, b in zip(trend, trend[1:]))
    assert trend[-1] > 0.99
    with pytest.raises(ValueError):
        poisson_window_mass(100, 0.4)
    with pytest.raises(ValueError):
        poisson_window_mass(0, 0.6)


def test_matching_tail_is_sampler_limit():
    # well past mixing, the empirical A_2 frequency approaches u(A_2)
    n, N = 12, 50000
    t = int(4 * n * math.log(n))
    res = mc.fixed_point_tv_lower(mc.SimConfig("ttr", n, str(t), 2, N, seed=21))
    u = float(matching_tail(n, 2).value)
    assert abs(res.frequency - u) <= 4 * math.sqrt(u * (1 - u) / N)


def test_matching_tail_is_sampler_limit_rt():
    # same stationarity check for the transposition sampler at n = 30
    n, N = 30, 30000
    t = int(2 * n * math.log(n))  # rt mixes by (n/2) log n
    res = mc.fixed_point_tv_lower(mc.SimConfig("rt", n, str(t), 2, N, seed=4))
    u = float(matching_tail(n, 2).value)
    assert abs(res.frequency - u) <= 4 * math.sqrt(u * (1 - u) / N)


def test_class_and_lazy_samplers_above_oracle_scale():
    # shape/indexing smoke for the class and lazy steppers at n beyond the
    # brute-force caps: rows must stay permutations
    for walk in ("class:5", "lazy:5,3:1/3"):
        cfg = mc.SimConfig(walk, n=20, t="8", j=2, n_samples=1000, seed=2)
        assert mc.sample_walk(cfg).sum() == 1000
        X = identity_block(20, 64)
        stepper = mc._Stepper(WalkSpec.parse(walk), X)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        for _ in range(5):
            stepper.step(rng)
        assert np.array_equal(np.sort(X, axis=0), identity_block(20, 64))


def test_swap_and_insertion_streams_are_pinned():
    # histograms of the version-1 stream: the ttr, rt and ri kernels map the
    # same draws to the same steps as before the O(support) rewrite; the
    # class and lazy rows pin the version-2 stream of the row-major kernels
    pinned = {
        "ttr": [178, 1250, 2691, 2847, 1847, 817, 243, 118, 0, 9],
        "rt": [2100, 3428, 2641, 1269, 440, 110, 10, 2, 0, 0],
        "ri": [2612, 3386, 2384, 1103, 376, 112, 23, 4, 0, 0],
        "class:3": [3517, 3647, 1966, 638, 197, 24, 11, 0, 0, 0],
        "class:3,2": [3689, 3653, 1811, 657, 151, 37, 0, 2, 0, 0],
        "lazy:3:1/2": [1580, 2961, 2729, 1568, 843, 147, 164, 0, 0, 8],
    }
    for walk, hist in pinned.items():
        cfg = mc.SimConfig(walk, n=9, t="11", j=2, n_samples=10000, seed=2024)
        assert mc.sample_walk(cfg).tolist() == hist, walk


def test_uint16_streams_are_pinned():
    # n = 300 stores uint16 trajectories, where ri's blends wrap mod 2^16;
    # each histogram is pinned as (fewest fixed points seen, counts from there on)
    pinned = {
        "ttr": (292, [925, 52, 23]),
        "rt": (286, [739, 210, 44, 6, 1]),
        "ri": (2, [2, 0, 1, 0, 0, 1, 2, 1, 1, 5, 8, 0, 3, 0, 4, 2, 6, 5, 7, 1, 3, 5, 5, 5, 3, 2, 4,
                   4, 2, 7, 5, 7, 2, 5, 11, 7, 7, 10, 5, 9, 3, 4, 8, 5, 10, 5, 5, 5, 10, 6, 8, 4, 7,
                   7, 2, 5, 5, 4, 9, 7, 10, 9, 10, 6, 14, 6, 7, 6, 7, 5, 13, 8, 5, 12, 8, 11, 9, 8,
                   9, 9, 6, 8, 7, 9, 15, 6, 5, 9, 7, 10, 9, 5, 9, 7, 9, 9, 8, 5, 7, 7, 7, 7, 9, 14,
                   10, 7, 6, 4, 4, 7, 9, 9, 5, 7, 5, 3, 7, 4, 9, 7, 12, 7, 6, 8, 2, 2, 8, 7, 7, 9,
                   5, 5, 7, 3, 8, 4, 0, 4, 3, 2, 1, 7, 4, 5, 5, 2, 1, 7, 5, 3, 11, 3, 7, 5, 4, 2, 4,
                   1, 3, 4, 0, 2, 6, 3, 1, 3, 0, 2, 2, 2, 0, 2, 1, 1, 3, 3, 0, 3, 0, 2, 5, 0, 0, 1,
                   4, 0, 1, 0, 1, 0, 1, 0, 3, 1, 1, 0, 0, 1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0, 0, 0, 0,
                   0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                   0, 0, 1]),
        "class:3,2": (265, [179, 341, 266, 151, 50, 10, 2, 1]),
        "lazy:4:1/3": (272, [22, 25, 14, 3, 87, 87, 22, 13, 163, 102, 19, 5, 194, 60, 8, 1, 117,
                             17, 3, 0, 27, 2, 0, 0, 9]),
    }
    for walk, (low, counts) in pinned.items():
        cfg = mc.SimConfig(walk, n=300, t="7", j=2, n_samples=1000, seed=2024)
        assert mc.trajectory_dtype(cfg.n) == np.uint16
        hist = [0] * low + counts
        assert mc.sample_walk(cfg).tolist() == hist + [0] * (301 - len(hist)), walk


def test_block_seed_equals_spawned_child():
    for seed in (0, 2024):
        children = np.random.SeedSequence(seed).spawn(8)
        for b in (0, 1, 7):
            draws = [np.random.Generator(np.random.Philox(s)).integers(0, 2**63, size=4)
                     for s in (children[b], mc.block_seed(seed, b))]
            assert draws[0].tolist() == draws[1].tolist(), (seed, b)


def test_trajectory_dtype():
    assert mc.trajectory_dtype(2) == np.uint8
    assert mc.trajectory_dtype(256) == np.uint8
    assert mc.trajectory_dtype(257) == np.uint16
    assert mc.trajectory_dtype(4096) == np.uint16
    assert mc.trajectory_dtype(65537) == np.uint32


@pytest.mark.parametrize("walk", ["ttr", "rt", "ri", "class:3,2", "lazy:4:1/3"])
def test_step_kernels_agree_across_dtypes(walk):
    # equal RNG states give equal blocks whatever integer dtype they store, and
    # columns stay permutations; n = 300 stores uint16, where ri's blends wrap
    # mod 2^16, and the unpadded int64 block is the reference that never wraps
    for n in (20, 300):
        m = 300
        start = np.random.default_rng(5).permuted(np.tile(np.arange(n)[:, None], (1, m)), axis=0)
        compact = mc.new_block(n, m)
        compact[...] = start
        reference = start.copy()
        for X in (reference, compact):
            stepper = mc._Stepper(WalkSpec.parse(walk), X)
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
            for _ in range(6):
                stepper.step(rng)
        assert np.array_equal(compact, reference)
        assert np.array_equal(np.sort(compact, axis=0), identity_block(n, m))
        assert compact.dtype == mc.trajectory_dtype(n)
        assert not np.array_equal(compact, start)


def test_stepper_rejects_blocks_without_unit_stride_rows():
    # the stepper writes through a flat view of its block, so a block whose
    # rows are not unit-stride, or overlap, is refused rather than copied
    n, m = 6, 8
    rows = np.zeros((n, 2 * m), dtype=np.uint8)
    for X in (np.asfortranarray(rows[:, :m]), rows[:, ::2], rows[::-1, :m],
              np.lib.stride_tricks.as_strided(rows, (n, m), (1, 1))):
        with pytest.raises(ValueError, match="unit-stride"):
            mc._Stepper(WalkSpec("rt"), X)
    mc._Stepper(WalkSpec("rt"), rows[::2, :m])  # a wider row stride is fine
