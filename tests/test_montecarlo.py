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
    mc._Stepper(WalkSpec.parse(walk), X).step(mc.BlockStream(seed, 0))
    perms = go.all_permutations(n)
    assert np.array_equal(lehmer_rank(np.array(perms)), np.arange(len(perms)))
    counts = np.bincount(lehmer_rank(X.T), minlength=len(perms))
    emp = counts / n_samples
    exact = np.zeros(len(perms))
    for x, w in go.step_law(WalkSpec.parse(walk), n).items():
        exact[x] = float(w)
    return 0.5 * float(np.sum(np.abs(emp - exact)))


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
        rng = mc.BlockStream(0, 0)
        for _ in range(5):
            stepper.step(rng)
        assert np.array_equal(np.sort(X, axis=0), identity_block(20, 64))


def test_swap_and_insertion_streams_are_pinned():
    # histograms of the version-3 stream (BlockStream words, version-2 step
    # kernels) for every step kind
    pinned = {
        "ttr": [177, 1148, 2583, 3009, 1867, 854, 251, 104, 0, 7],
        "rt": [2087, 3299, 2726, 1294, 445, 116, 24, 8, 0, 1],
        "ri": [2681, 3376, 2365, 1056, 385, 105, 27, 5, 0, 0],
        "class:3": [3552, 3644, 1915, 668, 184, 26, 11, 0, 0, 0],
        "class:3,2": [3560, 3709, 1930, 629, 122, 48, 0, 2, 0, 0],
        "lazy:3:1/2": [1651, 2916, 2699, 1592, 802, 155, 178, 0, 0, 7],
    }
    for walk, hist in pinned.items():
        cfg = mc.SimConfig(walk, n=9, t="11", j=2, n_samples=10000, seed=2024)
        assert mc.sample_walk(cfg).tolist() == hist, walk


def test_uint16_streams_are_pinned():
    # n = 300 stores uint16 trajectories, where ri's blends wrap mod 2^16;
    # each histogram is pinned as (fewest fixed points seen, counts from there on)
    pinned = {
        "ttr": (292, [915, 59, 25, 1]),
        "rt": (286, [755, 195, 43, 6, 0, 1]),
        "ri": (2, [1, 0, 1, 1, 0, 1, 3, 1, 1, 3, 4, 1, 3, 3, 5, 5, 6, 6, 4, 3, 2, 4, 3, 5, 5, 4,
                   2, 3, 6, 6, 5, 12, 4, 8, 6, 7, 4, 5, 2, 8, 10, 8, 2, 5, 3, 5, 8, 5, 4, 10, 4,
                   9, 3, 7, 8, 5, 2, 15, 8, 9, 9, 12, 11, 4, 7, 11, 7, 12, 5, 10, 8, 9, 1, 5, 14,
                   9, 9, 4, 10, 7, 3, 8, 9, 8, 12, 7, 4, 7, 6, 5, 8, 4, 4, 11, 5, 7, 7, 6, 6, 4,
                   9, 8, 9, 12, 1, 15, 7, 8, 7, 7, 7, 5, 10, 3, 4, 9, 6, 2, 6, 3, 9, 6, 4, 9, 9,
                   4, 6, 7, 3, 9, 2, 3, 6, 4, 5, 2, 4, 3, 3, 8, 5, 1, 7, 7, 4, 4, 1, 9, 5, 7, 2,
                   3, 2, 6, 2, 6, 4, 3, 3, 6, 4, 1, 3, 3, 0, 1, 5, 4, 3, 7, 5, 3, 3, 3, 2, 2, 2,
                   3, 3, 2, 0, 2, 0, 1, 1, 0, 1, 2, 2, 2, 0, 2, 0, 0, 0, 2, 2, 1, 0, 0, 2, 1, 2,
                   1, 1, 0, 1, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0,
                   0, 0, 0, 0, 0, 0, 1]),
        "class:3,2": (265, [164, 289, 281, 188, 54, 19, 4, 1]),
        "lazy:4:1/3": (272, [17, 21, 11, 3, 71, 86, 25, 7, 164, 106, 26, 6, 187, 69, 8, 1, 131, 15,
                             0, 0, 37, 3, 0, 0, 6]),
    }
    for walk, (low, counts) in pinned.items():
        cfg = mc.SimConfig(walk, n=300, t="7", j=2, n_samples=1000, seed=2024)
        assert mc.trajectory_dtype(cfg.n) == np.uint16
        hist = [0] * low + counts
        assert mc.sample_walk(cfg).tolist() == hist + [0] * (301 - len(hist)), walk


@pytest.mark.parametrize("n", [2, 3, 200, 4096])
def test_lemire_maps_every_lane_exactly(n):
    # the accept-and-map rule at width 16, over all 2^16 lanes: every value in
    # 0..n-1 is hit exactly floor(2^16 / n) times, and 2^16 mod n lanes are
    # rejected; the stream applies the same function at width 32
    values, accepted = mc._lemire(np.arange(1 << 16, dtype=np.uint64), n, 16)
    counts = np.bincount(values[accepted].astype(np.int64), minlength=n)
    assert len(counts) == n and counts.tolist() == [(1 << 16) // n] * n
    assert np.count_nonzero(~accepted) == (1 << 16) % n


def test_stream_words_are_addressed_by_index():
    # word i is mix64(key + i gamma) in Python integers, whatever the split
    # of the draws, and random() keeps the top 53 bits of each word
    for seed, block in ((0, 0), (2024, 3), (2**70 + 5, 1)):
        whole = mc.BlockStream(seed, block).words(11)
        stream = mc.BlockStream(seed, block)
        assert np.array_equal(np.concatenate((stream.words(4), stream.words(7))), whole)
        assert whole.tolist() == [mc._mix64((stream.key + i * 0x9E3779B97F4A7C15) % 2**64)
                                  for i in range(11)]
        floats = mc.BlockStream(seed, block).random(11)
        assert floats.tolist() == [(int(w) >> 11) / 2**53 for w in whole]


def test_streams_differ_by_seed_and_block():
    def first(seed, block):
        return mc.BlockStream(seed, block).words(4).tolist()

    for s in (0, 1, 2024, 2**64 - 1):
        assert first(s, 0) != first(s + 2**64, 0)
        assert first(s, 0) != first(s, 1)


def test_integers_redraw_rejected_lanes_in_order():
    # n = 3 2^30 rejects a quarter of all lanes; rejected draws are filled in
    # index order from the lanes that follow, the low half of each word first
    n, size = 3 * 2**30, 1000
    got = mc.BlockStream(9, 2).integers(7, 7 + n, size)
    reference = mc.BlockStream(9, 2)
    out, todo, rounds = [None] * size, list(range(size)), 0
    while todo:
        words = reference.words((len(todo) + 1) // 2).tolist()
        lanes = [half for w in words for half in (w % 2**32, w >> 32)]
        rejected = []
        for i, lane in zip(todo, lanes):
            if lane * n % 2**32 >= 2**32 % n:
                out[i] = 7 + lane * n // 2**32
            else:
                rejected.append(i)
        todo, rounds = rejected, rounds + 1
    assert rounds > 2
    assert got.dtype == np.int64 and got.tolist() == out
    with pytest.raises(ValueError):
        mc.BlockStream(9, 2).integers(0, 2**32 + 1, 4)


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
            rng = mc.BlockStream(17, 0)
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
