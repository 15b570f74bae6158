import math
from fractions import Fraction

import numpy as np
import pytest

from symwalk import group_oracle as go
from symwalk import montecarlo as mc
from symwalk.bounds import matching_tail
from symwalk.distances import tv_of
from symwalk.errors import ResourceGuardError
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


def one_step_empirical_tv(walk, n, n_samples, seed):
    stepper = mc._Stepper(WalkSpec.parse(walk), n)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    X = np.tile(np.arange(n), (n_samples, 1))
    X = stepper.step(X.T, rng).T
    perms = go.all_permutations(n)
    assert np.array_equal(lehmer_rank(np.array(perms)), np.arange(len(perms)))
    counts = np.bincount(lehmer_rank(X), minlength=len(perms))
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


def test_tv_lower_bound_is_below_exact_tv():
    # compare against the oracle TV at desk scale, allowing 3 sigma of noise
    for n in (5, 6):
        t, j, N = 3, 2, 40000
        res = mc.fixed_point_tv_lower(mc.SimConfig("ttr", n, str(t), j, N, seed=9))
        exact_tv = tv_of(go.convolution_powers_upto(go.element_measure(WalkSpec("ttr"), n), t)[-1])
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


def test_poisson_window_mass():
    assert mc.poisson_window_mass(100, 0.75) >= 0.99
    masses = [mc.poisson_window_mass(100, a) for a in (0.55, 0.65, 0.75, 0.85, 0.95)]
    assert all(a <= b for a, b in zip(masses, masses[1:]))
    # for fixed alpha the window spans k^(alpha-1/2) standard deviations,
    # so the mass increases to 1 along growing k
    trend = [mc.poisson_window_mass(k, 0.6) for k in (100, 1000, 10**4)]
    assert all(a < b for a, b in zip(trend, trend[1:]))
    assert trend[-1] > 0.99
    with pytest.raises(ValueError):
        mc.poisson_window_mass(100, 0.4)
    with pytest.raises(ValueError):
        mc.poisson_window_mass(0, 0.6)


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
        stepper = mc._Stepper(WalkSpec.parse(walk), 20)
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(0)))
        X = np.tile(np.arange(20), (64, 1))
        for _ in range(5):
            X = stepper.step(X.T, rng).T
        assert np.array_equal(np.sort(X, axis=1), np.tile(np.arange(20), (64, 1)))


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
    # equal RNG states give equal rows whatever integer dtype X has, rows
    # stay permutations, and a non-contiguous X is stepped as its copy;
    # n = 300 stores uint16, where ri's blends wrap mod 2^16
    for n in (20, 300):
        m = 300
        stepper = mc._Stepper(WalkSpec.parse(walk), n)
        start = np.random.default_rng(5).permuted(np.tile(np.arange(n), (m, 1)), axis=1)
        views = {
            "int64": start.copy(),
            "compact": start.astype(mc.trajectory_dtype(n)),
            "fortran": np.asfortranarray(start),
            "strided": np.repeat(start, 2, axis=0)[::2],
        }
        for name, X in views.items():
            rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(17)))
            for _ in range(6):
                X = stepper.step(X.T, rng).T
            views[name] = X
        for name, X in views.items():
            assert np.array_equal(X, views["compact"]), name
            assert np.array_equal(np.sort(X, axis=1), np.tile(np.arange(n), (m, 1))), name
        assert views["compact"].dtype == mc.trajectory_dtype(n)
        assert not np.array_equal(views["compact"], start)
