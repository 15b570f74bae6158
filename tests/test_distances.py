import math
from fractions import Fraction

import pytest
from mpmath import mp

from symwalk import cli
from symwalk import group_oracle as go
from symwalk.bounds import ttr_bound_spectrum
from symwalk.characters import one_cycle_type
from symwalk.distances import (
    ProfileRow,
    chi_square_of,
    class_walk_profile,
    l2_continuous,
    l2_discrete,
    l2_single_term_lower,
    spectrum_profile,
    tv_of,
)
from symwalk.partitions import near_square_partition, partitions
from symwalk.spectra import (
    alternating_blocks,
    diagram_eigenvalues,
    lazy_class_measure,
    random_transposition_measure,
    spectrum,
    uniform_class_measure,
)


def oracle_chi_square(walk, n, t):
    dist = go.convolution_power(go.element_measure(walk, n), t)
    return chi_square_of(dist)


def test_l2_discrete_at_zero(rt_spectrum):
    for n in (3, 5, 8):
        assert float(l2_discrete(rt_spectrum(n), 0)) == pytest.approx(
            math.sqrt(math.factorial(n) - 1), rel=1e-12
        )


def test_l2_discrete_matches_oracle(rt_spectrum):
    for t in range(0, 31):
        spec_val = float(l2_discrete(rt_spectrum(5), t))
        assert abs(spec_val - oracle_chi_square("rt", 5, t)) < 1e-9


def test_l2_discrete_matches_oracle_class_walks():
    n = 5
    for cls in ((3, 1, 1), (4, 1), (2, 2, 1)):
        spec = spectrum(uniform_class_measure(cls))
        qel = go.element_measure(cls, n)
        powers = go.convolution_powers_upto(qel, 30)
        for t, dist in enumerate(powers):
            assert abs(float(l2_discrete(spec, t)) - chi_square_of(dist)) < 1e-9, (cls, t)


def test_l2_discrete_threshold_value(rt_spectrum):
    n = 20
    t = math.ceil((n / 2) * (math.log(n) + 1))
    assert l2_discrete(rt_spectrum(n), t) <= 2 * math.exp(-1)


def test_l2_continuous_at_zero(rt_spectrum):
    assert float(l2_continuous(rt_spectrum(5), 0)) == pytest.approx(
        math.sqrt(120 - 1), rel=1e-12
    )


def test_l2_continuous_examples(rt_spectrum):
    n = 10
    t = (n / 2) * (math.log(n) + 2)
    assert l2_continuous(rt_spectrum(n), t) <= 1
    q4 = uniform_class_measure(one_cycle_type(11, 4))
    t = (11 / 2) * (math.log(11) + 2)
    assert l2_continuous(spectrum(q4, "sn"), t) <= 1


def test_l2_continuous_strictly_decreasing(rt_spectrum):
    spec = rt_spectrum(6)
    values = [l2_continuous(spec, t) for t in (0.0, 0.5, 1.0, 2.0, 5.0, 9.0, 15.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_l2_continuous_matches_oracle_poisson():
    qel = go.element_measure("rt", 5)
    spec = spectrum(random_transposition_measure(5))
    for t in (0.5, 2.0, 8.0):
        h, trunc = go.continuous_law(qel, t, tail_tol=1e-14)
        assert abs(chi_square_of(h, normalized=False) - float(l2_continuous(spec, t))) < 1e-8
        assert trunc >= t


def test_single_term_lower_examples():
    n = 8
    q = random_transposition_measure(n)
    for t in (3, 10):
        val = float(l2_single_term_lower((n - 1, 1), q, t, "discrete"))
        assert val == pytest.approx((n - 1) * (1 - 2 / n) ** t, rel=1e-12)
    val = float(l2_single_term_lower((n - 1, 1), q, 4.5, "continuous"))
    assert val == pytest.approx((n - 1) * math.exp(-4.5 * 2 / n), rel=1e-12)
    with pytest.raises(ValueError):
        l2_single_term_lower((n,), q, 1, "discrete")


def test_single_term_below_full_distance(rt_spectrum):
    for n in (5, 7):
        q = random_transposition_measure(n)
        spec = rt_spectrum(n)
        for lam in partitions(n):
            if lam == (n,):
                continue
            for t in (1, 4, 9):
                assert l2_single_term_lower(lam, q, t, "discrete") <= l2_discrete(spec, t)
                assert l2_single_term_lower(lam, q, float(t), "continuous") <= l2_continuous(spec, t)


def test_ttr_continuous_oracle_meets_threshold():
    # the continuous-time transpose-top walk obeys sqrt(2) e^-c as well
    for n in (4, 5, 6):
        qel = go.element_measure("ttr", n)
        for c in (0, 1, 2):
            t = n * (math.log(n) + c)
            h, _ = go.continuous_law(qel, t, tail_tol=1e-14)
            assert chi_square_of(h, normalized=False) <= math.sqrt(2) * math.exp(-c) + 1e-10


def test_ttr_lower_bound_against_oracle():
    # d2(q_ttr^(t))^2 >= (n-1)(n-2)(1-1/n)^(2t): the multiplicity-(n-2)
    # eigenvalue 1 - 1/n inside the (n-1,1) block
    for n in (5, 6):
        qel = go.element_measure("ttr", n)
        for t in (1, 3, 6, 12):
            d2sq = oracle_chi_square("ttr", n, t) ** 2
            assert d2sq >= (n - 1) * (n - 2) * (1 - 1 / n) ** (2 * t) - 1e-12


def test_chi_square_and_tv_definitional():
    n = 5
    g = math.factorial(n)
    point = go.point_mass(n)
    assert chi_square_of(point) == pytest.approx(math.sqrt(g - 1), rel=1e-12)
    assert tv_of(point) == pytest.approx(1 - 1 / g, rel=1e-12)
    uniform = go.GroupDistribution(n, point.values * 0 + 1.0 / g, exact=False)
    assert chi_square_of(uniform) == pytest.approx(0, abs=1e-12)
    assert tv_of(uniform) == pytest.approx(0, abs=1e-12)
    dist = go.convolution_power(go.element_measure("rt", n), 4)
    assert 2 * tv_of(dist) <= chi_square_of(dist)


def test_chi_square_exact_mode():
    dist = go.convolution_power(go.element_measure("rt", 4, exact=True), 3)
    assert dist.exact
    approx = go.convolution_power(go.element_measure("rt", 4), 3)
    assert chi_square_of(dist) == pytest.approx(chi_square_of(approx), rel=1e-12)


def test_unnormalized_rejected():
    bad = go.GroupDistribution(3, go.point_mass(3).values * 0.5, exact=False)
    with pytest.raises(ValueError):
        chi_square_of(bad)
    with pytest.raises(ValueError):
        tv_of(bad)


def test_profile_even_class_an_discrete_matches_oracle():
    # A_n profile of an even class equals the definitional distance of the
    # walk restricted to A_n; on A_4 the V4 class has a second beta = 1
    # block, which the sign diagram joins
    for cycles in ((3, 1, 1), (2, 2)):
        n = sum(cycles)
        q = uniform_class_measure(cycles)
        profile = class_walk_profile(q, "an", "discrete", [1, 2, 4])
        qel = go.element_measure(cycles, n)
        perms = go.all_permutations(n)
        even = [i for i, p in enumerate(perms)
                if sum(c - 1 for c in go.cycle_type_of(p)) % 2 == 0]
        g_an = math.factorial(n) // 2
        for row in profile:
            dist = go.convolution_power(qel, int(row.t))
            vals = [dist.values[i] for i in even]
            d2 = math.sqrt(g_an * sum((v - 1 / g_an) ** 2 for v in vals))
            assert abs(float(row.d2) - d2) < 1e-9, (cycles, row.t)


def test_profile_odd_class_an_discrete_reports_squared_walk():
    # row at time t must equal the A_n distance of q*q after t steps,
    # i.e. the even-support distribution q^(2t)
    n = 5
    q = uniform_class_measure((4, 1))
    profile = class_walk_profile(q, "an", "discrete", [1, 2, 3])
    an_rows = [r for r in profile if r.group == "an"]
    sn_rows = [r for r in profile if r.group == "sn"]
    assert len(an_rows) == 3 and len(sn_rows) == 3
    assert class_walk_profile(q, "an", "discrete", iter([1, 2, 3])) == profile  # one-pass grid
    qel = go.element_measure((4, 1), n)
    perms = go.all_permutations(n)
    even = [i for i, p in enumerate(perms) if sum(c - 1 for c in go.cycle_type_of(p)) % 2 == 0]
    g_an = math.factorial(n) // 2
    for row in an_rows:
        dist = go.convolution_power(qel, 2 * int(row.t))
        vals = [dist.values[i] for i in even]
        assert abs(sum(vals) - 1) < 1e-12  # even power lands in A_n
        d2 = math.sqrt(g_an * sum((v - 1 / g_an) ** 2 for v in vals))
        assert abs(float(row.d2) - d2) < 1e-9
    # raw S_n rows alternate and match the plain spectral distance
    spec = spectrum(q, "sn")
    for row in sn_rows:
        assert abs(float(row.d2) - float(l2_discrete(spec, int(row.t)))) < 1e-12


def test_profile_an_discrete_rejects_mixed_odd_measures():
    # rt holds with probability 1/n, so its walk never confines to a coset
    with pytest.raises(ValueError):
        class_walk_profile(random_transposition_measure(5), "an", "discrete", [1, 2])
    with pytest.raises(ValueError):
        class_walk_profile(
            lazy_class_measure((4, 1), Fraction(1, 2)), "an", "discrete", [1, 2]
        )


def test_profile_odd_class_continuous_relabels_to_sn():
    q = uniform_class_measure((4, 1))
    profile = class_walk_profile(q, "an", "continuous", [0.5, 1.0])
    assert all(r.group == "sn" for r in profile)
    spec = spectrum(q, "sn")
    for row in profile:
        assert abs(float(row.d2) - float(l2_continuous(spec, row.t))) < 1e-12


def test_tiny_tail_values_survive():
    # dominant term exp(-2t/6) at t = 5000 puts d2 near 1e-361, beneath the
    # smallest positive float64; the mpf pipeline must keep it non-zero
    spec = spectrum(random_transposition_measure(12))
    val = l2_continuous(spec, 5000.0)
    assert 0 < val < mp.mpf("1e-350")
    assert float(val) == 0.0


def test_log10_d2_sq_float_is_correctly_rounded():
    # the JSON float of log10(d2^2) is the 256-bit value rounded once
    for n in (5, 60, 200):
        for mode in ("discrete", "continuous"):
            times = cli._time_grid("auto", n, "ttr-bound", mode)
            for row in spectrum_profile(ttr_bound_spectrum(n), mode, times):
                with mp.workprec(256):
                    reference = float(2 * mp.log10(row.d2))
                assert float(row.log10_d2_sq) == reference, (n, mode, row.t)
    assert ProfileRow("x", "sn", 2, 1, mp.mpf(0)).log10_d2_sq == mp.mpf("-inf")


# ---------------------------------------------------------------------------
# grouped evaluator against a per-partition reference
# ---------------------------------------------------------------------------

GROUPED_REL_TOL = mp.mpf(2) ** -120


def per_partition_l2(pairs, t, mode):
    """d2 summed one (eigenvalue, multiplicity) pair per diagram: exact
    rationals in discrete time, 256-bit reals in continuous time."""
    with mp.workprec(256):
        if mode == "discrete":
            total = sum((Fraction(m) * beta ** (2 * t) for beta, m in pairs), Fraction(0))
            return mp.sqrt(mp.mpf(total.numerator) / total.denominator)
        tt = mp.mpf(t)
        return mp.sqrt(mp.fsum(
            mp.mpf(m.numerator) / m.denominator
            * mp.exp(-2 * tt * (1 - mp.mpf(beta.numerator) / beta.denominator))
            for beta, m in pairs
        ))


def assert_close(got, ref, what):
    assert abs(got - ref) <= GROUPED_REL_TOL * ref, (what, got, ref)


def nontrivial_pairs(q, group="sn"):
    """One (eigenvalue, multiplicity) pair per nontrivial diagram; on A_n the
    sign diagram is dropped and every multiplicity halved."""
    if group == "sn":
        return [(beta, m) for lam, beta, m in diagram_eigenvalues(q) if lam != (q.n,)]
    sign = (1,) * q.n
    return [(beta, Fraction(m, 2))
            for lam, beta, m in diagram_eigenvalues(q) if lam not in ((q.n,), sign)]


def squared_walk_pairs(q):
    sign = (1,) * q.n
    return [(beta ** 2, Fraction(m, 2))
            for lam, beta, m in diagram_eigenvalues(q) if lam not in ((q.n,), sign)]


DISCRETE_TIMES = (0, 1, 2, 5, 17, 40)
CONTINUOUS_TIMES = (0, 0.5, 3.25, 10.0, 40.0)


def check_profile(q, group, mode, pairs, times, label):
    rows = [r for r in class_walk_profile(q, group, mode, times) if r.group == label]
    assert [r.t for r in rows] == list(times)
    for row in rows:
        assert_close(row.d2, per_partition_l2(pairs, row.t, mode), (q.name, group, mode, row.t))


def test_blocks_group_integer_multiplicities():
    cases = [(random_transposition_measure(n), "sn") for n in (2, 5, 9)]
    cases += [(uniform_class_measure(one_cycle_type(n, 3)), "an") for n in (3, 6, 9)]
    cases += [(lazy_class_measure(one_cycle_type(8, 3), Fraction(1, 2)), "an")]
    for q, group in cases:
        spec = spectrum(q, group)
        order = math.factorial(q.n) // (2 if group == "an" else 1)
        betas = [beta for beta, _ in spec.blocks]
        assert len(betas) == len(set(betas)) <= len(nontrivial_pairs(q, group))
        assert all(type(m) is int and m > 0 for _, m in spec.blocks)
        assert sum(m for _, m in spec.blocks) == order - 1
    for n in (4, 7, 9):
        for cls in (2, 4):
            blocks = spectrum(uniform_class_measure(one_cycle_type(n, cls))).blocks
            folded = alternating_blocks(tuple((beta * beta, m) for beta, m in blocks))
            assert all(type(m) is int and m > 0 for _, m in folded)
            assert sum(m for _, m in folded) == math.factorial(n) // 2 - 1


def test_grouped_rt_matches_per_partition_sum():
    for n in range(2, 13):
        spec = spectrum(random_transposition_measure(n))
        pairs = nontrivial_pairs(random_transposition_measure(n))
        for t in DISCRETE_TIMES:
            assert_close(l2_discrete(spec, t), per_partition_l2(pairs, t, "discrete"), (n, t))
        for t in CONTINUOUS_TIMES:
            assert_close(l2_continuous(spec, t), per_partition_l2(pairs, t, "continuous"), (n, t))
        for mode, times in (("discrete", DISCRETE_TIMES), ("continuous", CONTINUOUS_TIMES)):
            check_profile(random_transposition_measure(n), "sn", mode, pairs, times, "sn")


def test_grouped_an_profiles_match_per_partition_sum():
    for n in (5, 8, 10):
        for q in (uniform_class_measure(one_cycle_type(n, 3)),
                  lazy_class_measure(one_cycle_type(n, 3), Fraction(1, 2))):
            pairs = nontrivial_pairs(q, "an")
            check_profile(q, "an", "discrete", pairs, DISCRETE_TIMES, "an")
            check_profile(q, "an", "continuous", pairs, CONTINUOUS_TIMES, "an")


def test_grouped_odd_class_fold_matches_per_partition_sum():
    for n in (4, 7, 10):
        for cls in (2, 4):
            q = uniform_class_measure(one_cycle_type(n, cls))
            check_profile(q, "an", "discrete", squared_walk_pairs(q), DISCRETE_TIMES, "an")
            check_profile(q, "an", "discrete", nontrivial_pairs(q), DISCRETE_TIMES, "sn")


def test_grouped_matches_exact_rationals_for_small_n():
    # the exact rational sums an earlier small-n fast path returned directly
    times = range(31)
    for n in range(2, 7):
        walks = [(random_transposition_measure(n), "sn")]
        walks += [(uniform_class_measure(one_cycle_type(n, k)), "sn") for k in range(2, n + 1)]
        if n >= 3:
            walks.append((lazy_class_measure(one_cycle_type(n, 3), Fraction(1, 2)), "an"))
        for q, group in walks:
            pairs = nontrivial_pairs(q, group)
            check_profile(q, group, "discrete", pairs, times, group)
            if q.even_support and group == "sn":
                check_profile(q, "an", "discrete", nontrivial_pairs(q, "an"), times, "an")
            if not q.even_support and q.name.startswith("class:"):
                pairs = squared_walk_pairs(q)
                check_profile(q, "an", "discrete", pairs, times, "an")


def test_discrete_times_must_be_integers():
    spec = spectrum(random_transposition_measure(4))
    for bad in (1.5, -1):
        with pytest.raises(ValueError):
            l2_discrete(spec, bad)
        with pytest.raises(ValueError):
            class_walk_profile(random_transposition_measure(4), "sn", "discrete", [bad])
    with pytest.raises(ValueError):
        l2_continuous(spec, -0.5)
