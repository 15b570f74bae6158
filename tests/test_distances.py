import math
from operator import mul
from fractions import Fraction

import pytest
from mpmath import mp

from symwalk import cli
from symwalk import group_oracle as go
from symwalk.bounds import ttr_bound_spectrum
from symwalk.distances import (
    ProfileRow,
    l2_continuous,
    l2_curve,
    l2_discrete,
    l2_single_term_lower,
    spectrum_profile,
)
from symwalk.characters import is_even_class
from symwalk.group_oracle import chi_square_of, tv_of
from symwalk.partitions import near_square_partition, partitions
from symwalk.spectra import alternating_blocks, diagram_eigenvalues, spectrum
from symwalk.walks import WalkSpec


def measure(walk, n):
    """A class walk at n: its class (fixed points included) and its hold."""
    spec = WalkSpec.parse(walk)
    return spec.cycle_type(n), spec.hold(n)


def profile(walk, n, group, mode, times):
    """A walk's profile rows, drawn as ``profile`` draws them: one curve per
    (label, blocks) pair of ``WalkSpec.profile_blocks``."""
    return [row for label, blocks in WalkSpec.parse(walk).profile_blocks(n, group, mode)
            for row in spectrum_profile(blocks, label, mode, times)]


def even_laws(laws):
    """Each law of an ``exact_laws`` result restricted to the orbits in A_n
    (every orbit is a union of conjugacy classes, so one parity): the
    values, orbit sizes and denominator there."""
    perms, orbits = go.all_permutations(laws.orbits.n), laws.orbits
    even = [o for o, rep in enumerate(orbits.reps)
            if sum(c - 1 for c in go.cycle_type_of(perms[rep])) % 2 == 0]
    return [([values[o] for o in even], [orbits.sizes[o] for o in even], den)
            for values, den in laws.laws]


def test_l2_discrete_at_zero(rt_spectrum):
    for n in (3, 5, 8):
        assert float(l2_discrete(rt_spectrum(n), 0)) == pytest.approx(
            math.sqrt(math.factorial(n) - 1), rel=1e-12
        )


def test_l2_discrete_matches_oracle(rt_spectrum, exact):
    for t, d2 in enumerate(exact("rt", 5, range(31)).distances()):
        spec_val = float(l2_discrete(rt_spectrum(5), t))
        assert abs(spec_val - d2) < 1e-9


def test_l2_discrete_matches_oracle_class_walks(exact):
    n = 5
    for cls in ("class:3", "class:4", "class:2,2"):
        spec = spectrum(*measure(cls, n))
        for t, d2 in enumerate(exact(cls, n, range(31)).distances()):
            assert abs(float(l2_discrete(spec, t)) - d2) < 1e-9, (cls, t)


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
    q4 = measure("class:4", 11)
    t = (11 / 2) * (math.log(11) + 2)
    assert l2_continuous(spectrum(*q4), t) <= 1


def test_l2_continuous_strictly_decreasing(rt_spectrum):
    spec = rt_spectrum(6)
    values = [l2_continuous(spec, t) for t in (0.0, 0.5, 1.0, 2.0, 5.0, 9.0, 15.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_l2_continuous_matches_oracle_poisson(exact):
    spec = spectrum(*measure("rt", 5))
    times = (0.5, 2.0, 8.0)
    for t, d2 in zip(times, exact("rt", 5, times, "continuous").distances()):
        assert abs(d2 - float(l2_continuous(spec, t))) < 1e-8
        assert len(go._poisson_weights(t)) - 1 >= t  # the truncation point


def test_single_term_lower_examples():
    n = 8
    q = measure("rt", n)
    for t in (3, 10):
        val = float(l2_single_term_lower((n - 1, 1), *q, t, "discrete"))
        assert val == pytest.approx((n - 1) * (1 - 2 / n) ** t, rel=1e-12)
    val = float(l2_single_term_lower((n - 1, 1), *q, 4.5, "continuous"))
    assert val == pytest.approx((n - 1) * math.exp(-4.5 * 2 / n), rel=1e-12)
    with pytest.raises(ValueError):
        l2_single_term_lower((n,), *q, 1, "discrete")


def test_single_term_below_full_distance(rt_spectrum):
    for n in (5, 7):
        q = measure("rt", n)
        spec = rt_spectrum(n)
        for lam in partitions(n):
            if lam == (n,):
                continue
            for t in (1, 4, 9):
                assert l2_single_term_lower(lam, *q, t, "discrete") <= l2_discrete(spec, t)
                assert l2_single_term_lower(lam, *q, float(t), "continuous") <= l2_continuous(
                    spec, t)


def test_ttr_continuous_oracle_meets_threshold(exact):
    # the continuous-time transpose-top walk obeys sqrt(2) e^-c as well
    for n in (4, 5, 6):
        times = [n * (math.log(n) + c) for c in (0, 1, 2)]
        for c, d2 in enumerate(exact("ttr", n, times, "continuous").distances()):
            assert d2 <= math.sqrt(2) * math.exp(-c) + 1e-10


def test_ttr_lower_bound_against_oracle(exact):
    # d2(q_ttr^(t))^2 >= (n-1)(n-2)(1-1/n)^(2t): the multiplicity-(n-2)
    # eigenvalue 1 - 1/n inside the (n-1,1) block
    for n in (5, 6):
        times = (1, 3, 6, 12)
        for t, d2 in zip(times, exact("ttr", n, times).distances()):
            d2sq = d2 ** 2
            assert d2sq >= (n - 1) * (n - 2) * (1 - 1 / n) ** (2 * t) - 1e-12


def test_chi_square_and_tv_definitional(exact):
    n = 5
    g = math.factorial(n)
    point = [1.0] + [0.0] * (g - 1)
    assert chi_square_of(point) == pytest.approx(math.sqrt(g - 1), rel=1e-12)
    assert tv_of(point) == pytest.approx(1 - 1 / g, rel=1e-12)
    uniform = [1.0 / g] * g
    assert chi_square_of(uniform) == pytest.approx(0, abs=1e-12)
    assert tv_of(uniform) == pytest.approx(0, abs=1e-12)
    laws = exact("rt", n, [4])
    assert 2 * laws.distances(tv_of)[0] <= laws.distances()[0]


def test_unnormalized_rejected():
    bad = [0.5, 0.0, 0.0, 0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        chi_square_of(bad)
    with pytest.raises(ValueError):
        tv_of(bad)


def test_profile_even_class_an_discrete_matches_oracle(exact):
    # A_n profile of an even class equals the definitional distance of the
    # walk restricted to A_n; on A_4 the V4 class has a second beta = 1
    # block, which the sign diagram joins
    for cycles, n in (("class:3", 5), ("class:2,2", 4)):
        rows = profile(cycles, n, "an", "discrete", [1, 2, 4])
        laws = even_laws(exact(cycles, n, [int(row.t) for row in rows]))
        for row, law in zip(rows, laws):
            assert abs(float(row.d2) - chi_square_of(*law)) < 1e-9, (cycles, row.t)


def test_profile_odd_class_an_discrete_reports_squared_walk(exact):
    # row at time t must equal the A_n distance of q*q after t steps,
    # i.e. the even-support distribution q^(2t)
    n = 5
    rows = profile("class:4", n, "an", "discrete", [1, 2, 3])
    an_rows = [r for r in rows if r.group == "an"]
    sn_rows = [r for r in rows if r.group == "sn"]
    assert len(an_rows) == 3 and len(sn_rows) == 3
    laws = even_laws(exact("class:4", n, [2 * int(row.t) for row in an_rows]))
    for row, (values, sizes, den) in zip(an_rows, laws):
        assert sum(map(mul, sizes, values)) == den  # even power lands in A_n
        assert abs(float(row.d2) - chi_square_of(values, sizes, den)) < 1e-9
    # raw S_n rows alternate and match the plain spectral distance
    spec = WalkSpec.parse("class:4").blocks(n)
    for row in sn_rows:
        assert abs(float(row.d2) - float(l2_discrete(spec, int(row.t)))) < 1e-12


def test_tiny_tail_values_survive():
    # dominant term exp(-2t/6) at t = 5000 puts d2 near 1e-361, beneath the
    # smallest positive float64; the mpf pipeline must keep it non-zero
    spec = spectrum(*measure("rt", 12))
    val = l2_continuous(spec, 5000.0)
    assert 0 < val < mp.mpf("1e-350")
    assert float(val) == 0.0


def test_log10_d2_sq_float_is_correctly_rounded():
    # the JSON float of log10(d2^2) is the 256-bit value rounded once
    for n in (5, 60, 200):
        for mode in ("discrete", "continuous"):
            times = cli._time_grid("auto", n, "ttr-bound", mode)
            for row in spectrum_profile(ttr_bound_spectrum(n), "sn", mode, times):
                with mp.workprec(256):
                    reference = float(2 * mp.log10(row.d2))
                assert float(row.log10_d2_sq) == reference, (n, mode, row.t)
    assert ProfileRow("sn", 1, mp.mpf(0)).log10_d2_sq == mp.mpf("-inf")


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
    """One (eigenvalue, multiplicity) pair per nontrivial diagram of the
    class walk q = (cycles, hold); on A_n the sign diagram is dropped and
    every multiplicity halved."""
    n = sum(q[0])
    if group == "sn":
        return [(beta, m) for lam, beta, m in diagram_eigenvalues(*q) if lam != (n,)]
    sign = (1,) * n
    return [(beta, Fraction(m, 2))
            for lam, beta, m in diagram_eigenvalues(*q) if lam not in ((n,), sign)]


def squared_walk_pairs(q):
    n = sum(q[0])
    sign = (1,) * n
    return [(beta ** 2, Fraction(m, 2))
            for lam, beta, m in diagram_eigenvalues(*q) if lam not in ((n,), sign)]


DISCRETE_TIMES = (0, 1, 2, 5, 17, 40)
CONTINUOUS_TIMES = (0, 0.5, 3.25, 10.0, 40.0)


def check_profile(walk, n, group, mode, pairs, times, label):
    rows = [r for r in profile(walk, n, group, mode, times) if r.group == label]
    assert [r.t for r in rows] == list(times)
    for row in rows:
        assert_close(row.d2, per_partition_l2(pairs, row.t, mode), (walk, n, group, mode, row.t))


def test_blocks_group_integer_multiplicities():
    cases = [("rt", n, "sn") for n in (2, 5, 9)]
    cases += [("class:3", n, "an") for n in (3, 6, 9)]
    cases += [("lazy:3:1/2", 8, "an")]
    for walk, n, group in cases:
        ((_, spec),) = WalkSpec.parse(walk).profile_blocks(n, group, "continuous")
        order = math.factorial(n) // (2 if group == "an" else 1)
        betas = [beta for beta, _ in spec]
        assert len(betas) == len(set(betas)) <= len(nontrivial_pairs(measure(walk, n), group))
        assert all(type(m) is int and m > 0 for _, m in spec)
        assert sum(m for _, m in spec) == order - 1
    for n in (4, 7, 9):
        for cls in (2, 4):
            blocks = spectrum(*measure(f"class:{cls}", n))
            folded = alternating_blocks(tuple((beta * beta, m) for beta, m in blocks))
            assert all(type(m) is int and m > 0 for _, m in folded)
            assert sum(m for _, m in folded) == math.factorial(n) // 2 - 1


def test_grouped_rt_matches_per_partition_sum():
    for n in range(2, 13):
        spec = spectrum(*measure("rt", n))
        pairs = nontrivial_pairs(measure("rt", n))
        for t in DISCRETE_TIMES:
            assert_close(l2_discrete(spec, t), per_partition_l2(pairs, t, "discrete"), (n, t))
        for t in CONTINUOUS_TIMES:
            assert_close(l2_continuous(spec, t), per_partition_l2(pairs, t, "continuous"), (n, t))
        for mode, times in (("discrete", DISCRETE_TIMES), ("continuous", CONTINUOUS_TIMES)):
            check_profile("rt", n, "sn", mode, pairs, times, "sn")


def test_grouped_an_profiles_match_per_partition_sum():
    for n in (5, 8, 10):
        for walk in ("class:3", "lazy:3:1/2"):
            pairs = nontrivial_pairs(measure(walk, n), "an")
            check_profile(walk, n, "an", "discrete", pairs, DISCRETE_TIMES, "an")
            check_profile(walk, n, "an", "continuous", pairs, CONTINUOUS_TIMES, "an")


def test_grouped_odd_class_fold_matches_per_partition_sum():
    for n in (4, 7, 10):
        for walk in ("class:2", "class:4"):
            q = measure(walk, n)
            check_profile(walk, n, "an", "discrete", squared_walk_pairs(q), DISCRETE_TIMES, "an")
            check_profile(walk, n, "an", "discrete", nontrivial_pairs(q), DISCRETE_TIMES, "sn")


def test_grouped_matches_exact_rationals_for_small_n():
    # the exact rational sums an earlier small-n fast path returned directly
    times = range(31)
    for n in range(2, 7):
        walks = [("rt", "sn")] + [(f"class:{k}", "sn") for k in range(2, n + 1)]
        if n >= 3:
            walks.append(("lazy:3:1/2", "an"))
        for walk, group in walks:
            q = measure(walk, n)
            pairs = nontrivial_pairs(q, group)
            check_profile(walk, n, group, "discrete", pairs, times, group)
            if is_even_class(q[0]) and group == "sn":
                check_profile(walk, n, "an", "discrete", nontrivial_pairs(q, "an"), times, "an")
            if not is_even_class(q[0]) and not q[1]:  # a pure odd class
                pairs = squared_walk_pairs(q)
                check_profile(walk, n, "an", "discrete", pairs, times, "an")


def test_discrete_times_must_be_integers():
    spec = spectrum(*measure("rt", 4))
    for bad in (1.5, -1):
        with pytest.raises(ValueError):
            l2_discrete(spec, bad)
        with pytest.raises(ValueError):
            spectrum_profile(spec, "sn", "discrete", [bad])
    with pytest.raises(ValueError):
        l2_continuous(spec, -0.5)
    for bad in (math.inf, math.nan):  # no exact power of e^-t at a non-finite t
        with pytest.raises(ValueError):
            l2_curve(WalkSpec("rt").blocks(5), [bad], "continuous", 128)


# ---------------------------------------------------------------------------
# accuracy and work of the l2 evaluator
# ---------------------------------------------------------------------------

ACCURACY_SPECTRA = {
    "rt": lambda: spectrum(*measure("rt", 9)),
    "class:3": lambda: alternating_blocks(spectrum(*measure("class:3", 8))),
    "lazy:3:1/2": lambda: alternating_blocks(spectrum(*measure("lazy:3:1/2", 8))),
    "ttr-bound": lambda: ttr_bound_spectrum(10),
    "beta=0": lambda: ((Fraction(1, 2), 5), (Fraction(0), 3), (Fraction(-1, 3), 7)),
    "beta=-1": lambda: ((Fraction(-1), 1), (Fraction(1, 3), 4), (Fraction(2, 3), 2)),
}
# unsorted, repeated and far beyond any mixing time
ACCURACY_DISCRETE_TIMES = (5, 0, 17, 5, 1, 10**4, 2)
ACCURACY_CONTINUOUS_TIMES = (5.5, 0, 40.0, 5.5, 0.25, 1e4, 3)


def exact_discrete_sum(blocks, t):
    """sum_b m_b beta_b^(2t) as (numerator, denominator) over one common
    denominator, with no gcd on the large integers."""
    den = math.lcm(*(beta.denominator for beta, _ in blocks))
    num = sum(m * (beta.numerator * (den // beta.denominator)) ** (2 * t) for beta, m in blocks)
    return num, den ** (2 * t)


def discrete_sum_within(d2, num, den, tol_exp):
    """|d2^2 - num/den| <= 2^tol_exp * num/den, in integers."""
    man, exp = int(d2.man), int(d2.exp)
    got, ref = man * man * den, num
    if exp >= 0:
        got <<= 2 * exp
    else:
        ref <<= -2 * exp
    return abs(got - ref) << -tol_exp <= ref


def continuous_reference(blocks, t, prec):
    """Per-term exp sum at prec + 128 bits."""
    with mp.workprec(prec + 128):
        tt = mp.mpf(Fraction(t).numerator) / Fraction(t).denominator
        return mp.sqrt(mp.fsum(
            m * mp.exp(-2 * tt * (1 - mp.mpf(beta.numerator) / beta.denominator))
            for beta, m in blocks))


@pytest.mark.parametrize("prec", [53, 128, 256, 4096])
def test_l2_curve_relative_error_at_most_four_ulps(prec):
    for name, make in ACCURACY_SPECTRA.items():
        blocks = make()
        got = l2_curve(blocks, ACCURACY_DISCRETE_TIMES, "discrete", prec)
        for t, d2 in zip(ACCURACY_DISCRETE_TIMES, got):
            num, den = exact_discrete_sum(blocks, t)
            assert discrete_sum_within(d2, num, den, 2 - prec), (name, prec, t)
        got = l2_curve(blocks, ACCURACY_CONTINUOUS_TIMES, "continuous", prec)
        for t, d2 in zip(ACCURACY_CONTINUOUS_TIMES, got):
            ref = continuous_reference(blocks, t, prec)
            with mp.workprec(prec + 128):
                assert abs(d2 - ref) <= mp.mpf(2) ** (2 - prec) * ref, (name, prec, t)


def test_dyadic_orders_exactly_against_ints_floats_and_fractions():
    from symwalk.distances import Dyadic

    # 2/3 at 128 bits, rounded down and up: strictly on either side of 2/3
    low = Dyadic((2 << 128) // 3, -128)
    high = Dyadic((2 << 128) // 3 + 1, -128)
    assert low < Fraction(2, 3) < high and Fraction(2, 3) > low and high >= Fraction(2, 3)
    assert low != Fraction(2, 3) and Dyadic(1, -2) == Fraction(1, 4) <= Dyadic(1, -2)
    assert Dyadic(0) == 0 < Dyadic(1, -2000) < Fraction(1, 10**600) and Dyadic(0) > Fraction(-1, 3)
    assert Dyadic(3, -1) == 1.5 and Dyadic(3, -1) < 2 and Dyadic(5, 100) > 2.0**100
    assert Dyadic(6, 0) == Dyadic(3, 1) and Dyadic(7, -3) < Dyadic(1, 0)


# m = 1, powers of two, primes and the discrete-time bases n^2 - 2j(n - j + 1)
LOG_ARGUMENTS = (1, 2, 4, 2**20, 2**61, 3, 97, 9973, 2**61 - 1, *(
    n * n - 2 * j * (n - j + 1) for n in (14, 31, 100) for j in (1, n // 4, n // 2)))
# (man, exp) of exp(-man * 2^exp): arguments below, at and above zero, from
# 2^-60 up to 700 in size; -man = 1 - 3 * 14 * log(14)/1000 at 60 bits is
# phi_2's positive argument at n = 14
EXP_ARGUMENTS = ((0, 0), (1, -60), (-1, -60), (3, -2), (-3, -2), (1, 0), (-1, 0), (2, 0),
                 (-7, 1), (700, 0), (-700, 0), (123456789, -20), (-123456789, -20),
                 (-round((1 - 3 * 14 * math.log(14) / 1000) * 2**60), -60))


@pytest.mark.parametrize("prec", [53, 128, 256, 4096])
def test_log_and_signed_exp_within_four_ulps(prec):
    # the fixed-point log within 2^(2 - prec) absolutely, the exp relatively,
    # of mpmath at 256 more bits
    from symwalk.distances import _exp_neg, _log

    with mp.workprec(prec + 256):
        tol = mp.mpf(2) ** (2 - prec)
        for m in LOG_ARGUMENTS:
            got = mp.mpf(_log(m, prec)) * mp.mpf(2) ** -prec
            assert abs(got - mp.log(m)) <= tol, m
        for man, exp in EXP_ARGUMENTS:
            got = mp.mpf(_exp_neg(man, exp, prec))
            ref = mp.exp(-man * mp.mpf(2) ** exp)
            assert abs(got - ref) <= tol * ref, (man, exp)


def test_l2_curve_exp_calls_do_not_grow_with_blocks(monkeypatch):
    from symwalk import distances

    calls = []

    def counting(original):
        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return spy

    monkeypatch.setattr(distances, "_exp_neg", counting(distances._exp_neg))
    times = [0.5, 3, 0.5, 7.25, 3]
    for n in (6, 12, 16):
        blocks = spectrum(*measure("rt", n))
        calls.clear()
        l2_curve(blocks, times, "continuous", 128)
        assert 0 < len(calls) <= len(set(times)), n
        calls.clear()
        l2_curve(blocks, [0, 9, 4, 9, 100], "discrete", 128)
        assert not calls, n


@pytest.mark.parametrize("walk, n", [("ri", 5), ("rt", 5), ("class:3,2", 5)])
def test_dropping_decayed_blocks_leaves_every_bit(walk, n, monkeypatch):
    # a block is dropped once its term is provably below what the fixed-point
    # sum keeps; the sums are bit for bit those of every block carried along
    from symwalk import distances

    blocks = WalkSpec.parse(walk).blocks(n)
    times = [0, 1, 3, 40, 700, 1e20, 1e300]
    powers = []
    real_pow = distances._pow
    monkeypatch.setattr(distances, "_pow", lambda *a: powers.append(1) or real_pow(*a))
    dropped = {prec: l2_curve(blocks, times, "discrete", prec) for prec in (53, 128, 256, 4096)}
    calls = len(powers)
    # bounds of 0 never drop a block
    monkeypatch.setattr(distances, "_decay_bounds", lambda b: ([0.0] * len(b), [0.0] * len(b)))
    for prec, curve in dropped.items():
        full = l2_curve(blocks, times, "discrete", prec)
        assert [(d.man, d.exp) for d in curve] == [(d.man, d.exp) for d in full], prec
    assert calls < len(powers) - calls  # some powers were never taken
