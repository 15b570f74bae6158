"""Acceptance suite: the headline guarantees, one test per criterion.

Each test prints a `[acceptance] ...` PASS/FAIL line (visible with -s, or in
captured output on failure) and then asserts the criterion as stated.  Three
tests pin quoted constants that exact computation contradicts (7's phi_1
envelope, 8's insertion-eigenfunction constants, 10's monotone trend); they
are asserted as stated and fail honestly, printing the exact quantities.
The corresponding true statements are covered green in the module suites.
"""

import math
from fractions import Fraction

import pytest
from mpmath import mp

from symwalk import group_oracle as go
from symwalk import montecarlo as mc
from symwalk.bounds import rt_continuous_terms, rt_discrete_terms, ttr_bound_spectrum
from symwalk.characters import char_ratio, m_moment, r4_exact
from symwalk.distances import l2_continuous, l2_discrete, l2_single_term_lower
from symwalk.group_oracle import tv_of
from symwalk.partitions import dimension, dominates, enumerate_partitions, near_square_partition, partitions
from symwalk.spectra import alternating_blocks, spectrum
from symwalk.walks import WalkSpec

TV_SLACK = 1e-12  # numerical slack for inequalities between float quantities


def measure(walk: str, n: int):
    """A class walk at n: its class (fixed points included) and its hold."""
    spec = WalkSpec.parse(walk)
    return spec.cycle_type(n), spec.hold(n)


def oracle_measure(walk: str, n: int):
    """The brute-force per-element measure of a walk string at n: its exact step law."""
    return go.step_law(WalkSpec.parse(walk), n)


def report(name: str, ok: bool, detail: str = "") -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}" + (f"  {detail}" if detail else ""))
    return ok


def test_criterion_01_rt_discrete_upper_bound(rt_spectrum):
    worst = None
    for n in range(15, 41):
        spec = rt_spectrum(n)
        for c in (0, 1, 2, 4):
            t = math.ceil((n / 2) * (math.log(n) + c))
            val = l2_discrete(spec, t)
            margin = float(val / (2 * mp.exp(-c)))
            if worst is None or margin > worst[0]:
                worst = (margin, n, c)
            if not val <= 2 * mp.exp(-c):
                assert report("1 rt-discrete", False, f"n={n} c={c} d2={float(val)}")
    ok = worst[0] <= 1.0
    assert report("1 rt-discrete", ok, f"worst ratio {worst[0]:.4f} at n={worst[1]} c={worst[2]}")


def test_criterion_02_ttr_bound_and_oracle(exact):
    ok = True
    detail = []
    for n in range(5, 61):
        spec = ttr_bound_spectrum(n)
        for c in (0, 1, 2):
            t = math.ceil(n * (math.log(n) + c))
            with mp.workprec(128):
                bound_sum = mp.mpf(l2_discrete(spec, t)) ** 2  # d2^2 of the ttr-bound blocks
            if not bound_sum <= 2 * math.exp(-2 * c):
                ok = False
                detail.append(f"sum n={n} c={c}")
    for n in range(2, 8):
        times = [math.ceil(n * (math.log(n) + c)) for c in (0, 1, 2)]
        for c, d2 in enumerate(exact("ttr", n, times).distances()):
            if not d2 <= math.sqrt(2) * math.exp(-c) + TV_SLACK:
                ok = False
                detail.append(f"oracle n={n} c={c} d2={d2}")
    assert report("2 ttr", ok, "; ".join(detail))


def test_criterion_03_rt_continuous_upper_bound(rt_spectrum):
    worst = None
    for n in range(10, 41):
        spec = rt_spectrum(n)
        for c in (2, 3, 4):
            t = (n / 2) * (math.log(n) + c)
            val = l2_continuous(spec, t)
            margin = float(val / mp.exp(-(c - 2)))
            if worst is None or margin > worst[0]:
                worst = (margin, n, c)
    ok = worst[0] <= 1.0
    assert report("3 rt-continuous", ok, f"worst ratio {worst[0]:.4f} at n={worst[1]} c={worst[2]}")


def test_criterion_04_four_cycle_continuous():
    worst = None
    for n in range(11, 26):
        spec = spectrum(*measure("class:4", n))
        for c in (2, 3):
            t = (n / 2) * (math.log(n) + c)
            val = l2_continuous(spec, t)
            margin = float(val / mp.exp(-(c - 2)))
            if worst is None or margin > worst[0]:
                worst = (margin, n, c)
    ok = worst[0] <= 1.0
    assert report("4 four-cycle", ok, f"worst ratio {worst[0]:.2e} at n={worst[1]} c={worst[2]}")


CONTINUOUS_TIMES = (0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0)


def _acc5_walk(exact, n: int, walk: str) -> float:
    """Worst absolute disagreement between definitional and spectral values,
    the spectral side from the walk's blocks, certified exact at n."""
    spec = WalkSpec.parse(walk)
    blocks = spec.blocks(n)
    assert go.certify_blocks(go.step_law(spec, n), n, blocks), (walk, n)
    worst = 0.0
    laws = exact(walk, n, range(21))
    for t, (chi2, tv) in enumerate(zip(laws.distances(), laws.distances(tv_of))):
        assert 2 * tv <= chi2 + TV_SLACK, (walk, n, t)
        worst = max(worst, abs(chi2 - float(l2_discrete(blocks, t))))
    laws = exact(walk, n, CONTINUOUS_TIMES, "continuous")
    for t, chi2, tv in zip(CONTINUOUS_TIMES, laws.distances(), laws.distances(tv_of)):
        assert 2 * tv <= chi2 + TV_SLACK, (walk, n, t)
        worst = max(worst, abs(chi2 - float(l2_continuous(blocks, t))))
    return worst


def test_criterion_05_oracle_equivalence(exact):
    worst = 0.0
    for n in (4, 5, 6):
        for walk in ("rt", "ttr", "ri", "class:3", "class:4", "lazy:3:1/2"):
            worst = max(worst, _acc5_walk(exact, n, walk))
    ok = worst <= 1e-8
    assert report("5 oracle-equivalence", ok, f"worst |definitional - spectral| = {worst:.2e}")


def test_criterion_06_character_cross_validation():
    for n in range(4, 13):
        four = (4,) + (1,) * (n - 4)
        for lam in partitions(n):
            assert r4_exact(lam) == char_ratio(lam, four), lam
    for n in range(2, 10):
        parts = enumerate_partitions(n)
        for hi in parts:
            for lo in parts:
                if dominates(hi, lo):
                    for l in (1, 2, 3):
                        assert m_moment(hi, l) >= m_moment(lo, l), (hi, lo, l)
        for lam in parts:
            for l in (1, 2):
                assert m_moment(lam, l) <= n * (lam[0] - 1) ** l * lam[0] ** (l - 1), (lam, l)
    assert report("6 characters", True, "moment identity and monotonicity, n <= 12 / n <= 9")


def test_criterion_07_technical_lemma_sweeps():
    clauses = {"phi0": True, "phi1": True, "phi2": True, "a_low": True, "a_mid": True, "gamma": True}
    phi1_fail = None
    for n in range(14, 201):
        terms = rt_discrete_terms(n)
        if not terms.phi0 <= 2:
            clauses["phi0"] = False
        if not terms.phi1 <= mp.exp(2 - n * mp.log(n) / 6):
            clauses["phi1"] = False
            if phi1_fail is None:
                phi1_fail = (n, float(terms.phi1), float(mp.exp(2 - n * mp.log(n) / 6)))
        if not terms.phi2 <= mp.exp(1 - mp.mpf(3) * n * mp.log(n) / 1000):
            clauses["phi2"] = False
    for n in range(10, 201):
        cterms = rt_continuous_terms(n)
        if not cterms.sum_a_low <= mp.mpf(2) / 3:
            clauses["a_low"] = False
        if not cterms.sum_a_mid <= mp.mpf(1) / 4:
            clauses["a_mid"] = False
        if not cterms.gamma <= 2 * mp.exp(mp.mpf(3) * n / 2 * (mp.log(2) - 1)):
            clauses["gamma"] = False
    for name, ok in clauses.items():
        detail = ""
        if name == "phi1" and not ok:
            detail = f"first violation n={phi1_fail[0]}: {phi1_fail[1]:.3e} > {phi1_fail[2]:.3e}"
        report(f"7 lemma sweep [{name}]", ok, detail)
    assert all(clauses.values()), (
        "phi_1 exceeds exp(2 - n log n / 6) throughout 15..200; "
        f"first violation {phi1_fail}"
    )


def test_criterion_08_eigenfunction_certificates():
    ok_phi = ok_ttr = ok_wilson_res = ok_wilson_sum = ok_grad = True
    for n in (4, 5, 6, 7):
        # exact residuals: a true eigenpair gives exactly 0
        qrt = oracle_measure("rt", n)
        if go.eigenfunction_residual(go.fixed_points_minus_one(n), qrt, n, Fraction(n - 2, n)) != 0:
            ok_phi = False
        qttr = oracle_measure("ttr", n)
        g_ttr = go.ttr_remark_eigenfunction(n)  # f = sqrt((n-1)/(n-2)) g
        if go.eigenfunction_residual(g_ttr, qttr, n, Fraction(n - 1, n)) != 0:
            ok_ttr = False
        if g_ttr[0] ** 2 * Fraction(n - 1, n - 2) != (n - 1) * (n - 2):
            ok_ttr = False
        qri = oracle_measure("ri", n)
        f_w = go.ri_wilson_function(n)
        if go.eigenfunction_residual(f_w, qri, n, Fraction(n - 1, n)) != 0:
            ok_wilson_res = False
        # exact integer form of sum f^2 = n! n^2/(n-1): scale by (n-1)^4
        total = sum((-n * (n - 1) ** 2 + 4 * s) ** 2 for s in go.position_weighted_sums(n))
        if total != math.factorial(n) * n * n * (n - 1) ** 3:
            ok_wilson_sum = False
        if go.square_gradient_sup(f_w, qri, n) > 32:
            ok_grad = False
    report("8 certificates [phi-1 @ rt, 1-2/n]", ok_phi)
    report("8 certificates [ttr remark, 1-1/n, f(e)^2]", ok_ttr)
    report("8 certificates [insertion eigenfunction @ 1-1/n]", ok_wilson_res,
           "true eigenvalue is (n+1)(n-2)/n^2")
    report("8 certificates [insertion sum f^2 = n! n^2/(n-1)]", ok_wilson_sum,
           "true sum is n! n^2 (n+1)^2 / (9 (n-1)^3)")
    report("8 certificates [square gradient <= 32]", ok_grad)
    assert ok_phi and ok_ttr and ok_grad and ok_wilson_res and ok_wilson_sum, (
        "the insertion-walk eigenfunction certificates fail as stated: "
        "the quoted eigenvalue and square-sum constants do not match the "
        "exact Fourier transform (true values tested in test_group_oracle)"
    )


def test_criterion_09_comparison_certificate():
    # both forms decided exactly, in integers: 4 E_ri - E_rt >= 0 (the
    # transfer) and 4 E_rt - E_ri >= 0 (the literal statement)
    transfer = literal = True
    for n in (4, 5):
        qri = oracle_measure("ri", n)
        qrt = oracle_measure("rt", n)
        transfer = transfer and go.form_dominates(qri, qrt, n, 4)
        literal = literal and go.form_dominates(qrt, qri, n, 4)
    assert report(
        "9 comparison",
        transfer and literal,
        f"exactly at n = 4, 5: 4*E_ri - E_rt >= 0 {transfer}, 4*E_rt - E_ri >= 0 {literal}",
    )


def test_criterion_10_continuous_vs_discrete_divergence():
    singles = []
    discrete_ok = True
    for n in range(12, 29):
        k = 2 * (n // 4) + 1
        q = measure(f"class:{k}", n)
        lam = near_square_partition(n)
        t_cont = 0.8 * (n / 2) * math.log(n)
        singles.append((n, l2_single_term_lower(lam, *q, t_cont, "continuous")))
        t_disc = math.ceil(4 * (n / k) * math.log(n))
        if not l2_discrete(alternating_blocks(spectrum(*q)), t_disc) < 1:
            discrete_ok = False
    increasing = all(a[1] < b[1] for a, b in zip(singles, singles[1:]))
    seq = ", ".join(f"{n}:{float(v):.2e}" for n, v in singles)
    report("10 divergence [single-term bound increasing]", increasing, seq)
    report("10 divergence [discrete d2 < 1]", discrete_ok)
    assert increasing and discrete_ok, (
        "the single-term lower bound is not monotone over 12..28 "
        "(near-square dimension growth only overtakes the 0.8 threshold "
        f"far beyond desk scale); sequence: {seq}"
    )


def test_criterion_11_monte_carlo_lower_bound():
    n = 200
    t = math.ceil(n * math.log(n) - 3 * n)
    res = mc.fixed_point_tv_lower(mc.SimConfig("ttr", n, str(t), j=4, n_samples=10**5, seed=20260809))
    ok = res.estimate >= 0.8
    assert report(
        "11 monte-carlo",
        ok,
        f"estimate {res.estimate:.4f} (limit prediction {1 - math.exp(-1) / 6:.4f})",
    )
