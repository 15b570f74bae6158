import math
from fractions import Fraction

import pytest
from mpmath import mp

from symwalk import bounds, spectra
from symwalk import group_oracle as go
from symwalk.bounds import (
    BoundReport,
    calculus_claim,
    lemma_checks,
    rt_continuous_terms,
    rt_discrete_terms,
    theorem_bounds,
    ttr_bound_spectrum,
)
from symwalk.distances import DEFAULT_PREC, l2_continuous, l2_discrete
from symwalk.errors import ResourceGuardError
from symwalk.montecarlo import matching_tail
from symwalk.spectra import spectrum


def exact_term(n, j, base: Fraction, exponent: float) -> float:
    """Independent big-integer evaluation of (n!/(n-j)!)^2 (1/j!) base^exponent."""
    ratio = Fraction(math.factorial(n), math.factorial(n - j)) ** 2 / math.factorial(j)
    return float(
        mp.mpf(ratio.numerator)
        / ratio.denominator
        * mp.exp(mp.mpf(exponent) * (mp.log(base.numerator) - mp.log(base.denominator)))
    )


def test_discrete_terms_against_exact_integers():
    # log-gamma factorial ratios vs exact big-integer arithmetic, n <= 30
    for n in (14, 21, 30):
        terms = rt_discrete_terms(n)
        for j, val in terms.a_terms.items():
            base = 1 - Fraction(2 * j, n) * (1 - Fraction(j - 1, n))
            ref = exact_term(n, j, base, n * math.log(n))
            assert float(val) == pytest.approx(ref, rel=1e-10), (n, j)
        for j, val in terms.b_terms.items():
            if j == n:
                assert val == 0
                continue
            ref = exact_term(n, j, Fraction(n - j, n), n * math.log(n))
            assert float(val) == pytest.approx(ref, rel=1e-10), (n, j)


def test_a1_is_at_most_one():
    for n in (14, 20, 60, 200):
        terms = rt_discrete_terms(n)
        expected = n * n * math.exp(n * math.log(n) * math.log1p(-2 / n))
        assert float(terms.a_terms[1]) == pytest.approx(expected, rel=1e-9)
        assert terms.a_terms[1] <= 1


def test_phi_bounds_at_14():
    terms = rt_discrete_terms(14)
    assert terms.phi0 <= 2
    assert terms.phi1 <= mp.exp(2 - 14 * mp.log(14) / 6)
    assert terms.phi2 <= mp.exp(1 - mp.mpf(3) * 14 * mp.log(14) / 1000)


def test_phi1_bound_fails_beyond_14():
    # The phi_1 partial sum genuinely exceeds exp(2 - n log n / 6) for
    # n >= 15 (dominant term A_ceil(n/4) decays like exp(-0.22 n log n) but
    # with a polynomial prefactor the displayed constant cannot absorb at
    # desk scale); pinned here so the failure mode stays visible.
    for n in (15, 16, 20, 100, 200):
        terms = rt_discrete_terms(n)
        assert terms.phi1 > mp.exp(2 - n * mp.log(n) / 6)


def test_phi0_phi2_sweep():
    for n in range(14, 201, 7):
        terms = rt_discrete_terms(n)
        assert terms.phi0 <= 2, n
        assert terms.phi2 <= mp.exp(1 - mp.mpf(3) * n * mp.log(n) / 1000), n


def test_b_square_stand_in():
    # 2 + phi1 + phi2 <= 4 on the sweep; decreasing along a coarse grid
    values = []
    for n in (14, 20, 30, 50, 100, 200):
        values.append(rt_discrete_terms(n).b_square_bound)
        assert values[-1] <= 4
    assert all(a > b for a, b in zip(values, values[1:]))


def test_continuous_terms_bounds():
    for n in range(10, 201, 10):
        terms = rt_continuous_terms(n)
        assert terms.sum_a_low <= mp.mpf(2) / 3, n
        assert terms.sum_a_mid <= mp.mpf(1) / 4, n
        assert terms.gamma <= 2 * mp.exp(mp.mpf(3) * n / 2 * (mp.log(2) - 1)), n


def test_continuous_boundary_identity():
    # B_{n/2} = A_{n/2} for even n (both reduce to the same expression)
    for n in (10, 14, 24):
        terms = rt_continuous_terms(n)
        assert float(terms.a_terms[n // 2]) == pytest.approx(float(terms.b_terms[n // 2]), rel=1e-12)


def test_range_guards():
    with pytest.raises(ValueError):
        rt_discrete_terms(13)
    with pytest.raises(ValueError):
        rt_continuous_terms(9)


def test_bound_sums_are_capped_before_any_weight(monkeypatch):
    def no_weight(n, j):
        raise AssertionError("weight computed past the cap")

    monkeypatch.setattr(bounds, "lemma_weight", no_weight)
    monkeypatch.setattr(spectra, "lemma_weight", no_weight)
    n = bounds.MAX_BOUND_N + 1
    for build in (rt_discrete_terms, rt_continuous_terms, ttr_bound_spectrum):
        with pytest.raises(ResourceGuardError, match=f"n <= {bounds.MAX_BOUND_N}, got n = {n}$"):
            build(n)


LEMMA_ACCURACY_NS = (10, 14, 17, 31, 64, 100)


def reference_lemma_tables(n, prec):
    """(table function, a_j, b_j, {sum attribute: summed a or b indices}) per
    family, each term from its own exp at ``prec`` bits, as the tables were
    once built."""
    weight = bounds.lemma_weight
    low, mid = range(1, n // 4 + 1), range(-(-n // 4), n // 2 + 1)
    a_js, b_js = range(1, n // 2 + 1), range(-(-n // 2), n + 1)
    with mp.workprec(prec):
        logn = mp.log(n)
        out = [(rt_continuous_terms,
                {j: weight(n, j) * mp.exp(-2 * j * logn * (1 - mp.mpf(j) / n) - 2 * j)
                 for j in a_js},
                {j: weight(n, j) * mp.exp(-j * logn - 2 * j) for j in b_js},
                {"sum_a_low": ("a", low), "sum_a_mid": ("a", mid), "gamma": ("b", b_js)})]
        if n >= 14:
            exponent = n * logn

            def power(base):
                return mp.exp(exponent * (mp.log(base.numerator) - mp.log(base.denominator)))

            out.append((rt_discrete_terms,
                        {j: weight(n, j) * power(1 - Fraction(2 * j, n) * (1 - Fraction(j - 1, n)))
                         for j in a_js},
                        {j: weight(n, j) * power(Fraction(n - j, n)) if j < n else mp.mpf(0)
                         for j in b_js},
                        {"phi0": ("a", low), "phi1": ("a", mid), "phi2": ("b", b_js)}))
    return out


@pytest.mark.parametrize("prec", [53, 128, 256])
def test_lemma_tables_relative_error(prec):
    # every term and sum within 2^(2 - prec) of the per-term formulas at
    # 256 more bits
    for n in LEMMA_ACCURACY_NS:
        for table, a_ref, b_ref, sums in reference_lemma_tables(n, prec + 256):
            terms = table(n, prec)
            assert terms.a_terms.keys() == a_ref.keys() and terms.b_terms.keys() == b_ref.keys()
            with mp.workprec(prec + 256):
                pairs = [(terms.a_terms[j], a_ref[j], f"a{j}") for j in a_ref]
                pairs += [(terms.b_terms[j], b_ref[j], f"b{j}") for j in b_ref]
                for attr, (family, js) in sums.items():
                    ref = a_ref if family == "a" else b_ref
                    pairs.append((getattr(terms, attr), mp.fsum(ref[j] for j in js), attr))
                for got, ref, what in pairs:
                    name = f"{table.__name__}({n}).{what}"
                    assert abs(got - ref) <= mp.mpf(2) ** (2 - prec) * ref, name


def as_mpf(x):
    """A guaranteed constant as an mpf at the working precision."""
    return mp.mpf(x.numerator) / x.denominator if isinstance(x, Fraction) else mp.mpf(x)


@pytest.mark.parametrize("prec", [53, 128, 256, 4096])
def test_guaranteed_constants_within_four_ulps(prec):
    # every THEOREMS constant at the least c, the next two and 7.5, and every
    # LEMMAS constant at LEMMA_ACCURACY_NS, within 2^(2 - prec) of its formula
    # at 256 more bits
    with mp.workprec(prec + 256):
        theorems = {
            "rt-discrete": lambda c: 2 * mp.exp(-c),
            "rt-continuous": lambda c: mp.exp(-(c - 2)),
            "ttr": lambda c: 2 * mp.exp(-2 * c),
            "four-cycle": lambda c: mp.exp(-(c - 2)),
            "random-insertion": lambda c: mp.exp(-(c - 2)),
        }
        lemmas = {
            "phi0<=2": lambda n: mp.mpf(2),
            "phi1": lambda n: mp.exp(2 - n * mp.log(n) / 6),
            "phi2": lambda n: mp.exp(1 - mp.mpf(3) * n * mp.log(n) / 1000),
            "cont_sum_a_low<=2/3": lambda n: mp.mpf(2) / 3,
            "cont_sum_a_mid<=1/4": lambda n: mp.mpf(1) / 4,
            "cont_gamma": lambda n: 2 * mp.exp(mp.mpf(3) * n / 2 * (mp.log(2) - 1)),
        }
        pairs = []
        for walk, theorem in bounds.THEOREMS.items():
            for c in [float(theorem.min_c + k) for k in range(3)] + [7.5]:
                pairs.append((theorem.guaranteed(c, prec), theorems[walk](mp.mpf(c)), (walk, c)))
        for n in LEMMA_ACCURACY_NS:
            for _, min_n, rows in bounds.LEMMAS:
                if n >= min_n:
                    pairs += [(guaranteed(n, prec), lemmas[name](n), (name, n))
                              for name, _, guaranteed in rows]
        assert len(pairs) == 5 * 4 + 6 * 3 + 5 * 3
        for got, ref, what in pairs:
            assert abs(as_mpf(got) - ref) <= mp.mpf(2) ** (2 - prec) * ref, what
    exact = {name: guaranteed(14, prec) for _, _, rows in bounds.LEMMAS
             for name, _, guaranteed in rows}
    assert (exact["phi0<=2"], exact["cont_sum_a_low<=2/3"], exact["cont_sum_a_mid<=1/4"]) == (
        2, Fraction(2, 3), Fraction(1, 4))


def test_lemma_table_exp_calls(monkeypatch):
    # the exps the tables call for their powers; each log's own exp is part
    # of the log
    calls = []

    def counting(original):
        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)
        return spy

    monkeypatch.setattr(bounds, "_exp_neg", counting(bounds._exp_neg))
    continuous = []
    for n in (20, 60, 100):
        calls.clear()
        rt_continuous_terms(n)
        continuous.append(len(calls))
        calls.clear()
        rt_discrete_terms(n)
        primes = sum(all(p % d for d in range(2, p)) for p in range(2, n + 1))
        assert 0 < len(calls) <= n // 2 + primes + 1, n
    assert continuous[0] > 0 and len(set(continuous)) == 1, continuous


def ttr_bound_sum(n, t, mode="discrete"):
    """The transpose-top bound sum as d2^2 of the ``ttr-bound`` blocks."""
    l2 = l2_discrete if mode == "discrete" else l2_continuous
    with mp.workprec(DEFAULT_PREC):
        return mp.mpf(l2(ttr_bound_spectrum(n), t)) ** 2


def definitional_ttr_sum(n, t, mode):
    """sum_{j=1}^{n-1} (n!/(n-j)!)^2 / j! * b_j at 256 bits in log-gamma form,
    with b_j = (1 - j/n)^(2t) (discrete) or e^(-2tj/n) (continuous)."""
    with mp.workprec(256):
        log_fact = [mp.loggamma(k + 1) for k in range(n + 1)]
        total = mp.mpf(0)
        for j in range(1, n):
            log_weight = 2 * (log_fact[n] - log_fact[n - j]) - log_fact[j]
            if mode == "discrete":
                log_b = 2 * t * (mp.log(n - j) - mp.log(n))
            else:
                log_b = -2 * mp.mpf(t) * j / n
            total += mp.exp(log_weight + log_b)
        return total


def test_ttr_bound_blocks_match_definitional_sum():
    for n in (5, 17, 60, 200):
        spec = ttr_bound_spectrum(n)
        falling = [math.factorial(n) // math.factorial(n - j) for j in range(n)]
        assert spec == tuple(
            (Fraction(n - j, n), Fraction(falling[j] ** 2, math.factorial(j))) for j in range(1, n)
        )
        assert all(type(m) is int for _, m in spec)
        for t in (0, 1, n, math.ceil(n * (math.log(n) + 1))):
            for mode in ("discrete", "continuous"):
                ref = definitional_ttr_sum(n, t, mode)
                with mp.workprec(256):
                    err = abs(ttr_bound_sum(n, t, mode) - ref)
                    assert err <= mp.mpf(2) ** -100 * ref, (n, t, mode)
    with pytest.raises(ValueError):
        ttr_bound_spectrum(0)


def test_ttr_bound_sum():
    n = 25
    t0 = math.ceil(n * math.log(n))
    assert ttr_bound_sum(n, t0) <= 2
    t1 = math.ceil(n * (math.log(n) + 1))
    assert ttr_bound_sum(n, t1) <= 2 * math.exp(-2)
    values = [ttr_bound_sum(10, t) for t in (10, 20, 40, 80, 160)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10


def test_ttr_continuous_bound_sum():
    # the continuous-time chain obeys the same sqrt(2) e^-c threshold
    for n in (10, 25):
        for c in (0, 1, 2):
            t = n * (math.log(n) + c)
            assert ttr_bound_sum(n, t, "continuous") <= 2 * math.exp(-2 * c)


def test_theorem_bound_reports():
    rep = theorem_bounds("rt-discrete", 20, [0.0])[0]
    assert isinstance(rep, BoundReport) and rep.passed
    assert rep.as_dict()["pass"] is True
    assert theorem_bounds("ttr", 30, [1.0])[0].passed
    assert theorem_bounds("rt-continuous", 15, [2.0])[0].passed
    assert theorem_bounds("four-cycle", 11, [2.0])[0].passed
    assert theorem_bounds("random-insertion", 12, [2.0])[0].passed


def test_theorem_sweep_builds_one_spectrum_per_n(monkeypatch):
    built = []

    def counting_spectrum(cycles, hold):
        built.append(sum(cycles))
        return spectrum(cycles, hold)

    monkeypatch.setattr(spectra, "spectrum", counting_spectrum)
    for n in (15, 16):
        reports = theorem_bounds("rt-discrete", n, [0.0, 1.0, 2.0])
        assert [r.c for r in reports] == [0.0, 1.0, 2.0]
        assert all(r.passed for r in reports)
    assert built == [15, 16]


def verdicts(reports):
    return [(r.computed, r.guaranteed, r.t, r.as_dict()) for r in reports]


def test_theorem_bounds_equal_one_c_at_a_time():
    # one l2 evaluation over every threshold gives the per-c verdicts bit for bit
    for walk, n, cs in (
        ("rt-discrete", 15, [0.0, 1.0, 2.5]),
        ("ttr", 1, [0.0, 3.0]),
        ("ttr", 30, [0.0, 0.5, 2.0]),
        ("rt-continuous", 12, [2.0, 3.0, 4.0]),
        ("four-cycle", 11, [2.0, 2.25]),
        ("random-insertion", 10, [2.0, 5.0]),
    ):
        for prec in (DEFAULT_PREC, 256):
            single = [theorem_bounds(walk, n, [c], prec)[0] for c in cs]
            assert verdicts(theorem_bounds(walk, n, cs, prec)) == verdicts(single), (walk, n)
    with pytest.raises(ValueError):
        theorem_bounds("rt-discrete", 15, [0.0, -1.0])


def test_theorem_bound_range_checks():
    for walk, n, c in (
        ("rt-discrete", 14, 0.0),
        ("rt-continuous", 9, 2.0),
        ("rt-continuous", 12, 1.0),
        ("four-cycle", 10, 2.0),
        ("ttr", 5, -1.0),
        ("random-insertion", 9, 2.0),
        ("rt-continuous", 12, math.nan),
        ("ttr", 5, math.inf),
        ("rt-discrete", 15, float("1e400")),
        ("rt-continuous", 12, math.inf),
    ):
        with pytest.raises(ValueError):
            theorem_bounds(walk, n, [c])
    with pytest.raises(ValueError):
        theorem_bounds("no_such_walk", 20, [0.0])


def test_bound_report_verdict():
    # one comparison decides every row; the oracle's side condition must hold too
    assert BoundReport("x", 5, None, mp.mpf(1), mp.mpf(1)).passed
    assert not BoundReport("x", 5, None, mp.mpf(1), mp.mpf(2)).passed
    assert BoundReport("x", 5, 0.0, 2.0, 0.0, t=0.0).passed  # t = 0 is not a failure
    assert BoundReport("x", 5, None, 1e-8, 0.0, tv_inequality=True).passed
    assert not BoundReport("x", 5, None, 1e-8, 0.0, tv_inequality=False).passed
    row = BoundReport("x", 5, None, 1e-8, 0.0, tv_inequality=True).as_dict()
    assert row["details"]["tv_inequality"] is True and "t" not in row


def test_lemma_checks_rows_and_range():
    names = ["lemma:phi0<=2", "lemma:phi1", "lemma:phi2", "lemma:cont_sum_a_low<=2/3",
             "lemma:cont_sum_a_mid<=1/4", "lemma:cont_gamma"]
    assert [r.name for r in lemma_checks(14)] == names
    assert [r.name for r in lemma_checks(13)] == names[3:]
    assert all(r.c is None and r.t is None for r in lemma_checks(10))
    for n in (5, 9):
        with pytest.raises(ValueError):
            lemma_checks(n)


def test_lemma_checks_look_term_tables_up_at_call_time(monkeypatch):
    # a wrapper set on the module (as a tracer does) sees every table build,
    # one per family and n
    calls = []
    real = bounds.rt_discrete_terms

    def counting_terms(n, prec=DEFAULT_PREC):
        calls.append(n)
        return real(n, prec)

    monkeypatch.setattr(bounds, "rt_discrete_terms", counting_terms)
    lemma_checks(14)
    lemma_checks(15)
    assert calls == [14, 15]


def test_matching_tail_examples():
    n = 10
    assert matching_tail(n, n).value == Fraction(1, math.factorial(n))
    mt = matching_tail(10, 2)
    assert float(mt.value) <= mt.bound
    assert matching_tail(5, 1).bound is None
    with pytest.raises(ValueError):
        matching_tail(5, 6)


def test_matching_tail_against_census():
    # count permutations of S_6 with at least j fixed points directly
    perms = go.all_permutations(6)
    for j in range(1, 7):
        count = sum(1 for p in perms if sum(1 for i, v in enumerate(p) if i == v) >= j)
        assert matching_tail(6, j).value == Fraction(count, math.factorial(6)), j


def test_matching_tail_against_double_sum():
    # the definitional sum over m >= j of (1/m!) sum_{v <= n-m} (-1)^v / v!
    for n in range(1, 41):
        terms = [
            Fraction(1, math.factorial(m))
            * sum(Fraction((-1) ** v, math.factorial(v)) for v in range(n - m + 1))
            for m in range(n + 1)
        ]
        for j in range(1, n + 1):
            assert matching_tail(n, j).value == sum(terms[j:]), (n, j)


def stirling_envelope(n: int, prec: int = DEFAULT_PREC) -> tuple[mp.mpf, mp.mpf]:
    """(sqrt(2 pi n)(n/e)^n, e^(1/12n) sqrt(2 pi n)(n/e)^n), bracketing n!."""
    if n < 1:
        raise ValueError("n must be positive")
    with mp.workprec(prec):
        lower = mp.sqrt(2 * mp.pi * n) * mp.exp(n * (mp.log(n) - 1))
        return lower, mp.exp(mp.mpf(1) / (12 * n)) * lower


def test_stirling_envelope():
    lo, hi = stirling_envelope(10)
    assert float(lo) <= 3628800 <= float(hi)
    lo1, hi1 = stirling_envelope(1)
    assert float(lo1) <= 1 <= float(hi1)
    ratios = []
    for n in range(1, 101):
        lo, hi = stirling_envelope(n)
        assert float(lo) <= math.factorial(n) <= float(hi)
        ratios.append(float(hi / lo))
    assert all(a > b for a, b in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=1e-3)


def test_calculus_claim():
    assert calculus_claim(4, 0.75)
    assert calculus_claim(4, 0.0)
    assert not calculus_claim(4, 0.9)  # outside the stated domain
    for w in (4, 5, 10, 100):
        top = 1 - 1 / w
        for i in range(1001):
            x = top * i / 1000
            assert calculus_claim(w, x), (w, x)
