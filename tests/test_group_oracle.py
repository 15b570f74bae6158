import math
from fractions import Fraction

import numpy as np
import pytest

from symwalk import group_oracle as go
from symwalk.distances import l2_curve
from symwalk.group_oracle import chi_square_of, tv_of
from symwalk.walks import WalkSpec


def measure(walk: str, n: int) -> go.GroupDistribution:
    return go.element_measure(WalkSpec.parse(walk), n)


def test_enumeration_is_lexicographic_with_identity_first():
    perms = go.all_permutations(4)
    assert len(perms) == 24
    assert perms[0] == (0, 1, 2, 3)
    assert all(perms[i] < perms[i + 1] for i in range(23))


def test_composition_convention():
    # (s*t)(i) = s(t(i))
    s = (1, 0, 2)
    t = (2, 1, 0)
    assert go.compose(s, t) == (2, 0, 1)
    assert go.compose(s, go.invert(s)) == (0, 1, 2)
    assert go.cycle_type_of((1, 2, 0, 3)) == (3, 1)


def test_translation_maps_equal_the_compose_loop():
    for n in range(1, 7):
        perms = go.all_permutations(n)
        for s in perms:
            expected = [go.perm_index(go.compose(x, s)) for x in perms]
            assert go._translation_map(n, s).tolist() == expected, (n, s)


def test_ttr_measure():
    q = measure("ttr", 4)
    perms = go.all_permutations(4)
    expected = {(0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0)}
    for p, v in zip(perms, q.values):
        assert v == (float(Fraction(1, 4)) if p in expected else 0)


def test_ri_measure():
    q = measure("ri", 4)
    assert q.values[0] == float(Fraction(1, 4))  # identity mass 1/n
    assert q.total() == 1
    # c_{1,3} in 1-based positions is the 3-cycle sending 1->3, 3->2, 2->1
    c = go.insertion_cycle(4, 0, 2)
    assert c == (2, 0, 1, 3)
    assert q.values[go.perm_index(c)] == float(Fraction(1, 16))
    # adjacent insertions coincide with transpositions and get 2/n^2
    adj = go.insertion_cycle(4, 1, 2)
    assert go.cycle_type_of(adj) == (2, 1, 1)
    assert q.values[go.perm_index(adj)] == float(Fraction(2, 16))


def test_rt_measure_element_level():
    q = measure("rt", 5)
    assert q.values[0] == float(Fraction(1, 5))
    tau = (1, 0, 2, 3, 4)
    assert q.values[go.perm_index(tau)] == float(Fraction(2, 25))


def test_class_measure_element_level():
    q = measure("class:3", 5)
    support = [v for v in q.values if v != 0]
    assert len(support) == 20 and all(v == float(Fraction(1, 20)) for v in support)
    with pytest.raises(ValueError):
        measure("class:6", 5)  # does not fit in S_5


def test_lazy_weights_are_correctly_rounded():
    # hold 1/3 on e and (2/3)/8 = 1/12 on each 3-cycle of S_4, each rounded once
    # (mixing a rounded 1/8 with a rounded 2/3 gives 0.08333333333333334)
    q = measure("lazy:3:1/3", 4)
    for p, v in zip(go.all_permutations(4), q.values):
        exact = {(1, 1, 1, 1): Fraction(1, 3), (3, 1): Fraction(1, 12)}.get(go.cycle_type_of(p), 0)
        assert v == float(exact), p


def test_convolution_power_basics():
    law = go.step_law(WalkSpec("rt"), 4)
    orbits = go.law_orbits(law, 4)
    powers, L = go.orbit_powers(law, orbits, 5)
    # q^(0) is the point mass at e, an orbit of its own; q^(1) is the law
    assert powers[0][orbits.of[0]] == 1 and sum(powers[0]) == 1
    assert all(Fraction(powers[1][o], L) == law.get(x, 0) for x, o in enumerate(orbits.of))
    assert sum(size * v for size, v in zip(orbits.sizes, powers[5])) == L**5


def test_convolution_exact_matches_float():
    # f*q(x) = sum_y f(x y^-1) q(y) in exact rationals, built with compose
    # and invert only, so it shares no translation table with the oracle
    n = 4
    perms = go.all_permutations(n)
    q = {perms[0]: Fraction(1, n)}
    for i in range(1, n):
        p = list(range(n))
        p[0], p[i] = p[i], p[0]
        q[tuple(p)] = Fraction(1, n)
    exact = {x: Fraction(int(x == perms[0])) for x in perms}
    for _ in range(6):
        exact = {x: sum(exact[go.compose(x, go.invert(y))] * w for y, w in q.items())
                 for x in perms}
    dense = np.zeros(len(perms))
    dense[0] = 1.0
    for _ in range(6):
        dense = go.convolve(dense, measure("ttr", n))
    for x, b in zip(perms, dense):
        assert float(exact[x]) == pytest.approx(b, abs=1e-14)


def test_odd_class_walk_alternates_cosets(exact):
    laws = exact("class:2", 5, range(5))
    perms, orbits = go.all_permutations(5), laws.orbits
    even = [sum(c - 1 for c in go.cycle_type_of(perms[rep])) % 2 == 0 for rep in orbits.reps]
    for t, (values, den) in enumerate(laws.laws):
        mass_even = sum(size * v for size, v, e in zip(orbits.sizes, values, even) if e)
        assert mass_even == (den if t % 2 == 0 else 0), t


def test_continuous_law_bookkeeping(exact):
    laws = exact("rt", 4, (0.0, 6.0), "continuous")
    (h0, den0), (h, den) = laws.laws
    # at t = 0 one Poisson term, the point mass at e
    assert len(go._poisson_weights(0.0)) == 1
    assert h0[laws.orbits.of[0]] == den0 and sum(h0) == den0
    # retained Poisson mass >= 1 - POISSON_TAIL by construction
    mass = Fraction(sum(size * v for size, v in zip(laws.orbits.sizes, h)), den)
    assert 0 < 1 - mass < go.POISSON_TAIL


def test_eigenfunction_certificates():
    for n in (4, 5, 6):
        qrt = measure("rt", n)
        f = go.fixed_points_minus_one(n)
        assert go.eigenfunction_residual(f, qrt, 1 - 2 / n) < 1e-12
        const = go.GroupFunction(n, np.ones(math.factorial(n)))
        assert go.eigenfunction_residual(const, qrt, 1.0) < 1e-15

        qttr = measure("ttr", n)
        g = go.ttr_remark_eigenfunction(n)
        assert go.eigenfunction_residual(g, qttr, 1 - 1 / n) < 1e-12
        assert g.values[0] ** 2 == pytest.approx((n - 1) * (n - 2), rel=1e-12)
        # the remark function is normalized in l2(u)
        assert np.mean(g.values**2) == pytest.approx(1.0, rel=1e-12)


def test_wilson_function_true_eigenpair():
    # The insertion transform does map v_i = 1 - 2i/(n-1) to a multiple of
    # itself, but the exact eigenvalue is (n+1)(n-2)/n^2, not the often
    # quoted 1 - 1/n (off by 2/n^2; both assertions below pin this down).
    for n in (4, 5, 6, 7):
        qri = measure("ri", n)
        f = go.ri_wilson_function(n)
        beta = (n + 1) * (n - 2) / n**2
        assert go.eigenfunction_residual(f, qri, beta) < 1e-12
        assert go.eigenfunction_residual(f, qri, 1 - 1 / n) > 1e-3  # quoted value fails
        assert go.square_gradient_sup(f, qri) <= 32.0


def test_wilson_sum_of_squares_exact():
    # (n-1)^2 f takes integer values; its exact square sum is
    # n! n^2 (n+1)^2 (n-1) / 9, i.e. sum f^2 = n! n^2 (n+1)^2 / (9 (n-1)^3)
    for n in (4, 5, 6, 7):
        sums = go.position_weighted_sums(n)
        total = sum((-n * (n - 1) ** 2 + 4 * s) ** 2 for s in sums)
        assert total * 9 == math.factorial(n) * n * n * (n + 1) ** 2 * (n - 1)
        f = go.ri_wilson_function(n)
        assert float(np.sum(f.values**2)) == pytest.approx(total / (n - 1) ** 4, rel=1e-9)


def test_square_gradient_constant_and_rt():
    q = measure("rt", 5)
    const = go.GroupFunction(5, np.full(120, 3.7))
    assert go.square_gradient_sup(const, q) == 0.0
    f = go.fixed_points_minus_one(5)
    assert go.square_gradient_sup(f, q) > 0.0  # finite, informational


def test_dirichlet_form_and_comparison():
    for n in (4, 5):
        qri = measure("ri", n)
        qrt = measure("rt", n)
        # E_rt <= 4 E_ri certifies the insertion-vs-transposition transfer
        assert go.comparison_gap(qri, qrt, 4.0) >= -1e-10
        # reported only: whether the constant is already tight at desk scale
        gap_35 = go.comparison_gap(qri, qrt, 3.5)
        assert isinstance(gap_35, float)


def test_comparison_transfer_inequality(exact):
    # d2(q_ri^(t), u) <= d2(h_rt at t/4, u) on a grid of t
    times = (1, 2, 4, 8, 16)
    for n in (4, 5, 6):
        left = exact("ri", n, times).distances()
        right = exact("rt", n, [t / 4 for t in times], "continuous").distances()
        for t, ri, rt in zip(times, left, right):
            assert ri <= rt + 1e-10, (n, t)


def test_tv_upper_bounded_by_chi_square(exact):
    for walk in ("rt", "ttr", "ri"):
        laws = exact(walk, 5, (0, 1, 3, 7))
        for tv, chi in zip(laws.distances(tv_of), laws.distances()):
            assert 2 * tv <= chi + 1e-12, walk


def test_resource_guards():
    with pytest.raises(go.ResourceGuardError):
        measure("rt", 9)
    with pytest.raises(go.ResourceGuardError):
        go.oracle_checks(7, 53)
    with pytest.raises(go.ResourceGuardError):
        go.kernel_matrix(measure("rt", 7))


def test_operator_spectrum_odd_class_has_minus_one():
    vals = go.operator_eigenvalues(measure("class:2", 4))
    assert vals[-1] == pytest.approx(-1.0, abs=1e-12)


def test_operator_eigenvalues_rejects_a_non_symmetric_measure():
    # all mass on the 3-cycle x = (0 1 2), whose inverse carries none: q(x) != q(x^-1)
    q = go.GroupDistribution(3, np.zeros(6))
    q.values[go.perm_index((1, 2, 0))] = 1.0
    with pytest.raises(ValueError, match="symmetric measure"):
        go.operator_eigenvalues(q)
    # a symmetric one goes through: both 3-cycles, half each
    q.values[go.perm_index((2, 0, 1))] = q.values[go.perm_index((1, 2, 0))] = 0.5
    assert go.operator_eigenvalues(q)[0] == pytest.approx(1.0)


def _cycle_length_through_0(p):
    length, j = 1, p[0]
    while j != 0:
        length, j = length + 1, p[j]
    return length


#: the reference partition of each walk kind: the top stabiliser's orbits
#: for ttr, the pairs {x, w0 x w0} for ri, the conjugacy classes otherwise
ORBIT_KEYS = {
    "ttr": lambda p: (go.cycle_type_of(p), _cycle_length_through_0(p)),
    "ri": lambda p: min(p, tuple(len(p) - 1 - v for v in reversed(p))),
}


@pytest.mark.parametrize("walk", (*go.ORACLE_WALKS, "class:2,2", "class:3,2", "lazy:2:1/3"))
def test_law_orbits_are_the_orbits_of_the_laws_symmetries(walk):
    spec = WalkSpec.parse(walk)
    key = ORBIT_KEYS.get(spec.kind, go.cycle_type_of)
    for n in range(2, 7):
        if sum(spec.cycles) > n:
            continue
        orbits = go.law_orbits(go.step_law(spec, n), n)
        first = {}
        # the same partition of S_n, numbered by first element
        assert [first.setdefault(key(p), i) for i, p in enumerate(go.all_permutations(n))] == [
            orbits.reps[o] for o in orbits.of], (walk, n)
        assert [orbits.of.count(o) for o in range(len(orbits.sizes))] == list(orbits.sizes)
    # p(6) classes; w0 = (0 5)(1 4)(2 3) has a centraliser of 2^3 3! = 48
    # elements in S_6, so (720 + 48) / 2 reversal pairs
    assert len(orbits.sizes) == {"ttr": 19, "ri": (720 + 48) // 2}.get(spec.kind, 11)


@pytest.mark.parametrize("walk", go.ORACLE_WALKS)
def test_law_orbits_equal_the_closure_under_every_fixing_candidate(walk):
    # a law that S_n's two generators fix is closed under those two alone;
    # the closure under all five candidates that fix the law is the same
    spec = WalkSpec.parse(walk)
    for n in range(2, 7):
        if sum(spec.cycles) > n:
            continue
        law = go.step_law(spec, n)
        perms, index = go._perm_data(n)

        def fixes(h):
            conjugate = go._conjugation(h)
            return all(law.get(index[conjugate(perms[y])]) == w for y, w in law.items())

        candidates = (*go._symmetric_generators(n, 0), *go._symmetric_generators(n, 1),
                      tuple(range(n - 1, -1, -1)))
        assert go.law_orbits(law, n) == go._orbits(n, tuple(filter(fixes, candidates))), (walk, n)


@pytest.mark.parametrize("walk", go.ORACLE_WALKS)
def test_orbit_powers_are_the_exact_convolution_powers(walk):
    # expanded to elements, L^t q^(t) over the orbits is the dense float law;
    # it sums to exactly L^t, and its exact chi-square is the spectral d2^2
    spec = WalkSpec.parse(walk)
    for n in range(2, 7):
        if sum(spec.cycles) > n:
            continue
        law = go.step_law(spec, n)
        orbits = go.law_orbits(law, n)
        powers, L = go.orbit_powers(law, orbits, 12)
        q = go.element_measure(spec, n)
        d2 = l2_curve(spec.blocks(n), range(13), "discrete", 256)
        g = math.factorial(n)
        ref = np.zeros(g)
        ref[0] = 1.0
        for t, f in enumerate(powers):
            den = L**t
            assert sum(size * v for size, v in zip(orbits.sizes, f)) == den, (walk, n, t)
            expanded = np.array([f[o] / den for o in orbits.of])
            assert np.max(np.abs(expanded - ref)) <= 1e-15, (walk, n, t)
            ref = go.convolve(ref, q)
            exact = Fraction(sum(size * (g * v - den) ** 2 for size, v in zip(orbits.sizes, f)),
                             g * den * den)
            spectral = Fraction(d2[t].man ** 2) * Fraction(2) ** (2 * d2[t].exp)
            assert abs(exact - spectral) <= exact * Fraction(2) ** (3 - 256), (walk, n, t)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_orbit_powers_reject_orbits_the_law_is_not_constant_on(n):
    # ttr is not a class function, and ri is not even constant on the top
    # stabiliser's orbits: the check of the law on each orbit catches both
    classes = go._orbits(n, go._symmetric_generators(n, 0))
    top = go._orbits(n, go._symmetric_generators(n, 1))
    for walk, orbits in (("ttr", classes), ("ri", classes), ("ri", top)):
        with pytest.raises(ValueError, match="not constant on the orbits"):
            go.orbit_powers(go.step_law(WalkSpec(walk), n), orbits, 1)


def test_definitional_distances_over_orbits_equal_the_dense_ones():
    # an orbit value stands for each of its elements: sizes of 1 are dense
    law = go.step_law(WalkSpec("ttr"), 5)
    orbits = go.law_orbits(law, 5)
    powers, L = go.orbit_powers(law, orbits, 4)
    dense = [Fraction(powers[4][o], L**4) for o in orbits.of]
    assert chi_square_of(powers[4], orbits.sizes, L**4) == chi_square_of(dense)
    assert tv_of(powers[4], orbits.sizes, L**4) == tv_of(dense)
    # exact and rounded once: sqrt(2) and 1/3 to the nearest float
    assert chi_square_of([3, 1], den=4) == 0.5 and tv_of([3, 1], den=4) == 0.25
    assert chi_square_of([1, 0, 0]) == math.sqrt(2)
    assert tv_of([1, 0, 0]) == 2 / 3
