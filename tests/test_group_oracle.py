import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import symwalk

from symwalk import group_oracle as go
from symwalk.distances import l2_curve
from symwalk.group_oracle import chi_square_of, tv_of
from symwalk.walks import WalkSpec


def measure(walk: str, n: int) -> dict[int, Fraction]:
    return go.step_law(WalkSpec.parse(walk), n)


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


def test_ttr_measure():
    q = measure("ttr", 4)
    perms = go.all_permutations(4)
    expected = {(0, 1, 2, 3), (1, 0, 2, 3), (2, 1, 0, 3), (3, 1, 2, 0)}
    assert {perms[x] for x in q} == expected
    assert all(w == Fraction(1, 4) for w in q.values())


def test_ri_measure():
    q = measure("ri", 4)
    assert q[0] == Fraction(1, 4)  # identity mass 1/n
    assert sum(q.values()) == 1
    # c_{1,3} in 1-based positions is the 3-cycle sending 1->3, 3->2, 2->1
    c = go.insertion_cycle(4, 0, 2)
    assert c == (2, 0, 1, 3)
    assert q[go.perm_index(c)] == Fraction(1, 16)
    # adjacent insertions coincide with transpositions and get 2/n^2
    adj = go.insertion_cycle(4, 1, 2)
    assert go.cycle_type_of(adj) == (2, 1, 1)
    assert q[go.perm_index(adj)] == Fraction(2, 16)


def test_rt_measure_element_level():
    q = measure("rt", 5)
    assert q[0] == Fraction(1, 5)
    tau = (1, 0, 2, 3, 4)
    assert q[go.perm_index(tau)] == Fraction(2, 25)


def test_class_measure_element_level():
    q = measure("class:3", 5)
    assert len(q) == 20 and all(w == Fraction(1, 20) for w in q.values())
    with pytest.raises(ValueError):
        measure("class:6", 5)  # does not fit in S_5


def test_lazy_weights_are_correctly_rounded():
    # hold 1/3 on e and (2/3)/8 = 1/12 on each 3-cycle of S_4, exact in the
    # law and each rounded once in the dense operator, whose row at e is q
    # (mixing a rounded 1/8 with a rounded 2/3 gives 0.08333333333333334)
    q = measure("lazy:3:1/3", 4)
    row = go.kernel_matrix(q, 4)[0]
    for x, p in enumerate(go.all_permutations(4)):
        exact = {(1, 1, 1, 1): Fraction(1, 3), (3, 1): Fraction(1, 12)}.get(go.cycle_type_of(p), 0)
        assert q.get(x, 0) == exact and row[x] == float(exact), p


def test_convolution_power_basics():
    law = go.step_law(WalkSpec("rt"), 4)
    orbits = go.law_orbits(law, 4)
    powers, L = go.orbit_powers(law, orbits, 5)
    # q^(0) is the point mass at e, an orbit of its own; q^(1) is the law
    assert powers[0][orbits.of[0]] == 1 and sum(powers[0]) == 1
    assert all(Fraction(powers[1][o], L) == law.get(x, 0) for x, o in enumerate(orbits.of))
    assert sum(size * v for size, v in zip(orbits.sizes, powers[5])) == L**5


def test_convolve_equals_the_compose_loop():
    # f*q(x) = sum_y f(x y^-1) q(y) in exact rationals, built with compose
    # and invert only, so it shares no translation table with the oracle;
    # convolve gives L (f*q) with L = 4, so six steps give 4^6 q^(6)
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
    dense = [1] + [0] * (len(perms) - 1)
    for _ in range(6):
        dense = go.convolve(dense, measure("ttr", n), n)
    assert [exact[x] * 4**6 for x in perms] == dense


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
        assert go.eigenfunction_residual(f, qrt, n, Fraction(n - 2, n)) == 0
        assert go.eigenfunction_residual([1] * math.factorial(n), qrt, n, 1) == 0

        qttr = measure("ttr", n)
        g = go.ttr_remark_eigenfunction(n)
        assert go.eigenfunction_residual(g, qttr, n, Fraction(n - 1, n)) == 0
        # f = sqrt((n-1)/(n-2)) g has f(e)^2 = (n-1)(n-2) and is normalized
        # in l2(u): the mean of f^2 is 1
        scale = Fraction(n - 1, n - 2)
        assert g[0] ** 2 * scale == (n - 1) * (n - 2)
        assert sum(v * v for v in g) * scale == math.factorial(n)


def test_wilson_function_true_eigenpair():
    # The insertion transform does map v_i = 1 - 2i/(n-1) to a multiple of
    # itself, but the exact eigenvalue is (n+1)(n-2)/n^2, not the often
    # quoted 1 - 1/n (off by 2/n^2; both assertions below pin this down).
    # At the quoted value the residual is 2/n^2 max|f| = 2/n^2 f(e), with
    # f(e) = n(n+1)/(3(n-1)).
    for n in (4, 5, 6, 7):
        qri = measure("ri", n)
        f = go.ri_wilson_function(n)
        assert go.eigenfunction_residual(f, qri, n, Fraction((n + 1) * (n - 2), n**2)) == 0
        quoted = go.eigenfunction_residual(f, qri, n, Fraction(n - 1, n))
        assert quoted == Fraction(2 * (n + 1), 3 * n * (n - 1))  # quoted value fails
        assert go.square_gradient_sup(f, qri, n) <= 32


def test_wilson_sum_of_squares_exact():
    # (n-1)^2 f takes integer values; its exact square sum is
    # n! n^2 (n+1)^2 (n-1) / 9, i.e. sum f^2 = n! n^2 (n+1)^2 / (9 (n-1)^3)
    for n in (4, 5, 6, 7):
        sums = go.position_weighted_sums(n)
        total = sum((-n * (n - 1) ** 2 + 4 * s) ** 2 for s in sums)
        assert total * 9 == math.factorial(n) * n * n * (n + 1) ** 2 * (n - 1)
        f = go.ri_wilson_function(n)
        assert sum(v * v for v in f) == Fraction(total, (n - 1) ** 4)


def test_square_gradient_constant_and_rt():
    q = measure("rt", 5)
    assert go.square_gradient_sup([Fraction(37, 10)] * 120, q, 5) == 0
    f = go.fixed_points_minus_one(5)
    assert go.square_gradient_sup(f, q, 5) > 0  # finite, informational


def test_dirichlet_form_and_comparison():
    for n in (4, 5):
        qri = measure("ri", n)
        qrt = measure("rt", n)
        # E_rt <= 4 E_ri certifies the insertion-vs-transposition transfer
        assert go.comparison_gap(qri, qrt, n, 4.0) >= -1e-10
        # reported only: whether the constant is already tight at desk scale
        gap_35 = go.comparison_gap(qri, qrt, n, 3.5)
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
        go.kernel_matrix(measure("rt", 7), 7)
    with pytest.raises(go.ResourceGuardError):
        go.convolve([1], {0: Fraction(1)}, 9)


def test_perm_index_is_guarded_before_listing_the_group(monkeypatch):
    def listing(n):
        raise AssertionError(f"listed S_{n}")

    monkeypatch.setattr(go, "_perm_data", listing)
    with pytest.raises(go.ResourceGuardError, match="capped at n <= 8, got n = 9"):
        go.perm_index(tuple(range(9)))


def test_exact_references_load_no_numpy():
    # the exact dense references run on Python integers; only the eigensolver
    # references (kernel_matrix, operator_eigenvalues, comparison_gap) load numpy
    src = str(Path(symwalk.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; from fractions import Fraction; from symwalk import group_oracle as go; "
        "from symwalk.walks import WalkSpec; "
        "rt, ttr, ri = (go.step_law(WalkSpec(w), 5) for w in ('rt', 'ttr', 'ri')); "
        "assert go.convolve([1] + [0] * 119, ri, 5) == [25 * ri.get(x, 0) for x in range(120)]; "
        "triples = ((go.fixed_points_minus_one(5), rt, Fraction(3, 5)), "
        "(go.ttr_remark_eigenfunction(5), ttr, Fraction(4, 5)), "
        "(go.ri_wilson_function(5), ri, Fraction(18, 25))); "
        "assert all(go.eigenfunction_residual(f, law, 5, beta) == 0 for f, law, beta in triples); "
        "f = go.ri_wilson_function(5); "
        "assert 0 < go.square_gradient_sup(f, ri, 5) <= 32; "
        "print(sorted(m for m in ('numpy',) if m in sys.modules))"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_operator_spectrum_odd_class_has_minus_one():
    vals = go.operator_eigenvalues(measure("class:2", 4), 4)
    assert vals[-1] == pytest.approx(-1.0, abs=1e-12)


def test_operator_eigenvalues_rejects_a_non_symmetric_measure():
    # all mass on the 3-cycle x = (0 1 2), whose inverse carries none: q(x) != q(x^-1)
    x, inverse = go.perm_index((1, 2, 0)), go.perm_index((2, 0, 1))
    with pytest.raises(ValueError, match="symmetric measure"):
        go.operator_eigenvalues({x: Fraction(1)}, 3)
    # a symmetric one goes through: both 3-cycles, half each
    assert go.operator_eigenvalues({x: Fraction(1, 2), inverse: Fraction(1, 2)}, 3)[0] == (
        pytest.approx(1.0))


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
    # expanded to elements, L^t q^(t) over the orbits is the dense exact
    # power; it sums to exactly L^t, and its exact chi-square is the spectral
    # d2^2
    spec = WalkSpec.parse(walk)
    for n in range(2, 7):
        if sum(spec.cycles) > n:
            continue
        law = go.step_law(spec, n)
        orbits = go.law_orbits(law, n)
        powers, L = go.orbit_powers(law, orbits, 12)
        d2 = l2_curve(spec.blocks(n), range(13), "discrete", 256)
        g = math.factorial(n)
        ref = [1] + [0] * (g - 1)
        for t, f in enumerate(powers):
            den = L**t
            assert sum(size * v for size, v in zip(orbits.sizes, f)) == den, (walk, n, t)
            assert [f[o] for o in orbits.of] == ref, (walk, n, t)
            ref = go.convolve(ref, law, n)
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
