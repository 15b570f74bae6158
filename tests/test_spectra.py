import math
from fractions import Fraction

import numpy as np
import pytest

from symwalk import group_oracle as go
from symwalk.characters import class_size, one_cycle_type
from symwalk.partitions import dimension, partitions
from symwalk.spectra import (
    ClassMeasure,
    alternating_blocks,
    diagram_eigenvalues,
    group_blocks,
    lazy_class_measure,
    random_transposition_measure,
    spectrum,
    transpose_top_sigma,
    uniform_class_measure,
    walk_eigenvalue,
)


def test_rt_measure_weights():
    q = random_transposition_measure(3)
    weights = dict(q.atoms)
    assert weights[(1, 1, 1)] == Fraction(1, 3)
    assert weights[(2, 1)] == Fraction(2, 3)
    for n in range(2, 51):
        q = random_transposition_measure(n)
        assert sum(w for _, w in q.atoms) == 1
    # per-element transposition probability 2/n^2 at n = 5
    q5 = random_transposition_measure(5)
    class_weight = dict(q5.atoms)[(2, 1, 1, 1)]
    assert class_weight / class_size((2, 1, 1, 1)) == Fraction(2, 25)


def test_uniform_class_measure():
    q = uniform_class_measure((4,) + (1,) * 7)
    assert q.n == 11 and q.atoms == (((4,) + (1,) * 7, Fraction(1)),)
    assert not q.even_support  # 4-cycles are odd
    assert uniform_class_measure((3, 1, 1)).even_support
    with pytest.raises(ValueError):
        uniform_class_measure((1, 1, 1))


def test_lazy_class_measure():
    q = lazy_class_measure((3, 1, 1), Fraction(1, 2))
    assert dict(q.atoms)[(1, 1, 1, 1, 1)] == Fraction(1, 2)
    for eps in (Fraction(0), Fraction(1), Fraction(3, 2)):
        with pytest.raises(ValueError):
            lazy_class_measure((3, 1, 1), eps)


def test_measure_weight_validation():
    with pytest.raises(ValueError):
        ClassMeasure(3, (((2, 1), Fraction(1, 2)),))  # does not sum to 1
    with pytest.raises(ValueError):
        ClassMeasure(3, (((2, 1, 1), Fraction(1)),))  # degree mismatch


def test_walk_eigenvalue_examples():
    assert walk_eigenvalue(random_transposition_measure(10), (9, 1)) == Fraction(4, 5)
    for n in (4, 7, 10):
        q = random_transposition_measure(n)
        assert walk_eigenvalue(q, (n,)) == 1
        assert walk_eigenvalue(q, (n - 1, 1)) == 1 - Fraction(2, n)
        assert walk_eigenvalue(q, (1,) * n) == -Fraction(n - 2, n)
    with pytest.raises(ValueError):
        walk_eigenvalue(random_transposition_measure(5), (3, 1))


def test_lazy_linearity():
    for n in range(3, 11):
        cls = one_cycle_type(n, 3)
        base = uniform_class_measure(cls)
        for eps in (Fraction(1, 3), Fraction(1, 2)):
            lazy = lazy_class_measure(cls, eps)
            for lam in partitions(n):
                assert walk_eigenvalue(lazy, lam) == eps + (1 - eps) * walk_eigenvalue(base, lam)


def test_spectrum_sn():
    rows = list(diagram_eigenvalues(random_transposition_measure(4)))
    assert sorted(int(m) for _, _, m in rows) == [1, 1, 4, 9, 9]
    for n in range(2, 13):
        rows = list(diagram_eigenvalues(random_transposition_measure(n)))
        assert sum(m for _, _, m in rows) == math.factorial(n)
        assert all(abs(beta) <= 1 for _, beta, _ in rows)
        ones = [lam for lam, beta, _ in rows if beta == 1]
        assert len(ones) == 1 and ones[0] == (n,)


def test_spectrum_an():
    q = uniform_class_measure((3, 1, 1))
    blocks = spectrum(q, "an").blocks
    assert sum(m for _, m in blocks) == 59
    assert all(type(m) is int and m > 0 for _, m in blocks)
    with pytest.raises(ValueError):
        spectrum(uniform_class_measure((2, 1, 1)), "an")  # odd class
    with pytest.raises(ValueError):
        spectrum(random_transposition_measure(4), "an")


def test_odd_class_periodicity_witness():
    for n in (4, 6):
        rows = diagram_eigenvalues(uniform_class_measure((2,) + (1,) * (n - 2)))
        at_sign = [beta for lam, beta, _ in rows if lam == (1,) * n]
        assert at_sign[0] == -1


def mn_blocks(q, group):
    """The grouped spectrum from the Murnaghan-Nakayama rows."""
    blocks = group_blocks((beta, m) for lam, beta, m in diagram_eigenvalues(q) if lam != (q.n,))
    return alternating_blocks(blocks) if group == "an" else blocks


def test_spectrum_blocks_equal_murnaghan_nakayama_blocks():
    # content-numerator keys (rt, short cycles, lazy) and the MN fallback
    # (class:2,2 and class:5) give the MN blocks in value and order
    for n in range(2, 19):
        walks = [random_transposition_measure(n)]
        walks += [uniform_class_measure(one_cycle_type(n, k)) for k in (2, 3, 4) if k <= n]
        walks += [lazy_class_measure(one_cycle_type(n, k), eps)
                  for k, eps in ((3, Fraction(1, 2)), (4, Fraction(1, 3))) if k <= n]
        if n in (4, 9, 14):
            walks.append(uniform_class_measure((2, 2) + (1,) * (n - 4)))
        if n in (5, 9, 14):
            walks.append(uniform_class_measure(one_cycle_type(n, 5)))
        for q in walks:
            for group in ("sn", "an") if q.even_support else ("sn",):
                blocks = spectrum(q, group).blocks
                assert blocks == mn_blocks(q, group), (q.name, n, group)
                assert all(type(beta) is Fraction and type(m) is int for beta, m in blocks)


def count_top_eigenvalues(q, group="sn"):
    """Multiplicity of the eigenvalue 1, the trivial block included."""
    return 1 + sum(m for beta, m in spectrum(q, group).blocks if beta == 1)


def test_unique_top_eigenvalue_for_generating_classes():
    # odd classes generate S_n, so the S_n spectrum has a single beta = 1;
    # even classes generate A_n, whose spectrum merges sign into trivial
    for n in range(5, 9):
        assert count_top_eigenvalues(uniform_class_measure((2,) + (1,) * (n - 2))) == 1
        assert count_top_eigenvalues(uniform_class_measure((3,) + (1,) * (n - 3)), "an") == 1
        assert count_top_eigenvalues(random_transposition_measure(n)) == 1


def expanded_eigenvalues(spec):
    """Every eigenvalue of the walk operator, the trivial 1 included, descending."""
    expanded = [1.0]
    for beta, m in spec.blocks:
        expanded.extend([float(beta)] * m)
    return np.array(sorted(expanded, reverse=True))


def test_spectrum_matches_brute_force_operator(rt_spectrum):
    for n in range(2, 7):
        expanded = expanded_eigenvalues(rt_spectrum(n))
        brute = go.operator_eigenvalues(go.element_measure("rt", n))
        assert np.max(np.abs(expanded - brute)) < 1e-9


def test_spectrum_matches_brute_force_operator_n7():
    # 5040 x 5040 dense eigendecomposition, the largest direct cross-check
    expanded = expanded_eigenvalues(spectrum(random_transposition_measure(7)))
    q = go.element_measure("rt", 7)  # build the dense kernel past the size guard
    size = math.factorial(7)
    Km = np.zeros((size, size))
    rows = np.arange(size)
    for table, w in go._support_maps(q, inverse=False):
        Km[rows, table] += float(w)
    brute = np.linalg.eigvalsh((Km + Km.T) / 2.0)[::-1]
    assert np.max(np.abs(expanded - brute)) < 1e-9


def test_transpose_top_sigma():
    d = transpose_top_sigma((5, 4, 2, 1))
    assert d.sigma == (4, 2, -1, -3)
    assert d.alpha1 == Fraction(5, 12)
    for n in (5, 9):
        top = transpose_top_sigma((n - 1, 1))
        assert top.sigma == (n - 2, -1)
        assert top.alpha1 == Fraction(n - 1, n)
        triv = transpose_top_sigma((n,))
        assert triv.sigma == (n - 1,) and triv.alpha1 == 1
