import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symwalk.characters import (
    char_ratio,
    char_ratio_bound,
    character,
    class_numerator,
    class_size,
    is_even_class,
    m_moment,
    r4_exact,
    support,
)
from symwalk.partitions import (
    bead_moves,
    conjugate,
    dimension,
    enumerate_partitions,
    partitions,
    staircase_partition,
)

# The complete S_4 character table, rows indexed by diagram in
# reverse-lexicographic order, columns by class.  Frozen from the classical
# table (it is pinned by column orthogonality with the class sizes below).
S4_CLASSES = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
S4_CLASS_SIZES = [1, 6, 3, 8, 6]
S4_TABLE = {
    (4,): [1, 1, 1, 1, 1],
    (3, 1): [3, 1, -1, 0, -1],
    (2, 2): [2, 0, 2, -1, 0],
    (2, 1, 1): [3, -1, -1, 0, 1],
    (1, 1, 1, 1): [1, -1, 1, 1, -1],
}


def brute_force_skew_hooks(lam, k):
    """All border strips of size k as (remainder, leg) via subdiagram search."""
    out = set()
    n = sum(lam)
    for mu in partitions(n - k):
        mu_pad = mu + (0,) * (len(lam) - len(mu))
        if len(mu) > len(lam) or any(m > l for m, l in zip(mu_pad, lam)):
            continue
        rows = [i for i in range(len(lam)) if lam[i] - mu_pad[i] > 0]
        if not rows:
            continue
        if rows != list(range(rows[0], rows[-1] + 1)):
            continue  # must be contiguous rows
        ok = True
        for i in range(rows[0], rows[-1]):
            # consecutive rows must overlap in exactly one column boundary
            if lam[i + 1] != mu_pad[i] + 1:
                ok = False
                break
        if ok:
            out.add((mu, rows[-1] - rows[0]))
    return out


def test_cycle_type_helpers():
    assert support((4, 2, 2)) == 8
    assert support((2, 1, 1, 1)) == 2
    assert is_even_class((3, 1, 1))
    assert not is_even_class((4, 1, 1, 1))
    assert class_size((2, 1, 1)) == 6
    assert class_size((4,)) == 6
    assert sum(class_size(a) for a in partitions(7)) == math.factorial(7)


def strips(lam, k):
    """The (remainder, leg length) pairs of ``bead_moves``."""
    return {(mu, crossed) for _, mu, crossed in bead_moves(lam, k)}


def test_bead_moves_examples():
    assert list(bead_moves((2, 2), 2)) == [(1, (1, 1), 1), (2, (2,), 0)]
    assert strips((5,), 5) == {((), 0)}
    assert list(bead_moves((2, 2), 4)) == []  # the full diagram is not a strip
    for k in (0, -1):
        with pytest.raises(ValueError):
            list(bead_moves((2, 2), k))


def test_bead_moves_against_brute_force():
    for n in range(1, 9):
        for lam in partitions(n):
            for k in range(1, n + 1):
                assert strips(lam, k) == brute_force_skew_hooks(lam, k), (lam, k)


def test_character_known_table_s4():
    for lam, row in S4_TABLE.items():
        for alpha, expected in zip(S4_CLASSES, row):
            assert character(lam, alpha) == expected, (lam, alpha)


def test_character_examples():
    for n in (3, 5, 8):
        for alpha in partitions(n):
            assert character((n,), alpha) == 1
    assert character((4, 1), (2, 1, 1, 1)) == 2  # phi - 1 at a transposition
    assert character((2, 2), (2, 2)) == 2


def test_character_identity_is_dimension():
    for n in range(1, 13):
        for lam in partitions(n):
            assert character(lam, (1,) * n) == dimension(lam)


def test_character_degree_mismatch():
    with pytest.raises(ValueError):
        character((3, 1), (2, 1, 1, 1))


def test_orthogonality_and_ratio_range():
    # sum over classes |C| chi_lam chi_mu = n! [lam == mu]
    for n in range(2, 9):
        classes = enumerate_partitions(n)
        sizes = [class_size(a) for a in classes]
        parts = enumerate_partitions(n)
        table = {lam: [character(lam, a) for a in classes] for lam in parts}
        for i, lam in enumerate(parts):
            for mu in parts[i:]:
                dot = sum(s * x * y for s, x, y in zip(sizes, table[lam], table[mu]))
                assert dot == (math.factorial(n) if lam == mu else 0), (lam, mu)
        for lam in parts:
            for a in classes:
                assert abs(char_ratio(lam, a)) <= 1


def test_char_ratio_examples():
    for n in (4, 6, 9):
        assert char_ratio((n,), (3,) + (1,) * (n - 3)) == 1
        assert char_ratio((n - 1, 1), (2,) + (1,) * (n - 2)) == Fraction(n - 3, n - 1)
        # sign character at any odd class is -1
        assert char_ratio((1,) * n, (2,) + (1,) * (n - 2)) == -1
    assert char_ratio((4, 1), (2, 1, 1, 1)) == Fraction(1, 2)


def test_staircase_characters():
    # every hook of the staircase has odd length 2a+1 with leg a, so even
    # strips never exist and k = 4i+1 strips (k at most 2m-1) all carry +1
    for m in (4, 5, 6):
        n = m * (m + 1) // 2
        lam = staircase_partition(m)
        for k in range(2, n + 1):
            ch = character(lam, (k,) + (1,) * (n - k))
            if k % 2 == 0:
                assert ch == 0, (m, k)
            if k > 2 * m - 1:
                assert ch == 0, (m, k)
            elif k % 4 == 1:
                assert ch > 0, (m, k)


def test_class_numerator_matches_murnaghan_nakayama():
    # the content polynomials against MN: (n)_k chi_lambda/d_lambda at a k-cycle
    for n in range(2, 15):
        for k in (2, 3, 4):
            if k > n:
                continue
            cycle = (k,) + (1,) * (n - k)
            for lam in partitions(n):
                assert class_numerator(lam, k) == char_ratio(lam, cycle) * math.perm(n, k), (lam, k)
    assert class_numerator((4, 1), 2) == m_moment((4, 1), 1)
    for lam, k in (((3, 1), 5), ((2,), 3), ((2, 1), 4), ((3, 1), 1)):
        with pytest.raises(ValueError):
            class_numerator(lam, k)


def test_m_moment_examples():
    n = 5
    assert m_moment((n - 1, 1), 1) == (n - 2) * (n - 1) - 2 == 10
    assert m_moment((n - 1, 1), 2) == (n - 2) ** 2 * (n - 1) ** 2 - 4 == 140
    for n in (3, 6, 10):
        assert m_moment((n,), 1) == (n - 1) * n


def test_m_moment_general_shape():
    for n in (6, 9):
        for lam in partitions(n):
            direct = sum(
                (lam[j - 1] - j) ** 2 * (lam[j - 1] - j + 1) ** 2 - j**2 * (j - 1) ** 2
                for j in range(1, len(lam) + 1)
            )
            assert m_moment(lam, 2) == direct


def test_m_moment_dominance_monotonicity():
    from symwalk.partitions import dominates

    for n in range(2, 10):
        parts = enumerate_partitions(n)
        for hi in parts:
            for lo in parts:
                if dominates(hi, lo):
                    for l in (1, 2, 3):
                        assert m_moment(hi, l) >= m_moment(lo, l), (hi, lo, l)


def test_m_moment_upper_bound():
    for n in range(2, 13):
        for lam in partitions(n):
            lam1 = lam[0]
            for l in (1, 2):
                assert m_moment(lam, l) <= n * (lam1 - 1) ** l * lam1 ** (l - 1), (lam, l)


def test_r4_examples():
    assert r4_exact((4, 1)) == 0  # 1 - 4/(n-1) at n = 5
    for n in (6, 9, 12):
        assert r4_exact((n - 1, 1)) == 1 - Fraction(4, n - 1)
        assert r4_exact((n,)) == 1
    with pytest.raises(ValueError):
        r4_exact((2, 1))


def test_r4_matches_murnaghan_nakayama():
    for n in range(4, 13):
        four = (4,) + (1,) * (n - 4)
        for lam in partitions(n):
            assert r4_exact(lam) == char_ratio(lam, four), lam


def test_transposition_moment_identity():
    # the degree-2 analogue of the 4-cycle identity: the normalized
    # character at a transposition is M_{lam,2} / (n(n-1)); this is the
    # independent route that backs the large-n transposition spectra
    for n in list(range(2, 15)) + [24]:
        tau = (2,) + (1,) * (n - 2)
        for lam in partitions(n):
            assert char_ratio(lam, tau) == Fraction(m_moment(lam, 1), n * (n - 1)), lam


def test_char_ratio_bound_transposition():
    for n in range(3, 13):
        tau = (2,) + (1,) * (n - 2)
        for lam in partitions(n):
            r = char_ratio(lam, tau)
            assert r <= char_ratio_bound(lam, "transposition"), lam
            assert r <= Fraction(lam[0] - 1, n - 1), lam  # the all-lambda branch
    assert char_ratio_bound((7,), "transposition") == 1


def test_char_ratio_bound_four_cycle():
    for n in (11, 12):
        for lam in partitions(n):
            assert r4_exact(lam) <= char_ratio_bound(lam, "four_cycle"), lam
    # spot value: n = 12, lam1 = 6 gives (lam1-1)/(n-1) = 5/11, and the
    # absolute ratio obeys it for every diagram with that first row
    for lam in partitions(12):
        if lam[0] == 6:
            assert char_ratio_bound(lam, "four_cycle") == Fraction(5, 11)
            assert abs(r4_exact(lam)) <= Fraction(5, 11), lam
    with pytest.raises(ValueError):
        char_ratio_bound((5, 5), "four_cycle")


def test_conjugate_twist_at_odd_class():
    # chi_{lam'}(odd class) = -chi_lam(odd class)
    for n in (4, 6):
        tau = (2,) + (1,) * (n - 2)
        for lam in partitions(n):
            assert character(conjugate(lam), tau) == -character(lam, tau)


@st.composite
def partition_strategy(draw, max_n=10):
    n = draw(st.integers(min_value=2, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


@given(partition_strategy())
def test_strip_removal_preserves_size(lam):
    n = sum(lam)
    for k in range(1, n + 1):
        for row, mu, crossed in bead_moves(lam, k):
            assert sum(mu) == n - k
            assert 0 <= crossed and row + crossed <= len(lam)
