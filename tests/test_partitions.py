import math
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from symwalk.partitions import (
    beta_dimension,
    box_dim_lower_bound,
    check_partition,
    conjugate,
    dim_square_sum_bound,
    dim_square_sum_exact,
    dimension,
    dominates,
    enumerate_partitions,
    factorials,
    hook_lengths,
    near_square_partition,
    partitions,
    staircase_partition,
)


@st.composite
def partition_strategy(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    k = draw(st.integers(min_value=1, max_value=n))
    bins = draw(st.lists(st.integers(min_value=0, max_value=k - 1), min_size=n, max_size=n))
    return tuple(sorted(Counter(bins).values(), reverse=True))


def euler_partition_count(n: int) -> int:
    """Independent oracle: pentagonal-number recurrence for p(n)."""
    p = [1] + [0] * n
    for m in range(1, n + 1):
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            g2 = k * (3 * k + 1) // 2
            if g1 > m and g2 > m:
                break
            sign = 1 if k % 2 else -1
            if g1 <= m:
                p[m] += sign * p[m - g1]
            if g2 <= m:
                p[m] += sign * p[m - g2]
            k += 1
    return p[n]


def test_enumeration_order_and_counts():
    assert enumerate_partitions(0) == [()]
    assert enumerate_partitions(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert len(enumerate_partitions(10)) == 42
    for n in range(13):
        parts = enumerate_partitions(n)
        assert len(parts) == euler_partition_count(n)
        assert len(set(parts)) == len(parts)
        assert all(sum(p) == n for p in parts)
        # reverse-lexicographic: strictly decreasing as tuples
        assert all(parts[i] > parts[i + 1] for i in range(len(parts) - 1))


def test_check_partition_rejects_bad_shapes():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_conjugate_examples():
    assert conjugate((5, 4, 2, 1)) == (4, 3, 2, 2, 1)
    assert conjugate((6,)) == (1,) * 6
    assert conjugate(()) == ()


@given(partition_strategy())
def test_conjugate_involution(lam):
    assert conjugate(conjugate(lam)) == lam
    assert sum(conjugate(lam)) == sum(lam)


def test_hook_cells_definition():
    # direct h = arm + leg + 1 against an independent cell count
    lam = (4, 2, 1)
    cells = hook_lengths(lam)
    expected = {}
    boxes = {(i, j) for i, row in enumerate(lam, 1) for j in range(1, row + 1)}
    for (i, j) in boxes:
        arm = sum(1 for (a, b) in boxes if a == i and b > j)
        leg = sum(1 for (a, b) in boxes if b == j and a > i)
        expected[(i, j)] = arm + leg + 1
    assert cells == expected


def test_dimension_examples():
    assert dimension((7,)) == 1
    assert dimension((4, 1)) == 4  # d_(n-1,1) = n-1
    assert dimension((2, 2)) == 2
    assert dimension(()) == 1


def test_beta_number_dimension_matches_hook_formula():
    for n in range(21):
        fact = factorials(n)
        for lam in partitions(n):
            by_hooks = math.factorial(n) // math.prod(hook_lengths(lam).values())
            assert dimension(lam) == beta_dimension(lam, fact) == by_hooks, lam


def test_dimension_square_sum_is_group_order():
    for n in range(1, 13):
        assert sum(dimension(p) ** 2 for p in partitions(n)) == math.factorial(n)


def test_dimension_conjugation_invariant():
    for n in range(1, 13):
        for lam in partitions(n):
            assert dimension(lam) == dimension(conjugate(lam))


def test_dim_square_sum_bound_examples():
    assert dim_square_sum_bound(5, 4) == 25
    assert dim_square_sum_exact(5, 4) == 16
    assert dim_square_sum_bound(5, 5) == 1
    assert dim_square_sum_exact(5, 5) == 1
    assert dim_square_sum_bound(6, 3) == math.comb(6, 3) ** 2 * 6 == 2400
    assert dim_square_sum_exact(6, 3) <= 2400


def test_dim_square_sum_bound_sweep():
    for n in range(1, 31):
        for l in range(1, n + 1):
            assert dim_square_sum_exact(n, l) <= dim_square_sum_bound(n, l), (n, l)


def test_box_dim_lower_bound_examples():
    n = 8
    assert box_dim_lower_bound((n,), 1, n) == pytest.approx(math.exp(-n), rel=1e-12)
    val = float(box_dim_lower_bound((2, 2), 2, 2))
    assert val == pytest.approx((4 / (3 * math.e)) ** 4, rel=1e-12)
    assert val <= dimension((2, 2))
    with pytest.raises(ValueError):
        box_dim_lower_bound((3, 1), 2, 2)


def test_box_dim_lower_bound_below_dimension():
    for n in range(1, 21):
        for lam in partitions(n):
            bound = box_dim_lower_bound(lam, len(lam), lam[0])
            assert float(bound) <= dimension(lam), lam


def test_near_square_partition():
    assert near_square_partition(10) == (4, 4, 2)
    assert near_square_partition(9) == (3, 3, 3)
    assert near_square_partition(16) == (4, 4, 4, 4)
    for n in range(1, 41):
        lam = near_square_partition(n)
        k = math.isqrt(n) + (0 if math.isqrt(n) ** 2 == n else 1)
        assert sum(lam) == n
        assert len(lam) <= k and lam[0] <= k
        assert dimension(lam) >= (math.sqrt(n) / (4 * math.e)) ** n


def test_staircase_partition():
    assert staircase_partition(4) == (4, 3, 2, 1)
    assert staircase_partition(1) == (1,)
    assert staircase_partition(5) == (5, 4, 3, 2, 1)
    assert sum(staircase_partition(5)) == 15


def box_move_closure(lam):
    """All partitions reachable by repeatedly moving one box up-and-right."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        cur = frontier.pop()
        parts = list(cur)
        for src in range(len(parts)):
            # a box can leave row src if the result is still a partition
            for dst in range(src):
                cand = parts.copy()
                cand[src] -= 1
                cand[dst] += 1
                cand = tuple(sorted((x for x in cand if x > 0), reverse=True))
                if sum(cand) == sum(lam) and cand not in seen:
                    seen.add(cand)
                    frontier.append(cand)
    return seen


def test_dominates_examples():
    assert dominates((4,), (2, 1, 1))
    assert dominates((3, 1), (2, 2))
    assert not dominates((2, 2), (3, 1))
    with pytest.raises(ValueError):
        dominates((2, 1), (2, 2))


def test_dominates_matches_box_move_search():
    for n in range(1, 9):
        all_parts = enumerate_partitions(n)
        for lo in all_parts:
            reachable = box_move_closure(lo)
            for hi in all_parts:
                assert dominates(hi, lo) == (hi in reachable), (hi, lo)


@given(partition_strategy())
def test_dominates_reflexive_and_topped(lam):
    n = sum(lam)
    assert dominates(lam, lam)
    assert dominates((n,), lam)
    assert dominates(lam, (1,) * n)
