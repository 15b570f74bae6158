import math
from fractions import Fraction

import pytest

from symwalk import characters
from symwalk import partitions as partition_module
from symwalk import group_oracle as go
from symwalk.characters import class_size, is_even_class
from symwalk.partitions import dimension, partitions
from symwalk.spectra import (
    alternating_blocks,
    diagram_eigenvalues,
    group_blocks,
    ri_blocks,
    spectrum,
    ttr_blocks,
    walk_eigenvalue,
)
from symwalk.walks import WalkSpec


def measure(walk: str, n: int) -> tuple:
    """A class walk at n: its class (fixed points included) and its hold."""
    spec = WalkSpec.parse(walk)
    return spec.cycle_type(n), spec.hold(n)


def test_rt_measure_weights():
    assert measure("rt", 3) == ((2, 1), Fraction(1, 3))
    for n in range(2, 51):
        assert measure("rt", n) == ((2,) + (1,) * (n - 2), Fraction(1, n))
    # per-element transposition probability 2/n^2 at n = 5
    cycles, hold = measure("rt", 5)
    assert (1 - hold) / class_size(cycles) == Fraction(2, 25)


def test_uniform_class_measure():
    cycles, hold = measure("class:1,1,1,1,1,1,1,4", 11)
    assert (sum(cycles), cycles, hold) == (11, (4,) + (1,) * 7, 0)
    assert not is_even_class(cycles)  # 4-cycles are odd
    assert is_even_class(measure("class:3", 5)[0])
    with pytest.raises(ValueError):
        measure("class:1,1,1", 3)


def test_lazy_class_measure():
    cycles, hold = measure("lazy:3:1/2", 5)
    assert (sum(cycles), cycles, hold) == (5, (3, 1, 1), Fraction(1, 2))
    assert is_even_class(cycles)  # holding is the even identity
    for eps in ("0", "1", "3/2"):
        with pytest.raises(ValueError):
            measure(f"lazy:3:{eps}", 5)


def test_measure_weight_validation():
    # the walk model checks a class walk's weights once: a hold outside
    # (0, 1), the identity class and a class that does not fit are refused
    for text in ("lazy:2:1", "lazy:2:-1/2", "class:1,1,1"):
        with pytest.raises(ValueError):
            WalkSpec.parse(text)
    with pytest.raises(ValueError, match="does not fit in S_3"):
        measure("class:2,2", 3)
    assert measure("lazy:2:1/2", 3) == ((2, 1), Fraction(1, 2))


def test_walk_eigenvalue_examples():
    assert walk_eigenvalue((9, 1), *measure("rt", 10)) == Fraction(4, 5)
    for n in (4, 7, 10):
        q = measure("rt", n)
        assert walk_eigenvalue((n,), *q) == 1
        assert walk_eigenvalue((n - 1, 1), *q) == 1 - Fraction(2, n)
        assert walk_eigenvalue((1,) * n, *q) == -Fraction(n - 2, n)
    with pytest.raises(ValueError):
        walk_eigenvalue((3, 1), *measure("rt", 5))


def test_lazy_linearity():
    for n in range(3, 11):
        base = measure("class:3", n)
        for eps in (Fraction(1, 3), Fraction(1, 2)):
            lazy = measure(f"lazy:3:{eps}", n)
            for lam in partitions(n):
                assert walk_eigenvalue(lam, *lazy) == eps + (1 - eps) * walk_eigenvalue(lam, *base)


def test_spectrum_sn():
    rows = list(diagram_eigenvalues(*measure("rt", 4)))
    assert sorted(int(m) for _, _, m in rows) == [1, 1, 4, 9, 9]
    for n in range(2, 13):
        rows = list(diagram_eigenvalues(*measure("rt", n)))
        assert sum(m for _, _, m in rows) == math.factorial(n)
        assert all(abs(beta) <= 1 for _, beta, _ in rows)
        ones = [lam for lam, beta, _ in rows if beta == 1]
        assert len(ones) == 1 and ones[0] == (n,)


def test_spectrum_an():
    blocks = alternating_blocks(spectrum(*measure("class:3", 5)))
    assert sum(m for _, m in blocks) == 59
    assert all(type(m) is int and m > 0 for _, m in blocks)
    assert WalkSpec.parse("class:3").profile_blocks(5, "an", "continuous") == (("an", blocks),)
    with pytest.raises(ValueError):
        WalkSpec.parse("class:2").profile_blocks(4, "an", "continuous")  # odd class
    with pytest.raises(ValueError):
        WalkSpec.parse("rt").profile_blocks(4, "an", "discrete")


def test_odd_class_periodicity_witness():
    for n in (4, 6):
        rows = diagram_eigenvalues(*measure("class:2", n))
        at_sign = [beta for lam, beta, _ in rows if lam == (1,) * n]
        assert at_sign[0] == -1


def mn_blocks(q, group):
    """The grouped spectrum from the Murnaghan-Nakayama rows."""
    n = sum(q[0])
    blocks = group_blocks((beta, m) for lam, beta, m in diagram_eigenvalues(*q) if lam != (n,))
    return alternating_blocks(blocks) if group == "an" else blocks


def test_spectrum_blocks_equal_murnaghan_nakayama_blocks():
    # content-numerator keys (rt, short cycles, lazy) and the MN fallback
    # (class:2,2 and class:5, holding or not) give the MN blocks in value and order
    for n in range(2, 19):
        walks = ["rt"] + [f"class:{k}" for k in (2, 3, 4) if k <= n]
        walks += [f"lazy:{k}:{eps}" for k, eps in ((3, "1/2"), (4, "1/3")) if k <= n]
        if n in (4, 9, 14):
            walks += ["class:2,2", "lazy:2,2:1/3"]
        if n in (5, 9, 14):
            walks += ["class:5", "lazy:5:1/2"]
        for walk in walks:
            q = measure(walk, n)
            blocks = spectrum(*q)
            assert blocks == mn_blocks(q, "sn"), (walk, n)
            assert all(type(beta) is Fraction and type(m) is int for beta, m in blocks)
            if is_even_class(q[0]):
                assert WalkSpec.parse(walk).profile_blocks(n, "an", "discrete") == (
                    ("an", mn_blocks(q, "an")),), (walk, n)


def assert_build_keeps_module_tables(module):
    """A class:2,2 build, which runs the Murnaghan-Nakayama recursion,
    leaves every module-level dict and function cache of ``module`` the same
    size.  Caches are emptied first, so an earlier build cannot hide growth."""
    caches = [value for value in vars(module).values() if hasattr(value, "cache_info")]
    for cache in caches:
        cache.cache_clear()

    def sizes():
        return ({name: len(value) for name, value in vars(module).items()
                 if isinstance(value, dict) and not name.startswith("__")},
                [cache.cache_info().currsize for cache in caches])

    before = sizes()
    spectrum(*measure("class:2,2", 17))
    assert sizes() == before


def test_spectrum_build_leaves_module_dicts_unchanged():
    # the Murnaghan-Nakayama memo lives and dies with one build
    assert_build_keeps_module_tables(characters)


def test_spectrum_build_leaves_partition_tables_unchanged():
    # the MN short circuit keeps its dimensions in the build's memo too
    assert_build_keeps_module_tables(partition_module)


def count_top_eigenvalues(q, group="sn"):
    """Multiplicity of the eigenvalue 1, the trivial block included."""
    blocks = spectrum(*q)
    if group == "an":
        blocks = alternating_blocks(blocks)
    return 1 + sum(m for beta, m in blocks if beta == 1)


def test_unique_top_eigenvalue_for_generating_classes():
    # odd classes generate S_n, so the S_n spectrum has a single beta = 1;
    # even classes generate A_n, whose spectrum merges sign into trivial
    for n in range(5, 9):
        assert count_top_eigenvalues(measure("class:2", n)) == 1
        assert count_top_eigenvalues(measure("class:3", n), "an") == 1
        assert count_top_eigenvalues(measure("rt", n)) == 1


def test_spectrum_matches_brute_force_operator(rt_spectrum):
    for n in range(2, 7):
        assert go.certify_blocks(go.step_law(WalkSpec("rt"), n), n, rt_spectrum(n)), n


def test_spectrum_matches_brute_force_operator_n7():
    # the largest direct cross-check, one past the oracle suite's size cap
    assert go.certify_blocks(go.step_law(WalkSpec("rt"), 7), 7, spectrum(*measure("rt", 7)))


@pytest.mark.parametrize("walk", (*go.ORACLE_WALKS, "class:2", "class:3,2", "class:2,2",
                                  "lazy:2:1/3"))
def test_walk_blocks_are_certified(walk):
    # the blocks are the whole spectrum of the exact step law's convolution,
    # eigenvalues and multiplicities, certified from the orbit powers
    spec = WalkSpec.parse(walk)
    for n in range(2, 8):
        if sum(spec.cycles) <= n:
            assert go.certify_blocks(go.step_law(spec, n), n, spec.blocks(n)), (walk, n)


EXACT_SOURCES = {"ttr": ttr_blocks, "ri": ri_blocks}


#: n! q^(2)(e), the return probability in two steps times the group order:
#: ttr returns by the identity twice or one transposition twice; ri by any
#: pair that undoes the first move
SECOND_MOMENTS = {
    "ttr": lambda n: math.factorial(n - 1),
    "ri": lambda n: math.factorial(n) * (Fraction(1, n**2) + Fraction(n * n + n - 2, n**4)),
}


@pytest.mark.parametrize("walk", sorted(EXACT_SOURCES))
def test_ttr_ri_blocks_are_grouped_and_sum_to_the_group(walk):
    for n in range(2, 17):
        blocks = EXACT_SOURCES[walk](n)
        betas = [beta for beta, _ in blocks]
        assert len(set(betas)) == len(betas) and all(-1 <= beta < 1 for beta in betas)
        assert all(isinstance(m, int) and m > 0 for _, m in blocks)
        assert sum(m for _, m in blocks) == math.factorial(n) - 1, (walk, n)
        # trace moments n! q^(k)(e) - 1 past the trivial block: both walks
        # hold with probability 1/n
        assert sum(m * beta for beta, m in blocks) == math.factorial(n - 1) - 1, (walk, n)
        assert sum(m * beta**2 for beta, m in blocks) == SECOND_MOMENTS[walk](n) - 1, (walk, n)


def test_ttr_top_eigenvalue():
    # lambda = (n-1, 1) loses the box of content n - 2
    for n in range(3, 17):
        assert max(beta for beta, _ in ttr_blocks(n)) == 1 - Fraction(1, n)


def test_ri_top_eigenvalue_and_derangement_kernel():
    # the true second eigenvalue that criterion 08 reports, for n >= 4
    for n in range(4, 17):
        assert max(beta for beta, _ in ri_blocks(n)) == Fraction((n + 1) * (n - 2), n * n)
    derangements = [1, 0]
    for n in range(2, 13):
        derangements.append((n - 1) * (derangements[-1] + derangements[-2]))
        assert dict(ri_blocks(n))[Fraction(0)] == derangements[n], n
