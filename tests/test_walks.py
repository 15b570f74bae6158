from fractions import Fraction

import pytest

from symwalk import group_oracle as go
from symwalk.characters import class_size
from symwalk.errors import ResourceGuardError
from symwalk import spectra
from symwalk.spectra import ClassMeasure
from symwalk.walks import MAX_RI_N, MAX_SPECTRAL_N, WalkSpec


@pytest.mark.parametrize(
    "text, kind, cycles, eps",
    [
        ("rt", "rt", (), None),
        ("ttr", "ttr", (), None),
        ("ri", "ri", (), None),
        ("class:3", "class", (3,), None),
        ("class:2,2", "class", (2, 2), None),
        ("class:3,1", "class", (3,), None),
        ("class:2,3", "class", (3, 2), None),
        ("lazy:3:1/2", "lazy", (3,), Fraction(1, 2)),
        ("lazy:3:0.5", "lazy", (3,), Fraction(1, 2)),
        ("lazy:5,3:5e-2", "lazy", (5, 3), Fraction(1, 20)),
    ],
)
def test_parse_accepts(text, kind, cycles, eps):
    assert WalkSpec.parse(text) == WalkSpec(kind, cycles, eps)


@pytest.mark.parametrize(
    "text",
    ["", "bogus", "rt:2", "ttr-bound", "class", "class:", "class:3:junk", "class:3,,2",
     "class:0,3", "class:-3", "class:1", "class:1,1", "class: 3", "class:3.0", "lazy:3",
     "lazy:3:1/2:junk", "lazy:3:0", "lazy:3:1", "lazy:3:2", "lazy:3:1/0", "lazy:3:1e400",
     "lazy:3:1e-999999999", "lazy:3:-1/2", "lazy:3:nan", "lazy:1:1/2"],
)
def test_parse_rejects(text):
    with pytest.raises(ValueError):
        WalkSpec.parse(text)


def test_parse_restricted_kinds():
    assert WalkSpec.parse("class:3", kinds=("rt", "class")) == WalkSpec("class", (3,))
    for text in ("ttr", "ri", "ttr-bound"):
        with pytest.raises(ValueError, match=r"is not one of rt \| ttr-bound \| class:<parts>$"):
            WalkSpec.parse(text, kinds=("rt", "ttr-bound", "class"))


def test_cycle_type_pads_and_checks_fit():
    spec = WalkSpec.parse("class:3,2")
    assert spec.cycle_type(7) == (3, 2, 1, 1)
    assert spec.cycle_type(5) == (3, 2)
    with pytest.raises(ValueError):
        spec.cycle_type(4)


def test_str_is_the_canonical_walk_string():
    for text, canonical in (("rt", "rt"), ("ri", "ri"), ("class:2,3,1", "class:3,2"),
                            ("lazy:3,1:0.5", "lazy:3:1/2"), ("lazy:5,3:5e-2", "lazy:5,3:1/20")):
        assert str(WalkSpec.parse(text)) == canonical
        assert WalkSpec.parse(canonical) == WalkSpec.parse(text)


def test_class_measure():
    assert WalkSpec.parse("rt").class_measure(6) == ClassMeasure(
        6, (2, 1, 1, 1, 1), Fraction(1, 6))
    assert WalkSpec.parse("class:3,1").class_measure(6) == ClassMeasure(
        6, (3, 1, 1, 1))
    assert WalkSpec.parse("lazy:3:0.5").class_measure(6) == ClassMeasure(
        6, (3, 1, 1, 1), Fraction(1, 2))
    assert WalkSpec.parse("ttr").class_measure(6) is None
    assert WalkSpec.parse("ri").class_measure(6) is None
    with pytest.raises(ValueError, match=r"does not fit in S_1$"):
        WalkSpec.parse("rt").class_measure(1)


def test_class_measure_caps_n_before_building_the_cycle_type():
    assert WalkSpec.parse("rt").class_measure(MAX_SPECTRAL_N).n == MAX_SPECTRAL_N
    for text in ("rt", "class:3", "lazy:3:1/2"):
        with pytest.raises(ResourceGuardError):
            WalkSpec.parse(text).class_measure(MAX_SPECTRAL_N + 1)
    with pytest.raises(ResourceGuardError):  # a 2e9-entry cycle type would never finish
        WalkSpec.parse("class:3").class_measure(2 * 10**9)


def test_element_measure():
    # the oracle law of a class walk is its class measure: hold on e,
    # (1 - hold)/|C| on each element of C, nothing elsewhere
    for text in ("rt", "class:2,2", "class:4", "lazy:3:1/2", "lazy:3:1/3"):
        q = WalkSpec.parse(text).class_measure(4)
        got = go.element_measure(WalkSpec.parse(text), 4)
        step = (1 - q.hold) / class_size(q.cycles)
        for p, v in zip(go.all_permutations(4), got.values):
            exact = q.hold if p == (0, 1, 2, 3) else step if go.cycle_type_of(p) == q.cycles else 0
            assert v == float(exact), (text, p)


def test_blocks_is_the_spectral_source_of_every_walk():
    for text in ("rt", "class:3", "class:2,2", "lazy:3:1/2"):
        spec = WalkSpec.parse(text)
        assert spec.blocks(6) == spectra.spectrum(spec.class_measure(6))
    assert WalkSpec.parse("class:3").blocks(6, "an") == spectra.spectrum(
        WalkSpec.parse("class:3").class_measure(6), "an")
    assert WalkSpec("ttr").blocks(6) == spectra.ttr_blocks(6)
    assert WalkSpec("ri").blocks(6) == spectra.ri_blocks(6)
    for walk in ("ttr", "ri"):
        with pytest.raises(ValueError, match=f"the {walk} walk steps by both parities"):
            WalkSpec(walk).blocks(6, "an")
        with pytest.raises(ValueError, match="needs n >= 2"):
            WalkSpec(walk).blocks(1)
    for walk, cap in (("ttr", MAX_SPECTRAL_N), ("ri", MAX_RI_N)):
        with pytest.raises(ResourceGuardError, match=f"capped at n <= {cap}, got n = {cap + 1}$"):
            WalkSpec(walk).blocks(cap + 1)
