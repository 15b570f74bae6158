from fractions import Fraction

import pytest

from symwalk import group_oracle as go
from symwalk.characters import class_size
from symwalk.errors import ResourceGuardError
from symwalk import spectra
from symwalk.walks import MAX_SPECTRAL_N, SPECTRAL_CAPS, WalkSpec


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
    # a class walk is its class at n and its holding probability
    for text, cycles, hold in (("rt", (2, 1, 1, 1, 1), Fraction(1, 6)),
                               ("class:3,1", (3, 1, 1, 1), 0),
                               ("lazy:3:0.5", (3, 1, 1, 1), Fraction(1, 2))):
        spec = WalkSpec.parse(text)
        assert (spec.cycle_type(6), spec.hold(6)) == (cycles, hold)
    with pytest.raises(ValueError, match=r"does not fit in S_1$"):
        WalkSpec.parse("rt").check_n(1)


def test_class_measure_caps_n_before_building_the_cycle_type(monkeypatch):
    monkeypatch.setattr(spectra, "spectrum", lambda cycles, hold: (cycles, hold))
    cycles, hold = WalkSpec.parse("rt").blocks(MAX_SPECTRAL_N)
    assert len(cycles) == MAX_SPECTRAL_N - 1 and hold == Fraction(1, MAX_SPECTRAL_N)
    for text in ("rt", "class:3", "lazy:3:1/2"):
        with pytest.raises(ResourceGuardError):
            WalkSpec.parse(text).blocks(MAX_SPECTRAL_N + 1)
    with pytest.raises(ResourceGuardError):  # a 2e9-entry cycle type would never finish
        WalkSpec.parse("class:3").blocks(2 * 10**9)


def test_step_law_of_a_class_walk_is_its_class_measure():
    # the oracle law of a class walk is its class measure: hold on e,
    # (1 - hold)/|C| on each element of C, nothing elsewhere
    for text in ("rt", "class:2,2", "class:4", "lazy:3:1/2", "lazy:3:1/3"):
        spec = WalkSpec.parse(text)
        cycles, hold = spec.cycle_type(4), spec.hold(4)
        got = go.step_law(spec, 4)
        step = (1 - hold) / class_size(cycles)
        for x, p in enumerate(go.all_permutations(4)):
            exact = hold if p == (0, 1, 2, 3) else step if go.cycle_type_of(p) == cycles else 0
            assert got.get(x, 0) == exact, (text, p)
    for walk in ("ttr", "ri"):  # the same check as their blocks
        with pytest.raises(ValueError, match=f"the {walk} walk needs n >= 2, got 1"):
            go.step_law(WalkSpec(walk), 1)


def test_blocks_is_the_spectral_source_of_every_walk():
    for text in ("rt", "class:3", "class:2,2", "lazy:3:1/2"):
        spec = WalkSpec.parse(text)
        assert spec.blocks(6) == spectra.spectrum(spec.cycle_type(6), spec.hold(6))
    assert WalkSpec("ttr").blocks(6) == spectra.ttr_blocks(6)
    assert WalkSpec("ri").blocks(6) == spectra.ri_blocks(6)
    for walk in ("ttr", "ri"):
        with pytest.raises(ValueError, match="needs n >= 2"):
            WalkSpec(walk).blocks(1)
    for text in ("rt", "class:3", "lazy:3:1/2", "ttr", "ri"):
        spec = WalkSpec.parse(text)
        cap = SPECTRAL_CAPS[spec.kind]
        with pytest.raises(ResourceGuardError, match=f"capped at n <= {cap}, got n = {cap + 1}$"):
            spec.blocks(cap + 1)
    assert SPECTRAL_CAPS["ttr"] == 50 and SPECTRAL_CAPS["ri"] == 40


def test_profile_blocks_folds_to_alternating_group():
    # the S_n blocks on S_n; on A_n the fold of an even step, and for a pure
    # odd class in discrete time the fold of q*q followed by the raw S_n blocks
    for text in ("class:3", "lazy:3:1/2", "class:2,2"):
        spec = WalkSpec.parse(text)
        for mode in ("discrete", "continuous"):
            assert spec.profile_blocks(6, "sn", mode) == (("sn", spec.blocks(6)),)
            assert spec.profile_blocks(6, "an", mode) == (
                ("an", spectra.alternating_blocks(spec.blocks(6))),)
    blocks = WalkSpec.parse("class:4").blocks(6)
    squared = spectra.group_blocks((beta * beta, m) for beta, m in blocks)
    assert WalkSpec.parse("class:4").profile_blocks(6, "an", "discrete") == (
        ("an", spectra.alternating_blocks(squared)), ("sn", blocks))
