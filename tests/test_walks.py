from fractions import Fraction

import numpy as np
import pytest

from symwalk import group_oracle as go
from symwalk.spectra import lazy_class_measure, random_transposition_measure, uniform_class_measure
from symwalk.walks import WalkSpec


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


def test_class_measure():
    assert WalkSpec.parse("rt").class_measure(6) == random_transposition_measure(6)
    assert WalkSpec.parse("class:3,1").class_measure(6) == uniform_class_measure((3, 1, 1, 1))
    assert WalkSpec.parse("lazy:3:0.5").class_measure(6) == lazy_class_measure(
        (3, 1, 1, 1), Fraction(1, 2)
    )
    assert WalkSpec.parse("ttr").class_measure(6) is None
    assert WalkSpec.parse("ri").class_measure(6) is None


def test_element_measure():
    for text in ("rt", "ttr", "ri"):
        got = WalkSpec.parse(text).element_measure(4)
        assert np.array_equal(got.values, go.element_measure(text, 4).values)
    got = WalkSpec.parse("lazy:3:1/3").element_measure(5)
    want = go.lazy_mix(go.element_measure((3, 1, 1), 5), Fraction(1, 3))
    assert np.array_equal(got.values, want.values)
