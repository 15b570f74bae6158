from typing import NamedTuple

import pytest

from symwalk import group_oracle as go
from symwalk.walks import WalkSpec


@pytest.fixture(scope="session")
def rt_spectrum():
    """Random transposition spectra, cached per degree for the whole session."""
    cache = {}

    def get(n: int):
        if n not in cache:
            cache[n] = WalkSpec("rt").blocks(n)
        return cache[n]

    return get


class ExactLaws(NamedTuple):
    """A walk's brute-force laws at some times: per time, exact integer
    values over ``orbits`` and their one denominator."""

    orbits: go.Orbits
    laws: list[tuple[list[int], int]]
    normalized: bool  # False for the truncated Poisson mixtures

    def distances(self, of=go.chi_square_of) -> list[float]:
        """``of`` (``go.chi_square_of`` or ``go.tv_of``) of each law."""
        return [of(values, self.orbits.sizes, den, self.normalized) for values, den in self.laws]


def exact_laws(walk: str, n: int, times, mode: str = "discrete") -> ExactLaws:
    """The one brute-force route of the tests: ``step_law`` -> ``law_orbits``
    -> ``orbit_powers``, mixed with the Poisson weights by ``_mix`` in
    continuous time, as the oracle suite computes it."""
    law = go.step_law(WalkSpec.parse(walk), n)
    orbits = go.law_orbits(law, n)
    if mode == "discrete":
        powers, L = go.orbit_powers(law, orbits, max(times, default=0))
        return ExactLaws(orbits, [(powers[t], L**t) for t in times], True)
    mixes = [go._poisson_weights(t) for t in times]
    powers, L = go.orbit_powers(law, orbits, max(map(len, mixes), default=1) - 1)
    return ExactLaws(orbits, [go._mix(powers, L, weights) for weights in mixes], False)


@pytest.fixture(scope="session")
def exact():
    """``exact_laws``, the brute-force route, for tests and their helpers."""
    return exact_laws
