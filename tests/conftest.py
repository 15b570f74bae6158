import pytest

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
