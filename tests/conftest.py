import pytest
from hypothesis import settings

from sliphop import DEFAULT_PARAMS, SlipParams

# No deadline: examples run whole simulator hops, and the CPU speed of
# the reference machine swings by up to 1.6x, so an example's time says
# nothing about the code under test.
settings.register_profile("sliphop", deadline=None, max_examples=60)
settings.load_profile("sliphop")


@pytest.fixture(scope="session")
def params() -> SlipParams:
    """Reference hopper parameters (mass 3.3 kg, 4000 N/m, 20 Ns/m, 0.2 m)."""
    return DEFAULT_PARAMS


@pytest.fixture(scope="session")
def undamped_params() -> SlipParams:
    return SlipParams(m=3.3, k=4000.0, b=0.0, r0=0.2)
