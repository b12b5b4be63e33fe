import numpy as np
import pytest

from attraos import chaos
from attraos.seeding import derive_seed


@pytest.fixture(scope="session")
def lorenz63_x():
    """x-coordinate of a settled Lorenz63 run, dt=0.01, 30000 samples."""
    states = chaos.simulate_lorenz63(chaos.Lorenz63Params(), [1.0, 1.0, 1.0], 0.01, 31000)
    return states[1001:, 0]


@pytest.fixture(scope="session")
def lorenz96_3d():
    """Observed 3-channel series from a 40-dimensional Lorenz96 run."""
    p = chaos.Lorenz96Params(forcing_f=8.0, dim=40)
    states = chaos.simulate_lorenz96(p, chaos.default_lorenz96_x0(p), 0.01, 31000)
    states = chaos.drop_transient(states, 1000)
    omap = chaos.ObservationMap.random(3, 40, derive_seed(42, 1))
    return chaos.observe(states, omap)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def overflowing():
    """A finite 3000-sample series whose spread overflows the float range."""
    t = np.arange(3000)
    return 1.5e308 * np.sin(0.05 * t) * np.cos(0.0031 * t)


@pytest.fixture(scope="session")
def sine_with_nan():
    """A 3000-sample sine with one NaN."""
    x = np.sin(0.05 * np.arange(3000))
    x[1000] = np.nan
    return x
