"""Closed forms shared by the kernel and steady-residual tests, a guard
against grid-sized allocations, and the Hypothesis profile of the suite."""

import numpy as np
import pytest
from hypothesis import settings

from randloc import udist

# Every run draws the same examples, so a tier-1 run is reproducible; each
# test keeps its own max_examples.
settings.register_profile("randloc", derandomize=True, deadline=None)
settings.load_profile("randloc")


def _bessel_k(nu, x):
    # K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt; the trapezoid rule
    # converges spectrally on this even, rapidly decaying integrand
    t = np.linspace(0.0, 8.0, 4001)
    w = np.full(t.size, t[1])
    w[0] = w[-1] = 0.5 * t[1]
    return np.exp(-np.multiply.outer(x, np.cosh(t))) @ (w * np.cosh(nu * t))


@pytest.fixture
def exp_pair_density():
    """Density of combine(X, Y) for independent X, Y ~ e^-u on [0, inf):
    4u e^-2u (K_0(2u) + K_1(2u)), which tends to 2 as u -> 0."""

    def density(u):
        u = np.asarray(u, dtype=float)
        z = 2.0 * np.maximum(u, 1e-300)
        with np.errstate(over="ignore"):
            out = 4.0 * u * np.exp(-z) * (_bessel_k(0, z) + _bessel_k(1, z))
        return np.where(u > 0.0, out, 2.0)

    return density


@pytest.fixture
def no_grid_beyond_uint16(monkeypatch):
    """Fails the test as soon as the node or weight arrays of a grid of more
    than 65536 nodes are built, before anything is allocated."""
    build = udist._grid_tables

    def guarded(u_max, n_bins):
        if n_bins + 1 > 1 << 16:
            pytest.fail(f"the arrays of a grid of {n_bins + 1} nodes were built")
        return build(u_max, n_bins)

    monkeypatch.setattr(udist, "_grid_tables", guarded)
