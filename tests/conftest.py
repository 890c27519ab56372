"""Shared fixtures.

The two reference propagations (kicked model over four periods, inverted
parabola over twice its packet-spreading time) are session scoped so the
acceptance tests and the module tests share one certified run each.
"""
import math

import numpy as np
import pytest

import semiwkb as sw

import golden

KHO_K = 2.0
KHO_HBAR = 8e-4
KHO_GRID = sw.GridSpec(-4.0, 4.0, 8192)
KHO_TIMES = (1.0, 2.0, 3.0, 4.0)

BARRIER_HBAR = 0.05
BARRIER_GRID = sw.GridSpec(-24.0, 32.0, 8192)
BARRIER_CENTER = (0.2, 0.2)  # on the unstable line p = q


def pytest_runtest_logreport(report):
    """Gather the values behind each acceptance line, which test_acceptance.py
    records as the user property "acceptance" (test_golden.py pins them)."""
    if report.when == "call":
        for name, values in report.user_properties:
            if name == "acceptance":
                golden.ACCEPTANCE.update(values)


def pytest_collection_modifyitems(items):
    """Compare the acceptance values last, once every acceptance line has run."""
    items.sort(key=lambda item: item.name == "test_acceptance_values_reproduce_the_manifest")


@pytest.fixture(scope="session")
def kho_model():
    return sw.KickedHarmonic(KHO_K)


@pytest.fixture(scope="session")
def kho_reference(kho_model):
    """Certified reference for the kicked model, sampled each period."""
    psi0 = sw.initial_coherent_state(KHO_GRID, KHO_HBAR, (0.0, 0.0))
    res = sw.exact_state(kho_model, psi0, 4.0, sample_times=KHO_TIMES)
    assert res.ladder_delta < 1e-9
    return res


@pytest.fixture(scope="session")
def barrier_reference():
    """Certified reference for the inverted parabola on the unstable line."""
    model = sw.ParabolicBarrier(1.0)
    t = 2.0 * sw.ehrenfest_time(1.0, BARRIER_HBAR)
    psi0 = sw.initial_coherent_state(BARRIER_GRID, BARRIER_HBAR, BARRIER_CENTER)
    res = sw.exact_state(model, psi0, t)
    assert res.ladder_delta < 1e-9
    return res


def packet_samples(grid: sw.GridSpec, hbar: float, p0: float) -> sw.WaveFunction:
    """initial_coherent_state's formula at (p0, 0), sampled whatever p0: that
    function refuses a packet whose band passes the Nyquist momentum."""
    x = grid.x
    vals = (np.pi * hbar) ** -0.25 * np.exp(1j * p0 * x / hbar - x ** 2 / (2.0 * hbar))
    return sw.WaveFunction(grid, vals, hbar)


def l2_distance(a: sw.WaveFunction, b: sw.WaveFunction) -> float:
    return math.sqrt(float(np.sum(np.abs(a.values - b.values) ** 2) * a.grid.dx))


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
