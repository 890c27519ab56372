"""A model defined outside the package plugs into flows, the center kernel
and the exact reference through its own methods alone."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import semiwkb as sw
from semiwkb.errors import CausticError
from semiwkb.hamiltonians import HamiltonianModel, QuadraticPhase

from conftest import l2_distance
from oracles import Potential, dense_thawed_gaussian, rk4_flow, split_step_evolve

HBAR = 0.05


class HarmonicWell(HamiltonianModel):
    """H = (p^2 + omega^2 q^2)/2 with its closed rotation flow and shear pair."""

    name = "well"
    exact_path = "metaplectic-shear"

    def __init__(self, omega: float):
        self.omega = float(omega)

    def energy(self, p, q):
        return 0.5 * (np.asarray(p) ** 2 + self.omega ** 2 * np.asarray(q) ** 2)

    def grad(self, p, q):
        return np.asarray(p, dtype=float), self.omega ** 2 * np.asarray(q, dtype=float)

    def hess(self, p, q):
        p, q = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(q, dtype=float))
        zero = np.zeros_like(p)
        return np.array([[zero + 1.0, zero], [zero, zero + self.omega ** 2]])

    def segment_flow(self, t, p, q):
        w = self.omega
        c, s = math.cos(w * t), math.sin(w * t)
        action = (p * p - w * w * q * q) * math.sin(2 * w * t) / (4 * w) - p * q * s * s
        return c * p - w * s * q, s / w * p + c * q, np.array([[c, -w * s], [s / w, c]]), action

    def shear_pair(self, s):
        w = self.omega
        return w * math.tan(0.5 * w * s), math.sin(w * s) / w


def as_potential(well: HarmonicWell) -> Potential:
    w2 = well.omega ** 2
    return Potential(lambda q: 0.5 * w2 * q ** 2, lambda q: w2 * q,
                     lambda q: w2 * np.ones_like(q))


def test_plugin_flow_matches_the_integrated_well():
    # the closed form against RK4 on the same Hamiltonian given as a potential
    well = HarmonicWell(1.5)
    z0 = sw.PhasePoint(0.45, -0.35)
    for t in (0.4, 1.3):
        fr = sw.flow(well, z0, t)
        num = rk4_flow(as_potential(well), z0.p, z0.q, t).at(0)
        assert num.end_point.p == pytest.approx(fr.end_point.p, abs=1e-9)
        assert num.end_point.q == pytest.approx(fr.end_point.q, abs=1e-9)
        assert np.max(np.abs(num.tangent - fr.tangent)) < 1e-8
        assert num.action == pytest.approx(fr.action, abs=1e-8)
        assert fr.symplectic_defect() < 1e-12


def test_plugin_center_kernel_and_its_exact_certificate():
    well, alpha, t = HarmonicWell(1.5), 0.3, 0.8
    ph = QuadraticPhase(0.0, 0.0, alpha)
    s, c = math.sin(1.5 * t), math.cos(1.5 * t)
    got = sw.center_kernel(well, ph, 0.0, t)
    assert got == pytest.approx(s / 1.5 / (alpha * s / 1.5 + c), rel=1e-12)
    m = rk4_flow(as_potential(well), 0.0, 0.0, t).tangent[0]
    assert got == pytest.approx(m[1, 0] / (alpha * m[1, 0] + m[1, 1]), rel=1e-9)
    # omega = 5: dphi = cos 5s is negative on (pi/10, 3 pi/10) and back at
    # cos 5 > 0 by the only stop, t = 1; the piece's exact minimum finds it
    stiff = HarmonicWell(5.0)
    flat = QuadraticPhase(0.0, 0.0, 0.0)
    assert sw.flow(stiff, sw.PhasePoint(0.0, 0.0), 1.0).tangent[1, 1] > 0.2
    with pytest.raises(CausticError) as info:
        sw.center_kernel(stiff, flat, 0.0, 1.0)
    assert math.pi / 10 <= info.value.t <= 3 * math.pi / 10


def test_plugin_exact_state_takes_the_shear_path():
    well = HarmonicWell(1.5)
    grid = sw.GridSpec(-8.0, 8.0, 512)
    psi0 = sw.initial_coherent_state(grid, HBAR, (0.5, 0.3))
    shear = sw.exact_state(well, psi0, 2.0, sample_times=(0.7,))
    final, samples = split_step_evolve(as_potential(well), psi0, 2.0, steps_per_unit=2048,
                                       sample_times=(0.7,))
    assert shear.diagnostics["method"] == "metaplectic-shear"
    assert l2_distance(shear.state, final) < 1e-9
    assert l2_distance(shear.samples[0.7], samples[0.7]) < 1e-9


@pytest.mark.parametrize("t", [5.0])
def test_plugin_thawed_ground_state_turns_its_phase_both_ways(t):
    # the well's ground state only picks up exp(-i t/2); the prefactor's
    # branch must be tracked through its half-turns
    well = HarmonicWell(1.0)
    grid = sw.GridSpec(-8.0, 8.0, 1024)
    start, ground = sw.PhasePoint(0.0, 0.0), 1j
    psi0 = sw.propagate_thawed_gaussian(well, start, ground, 0.05, 0.0, grid).state
    psi_t = sw.propagate_thawed_gaussian(well, start, ground, 0.05, t, grid).state
    assert abs(sw.overlap(psi0, psi_t) - np.exp(-0.5j * t)) < 1e-9


# (model from omega, time range): every walk runs forward from 0
THAWED_MODELS = {
    "kho": (lambda omega: sw.KickedHarmonic(2.0), (0.0, 4.0)),
    "barrier": (lambda omega: sw.ParabolicBarrier(1.0), (0.0, 2.0)),
    "free": (lambda omega: sw.FreeParticle(), (0.0, 5.0)),
    "well": (HarmonicWell, (0.0, 5.0)),
}


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(sorted(THAWED_MODELS)), omega=st.floats(0.5, 5.0),
       frac=st.floats(0.0, 1.0), re=st.floats(-1.0, 1.0), im=st.floats(0.5, 3.0),
       p0=st.floats(-0.3, 0.3), q0=st.floats(-0.3, 0.3))
@example(name="well", omega=5.0, frac=1.0, re=0.0, im=1.0, p0=0.1, q0=0.0)
@example(name="well", omega=1.0, frac=0.0, re=0.3, im=1.0, p0=0.0, q0=0.2)
@example(name="kho", omega=1.0, frac=1.0, re=0.3, im=1.0, p0=0.1, q0=0.05)
def test_thawed_branch_matches_the_dense_rule(name, omega, frac, re, im, p0, q0):
    # the exact branch from the kick stops and whole half-turns against the
    # branch tracked over samples 0.02 apart, wherever that sampling vouches
    make, (lo, hi) = THAWED_MODELS[name]
    model, t = make(omega), lo + frac * (hi - lo)
    z0, b0, grid = sw.PhasePoint(p0, q0), complex(re, im), sw.GridSpec(-8.0, 8.0, 1024)
    try:
        want = dense_thawed_gaussian(model, z0, b0, HBAR, t, grid)
    except ValueError:
        assume(False)
    got = sw.propagate_thawed_gaussian(model, z0, b0, HBAR, t, grid).state.values
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
