"""Model derivatives against finite differences, closed-form flows against
the RK4 oracle, and the closed forms' guard rails."""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import semiwkb as sw
from semiwkb.hamiltonians import QuadraticPhase

from oracles import (Potential, closed_form_flow, closed_form_kernel, closed_form_phase,
                     closed_form_transport_map, rk4_flow, split_parts)

QUARTIC = dict(
    h=lambda p: 0.5 * p ** 2 + 0.1 * p ** 4,
    h_prime=lambda p: p + 0.4 * p ** 3,
    h_double_prime=lambda p: 1.0 + 1.2 * p ** 2,
)


def models():
    return [
        sw.FreeParticle(),
        sw.IntegrableMomentum(**QUARTIC),
        sw.ParabolicBarrier(1.3),
        Potential(np.cos, lambda q: -np.sin(q), lambda q: -np.cos(q)),
        sw.KickedHarmonic(2.0),
    ]


POINTS = [(0.3, -0.7), (1.1, 0.4), (-0.6, 1.9)]


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
@pytest.mark.parametrize("p,q", POINTS)
def test_grad_matches_finite_difference(model, p, q):
    h = 1e-6
    hp, hq = model.grad(p, q)
    fd_p = (model.energy(p + h, q) - model.energy(p - h, q)) / (2 * h)
    fd_q = (model.energy(p, q + h) - model.energy(p, q - h)) / (2 * h)
    assert hp == pytest.approx(fd_p, abs=1e-8, rel=1e-8)
    assert hq == pytest.approx(fd_q, abs=1e-8, rel=1e-8)


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
@pytest.mark.parametrize("p,q", POINTS)
def test_hess_matches_finite_difference(model, p, q):
    h = 1e-5
    hess = model.hess(p, q)
    assert hess.shape == (2, 2)
    assert hess[0, 1] == hess[1, 0]

    def grad(pp, qq):
        gp, gq = model.grad(pp, qq)
        return float(gp), float(gq)

    fd_pp = (grad(p + h, q)[0] - grad(p - h, q)[0]) / (2 * h)
    fd_pq = (grad(p, q + h)[0] - grad(p, q - h)[0]) / (2 * h)
    fd_qq = (grad(p, q + h)[1] - grad(p, q - h)[1]) / (2 * h)
    assert hess[0, 0] == pytest.approx(fd_pp, abs=1e-6)
    assert hess[0, 1] == pytest.approx(fd_pq, abs=1e-6)
    assert hess[1, 1] == pytest.approx(fd_qq, abs=1e-6)


@pytest.mark.parametrize("model", models(), ids=lambda m: m.name)
def test_split_parts_sum_to_energy(model, p=0.8, q=-0.4):
    # the split-step oracle's kinetic and potential parts, and a momentum
    # model's multiplier symbol, add up to the model's energy
    kinetic, potential = split_parts(model)
    total = kinetic(p) + potential(q)
    assert total == pytest.approx(model.energy(p, q), rel=1e-12)


def test_model_constructors_refuse_non_finite_parameters():
    for make, bad in ((sw.KickedHarmonic, math.nan), (sw.KickedHarmonic, -math.inf),
                      (sw.ParabolicBarrier, math.inf), (sw.ParabolicBarrier, math.nan)):
        with pytest.raises(sw.InvalidInputError, match="must be finite"):
            make(bad)


def test_barrier_rate_constant():
    assert sw.ParabolicBarrier(4.0).lam == 2.0
    assert split_parts(sw.ParabolicBarrier(1.0))[1](2.0) == -2.0


def test_quadratic_phase_closed_forms():
    ph = QuadraticPhase(0.7, -0.2, 1.5)
    x = np.linspace(-2, 2, 7)
    assert np.allclose(ph.phase(x), 0.7 * (x + 0.2) + 0.75 * (x + 0.2) ** 2)
    assert np.allclose(ph.grad(x), 0.7 + 1.5 * (x + 0.2))
    assert ph.center == sw.PhasePoint(0.7, -0.2)


def test_quadratic_phase_from_theta():
    ph = QuadraticPhase.from_theta(math.pi / 4, p0=0.1)
    assert ph.alpha == pytest.approx(1.0)
    for bad in (math.pi / 2, -math.pi / 2, 2.0):
        with pytest.raises(ValueError):
            QuadraticPhase.from_theta(bad)


def test_kick_trio_consistency():
    model = sw.KickedHarmonic(2.0)
    for q in (-1.3, 0.0, 0.9):
        imp = float(model.kick_impulse(q))
        assert imp == pytest.approx(2.0 * math.sin(q))
        # one kick moves p by the impulse; its tangent map is [[1, slope], [0, 1]]
        p_kicked, slope, _ = model.kick(0.4, q)
        assert sw.PhasePoint(float(p_kicked), q) == sw.PhasePoint(0.4 + imp, q)
        tan = np.array([[1.0, slope], [0.0, 1.0]])
        # d(impulse)/dq sits in the p-q slot; the kick leaves q untouched
        assert tan[0, 1] == pytest.approx(2.0 * math.cos(q))
        assert np.allclose(np.diag(tan), 1.0)
        assert tan[1, 0] == 0.0
        assert float(np.linalg.det(tan)) == pytest.approx(1.0)
        assert float(model.kick_phase_jump(q)) == pytest.approx(-2.0 * math.cos(q))
        # jump = -V(q), impulse = -V'(q), so the impulse is the jump's slope
        h = 1e-6
        fd = (model.kick_phase_jump(q + h) - model.kick_phase_jump(q - h)) / (2 * h)
        assert imp == pytest.approx(float(fd), abs=1e-8)


@pytest.mark.parametrize("model", models()[:3] + [models()[4]], ids=lambda m: m.name)
@pytest.mark.parametrize("t", [0.35, 1.0, 2.6])
def test_flow_oracle_matches_rk4(model, t):
    p, q = 0.45, -0.35
    oracle = closed_form_flow(model, t, p, q)
    num = rk4_flow(model, p, q, t).at(0)
    assert num.end_point.p == pytest.approx(oracle.end_point.p, abs=1e-9)
    assert num.end_point.q == pytest.approx(oracle.end_point.q, abs=1e-9)
    assert np.max(np.abs(num.tangent - oracle.tangent)) < 1e-8
    assert num.action == pytest.approx(oracle.action, abs=1e-8)


def test_barrier_flow_against_solve_ivp():
    model = sw.ParabolicBarrier(1.3)
    p0, q0, t = 0.2, 0.7, 1.8

    def rhs(_, y):
        hp, hq = model.grad(y[0], y[1])
        return [-float(hq), float(hp)]

    sol = solve_ivp(rhs, (0, t), [p0, q0], rtol=1e-12, atol=1e-12)
    oracle = closed_form_flow(model, t, p0, q0)
    assert oracle.end_point.p == pytest.approx(sol.y[0, -1], abs=1e-9)
    assert oracle.end_point.q == pytest.approx(sol.y[1, -1], abs=1e-9)


def test_standard_potential_rk4_against_solve_ivp():
    model = Potential(lambda q: 0.25 * q ** 4, lambda q: q ** 3, lambda q: 3 * q ** 2)
    p0, q0, t = 0.1, 1.2, 2.0
    num = rk4_flow(model, p0, q0, t).at(0)

    def rhs(_, y):
        return [-y[1] ** 3, y[0]]

    sol = solve_ivp(rhs, (0, t), [p0, q0], rtol=1e-12, atol=1e-12)
    assert num.end_point.p == pytest.approx(sol.y[0, -1], abs=1e-8)
    assert num.end_point.q == pytest.approx(sol.y[1, -1], abs=1e-8)


def test_kicked_flow_composes_kick_and_rotation():
    model = sw.KickedHarmonic(2.0)
    p0, q0 = 0.15, 0.6
    fr = closed_form_flow(model, 1.0, p0, q0)
    # kick at t=0 acts first, then one full rotation period
    p1 = p0 + 2.0 * math.sin(q0)
    c, s = math.cos(1.0), math.sin(1.0)
    assert fr.end_point.p == pytest.approx(c * p1 - s * q0, abs=1e-12)
    assert fr.end_point.q == pytest.approx(s * p1 + c * q0, abs=1e-12)


def test_oracle_tangents_are_symplectic():
    for model in models()[:3] + [models()[4]]:
        fr = closed_form_flow(model, 1.7, 0.3, 0.5)
        assert abs(float(np.linalg.det(fr.tangent)) - 1.0) < 1e-12


def test_transport_map_oracle_free_and_barrier():
    free = sw.FreeParticle()
    ph = QuadraticPhase(0.5, 0.0, 0.8)
    x = np.array([-1.0, 0.0, 2.0])
    phi, dphi = closed_form_transport_map(free, ph, 1.5, x)
    assert np.allclose(phi, x + 1.5 * (0.5 + 0.8 * x))
    assert np.allclose(dphi, 1.0 + 0.8 * 1.5)

    barrier = sw.ParabolicBarrier(1.0)
    phi_b, dphi_b = closed_form_transport_map(barrier, ph, 0.7, x)
    ch, sh = math.cosh(0.7), math.sinh(0.7)
    assert np.allclose(phi_b, sh * (0.5 + 0.8 * x) + ch * x)
    assert np.allclose(dphi_b, 0.8 * sh + ch)


def test_kernel_oracle_closed_forms():
    free = sw.FreeParticle()
    flat = QuadraticPhase(0.0, 0.0, 0.0)
    tilted = QuadraticPhase(0.0, 0.0, 0.5)
    assert closed_form_kernel(free, flat, 2.0) == pytest.approx(2.0)
    assert closed_form_kernel(free, tilted, 2.0) == pytest.approx(1.0)

    barrier = sw.ParabolicBarrier(1.0)
    c = closed_form_kernel(barrier, flat, 3.0)
    assert c == pytest.approx(math.tanh(3.0))


def test_kernel_oracle_detects_caustic():
    free = sw.FreeParticle()
    folding = QuadraticPhase(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        closed_form_kernel(free, folding, 1.5)
    with pytest.raises(ValueError):
        closed_form_transport_map(free, folding, 1.5, np.zeros(1))


def test_phase_oracle_matches_initial_data_at_t0():
    barrier = sw.ParabolicBarrier(1.0)
    ph = QuadraticPhase(0.4, 0.1, 0.6)
    x = np.linspace(-1, 1, 9)
    assert np.allclose(closed_form_phase(barrier, ph, 0.0, x), ph.phase(x))


def test_unsupported_oracles_raise():
    standard = Potential(np.cos, lambda q: -np.sin(q), lambda q: -np.cos(q))
    with pytest.raises(TypeError):
        closed_form_flow(standard, 1.0, 0.0, 0.0)
    kicked = sw.KickedHarmonic(2.0)
    with pytest.raises(TypeError):
        closed_form_transport_map(kicked, QuadraticPhase(0, 0, 0), 1.0, np.zeros(1))
