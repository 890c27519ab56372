"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single line with the measured values and the bound
they must clear, so a verbose run doubles as a release checklist."""
import dataclasses
import math

import numpy as np
import pytest

import semiwkb as sw
from semiwkb.errors import CausticError
from semiwkb.experiments import get_builtin_spec, run_experiment
from semiwkb.hamiltonians import QuadraticPhase
from semiwkb.metaplectic import (apply_L, backward_wkb_test, gaussian_profile,
                                 profile_for_slope, propagate_extended_wkb,
                                 propagate_thawed_gaussian)
from semiwkb.transport import (build_transport_map, refined_transport_map,
                               transport_operator)

from conftest import (BARRIER_CENTER, BARRIER_GRID, BARRIER_HBAR, KHO_GRID,
                      KHO_HBAR)
from oracles import inverse_hbar_transform, shear_from_lagrangians
from test_dynamics import omega, random_line

FREE_HBAR = 0.05
FREE_GRID = sw.GridSpec(-20.0, 40.0, 8192)
FREE_CENTER = (1.0, 0.0)
FREE_T = 2.0 * FREE_HBAR ** -0.5  # twice the integrable spreading time


def _verdict(request, tag: str, detail: str, ok: bool, values: dict) -> None:
    """Print the line and hand the values behind it to conftest's hook, which
    test_golden.py compares with the manifest; then assert.  The values go to
    the report's user_properties directly: the record_property fixture warns
    under --junitxml's default xunit2 family, and warnings are errors here."""
    request.node.user_properties.append(
        ("acceptance", {tag: {k: float(v) for k, v in values.items()}}))
    print(f"[{tag}] {detail} -- {'PASS' if ok else 'FAIL'}")
    assert ok, f"{tag}: {detail}"


def _kho_forward(model, slope: float, t: float = 4.0):
    return propagate_extended_wkb(model, QuadraticPhase(0.0, 0.0, slope),
                                  profile_for_slope(slope), KHO_HBAR, t,
                                  KHO_GRID)


def test_1_quadratic_model_exactness(barrier_reference, request):
    free = sw.FreeParticle()
    exact = sw.exact_state(
        free, sw.initial_coherent_state(FREE_GRID, FREE_HBAR, FREE_CENTER),
        FREE_T).state
    fids = {}
    for alpha in (0.0, 1.0):
        r = propagate_extended_wkb(
            free, QuadraticPhase(*FREE_CENTER, alpha),
            profile_for_slope(alpha), FREE_HBAR, FREE_T, FREE_GRID)
        fids[f"free a={alpha:g}"] = sw.fidelity(r.state, exact)
    barrier = sw.ParabolicBarrier(1.0)
    tb = 2.0 * sw.ehrenfest_time(barrier.lam, BARRIER_HBAR)
    rb = propagate_extended_wkb(
        barrier, QuadraticPhase(*BARRIER_CENTER, barrier.lam),
        profile_for_slope(barrier.lam), BARRIER_HBAR, tb, BARRIER_GRID)
    fids["barrier a=lam"] = sw.fidelity(rb.state, barrier_reference.state)
    worst = min(fids.values())
    shown = ", ".join(f"{k}: {v:.9f}" for k, v in fids.items())
    _verdict(request, "1 quadratic exactness",
             f"{shown}; min {worst:.3e} >= 1-1e-6 at t = 2 T_E",
             worst >= 1.0 - 1e-6, fids)


def test_2_stroboscopic_rate_and_log_time(kho_model, request):
    lam = sw.lyapunov_exponent(kho_model, sw.PhasePoint(0.0, 0.0), 1.0)
    te = sw.ehrenfest_time(lam, KHO_HBAR)
    ok = abs(lam - 0.83) <= 0.03 and abs(te - 4.29) <= 0.16
    _verdict(request, "2 rate and log time",
             f"lambda {lam:.6f} in 0.83+-0.03, T_E(8e-4) {te:.6f} in 4.29+-0.16",
             ok, {"lambda": lam, "T_E": te})


def test_3_backward_profile_agreement(kho_model, kho_reference, request):
    back = backward_wkb_test(kho_model, QuadraticPhase(0.0, 0.0, 0.0),
                             profile_for_slope(0.0), KHO_HBAR, 4.0, KHO_GRID,
                             kho_reference.samples[4.0])
    amp_e = np.abs(back.exact_profile)
    amp_m = np.abs(back.metaplectic_profile)
    peak = float(amp_e.max())
    mask = amp_e > 0.1 * peak
    pointwise = float(np.abs(amp_m - amp_e)[mask].max() / peak)
    ok = back.l2_distance <= 0.05 and pointwise <= 0.02
    _verdict(request, "3 backward comparison",
             f"t=4- profile L2 {back.l2_distance:.3e} <= 0.05, "
             f"pointwise {100 * pointwise:.3f}% <= 2% of peak above the 10% floor",
             ok, {"l2": back.l2_distance, "pointwise": pointwise})


def test_4_forward_fidelity_beats_single_gaussian(kho_model, kho_reference, request):
    e4 = kho_reference.samples[4.0]
    f_ext = sw.fidelity(_kho_forward(kho_model, 0.0).state, e4)
    tg = propagate_thawed_gaussian(kho_model, sw.PhasePoint(0.0, 0.0), 1j,
                                   KHO_HBAR, 4.0, KHO_GRID)
    f_tg = sw.fidelity(tg.state, e4)
    ok = f_ext > f_tg and f_ext > 0.95
    _verdict(request, "4 forward fidelity",
             f"t=4- extended {f_ext:.8f} > single-Gaussian {f_tg:.6f} and > 0.95",
             ok, {"extended": f_ext, "single_gaussian": f_tg})


def test_5_slope_robustness(kho_model, kho_reference, request):
    e4 = kho_reference.samples[4.0]
    f0 = sw.fidelity(_kho_forward(kho_model, 0.0).state, e4)
    degradations = {}
    for theta in (-0.30, 0.35, 0.65):
        slope = math.tan(theta * math.pi / 2.0)
        f = sw.fidelity(_kho_forward(kho_model, slope).state, e4)
        degradations[theta] = f0 - f
    worst = max(degradations.values())
    shown = ", ".join(f"theta/(pi/2)={th:+.2f}: {d:+.2e}"
                      for th, d in degradations.items())
    _verdict(request, "5 slope robustness", f"{shown}; worst {worst:.2e} < 0.01",
             worst < 0.01, {"fidelity_0": f0, **{f"degradation_{th:+.2f}": d
                                                for th, d in degradations.items()}})


def test_6_barrier_trichotomy(tmp_path, request):
    spec = get_builtin_spec("barrier-transmission")
    spec = dataclasses.replace(spec, times=(spec.times[-1],))
    report = run_experiment(spec, tmp_path)
    cases = {c["label"]: c for c in report["results"]["cases"]}
    band = report["results"]["critical_band_mass"]
    ok = (cases["reflected"]["sign_match"] and
          cases["transmitted"]["sign_match"] and band >= 0.9)
    _verdict(request, "6 barrier trichotomy",
             f"<q>({spec.times[0]:.3f}) = {cases['reflected']['final_q']:+.3f} / "
             f"{cases['critical']['final_q']:+.3f} / "
             f"{cases['transmitted']['final_q']:+.3f}, signs match offsets -/+, "
             f"critical band mass {band:.6f} >= 0.9 within 3 sqrt(hbar)",
             ok, {**{f"final_q_{k}": c["final_q"] for k, c in cases.items()},
                  "critical_band_mass": band})


def test_7_structural_invariants(rng, request):
    # tangent maps stay symplectic across every model's closed-form flow
    p = np.linspace(-0.8, 0.8, 33)
    q = np.linspace(-0.5, 1.5, 33)
    det_worst = 0.0
    for model in (sw.FreeParticle(), sw.ParabolicBarrier(1.3),
                  sw.KickedHarmonic(2.0)):
        det_worst = max(det_worst, sw.flow_bundle(model, p, q, 2.7).symplectic_defect())

    psi = sw.initial_coherent_state(sw.GridSpec(-8.0, 8.0, 1024), 0.05, (0.4, -0.3))
    back = inverse_hbar_transform(sw.hbar_fourier_transform(psi), psi.grid)
    ft_err = float(np.max(np.abs(back.values - psi.values)))

    grid = sw.GridSpec(-6.0, 6.0, 2048)
    amp = apply_L(gaussian_profile, 0.0, 1.0, grid)
    tmap = refined_transport_map(sw.FreeParticle(), QuadraticPhase(0.0, 0.0, 0.3),
                                 (-5.0, 5.0), 0.5, amp)
    moved = transport_operator(tmap, amp)
    unit_defect = abs(moved.norm - amp.norm)

    shear_worst = 0.0
    checked = 0
    while checked < 1000:
        l1, l2, l = (random_line(rng) for _ in range(3))
        if (abs(omega(l1.direction, l2.direction)) < 1e-3 or
                abs(omega(l1.direction, l.direction)) < 1e-3):
            continue
        m = shear_from_lagrangians(l1, l2, l)
        shear_worst = max(
            shear_worst,
            abs(float(np.linalg.det(m)) - 1.0),
            float(np.max(np.abs(m @ l1.direction - l1.direction))),
            abs(omega(m @ l2.direction, l.direction)))
        checked += 1

    folding = QuadraticPhase(0.0, 0.0, -1.0)
    build_transport_map(sw.FreeParticle(), folding, (-1.0, 1.0), 129, 0.999)
    with pytest.raises(CausticError):
        build_transport_map(sw.FreeParticle(), folding, (-1.0, 1.0), 129, 1.001)

    ok = (det_worst < 1e-9 and ft_err < 1e-12 and unit_defect < 1e-6
          and shear_worst < 1e-10)
    _verdict(request, "7 structural invariants",
             f"tangent det {det_worst:.1e} < 1e-9, transform round trip "
             f"{ft_err:.1e} < 1e-12, transport unitarity {unit_defect:.1e} < 1e-6, "
             f"shear post-conditions {shear_worst:.1e} < 1e-10 on 1000 triples, "
             f"caustic fires at t = 1 +- 1e-3",
             ok, {"tangent_det": det_worst, "transform_round_trip": ft_err,
                  "transport_unitarity": unit_defect, "shear_post_conditions": shear_worst})


def test_8_initial_manifold_independence(request):
    free = sw.FreeParticle()
    finals = {}
    for alpha in (0.0, 0.5, 1.0, 2.0):
        r = propagate_extended_wkb(free, QuadraticPhase(*FREE_CENTER, alpha),
                                   profile_for_slope(alpha), FREE_HBAR,
                                   FREE_T, FREE_GRID)
        finals[alpha] = r.state
    alphas = sorted(finals)
    worst = 1.0
    for i, a in enumerate(alphas):
        for b in alphas[i + 1:]:
            worst = min(worst, sw.fidelity(finals[a], finals[b]))
    _verdict(request, "8 manifold independence",
             f"slopes {alphas}, min pairwise fidelity {worst:.9f} >= 1-1e-6",
             worst >= 1.0 - 1e-6, {"min_pairwise_fidelity": worst})
