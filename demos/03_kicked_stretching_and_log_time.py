"""
Kicked oscillator: hyperbolic stretching and the log time
=========================================================

The harmonic rotation composed with a unit-period cos-potential kick has
a hyperbolic fixed point at the origin for K = 2.  A coherent state
placed there stretches along the unstable direction at rate lambda, its
width reaches order one at T_E = ln(1/hbar) / (2 lambda), and a single
Gaussian stops being a useful description right around that time.  The
run below uses a cheap hbar so everything finishes in seconds; the price
of the fat hbar is a wide seed window, and the kick folds the manifold
inside it soon after T_E, which the last section triggers on purpose.
"""
import math

import numpy as np

import semiwkb as sw
from semiwkb.errors import CausticError
from semiwkb.hamiltonians import QuadraticPhase
from semiwkb.metaplectic import (backward_wkb_test, profile_for_slope,
                                 propagate_extended_wkb,
                                 propagate_thawed_gaussian)

k = 2.0
hbar = 0.05
grid = sw.GridSpec(-4.0, 4.0, 1024)
model = sw.KickedHarmonic(k)
origin = sw.PhasePoint(0.0, 0.0)
window = (-0.9, 0.9)
# the flat line through the origin and its profile, one object throughout:
# the pipeline keys its cached forward core by profile identity, so the
# backward test below reuses the forward run's core at t = 2
phase0 = QuadraticPhase(0.0, 0.0, 0.0)
profile = profile_for_slope(0.0)

# ---------------------------------------------------------------------
# stroboscopic rate and the resulting log time
lam = sw.lyapunov_exponent(model, origin, 1.0)
te = sw.ehrenfest_time(lam, hbar)
stable, unstable = sw.hyperbolic_subspaces(model, origin)
print(f"lambda = {lam:.6f}, T_E(hbar={hbar:g}) = {te:.3f}")
print(f"unstable direction slope dp/dq = {unstable.slope:.4f}")

# ---------------------------------------------------------------------
# exact stroboscopic evolution, sampled just before each kick
times = (1.0, 2.0, 3.0)
psi0 = sw.initial_coherent_state(grid, hbar, (0.0, 0.0))
exact = sw.exact_state(model, psi0, times[-1], sample_times=times)
print(f"\nreference: {exact.diagnostics['method']}, "
      f"{exact.diagnostics['splits']} splits per segment, "
      f"certificate (gap to half the splits) {exact.ladder_delta:.1e}")

# phase-space mass inside a band around the unstable line: the state
# collapses onto that line as it stretches
half = 2.5 * math.sqrt(hbar)
print(f"\n{'t':>3s} {'band mass':>9s}")
for t in times:
    print(f"{t:3.0f} {sw.band_mass(exact.samples[t], unstable.slope, half):9.4f}")

# ---------------------------------------------------------------------
# forward comparison up to one period past T_E.  The transported state
# keeps its fidelity through the log time; the single Gaussian loses
# about 3% of it one period later.
print(f"\n{'t':>3s} {'extended':>9s} {'1-Gaussian':>10s}")
for t in times[:2]:
    e = exact.samples[t]
    r = propagate_extended_wkb(model, phase0, profile, hbar, t, grid,
                               window=window, deficit_tol=1e-6)
    tg = propagate_thawed_gaussian(model, origin, 1j, hbar, t, grid)
    print(f"{t:3.0f} {sw.fidelity(r.state, e):9.6f} "
          f"{sw.fidelity(tg.state, e):10.6f}")
print(f"(T_E = {te:.2f} sits between the two rows; the single Gaussian "
      "decays past it, the transported state does not)")

# ---------------------------------------------------------------------
# the backward comparison isolates the profile: undo transport and phase
# on the exact state and compare with the dispersion-corrected profile
back = backward_wkb_test(model, phase0, profile, hbar, 2.0, grid,
                         exact.samples[2.0], window=window)
print(f"\nbackward profile distance at t=2: "
      f"{back.l2_distance:.2e} (relative L2)")
print(f"accumulated dispersion C_t = {back.metadata['c_t']:.4f}")

# ---------------------------------------------------------------------
# at this hbar the seed window cannot shrink below the packet, and by
# t = 3 the kick has folded the initial line inside it, so the scheme
# refuses to continue rather than transporting through a caustic.  At
# the hbar = 8e-4 used in the validation runs the window is +-0.2 and
# the same comparison runs clean to t = 4.
try:
    propagate_extended_wkb(model, phase0, profile, hbar, 3.0, grid,
                           window=window, deficit_tol=1e-6)
except CausticError as exc:
    print(f"\nt=3 at this hbar: {type(exc).__name__}: {exc}")
