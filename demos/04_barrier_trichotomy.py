"""
Inverted parabola: reflected, trapped, transmitted
==================================================

On H = p^2/2 - v0 q^2/2 the sign of p + lambda q decides which side of
the barrier a packet ends up on; a packet launched exactly on the stable
line stays pinned and spreads along the unstable one.  Quantum means
follow that classification cleanly up to the log time.
"""
import math

import numpy as np

import semiwkb as sw

v0 = 1.0
hbar = 0.05
model = sw.ParabolicBarrier(v0)
lam = model.lam
# on [-12, 12] the tails at T_E + 1 wrap round the periodic domain at
# 5e-8 in L2, which the reference's 1e-9 certificate refuses
grid = sw.GridSpec(-16.0, 16.0, 4096)
t_final = sw.ehrenfest_time(lam, hbar) + 1.0
print(f"lambda = {lam:g}, running to T_E + 1 = {t_final:.3f}\n")

cases = {
    "reflected": (0.3, -0.5),    # p + lambda q = -0.2
    "critical": (0.5, -0.5),     # exactly on the stable line
    "transmitted": (0.7, -0.5),  # p + lambda q = +0.2
}

sample_times = (1.0, 2.0)
for label, (p0, q0) in cases.items():
    offset = p0 + lam * q0
    psi0 = sw.initial_coherent_state(grid, hbar, (p0, q0))
    res = sw.exact_state(model, psi0, t_final, sample_times=sample_times)
    series = [(t, sw.expectation_q(res.samples[t])) for t in sample_times]
    series.append((t_final, sw.expectation_q(res.state)))
    path = " -> ".join(f"<q>({t:.2f})={q:+.3f}" for t, q in series)
    print(f"{label:12s} offset {offset:+.1f}: {path}")
    if offset == 0.0:
        # the trapped state hugs the unstable line p = lambda q
        half = 3.0 * math.sqrt(hbar)
        mass = sw.band_mass(res.state, lam, half)
        print(f"{'':12s} mass within 3 sqrt(hbar) of the unstable line: "
              f"{mass:.4f}")

# classical check: the flow of the mean point shows the same trichotomy
print()
for label, (p0, q0) in cases.items():
    fr = sw.flow(model, sw.PhasePoint(p0, q0), t_final)
    print(f"{label:12s} classical endpoint q = {fr.end_point.q:+8.3f}, "
          f"p = {fr.end_point.p:+8.3f}")
