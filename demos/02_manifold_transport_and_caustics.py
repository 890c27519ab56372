"""
Classical transport along a Lagrangian line, up to the fold
===========================================================

The classical half of the scheme moves a window of seeds lying on
p = grad S0(q) with the Hamiltonian flow and tracks the position map
phi(t, x), its derivative, and the accumulated action.  Everything
below is purely classical; no wave function appears.
"""
import numpy as np

import semiwkb as sw
from semiwkb.errors import CausticError
from semiwkb.hamiltonians import QuadraticPhase
from semiwkb.transport import (build_bundle, build_transport_map,
                               evolved_phase, invert_transport)

model = sw.ParabolicBarrier(1.0)  # H = p^2/2 - q^2/2, rate lambda = 1

# a line of slope 0.5 through (p, q) = (0.2, 0.0)
phase0 = QuadraticPhase(0.2, 0.0, 0.5)
window = (-1.5, 1.5)

# ---------------------------------------------------------------------
# a seed bundle carries the endpoints, tangent maps and actions at one time
times = (0.4, 0.8, 1.2)
bundles = [build_bundle(model, phase0, window, 129, t) for t in times]
defect = max(np.max(np.abs(np.linalg.det(b.tangent_t) - 1.0)) for b in bundles)
print(f"bundle: {bundles[0].n_seeds} seeds, symplectic defect {defect:.1e}")

# a map tabulates one time, so each time gets its own
tmaps = {t: build_transport_map(model, phase0, window, 129, t) for t in times}
certificate = min(m.non_contraction_certificate for m in tmaps.values())
print(f"non-contraction certificate: {certificate:.3f} "
      "(min |dphi| over window and times)")

x = np.linspace(-1.0, 1.0, 5)
for t in (0.4, 1.2):
    y = tmaps[t].map_values(x)
    back = invert_transport(tmaps[t], y)
    print(f"t={t:.1f}: phi({x[0]:+.2f})={y[0]:+.4f} .. "
          f"phi({x[-1]:+.2f})={y[-1]:+.4f}, "
          f"invert round trip {np.max(np.abs(back - x)):.1e}")

# the evolved phase generates the moved manifold: d/dy S(t, y) = p(t, y)
y = tmaps[0.8].map_values(x)
s = evolved_phase(tmaps[0.8], y)
print(f"evolved phase at t=0.8, y={y[2]:+.4f}: S = {s[2]:+.6f}")

# ---------------------------------------------------------------------
# a contracting slope on free flight folds at t = 1/|alpha|: the position
# map stops being increasing and the amplitude weight would blow up.
# The builder measures its margin and refuses to cross the fold.
folding = QuadraticPhase(0.0, 0.0, -1.0)
for t in (0.5, 0.9, 0.999):
    m = build_transport_map(sw.FreeParticle(), folding, (-1.0, 1.0), 129, t)
    print(f"t={t:5.3f}: caustic margin {m.non_contraction_certificate:.4f}")
try:
    build_transport_map(sw.FreeParticle(), folding, (-1.0, 1.0), 129, 1.001)
except CausticError as exc:
    print(f"t=1.001: {exc}")
