"""Flow maps, kick scheduling, hyperbolic structure, and shear algebra."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import semiwkb as sw
from semiwkb.dynamics import LagrangianLine, flow_samples, shear_from_lagrangians
from semiwkb.errors import DegenerateLinesError, NotHyperbolicError
from semiwkb.hamiltonians import QuadraticPhase
from semiwkb.reference import metaplectic_evolve, momentum_evolve

from oracles import closed_form_flow, rk4_flow
from test_model_plugin import HarmonicWell


def shear_p_pq(model, phase0: QuadraticPhase, base: sw.PhasePoint, t) -> np.ndarray:
    """Shear relating the flow tangent to its vertical-preserving part.

    The returned map is the identity on the manifold tangent at `base` and
    sends the pullback of the vertical at the evolved point back to the
    vertical at `base`.  For hyperbolic dynamics it converges as the
    pulled-back vertical settles onto the stable direction.
    """
    if abs(base.p - float(phase0.grad(base.q))) > 1e-9 * (1.0 + abs(base.p)):
        raise ValueError("base point does not lie on the initial manifold")
    fr = sw.flow(model, base, t)
    pullback = np.linalg.solve(fr.tangent, np.array([1.0, 0.0]))
    w = shear_from_lagrangians(LagrangianLine.from_slope(phase0.alpha, base),
                                  LagrangianLine.vertical(base),
                                  LagrangianLine(base, (pullback[0], pullback[1])))
    return np.linalg.inv(w)


kick_times = sw.KickedHarmonic(2.0).kick_times


def test_kick_schedule():
    assert kick_times(4.0) == [0, 1, 2, 3]
    assert kick_times(3.5) == [0, 1, 2, 3]
    assert kick_times(0.4) == [0]
    assert kick_times(0.0) == []


def test_kick_schedule_rejections():
    with pytest.raises(ValueError):
        kick_times(-1.0)


def compose(model, z0, t1, t2, **kw):
    first = sw.flow(model, z0, t1, **kw)
    second = sw.flow(model, first.end_point, t2, **kw)
    return first, second


@pytest.mark.parametrize("t1,t2", [(0.6, 1.1), (0.25, 0.05)])
def test_smooth_flow_composition(t1, t2):
    model = sw.ParabolicBarrier(1.0)
    z0 = sw.PhasePoint(0.3, -0.2)
    first, second = compose(model, z0, t1, t2)
    whole = sw.flow(model, z0, t1 + t2)
    assert whole.end_point.p == pytest.approx(second.end_point.p, abs=1e-12)
    assert whole.end_point.q == pytest.approx(second.end_point.q, abs=1e-12)
    assert np.allclose(whole.tangent, second.tangent @ first.tangent, atol=1e-12)
    assert whole.action == pytest.approx(first.action + second.action, abs=1e-12)


def test_kicked_flow_composition_at_integer_split():
    # the kick at n opens the interval (n, n+1], so restarting at an integer
    # re-fires exactly the kick the first leg stopped short of
    model = sw.KickedHarmonic(2.0)
    z0 = sw.PhasePoint(0.15, 0.6)
    first, second = compose(model, z0, 1.0, 2.0)
    whole = sw.flow(model, z0, 3.0)
    assert whole.end_point.p == pytest.approx(second.end_point.p, abs=1e-12)
    assert whole.end_point.q == pytest.approx(second.end_point.q, abs=1e-12)
    assert np.allclose(whole.tangent, second.tangent @ first.tangent, atol=1e-10)
    assert whole.action == pytest.approx(first.action + second.action, abs=1e-12)


def test_bundle_symplectic_defects():
    p = np.linspace(-0.8, 0.8, 33)
    q = np.linspace(-0.5, 1.5, 33)
    for model in (sw.FreeParticle(), sw.ParabolicBarrier(1.3), sw.KickedHarmonic(2.0)):
        fb = sw.flow_bundle(model, p, q, 2.7)
        assert fb.symplectic_defect() < 1e-12


def test_bundle_matches_scalar_flow():
    model = sw.ParabolicBarrier(1.0)
    fb = sw.flow_bundle(model, [0.2, -0.4], [0.1, 0.9], 1.4)
    assert len(fb) == 2
    for i, z in enumerate((sw.PhasePoint(0.2, 0.1), sw.PhasePoint(-0.4, 0.9))):
        fr = sw.flow(model, z, 1.4)
        at = fb.at(i)
        assert at.end_point == fr.end_point
        assert np.array_equal(at.tangent, fr.tangent)
        assert at.action == fr.action
        assert at.symplectic_defect() < 1e-12


def test_flow_bundle_rejections():
    with pytest.raises(ValueError):
        sw.flow_bundle(sw.FreeParticle(), [0.0, 1.0], [0.0], 1.0)


WALK_MODELS = {
    "free": sw.FreeParticle(),
    "quartic": sw.IntegrableMomentum(lambda p: 0.5 * p ** 2 + 0.1 * p ** 4,
                                     lambda p: p + 0.4 * p ** 3,
                                     lambda p: 1.0 + 1.2 * p ** 2),
    "barrier": sw.ParabolicBarrier(1.3),
    "kicked": sw.KickedHarmonic(2.0),
}
# any t, integer t among them
WALK_TIMES = st.one_of(st.floats(0.0, 1.2), st.integers(0, 2).map(float))


@settings(max_examples=5, deadline=None, derandomize=True)
@example("kicked", 1.7)
@example("quartic", 1.2)
@given(st.sampled_from(sorted(WALK_MODELS)), WALK_TIMES)
def test_flow_walker_is_symplectic_and_matches_rk4(name, t):
    # the walker with each model's closed-form segments against the RK4
    # oracle between the same kicks, to the tolerances of the oracle-vs-RK4 test
    model = WALK_MODELS[name]
    p, q = np.array([0.45, -0.2, 0.1]), np.array([-0.35, 0.6, 1.1])
    fb = sw.flow_bundle(model, p, q, t)
    assert np.max(np.abs(np.linalg.det(fb.tangent) - 1.0)) < 1e-10
    for i in range(p.size):
        oracle = closed_form_flow(model, t, p[i], q[i])
        end = oracle.end_point
        assert abs(fb.p[i] - end.p) + abs(fb.q[i] - end.q) < 1e-10
        assert np.max(np.abs(fb.tangent[i] - oracle.tangent)) < 1e-10
        assert abs(fb.action[i] - oracle.action) < 1e-10
    num = rk4_flow(model, p, q, t)
    assert np.max(np.abs(num.p - fb.p)) < 1e-9
    assert np.max(np.abs(num.q - fb.q)) < 1e-9
    assert np.max(np.abs(num.tangent - fb.tangent)) < 1e-8
    assert np.max(np.abs(num.action - fb.action)) < 1e-8


# the models of the sampled walks
SAMPLED_WALKS = {
    "kicked": sw.KickedHarmonic(2.0),
    "free": sw.FreeParticle(),
    "barrier": sw.ParabolicBarrier(1.3),
    "plugin": HarmonicWell(1.5),
}
# any times up to 3, integers among them, in increasing order
SAMPLE_TIMES = st.lists(st.one_of(st.floats(0.0, 3.0), st.integers(0, 3).map(float)),
                        min_size=1, max_size=5).map(sorted)


@settings(max_examples=30, deadline=None, derandomize=True)
@example(("kicked", [0.0, 1.0, 1.0, 2.5]))
@example(("kicked", [0.5, 1.0 + 5e-10, 2.0]))
@example(("plugin", [0.0, 0.7, 2.0]))
@given(st.tuples(st.sampled_from(sorted(SAMPLED_WALKS)), SAMPLE_TIMES))
def test_sampled_walk_equals_lone_walks_bit_for_bit(name_times):
    # every sample of one walk is what a walk to that time alone returns
    name, times = name_times
    model = SAMPLED_WALKS[name]
    p, q = np.array([0.45, -0.2]), np.array([-0.35, 0.6])
    walk = flow_samples(model, p, q, times)
    assert len(walk) == len(times)
    for t, fb in zip(times, walk):
        alone = sw.flow_bundle(model, p, q, t)
        for field in ("p", "q", "tangent", "action"):
            assert np.array_equal(getattr(fb, field), getattr(alone, field)), (t, field)


def test_sampled_walk_rejections():
    free = sw.FreeParticle()
    for times in ([], [1.0, 0.5], [0.5, -1.0], [-1.0, -0.5, -2.0], [0.5, math.nan],
                  [math.inf], [[0.5, 1.0]]):
        with pytest.raises(sw.InvalidInputError):
            flow_samples(free, [0.0], [0.0], times)
    with pytest.raises(sw.InvalidInputError):  # kicks fire forward only
        flow_samples(sw.KickedHarmonic(2.0), [0.0], [0.0], [0.0, -0.5])


def kho_period_matrix(k: float) -> np.ndarray:
    c, s = math.cos(1.0), math.sin(1.0)
    return np.array([[c, -s], [s, c]]) @ np.array([[1.0, k], [0.0, 1.0]])


def test_period_tangent_closed_form():
    model = sw.KickedHarmonic(2.0)
    m = sw.period_tangent(model, sw.PhasePoint(0.0, 0.0))
    assert np.allclose(m, kho_period_matrix(2.0), atol=1e-12)
    assert float(np.linalg.det(m)) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        sw.period_tangent(model, sw.PhasePoint(0.2, 0.3))  # drifts, not fixed


def test_lyapunov_exponent_matches_trace_formula():
    model = sw.KickedHarmonic(2.0)
    got = sw.lyapunov_exponent(model, sw.PhasePoint(0.0, 0.0))
    tr = float(np.trace(kho_period_matrix(2.0)))
    expected = math.log((tr + math.sqrt(tr * tr - 4.0)) / 2.0)
    assert got == pytest.approx(expected, abs=1e-12)
    base = sw.load_baselines()["kicked_harmonic"]
    assert got == pytest.approx(base["lyapunov_exponent"], abs=1e-12)


def test_lyapunov_exponent_barrier_is_rate_constant():
    model = sw.ParabolicBarrier(1.69)
    got = sw.lyapunov_exponent(model, sw.PhasePoint(0.0, 0.0))
    assert got == pytest.approx(1.3, abs=1e-12)


def test_unkicked_rotation_is_not_hyperbolic():
    with pytest.raises(NotHyperbolicError):
        sw.lyapunov_exponent(sw.KickedHarmonic(0.0), sw.PhasePoint(0.0, 0.0))
    with pytest.raises(NotHyperbolicError):
        sw.hyperbolic_subspaces(sw.KickedHarmonic(0.0), sw.PhasePoint(0.0, 0.0))


def test_ehrenfest_time_values():
    base = sw.load_baselines()["kicked_harmonic"]
    lam = base["lyapunov_exponent"]
    assert sw.ehrenfest_time(lam, 8e-4) == pytest.approx(base["ehrenfest_time"], abs=1e-12)
    # halving hbar buys log(2) / (2 lambda) extra time
    gain = sw.ehrenfest_time(lam, 4e-4) - sw.ehrenfest_time(lam, 8e-4)
    assert gain == pytest.approx(math.log(2.0) / (2.0 * lam), abs=1e-12)
    with pytest.raises(ValueError):
        sw.ehrenfest_time(0.0, 0.1)
    with pytest.raises(ValueError):
        sw.ehrenfest_time(1.0, 1.5)


def test_hyperbolic_subspaces_are_eigendirections():
    model = sw.KickedHarmonic(2.0)
    origin = sw.PhasePoint(0.0, 0.0)
    stable, unstable = sw.hyperbolic_subspaces(model, origin)
    m = sw.period_tangent(model, origin)
    lam = sw.lyapunov_exponent(model, origin)
    for line, mu in ((stable, math.exp(-lam)), (unstable, math.exp(lam))):
        d = line.direction_array
        assert np.allclose(m @ d, mu * d, atol=1e-10)
        assert d[1] > 0  # normalized to point toward increasing q
        assert math.hypot(*d) == pytest.approx(1.0, abs=1e-12)
    assert unstable.slope > 0 > stable.slope


def test_barrier_subspace_slopes():
    stable, unstable = sw.hyperbolic_subspaces(sw.ParabolicBarrier(1.69), sw.PhasePoint(0.0, 0.0))
    assert stable.slope == pytest.approx(-1.3, abs=1e-9)
    assert unstable.slope == pytest.approx(1.3, abs=1e-9)


def test_lagrangian_line_constructors():
    line = LagrangianLine.from_slope(2.0)
    assert line.slope == pytest.approx(2.0)
    assert LagrangianLine.vertical().slope == math.inf
    with pytest.raises(ValueError):
        LagrangianLine(sw.PhasePoint(0.0, 0.0), (0.0, 0.0))


def random_line(rng):
    while True:
        d = rng.normal(size=2)
        if math.hypot(*d) > 1e-3:
            return LagrangianLine(sw.PhasePoint(0.0, 0.0), tuple(d))


def omega(a, b):
    return a[0] * b[1] - a[1] * b[0]


def test_shear_from_lagrangians_postconditions(rng):
    checked = 0
    while checked < 1000:
        l1, l2, l = (random_line(rng) for _ in range(3))
        if abs(omega(l1.direction_array, l2.direction_array)) < 1e-3:
            continue
        if abs(omega(l1.direction_array, l.direction_array)) < 1e-3:
            continue
        m = shear_from_lagrangians(l1, l2, l)
        assert abs(float(np.linalg.det(m)) - 1.0) < 1e-10
        # l1 is fixed pointwise, not merely as a set
        assert np.allclose(m @ l1.direction_array, l1.direction_array, atol=1e-10)
        # the image of l2 lies on l
        image = m @ l2.direction_array
        assert abs(omega(image, l.direction_array)) < 1e-10
        checked += 1


DIRECTIONS = st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)).filter(
    lambda d: math.hypot(*d) > 1e-3)


@settings(max_examples=200, deadline=None, derandomize=True)
@example((1.0, 0.0), (1.0, 1.001e-3), (-1.0, 2e-3))  # both pairs near the 1e-3 cut
@example((0.0, 1.0), (1.0, 0.0), (1.0, 1.0))         # the manifold, vertical and diagonal
@example((3.0, -4.0), (-3.0, 4.0 + 1e-2), (1e-3, 1e-3))
@given(DIRECTIONS, DIRECTIONS, DIRECTIONS)
def test_shear_from_lagrangians_postconditions_property(d1, d2, d):
    # the post-conditions of the loop above, at the same bounds, for any
    # three directions with l1 transverse to both l2 and l
    l1, l2, l = (LagrangianLine(sw.PhasePoint(0.0, 0.0), v) for v in (d1, d2, d))
    assume(abs(omega(l1.direction_array, l2.direction_array)) >= 1e-3)
    assume(abs(omega(l1.direction_array, l.direction_array)) >= 1e-3)
    m = shear_from_lagrangians(l1, l2, l)
    assert abs(float(np.linalg.det(m)) - 1.0) < 1e-10
    assert np.allclose(m @ l1.direction_array, l1.direction_array, rtol=0, atol=1e-10)
    assert abs(omega(m @ l2.direction_array, l.direction_array)) < 1e-10


def test_shear_from_lagrangians_degeneracies():
    l1 = LagrangianLine.from_slope(0.5)
    with pytest.raises(DegenerateLinesError):
        shear_from_lagrangians(l1, LagrangianLine.from_slope(0.5),
                                  LagrangianLine.vertical())
    with pytest.raises(DegenerateLinesError):
        shear_from_lagrangians(l1, LagrangianLine.vertical(),
                                  LagrangianLine.from_slope(0.5))


def test_shear_p_pq_free_flat_manifold():
    model = sw.FreeParticle()
    ph = QuadraticPhase(0.0, 0.0, 0.0)
    for t in (0.4, 0.7, 1.9):
        s = shear_p_pq(model, ph, sw.PhasePoint(0.0, 0.5), t)
        assert np.allclose(s, [[1.0, 0.0], [t, 1.0]], atol=1e-9)
    with pytest.raises(ValueError):
        shear_p_pq(model, ph, sw.PhasePoint(0.3, 0.5), 1.0)  # off the manifold


@pytest.mark.parametrize("model,rate", [
    (sw.ParabolicBarrier(1.0), 1.0),
    (sw.KickedHarmonic(2.0), 0.8481592775118637),
], ids=["barrier", "kho"])
def test_shear_p_pq_settles_geometrically(model, rate):
    ph = QuadraticPhase(0.0, 0.0, 0.0)
    base = sw.PhasePoint(0.0, 0.0)
    mats = [shear_p_pq(model, ph, base, float(t)) for t in (2, 3, 4, 5)]
    diffs = [float(np.max(np.abs(b - a))) for a, b in zip(mats, mats[1:])]
    contraction = math.exp(-2.0 * rate)
    assert diffs[1] < 2.0 * contraction * diffs[0]
    assert diffs[2] < 2.0 * contraction * diffs[1]
    assert diffs[2] < 1e-2


# one time rule for every entry point: a walk starts at 0 and runs forward
FLAT, HBAR, GRID = QuadraticPhase(0.0, 0.0, 0.0), 0.05, sw.GridSpec(-4.0, 4.0, 1024)


def coherent():
    return sw.initial_coherent_state(GRID, HBAR, (0.0, 0.0))


TIME_ENTRIES = {
    "flow": lambda m, t: sw.flow(m, sw.PhasePoint(0.0, 0.0), t),
    "flow_bundle": lambda m, t: sw.flow_bundle(m, [0.0], [0.0], t),
    "flow_samples": lambda m, t: flow_samples(m, [0.0], [0.0], [0.5, t]),
    "center_kernel": lambda m, t: sw.center_kernel(m, FLAT, 0.0, t),
    "propagate_extended_wkb": lambda m, t: sw.propagate_extended_wkb(
        m, FLAT, sw.gaussian_profile, HBAR, t, GRID),
    "backward_wkb_test": lambda m, t: sw.backward_wkb_test(
        m, FLAT, sw.gaussian_profile, HBAR, t, GRID, coherent()),
    "propagate_thawed_gaussian": lambda m, t: sw.propagate_thawed_gaussian(
        m, sw.PhasePoint(0.0, 0.0), 1j, HBAR, t, GRID),
    "build_bundle": lambda m, t: sw.build_bundle(m, FLAT, (-1.0, 1.0), 33, t),
    "refined_transport_map": lambda m, t: sw.refined_transport_map(
        m, FLAT, (-1.0, 1.0), t, coherent()),
    "exact_state": lambda m, t: sw.exact_state(m, coherent(), t),
    "metaplectic_evolve": lambda m, t: metaplectic_evolve(m, coherent(), t),
    "momentum_evolve": lambda m, t: momentum_evolve(m, coherent(), t),
    "kick_times": lambda m, t: m.kick_times(t),
}


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf, -math.inf],
                         ids=["negative", "nan", "inf", "-inf"])
@pytest.mark.parametrize("entry,model", [
    (entry, model) for entry in TIME_ENTRIES for model in ("kicked", "free")
    if (entry, model) != ("kick_times", "free")])  # only a kicked model has a schedule to refuse
def test_every_entry_point_refuses_a_time_off_the_forward_axis(entry, model, t):
    model = {"kicked": sw.KickedHarmonic(2.0), "free": sw.FreeParticle()}[model]
    with pytest.raises(sw.InvalidInputError) as info:
        TIME_ENTRIES[entry](model, t)
    assert str(info.value).endswith(f"got t={t}")


def test_a_walk_reads_its_kick_schedule_once(monkeypatch):
    model, reads = sw.KickedHarmonic(0.5), []
    schedule = model.kick_times
    monkeypatch.setattr(model, "kick_times", lambda t: reads.append(t) or schedule(t))
    assert len(flow_samples(model, [0.0], [0.0], [0.0, 0.5, 1.0, 2.5, 40.0])) == 5
    assert reads == [40.0]


@pytest.mark.parametrize("model, start, t", [
    (sw.KickedHarmonic(2.0), sw.PhasePoint(1e300, 0.0), 1.5),
    (sw.ParabolicBarrier(1.0), sw.PhasePoint(1e200, 0.0), 300.0)], ids=["kicked", "barrier"])
def test_a_huge_seed_is_refused_where_its_flow_overflows(model, start, t):
    # the walk runs with overflow warnings off and checks every sample
    with pytest.raises(sw.InvalidInputError, match=rf"^the end point or action is not finite at "
                                                   rf"t={t:g}: the flow leaves the floating-point "
                                                   "range$"):
        sw.flow(model, start, t)


def test_the_first_sample_whose_action_overflows_is_named():
    # the second seed's action, p^2 sinh(2t)/4, overflows from t = 300 on;
    # the tangent, cosh(t) at most, never does
    with pytest.raises(sw.InvalidInputError, match=r"^the end point or action is not finite "
                                                   r"at t=300: "):
        flow_samples(sw.ParabolicBarrier(1.0), [0.0, 1e150], [0.0, 0.0], [0.5, 300.0, 350.0])
