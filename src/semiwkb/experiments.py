"""Named batch experiments with deterministic CSV/JSON artifacts.

Each experiment is an ExperimentSpec naming a model, an initial family
(slope cases around a common Gaussian envelope), times, a grid and its
methods.  load_spec_file reads one from a config file, the builtin ones from
data/specs, and ExperimentSpec.validate checks every spec before it runs.
METHODS is the table of semiclassical methods, one row each.  The kinds that
compare take one exact reference per case center and read one record stream,
_records, which runs each row the spec lists against it for each case and
time; they need "extwkb", and "exact", always the reference, is no row.  Each
such kind is a projection of the records: exactness adds L2 distances and
pairwise final fidelities, backward-profiles runs the backward test on each
record as it arrives, and slope-sweep reads the records at the last time.
run_experiment writes plot-ready CSV files plus a report.json, whose results
carry the verdicts of the checks in data/regression_baselines.json, and returns
the report.  Reruns of the same spec are byte-identical except for the report's
"runtimes" entry, which records wall-clock seconds and is documented volatile.
"""
from __future__ import annotations

import configparser
import csv
import functools
import itertools
import json
import math
import operator
import os
import time
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from importlib import resources
from pathlib import Path

import numpy as np

from .dynamics import ehrenfest_time, flow, lyapunov_exponent, period_tangent
from .errors import InvalidInputError, SpecError, SpecNotFoundError
from .grids import GridSpec, WaveFunction, band_mass, check_hbar, check_packet_band
from .hamiltonians import (FreeParticle, IntegrableMomentum, KickedHarmonic,
                           ParabolicBarrier, PhasePoint, QuadraticPhase)
from .metaplectic import (backward_wkb_test, profile_for_slope,
                          propagate_extended_wkb, propagate_thawed_gaussian)
from .reference import exact_state, expectation_p, expectation_q, fidelity

__all__ = [
    "Case", "ExperimentSpec", "METHODS", "MODEL_NAMES",
    "build_model", "initial_coherent_state", "load_baselines",
    "write_table", "read_table",
    "run_experiment", "builtin_specs", "get_builtin_spec", "load_spec_file",
    "resolve_outdir", "OUTDIR_ENV",
]

OUTDIR_ENV = "SEMIWKB_OUTDIR"


def _quartic(epsilon: float) -> IntegrableMomentum:
    if not epsilon >= 0:
        raise InvalidInputError(f"epsilon must be nonnegative, got {epsilon}")
    return IntegrableMomentum(
        lambda xi: 0.5 * xi ** 2 + epsilon * xi ** 4,
        lambda xi: xi + 4.0 * epsilon * xi ** 3,
        lambda xi: 1.0 + 12.0 * epsilon * xi ** 2,
    )


# model name -> (parameter defaults, constructor): the one home of both
_MODELS = {
    "free": ({}, FreeParticle),
    "quartic": ({"epsilon": 0.1}, _quartic),
    "barrier": ({"v0": 1.0}, ParabolicBarrier),
    "kho": ({"k": 2.0}, KickedHarmonic),
}
# model name -> the names of its parameters; iterating it gives the model names
MODEL_NAMES = {name: tuple(defaults) for name, (defaults, _) in _MODELS.items()}

# label, manifold slope at the center, center as (p, q)
Case = namedtuple("Case", "label slope center")


def _extwkb(model, case, profile, hbar, t, grid):
    return propagate_extended_wkb(model, QuadraticPhase(*case.center, case.slope),
                                  profile, hbar, t, grid)


def _thawed(model, case, profile, hbar, t, grid):
    return propagate_thawed_gaussian(model, PhasePoint(*case.center), 1j, hbar, t, grid)


# method name -> propagate(model, case, profile, hbar, t, grid) ->
# PropagationResult, run on the caller's profile object, which the pipeline's
# cache knows by identity.  "exact", the reference, is no row; a spec may list it
METHODS = {"extwkb": _extwkb, "thawed": _thawed}


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    kind: str
    model: str
    model_params: tuple = ()
    hbar: float = 0.05
    times: tuple = ()
    grid: GridSpec = field(default_factory=lambda: GridSpec(-8.0, 8.0, 8192))
    methods: tuple = ("extwkb", "exact")
    cases: tuple = (Case("center", 0.0, (0.0, 0.0)),)
    outdir: str | None = None

    def __hash__(self):
        # validate is cached on the spec, so a field that cannot hash is refused by name
        values = tuple(getattr(self, f.name) for f in fields(self))
        for f, value in zip(fields(self), values):
            try:
                hash(value)
            except TypeError:
                raise SpecError(f"spec field {f.name} must be hashable (a tuple, "
                                f"not a list), got {value!r}") from None
        return hash(values)

    @functools.lru_cache(maxsize=1)  # load_spec_file, then run_experiment: one build
    def validate(self):
        """Check the spec and return its model, kept for the last spec checked."""
        if self.kind not in _ANALYSES:
            raise SpecError(f"unknown experiment kind {self.kind!r}")
        model = build_model(self.model, self.model_params)
        bad = [m for m in self.methods if m not in (*METHODS, "exact")]
        if bad:
            raise SpecError(f"unimplemented methods {bad}")
        if (self.kind in ("exactness", "backward-profiles", "slope-sweep")
                and "extwkb" not in self.methods):  # each reads extended WKB's map
            raise SpecError(f"kind {self.kind} compares extended WKB with the reference; "
                            f"its methods need extwkb, got {list(self.methods)}")
        check_hbar(self.hbar, SpecError)
        if not (self.times and all(map(math.isfinite, self.times))
                and self.times[0] >= 0 and list(self.times) == sorted(self.times)):
            raise SpecError(f"spec needs finite times >= 0 in ascending order, got {self.times}")
        labels = [c.label for c in self.cases]
        if not (labels and all(labels) and len(set(labels)) == len(labels)):
            raise SpecError(f"spec needs one or more cases with unique, nonempty labels, "
                            f"got {labels}")
        for c in self.cases:
            if not all(map(math.isfinite, (*c.center, c.slope))):
                raise SpecError(f"case {c.label!r} needs a finite p0, q0 and slope")
            check_packet_band(self.grid, self.hbar, c.center[0], SpecError, f"case {c.label!r}")
        if self.kind == "slope-sweep" and all(c.slope != 0.0 for c in self.cases):
            raise SpecError("slope sweep needs a slope-zero reference case")
        if self.kind == "backward-profiles" and len(self.cases) > 1:
            raise SpecError("backward profiles take exactly one case")
        return model


def build_model(name: str, params=()):
    """The model named ``name``; ``params`` maps some of its parameters to
    finite values (a dict or (name, value) pairs), and a parameter left out
    takes its catalogue default.  An unknown model, a parameter the model
    lacks or a value that is not finite raises SpecError."""
    if name not in _MODELS:
        raise SpecError(f"unknown model {name!r}")
    defaults, make = _MODELS[name]
    params = dict(params)
    for key, value in params.items():
        if key not in defaults:
            raise SpecError(f"model {name!r} has no parameter {key!r} "
                            f"(allowed: {', '.join(defaults) or 'none'})")
        if not math.isfinite(value):
            raise SpecError(f"model {name!r} parameter {key!r} must be finite, got {value}")
    return make(**{**defaults, **params})


def initial_coherent_state(grid: GridSpec, hbar: float, center) -> WaveFunction:
    """Plain Gaussian wave packet at a phase-space point (p, q).

    This is the state every slope case represents: pairing the quadratic
    phase of slope alpha with profile_for_slope(alpha) cancels the chirp,
    so all methods start from this one function.  A packet whose momentum
    band passes the grid's Nyquist momentum would alias and is refused
    (grids.check_packet_band).
    """
    p0, q0 = center
    if not (math.isfinite(p0) and math.isfinite(q0)):
        raise InvalidInputError(f"the packet's center must be finite, got ({p0}, {q0})")
    check_hbar(hbar)
    check_packet_band(grid, hbar, p0)
    x = grid.x
    vals = (np.pi * hbar) ** -0.25 * np.exp(
        1j * p0 * (x - q0) / hbar - (x - q0) ** 2 / (2.0 * hbar))
    return WaveFunction(grid, vals, hbar)


def load_baselines() -> dict:
    """Checked-in regression values and the checks run_experiment applies."""
    text = resources.files(__package__).joinpath(
        "data/regression_baselines.json").read_text(encoding="utf-8")
    return json.loads(text)


def _found(node, path: str) -> list:
    """(holder, key) of each value a dotted path names: an integer step takes
    one list item, "*" every item, and a holder without the last key is passed."""
    *steps, last = path.split(".")
    holders = [node]
    for step in steps:
        holders = [x for h in holders for x in
                   (h if step == "*" else [h[int(step) if isinstance(h, list) else step]])]
    return [(h, last) for h in holders if last in h]


def _apply_checks(spec: ExperimentSpec, results: dict) -> None:
    """Write the verdicts of the checks of the spec's kind and of those frozen
    under its name into the results; the baselines file describes the format."""
    base = load_baselines()
    for c in base["kinds"].get(spec.kind, []) + base["specs"].get(spec.name, []):
        bound = c["bound"]
        if isinstance(bound, str):  # the path of a value frozen elsewhere in the file
            bound = functools.reduce(dict.get, bound.split("."), base)
        verdicts = []
        for holder, key in _found(results, c["path"]):
            value = holder[key]
            ok = None if value is None else bool(
                abs(value - bound) < c["tol"] if c["op"] == "near"
                else getattr(operator, c["op"])(value, bound))
            verdicts.append(ok)
            if "ok" not in c:
                holder[f"{key}_ok"], holder[f"{key}_bound"] = ok, bound
        if "ok" in c:
            results.update(dict.fromkeys(c["ok"], all(verdicts)))
            results[c["bound_key"]] = bound


def output_root() -> Path:
    """SEMIWKB_OUTDIR, or ./semiwkb-out when it is unset or empty."""
    return Path(os.environ.get(OUTDIR_ENV) or "semiwkb-out")


def resolve_outdir(spec: ExperimentSpec, outdir=None) -> Path:
    if outdir is not None:
        return Path(outdir)
    if spec.outdir is not None:
        return Path(spec.outdir)
    return output_root() / spec.name


def write_table(path, header, rows) -> None:
    """CSV with \\n line endings and floats at full round-trip precision.

    None, a value no method produced, is written as nan.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])


def read_table(path):
    """Inverse of write_table: (header, dict column -> float array or str list)."""
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        header = next(r)
        raw = list(r)
    cols = {}
    for j, name in enumerate(header):
        vals = [row[j] for row in raw]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = vals
    return header, cols


def _cell(v):
    if v is None:
        v = math.nan
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


@contextmanager
def _stage(name):
    # failures surface with the experiment stage prepended, same type
    try:
        yield
    except Exception as exc:
        first = str(exc.args[0]) if exc.args else exc.__class__.__name__
        exc.args = (f"[stage {name}] {first}",) + tuple(exc.args[1:])
        raise


def _spec_dict(spec: ExperimentSpec) -> dict:
    return {
        "name": spec.name,
        "kind": spec.kind,
        "model": spec.model,
        "model_params": {k: v for k, v in spec.model_params},
        "hbar": spec.hbar,
        "times": list(spec.times),
        "grid": [spec.grid.x_min, spec.grid.x_max, spec.grid.n_points],
        "methods": list(spec.methods),
        "cases": [{"label": c.label, "slope": c.slope,
                   "center": list(c.center)} for c in spec.cases],
    }


def _ehrenfest_diagnostic(model, center, t: float, hbar: float) -> float:
    fr = flow(model, PhasePoint(*center), t)
    return math.sqrt(hbar) * float(np.linalg.norm(fr.tangent, 2))


def _phase_derivative(u, vals):
    """d(arg)/du where the amplitude clears 0.1 of its peak, NaN elsewhere.

    The phase is unwrapped across the contiguous span between the first
    and last point above the floor; outside it the phase is noise.
    """
    amp = np.abs(vals)
    out = np.full(u.shape, math.nan)
    mask = amp >= 0.1 * float(amp.max())
    idx = np.nonzero(mask)[0]
    if idx.size < 3:
        return out
    i0, i1 = int(idx[0]), int(idx[-1])
    seg = np.unwrap(np.angle(vals[i0:i1 + 1]))
    out[i0:i1 + 1] = np.gradient(seg, u[i0:i1 + 1])
    out[~mask] = math.nan
    return out


def _exact_by_center(spec, model, record):
    """One exact reference per distinct case center, sampled at spec.times."""
    states = {}
    with _stage("reference"):
        for case in spec.cases:
            if case.center in states:
                continue
            psi0 = initial_coherent_state(spec.grid, spec.hbar, case.center)
            t0 = time.perf_counter()
            states[case.center] = exact_state(model, psi0, spec.times[-1],
                                              sample_times=spec.times)
            record[f"exact@{case.label}"] = time.perf_counter() - t0
    return states


def _records(spec, model, exact, times):
    """For each case, then each of ``times``: run every row of METHODS the spec
    lists from the case's profile and compare it with the exact state.

    Yields (case, its profile object, the exact state, the extended-WKB result,
    each row's fidelity or None where the spec does not list the row, the report
    entry the comparison kinds share), one record at a time: the pipeline's
    one-entry cache keys the profile by identity, so a backward test run on a
    record as it arrives reuses the forward run's map."""
    for case in spec.cases:
        profile = profile_for_slope(case.slope)
        for t in times:
            e = exact[case.center].samples[float(t)]
            runs, fids = {}, dict.fromkeys(METHODS)
            for name, propagate in METHODS.items():
                if name in spec.methods:
                    with _stage(f"{name} {case.label} t={t:g}"):
                        runs[name] = propagate(model, case, profile, spec.hbar, t, spec.grid)
                    fids[name] = fidelity(runs[name].state, e)
            md = runs["extwkb"].metadata
            yield case, profile, e, runs["extwkb"], fids, {
                "t": t, "fidelity": fids["extwkb"], "thawed_fidelity": fids["thawed"],
                "window": list(md["window"]), **{k: md[k] for k in (
                    "c_t", "caustic_margin", "non_contraction_certificate")},
                "ehrenfest_diagnostic": _ehrenfest_diagnostic(model, case.center, t, spec.hbar),
            }


# ---------------------------------------------------------------------------
# analysis routines, one per experiment kind

def _run_exactness(spec, model, outdir, record):
    exact = _exact_by_center(spec, model, record)
    columns = ("l2_distance", "caustic_margin", "non_contraction_certificate", "c_t",
               "ehrenfest_diagnostic")
    rows, finals, per_time = [], {}, {case.label: [] for case in spec.cases}
    for case, _, e, r, fids, entry in _records(spec, model, exact, spec.times):
        diff = r.state.values - e.values
        entry["l2_distance"] = math.sqrt(float(np.sum(np.abs(diff) ** 2) * spec.grid.dx))
        rows.append([case.label, case.slope, entry["t"], *fids.values(),
                     *(entry[k] for k in columns)])
        per_time[case.label].append(entry)
        finals[case.label] = r.state
    write_table(outdir / "fidelity_series.csv",
                ["label", "slope", "t", *(f"fidelity_{name}" for name in METHODS), *columns],
                rows)

    # manifold independence: the same physical state propagated over
    # different slope representations must land on the same final state
    pair_rows = [[a, b, fidelity(finals[a], finals[b])]
                 for a, b in itertools.combinations(finals, 2)]
    if pair_rows:
        write_table(outdir / "pairwise_final_fidelity.csv",
                    ["label_a", "label_b", "fidelity"], pair_rows)

    return {
        "cases": [{"label": case.label, "slope": case.slope, "center": list(case.center),
                   "per_time": per_time[case.label]} for case in spec.cases],
        "min_fidelity": min(e["fidelity"] for es in per_time.values() for e in es),
        "pairwise_final_fidelity_min": min([1.0] + [f for *_, f in pair_rows])
        if pair_rows else None,
        "reference": {case.label: {
            "ladder_delta": exact[case.center].ladder_delta,
            "method": exact[case.center].diagnostics.get("method"),
        } for case in spec.cases},
    }


def _run_barrier_sweep(spec, model, outdir, record):
    lam = model.lam
    half_band = 3.0 * math.sqrt(spec.hbar)
    exact = _exact_by_center(spec, model, record)
    rows = []
    case_reports = []
    band_mass_critical = None
    for case in spec.cases:
        res = exact[case.center]
        p0, q0 = case.center
        offset = p0 + lam * q0
        q_series = []
        for t in spec.times:
            state = res.samples[float(t)]
            q_series.append((float(t), expectation_q(state), expectation_p(state)))
            rows.append([case.label, *q_series[-1]])
        final_q = q_series[-1][1]
        entry = {
            "label": case.label, "center": list(case.center),
            "offset": offset,
            "q_series": [[t, q] for t, q, _ in q_series],
            "final_q": final_q, "final_p": q_series[-1][2],
            "ladder_delta": res.ladder_delta,
            "ehrenfest_diagnostic": _ehrenfest_diagnostic(
                model, case.center, spec.times[-1], spec.hbar),
        }
        if offset != 0.0:
            entry["sign_match"] = bool(final_q * offset > 0.0)
        else:
            with _stage(f"band mass {case.label}"):
                band_mass_critical = band_mass(res.state, lam, half_band)
            entry["band_mass"] = band_mass_critical
        case_reports.append(entry)
    write_table(outdir / "expectation_series.csv",
                ["label", "t", "mean_q", "mean_p"], rows)
    return {
        "lambda": lam,
        "cases": case_reports,
        "band_halfwidth": half_band,
        "critical_band_mass": band_mass_critical,
        "caustic_margins": None,  # no transport leg in this experiment
        "non_contraction_certificate": None,
    }


def _run_backward_profiles(spec, model, outdir, record):
    case = spec.cases[0]
    phase0 = QuadraticPhase(*case.center, case.slope)
    exact = _exact_by_center(spec, model, record)
    columns = ("backward_l2", "pointwise_peak", "c_t", "caustic_margin")
    fid_rows, per_time = [], []
    for _, profile, e, fwd, fids, entry in _records(spec, model, exact, spec.times):
        t = entry["t"]
        # run on the record's profile object as it arrives, the backward test reuses
        # the forward run's map (the pipeline's cache): entry's map diagnostics are its too
        with _stage(f"backward t={t:g}"):
            back = backward_wkb_test(model, phase0, profile, spec.hbar, t, spec.grid, e)
        dphi_exact = _phase_derivative(back.u, back.exact_profile)
        dphi_meta = _phase_derivative(back.u, back.metaplectic_profile)
        write_table(outdir / f"backward_profile_t{t:g}.csv",
                    ["u", "exact_abs", "exact_phase_derivative",
                     "metaplectic_abs", "metaplectic_phase_derivative"],
                    zip(back.u, np.abs(back.exact_profile), dphi_exact,
                        np.abs(back.metaplectic_profile), dphi_meta))

        diff = fwd.state.values - e.values
        peak = float(np.abs(e.values).max())
        mask = np.abs(e.values) > 0.1 * peak
        entry.update(backward_l2=back.l2_distance, pointwise_peak=float(
            np.abs(diff[mask]).max() / peak) if mask.any() else 0.0)
        fid_rows.append([t, *fids.values(), *(entry[k] for k in columns)])
        per_time.append(entry)
    write_table(outdir / "fidelity_series.csv",
                ["t", *(f"fidelity_{name}" for name in METHODS), *columns], fid_rows)

    final = per_time[-1]
    return {
        "per_time": per_time,
        "final_beats_thawed": None if final["thawed_fidelity"] is None
        else bool(final["fidelity"] > final["thawed_fidelity"]),
        "reference": {"ladder_delta": exact[case.center].ladder_delta},
    }


def _run_slope_sweep(spec, model, outdir, record):
    t_final = spec.times[-1]
    exact = _exact_by_center(spec, model, record)
    per_case = [{"label": case.label, "slope": case.slope, **{
        k: entry[k] for k in ("fidelity", "window", "caustic_margin",
                              "non_contraction_certificate")}}
                for case, *_, entry in _records(spec, model, exact, (t_final,))]
    fid0 = next(p["fidelity"] for p in per_case if p["slope"] == 0.0)
    rows = []
    for p in per_case:
        p["degradation"] = fid0 - p["fidelity"]
        rows.append([p["label"], p["slope"], p["fidelity"], p["degradation"],
                     *p["window"], p["caustic_margin"]])
    write_table(outdir / "slope_fidelity.csv",
                ["label", "slope", "fidelity", "degradation",
                 "window_lo", "window_hi", "caustic_margin"], rows)
    return {
        "t": t_final,
        "per_case": per_case,
        "reference_fidelity": fid0,
        "worst_degradation": max(p["degradation"] for p in per_case),
    }


def _run_lyapunov(spec, model, outdir, record):
    period = spec.times[-1]
    origin = PhasePoint(0.0, 0.0)
    with _stage("tangent map"):
        m = period_tangent(model, origin, period)
        lam = lyapunov_exponent(model, origin, period)

    # convergence of the finite-n estimate; renormalize to avoid overflow
    v = np.array([1.0, 0.0])
    acc = 0.0
    rows = []
    for n in range(1, 26):
        v = m @ v
        growth = float(np.linalg.norm(v))
        acc += math.log(growth)
        v /= growth
        rows.append([n, acc / (n * period)])
    write_table(outdir / "lyapunov_convergence.csv", ["n", "lambda_n"], rows)
    return {
        "lyapunov_exponent": lam,
        "ehrenfest_time": ehrenfest_time(lam, spec.hbar),
        "hbar": spec.hbar,
        "period": period,
        "tangent_eigenvalues": sorted(
            float(abs(e)) for e in np.linalg.eigvals(m)),
    }


_ANALYSES = {
    "exactness": _run_exactness,
    "barrier-sweep": _run_barrier_sweep,
    "backward-profiles": _run_backward_profiles,
    "slope-sweep": _run_slope_sweep,
    "lyapunov": _run_lyapunov,
}


def run_experiment(spec: ExperimentSpec, outdir=None) -> dict:
    """Run one named experiment; write CSV artifacts and report.json.

    Outputs are deterministic for a fixed spec (fixed evaluation order,
    no timestamps in data files); the report's "runtimes" values are
    wall-clock and vary between runs.
    """
    model = spec.validate()
    out = resolve_outdir(spec, outdir)
    out.mkdir(parents=True, exist_ok=True)
    runtimes: dict = {}
    started = time.perf_counter()
    results = _ANALYSES[spec.kind](spec, model, out, runtimes)
    _apply_checks(spec, results)
    runtimes["total_s"] = time.perf_counter() - started
    artifacts = sorted(p.name for p in out.iterdir() if p.suffix == ".csv")
    report = {
        "name": spec.name,
        "kind": spec.kind,
        "spec": _spec_dict(spec),
        "results": results,
        "artifacts": artifacts,
        "runtimes": runtimes,
        "runtimes_note": "wall-clock seconds; volatile, not covered by "
                         "the byte-identical rerun guarantee",
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def _builtin_files() -> dict:
    """Spec name -> file for each data/specs/<order>-<name>.ini, in file-name order."""
    files = resources.files(__package__).joinpath("data/specs").iterdir()
    return {f.name.partition("-")[2].removesuffix(".ini"): f
            for f in sorted(files, key=lambda f: f.name) if f.name.endswith(".ini")}


def builtin_specs() -> list:
    """The bundled experiments, in the order of their files."""
    return [load_spec_file(f) for f in _builtin_files().values()]


def get_builtin_spec(name: str) -> ExperimentSpec:
    files = _builtin_files()
    if name not in files:
        raise SpecError(f"no builtin experiment {name!r} (known: {', '.join(files)})")
    return load_spec_file(files[name])


def load_spec_file(path) -> ExperimentSpec:
    """Read an ExperimentSpec from a config file: a path or an importlib.resources file.

    Sections: [experiment] with name, kind, model, hbar, times, grid, methods
    and optional outdir; optional [model] with numeric values of the model's own
    parameters; one [case NAME] section per case with p0, q0 and at most one of
    slope and theta_over_halfpi (in units of pi/2).  A file that cannot be read
    raises SpecNotFoundError; any other defect, an unknown section or key among
    them, raises SpecError.
    """
    # [DEFAULT] takes no key; [model] the model's own parameters, checked by build_model
    allowed = {"DEFAULT": set(), "case": {"p0", "q0", "slope", "theta_over_halfpi"},
               "experiment": {"name", "kind", "model", "hbar", "times", "grid", "methods",
                              "outdir"}}
    cp = configparser.ConfigParser()
    cp.add_section("model")  # the file's [model], if any, fills it
    try:
        source = path if hasattr(path, "read_text") else Path(path)
        cp.read_string(source.read_text(encoding="utf-8"), source=str(path))
        if "experiment" not in cp:
            raise SpecError("no [experiment] section")
        cases = []
        for section, sec in cp.items():
            kind = "case" if section.startswith("case ") else section
            if kind == "model":
                continue
            if kind not in allowed:
                raise SpecError(f"unknown section [{section}]")
            unknown = set(sec) - allowed[kind]
            if unknown:
                raise SpecError(f"[{section}] takes no key {', '.join(sorted(unknown))} "
                                f"(allowed: {', '.join(sorted(allowed[kind])) or 'none'})")
            if kind != "case":
                continue
            if "slope" in sec and "theta_over_halfpi" in sec:
                raise SpecError(f"[{section}] gives both slope and theta_over_halfpi")
            theta = sec.getfloat("theta_over_halfpi", 0.0) * math.pi / 2.0
            slope = sec.getfloat("slope", QuadraticPhase.from_theta(theta).alpha)
            cases.append(Case(section[len("case "):].strip(), slope,
                              (sec.getfloat("p0", 0.0), sec.getfloat("q0", 0.0))))
        exp = cp["experiment"]
        lo, hi, n = exp["grid"].split(",")
        spec = ExperimentSpec(
            name=exp["name"], kind=exp["kind"], model=exp["model"],
            model_params=tuple(sorted((k, float(v)) for k, v in cp["model"].items())),
            hbar=float(exp["hbar"]), times=tuple(float(s) for s in exp["times"].split(",")),
            grid=GridSpec(float(lo), float(hi), int(n)),
            methods=tuple(s.strip() for s in exp.get("methods", "extwkb, exact").split(",")),
            cases=tuple(cases), outdir=exp.get("outdir"))
    except OSError:
        raise SpecNotFoundError(f"cannot read config {str(path)!r}") from None
    except (configparser.Error, KeyError, ValueError) as exc:
        what = f"no key {exc}" if isinstance(exc, KeyError) else " ".join(str(exc).split())
        raise SpecError(f"config {str(path)!r}: {what}") from None
    spec.validate()
    return spec
