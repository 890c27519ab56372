"""Span tracer for the benchmark's traced run, installed from outside the package.

``Tracer.install`` wraps every public function of the package's layer modules
wherever the package binds it: in the defining module and in every
``semiwkb`` module that imported the name (``metaplectic`` imports ``flow``,
``transport_operator`` and others by name).  The methods of the model classes
in ``hamiltonians`` are wrapped on the classes.  Each wrapped call records a
span ``[name, layer, parent, operation, start, end]``; spans are kept in
memory and written out once, when the run ends.  Transforms are not spans:
``numpy.fft`` and ``scipy.fft`` ``fft``/``ifft`` are counted, with summed time,
against the innermost open span's layer.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  Transform time stays in the self time of the layer that
called the transform.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("cli", "experiments", "reference", "metaplectic", "transport",
          "dynamics", "grids", "hamiltonians")
MODEL_METHODS = ("energy", "grad", "hess", "kinetic_energy", "potential_energy",
                 "kick_impulse", "kick_tangent", "kick_phase_jump")
FFT_MODULES = ("numpy.fft", "scipy.fft")
FFT_FUNCTIONS = ("fft", "ifft")

# span record fields
NAME, LAYER, PARENT, OP, START, END = range(6)


class Tracer:
    def __init__(self):
        self.spans = []
        self.active = False
        self.op = None
        self.counts = Counter()
        self.fft = {}            # layer -> [calls, points, flop_computed, seconds]
        self._steps = []         # reference stepping: (span, substeps per unit, t, steps)
        self._stack = []         # open span indices
        self._layers = []        # layer of each open span
        self._patches = []       # (owner, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions, model methods and transforms."""
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"semiwkb.{layer}")
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._span_wrapper(name, layer, obj, _HOOKS.get(name))
        for modname, mod in list(sys.modules.items()):
            if modname != "semiwkb" and not modname.startswith("semiwkb."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        hamiltonians = importlib.import_module("semiwkb.hamiltonians")
        for cls in vars(hamiltonians).values():
            if isinstance(cls, type) and issubclass(cls, hamiltonians.HamiltonianModel):
                for meth in MODEL_METHODS:
                    fn = cls.__dict__.get(meth)
                    if inspect.isfunction(fn):
                        self._patch(cls, meth, self._span_wrapper(
                            f"hamiltonians.{cls.__name__}.{meth}", "hamiltonians", fn, None))

        for modname in FFT_MODULES:
            mod = importlib.import_module(modname)
            for fname in FFT_FUNCTIONS:
                self._patch(mod, fname, self._fft_wrapper(getattr(mod, fname)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, layer, fn, hook):
        spans, stack, layers = self.spans, self._stack, self._layers
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            rec = [name, layer, stack[-1] if stack else -1, self.op, 0.0, 0.0]
            spans.append(rec)
            stack.append(idx)
            layers.append(layer)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                layers.pop()
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, idx, bound.arguments, result)
            return result

        return wrapper

    def _fft_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(x, *args, **kwargs):
            if not self.active:
                return fn(x, *args, **kwargs)
            t0 = perf_counter()
            out = fn(x, *args, **kwargs)
            elapsed = perf_counter() - t0
            layer = self._layers[-1] if self._layers else "bench"
            acc = self.fft.setdefault(layer, [0, 0, 0.0, 0.0])
            n = out.shape[kwargs.get("axis", -1)]
            acc[0] += 1
            acc[1] += out.size
            acc[2] += 5.0 * out.size * math.log2(n) if n > 1 else 0.0
            acc[3] += elapsed
            return out

        return wrapper

    @contextlib.contextmanager
    def operation(self, op_id):
        """Root span of one operation; every span inside it carries ``op_id``."""
        self.op = op_id
        idx = len(self.spans)
        rec = ["bench.operation", "bench", -1, op_id, perf_counter(), 0.0]
        self.spans.append(rec)
        self._stack.append(idx)
        self._layers.append("bench")
        self.active = True
        try:
            yield
        finally:
            self.active = False
            rec[END] = perf_counter()
            self._stack.pop()
            self._layers.pop()
            self.op = None

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        spans = self.spans
        covered = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        self_s, calls, outer_s, outer_calls = Counter(), Counter(), Counter(), Counter()
        kernel_s = 0.0
        model_calls = 0
        for i, rec in enumerate(spans):
            name, layer, parent = rec[NAME], rec[LAYER], rec[PARENT]
            duration = rec[END] - rec[START]
            self_s[layer] += duration - covered[i]
            calls[name] += 1
            if parent < 0 or spans[parent][LAYER] != layer:
                outer_s[layer] += duration
                outer_calls[layer] += 1
            if name == "metaplectic.center_kernel":
                kernel_s += duration
            if layer == "hamiltonians" and name.count(".") == 2:
                model_calls += 1

        c = self.counts
        steps = sum(s[3] for s in self._steps)
        fft_total = [sum(acc[i] for acc in self.fft.values()) for i in range(4)]
        m = {
            "reference.calls": outer_calls["reference"],
            "reference.s": outer_s["reference"],
            "reference.self_s": self_s["reference"],
            "reference.rungs": c["reference.rungs"],
            "reference.steps": steps,
            "reference.useful_ratio": _ratio(c["reference.useful_steps"], steps),
            "fft.calls": fft_total[0],
            "fft.points": fft_total[1],
            "fft.flop_computed": fft_total[2],
            "fft.s": fft_total[3],
        }
        for layer in LAYERS:
            m[f"fft.calls.{layer}"] = self.fft.get(layer, [0])[0]
        m.update({
            "dynamics.flow_calls": calls["dynamics.flow"],
            "dynamics.flow_bundle_calls": calls["dynamics.flow_bundle"],
            "dynamics.trajectories": c["dynamics.trajectories"],
            "dynamics.self_s": self_s["dynamics"],
            "metaplectic.kernel_calls": calls["metaplectic.center_kernel"],
            "metaplectic.kernel_s": kernel_s,
            "transport.map_builds": calls["transport.build_transport_map"],
            "transport.seeds_flowed": c["transport.seeds_flowed"],
            "transport.seed_useful_ratio": _ratio(c["transport.final_seeds"],
                                                  c["transport.seeds_flowed"]),
            "transport.operator_calls": calls["transport.transport_operator"],
            "transport.adjoint_calls": calls["transport.transport_operator_adjoint"],
            "transport.self_s": self_s["transport"],
            "grids.refine_calls": calls["grids.refine_wavefunction"],
            "grids.refined_points": c["grids.refined_points"],
            "grids.ft_calls": calls["grids.hbar_fourier_transform"],
            "grids.self_s": self_s["grids"],
            "metaplectic.extwkb_calls": calls["metaplectic.propagate_extended_wkb"],
            "metaplectic.backward_calls": calls["metaplectic.backward_wkb_test"],
            "metaplectic.thawed_calls": calls["metaplectic.propagate_thawed_gaussian"],
            "metaplectic.apply_calls": calls["metaplectic.apply_metaplectic"],
            "metaplectic.self_s": self_s["metaplectic"],
            "hamiltonians.model_calls": model_calls,
            "hamiltonians.self_s": self_s["hamiltonians"],
            "experiments.calls": outer_calls["experiments"],
            "experiments.self_s": self_s["experiments"],
            "experiments.bytes_written": c["experiments.bytes_written"],
            "cli.calls": outer_calls["cli"],
            "cli.self_s": self_s["cli"],
        })
        return m

    def write(self, path) -> None:
        """Spans as ``[name index, layer index, parent, operation, start, end]``."""
        names = sorted({rec[NAME] for rec in self.spans})
        layers = sorted({rec[LAYER] for rec in self.spans})
        ni = {n: i for i, n in enumerate(names)}
        li = {n: i for i, n in enumerate(layers)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "layer", "parent", "operation", "start", "end"],
                       "names": names, "layers": layers,
                       "fft_by_layer": {k: dict(zip(("calls", "points", "flop_computed",
                                                     "seconds"), v))
                                        for k, v in self.fft.items()},
                       "spans": [[ni[r[NAME]], li[r[LAYER]], r[PARENT], r[OP],
                                  r[START], r[END]] for r in self.spans]},
                      fh, separators=(",", ":"))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "1"
    if name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("flop_computed"):
        return "flop"
    return "count"


def _ratio(num, den) -> float:
    return num / den if den else 0.0


# -- counters taken at layer boundaries -------------------------------------
# each hook runs after a successful call with the bound arguments and result

def _flow_bundle(tr, idx, args, result):
    tr.counts["dynamics.trajectories"] += len(result)


def _build_bundle(tr, idx, args, result):
    tr.counts["transport.seeds_flowed"] += result.n_seeds


def _refined_map(tr, idx, args, result):
    tr.counts["transport.final_seeds"] += result.bundle.n_seeds


def _refine(tr, idx, args, result):
    tr.counts["grids.refined_points"] += result.grid.n_points


def _kho_evolve(tr, idx, args, result):
    # one Yoshida step per substep over [0, t]; kicks fall on step boundaries
    t, per_unit = float(args["t"]), int(args["substeps"])
    tr._steps.append((idx, per_unit, t, max(1, math.ceil(per_unit * t - 1e-9))))


def _split_evolve(tr, idx, args, result):
    t, n = float(args["t"]), int(args["n_substeps"])
    if t != 0 and n != 0:
        tr._steps.append((idx, round(n / t), t, n))


def _exact_state(tr, idx, args, result):
    # a rung is one substep count; the accepted rung's final pass is its run
    # to the end time (sample times before it are re-run from t = 0)
    mine = []
    for step in reversed(tr._steps):
        if step[0] <= idx:
            break
        mine.append(step)
    if not mine:
        return
    t = float(args["t"])
    tr.counts["reference.rungs"] += len({s[1] for s in mine})
    tr.counts["reference.useful_steps"] += sum(
        s[3] for s in mine if s[1] == result.substeps and abs(s[2] - t) <= 1e-9)


def _run_experiment(tr, idx, args, result):
    from semiwkb.experiments import resolve_outdir

    with tr.paused():
        out = resolve_outdir(args["spec"], args["outdir"])
        tr.counts["experiments.bytes_written"] += sum(
            p.stat().st_size for p in out.iterdir() if p.is_file())


_HOOKS = {
    "dynamics.flow_bundle": _flow_bundle,
    "transport.build_bundle": _build_bundle,
    "transport.refined_transport_map": _refined_map,
    "grids.refine_wavefunction": _refine,
    "reference.kho_evolve": _kho_evolve,
    "reference.split_operator_evolve": _split_evolve,
    "reference.exact_state": _exact_state,
    "experiments.run_experiment": _run_experiment,
}
