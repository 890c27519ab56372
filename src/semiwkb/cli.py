"""Command-line entry point.

Subcommands: propagate (semiclassical methods), exact (grid reference,
same output formats for diffability), manifold (classical transport
table), lyapunov (tangent-map exponent and Ehrenfest times), run (batch
experiments), list-specs.  The output directory defaults to ./semiwkb-out
and can be overridden with --out or the SEMIWKB_OUTDIR variable.  Domain
invariant breaches (caustics, boundary mass, failed report bounds) exit
nonzero.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dynamics import ehrenfest_time, flow_bundle, lyapunov_exponent
from .errors import SemiwkbError
from .experiments import (METHODS, MODEL_NAMES, Case, build_model, builtin_specs,
                          get_builtin_spec, initial_coherent_state, load_spec_file,
                          output_root, resolve_outdir, run_experiment, write_table)
from .grids import GridSpec, check_packet_band
from .hamiltonians import PhasePoint, QuadraticPhase
from .metaplectic import profile_for_slope
from .reference import exact_state

_DESCRIPTIONS = {
    "free-exactness": "free flight: slope sweep, fidelity vs exact, manifold independence",
    "integrable-exactness": "quartic dispersion: slow degradation, slanted vs horizontal manifold",
    "barrier-transmission": "inverted parabola: reflected/critical/transmitted trichotomy",
    "kho-fig2": "kicked oscillator: backward profile comparison and fidelity series",
    "kho-slopes": "kicked oscillator: fidelity robustness across initial slopes",
    "kho-lyapunov": "kicked oscillator: stroboscopic exponent and Ehrenfest times",
}


# catalogue parameter -> the models that take it; each gets one flag
_PARAMS = {key: [name for name, keys in MODEL_NAMES.items() if key in keys]
           for keys in MODEL_NAMES.values() for key in keys}


def _model_args(p: argparse.ArgumentParser, **model) -> None:
    p.add_argument("--model", choices=MODEL_NAMES, **model)
    # no default here: a flag left out takes the catalogue's (build_model)
    for key, names in _PARAMS.items():
        p.add_argument(f"--{key}", type=float, default=None,
                       help=f"parameter of the {', '.join(names)} model")


def _phase_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--q0", type=float, default=0.0)
    slope = p.add_mutually_exclusive_group()
    slope.add_argument("--alpha", type=float, default=None,
                       help="initial manifold slope at the center")
    slope.add_argument("--theta-over-halfpi", type=float, default=None,
                       help="slope given as tan(theta), theta in units of pi/2")


def _grid_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--hbar", type=float, required=True)
    p.add_argument("--grid", required=True, metavar="LO,HI,N")


def _parse_grid(text: str) -> GridSpec:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise SemiwkbError(f"--grid wants LO,HI,N, got {text!r}")
    try:
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise SemiwkbError(f"--grid {text!r}: {exc}") from None


def _parse_window(text: str) -> tuple:
    try:
        lo, hi = (float(s) for s in text.split(","))
    except ValueError:
        raise SemiwkbError(f"--window wants LO,HI, got {text!r}") from None
    if not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise SemiwkbError(f"--window wants finite LO < HI, got {text!r}")
    return lo, hi


def _slope(args) -> float:
    if args.theta_over_halfpi is not None:
        return QuadraticPhase.from_theta(args.theta_over_halfpi * math.pi / 2.0).alpha
    return args.alpha if args.alpha is not None else 0.0


def _model(args):
    """The --model, built from the parameter flags the user set."""
    return build_model(args.model, {key: value for key in _PARAMS
                                    if (value := getattr(args, key)) is not None})


def _model_and_grid(args):
    """Model and grid of a run to --t."""
    if not args.hbar > 0:
        raise SemiwkbError(f"--hbar must be positive, got {args.hbar}")
    if not (math.isfinite(args.t) and args.t >= 0):
        raise SemiwkbError(f"--t must be finite and >= 0 (runs go forward), got {args.t}")
    model, grid = _model(args), _parse_grid(args.grid)
    check_packet_band(grid, args.hbar, args.p0)  # the packet either method starts from
    return model, grid


def _outdir(args) -> Path:
    out = Path(args.out) if args.out is not None else output_root()
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit_state(out: Path, prefix: str, state, meta: dict) -> None:
    state.to_csv(out / f"{prefix}_state.csv")
    with open(out / f"{prefix}_meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _cmd_propagate(args) -> int:
    model, grid = _model_and_grid(args)
    alpha = _slope(args)
    out = _outdir(args)
    r = METHODS[args.method](model, Case(args.prefix, alpha, (args.p0, args.q0)),
                             profile_for_slope(alpha), args.hbar, args.t, grid)
    meta = {"method": args.method, "model": args.model, "t": args.t,
            "hbar": args.hbar, "center": [args.p0, args.q0], "slope": alpha,
            "metadata": _jsonable(r.metadata)}
    _emit_state(out, args.prefix, r.state, meta)
    md = r.metadata
    extra = (f" caustic_margin={md['caustic_margin']:.3g} c_t={md['c_t']:.6g}"
             if "caustic_margin" in md else "")
    print(f"{args.method}: wrote {out / (args.prefix + '_state.csv')}"
          f" norm={r.state.norm:.9f}{extra}")
    return 0


def _cmd_exact(args) -> int:
    model, grid = _model_and_grid(args)
    psi0 = initial_coherent_state(grid, args.hbar, (args.p0, args.q0))
    res = exact_state(model, psi0, args.t, tol=args.tol)
    out = _outdir(args)
    meta = {"method": "exact", "model": args.model, "t": args.t,
            "hbar": args.hbar, "center": [args.p0, args.q0],
            "ladder_delta": res.ladder_delta,
            "diagnostics": _jsonable(res.diagnostics)}
    _emit_state(out, args.prefix, res.state, meta)
    diag = res.diagnostics
    steps = f" splits={diag['splits']}" if "splits" in diag else ""
    print(f"exact: wrote {out / (args.prefix + '_state.csv')}"
          f" method={diag['method']}{steps} delta={res.ladder_delta:.3g}")
    return 0


def _cmd_manifold(args) -> int:
    lo, hi = _parse_window(args.window)
    if args.n_seeds < 2:
        raise SemiwkbError(f"--n-seeds must be at least 2, got {args.n_seeds}")
    model = _model(args)
    alpha = _slope(args)
    seeds = np.linspace(lo, hi, args.n_seeds)
    phase0 = QuadraticPhase(args.p0, args.q0, alpha)
    p_seed = phase0.grad(seeds)
    fb = flow_bundle(model, p_seed, seeds, args.t)
    # position-map derivative along the manifold: row q of the tangent
    # contracted with the seed direction (alpha, 1)
    dphi = fb.tangent[:, 1, 0] * alpha + fb.tangent[:, 1, 1]
    out = _outdir(args)
    path = out / f"{args.prefix}_manifold.csv"
    write_table(path, ["q_seed", "p_seed", "q_t", "p_t", "dphi", "action"],
                zip(seeds, p_seed, fb.q, fb.p, dphi, fb.action))
    margin = float(np.min(np.abs(dphi)))
    sym = fb.symplectic_defect()
    print(f"manifold: wrote {path} caustic_margin={margin:.6g} "
          f"symplectic_defect={sym:.3g}")
    if np.any(dphi <= 0.0) or margin == 0.0:
        print("caustic inside the window (position map not increasing)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_lyapunov(args) -> int:
    lam = lyapunov_exponent(_model(args), PhasePoint(0.0, 0.0), args.period)
    lines = [f"lambda = {lam:.9f}"]
    for hb in args.hbars:
        lines.append(f"T_E(hbar={hb:g}) = {ehrenfest_time(lam, hb):.9f}")
    print("\n".join(lines))
    if args.out is not None:
        out = _outdir(args)
        with open(out / "lyapunov.json", "w", encoding="utf-8") as fh:
            json.dump({"lambda": lam,
                       "ehrenfest_times": {str(hb): ehrenfest_time(lam, hb)
                                           for hb in args.hbars}},
                      fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


def _breaches(node, path="report"):
    # a check's verdict is a <key>_ok entry; each one that came out False is a breach
    found = []
    if isinstance(node, dict):
        for key, val in node.items():
            here = f"{path}.{key}"
            if key.endswith("_ok") and val is False:
                found.append(here)
            else:
                found.extend(_breaches(val, here))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            found.extend(_breaches(val, f"{path}[{i}]"))
    return found


def _cmd_run(args) -> int:
    spec = load_spec_file(args.config) if args.config is not None else get_builtin_spec(args.spec)
    report = run_experiment(spec, outdir=args.out)
    out = resolve_outdir(spec, args.out)
    breaches = _breaches(report["results"])
    print(f"{spec.name}: report at {out / 'report.json'} "
          f"({len(report['artifacts'])} csv artifacts)")
    for b in breaches:
        print(f"breach: {b}", file=sys.stderr)
    return 1 if breaches else 0


def _cmd_list_specs(_args) -> int:
    for spec in builtin_specs():
        desc = _DESCRIPTIONS.get(spec.name, spec.kind)
        print(f"{spec.name:24s} {spec.model:8s} {desc}")
    return 0


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="semiwkb",
        description="semiclassical propagation toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("propagate", help="semiclassical propagation")
    _model_args(p, required=True)
    _phase_args(p)
    _grid_args(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--method", choices=METHODS, default="extwkb")
    p.add_argument("--out", default=None)
    p.add_argument("--prefix", default="propagate")
    p.set_defaults(fn=_cmd_propagate)

    p = sub.add_parser("exact", help="grid reference propagation")
    _model_args(p, required=True)
    _phase_args(p)
    _grid_args(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)
    p.add_argument("--prefix", default="exact")
    p.set_defaults(fn=_cmd_exact)

    p = sub.add_parser("manifold", help="classical transport table")
    _model_args(p, required=True)
    _phase_args(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--window", default="-1.0,1.0", metavar="LO,HI")
    p.add_argument("--n-seeds", type=int, default=129)
    p.add_argument("--out", default=None)
    p.add_argument("--prefix", default="manifold")
    p.set_defaults(fn=_cmd_manifold)

    p = sub.add_parser("lyapunov", help="stroboscopic exponent and T_E")
    _model_args(p, default="kho")
    p.add_argument("--period", type=float, default=1.0)
    p.add_argument("--hbars", type=float, nargs="+", default=[0.0008])
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_lyapunov)

    p = sub.add_parser("run", help="run a named or configured experiment")
    tgt = p.add_mutually_exclusive_group(required=True)
    tgt.add_argument("--spec", help="builtin experiment name")
    tgt.add_argument("--config", help="spec config file")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("list-specs", help="list builtin experiments")
    p.set_defaults(fn=_cmd_list_specs)
    return ap


# built once, on import: every build spends milliseconds in argparse's
# gettext lookups, and the first one also imports locale
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        return args.fn(args)
    except SemiwkbError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
