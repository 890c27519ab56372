"""
Batch experiments: named specs, deterministic artifacts
=======================================================

Every figure-style study ships as a named ExperimentSpec; running one
produces plot-ready CSV tables plus a report.json whose recorded checks
double as regression gates.  Reruns are byte-identical except for the
wall-clock "runtimes" entry.  The same specs are reachable from the
command line: `semiwkb run --spec kho-lyapunov`.
"""
import json
import tempfile
from pathlib import Path

from semiwkb.experiments import (builtin_specs, get_builtin_spec,
                                 load_spec_file, read_table, run_experiment)

# ---------------------------------------------------------------------
# the shipped catalog
for spec in builtin_specs():
    print(f"{spec.name:24s} model={spec.model:8s} kind={spec.kind}")

# ---------------------------------------------------------------------
# run the cheapest one: tangent-map exponent plus Ehrenfest times
with tempfile.TemporaryDirectory(prefix="semiwkb-demo-") as tmp:
    outdir = Path(tmp)
    report = run_experiment(get_builtin_spec("kho-lyapunov"), outdir)
    res = report["results"]
    print(f"\nlambda = {res['lyapunov_exponent']:.9f} "
          f"(baseline match: {res['matches_baseline']})")
    print(f"T_E(hbar=0.0008) = {res['ehrenfest_time']:.6f}")
    print(f"artifacts in {outdir}: {report['artifacts']}")

    header, cols = read_table(outdir / "lyapunov_convergence.csv")
    print(f"finite-n estimates: n=1 gives {cols['lambda_n'][0]:.4f}, "
          f"n=25 gives {cols['lambda_n'][-1]:.6f}")

    # ---------------------------------------------------------------------
    # custom studies are plain config files with one section per case
    cfg = outdir / "custom.ini"
    cfg.write_text("""\
[experiment]
name = free-demo
kind = exactness
model = free
hbar = 0.05
times = 2.0, 4.0
grid = -12, 20, 4096
methods = extwkb, thawed, exact

[case flat]
p0 = 1.0

[case tilted]
p0 = 1.0
theta_over_halfpi = 0.25
""")
    spec = load_spec_file(cfg)
    report = run_experiment(spec, outdir / spec.name)
    print(f"\n{spec.name}: min fidelity {report['results']['min_fidelity']:.9f}, "
          f"pairwise {report['results']['pairwise_final_fidelity_min']:.9f}")
    with open(outdir / spec.name / "report.json") as fh:
        print(f"report keys: {sorted(json.load(fh))}")
