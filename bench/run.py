#!/usr/bin/env python3
"""semiwkb benchmark: one workload per process, seeded inputs, checked outputs.

    python3 bench/run.py --workload semiclassical-fan --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from the root of a checkout; the package is imported from ``src/``.  With
``--trace 0`` the last line of standard output is a JSON object holding the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced pass that follows an untraced one.  ``--workload all`` runs every
workload in turn, each in its own process, and prints one row per workload.
``kho-fig2`` is run by hand only: ``BENCHMARK.json`` leaves it out (see
``bench/README.md``).
Details (environment, inputs, every check) go to ``.bench_out/``.
See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, unit_of

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOADS = ("kho-fig2", "semiclassical-fan", "barrier-sweep")
# one pass on a 2-core x86-64 machine; a run makes seconds // NOMINAL passes,
# at least one, so the work in a run is fixed by --seconds alone.  A traced run
# makes half as many untraced passes and as many traced ones.
NOMINAL_PASS_S = {"kho-fig2": 56.0, "semiclassical-fan": 7.5, "barrier-sweep": 17.0}
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("op_s.p50", "s"),
              ("op_s.tail", "s"), ("peak_rss_mb", "MB"))


def _single_threaded_env() -> None:
    # one single-threaded process per workload; must precede the numpy import
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")


def _import_package():
    src = ROOT / "src"
    if not (src / "semiwkb" / "__init__.py").is_file():
        sys.exit(f"bench: no semiwkb package under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import semiwkb  # noqa: F401
    import workloads

    return workloads


# -- environment record ------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, n_ops: dict) -> dict:
    """Machine, versions, thread settings, commit, seed and operations per pass."""
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "seed": seed,
        "operations_per_pass": n_ops,
    }


# -- measuring ---------------------------------------------------------------

def setup_probe(workload: str, seed: int, n_passes: int) -> None:
    """Child process: import, generate inputs, warm up, then report ready."""
    workloads = _import_package()
    workloads.generate_inputs(workload, seed, n_passes)
    workloads.warm_up(workload)
    print("ready", flush=True)


def measure_setup(workload: str, seed: int, seconds: float) -> list:
    """Seconds from process start to ready, once per probe process."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds), "--setup-probe"]
        with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        times.append(elapsed)
    return times


class Pass:
    """One pass over a workload's operations, timed from outside the package."""

    def __init__(self, workloads, workload, inputs, workdir, tracer=None):
        self.tracer = tracer
        self._checking_s = 0.0
        self.ops = workloads.operations(workload, inputs, workdir, self.checking)
        self.results = []

    @contextlib.contextmanager
    def checking(self):
        t0 = time.perf_counter()
        try:
            with self.tracer.paused() if self.tracer else contextlib.nullcontext():
                yield
        finally:
            self._checking_s += time.perf_counter() - t0

    def run(self, first_op_id: int) -> None:
        for i, op in enumerate(self.ops):
            self._checking_s = 0.0
            record = {"op": first_op_id + i, "label": op.label, "error": None, "checks": []}
            t0 = time.perf_counter()
            try:
                with (self.tracer.operation(first_op_id + i) if self.tracer
                      else contextlib.nullcontext()):
                    record["checks"] = op.run()
            except Exception as exc:  # a failed operation is counted, not fatal
                record["error"] = f"{type(exc).__name__}: {exc}"
            record["seconds"] = time.perf_counter() - t0 - self._checking_s
            record["ok"] = record["error"] is None and all(c["ok"] for c in record["checks"])
            self.results.append(record)

    @property
    def seconds(self) -> float:
        return sum(r["seconds"] for r in self.results)


def run_passes(workloads, workload, inputs, workdir, tracer=None, first_op_id=0) -> list:
    passes = []
    for k, pass_inputs in enumerate(inputs):
        p = Pass(workloads, workload, pass_inputs, workdir / f"pass{first_op_id}-{k}", tracer)
        p.run(first_op_id)
        first_op_id += len(p.ops)
        passes.append(p)
    return passes


def passes_for(workload: str, seconds: float) -> int:
    return max(1, int(seconds // NOMINAL_PASS_S[workload]))


def tail(latencies: list) -> tuple:
    """Highest percentile with at least ten samples beyond it, else the maximum."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], f"p{100.0 * (n - 10) / n:g}"
    return xs[-1], "max"


def check_values(passes) -> list:
    return [[(c["name"], c["value"]) for c in r["checks"]] for p in passes for r in p.results]


# -- reporting ---------------------------------------------------------------

def print_table(rows: list) -> None:
    print(f"{'metric':28s} {'value':>16s}  {'unit':6s} better")
    for name, value, unit, better in rows:
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else str(value)
        print(f"{name:28s} {shown:>16s}  {unit:6s} {better}")


def run_workload(args) -> int:
    workloads = _import_package()
    n_passes = passes_for(args.workload, args.seconds / (2 if args.trace else 1))
    inputs = workloads.generate_inputs(args.workload, args.seed, n_passes)
    setup_times = [] if args.trace else measure_setup(args.workload, args.seed, args.seconds)
    workloads.warm_up(args.workload)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        plain = run_passes(workloads, args.workload, inputs, workdir)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced, tracer = [], None
        if args.trace:
            tracer = Tracer()
            tracer.install()
            cpu0 = time.process_time()
            try:
                traced = run_passes(workloads, args.workload, inputs, workdir, tracer,
                                    first_op_id=sum(len(p.ops) for p in plain))
            finally:
                tracer.uninstall()
            cpu_s = time.process_time() - cpu0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    records = [r for p in plain + traced for r in p.results]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    correct = failed == 0
    run_s = statistics.median(p.seconds for p in plain)
    latencies = [r["seconds"] for p in plain for r in p.results]
    tail_value, tail_label = tail(latencies)

    if args.trace:
        consistent = check_values(plain) == check_values(traced)
        correct = correct and consistent
        traced_run_s = statistics.median(p.seconds for p in traced)
        metrics = tracer.layer_metrics()
        metrics["bench.cpu_s"] = cpu_s
        metrics["bench.trace_overhead_frac"] = traced_run_s / run_s - 1.0
        out = {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}
    else:
        metrics = {"setup_s": statistics.median(setup_times), "run_s": run_s,
                   "op_s.p50": statistics.median(latencies), "op_s.tail": tail_value,
                   "peak_rss_mb": peak_rss_mb}
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}

    n_ops = len(plain[0].ops)
    env = environment(args.seed, {
        w: len(workloads.operations(w, workloads.generate_inputs(w, args.seed, 1)[0],
                                    workdir, contextlib.nullcontext))
        for w in WORKLOADS})
    print(f"workload {args.workload}  seed {args.seed}  passes {n_passes}  "
          f"operations/pass {n_ops}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(inputs, sort_keys=True))
    for r in records:
        bad = [c["name"] for c in r["checks"] if not c["ok"]]
        status = "ok" if r["ok"] else "FAIL " + (r["error"] or ", ".join(bad))
        print(f"  op {r['op']:3d} {r['label']:14s} {r['seconds']:9.4f} s  {status}")
    rows = [(name, v["value"], v["unit"], "" if args.trace else "lower")
            for name, v in out.items()]
    if not args.trace:
        rows.append(("failed_frac", f"{failed / attempted:g} ({failed}/{attempted})", "1",
                     "lower"))
    print_table(rows)
    if args.trace:
        print(f"tracing overhead: traced run_s {traced_run_s:.4f} s against untraced "
              f"{run_s:.4f} s; traced and untraced check values "
              f"{'identical' if consistent else 'DIFFER'}")
    else:
        print(f"op_s.tail is {tail_label} of {len(latencies)} operations"
              + ("" if tail_label != "max" else
                 " (fewer than 20: no percentile above the median has ten beyond it)"))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "passes": n_passes, "environment": env, "inputs": inputs,
              "setup_samples_s": setup_times, "op_s_tail_percentile": tail_label,
              "operations": records, "metrics": out,
              "failed_frac": failed / attempted}
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1, sort_keys=True))
    if tracer is not None:
        tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.json")
    print(f"details in {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, one row each."""
    results = {}
    for workload in WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", workload, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(proc.stdout, end="")
            sys.exit(f"bench: workload {workload} exited {proc.returncode} without a result")
        results[workload] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'workload':18s} " + " ".join(f"{n:>14s}" for n in names) + f" {'failed_frac':>12s}")
    print(f"{'':18s} " + " ".join(
        f"{next(iter(results.values()))['metrics'][n]['unit']:>14s}" for n in names)
        + f" {'1':>12s}")
    for workload, res in results.items():
        frac = res["failed"] / res["attempted"]
        print(f"{workload:18s} " + " ".join(
            f"{res['metrics'][n]['value']:14.6g}" for n in names) + f" {frac:12g}")
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _single_threaded_env()
    if args.setup_probe:
        setup_probe(args.workload, args.seed, passes_for(args.workload, args.seconds))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
