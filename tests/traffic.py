"""Which functions of the package its callers' traffic never runs.

Line-traces, with the standard library's ``trace``, the traffic through
which the package is used, in a temporary directory:

- every builtin experiment (``semiwkb run --spec``) and ``list-specs``;
- the command lines of README's "Command line" section: the kicked
  headline ``propagate`` (extended WKB and thawed) and ``exact``
  (``k = 2``, hbar = 8e-4, ``[-4, 4] x 8192``, ``t = 4``), ``manifold``
  and ``lyapunov``;
- one pass of each workload of bench/workloads.py, after its warm-up;
- the five demos;

and prints each function or method of src/semiwkb whose body never ran,
with its line: each is either a removal candidate or a caller the traffic
misses.  Tests are not traffic: a name only tests reach is listed.  Run it
from anywhere as

    python tests/traffic.py

It takes a few seconds.  never_run(traffic) is the same check for any
callable.
"""
from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import runpy
import sys
import tempfile
import trace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "semiwkb"
HEADLINE = ["--model", "kho", "--k", "2", "--hbar", "0.0008", "--grid=-4,4,8192", "--t", "4"]
COMMANDS = [
    ["propagate", *HEADLINE, "--method", "extwkb", "--prefix", "extwkb"],
    ["propagate", *HEADLINE, "--method", "thawed", "--prefix", "thawed"],
    ["exact", *HEADLINE],
    ["manifold", "--model", "barrier", "--v0", "1", "--t", "2", "--alpha=0.5", "--window=-1,1"],
    ["lyapunov", "--model", "kho", "--k", "2", "--hbars", "0.01", "0.001", "0.0008"],
]


def _body_lines(func) -> set:
    """The lines of a function's own statements: its body bar a docstring,
    and bar the bodies of the functions and classes nested in it."""
    body = func.body[1:] if ast.get_docstring(func) is not None else func.body
    if not body:
        return set()
    lines = set(range(body[0].lineno, func.end_lineno + 1))
    for node in ast.walk(func):
        if node is not func and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                  ast.ClassDef)):
            lines -= set(range(node.body[0].lineno, node.end_lineno + 1))
    return lines


def functions(path: Path) -> list:
    """(qualified name, def line, body lines) of each function and method in
    the module, nested ones included."""
    out = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                out.append((name, child.lineno, _body_lines(child)))
                visit(child, f"{name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), f"{path.stem}.")
    return out


def never_run(traffic) -> list:
    """Run ``traffic()`` under a line trace; the "module.qualname:line" of
    each function of the package whose body it never ran."""
    tracer = trace.Trace(count=1, trace=0, ignoredirs=[sys.prefix, sys.exec_prefix])
    tracer.runfunc(traffic)
    ran = {}
    for (filename, line), _ in tracer.results().counts.items():
        ran.setdefault(os.path.realpath(filename), set()).add(line)
    return [f"{name}:{line}"
            for path in sorted(SRC.glob("*.py"))
            for name, line, body in functions(path)
            if not body & ran.get(os.path.realpath(path), set())]


def _bench_workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traffic(tmp: Path) -> None:
    """The callers' traffic of the module docstring, writing under tmp."""
    from semiwkb import builtin_specs, cli

    os.environ["SEMIWKB_OUTDIR"] = str(tmp / "out")  # the commands write there
    os.chdir(tmp)
    argvs = [["run", "--spec", spec.name] for spec in builtin_specs()]
    for argv in [*argvs, ["list-specs"], *COMMANDS]:
        if cli.main(argv) != 0:
            raise RuntimeError(f"semiwkb {' '.join(argv)} failed: the traffic is stale")
    workloads = _bench_workloads()
    for name in workloads.NAMES:
        workloads.warm_up(name)
        inputs = workloads.generate_inputs(name, 0, 1)[0]
        for op in workloads.operations(name, inputs, tmp / "bench" / name,
                                       contextlib.nullcontext):
            op.run()
    for demo in sorted((ROOT / "demos").glob("*.py")):
        runpy.run_path(str(demo), run_name="__main__")


def main() -> int:
    sys.path.insert(0, str(SRC.parent))
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="semiwkb-traffic-") as tmp:
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                missed = never_run(lambda: traffic(Path(tmp)))
        finally:
            os.chdir(cwd)
    print(f"{len(missed)} functions of src/semiwkb whose body the traffic never ran:")
    for name in missed:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
