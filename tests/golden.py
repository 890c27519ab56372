"""The builtin experiments' outputs, pinned in a manifest.

tests/data/builtin_outputs.json records, for each builtin spec, each CSV's
sha256, row count and per-column sums of its positive and of its negative
entries, and the report's "results" at full precision, together with the
numpy version, Python version and machine they were made on.  It also records
the values behind each line tests/test_acceptance.py prints, which conftest's
pytest_runtest_logreport hook gathers into ACCEPTANCE as those tests run.
test_golden.py reruns the builtins and compares them with it, and compares the
acceptance values the session gathered: exactly when the environment matches
the recorded one, and within a relative 1e-9 otherwise (a CSV then by its row
count and column sums, not its bytes).

After a deliberate change of numbers, rewrite the manifest (which also runs
the acceptance tests) with

    python tests/golden.py --update
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

MANIFEST = Path(__file__).parent / "data" / "builtin_outputs.json"
RTOL = 1e-9
ACCEPTANCE: dict = {}  # acceptance line -> {name: value}, of the tests run in this process


def environment() -> dict:
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine()}


def _csv_entry(path: Path) -> dict:
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    columns = {}
    for j, name in enumerate(header):
        try:
            vals = [float(row[j]) for row in rows]
        except ValueError:
            continue  # a label column: covered by the digest only
        finite = [v for v in vals if math.isfinite(v)]
        # two sums without cancellation, so each compares to a relative tolerance
        columns[name] = {"positive_sum": math.fsum(v for v in finite if v > 0),
                         "negative_sum": math.fsum(v for v in finite if v < 0),
                         "finite": len(finite)}
    return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest(), "rows": len(rows),
            "columns": columns}


def collect() -> dict:
    """Run every builtin spec in a scratch directory; the manifest's shape."""
    from semiwkb import builtin_specs, run_experiment
    specs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for spec in builtin_specs():
            out = Path(tmp) / spec.name
            report = run_experiment(spec, out)
            specs[spec.name] = {
                "files": {name: _csv_entry(out / name) for name in report["artifacts"]},
                "results": report["results"]}
    return {"environment": environment(), "specs": specs}


def collect_acceptance() -> dict:
    """Run tests/test_acceptance.py in this process; the values behind its lines."""
    import pytest
    import golden  # the module conftest's hook fills, also when this file runs as a script
    golden.ACCEPTANCE.clear()
    acceptance = Path(__file__).parent / "test_acceptance.py"
    if pytest.main(["-q", "-p", "no:cacheprovider", str(acceptance)]):
        raise SystemExit("the acceptance tests failed; the manifest is left as it was")
    return dict(golden.ACCEPTANCE)


def _close(old, new) -> bool:
    return abs(new - old) <= RTOL * max(abs(old), abs(new))


def _diff(old, new, path: str, exact: bool, out: list) -> None:
    """Append 'path: old -> new' for each leaf of new that differs from old."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            sub = f"{path}.{key}"
            if key == "sha256" and not exact:
                continue  # a CSV's bytes are compared only in the recorded environment
            if key not in new or key not in old:
                out.append(f"{sub}: {old.get(key, '<absent>')!r} -> {new.get(key, '<absent>')!r}")
            else:
                _diff(old[key], new[key], sub, exact, out)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            _diff(a, b, f"{path}[{i}]", exact, out)
    else:
        same = old == new or (old != old and new != new)  # NaN matches NaN
        if not same and not exact and type(old) is float and type(new) is float:
            same = _close(old, new)
        if not same:
            out.append(f"{path}: {old!r} -> {new!r}")


def compare(recorded: dict, current: dict, section: str = "specs") -> tuple:
    """(exact, differences) over one section of the manifest: each difference
    names the spec and the file or dotted path, with the recorded and the new
    value."""
    exact = recorded["environment"] == current["environment"]
    out: list = []
    _diff(recorded[section], current[section], section, exact, out)
    return exact, out


def main(argv) -> int:
    if argv != ["--update"]:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    MANIFEST.parent.mkdir(exist_ok=True)
    manifest = collect()
    manifest["acceptance"] = collect_acceptance()
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
