"""The builtin experiments reproduce the numbers pinned in tests/data/builtin_outputs.json."""
import json

import golden


def test_builtins_reproduce_the_manifest():
    recorded = json.loads(golden.MANIFEST.read_text())
    exact, diffs = golden.compare(recorded, golden.collect())
    if exact:
        print("builtin outputs compared exactly: the environment is the recorded one")
    else:
        print(f"builtin outputs compared within a relative {golden.RTOL:g}, CSVs by row count "
              f"and column sums: recorded on {recorded['environment']}, "
              f"running on {golden.environment()}")
    assert not diffs, "builtin outputs differ from the manifest:\n" + "\n".join(diffs)


def test_the_comparison_names_the_spec_path_and_both_values():
    recorded = {"environment": {"numpy": "0"},
                "specs": {"s": {"files": {"a.csv": {"sha256": "x", "rows": 3}},
                                "results": {"f": [1.0, 2.0]}}}}
    moved = {"environment": {"numpy": "1"},
             "specs": {"s": {"files": {"a.csv": {"sha256": "y", "rows": 3}},
                             "results": {"f": [1.0, 2.0 + 1e-12]}}}}
    assert golden.compare(recorded, moved) == (False, [])
    moved["specs"]["s"]["results"]["f"][1] = 2.1
    assert golden.compare(recorded, moved)[1] == ["specs.s.results.f[1]: 2.0 -> 2.1"]
    moved["environment"] = recorded["environment"]
    assert golden.compare(recorded, moved)[1] == [
        "specs.s.files.a.csv.sha256: 'x' -> 'y'", "specs.s.results.f[1]: 2.0 -> 2.1"]
