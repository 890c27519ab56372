"""Experiment harness: spec validation, builtin catalog, config files,
artifact determinism, and the lyapunov report."""
import ast
import json
import math
import os
import re
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import semiwkb as sw
from semiwkb import experiments, metaplectic, transport
from semiwkb.errors import BandwidthError, SemiwkbError
from semiwkb.experiments import (
    Case,
    ExperimentSpec,
    MODEL_NAMES,
    OUTDIR_ENV,
    builtin_specs,
    get_builtin_spec,
    load_spec_file,
    read_table,
    resolve_outdir,
    run_experiment,
)

PACKAGE = Path(experiments.__file__).parent
BUILTIN_NAMES = ["free-exactness", "integrable-exactness", "barrier-transmission",
                 "kho-fig2", "kho-slopes", "kho-lyapunov"]


def small_free_spec(name="free-small"):
    return ExperimentSpec(
        name=name, kind="exactness", model="free", hbar=0.05,
        times=(0.5, 1.0), grid=sw.GridSpec(-8.0, 16.0, 2048),
        methods=("extwkb", "thawed", "exact"),
        cases=(Case("flat", 0.0, (1.0, 0.0)),
               Case("tilted", 0.5, (1.0, 0.0))))


def test_spec_validation_errors():
    ok = small_free_spec()
    ok.validate()
    import dataclasses
    bad = [
        dataclasses.replace(ok, kind="sideways"),
        dataclasses.replace(ok, model="pendulum"),
        dataclasses.replace(ok, methods=("extwkb", "variational")),
        dataclasses.replace(ok, times=()),
        dataclasses.replace(ok, times=(2.0, 1.0)),
        dataclasses.replace(ok, cases=()),
        dataclasses.replace(ok, cases=(Case("a", 0.0, (0.0, 0.0)),
                                       Case("a", 1.0, (0.0, 0.0)))),
        # backward profiles read one case; a second would be dropped unseen
        dataclasses.replace(ok, kind="backward-profiles"),
        # a comparison kind reads extended WKB's map, whatever else it lists
        dataclasses.replace(ok, methods=("thawed", "exact")),
        dataclasses.replace(ok, kind="slope-sweep", methods=("exact",)),
        dataclasses.replace(ok, cases=(Case("", 0.0, (0.0, 0.0)),)),
        # validate is cached on the spec, so every field must hash
        dataclasses.replace(ok, times=[0.5, 1.0]),
    ]
    for spec in bad:
        with pytest.raises(ValueError):
            spec.validate()
    # a list where a tuple belongs is a spec error that names its field
    with pytest.raises(sw.SpecError, match=re.escape("spec field times must be hashable")):
        run_experiment(ExperimentSpec(name="x", kind="lyapunov", model="kho", times=[1.0]))


def test_validate_returns_the_model_it_built():
    spec = small_free_spec()
    model = spec.validate()
    assert isinstance(model, sw.FreeParticle)
    # checked again, as run_experiment does after load_spec_file, it is not rebuilt
    assert spec.validate() is model


def test_build_model_is_the_one_gate_for_model_parameters():
    # every default comes from the catalogue, and a spec is checked by the
    # same rule: an unknown parameter or a value that is not finite is refused
    assert sw.build_model("kho").k == 2.0
    assert sw.build_model("barrier", {"v0": 4.0}).lam == 2.0
    bad = [("barrier", {"k": 3.0}, "(allowed: v0)"),
           ("free", {"epsilon": 0.2}, "(allowed: none)"),
           ("quartic", {"epsilon": math.nan}, "'epsilon' must be finite"),
           ("kho", {"k": math.inf}, "'k' must be finite"),
           ("barrier", (("v0", -math.inf),), "'v0' must be finite")]
    for name, params, message in bad:
        with pytest.raises(sw.SpecError, match=re.escape(message)):
            sw.build_model(name, params)
        spec = ExperimentSpec(name="p", kind="lyapunov", model=name,
                              model_params=tuple(dict(params).items()), times=(1.0,))
        with pytest.raises(sw.SpecError, match=re.escape(message)):
            spec.validate()


def test_builtin_catalog(tmp_path, monkeypatch):
    specs = builtin_specs()
    assert [s.name for s in specs] == BUILTIN_NAMES
    for spec in specs:
        spec.validate()
    fig2 = get_builtin_spec("kho-fig2")
    assert fig2.model == "kho"
    assert fig2.hbar == pytest.approx(8e-4)
    assert fig2.times == (1.0, 2.0, 3.0, 4.0)
    with pytest.raises(sw.SpecError, match="kho-fig2"):
        get_builtin_spec("kho-fig3")

    # the builtins are the files of data/specs, one each, in file-name order,
    # and each is exactly what the loader makes of its file
    folder = PACKAGE / "data" / "specs"
    files = sorted(folder.iterdir())
    assert [f.name[f.name.index("-") + 1:] for f in files] == [
        f"{name}.ini" for name in BUILTIN_NAMES]
    assert [load_spec_file(f) for f in files] == specs

    # the catalog is what importlib.resources finds, so a package installed
    # as a zip archive finds its files too: here an archive holding two
    archive = tmp_path / "semiwkb.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for f in files[:2]:
            zf.write(f, f"semiwkb/data/specs/{f.name}")
    monkeypatch.setattr(experiments.resources, "files",
                        lambda package: zipfile.Path(archive, f"{package}/"))
    assert builtin_specs() == specs[:2]

    # importing the package opens none of them
    probe = ("import sys; opened = []; "
             "sys.addaudithook(lambda e, a: opened.append(str(a[0])) if e == 'open' else None); "
             "import semiwkb; print(sum(p.endswith('.ini') for p in opened))")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "0"


def test_load_spec_file_round_trip(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text("""\
[experiment]
name = demo
kind = exactness
model = quartic
hbar = 0.01
times = 0.5, 1.0
grid = -10, 14, 4096
methods = extwkb, exact

[model]
epsilon = 0.25

[case flat]
p0 = 1.0
q0 = 0.0

[case tilted]
p0 = 1.0
q0 = 0.0
theta_over_halfpi = 0.5
""")
    spec = load_spec_file(cfg)
    assert spec.name == "demo"
    assert spec.model == "quartic"
    assert spec.model_params == (("epsilon", 0.25),)
    assert spec.hbar == 0.01
    assert spec.times == (0.5, 1.0)
    assert spec.grid == sw.GridSpec(-10.0, 14.0, 4096)
    assert spec.methods == ("extwkb", "exact")
    labels = {c.label: c for c in spec.cases}
    assert labels["flat"].slope == 0.0
    assert labels["flat"].center == (1.0, 0.0)
    assert labels["tilted"].slope == pytest.approx(1.0)


def test_load_spec_file_rejections(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_spec_file(tmp_path / "absent.ini")
    bare = tmp_path / "bare.ini"
    bare.write_text("[model]\nepsilon = 0.1\n")
    with pytest.raises(ValueError, match="experiment"):
        load_spec_file(bare)
    # each is refused with SpecError before any stage runs: values that are
    # not finite, keys and sections the loader does not know (a misspelt key
    # would otherwise leave its default in place) and a case with two slopes
    refused = [
        (_with("experiment", "hbar", "inf"), "hbar must be finite and positive, got inf"),
        (_with("experiment", "times", "0.5, inf"), "spec needs finite times >= 0"),
        (_with("experiment", "times", "0.5, nan"), "spec needs finite times >= 0"),
        (_with("case flat", "p0", "inf"), "case 'flat' needs a finite p0, q0 and slope"),
        (_with("case flat", "q0", "-inf"), "case 'flat' needs a finite p0, q0 and slope"),
        (_with("case flat", "slope", "nan"), "case 'flat' needs a finite p0, q0 and slope"),
        (_with("experiment", "method", "exact"), "[experiment] takes no key method"),
        (_with("case flat", "slpoe", "0.7"), "[case flat] takes no key slpoe"),
        (_config_text(VALID_CONFIG, extra="[cases tilted]\np0 = 1.0\n"),
         "unknown section [cases tilted]"),
        (_config_text(VALID_CONFIG, extra="[output]\n"), "unknown section [output]"),
        ("[DEFAULT]\np0 = 1.0\n" + _config_text(VALID_CONFIG),
         "[DEFAULT] takes no key p0 (allowed: none)"),
        (_with("case flat", "slope", "0.5").replace("q0 = 0.0",
                                                     "q0 = 0.0\ntheta_over_halfpi = 0.5"),
         "[case flat] gives both slope and theta_over_halfpi"),
        # a case section with no name would label its rows ''
        (_config_text(VALID_CONFIG, extra="[case  ]\np0 = 1.0\n"),
         "cases with unique, nonempty labels, got ['flat', '']"),
        (_config_text(VALID_CONFIG, extra="[case]\np0 = 1.0\n"),
         "cases with unique, nonempty labels, got ['flat', '']"),
    ]
    for n, (text, message) in enumerate(refused):
        cfg = tmp_path / f"refused{n}.ini"
        cfg.write_text(text)
        with pytest.raises(sw.SpecError, match=re.escape(message)):
            load_spec_file(cfg)


VALID_CONFIG = {
    "experiment": {"name": "demo", "kind": "exactness", "model": "quartic",
                   "hbar": "0.01", "times": "0.5, 1.0", "grid": "-10, 14, 4096"},
    "model": {"epsilon": "0.25"},
    "case flat": {"p0": "1.0", "q0": "0.0"},
}
BAD_VALUES = {
    "hbar": ["-0.01", "0", "nan", "small", "", "5%"],
    "times": ["1.0, 0.5", "-1.0, 1.0", "", "soon"],
    "grid": ["-10, 14, 4000", "14, -10, 4096", "-10, 14", "-10, 14, 4096.0", "a, b, c"],
    "methods": ["extwkb, variational", "thawed, exact", "exact"],
}


def _config_text(sections, extra=""):
    lines = []
    for name, keys in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in keys.items())
    return "\n".join(lines) + "\n" + extra


def _with(section, key, value):
    sections = {name: dict(keys) for name, keys in VALID_CONFIG.items()}
    if value is None:
        del sections[section][key]
    else:
        sections[section][key] = value
    return _config_text(sections)


_word = st.text("abcdefghijklmnopqrstuvwxyz-", min_size=1, max_size=12)
MALFORMED_CONFIGS = st.one_of(
    st.sampled_from(["name", "kind", "model", "hbar", "times", "grid"]).map(
        lambda key: _with("experiment", key, None)),
    st.sampled_from(sorted(BAD_VALUES)).flatmap(
        lambda key: st.sampled_from(BAD_VALUES[key]).map(
            lambda v: _with("experiment", key, v))),
    _word.filter(lambda w: w not in ("exactness", "barrier-sweep", "backward-profiles",
                                     "slope-sweep", "lyapunov")).map(
        lambda w: _with("experiment", "kind", w)),
    _word.filter(lambda w: w not in MODEL_NAMES).map(
        lambda w: _with("experiment", "model", w)),
    st.sampled_from(["p0", "q0", "slope", "theta_over_halfpi"]).map(
        lambda key: _with("case flat", key, "far")),
    st.just(_with("model", "epsilon", "tiny")),
    st.just(_config_text({k: v for k, v in VALID_CONFIG.items() if k != "experiment"})),
    _word.map(lambda w: _config_text(VALID_CONFIG, extra=f"{w}\n")),
    st.just(_config_text(VALID_CONFIG, extra="[case flat]\np0 = 0.5\n")),
    st.just("name = demo\n" + _config_text(VALID_CONFIG)),
    st.just(_with("experiment", "kind", "slope-sweep").replace("[case flat]",
                                                               "[case flat]\nslope = 0.5")),
)


def test_valid_config_text_loads(tmp_path):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(_config_text(VALID_CONFIG))
    assert load_spec_file(cfg).grid == sw.GridSpec(-10.0, 14.0, 4096)


@settings(max_examples=60, deadline=None, derandomize=True)
@example(_config_text(VALID_CONFIG, extra="stray\n"))  # a bare word is no key = value
@example(_with("experiment", "kind", "exact"))
@given(MALFORMED_CONFIGS)
def test_malformed_config_raises_semiwkb_error(tmp_path_factory, text):
    cfg = tmp_path_factory.mktemp("spec") / "exp.ini"
    cfg.write_text(text)
    with pytest.raises(SemiwkbError) as info:
        load_spec_file(cfg)
    assert isinstance(info.value, ValueError)
    assert "\n" not in str(info.value)


def test_resolve_outdir_precedence(tmp_path, monkeypatch):
    import dataclasses
    spec = small_free_spec()
    monkeypatch.delenv(OUTDIR_ENV, raising=False)
    assert resolve_outdir(spec, tmp_path / "x") == tmp_path / "x"
    monkeypatch.setenv(OUTDIR_ENV, str(tmp_path / "env"))
    assert resolve_outdir(spec) == tmp_path / "env" / "free-small"
    pinned = dataclasses.replace(spec, outdir=str(tmp_path / "pin"))
    assert resolve_outdir(pinned) == tmp_path / "pin"
    monkeypatch.delenv(OUTDIR_ENV)
    assert resolve_outdir(spec).parts[-2:] == ("semiwkb-out", "free-small")


def test_reruns_are_byte_identical(tmp_path):
    spec = small_free_spec()
    ra = run_experiment(spec, tmp_path / "a")
    rb = run_experiment(spec, tmp_path / "b")
    for name in ra["artifacts"]:
        assert (tmp_path / "a" / name).read_bytes() == \
               (tmp_path / "b" / name).read_bytes()
    ja = json.loads((tmp_path / "a" / "report.json").read_text())
    jb = json.loads((tmp_path / "b" / "report.json").read_text())
    ja.pop("runtimes")
    jb.pop("runtimes")
    assert ja == jb


def test_free_exactness_report_content(tmp_path):
    spec = small_free_spec()
    report = run_experiment(spec, tmp_path)
    assert report["artifacts"] == ["fidelity_series.csv",
                                   "pairwise_final_fidelity.csv"]
    res = report["results"]
    # the method is exact for momentum-only models
    assert res["min_fidelity"] > 1.0 - 1e-9
    assert res["pairwise_final_fidelity_min"] > 1.0 - 1e-9
    assert res["reference"]["flat"]["method"] == "momentum-multiplier"
    header, cols = read_table(tmp_path / "fidelity_series.csv")
    assert header[0] == "label"
    assert cols["label"] == ["flat", "flat", "tilted", "tilted"]
    assert isinstance(cols["fidelity_extwkb"], np.ndarray)
    assert np.all(cols["fidelity_extwkb"] > 1.0 - 1e-9)
    # the free Hamiltonian is quadratic, so the single-Gaussian method is
    # exact here as well
    assert np.all(cols["fidelity_thawed"] > 1.0 - 1e-9)


def _calls(node, name):
    return any(isinstance(c, ast.Call) and ast.unparse(c.func) == name for c in ast.walk(node))


def test_one_record_loop_runs_every_method_row():
    tree = ast.parse(Path(experiments.__file__).read_text(encoding="utf-8"))
    funcs = {n.name: n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
    rows = {fn.__name__ for fn in experiments.METHODS.values()}

    def runs_a_row(fn):
        # a row called by name, as METHODS[...], or by a name a loop over METHODS binds
        bound = {t.id for n in ast.walk(fn) if isinstance(n, (ast.For, ast.comprehension))
                 and "METHODS" in ast.unparse(n.iter)
                 for t in ast.walk(n.target) if isinstance(t, ast.Name)}
        return any(isinstance(c, ast.Call) and (ast.unparse(c.func) in rows | bound
                                                or ast.unparse(c.func).startswith("METHODS["))
                   for c in ast.walk(fn))

    assert [name for name, fn in funcs.items() if runs_a_row(fn)] == ["_records"]
    # the pipeline is entered through the rows alone
    for entry in ("propagate_extended_wkb", "propagate_thawed_gaussian"):
        assert {name for name, fn in funcs.items() if _calls(fn, entry)} < rows
    # every kind validate treats as a comparison kind reads the one record stream
    kinds = {elt.value for n in ast.walk(funcs["validate"])
             if isinstance(n, ast.Compare) and ast.unparse(n.left) == "self.kind"
             and isinstance(n.ops[0], ast.In) for elt in n.comparators[0].elts}
    assert {"exactness", "backward-profiles", "slope-sweep"} <= kinds
    for kind in kinds:
        assert _calls(funcs[experiments._ANALYSES[kind].__name__], "_records"), kind


def test_backward_profiles_refine_the_seed_fan_once_per_time(tmp_path, monkeypatch):
    # each backward test runs on its record as it arrives, so it finds the forward
    # run's map in the pipeline's one-entry cache; records collected first would not
    refined = []

    def counting(*args, **kwargs):
        refined.append(args[3])  # t
        return transport.refined_transport_map(*args, **kwargs)

    monkeypatch.setattr(metaplectic, "refined_transport_map", counting)
    metaplectic._core.cache_clear()
    spec = ExperimentSpec(
        name="backward-small", kind="backward-profiles", model="free", hbar=0.05,
        times=(0.5, 1.0), grid=sw.GridSpec(-8.0, 16.0, 2048),
        cases=(Case("tilted", 0.5, (1.0, 0.0)),))
    report = run_experiment(spec, tmp_path)
    assert refined == [0.5, 1.0]
    assert [e["t"] for e in report["results"]["per_time"]] == [0.5, 1.0]

def test_failures_carry_the_stage_name(tmp_path):
    # a grid too coarse for the profile sampler fails in the extwkb stage
    spec = ExperimentSpec(
        name="coarse", kind="exactness", model="free", hbar=0.05,
        times=(0.5,), grid=sw.GridSpec(-8.0, 8.0, 256),
        cases=(Case("flat", 0.0, (0.0, 0.0)),))
    with pytest.raises(BandwidthError, match=r"\[stage extwkb"):
        run_experiment(spec, tmp_path)


def test_lyapunov_experiment(tmp_path):
    report = run_experiment(get_builtin_spec("kho-lyapunov"), tmp_path)
    res = report["results"]
    base = sw.load_baselines()["kicked_harmonic"]
    assert res["lyapunov_exponent"] == pytest.approx(
        base["lyapunov_exponent"], abs=1e-12)
    assert res["matches_baseline"] is True
    assert res["ehrenfest_time"] == pytest.approx(
        sw.ehrenfest_time(res["lyapunov_exponent"], 8e-4), rel=1e-12)
    lo, hi = res["tangent_eigenvalues"]
    assert hi == pytest.approx(math.exp(res["lyapunov_exponent"]), rel=1e-12)
    assert lo == pytest.approx(1.0 / hi, rel=1e-12)
    header, cols = read_table(tmp_path / "lyapunov_convergence.csv")
    assert list(cols["n"]) == list(range(1, 26))
    assert abs(cols["lambda_n"][-1] - res["lyapunov_exponent"]) < 0.05


def test_a_case_whose_packet_would_alias_is_refused_by_name():
    # hbar = 8e-4 on [-4, 4] x 8192: the Nyquist momentum is 2.574, and the
    # samples of a packet at p0 = 4 are a packet at p0 - 2 p_N moving left
    spec = ExperimentSpec(name="fast", kind="exactness", model="free", hbar=8e-4,
                          times=(0.5,), grid=sw.GridSpec(-4.0, 4.0, 8192),
                          cases=(Case("slow", 0.0, (1.0, 0.0)), Case("fast", 0.0, (4.0, 0.0))))
    with pytest.raises(sw.SpecError, match=r"^case 'fast' at p0=4\.0 aliases: .* p_N=2\.57359 "):
        spec.validate()
