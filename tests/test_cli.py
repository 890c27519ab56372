"""Command-line interface: exit codes, artifact layout, and the
propagate/exact output diffability contract."""
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semiwkb as sw
from semiwkb.cli import main
from semiwkb.experiments import (METHODS, MODEL_NAMES, _MODELS, build_model,
                                 get_builtin_spec, load_baselines)

FREE_ARGS = ["--model", "free", "--hbar", "0.05", "--grid=-6,6,1024"]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list_specs(capsys):
    code, out, err = run_cli(["list-specs"], capsys)
    assert code == 0
    for name in ("free-exactness", "integrable-exactness", "barrier-transmission",
                 "kho-fig2", "kho-slopes", "kho-lyapunov"):
        assert name in out


def _declared_console_script(tmp_path):
    """Write the wrapper an installer generates for the `semiwkb` entry
    point declared in pyproject.toml, for a checkout that is not installed.

    Returns the wrapper's path, found on a PATH holding only `tmp_path`,
    and the environment that lets it import the package the suite imported.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["semiwkb"]
    module, func = target.split(":")
    script = tmp_path / "semiwkb"
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {func}\n"
                      f"sys.exit({func}())\n")
    script.chmod(0o755)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sw.__file__).resolve().parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return shutil.which("semiwkb", path=str(tmp_path)), env


def test_console_script_is_installed(tmp_path):
    exe, env = shutil.which("semiwkb"), None
    if exe is None:
        exe, env = _declared_console_script(tmp_path)
    assert exe is not None
    proc = subprocess.run([exe, "list-specs"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    assert "kho-fig2" in proc.stdout


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "semiwkb", "list-specs"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "kho-fig2" in proc.stdout


def test_runtime_imports_no_scipy():
    # scipy is a test dependency only: importing it would cost every CLI
    # call most of its start-up time
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import semiwkb, semiwkb.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    tomllib = pytest.importorskip("tomllib")
    with (src.parent / "pyproject.toml").open("rb") as fh:
        project = tomllib.load(fh)["project"]
    assert not [d for d in project["dependencies"] if d.startswith("scipy")]


@pytest.mark.parametrize("method", METHODS)
def test_propagate_and_exact_outputs_diff(tmp_path, capsys, method):
    # every method is exact for the free particle, so each one's file diffs
    # against the reference's
    base = FREE_ARGS + ["--t", "0.5", "--p0", "0.4", "--alpha", "0.3",
                        "--out", str(tmp_path)]
    code, out, _ = run_cli(["propagate"] + base + ["--method", method, "--prefix", method],
                           capsys)
    assert code == 0
    assert (tmp_path / f"{method}_state.csv").exists()
    code, _, _ = run_cli(["exact"] + base, capsys)
    assert code == 0

    paths = [tmp_path / f"{method}_state.csv", tmp_path / "exact_state.csv"]
    assert len({path.read_text().splitlines()[0] for path in paths}) == 1  # hbar and grid
    a, b = (np.loadtxt(path, delimiter=",", skiprows=2) for path in paths)
    assert np.array_equal(a[:, 0], b[:, 0])
    grid = sw.GridSpec(-6.0, 6.0, 1024)
    assert sw.fidelity(*(sw.WaveFunction(grid, rows[:, 1] + 1j * rows[:, 2], 0.05)
                         for rows in (a, b))) > 1.0 - 1e-6

    meta = json.loads((tmp_path / f"{method}_meta.json").read_text())
    assert meta["method"] == method
    # the caustic margin is printed exactly when the method reports one, as extended WKB does
    md = meta["metadata"]
    assert ("caustic_margin" in out) == ("caustic_margin" in md)
    assert method != "extwkb" or "caustic_margin" in md
    assert md.get("caustic_margin", math.inf) > 0.0
    emeta = json.loads((tmp_path / "exact_meta.json").read_text())
    assert emeta["diagnostics"]["method"] == "momentum-multiplier"


def test_manifold_caustic_exit_code(tmp_path, capsys):
    base = ["manifold", "--model", "free", "--alpha=-1.0", "--out", str(tmp_path)]
    code, out, err = run_cli(base + ["--t", "0.999"], capsys)
    assert code == 0
    assert (tmp_path / "manifold_manifold.csv").exists()
    code, out, err = run_cli(base + ["--t", "1.001"], capsys)
    assert code == 1
    assert "caustic" in err


def test_manifold_takes_no_hbar_or_grid(tmp_path, capsys):
    # the classical table needs neither, so neither is asked for
    code, out, _ = run_cli(["manifold", "--model", "free", "--t", "0.5",
                            "--out", str(tmp_path)], capsys)
    assert code == 0 and "caustic_margin=1" in out
    assert (tmp_path / "manifold_manifold.csv").exists()
    with pytest.raises(SystemExit):
        main(["manifold", "--model", "free", "--t", "0.5", "--hbar", "0.05"])
    assert "unrecognized arguments: --hbar" in capsys.readouterr().err


def test_propagate_through_caustic_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["propagate"] + FREE_ARGS + ["--t", "1.001", "--alpha=-1.0",
                                     "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:")


def test_lyapunov_command(tmp_path, capsys):
    code, out, _ = run_cli(
        ["lyapunov", "--model", "kho", "--k", "2.0",
         "--hbars", "0.0008", "0.05", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "lambda = 0.848159278" in out
    data = json.loads((tmp_path / "lyapunov.json").read_text())
    lam = data["lambda"]
    assert data["ehrenfest_times"]["0.0008"] == pytest.approx(
        sw.ehrenfest_time(lam, 8e-4), rel=1e-12)
    assert data["ehrenfest_times"]["0.05"] == pytest.approx(
        sw.ehrenfest_time(lam, 0.05), rel=1e-12)


def test_run_builtin_experiment(tmp_path, capsys):
    code, out, err = run_cli(
        ["run", "--spec", "kho-lyapunov", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert err == ""
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["matches_baseline"] is True


def test_outdir_env_is_honored(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SEMIWKB_OUTDIR", str(tmp_path / "envout"))
    code, _, _ = run_cli(
        ["propagate"] + FREE_ARGS + ["--t", "0.5"], capsys)
    assert code == 0
    assert (tmp_path / "envout" / "propagate_state.csv").exists()


def test_empty_outdir_env_means_the_default_root(tmp_path, capsys, monkeypatch):
    # an empty SEMIWKB_OUTDIR is unset for every subcommand, as for `run`
    monkeypatch.setenv("SEMIWKB_OUTDIR", "")
    monkeypatch.chdir(tmp_path)
    code, _, _ = run_cli(["manifold", "--model", "free", "--t", "0.5"], capsys)
    assert code == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["semiwkb-out"]
    assert (tmp_path / "semiwkb-out" / "manifold_manifold.csv").exists()
    spec = sw.get_builtin_spec("kho-lyapunov")
    assert sw.resolve_outdir(spec) == Path("semiwkb-out") / spec.name


@pytest.mark.parametrize("flags,message", [
    (["--window", "1"], "LO,HI"),
    (["--window", "a,b"], "LO,HI"),
    (["--window=1,-1"], "LO < HI"),
    (["--window=0,inf"], "LO < HI"),
    (["--n-seeds", "0"], "--n-seeds"),
    (["--n-seeds=-3"], "--n-seeds"),
], ids=["one-value", "not-numbers", "reversed", "infinite", "no-seeds", "negative-seeds"])
def test_manifold_malformed_input_exits_2(tmp_path, capsys, flags, message):
    code, _, err = run_cli(["manifold", "--model", "free", "--t", "0.5",
                            "--out", str(tmp_path)] + flags, capsys)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "manifold_manifold.csv").exists()


def test_bad_grid_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["propagate", "--model", "free", "--hbar", "0.05",
         "--grid=-6,6", "--t", "0.5", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "error:" in err and "LO,HI,N" in err


@pytest.mark.parametrize("command", ["propagate", "exact"])
def test_nonpositive_hbar_exits_2(tmp_path, capsys, command):
    code, _, err = run_cli(
        [command, "--model", "free", "--hbar=-0.05", "--grid=-6,6,1024",
         "--t", "0.5", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "--hbar" in err
    assert "Traceback" not in err


def test_infinite_hbar_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["exact", "--model", "free", "--hbar", "inf", "--grid=-8,8,1024",
         "--t", "1", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "hbar must be finite" in err
    assert not (tmp_path / "exact_state.csv").exists()


@pytest.mark.parametrize("theta", ["1", "1.5", "-1"])
def test_angle_outside_the_open_range_exits_2(tmp_path, capsys, theta):
    # the slope is tan(theta * pi/2), so the angle must lie inside (-1, 1)
    code, _, err = run_cli(
        ["manifold", "--model", "free", "--t", "0.5", f"--theta-over-halfpi={theta}",
         "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "transversal slope" in err
    assert not (tmp_path / "manifold_manifold.csv").exists()


@pytest.mark.parametrize("model,period", [("barrier", "-1"), ("barrier", "0"),
                                          ("kho", "0"), ("kho", "inf")])
def test_lyapunov_bad_period_exits_2(tmp_path, capsys, model, period):
    code, out, err = run_cli(["lyapunov", "--model", model, f"--period={period}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "period must be finite and positive" in err


@pytest.mark.parametrize("command", ["propagate", "exact"])
def test_non_power_of_two_grid_exits_2(tmp_path, capsys, command):
    code, _, err = run_cli(
        [command, "--model", "free", "--hbar", "0.05", "--grid=-6,6,1000",
         "--t", "0.5", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "power of two" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["propagate", "exact"])
def test_negative_time_exits_2(tmp_path, capsys, command):
    code, _, err = run_cli(
        [command, "--model", "kho", "--hbar", "0.05", "--grid=-4,4,1024",
         "--t=-1", "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "--t" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["exact", "--model", "free"],
    ["propagate", "--model", "free", "--method", "extwkb"],
    ["propagate", "--model", "kho", "--method", "thawed"]], ids=["exact", "extwkb", "thawed"])
def test_an_aliased_packet_exits_2_and_writes_nothing(tmp_path, capsys, argv):
    code, out, err = run_cli(argv + ["--hbar", "8e-4", "--grid=-4,4,8192", "--t", "0.5",
                                     "--p0", "4", "--out", str(tmp_path)], capsys)
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert err.startswith("error: a packet at p0=4.0 aliases:") and err.count("\n") == 1


def test_a_barrier_run_past_the_floating_point_range_exits_2(tmp_path, capsys):
    code, out, err = run_cli(["propagate", "--model", "barrier", "--hbar", "8e-4",
                              "--grid=-4,4,8192", "--t", "400", "--out", str(tmp_path)], capsys)
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert err == "error: the barrier's piece of length t=400 leaves the floating-point range\n"


def test_a_barrier_reference_past_the_floating_point_range_exits_2(tmp_path, capsys):
    code, out, err = run_cli(["exact", "--model", "barrier", "--hbar", "0.05", "--grid=-8,8,2048",
                              "--t", "800", "--out", str(tmp_path)], capsys)
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert err == "error: the barrier's piece of length t=800 leaves the floating-point range\n"


def test_a_barrier_reference_whose_multiplier_overflows_names_the_piece(tmp_path, capsys):
    # sinh(705) is finite, but the momentum multiplier's b xi^2 / hbar is not
    code, out, err = run_cli(["exact", "--model", "barrier", "--hbar", "0.05", "--grid=-8,8,2048",
                              "--t", "705", "--out", str(tmp_path)], capsys)
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert err == ("error: the reference's multipliers at hbar=0.05 leave the floating-point "
                   "range on the grid's N=2048 points with a piece of length t=705\n")


def test_a_reference_at_an_absurd_hbar_exits_2_and_writes_nothing(tmp_path, capsys):
    code, out, err = run_cli(["exact", "--model", "kho", "--hbar", "1e300", "--grid=-4,4,8192",
                              "--t", "1", "--out", str(tmp_path)], capsys)
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert err == ("error: the reference's multipliers at hbar=1e+300 leave the "
                   "floating-point range on the grid's N=8192 points with a piece of length t=1\n")


@pytest.mark.parametrize("model", ["free", "kho"])
def test_manifold_negative_time_exits_2_whatever_the_model(tmp_path, capsys, model):
    # a walk runs forward on every model, kicked or not
    code, out, err = run_cli(["manifold", "--model", model, "--t=-1", "--out", str(tmp_path)],
                             capsys)
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert err.startswith("error:") and err.endswith("got t=-1.0\n") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["propagate", "--hbar", "0.05", "--grid=-4,4,1024"],
    ["exact", "--hbar", "0.05", "--grid=-4,4,1024"],
    ["manifold"]], ids=["propagate", "exact", "manifold"])
def test_there_is_no_side_flag(tmp_path, capsys, argv):
    # integer times sample just before that instant's kick, the only convention
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--model", "kho", "--t", "1", "--side", "plus", "--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --side plus" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


SPEC_CONFIG = """\
[experiment]
name = cli-spec
kind = exactness
model = free
hbar = 0.05
times = 0.5
grid = -6, 6, 1024

[case flat]
p0 = 0.4
"""


@pytest.mark.parametrize("edit,message", [
    (lambda text: text.replace("1024", "1000"), "power of two"),
    (lambda text: text.replace("exactness", "sideways"), "unknown experiment kind"),
    (lambda text: text.replace("[experiment]", "[experiments]"), "[experiment] section"),
    (lambda text: text.replace("p0 = 0.4", "theta_over_halfpi = 1.5"), "transversal slope"),
    (None, "cannot read config"),
], ids=["grid-count", "kind", "no-experiment-section", "angle", "missing-file"])
def test_run_config_errors_exit_2(tmp_path, capsys, edit, message):
    cfg = tmp_path / "spec.ini"
    if edit is not None:
        cfg.write_text(edit(SPEC_CONFIG))
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert err.count("\n") == 1


def test_run_config_runs(tmp_path, capsys):
    cfg = tmp_path / "spec.ini"
    cfg.write_text(SPEC_CONFIG)
    code, out, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    assert "cli-spec" in out
    # no thawed among the methods: nan in the table, null in the report
    _, cols = sw.read_table(tmp_path / "fidelity_series.csv")
    assert np.isnan(cols["fidelity_thawed"]).all()
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["cases"][0]["per_time"][0]["thawed_fidelity"] is None


def test_run_config_refuses_an_unknown_model_parameter(tmp_path, capsys):
    # a misspelt kick strength must not run the default k = 2 model
    cfg = tmp_path / "spec.ini"
    cfg.write_text("[experiment]\nname = misspelt\nkind = lyapunov\nmodel = kho\n"
                   "hbar = 0.0008\ntimes = 1\ngrid = -4, 4, 8192\n\n[model]\nkick = 3.0\n\n"
                   "[case center]\nq0 = 0.0\n")
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "'kick'" in err and "(allowed: k)" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize("name", [s.name for s in sw.builtin_specs()])
def test_every_builtin_spec_runs_without_breach(tmp_path, capsys, name):
    code, out, err = run_cli(["run", "--spec", name, "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    assert (tmp_path / "report.json").exists()


@pytest.mark.parametrize("argv", [
    ["exact"] + FREE_ARGS + ["--t", "0.5", "--p0", "nan"],
    ["propagate"] + FREE_ARGS + ["--t", "0.5", "--method", "thawed", "--p0", "nan"],
    ["propagate"] + FREE_ARGS + ["--t", "0.5", "--q0", "inf"],
    ["manifold", "--model", "free", "--t", "0.5", "--alpha", "nan"],
    ["manifold", "--model", "free", "--t", "0.5", "--theta-over-halfpi", "nan"],
], ids=["exact-p0", "thawed-p0", "extwkb-q0", "manifold-alpha", "manifold-theta"])
def test_non_finite_center_or_slope_exits_2(tmp_path, capsys, argv):
    code, out, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite" in err and err.count("\n") == 1
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model,flag", [("quartic", "--epsilon=nan"), ("kho", "--k=inf"),
                                        ("barrier", "--v0=inf")])
def test_non_finite_model_parameter_exits_2(tmp_path, capsys, model, flag):
    code, out, err = run_cli(["exact", "--model", model, "--hbar", "0.05", "--grid=-4,4,1024",
                              "--t", "0.5", flag, "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    name = flag[2:flag.index("=")]
    assert err.startswith("error:") and f"'{name}' must be finite" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "exact_state.csv").exists()


@pytest.mark.parametrize("name", MODEL_NAMES)
def test_model_flags_default_to_the_catalogue(tmp_path, capsys, name):
    # a run without parameter flags is the run with the catalogue's defaults
    defaults = _MODELS[name][0]
    spelt = [f"--{key}={value!r}" for key, value in defaults.items()]
    base = ["exact", "--model", name, "--hbar", "0.05", "--grid=-4,4,1024", "--t", "0.5",
            "--p0", "0.3", "--out", str(tmp_path)]
    assert run_cli(base, capsys)[0] == 0
    assert run_cli(base + spelt + ["--prefix", "spelt"], capsys)[0] == 0
    assert ((tmp_path / "exact_state.csv").read_bytes()
            == (tmp_path / "spelt_state.csv").read_bytes())


@pytest.mark.parametrize("argv,allowed", [
    (["propagate"] + FREE_ARGS[2:] + ["--model", "barrier", "--t", "0.5", "--k", "3"], "v0"),
    (["exact"] + FREE_ARGS + ["--t", "0.5", "--epsilon", "0.2"], "none"),
    (["manifold", "--model", "kho", "--t", "0.5", "--v0", "2"], "k"),
    (["lyapunov", "--model", "barrier", "--k", "3"], "v0"),
], ids=["propagate", "exact", "manifold", "lyapunov"])
def test_a_parameter_the_model_lacks_exits_2(tmp_path, capsys, argv, allowed):
    code, out, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and f"(allowed: {allowed})" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model", ["free", "quartic"])
def test_lyapunov_of_a_model_that_is_not_hyperbolic_exits_2(tmp_path, capsys, model):
    code, out, err = run_cli(["lyapunov", "--model", model, "--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "not hyperbolic" in err


def test_lyapunov_takes_the_barrier_rate_from_the_tangent_map(capsys):
    code, out, _ = run_cli(["lyapunov", "--model", "barrier", "--v0", "4"], capsys)
    assert code == 0 and "lambda = 2.000000000" in out


def test_unknown_builtin_spec_exits_2(capsys):
    code, out, err = run_cli(["run", "--spec", "nope"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "'nope'" in err and "kho-fig2" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["exact", "propagate", "manifold"])
def test_negative_epsilon_exits_2(tmp_path, capsys, command):
    # the quartic dispersion h = p^2/2 + epsilon p^4 is convex only for epsilon >= 0
    argv = [command, "--model", "quartic", "--epsilon=-1", "--t", "0.5", "--p0", "1"]
    if command != "manifold":
        argv += ["--hbar", "0.05", "--grid=-6,6,1024"]
    code, out, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "epsilon" in err and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


BARRIER_CONFIG = """\
[experiment]
name = my-sweep
kind = barrier-sweep
model = barrier
hbar = 0.05
times = 1, 2
grid = -12, 12, 2048
methods = exact

[case reflected]
p0 = 0.3
q0 = -0.5

[case transmitted]
p0 = 0.7
q0 = -0.5
"""


def test_a_run_builds_its_model_once(tmp_path, capsys, monkeypatch):
    built = []

    def spy(name, params=()):
        built.append(name)
        return build_model(name, params)

    monkeypatch.setattr(sw.experiments, "build_model", spy)
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(BARRIER_CONFIG)
    for target in (["--spec", "kho-lyapunov"], ["--config", str(cfg)]):
        sw.ExperimentSpec.validate.cache_clear()
        built.clear()
        code, _, _ = run_cli(["run", *target, "--out", str(tmp_path)], capsys)
        assert code == 0 and len(built) == 1


def _violated(checks):
    """The checks with each bound moved past the value it gates."""
    past = {"lt": -math.inf, "le": -math.inf, "ge": math.inf, "near": math.inf}
    return [{**c, "bound": past.get(c["op"], not c["bound"])} for c in checks]


def _baselines_with(monkeypatch, edit):
    base = load_baselines()
    edit(base)
    monkeypatch.setattr(sw.experiments, "load_baselines", lambda: base)


FIG2_BREACHES = ([f"report.per_time[{i}].{key}_ok" for i in range(4)
                  for key in ("backward_l2", "pointwise_peak")]
                 + ["report.final_fidelity_ok", "report.final_beats_thawed_ok"])


@pytest.mark.parametrize("name,breaches", [
    ("integrable-exactness", [f"report.cases[{i}].per_time[{j}].fidelity_ok"
                              for i in range(2) for j in range(3)]),
    ("barrier-transmission", ["report.cases[0].sign_match_ok",
                              "report.cases[2].sign_match_ok"]),
    ("kho-fig2", FIG2_BREACHES),
    ("kho-slopes", ["report.degradation_ok", "report.regression_degradation_ok",
                    "report.fidelity_floor_ok"]),
    ("kho-lyapunov", ["report.lyapunov_exponent_ok"]),
])
def test_a_bound_past_its_measured_value_exits_1(tmp_path, capsys, monkeypatch, name, breaches):
    # every check of the spec, frozen under its name or declared for its kind,
    # gates the run: with each bound moved past its value, each one is named
    kind = get_builtin_spec(name).kind

    def violate(base):
        base["specs"][name] = _violated(base["specs"].get(name, []))
        base["kinds"][kind] = _violated(base["kinds"].get(kind, []))

    _baselines_with(monkeypatch, violate)
    code, out, err = run_cli(["run", "--spec", name, "--out", str(tmp_path)], capsys)
    assert code == 1 and name in out
    assert sorted(err.splitlines()) == sorted(f"breach: {b}" for b in breaches)


def test_one_bound_below_its_measured_value_exits_1(tmp_path, capsys, monkeypatch):
    def lower(base):
        base["specs"]["integrable-exactness"][0]["bound"] = 0.99

    _baselines_with(monkeypatch, lower)
    code, _, err = run_cli(["run", "--spec", "integrable-exactness", "--out", str(tmp_path)],
                           capsys)
    # only the slope-0 state at t = 4 (fidelity 0.98895) falls below 0.99
    assert code == 1 and err == "breach: report.cases[0].per_time[2].fidelity_ok\n"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["results"]["cases"][0]["per_time"][2]["fidelity_bound"] == 0.99


def test_a_config_barrier_sweep_keeps_its_sign_check(tmp_path, capsys, monkeypatch):
    # the sign check belongs to the kind, so a spec that is not builtin gets it too
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(BARRIER_CONFIG)
    argv = ["run", "--config", str(cfg), "--out", str(tmp_path)]
    code, _, err = run_cli(argv, capsys)
    assert code == 0 and err == ""
    cases = json.loads((tmp_path / "report.json").read_text())["results"]["cases"]
    assert [c["sign_match_ok"] for c in cases] == [True, True]

    def violate(base):
        base["kinds"]["barrier-sweep"] = _violated(base["kinds"]["barrier-sweep"])

    _baselines_with(monkeypatch, violate)
    code, _, err = run_cli(argv, capsys)
    assert code == 1 and err.splitlines() == ["breach: report.cases[0].sign_match_ok",
                                              "breach: report.cases[1].sign_match_ok"]


def test_a_config_spec_is_not_gated_on_a_builtins_bounds(tmp_path, capsys):
    # the kicked oscillator's frozen exponent belongs to kho-lyapunov, not to
    # every lyapunov spec: the barrier's exponent is no breach
    cfg = tmp_path / "lyap.ini"
    cfg.write_text("[experiment]\nname = lyap-barrier\nkind = lyapunov\nmodel = barrier\n"
                   "hbar = 0.05\ntimes = 1\ngrid = -4, 4, 1024\n\n[case origin]\np0 = 0\n")
    code, _, err = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 0 and err == ""
    results = json.loads((tmp_path / "report.json").read_text())["results"]
    assert results["lyapunov_exponent"] == pytest.approx(1.0, abs=1e-12)
    assert not any(key.endswith("_ok") for key in results)
