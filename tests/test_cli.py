import dataclasses
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oscille
from oscille import cell, cli, core, fem, linalg, smoothing, study

SINE_CFG = {
    "field": {"preset_id": "Sine1D", "params": [2, 1], "dim": 1},
    "domain": [[0.0, 1.0]],
    "bc": {"kind": "dirichlet"},
    "mu": 0.0,
    "p": 2.0,
    "s": 1.0,
    "s_plus": 1.0,
    "epsilons": [0.125, 0.0625, 0.03125],
    "points_per_period": 16,
    "interior_margin": 0.0,
}


def _write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_scenario_from_dict_roundtrip():
    sc = cli.scenario_from_dict(SINE_CFG)
    assert sc.field.preset_id == "Sine1D"
    assert sc.points_per_period == 16


def test_unknown_keys_rejected():
    bad = dict(SINE_CFG)
    bad["extra"] = 1
    with pytest.raises(cli.ConfigError):
        cli.scenario_from_dict(bad)
    bad2 = dict(SINE_CFG)
    bad2["field"] = dict(SINE_CFG["field"], junk=2)
    with pytest.raises(cli.ConfigError):
        cli.scenario_from_dict(bad2)
    missing = dict(SINE_CFG)
    del missing["mu"]
    with pytest.raises(cli.ConfigError):
        cli.scenario_from_dict(missing)


def test_missing_config_exit_2(tmp_path, capsys):
    rc = cli.main(["study", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_invalid_scenario_exit_2(tmp_path, capsys):
    bad = dict(SINE_CFG, epsilons=[0.5, 0.25, 0.125])
    rc = cli.main(["study", "--config", _write_cfg(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize(
    "key,value",
    [("mu", float("nan")), ("epsilons", [float("inf"), 0.0625, 0.03125]),
     ("epsilons", [0.125, float("nan"), 0.03125]), ("interior_margin", float("nan")),
     ("domain", [[0.0, float("inf")]])],
)
def test_non_finite_scenario_exit_2(tmp_path, capsys, key, value):
    bad = dict(SINE_CFG, **{key: value})
    rc = cli.main(["study", "--config", _write_cfg(tmp_path, bad), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "must be finite" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_impossible_interior_margin_rejected_before_tabulating(tmp_path, capsys, monkeypatch):
    solves = []
    monkeypatch.setattr(cell, "solve_cell", lambda *args, **kwargs: solves.append(args))
    bad = dict(SINE_CFG, interior_margin=0.5)  # exactly half the side leaves no interior
    with pytest.raises(core.ScenarioError, match="half the shortest domain side"):
        cli.scenario_from_dict(bad)
    rc = cli.main(["study", "--config", _write_cfg(tmp_path, bad), "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc == 2
    assert "half the shortest domain side" in capsys.readouterr().err
    assert solves == []


@pytest.mark.parametrize(
    "argv, cfg",
    [
        (["study"], {"field": {"params": [2, 1], "dim": 1}}),
        (["study"], {"domain": 5}),
        (["study"], {"epsilons": 0.1}),
        (["study"], {"mu": None}),
        (["study"], {"points_per_period": 12.7}),
        (["study"], {"points_per_period": True}),
        (["study"], {"interior_margin": 0.6}),
        (["study"], {"epsilons": [0.12, 0.06, 0.03]}),  # h = eps/16 does not divide [0, 1]
        (["study"], '{"field": {"preset_id": "Sine1D", '),
        (["study"], "[1, 2]"),
        (["study", "--eps", "0.1,x"], {}),
        (["cell", "--preset", "Sine1D", "--params", "2,abc"], None),
        (["cell", "--preset", "Sine1D", "--params", "2,1", "--m", "2"], None),
        (["cell", "--preset", "Sine1D", "--params", "2,1", "--x", "0.1,0.2"], None),
        (["audit", "--preset", "Sine1D", "--params", "2,1", "--samples", "10"], None),
        (["study"], {"bc": {"kind": "dirichlet", "dirichlet_edges": ["left"]}}),
        (["study"], {"bc": {"kind": "neumann", "dirichlet_edges": ["left"]}, "mu": -1.0}),
        (["study"], {"bc": {"kind": "mixed", "dirichlet_edges": ["left", "left"]}}),
    ],
)
def test_config_errors_exit_2_without_traceback(tmp_path, capsys, argv, cfg):
    if cfg is not None:
        text = cfg if isinstance(cfg, str) else json.dumps(dict(SINE_CFG, **cfg))
        path = tmp_path / "cfg.json"
        path.write_text(text)
        argv = argv + ["--config", str(path), "--out", str(tmp_path / "o"), "--threads", "1"]
    rc = cli.main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ")
    assert "Traceback" not in err


def test_study_runs_serially_without_threads_flag(tmp_path, monkeypatch, capsys):
    # one worker unless asked: each worker's BLAS may start a thread per core
    seen = []

    def stop(scenario, threads):
        seen.append(threads)
        raise core.NumericalError("stop after recording the thread count")

    monkeypatch.setattr(cli.study, "run_study", stop)
    assert cli.main(["study", "--config", _write_cfg(tmp_path, SINE_CFG), "--out", str(tmp_path / "o")]) == 3
    assert seen == [1]


def test_unexpected_exception_propagates(tmp_path, monkeypatch):
    # an exception outside the two error bases is a bug: no exit code hides it
    def failing_study(scenario, threads=1):
        raise ValueError("injected bug")

    monkeypatch.setattr(cli.study, "run_study", failing_study)
    cfg = _write_cfg(tmp_path, SINE_CFG)
    with pytest.raises(ValueError, match="injected bug"):
        cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")])


def test_every_exception_class_has_one_base():
    assert cli.ConfigError is core.ConfigError
    found = []
    for info in pkgutil.iter_modules(oscille.__path__):
        module = importlib.import_module(f"oscille.{info.name}")
        for obj in vars(module).values():
            if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                found.append(obj)
                assert issubclass(obj, core.ConfigError) != issubclass(obj, core.NumericalError), obj
    assert len(found) == 19  # the two bases and the 17 classes under them


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
_NEAR_VALID = (st.integers(-2, 64) | st.floats(-1.0, 2.0) | st.lists(st.floats(-1.0, 2.0), max_size=4)
               | st.sampled_from(["Sine1D", "Laminate2D", "Constant", "mixed", "neumann", "left", "top"]))
_PATHS = [(k,) for k in SINE_CFG] + [("field", k) for k in SINE_CFG["field"]] + [
    ("bc", "kind"), ("bc", "dirichlet_edges"), ("extra",), ("field", "extra")]
_DROP = object()


@st.composite
def _configs(draw):
    """SINE_CFG with up to three entries dropped or replaced by a JSON value."""
    cfg = json.loads(json.dumps(SINE_CFG))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        *parents, key = draw(st.sampled_from(_PATHS))
        d = cfg
        for name in parents:
            d = d.get(name) if isinstance(d, dict) else None
        if isinstance(d, dict):
            value = draw(_NEAR_VALID | _JSON | st.just(_DROP))
            if value is _DROP:
                d.pop(key, None)
            else:
                d[key] = value
    return cfg


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_configs())
def test_any_json_config_builds_or_is_config_error(cfg):
    try:
        sc = cli.scenario_from_dict(cfg)
    except cli.ConfigError:
        return
    assert isinstance(sc, core.Scenario)


def test_usage_error_exit_2(capsys):
    assert cli.main(["study"]) == 2  # missing required flags
    assert cli.main(["not-a-command"]) == 2


def test_cell_command_prints_effective_value(capsys):
    rc = cli.main(["cell", "--preset", "Sine1D", "--params", "2,1", "--m", "256"])
    out = capsys.readouterr().out
    assert rc == 0
    val = float(out.strip().split("=")[1])
    assert abs(val - np.sqrt(3.0)) <= 1e-4


def test_cell_command_2d_laminate(capsys):
    rc = cli.main(["cell", "--preset", "Laminate2D", "--params", "2,1", "--m", "64"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "A0 =" in out


def test_audit_command(capsys):
    rc = cli.main(["audit", "--preset", "Sine1D", "--params", "2,1", "--samples", "2000", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "min_eig" in out and "VIOLATION" not in out


_CELL = ["cell", "--preset", "Sine1D", "--params", "2,1"]


@pytest.mark.parametrize(
    "argv",
    [
        _CELL + ["--m", "0"],
        _CELL + ["--x", "nan"],
        _CELL + ["--x", "inf"],
        _CELL + ["--x", ""],
        ["audit", "--preset", "Sine1D", "--params", "2,1", "--seed", "-1"],
        ["audit", "--preset", "Sine1D", "--params", "2,1", "--samples", "1000000000000"],
        ["study", "--threads", "-2"],
        ["study", "--threads", "0"],
        ["study", "--eps", "0.125,nan,0.03125"],
    ],
    ids=" ".join,
)
def test_misread_flags_exit_2(tmp_path, monkeypatch, capsys, argv):
    # each flag value once ran as something else: --m 0 as the default m,
    # a non-finite --x as a point, --threads 0 or -2 as all cores or serial,
    # and --samples 10^12 ran out of memory with exit 1 ("violations found")
    monkeypatch.setattr(study, "run_study", lambda *a, **k: pytest.fail("the study ran"))
    if argv[0] == "study":
        argv = argv + ["--config", _write_cfg(tmp_path, SINE_CFG), "--out", str(tmp_path / "out")]
    assert cli.main(argv) == 2
    assert "config error" in capsys.readouterr().err


def test_study_out_on_existing_file_exit_2(tmp_path, monkeypatch, capsys):
    # the output directory is made before the study runs: a file in its
    # place used to end the finished study in a traceback and exit 1
    monkeypatch.setattr(study, "run_study", lambda *a, **k: pytest.fail("the study ran"))
    out = tmp_path / "taken"
    out.write_text("")
    assert cli.main(["study", "--config", _write_cfg(tmp_path, SINE_CFG), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and repr(str(out)) in err


@pytest.fixture(scope="module")
def study_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("study")
    cfg = _write_cfg(tmp, SINE_CFG)
    out1 = tmp / "run1"
    out2 = tmp / "run2"
    rc1 = cli.main(["study", "--config", cfg, "--out", str(out1), "--plot", "--threads", "1"])
    rc2 = cli.main(["study", "--config", cfg, "--out", str(out2), "--threads", "2"])
    return rc1, rc2, out1, out2


def test_study_exit_zero_on_pass(study_run):
    rc1, rc2, *_ = study_run
    assert rc1 == 0 and rc2 == 0


def test_study_exit_one_when_nothing_verified(tmp_path, capsys):
    # a constant coefficient makes u_eps equal u0: every error sits at
    # solver noise, no target has a fit, and the run must not report success
    cfg = _write_cfg(tmp_path, {**SINE_CFG, "field": {"preset_id": "Constant", "params": [2], "dim": 1}})
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 1
    summary = (tmp_path / "o" / "summary.txt").read_text()
    assert summary.count("verdict=NotApplicable") == 3
    assert "not verified: lp, w1_corr, besov_half" in summary
    assert "PASS" not in (tmp_path / "o" / "rates.csv").read_text()


def test_csv_layout_and_determinism(study_run):
    _, _, out1, out2 = study_run
    csv1 = (out1 / "rates.csv").read_bytes()
    csv2 = (out2 / "rates.csv").read_bytes()
    assert csv1 == csv2  # byte identical across runs and thread counts
    lines = csv1.decode().strip().splitlines()
    assert lines[0] == "target,eps,h,error,slope,verdict"
    # 3 targets x 3 eps = 9 data rows
    assert len(lines) == 1 + 9
    for ln in lines[1:]:
        cells = ln.split(",")
        assert len(cells) == 6
        float(cells[1]), float(cells[2]), float(cells[3])
        assert "," not in cells[3]
        # 12 significant digits, point decimal separator
        assert "e" in cells[3] or "." in cells[3]


def test_csv_sig_digits():
    assert cli._fmt(1 / 3) == "0.333333333333"
    assert cli._fmt(1.0) == "1"
    assert cli._fmt(0.125) == "0.125"


def test_summary_and_svg_written(study_run):
    _, _, out1, _ = study_run
    assert (out1 / "summary.txt").exists()
    svgs = sorted(p.name for p in out1.glob("*.svg"))
    assert svgs == ["rates_besov_half.svg", "rates_lp.svg", "rates_w1_corr.svg"]
    body = (out1 / "rates_lp.svg").read_text()
    assert body.startswith("<svg") and "circle" in body and "log10 eps" in body


def test_eps_and_ppp_overrides(tmp_path):
    cfg = _write_cfg(tmp_path, SINE_CFG)
    out = tmp_path / "o"
    rc = cli.main([
        "study", "--config", cfg, "--out", str(out),
        "--eps", "0.25,0.125,0.0625", "--ppp", "16",
    ])
    assert rc == 0
    body = (out / "rates.csv").read_text()
    assert "0.25," in body


def test_header_only_csv_for_no_targets(tmp_path):
    from oscille import study as study_mod

    rep = study_mod.ConvergenceReport(
        scenario=cli.scenario_from_dict(SINE_CFG), targets=[], rows=[], fits={}, verdicts={}
    )
    files = cli.write_report(rep, str(tmp_path / "empty"))
    with open(files[0]) as fh:
        body = fh.read()
    assert body == "target,eps,h,error,slope,verdict\n"
    assert os.path.exists(files[1])


def _run_python(args, tmp_path):
    # the child finds oscille where this process imported it from
    src = os.path.dirname(os.path.dirname(oscille.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)


def test_module_entry_point_runs_and_maps_exit_codes(tmp_path):
    cfg = _write_cfg(tmp_path, dict(SINE_CFG, epsilons=[0.25, 0.125, 0.0625], points_per_period=8))
    done = _run_python(["-m", "oscille.cli", "study", "--config", cfg, "--out", "out", "--threads", "1"], tmp_path)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "rates.csv").read_text().startswith("target,eps,h,error,slope,verdict\n")
    no_preset = dict(SINE_CFG, field={k: v for k, v in SINE_CFG["field"].items() if k != "preset_id"})
    cfg = _write_cfg(tmp_path, no_preset, name="no_preset.json")
    done = _run_python(["-m", "oscille.cli", "study", "--config", cfg, "--out", "bad"], tmp_path)
    assert done.returncode == 2 and "config error" in done.stderr
    assert not (tmp_path / "bad").exists()


def test_cli_import_leaves_slow_scipy_modules_unloaded(tmp_path):
    probe = "import sys, oscille.cli; print(*[m for m in ('scipy.signal', 'scipy.integrate', 'scipy.stats') if m in sys.modules])"
    done = _run_python(["-c", probe], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == []


@pytest.mark.parametrize(
    "name, overrides", [("mixed1d", {}), ("laminate2d", {"s": 0.5, "s_plus": 0.5})], ids=["mixed1d", "laminate2d_s_half"]
)
def test_mollified_study_leaves_scipy_integrate_unloaded(tmp_path, name, overrides):
    # mixed1d declares s < 1, and laminate2d at s = 0.5 mollifies in 2D; the kernel is normalized on
    # the grid and applied by one FFT product, so neither quadrature nor scipy.signal is loaded
    cfg = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "configs", f"{name}.json"))
    probe = (
        "import json, sys; from oscille import cli, study; "
        f"cfg = json.load(open({cfg!r})); cfg['epsilons'] = cfg['epsilons'][:3]; cfg.update({overrides!r}); "
        "sc = cli.scenario_from_dict(cfg); assert sc.s < 1; study.run_study(sc); "
        "print([m for m in ('scipy.integrate', 'scipy.signal') if m in sys.modules])"
    )
    done = _run_python(["-c", probe], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["[]"]


def test_suite_smoothing_command(capsys):
    rc = cli.main(["suite-smoothing"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steklov_tau_norm" in out and "isometry" in out and "FAIL" not in out


def test_suite_strip_command(capsys):
    rc = cli.main(["suite-strip"])
    out = capsys.readouterr().out
    assert rc == 0
    for sample in ("d=1 sin(pi x)", "d=1 cos(pi x)", "d=2 sin(pi x1) sin(pi x2)", "d=2 cos(pi x1) cos(pi x2)"):
        assert f"[ok ] {sample}:" in out
    assert out.count("step=") == 16 and "FAIL" not in out


def test_shipped_configs_parse():
    base = os.path.join(os.path.dirname(__file__), "..", "configs")
    for name in ("sine1d.json", "laminate2d.json", "mixed1d.json"):
        sc = cli.load_scenario(os.path.join(base, name))
        assert len(sc.epsilons) >= 3
    mixed = cli.load_scenario(os.path.join(base, "mixed1d.json"))
    assert mixed.bc.kind == "mixed" and mixed.s == 0.5


@pytest.mark.parametrize(
    "exc",
    [cell.TableCoverage, cell.EllipticityViolation, smoothing.InsufficientMargin, smoothing.MarginTooLarge,
     study.InsufficientData, study.NonPositiveError, study.NonFiniteMeasurement],
)
def test_corrector_and_margin_errors_exit_3(tmp_path, monkeypatch, capsys, exc):
    def failing_study(scenario, threads=1):
        raise exc("injected")

    monkeypatch.setattr(cli.study, "run_study", failing_study)
    cfg = _write_cfg(tmp_path, SINE_CFG)
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert f"numerical failure: {exc.__name__}: injected" in capsys.readouterr().err


def test_numerical_failure_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("OSCILLE_NODE_CAP", "100")
    cfg = _write_cfg(tmp_path, SINE_CFG)
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_underflowing_load_norm_exit_3(tmp_path, monkeypatch, capsys):
    # a load norm of 0 (as one underflowing in the p-th powers would read)
    # must not divide the errors
    monkeypatch.setattr(cli.study, "lp_norm", lambda *args: 0.0)
    cfg = _write_cfg(tmp_path, SINE_CFG)
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc == 3
    assert "numerical failure: NonFiniteMeasurement: L^p norm of load" in capsys.readouterr().err


def test_nan_error_exit_3(tmp_path, monkeypatch, capsys):
    # a NaN error must not be recorded as 0 by the running maximum
    monkeypatch.setattr(cli.study, "w1p_seminorms", lambda u, p, masks: [float("nan")] * len(masks))
    cfg = _write_cfg(tmp_path, SINE_CFG)
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc == 3
    assert "numerical failure: NonFiniteMeasurement: w1_" in capsys.readouterr().err


def test_indefinite_1d_system_exit_3(tmp_path, monkeypatch, capsys):
    # a negated 1D system is not positive definite: the banded Cholesky
    # failure is a numerical failure, not a config error
    assemble = cli.study.fem.assemble

    def negated(*args, **kwargs):
        system = assemble(*args, **kwargs)
        return dataclasses.replace(system, matrix=-system.matrix)

    monkeypatch.setattr(cli.study.fem, "assemble", negated)
    cfg = _write_cfg(tmp_path, SINE_CFG)
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc == 3
    assert "numerical failure: SingularSystem: 1D system is not positive definite" in capsys.readouterr().err


LAMINATE_CFG = dict(
    SINE_CFG,
    field={"preset_id": "Laminate2D", "params": [2, 1], "dim": 2},
    domain=[[0.0, 1.0], [0.0, 1.0]],
    mu=-1.0,
    epsilons=[0.25, 0.125, 0.0625],
    points_per_period=8,
)


def test_stagnating_2d_solve_fails_fast_exit_3(tmp_path, monkeypatch, capsys):
    # a preconditioner scale 1e4 times too small against the mass shift
    # spreads the Neumann spectrum (the sine load then needs 100 iterations);
    # the solve stops at the count the built preconditioner certifies, 74
    # for kappa = 1 (Laminate2D varies along x1 only), not at 20 per dof
    bounds = fem._coefficient_bounds

    def scaled(a_vals):
        lo, hi = bounds(a_vals)
        return 1e-4 * lo, 1e-4 * hi

    built = []
    build = fem._fast_diagonalization

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(fem, "_coefficient_bounds", scaled)
    monkeypatch.setattr(fem, "_fast_diagonalization", recorded)
    cfg = _write_cfg(tmp_path, dict(LAMINATE_CFG, bc={"kind": "neumann"}))
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure: NonConvergence: no convergence after" in err
    assert {pre.max_iter(linalg.DEFAULT_TOL) for pre in built} == {74}
    assert int(err.split("no convergence after ")[1].split()[0]) == 74


def test_non_elliptic_2d_coefficient_exit_3(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fem, "_coefficient_bounds", lambda a_vals: (0.0, 1.0))
    cfg = _write_cfg(tmp_path, LAMINATE_CFG)
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc == 3
    assert "numerical failure: SingularSystem: coefficient eigenvalues" in capsys.readouterr().err


def test_elongated_2d_domain_under_cap_runs_study(tmp_path, monkeypatch, capsys):
    # 129 x 65 nodes at the finest eps fit a cap of 10,000; the long axis
    # alone (129^2 = 16,641) would not, and the preconditioner needs no
    # room per axis
    monkeypatch.setenv("OSCILLE_NODE_CAP", "10000")
    cfg = _write_cfg(tmp_path, dict(LAMINATE_CFG, domain=[[0.0, 1.0], [0.0, 0.5]]))
    rc = cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o"), "--threads", "1"])
    assert rc in (0, 1)  # a verdict, not a numerical failure
    assert "ExcessiveSize" not in capsys.readouterr().err
    rows = (tmp_path / "o" / "rates.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 3 * 3  # header, then three targets at three eps
