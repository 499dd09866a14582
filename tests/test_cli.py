import dataclasses
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import agflow.cli as cli
from agflow import dynamics, errors, lyapunov, problems, schedules, smoothing
from agflow.config import ExperimentConfig, load_config
from agflow.errors import ConfigurationError

QUAD_CFG = """
[problem]
kind = quadratic
q_diag = 1 4
b = 0 0

[schedule]
family = constant
d = 2.0
sigma = 1.0

[integrator]
t0 = 0.0
t_end = {t_end}
step = 1e-3
record_stride = 10

[initial]
x0 = 1 1

[output]
directory = {out}
formats = csv json

[experiment]
seed = 0
"""


def write_cfg(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_load_config_roundtrip(tmp_path):
    path = write_cfg(tmp_path, QUAD_CFG.format(t_end=5.0, out=tmp_path / "o"))
    cfg = load_config(path)
    assert cfg.problem_kind == "quadratic"
    assert cfg.family_kind == "constant"
    assert cfg.step == pytest.approx(1e-3)
    spec = cfg.build_problem()
    assert spec.objective.sigma == 1.0
    fam = cfg.build_family()
    assert fam.describe()["D"] == 2.0


def test_load_config_validation_errors(tmp_path):
    bad_kind = QUAD_CFG.format(t_end=5.0, out="o").replace("kind = quadratic", "kind = parabola")
    with pytest.raises(ConfigurationError, match="problem"):
        load_config(write_cfg(tmp_path, bad_kind, "a.cfg"))
    missing = "[problem]\nkind = quadratic\nq_diag = 1\n"
    with pytest.raises(ConfigurationError, match="schedule"):
        load_config(write_cfg(tmp_path, missing, "b.cfg"))
    ragged = QUAD_CFG.format(t_end=5.0, out="o").replace("q_diag = 1 4", "q_rows = 1 0; 1")
    with pytest.raises(ConfigurationError, match="ragged"):
        load_config(write_cfg(tmp_path, ragged, "c.cfg"))
    nonnum = QUAD_CFG.format(t_end=5.0, out="o").replace("d = 2.0", "d = two")
    with pytest.raises(ConfigurationError, match="not a number"):
        load_config(write_cfg(tmp_path, nonnum, "d.cfg"))


def test_simulate_pass_and_outputs(tmp_path):
    out = tmp_path / "run"
    path = write_cfg(tmp_path, QUAD_CFG.format(t_end=5.0, out=out))
    code = cli.main(["simulate", "--config", path, "--quiet"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["pass"] is True
    assert summary["monotonicity"]["passed"] is True
    assert (out / "trajectory.csv").exists()
    assert (out / "trajectory.json").exists()


def test_simulate_deterministic_output(tmp_path):
    path = write_cfg(tmp_path, QUAD_CFG.format(t_end=3.0, out=tmp_path / "r1"))
    assert cli.main(["simulate", "--config", path, "--quiet"]) == 0
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "r2"), "--quiet"]) == 0
    a = (tmp_path / "r1" / "trajectory.csv").read_bytes()
    b = (tmp_path / "r2" / "trajectory.csv").read_bytes()
    assert a == b


def test_simulate_invalid_schedule_exits_one(tmp_path):
    text = QUAD_CFG.format(t_end=5.0, out=tmp_path / "bad") + "\n"
    text = text.replace("sigma = 1.0", "sigma = 1.0\nnu_dot_factor = 2.0")
    path = write_cfg(tmp_path, text)
    assert cli.main(["simulate", "--config", path, "--quiet"]) == 1
    summary = json.loads((tmp_path / "bad" / "summary.json").read_text())
    assert summary["monotonicity"]["passed"] is False
    assert summary["conditions"]["passed"] is False


def test_simulate_unknown_problem_exits_two(tmp_path, capsys):
    text = QUAD_CFG.format(t_end=5.0, out="o").replace("kind = quadratic", "kind = nosuch")
    path = write_cfg(tmp_path, text)
    assert cli.main(["simulate", "--config", path, "--quiet"]) == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("simulate", "integrator", "step", "nan"),
        ("simulate", "integrator", "t_end", "inf"),
        ("check-assumptions", "integrator", "t_end", "inf"),
        ("simulate", "initial", "x0", "1 nan"),
        ("simulate", "problem", "q_diag", "1 -inf"),
        ("simulate", "fit", "required", "nan"),
    ],
)
def test_non_finite_config_value_exits_two(tmp_path, capsys, command, section, key, value):
    text = QUAD_CFG.format(t_end=1.0, out=tmp_path / "o")
    if f"[{section}]" in text:
        text, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert n == 1
    else:
        model = "model = exponential\n" if section == "fit" else ""
        text += f"\n[{section}]\n{model}{key} = {value}\n"
    argv = [command, "--config", write_cfg(tmp_path, text), "--quiet"]
    assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config error: [{section}].{key}") and "must be finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "command, name, old, new",
    [
        ("simulate", "[integrator].stpe", "step = 1e-3", "stpe = 0.5"),
        (
            "check-assumptions", "[schedule].sigma",
            "family = constant\nd = 2.0\nsigma = 1.0", "family = polynomial\nc = 3.0\nsigma = 7",
        ),
        ("simulate", "[lyapunov].bound_rel_tol", "[output]", "[lyapunov]\nbound_rel_tol = 10\n\n[output]"),
        ("simulate", "[nosuch]", "[output]", "[nosuch]\n\n[output]"),
        ("simulate", "[DEFAULT]", "[problem]", "[DEFAULT]\nstep = 0.5\n\n[problem]"),
        ("simulate", "[problem].q_rows", "q_diag = 1 4", "q_diag = 1 4\nq_rows = 1 0; 0 4"),
    ],
    ids=["misspelt", "other-family", "tolerance", "section", "defaults", "shadowed"],
)
def test_unknown_config_key_exits_two(tmp_path, capsys, command, name, old, new):
    # a key the loader does not read would otherwise be dropped without a word
    text = QUAD_CFG.format(t_end=1.0, out=tmp_path / "o")
    assert text.count(old) == 1
    path = write_cfg(tmp_path, text.replace(old, new))
    with pytest.raises(ConfigurationError, match=re.escape(name)):
        load_config(path)
    assert cli.main([command, "--config", path, "--quiet"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {name}") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_readme_ini_blocks_load(tmp_path):
    # README's config grammar and smooth-demo config are files the loader takes
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^( *)```ini\n(.*?)^\1```", readme, flags=re.M | re.S)
    assert len(blocks) == 2
    for i, (indent, block) in enumerate(blocks):
        text = re.sub(rf"^{indent}", "", block, flags=re.M)
        load_config(write_cfg(tmp_path, text, f"readme{i}.cfg"))


def test_simulate_mismatched_hessian_exits_two(tmp_path, monkeypatch, capsys):
    shipped = problems.quadratic

    def wrong_hessian(Q, b):
        spec = shipped(Q, b)
        bad = dataclasses.replace(spec.objective, hessian=2.0 * spec.objective.hessian)
        return dataclasses.replace(spec, objective=bad)

    monkeypatch.setattr(problems, "quadratic", wrong_hessian)
    path = write_cfg(tmp_path, QUAD_CFG.format(t_end=1.0, out=tmp_path / "o"))
    assert cli.main(["simulate", "--config", path, "--quiet"]) == 2
    assert "Hessian" in capsys.readouterr().err


def test_check_assumptions_families(tmp_path):
    path = write_cfg(tmp_path, QUAD_CFG.format(t_end=10.0, out=tmp_path / "chk"))
    assert cli.main(["check-assumptions", "--config", path, "--quiet"]) == 0
    report = json.loads((tmp_path / "chk" / "assumptions.json").read_text())
    assert report["passed"] is True

    hyp = QUAD_CFG.format(t_end=10.0, out=tmp_path / "chk2").replace(
        "family = constant\nd = 2.0\nsigma = 1.0", "family = hyperbolic\nsigma = 1.0"
    )
    path2 = write_cfg(tmp_path, hyp, "hyp.cfg")
    assert cli.main(["check-assumptions", "--config", path2, "--quiet"]) == 0
    rep2 = json.loads((tmp_path / "chk2" / "assumptions.json").read_text())
    # the first two condition items hold with equality for this family
    assert abs(rep2["item_worst"][0]) <= 1e-10
    assert abs(rep2["item_worst"][1]) <= 1e-10

    # overdamped constant coefficient uses the slow root
    slow = QUAD_CFG.format(t_end=10.0, out=tmp_path / "chk3").replace("d = 2.0", "d = 5.0")
    path3 = write_cfg(tmp_path, slow, "slow.cfg")
    assert cli.main(["check-assumptions", "--config", path3, "--quiet"]) == 0

    poly = QUAD_CFG.format(t_end=10.0, out=tmp_path / "chk4").replace(
        "family = constant\nd = 2.0\nsigma = 1.0", "family = polynomial\nc = 3.0"
    )
    path4 = write_cfg(tmp_path, poly, "poly.cfg")
    assert cli.main(["check-assumptions", "--config", path4, "--quiet"]) == 0
    rep4 = json.loads((tmp_path / "chk4" / "assumptions.json").read_text())
    assert rep4["condition"] == "general"  # exp_pi = 0 branch at C = 3


def test_check_assumptions_slacks_csv_does_not_depend_on_writer_count(monkeypatch, tmp_path):
    text = QUAD_CFG.format(t_end=10.0, out=tmp_path / "chk").replace(
        "record_stride = 10", "record_stride = 10\ngrid_num = 2049"
    )  # the second range ends in a one-row chunk, smaller than a file buffer
    path = write_cfg(tmp_path, text)
    slacks = {}
    for workers in (1, 2):
        monkeypatch.setattr(dynamics, "_writer_count", lambda rows: workers)
        assert cli.main(["check-assumptions", "--config", path, "--quiet"]) == 0
        slacks[workers] = (tmp_path / "chk" / "slacks.csv").read_bytes()
    lines = slacks[1].decode().splitlines()
    assert lines[0] == "t,slack1,slack2,slack3,slack4" and len(lines) == 2050
    assert slacks[2] == slacks[1]
    assert sorted(p.name for p in (tmp_path / "chk").iterdir()) == ["assumptions.json", "slacks.csv"]


@pytest.mark.parametrize("command", ["simulate", "check-assumptions"])
@pytest.mark.parametrize(
    "condition, schedule",
    [
        ("general", "family = constant\nd = 2.0\nsigma = 1.0"),
        ("general2", "family = polynomial\nc = 1.5"),
    ],
    ids=["general", "general2"],
)
def test_condition_report_samples_its_grid_once(
    monkeypatch, tmp_path, command, condition, schedule
):
    text = (
        QUAD_CFG.format(t_end=2.0, out=tmp_path / "o")
        .replace("family = constant\nd = 2.0\nsigma = 1.0", schedule)
        .replace("t0 = 0.0", "t0 = 1.0")
        .replace("record_stride = 10", "record_stride = 10\ngrid_num = 777")
    )
    path = write_cfg(tmp_path, text)
    sizes = []
    sample = schedules.ScheduleFamily.sample
    monkeypatch.setattr(
        schedules.ScheduleFamily, "sample", lambda self, t: sizes.append(np.size(t)) or sample(self, t)
    )
    assert cli.main([command, "--config", path, "--quiet"]) == 0
    assert sizes.count(777) == 1
    out = tmp_path / "o"
    if command == "simulate":
        report = json.loads((out / "summary.json").read_text())["conditions"]
    else:
        report = json.loads((out / "assumptions.json").read_text())
    assert report["condition"] == condition


# the polynomial model's problem under C = 1.5, whose exp(pi) > 0 only the
# symmetric V may use
FLAT_STANDARD_CFG = """
[problem]
kind = flat_quadratic
a_rows = 1 1
b = 2

[schedule]
family = polynomial
c = 1.5

[integrator]
t0 = 1.0
t_end = 10.0

[initial]
x0 = 2 1

[lyapunov]
variant = standard

[output]
directory = {out}
formats = csv
"""


@pytest.mark.parametrize(
    "command, base, edit, worst",
    [
        ("simulate", "flat", {}, 0.5),
        ("check-assumptions", "flat", {}, 0.5),
        ("check-assumptions", "flat", {"variant = standard": "variant = auto"}, None),
        ("simulate", "smoothed", {}, 0.5),
        ("simulate", "smoothed", {"c = 1.5": "c = 6"}, 1.0),
    ],
    ids=["simulate-standard", "check-standard", "check-auto", "smoothed-C1.5", "smoothed-C6"],
)
def test_the_variant_picks_the_condition_set(tmp_path, command, base, edit, worst):
    # Standard and Smoothed runs certify a V without the e^pi term, so they
    # are checked against `general`: it fails for C = 1.5 (slack 4 is
    # 0.5/t) and for C = 6 (slack 3 is 1/t), and the run exits 1
    text = FLAT_STANDARD_CFG
    if base == "smoothed":
        text = SMOOTH_DEMO_CFG.replace("family = hyperbolic\nsigma = 0", "family = polynomial\nc = 1.5")
        text = text.replace("t_end = 14", "t_end = 4")
    for old, new in edit.items():
        assert old in text
        text = text.replace(old, new)
    path = write_cfg(tmp_path, text.format(out=tmp_path / "o"))
    code = cli.main([command, "--config", path, "--quiet"])
    out = tmp_path / "o"
    if command == "simulate":
        report = json.loads((out / "summary.json").read_text())["conditions"]
    else:
        report = json.loads((out / "assumptions.json").read_text())
    if worst is None:  # auto on a euclidean h: the symmetric V, relaxed conditions
        assert code == cli.EXIT_PASS and report["condition"] == "general2"
        return
    assert code == cli.EXIT_CHECK_FAILURE
    assert report["condition"] == "general" and report["passed"] is False
    assert report["worst_slack"] == pytest.approx(worst)
    if command == "simulate":  # the recorded slacks are general's too
        trajectory = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1, ndmin=2)
        assert np.max(trajectory[:, -4:]) == pytest.approx(worst)


def _short_canonical_row():
    # one short row exercises the table path without the full canonical cost
    row = cli.canonical_grid()[1]
    assert row["label"] == "constant D=2 sigma=1"
    return {**row, "t_end": 8.0, "window": (4.0, 8.0)}


def test_reproduce_table_plumbing(monkeypatch, tmp_path):
    row = _short_canonical_row()
    monkeypatch.setattr(cli, "canonical_grid", lambda: [row])
    assert cli.main(["reproduce-table", "--out", str(tmp_path), "--quiet"]) == 0
    table = (tmp_path / "rate_table.txt").read_text()
    assert "constant D=2 sigma=1" in table
    payload = json.loads((tmp_path / "rate_table.json").read_text())
    assert payload["pass"] is True
    assert payload["rows"][0]["monotonicity"]["passed"] is True


@pytest.mark.parametrize(
    "report, key",
    [("monotonicity_report", "monotonicity"), ("bound_check", "bounds"), ("integral_estimates", "integrals")],
)
def test_reproduce_table_row_fails_on_a_failing_report(monkeypatch, tmp_path, report, key):
    row = _short_canonical_row()
    monkeypatch.setattr(cli, "canonical_grid", lambda: [row])
    shipped = getattr(lyapunov, report)
    monkeypatch.setattr(
        lyapunov, report, lambda traj, **kw: dataclasses.replace(shipped(traj, **kw), passed=False)
    )
    assert cli.main(["reproduce-table", "--out", str(tmp_path), "--quiet"]) == cli.EXIT_CHECK_FAILURE
    payload = json.loads((tmp_path / "rate_table.json").read_text())
    [out] = payload["rows"]
    assert out["fitted"] >= out["required"] and out[key]["passed"] is False
    assert payload["pass"] is False and out["passed"] is False
    assert "FAIL" in (tmp_path / "rate_table.txt").read_text()


def test_smooth_demo(tmp_path):
    assert cli.main(["smooth-demo", "--out", str(tmp_path / "sm"), "--quiet"]) == 0
    summary = json.loads((tmp_path / "sm" / "smooth_summary.json").read_text())
    assert summary["pass"] is True
    assert summary["certification"]["passed"] is True
    assert summary["metadata"]["integrator"]["path"] == "stepping_loop"


# smooth-demo's run written out as a config file (README, "CLI"); every key
# it leaves out takes ExperimentConfig's default
SMOOTH_DEMO_CFG = """
[problem]
kind = l1_denoise
y = 2 0.1
w = 1

[schedule]
family = hyperbolic
sigma = 0

[integrator]
t0 = 1
t_end = 14

[initial]
x0 = 0 0

[smoothing]

[output]
directory = {out}
formats = csv
"""


def test_simulate_on_the_smooth_demo_config_is_smooth_demo(monkeypatch, tmp_path):
    built = []
    shipped = problems.l1_denoise
    monkeypatch.setattr(problems, "l1_denoise", lambda y, w: built.append(w) or shipped(y, w))
    path = write_cfg(tmp_path, SMOOTH_DEMO_CFG.format(out=tmp_path / "sim"))
    assert cli.main(["simulate", "--config", path, "--quiet"]) == 0
    assert cli.main(["smooth-demo", "--out", str(tmp_path / "demo"), "--quiet"]) == 0
    assert len(built) == 2  # one l1_denoise problem per run
    sim, demo = tmp_path / "sim", tmp_path / "demo"
    assert sorted(p.name for p in sim.iterdir()) == ["summary.json", "trajectory.csv"]
    assert (sim / "trajectory.csv").read_bytes() == (demo / "smooth_trajectory.csv").read_bytes()
    summary = json.loads((sim / "summary.json").read_text())
    assert summary == json.loads((demo / "smooth_summary.json").read_text())
    assert summary["certification"]["seed"] == 0

    # the certificate draws its samples from --seed
    assert cli.main(["simulate", "--config", path, "--seed", "5", "--quiet"]) == 0
    reseeded = json.loads((sim / "summary.json").read_text())
    assert reseeded["seed"] == reseeded["certification"]["seed"] == 5
    assert reseeded["certification"]["passed"] is True
    assert reseeded["monotonicity"] == summary["monotonicity"]


def test_l1_denoise_without_smoothing_exits_two(tmp_path, capsys):
    text = SMOOTH_DEMO_CFG.format(out=tmp_path / "o").replace("[smoothing]\n", "")
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, text), "--quiet"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "[smoothing]" in err
    assert not (tmp_path / "o").exists()


def test_smoothed_run_with_mu_above_mu_max_exits_two(tmp_path, capsys):
    # from t0 = 0.1 the rate-preserving mu(t0) = e^-0.05 / 0.2 = 4.76, past
    # the mu range its certificate samples
    text = SMOOTH_DEMO_CFG.format(out=tmp_path / "o").replace("t0 = 1\n", "t0 = 0.1\n")
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, text), "--quiet"]) == cli.EXIT_CONFIG_ERROR
    err = capsys.readouterr().err
    assert err.startswith("config error: mu(t0) = 4.7") and f"MU_MAX = {smoothing.MU_MAX:g}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("factor, code", [(2.0, 1), (0.5, 0)])
def test_nu_dot_factor_is_a_negative_control_for_smoothed_runs(tmp_path, factor, code):
    # nu_dot scaled by 2 overstates the rate and the energy grows; by 0.5 it
    # understates it and the run passes
    text = SMOOTH_DEMO_CFG.format(out=tmp_path / "o")
    text = text.replace("sigma = 0\n", f"sigma = 0\nnu_dot_factor = {factor}\n")
    assert cli.main(["simulate", "--config", write_cfg(tmp_path, text), "--quiet"]) == code
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["monotonicity"]["passed"] is (code == 0)
    assert summary["certification"]["passed"] is True


def _error_classes():
    return [
        cls for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, Exception) and cls.__module__ == errors.__name__
    ]


@pytest.mark.parametrize("cls", _error_classes(), ids=lambda cls: cls.__name__)
def test_every_error_class_has_its_exit_code(monkeypatch, capsys, cls):
    if issubclass(cls, ValueError):
        code = cli.EXIT_CONFIG_ERROR
    elif issubclass(cls, errors.NumericalError):
        code = cli.EXIT_NUMERICAL
    else:
        assert cls is errors.FitError
        code = cli.EXIT_CHECK_FAILURE

    def command(args):
        raise cls("raised by the command")

    monkeypatch.setattr(cli, "cmd_reproduce_table", command)
    assert cli.main(["reproduce-table", "--quiet"]) == code
    assert capsys.readouterr().err.endswith(": raised by the command\n")


@pytest.mark.parametrize("variant", ["standard", "symmetric"])
def test_lyapunov_variant_beside_smoothing_exits_two(tmp_path, capsys, variant):
    text = SMOOTH_DEMO_CFG.format(out=tmp_path / "o") + f"\n[lyapunov]\nvariant = {variant}\n"
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigurationError, match=r"\[lyapunov\]\.variant.*\[smoothing\]"):
        load_config(path)
    assert cli.main(["simulate", "--config", path, "--quiet"]) == cli.EXIT_CONFIG_ERROR
    assert "[lyapunov].variant" in capsys.readouterr().err
    # auto, spelled out, is the smoothed run itself
    auto = SMOOTH_DEMO_CFG.format(out=tmp_path / "o") + "\n[lyapunov]\nvariant = auto\n"
    assert load_config(write_cfg(tmp_path, auto)).smoothing is not None


@pytest.mark.parametrize("command", ["simulate", "smooth-demo"])
def test_each_run_is_one_integrate_call(monkeypatch, tmp_path, command):
    # a benchmark child wraps `cli.integrate` and takes its set-up mark and
    # the reference state from that one call
    calls = []

    def counted(*args, **kwargs):
        calls.append(dynamics.integrate(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(cli, "integrate", counted)
    out = tmp_path / "o"
    argv = [command, "--out", str(out), "--quiet"]
    if command == "simulate":
        argv += ["--config", write_cfg(tmp_path, QUAD_CFG.format(t_end=1.0, out=out))]
    assert cli.main(argv) == cli.EXIT_PASS
    [traj] = calls
    prefix = "smooth_" if command == "smooth-demo" else ""
    summary = json.loads((out / f"{prefix}summary.json").read_text())
    assert summary["metadata"]["V0"] == traj.metadata["V0"]
    assert summary["metadata"]["variant"] == ("smoothed" if prefix else "standard")


def test_load_config_defaults_are_experiment_config_defaults(tmp_path):
    text = "[problem]\nkind = quadratic\nq_diag = 1\n[schedule]\nfamily = hyperbolic\n"
    text += "sigma = 1\n[integrator]\nt_end = 2\n"
    cfg = load_config(write_cfg(tmp_path, text))
    defaults = [f for f in dataclasses.fields(ExperimentConfig) if f.default is not dataclasses.MISSING]
    assert len(defaults) == 13
    for field in defaults:
        assert getattr(cfg, field.name) == field.default, field.name


def test_every_summary_carries_the_same_reports(tmp_path):
    def reports(summary):
        return {k for k, v in summary.items() if isinstance(v, dict) and "passed" in v}

    shared = {"monotonicity", "bounds", "integrals", "conditions"}
    path = write_cfg(tmp_path, QUAD_CFG.format(t_end=2.0, out=tmp_path / "sim"))
    assert cli.main(["simulate", "--config", path, "--quiet"]) == 0
    assert cli.main(["smooth-demo", "--out", str(tmp_path / "demo"), "--quiet"]) == 0
    assert cli.main(["reproduce-table", "--out", str(tmp_path / "table"), "--quiet"]) == 0
    assert reports(json.loads((tmp_path / "sim" / "summary.json").read_text())) == shared
    demo = json.loads((tmp_path / "demo" / "smooth_summary.json").read_text())
    assert reports(demo) == shared | {"certification"}
    rows = json.loads((tmp_path / "table" / "rate_table.json").read_text())["rows"]
    assert len(rows) == 8
    for row in rows:
        assert reports(row) == shared, row["label"]
        assert row["fit"]["meets_required"] is row["passed"] is True


@pytest.mark.parametrize("command", ["check-assumptions", "reproduce-table"])
def test_seed_is_rejected_where_no_command_reads_it(tmp_path, command, capsys):
    argv = [command, "--seed", "1", "--out", str(tmp_path / "o"), "--quiet"]
    if command == "check-assumptions":
        argv += ["--config", write_cfg(tmp_path, QUAD_CFG.format(t_end=1.0, out=tmp_path))]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("where", ["--seed", "[experiment].seed"])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_the_stream_range_exits_two_before_integrating(tmp_path, capsys, monkeypatch, where, seed):
    monkeypatch.setattr(cli, "_run_experiment", None)  # a run that starts fails with TypeError
    out = tmp_path / "o"
    if where == "--seed":
        argv = ["smooth-demo", "--seed", str(seed)]
    else:
        text = QUAD_CFG.format(t_end=1.0, out=out).replace("seed = 0", f"seed = {seed}")
        argv = ["simulate", "--config", write_cfg(tmp_path, text)]
    assert cli.main(argv + ["--out", str(out), "--quiet"]) == cli.EXIT_CONFIG_ERROR
    assert f"{where} must be an integer in [0, 2^64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("grid_num", [1, 0, -3])
def test_grid_num_below_two_exits_two_before_integrating(tmp_path, capsys, monkeypatch, grid_num):
    monkeypatch.setattr(cli, "_run_experiment", None)  # a run that starts fails with TypeError
    out = tmp_path / "o"
    text = QUAD_CFG.format(t_end=1.0, out=out).replace(
        "record_stride = 10", f"record_stride = 10\ngrid_num = {grid_num}"
    )
    argv = ["simulate", "--config", write_cfg(tmp_path, text), "--out", str(out), "--quiet"]
    assert cli.main(argv) == cli.EXIT_CONFIG_ERROR
    assert "[integrator].grid_num must be >= 2" in capsys.readouterr().err
    assert not out.exists()


def test_config_values_are_read_without_interpolation(tmp_path):
    text = QUAD_CFG.format(t_end=1.0, out="out%x %(seed)s")
    assert load_config(write_cfg(tmp_path, text)).out_dir == "out%x %(seed)s"


def test_smooth_demo_does_not_import_numpy_random(tmp_path):
    # numpy 1.x imports numpy.random with numpy itself; 2.x loads it on first use;
    # the sampled checks of bregman draw from the certificate's stream too
    code = (
        "import sys, numpy; loaded = 'numpy.random' in sys.modules; import agflow.cli; "
        f"code = agflow.cli.main(['smooth-demo', '--out', {str(tmp_path)!r}, '--quiet']); "
        "import agflow as ag; spec = ag.l1_denoise(numpy.array([2.0, 0.1]), 1.0); "
        "sym = ag.check_symmetry(ag.negative_entropy(3), 100, seed=0).passed; "
        "conv = ag.check_uniform_convexity(spec.objective, spec.generator, 100, seed=0).passed; "
        "print(code, loaded, 'numpy.random' in sys.modules, sym, conv)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    code, loaded, after, sym, conv = done.stdout.split()
    if loaded == "True":
        pytest.skip("this numpy imports numpy.random on import")
    assert (code, after, sym, conv) == ("0", "False", "False", "True")


def test_shipped_diagonal_runs_make_no_lapack_call(tmp_path):
    # every matrix of a diagonal quadratic and of smooth-demo is read off its diagonal;
    # the rate fit is closed form, so no LAPACK routine is paged in
    text = QUAD_CFG.format(t_end=10.0, out=tmp_path / "sim")
    text = text.replace("q_diag = 1 4", "q_diag = 4 1").replace("b = 0 0", "b = 4 -1")
    cfg = write_cfg(tmp_path, text + "\n[fit]\nmodel = exponential\nwindow = 5 10\n")
    code = (
        "import numpy as np\n"
        "def refuse(*args, **kwargs): raise RuntimeError('LAPACK call')\n"
        "for name in ('eigh', 'eigvalsh', 'cholesky', 'inv', 'solve', 'lstsq', 'svd'):\n"
        "    setattr(np.linalg, name, refuse)\n"
        "np.polyfit = refuse\n"
        "import agflow.cli as cli\n"
        f"sim = cli.main(['simulate', '--config', {cfg!r}, '--quiet'])\n"
        f"demo = cli.main(['smooth-demo', '--out', {str(tmp_path / 'demo')!r}, '--quiet'])\n"
        "print(sim, demo)"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.stdout.split() == ["0", "0"], done.stderr
    summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
    assert summary["fit"]["rate"] > 0.9


@pytest.mark.parametrize("command", ["simulate", "smooth-demo"])
def test_unwritable_output_exits_two_without_traceback(tmp_path, command):
    blocker = tmp_path / "FILE"
    blocker.write_text("a regular file, so no directory can be made under it\n")
    out = blocker / "x"
    argv = [sys.executable, "-m", "agflow.cli", command, "--out", str(out), "--quiet"]
    if command == "simulate":
        argv += ["--config", write_cfg(tmp_path, QUAD_CFG.format(t_end=1.0, out=out))]
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    done = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == cli.EXIT_CONFIG_ERROR
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith(f"output error: {out}: ")


def test_canonical_grid_shape():
    rows = cli.canonical_grid()
    assert [r["label"] for r in rows] == [
        "constant D=1 sigma=1",
        "constant D=2 sigma=1",
        "constant D=4 sigma=1",
        "hyperbolic sigma=1",
        "hyperbolic sigma=0",
        "polynomial C=1.5",
        "polynomial C=3",
        "polynomial C=6",
    ]
    # the required rates, typed out independently and pinned bit for bit
    sqrt12 = np.sqrt(4.0 * 4.0 - 4.0)
    assert [r["required"] for r in rows] == [
        0.95 * 0.5, 0.95 * 1.0, 0.95 * (4.0 - sqrt12) / 2.0, 0.95 * 1.0, 1.8, 0.9 * 1.0, 1.8, 1.8
    ]
    for r in rows:
        assert (r["model"], r["predicted"]) == r["family"].certified_rate
