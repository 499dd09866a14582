"""The benchmark's tracer (`perfbench/tracer.py`) wraps agflow's entry points
by module attribute.  These tests install it, unchanged, around two short
`simulate` runs, so a refactor that renames a wrapped name or stops calling
it through its module fails here instead of silently breaking `--trace 1`.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

import agflow.cli as cli
from agflow import dynamics, lyapunov, problems, schedules, smoothing

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

QUAD_CFG = """
[problem]
kind = quadratic
q_diag = 1 4 9
b = 1 0 -1

[schedule]
family = constant
d = 2.0
sigma = 1.0

[integrator]
t0 = 0.0
t_end = 2.0
step = 1e-3
record_stride = 1

[output]
formats = csv json
"""

SMOOTH_CFG = """
[problem]
kind = l1_denoise
y = 2 0.1
w = 1.0

[schedule]
family = hyperbolic
sigma = 0.0

[integrator]
t0 = 1.0
t_end = 2.0
step = 1e-3
record_stride = 10

[initial]
x0 = 0 0

[smoothing]
approximation = huber_l1
kind = exponential
epsilon = 0.5

[output]
formats = csv
"""

_MISSING = object()


@pytest.fixture
def installed_tracer():
    """A Tracer installed into agflow; every attribute it replaced is put
    back afterwards.  Yields (tracer, names it replaced, names it added)."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    owners = [cli, dynamics, lyapunov, problems, schedules, smoothing]
    owners += [schedules.ScheduleFamily, dynamics.Trajectory]
    before = [dict(vars(o)) for o in owners]
    tracer = module.Tracer()
    try:
        tracer.install()
        replaced, added = set(), set()
        for o, old in zip(owners, before):
            for name, value in vars(o).items():
                prior = old.get(name, _MISSING)
                if prior is _MISSING:
                    added.add(f"{o.__name__}.{name}")
                elif prior is not value:
                    replaced.add(f"{o.__name__}.{name}")
        yield tracer, replaced, added
    finally:
        for o, old in zip(owners, before):
            for name in list(vars(o)):
                if name not in old:
                    delattr(o, name)
            for name, value in old.items():
                if vars(o).get(name, _MISSING) is not value:
                    setattr(o, name, value)


def _simulate(tmp_path, text, name):
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    return cli.main(["simulate", "--config", str(cfg), "--out", str(tmp_path / name), "--quiet"])


def _summary(tmp_path, name):
    return json.loads((tmp_path / name / "summary.json").read_text())


def _integrator_metadata(tmp_path, name):
    return _summary(tmp_path, name)["metadata"]["integrator"]


def test_tracer_reaches_every_wrapped_name(installed_tracer, tmp_path):
    tracer, replaced, added = installed_tracer
    # install() reads each name before it replaces it, so none is new
    assert not added
    assert {"lyapunov.record_diagnostics", "lyapunov.bregman_div", "dynamics._integrate_core"} <= {
        name.replace("agflow.", "") for name in replaced
    }

    assert _simulate(tmp_path, QUAD_CFG, "quad") == cli.EXIT_PASS
    probes = tracer.probes
    assert probes["dynamics.integrate"].count == 1
    # one diagnostics pass per trajectory, with one call per Bregman term in
    # each row chunk of its records
    assert probes["lyapunov.diag"].count == 1
    records = _summary(tmp_path, "quad")["monotonicity"]["num_samples"]
    assert records == 2001
    assert probes["bregman.div"].count == 3 * math.ceil(records / lyapunov.ROW_CHUNK)
    for key in (
        "schedules.sample",
        "schedules.conditions",
        "problems.grad",
        "bregman.gen",
        "lyapunov.reports",
        "config.load",
        "cli.command",
        "cli.output",
    ):
        assert probes[key].count > 0, key

    div_calls = probes["bregman.div"].count
    _simulate(tmp_path, SMOOTH_CFG, "smooth")
    assert probes["dynamics.integrate"].count == 2
    assert probes["lyapunov.diag"].count == 2
    # 101 records are one row chunk
    assert probes["bregman.div"].count - div_calls == 3
    # mu is evaluated once, on the integrator grid, for the flow and the diagnostics
    assert probes["smoothing.mu"].count == 1
    # the run's own counts agree with the tracer's: four gradients per RK4 step
    # on the stepping loop, and the three Hessian-check probes on the maps
    quad, smooth = (_integrator_metadata(tmp_path, name) for name in ("quad", "smooth"))
    assert (quad["path"], smooth["path"]) == ("composed_maps", "stepping_loop")
    # and three per row batch of the summary's 10 000-sample certificate
    cert_calls = 3 * math.ceil(10_000 / smoothing._CERT_CHUNK)
    assert probes["smoothing.grad_x"].count - cert_calls == 4 * 1000 == smooth["gradient_evaluations"]
    assert probes["problems.grad"].count == quad["gradient_evaluations"]
    assert tracer.steps == 2000 + 1000 == quad["steps"] + smooth["steps"]


def test_tracer_is_removed_after_each_test():
    assert lyapunov.record_diagnostics.__module__ == "agflow.lyapunov"
    assert dynamics._integrate_core.__module__ == "agflow.dynamics"
    assert smoothing._integrate_core is dynamics._integrate_core
