"""The transient memory of the diagnostics pass, of the table writers, of
the row iteration over `Diagnostics`, of the composed-maps walk, of the
stepping loop and of the rate-preserving mu(t) is set by their chunk sizes,
not by the number of recorded samples or steps: the row iteration holds one
window of `ROW_CHUNK` Python floats.  A schedule sample holds no more grid
arrays than its family needs, and a run's event list is read off a mask of
one byte a step.  A whole smooth-demo `integrate` grows its transient by at
most three float64 values per half-step grid point, since the schedule and
flow coefficients are sampled per chunk of steps.

"Transient" is what a call allocates at its peak beyond what it leaves held
(its result), as `tracemalloc` sees it; numpy registers its buffers there.
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import agflow as ag
from agflow import cli, dynamics, lyapunov, rk4, schedules, smoothing

M = 8 * lyapunov.ROW_CHUNK
N = 64

# Bytes: two (ROW_CHUNK, N) float64 temporaries at once.
DIAGNOSTICS_BOUND = 2 * lyapunov.ROW_CHUNK * N * 8
# Bytes: 1 MiB, 256 bytes for each of the about 2**12 values of a text chunk
# (CSV: the formatter's arrays, about 160 bytes a value, and the chunk's text;
# JSON: the float object, its list slot, and its share of the row strings).
WRITER_BOUND = 128 * 2**13
# Bytes: 128 KiB, 128 bytes for each of the ROW_CHUNK Python floats of a
# window of rows (the float, its list slot and its record slot, about 40).
ITERATION_BOUND = 128 * lyapunov.ROW_CHUNK


def _transient(fn, *args):
    """`fn(*args)` and the bytes it allocated at its peak beyond those it
    leaves held."""
    tracemalloc.start()
    try:
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - held


@pytest.fixture(scope="module")
def recorded():
    """M synthetic recorded samples of an N-dim quadratic under
    `constant D=2 sigma=1`, decaying towards its minimizer."""
    rng = np.random.default_rng(8)
    lam = np.exp(rng.uniform(0.0, np.log(100.0), N))
    xstar = rng.uniform(-1.0, 1.0, N)
    spec = ag.quadratic(np.diag(lam), lam * xstar)
    family = ag.ConstantDamping(2.0, 1.0)
    t = np.linspace(0.0, 8.0, M)
    decay = np.exp(-t)[:, None]
    x = xstar + decay * rng.normal(size=(M, N))
    z = xstar + decay * rng.normal(size=(M, N))
    return spec, family, t, x, z, xstar


def _diagnostics(recorded):
    spec, family, t, x, z, xstar = recorded
    f = spec.objective
    return _transient(
        lyapunov.record_diagnostics,
        ag.Standard(), spec.generator, f, family.sample(t), x, z, xstar, f.optimal_value, 1.0,
    )


def test_diagnostics_pass_transient_is_one_row_chunk(recorded):
    diag, transient = _diagnostics(recorded)
    assert len(diag) == M
    assert transient <= DIAGNOSTICS_BOUND, transient


@pytest.mark.parametrize("writer", ["write_csv", "write_json"])
def test_writer_transient_is_one_text_chunk(recorded, tmp_path, monkeypatch, writer):
    spec, family, t, x, z, _ = recorded
    diag, _ = _diagnostics(recorded)
    traj = dynamics.Trajectory(
        t, x, z, diag, {"problem": spec.objective.name}, spec.generator, spec.objective,
        family, ag.Standard(),
    )
    # two writers, as on a 2-CPU machine: this process formats rows 0..M/2-1,
    # where tracemalloc sees them, while a forked worker formats the rest
    monkeypatch.setattr(dynamics, "_writer_count", lambda rows: 2)
    _, transient = _transient(getattr(traj, writer), tmp_path / "table")
    assert transient <= WRITER_BOUND, transient


def test_row_iteration_transient_is_one_window(recorded):
    diag, _ = _diagnostics(recorded)

    def drain():
        for row in diag:
            del row

    _, transient = _transient(drain)
    assert transient <= ITERATION_BOUND, transient


# Points of a schedule grid: the half-step grid of 10^4 RK4 steps.
GRID_POINTS = 20_001
# Bytes beyond the grid arrays: the sample object and the array headers.
OBJECT_SLACK = 4096


@pytest.mark.parametrize(
    "family, arrays",
    [
        # one zero array serves its four zero fields
        (ag.ConstantDamping(2.0, 1.0), 6),
        (ag.Hyperbolic(0.0), 9),
        (ag.Hyperbolic(1.0), 9),
        (ag.PolynomialDamping(1.5), 9),
    ],
    ids=["constant", "hyperbolic_sigma0", "hyperbolic_sigma1", "polynomial"],
)
def test_schedule_sample_holds_its_fields_only(family, arrays):
    t = np.linspace(1.0, 20.0, GRID_POINTS)
    tracemalloc.start()
    try:
        s = family.sample(t)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= arrays * t.nbytes + OBJECT_SLACK, held / t.nbytes
    # the standard-form test allocates at most two grid-sized temporaries
    standard, transient = _transient(schedules.is_standard_form, s)
    assert standard
    assert transient <= 2 * t.nbytes + OBJECT_SLACK, transient / t.nbytes


def _walk_transient(n_steps):
    """The transient of draining `_composed_maps` for an N-mode flow over
    n_steps steps, every one an event, beyond the inputs it is handed."""
    rng = np.random.default_rng(9)
    lam = np.exp(rng.uniform(0.0, np.log(100.0), N))
    spec = ag.quadratic(np.diag(lam), lam * rng.uniform(-1.0, 1.0, N))
    x0 = rng.uniform(-2.0, 2.0, N)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=n_steps * 1e-3, step=1e-3, record_stride=1)
    _, tgrid = dynamics.half_step_grid(cfg)
    coefficients = dynamics._CoefficientStream(ag.ConstantDamping(2.0, 1.0), tgrid).chunk
    modes = dynamics._modal_form(spec.generator, spec.objective, x0)
    events = np.arange(1, n_steps + 1)

    def drain():
        for block in rk4._composed_maps(modes, coefficients, cfg.step, x0, x0, events):
            del block

    drain()  # first-use allocations (imports, caches) are not the walk's
    return _transient(drain)[1]


def test_composed_maps_walk_transient_does_not_grow_with_the_horizon():
    short, long = _walk_transient(10_000), _walk_transient(40_000)
    assert long <= short + OBJECT_SLACK, (short, long)


def _loop_transient(n_steps):
    """The transient of draining `_stepping_loop` for a 2-dim flow with the
    nonlinear gradient tanh(x) over n_steps steps, checked every 10, beyond
    the inputs it is handed; a 300-step drain first takes the first-use
    allocations."""
    grad = lambda x, j: np.tanh(x)  # noqa: E731
    h, x0 = ag.squared_euclidean(2), np.array([0.5, -0.5])

    def drain(n):
        cfg = ag.IntegratorConfig(t0=1.0, t_end=1.0 + n * 1e-3, step=1e-3)
        _, tgrid = dynamics.half_step_grid(cfg)
        coefficients = dynamics._CoefficientStream(ag.Hyperbolic(0.0), tgrid).chunk
        events = np.arange(10, n + 1, 10)

        def run():
            for block in dynamics._stepping_loop(h, grad, coefficients, cfg.step, x0, x0, events):
                del block

        return run

    drain(300)()
    return _transient(drain(n_steps))[1]


def test_stepping_loop_transient_does_not_grow_with_the_horizon():
    short, long = _loop_transient(2_000), _loop_transient(8_000)
    assert long <= short + OBJECT_SLACK, (short, long)


def _mu_transient(t_end):
    """The transient of smooth-demo's rate-preserving mu(t) on the half-step
    grid of a step-1e-3 run from t = 1 to t_end, beyond the mu it returns."""
    cfg = ag.IntegratorConfig(t0=1.0, t_end=t_end, step=1e-3)
    _, tgrid = dynamics.half_step_grid(cfg)
    mu = smoothing.rate_preserving_mu(ag.Hyperbolic(0.0), 0.5, "exponential").mu
    mu(tgrid[:10])  # first-use allocations
    return _transient(mu, tgrid)[1]


def test_rate_preserving_mu_transient_does_not_grow_with_the_horizon():
    short, long = _mu_transient(14.0), _mu_transient(53.0)
    assert long <= short + OBJECT_SLACK, (short, long)


# Bytes per half-step grid point: the grid itself, mu on it and one
# temporary of `SmoothingSchedule.on_grid`'s checks, three float64 values.
# The flow coefficients, sampled on the whole grid at once, took 121.
GRID_POINT_BOUND = 3 * 8


def _integrate_transient(t_end):
    """(half-step grid points, transient) of smooth-demo's `integrate` from
    t = 1 to t_end, beyond the trajectory it returns."""
    cfg = dataclasses.replace(cli._SMOOTH_DEMO, t_end=t_end)
    family = cfg.build_family()
    spec, variant = cli._problem_and_variant(cfg, family)
    icfg = cfg.build_integrator(family)
    x0, v0 = cfg.initial_point(spec.objective.dim)
    traj, transient = _transient(
        ag.integrate, spec.generator, spec.objective, family, icfg, x0, v0, variant
    )
    return 2 * traj.metadata["integrator"]["steps"] + 1, transient


def test_smooth_demo_integrate_transient_grows_by_three_values_per_grid_point():
    _integrate_transient(1.5)  # first-use allocations
    (short_points, short), (long_points, long) = _integrate_transient(14.0), _integrate_transient(53.0)
    per_point = (long - short) / (long_points - short_points)
    assert per_point <= GRID_POINT_BOUND, per_point


def test_event_list_transient_is_one_byte_a_step():
    # beyond the int64 steps it returns: the mask alone
    n_steps = 10**6
    events, transient = _transient(dynamics._event_steps, n_steps, 1)
    assert events.size == n_steps
    assert transient <= n_steps + OBJECT_SLACK, transient
