import dataclasses
import json

import numpy as np
import pytest

import agflow as ag
from agflow import lyapunov
from agflow.errors import ConfigurationError, FitError, PreconditionError
from agflow.schedules import ScheduleSample


def scalar_quadratic():
    return ag.quadratic(np.array([[1.0]]), np.zeros(1))


def run_constant(D=2.0, t_end=20.0, step=1e-3, stride=10, x0=None, factor=1.0, spec=None):
    spec = scalar_quadratic() if spec is None else spec
    fam = ag.ConstantDamping(D, 1.0)
    if factor != 1.0:
        fam = ag.with_modified_nu(fam, factor=factor)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=t_end, step=step, record_stride=stride)
    start = np.ones(spec.objective.dim) if x0 is None else x0
    return ag.integrate(spec.generator, spec.objective, fam, cfg, start)


def value_at(variant, spec, s, x, z):
    """V of `variant` at the state (x, z) and the sample s, from the
    diagnostics pass (`lyapunov.record_diagnostics`) on a one-row batch."""
    f = spec.objective
    row = ScheduleSample(**{name: np.atleast_1d(v) for name, v in vars(s).items()})
    mu = variant.mu_schedule.mu(row.t) if isinstance(variant, ag.Smoothed) else None
    d = lyapunov.record_diagnostics(
        variant, spec.generator, f, row, x[None], z[None], f.minimizer, f.optimal_value, f.sigma, mu=mu
    )
    return d.V[0]


def test_value_vanishes_at_optimum():
    spec = scalar_quadratic()
    s = ag.ConstantDamping(2.0, 1.0).sample(3.0)
    xstar = spec.objective.minimizer
    assert value_at(ag.Standard(), spec, s, xstar, xstar) == 0.0


def test_value_closed_form_example():
    # x = z = 1, x* = 0: V = e^nu (e^eta/2 + 1/2) with e^eta = 1, nu = t
    spec = scalar_quadratic()
    fam = ag.ConstantDamping(2.0, 1.0)
    one = np.array([1.0])
    for t in (0.0, 2.0):
        v = value_at(ag.Standard(), spec, fam.sample(t), one, one)
        assert v == pytest.approx(np.exp(t) * 1.0, rel=1e-14)


def test_symmetric_with_zero_pi_matches_standard():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    fam = ag.Hyperbolic(1.0)
    rng = np.random.default_rng(0)
    for _ in range(50):
        s = fam.sample(rng.uniform(0.5, 10.0))
        x, z = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        assert value_at(ag.Standard(), spec, s, x, z) == value_at(ag.Symmetric(), spec, s, x, z)


def test_symmetric_requires_symmetric_generator():
    h = ag.negative_entropy(2)
    f = ag.Objective(
        dim=2,
        value=lambda x: float(np.sum(x)),
        gradient=lambda x: np.ones(2),
        sigma=0.0,
        minimizer=np.array([0.5, 0.5]),
        optimal_value=1.0,
    )
    with pytest.raises(PreconditionError):
        lyapunov.check_variant(ag.Symmetric(), h)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=1.1, step=1e-2)
    with pytest.raises(PreconditionError):
        ag.integrate(h, f, ag.PolynomialDamping(2.0), cfg, f.minimizer, variant=ag.Symmetric())


def test_smoothed_value_reduces_to_standard_as_mu_vanishes():
    spec = scalar_quadratic()
    approx = ag.with_exact_smooth_objective(spec.objective)
    fam = ag.ConstantDamping(2.0, 1.0)
    mu = ag.constant_mu(1e-300, fam)
    s = fam.sample(1.0)
    x, z = np.array([0.7]), np.array([0.4])
    smooth_v = value_at(ag.Smoothed(approx, mu), spec, s, x, z)
    std_v = value_at(ag.Standard(), spec, s, x, z)
    assert smooth_v == pytest.approx(std_v, rel=1e-14)


def test_missing_minimizer_is_configuration_error():
    spec = scalar_quadratic()
    f = dataclasses.replace(spec.objective, minimizer=None)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=0.1, step=1e-2)
    with pytest.raises(ConfigurationError, match="minimizer"):
        ag.integrate(spec.generator, f, ag.ConstantDamping(2.0, 1.0), cfg, np.zeros(1))


def test_monotone_on_valid_run():
    traj = run_constant(t_end=5.0)
    rep = ag.monotonicity_report(traj)
    assert rep.passed


def test_constant_trajectory_has_zero_increments():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    traj = run_constant(t_end=5.0, x0=spec.objective.minimizer.copy(), spec=spec)
    assert np.max(np.abs(np.diff(traj.records.V))) <= 1e-14
    assert ag.monotonicity_report(traj).passed


def test_negative_control_schedule_raises_v():
    traj = run_constant(t_end=10.0, factor=2.0)
    rep = ag.monotonicity_report(traj)
    assert not rep.passed
    assert rep.max_increment > 1e-3
    cond = ag.check_general(traj.family, 1.0, ag.time_grid(0.1, 10.0, 100))
    assert not cond.passed


def test_monotonicity_tolerance_is_relative_to_v0():
    # 1e-8 * max(1, V(t0)): absolute below V(t0) = 1, relative above it
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
    family = ag.ConstantDamping(2.0, 1.0)
    V0s = []
    for x0 in (0.1, 10.0):
        traj = ag.integrate(
            spec.generator, spec.objective, family, ag.IntegratorConfig(0.0, 1.0), np.full(2, x0)
        )
        V0s.append(traj.records.V[0])
        assert ag.monotonicity_report(traj).tolerance == 1e-8 * max(1.0, V0s[-1])
    assert V0s[0] < 1.0 < V0s[1]


def test_standard_fallback_is_a_warning_and_certifies_general():
    # exp(pi) > 0 on a generator that is not symmetric: variant None falls
    # back to Standard, says so, and records general's slacks
    quad = ag.quadratic(np.diag([1.0, 2.0]), np.array([0.6, 0.8]))
    family = ag.PolynomialDamping(1.5)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=1e-2, record_stride=10)
    h = ag.negative_entropy(2)
    traj = ag.integrate(h, quad.objective, family, cfg, np.array([0.3, 0.4]))
    assert traj.variant.name == "standard"
    [warning] = traj.metadata["warnings"]
    assert "exp(pi) > 0" in warning and "negative_entropy" in warning
    d = traj.records
    general = ag.check_general(family, 0.0, traj.times).slacks
    assert np.allclose(np.vstack([d.slack1, d.slack2, d.slack3, d.slack4]), general, rtol=1e-12, atol=0.0)
    assert lyapunov.check_conditions(traj.variant, family, 0.0, traj.times).condition == "general"
    with pytest.raises(PreconditionError):
        ag.integrate(h, quad.objective, family, cfg, np.array([0.3, 0.4]), variant=ag.Symmetric())
    # the same schedule on a symmetric generator: Symmetric, no warning
    traj = ag.integrate(quad.generator, quad.objective, family, cfg, np.array([0.3, 0.4]))
    assert traj.variant.name == "symmetric" and traj.metadata["warnings"] == []
    assert lyapunov.check_conditions(traj.variant, family, 0.0, traj.times).condition == "general2"


def test_scaling_invariance_of_monotonicity():
    # shifting nu rescales V by a constant and must not change pass/fail
    for factor, expect in ((1.0, True), (2.0, False)):
        base = ag.ConstantDamping(2.0, 1.0)
        fam = ag.with_modified_nu(base, factor=factor, shift=1.0)
        spec = scalar_quadratic()
        cfg = ag.IntegratorConfig(t0=0.0, t_end=10.0, step=1e-3, record_stride=10)
        traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))
        assert ag.monotonicity_report(traj).passed is expect


def test_empirical_vdot_tracks_certificate_bound():
    # scalar problem with exact sigma: the decrement bound holds with near
    # equality for the critically damped schedule
    traj = run_constant(t_end=8.0, stride=5)
    r = traj.records
    t = traj.times
    vdot = (r.V[2:] - r.V[:-2]) / (t[2:] - t[:-2])
    bound = (
        np.exp(r.nu + r.eta)
        * (r.slack2 * r.breg_xstar_z + r.slack3 * r.breg_xstar_x + r.slack4 * r.breg_z_x)
    )[1:-1]
    scale = 1.0 + np.abs(bound)
    assert np.all(vdot <= bound + 1e-4 * scale)
    assert np.max(np.abs(vdot - bound) / scale) <= 1e-3


def test_vdot_stays_below_bound_when_not_tight():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
    traj = run_constant(D=1.0, t_end=8.0, stride=5, x0=np.array([1.0, 1.0]), spec=spec)
    r = traj.records
    t = traj.times
    vdot = (r.V[2:] - r.V[:-2]) / (t[2:] - t[:-2])
    bound = (
        np.exp(r.nu + r.eta)
        * (r.slack2 * r.breg_xstar_z + r.slack3 * r.breg_xstar_x + r.slack4 * r.breg_z_x)
    )[1:-1]
    assert np.all(vdot <= bound + 1e-4 * (1.0 + np.abs(bound)))


def test_bound_check_holds_and_is_tight_at_start():
    traj = run_constant(t_end=10.0)
    rep = ag.bound_check(traj)
    assert rep.passed
    r = traj.records
    # at t0 the gap bound reads f_gap <= V0, with slack exactly the divergence term
    assert r.f_gap[0] <= r.V[0]


def test_bound_check_hyperbolic_matches_sinh_form():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
    fam = ag.Hyperbolic(1.0)
    cfg = ag.IntegratorConfig(t0=0.1, t_end=10.0, step=1e-3, record_stride=20)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0, 1.0]))
    assert ag.bound_check(traj).passed
    r = traj.records
    # e^-nu V0 is the sinh-ratio form: sinh^2(t0/2)/sinh^2(t/2) times the
    # initial bracket e^eta0 D_h(x*, z0) + gap0
    bracket0 = np.exp(r.eta[0]) * r.breg_xstar_z[0] + r.f_gap[0]
    every = slice(None, None, len(r) // 7)
    direct = np.exp(-r.nu[every]) * r.V[0]
    ratio_form = (np.sinh(0.05) ** 2 / np.sinh(0.5 * r.t[every]) ** 2) * bracket0
    assert ratio_form == pytest.approx(direct, rel=1e-10)
    assert np.all(r.f_gap[every] <= direct * (1.0 + 1e-6))


def test_polynomial_gap_scaled_by_t_squared_is_bounded():
    spec = ag.flat_quadratic(np.array([[1.0, 1.0]]), np.array([2.0]))
    fam = ag.PolynomialDamping(4.0)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=50.0, step=2e-3, record_stride=10)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([2.0, 1.0]))
    assert ag.bound_check(traj).passed
    r = traj.records
    late = r.t >= 10.0
    # e^-nu = t^-2 for C >= 3, so the bound reads f_gap * t^2 <= V0
    assert np.max(r.f_gap[late] * r.t[late] ** 2) <= r.V[0] * (1.0 + 1e-6)


def test_recorded_slacks_match_condition_checker():
    # pointwise bridge: when the checker passes on the run's grid, every
    # recorded coefficient slack is nonpositive up to the same tolerance
    traj = run_constant(D=4.0, t_end=10.0)
    cond = ag.check_general(traj.family, 1.0, traj.times)
    assert cond.passed
    r = traj.records
    worst = max(np.max(s) for s in (r.slack1, r.slack2, r.slack3, r.slack4))
    assert worst <= 1e-9


def test_integral_estimate_constant_damping():
    traj = run_constant(t_end=20.0)
    rep = ag.integral_estimates(traj)
    assert rep.passed
    V0 = traj.records.V[0]
    # equality-tight family: the kinetic accumulation approaches V0 from below
    assert rep.values["z_x"] <= V0 * (1.0 + 1e-3)
    assert rep.values["z_x"] >= 0.99 * V0
    assert rep.kinetic_applies


def test_integral_estimate_degenerate_branch():
    spec = ag.flat_quadratic(np.array([[1.0, 1.0]]), np.array([2.0]))
    fam = ag.Hyperbolic(0.0)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=20.0, step=1e-3, record_stride=10)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([2.0, 1.0]))
    rep = ag.integral_estimates(traj)
    assert rep.passed
    assert rep.degenerate["z_x"]
    assert rep.values["z_x"] == pytest.approx(0.0, abs=1e-10)


def test_integral_estimate_stationary_run_all_zero():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    traj = run_constant(t_end=5.0, x0=spec.objective.minimizer.copy(), spec=spec)
    rep = ag.integral_estimates(traj)
    for v in rep.values.values():
        assert abs(v) <= 1e-18


def test_integral_estimate_reports_coefficient_violation():
    traj = run_constant(t_end=5.0, factor=2.0)
    rep = ag.integral_estimates(traj)
    assert not rep.passed
    assert rep.coefficient_violation is not None


def test_fit_rate_exponential_example():
    traj = run_constant(t_end=15.0)
    fitted = ag.fit_rate(traj, "exponential", (5.0, 15.0))
    assert fitted.rate >= 0.95  # certified rate sqrt(sigma) = 1
    assert fitted.model == "exponential"


def test_fit_rate_polynomial_example():
    spec = ag.flat_quadratic(np.array([[1.0, 1.0]]), np.array([2.0]))
    fam = ag.PolynomialDamping(1.5)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=100.0, step=2e-3, record_stride=10)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([2.0, 1.0]))
    fitted = ag.fit_rate(traj, "polynomial", (10.0, 100.0))
    assert fitted.rate >= 0.9


def test_fit_rate_from_stationary_start_is_error():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    traj = run_constant(t_end=10.0, x0=spec.objective.minimizer.copy(), spec=spec)
    with pytest.raises(FitError):
        ag.fit_rate(traj, "exponential", (5.0, 10.0))


def test_fit_rate_unknown_model():
    traj = run_constant(t_end=2.0)
    with pytest.raises(ConfigurationError):
        ag.fit_rate(traj, "cubic", (0.0, 2.0))


def test_render_rate_table_alignment():
    rows = [
        {"label": "constant D=2", "model": "exponential", "predicted": 1.0,
         "fitted": 1.87, "required": 0.95, "passed": True},
        {"label": "polynomial C=6", "model": "polynomial", "predicted": 2.0,
         "fitted": 5.99, "required": 1.8, "passed": True},
    ]
    text = ag.render_rate_table(rows)
    lines = text.splitlines()
    assert lines[0].startswith("schedule")
    assert len(lines) == 4
    assert "pass" in lines[2]


def _has_numpy_scalar(value) -> bool:
    if isinstance(value, dict):
        return any(_has_numpy_scalar(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_numpy_scalar(v) for v in value)
    return isinstance(value, np.generic)


def test_reports_serialize():
    # each dict holds its report's fields as Python values, also when the
    # caller passes numpy scalars
    f64, i64 = np.float64, np.int64
    traj = run_constant(t_end=5.0)
    h = ag.squared_euclidean(2)
    f = dataclasses.replace(ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2)).objective, sigma=f64(1.0))
    fitted = ag.fit_rate(traj, "exponential", (f64(2.5), f64(5.0)))
    reports = [
        ag.monotonicity_report(traj),
        ag.bound_check(traj),
        ag.integral_estimates(traj),
        fitted,
        ag.certify_smooth_approx(ag.huber_l1([1.0, 2.0]), num_samples=i64(50), seed=i64(1)),
        ag.check_uniform_convexity(f, h, num_samples=i64(50), seed=i64(0)),
        ag.check_symmetry(h, i64(50), seed=i64(0)),
    ]
    for rep in reports:
        d = rep.to_dict()
        extra = {"rate"} if rep is fitted else set()
        assert set(d) == {fd.name for fd in dataclasses.fields(rep)} | extra, type(rep).__name__
        assert not _has_numpy_scalar(d), type(rep).__name__
        json.dumps(d, sort_keys=True)
    assert all(rep.to_dict()["passed"] is True for rep in reports[:3])
    assert fitted.to_dict()["rate"] == pytest.approx(fitted.rate)


def _oracle_diagnostics(traj):
    """Per-sample diagnostics written out from their definitions: a scalar
    schedule sample and scalar bregman_div per record, the slack formulas,
    and a sequential trapezoid and budget."""
    h, f, variant = traj.h, traj.f, traj.variant
    xstar = np.asarray(f.minimizer, dtype=float)
    fstar = f.optimal_value if f.optimal_value is not None else float(f.value(xstar))
    sigma = traj.metadata["sigma"]
    rows = []
    for k in range(len(traj)):
        t, x, z = float(traj.times[k]), traj.states_x[k], traj.states_z[k]
        s = traj.family.sample(t)
        d_xz = ag.bregman_div(h, xstar, z)
        d_xx = ag.bregman_div(h, xstar, x)
        d_zx = ag.bregman_div(h, z, x)
        f_gap = float(f.value(x)) - fstar
        ea = np.exp(s.alpha)
        K = s.delta_dot + s.eta_dot - s.alpha_dot - ea
        # exp(pi) enters the conditions of the symmetric V alone
        exp_pi, exp_pi_dot = (s.exp_pi, s.exp_pi_dot) if isinstance(variant, ag.Symmetric) else (0.0, 0.0)
        epa = exp_pi * ea
        slacks = (
            s.nu_dot - ea,
            -K + s.nu_dot + s.eta_dot + epa,
            K - sigma * np.exp(s.alpha - s.eta) - epa + (s.nu_dot + s.eta_dot) * exp_pi + exp_pi_dot,
            -K - epa,
        )
        if isinstance(variant, ag.Smoothed):
            a, mu = variant.approximation, float(variant.mu_schedule.mu(t))
            gap = float(a.value(x, mu)) + a.beta_s * mu - float(a.value(xstar, mu))
            V = np.exp(s.nu) * (np.exp(s.eta) * d_xz + gap)
            budget = 0.0
            if rows:
                grow = float(variant.mu_schedule.budget(rows[-1]["t"], t))
                budget = rows[-1]["budget"] + a.beta_s * grow
        else:
            div = d_xz
            if isinstance(variant, ag.Symmetric):
                div = div + s.exp_pi * ag.bregman_div(h, x, xstar)
            V = np.exp(s.nu) * (np.exp(s.eta) * div + f_gap)
            budget = 0.0
        g = [np.exp(s.nu + s.eta) * (-c) * d for c, d in zip(slacks[1:], (d_xz, d_xx, d_zx))]
        integrals = [0.0, 0.0, 0.0]
        if rows:
            dt = t - rows[-1]["t"]
            integrals = [i + 0.5 * dt * (gp + gk) for i, gp, gk in zip(rows[-1]["I"], rows[-1]["g"], g)]
        rows.append(
            dict(
                t=t, V=V, f_gap=f_gap, breg_xstar_z=d_xz, breg_xstar_x=d_xx, breg_z_x=d_zx,
                slack1=slacks[0], slack2=slacks[1], slack3=slacks[2], slack4=slacks[3],
                integral_xstar_z=integrals[0], integral_xstar_x=integrals[1],
                integral_z_x=integrals[2], budget=budget, nu=s.nu, eta=s.eta, I=integrals, g=g,
            )
        )
    return rows


def _oracle_runs():
    from agflow.cli import canonical_grid, run_canonical

    for entry in canonical_grid():
        yield entry["label"], run_canonical(entry, step=1e-2, record_stride=10)[0]
    approx, spec = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    fam = ag.Hyperbolic(0.0)
    mu = ag.rate_preserving_mu(fam, 0.5, "exponential")
    cfg = ag.IntegratorConfig(t0=1.0, t_end=14.0, step=1e-3, record_stride=10)
    yield "smooth demo", ag.smoothed_flow(spec.generator, approx, fam, mu, cfg, np.zeros(2))
    flat = ag.flat_quadratic(np.array([[1.0, 2.0]]), np.array([1.0]))
    h = ag.quadratic_generator(np.array([[2.0, 0.5], [0.5, 1.0]]))
    cfg = ag.IntegratorConfig(t0=1.0, t_end=10.0, step=1e-2, record_stride=5)
    yield "symmetric", ag.integrate(
        h, flat.objective, ag.PolynomialDamping(6.0), cfg, np.array([2.0, 1.0]), variant=ag.Symmetric()
    )
    quad = ag.quadratic(np.diag([1.0, 2.0]), np.array([0.6, 0.8]))
    cfg = ag.IntegratorConfig(t0=1.0, t_end=3.0, step=1e-2, record_stride=2)
    yield "negative entropy", ag.integrate(
        ag.negative_entropy(2), quad.objective, ag.PolynomialDamping(3.0), cfg, np.array([0.3, 0.4])
    )
    yield "standard beside exp(pi) > 0", ag.integrate(
        ag.negative_entropy(2), quad.objective, ag.PolynomialDamping(1.5), cfg, np.array([0.3, 0.4])
    )


# hyperbolic sigma=1 at step 1e-2 trips the stiff-layer warning; only the
# diagnostics of the steps taken are compared here
@pytest.mark.filterwarnings("ignore:step \\* exp:RuntimeWarning")
def test_diagnostics_pass_matches_per_sample_oracle():
    from agflow.lyapunov import DIAGNOSTIC_FIELDS

    seen = set()
    for label, traj in _oracle_runs():
        seen.add(traj.variant.name)
        rows = _oracle_diagnostics(traj)
        d = traj.records
        assert len(d) == len(rows) == len(traj), label
        for name in DIAGNOSTIC_FIELDS:
            ref = np.array([r[name] for r in rows])
            got = getattr(d, name)
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.max(np.abs(got - ref)) <= 1e-12 * scale, (label, name)
    assert seen == {"standard", "symmetric", "smoothed"}
    assert traj.h.name == "negative_entropy"


def test_diagnostics_reject_objective_without_row_batches():
    spec = scalar_quadratic()
    # a sum with no axis: right for one point, one value for a batch
    f = dataclasses.replace(spec.objective, value=lambda x: 0.5 * np.sum(x * x))
    cfg = ag.IntegratorConfig(t0=0.0, t_end=1.0, step=1e-2)
    with pytest.raises(ConfigurationError, match="row batches"):
        ag.integrate(spec.generator, f, ag.ConstantDamping(2.0, 1.0), cfg, np.ones(1))


def _chunked_runs():
    """Flows of 3 * ROW_CHUNK + 5 records, so the last row chunk is short:
    Standard on a quadratic, Symmetric, Smoothed, and a non-Euclidean
    generator.  The objectives' own row values must not depend on how many
    rows are batched together, or no chunking could match a one-chunk pass."""
    steps = 3 * lyapunov.ROW_CHUNK + 4

    def cfg(t0, step):
        return ag.IntegratorConfig(t0=t0, t_end=t0 + steps * step, step=step, record_stride=1)

    quad = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 0.5]))
    yield "standard", ag.integrate(
        quad.generator, quad.objective, ag.ConstantDamping(2.0, 1.0), cfg(0.0, 1e-3), np.array([1.0, -1.0])
    )
    flat = ag.flat_quadratic(np.array([[1.0, 2.0]]), np.array([1.0]))
    h = ag.quadratic_generator(np.array([[2.0, 0.5], [0.5, 1.0]]))
    yield "symmetric", ag.integrate(
        h, flat.objective, ag.PolynomialDamping(1.5), cfg(1.0, 1e-2), np.array([2.0, 1.0]),
        variant=ag.Symmetric(),
    )
    approx, spec = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    fam = ag.Hyperbolic(0.0)
    mu = ag.rate_preserving_mu(fam, 0.5, "exponential")
    yield "smoothed", ag.smoothed_flow(spec.generator, approx, fam, mu, cfg(1.0, 1e-3), np.zeros(2))
    quad = ag.quadratic(np.diag([1.0, 2.0]), np.array([0.6, 0.8]))
    yield "negative entropy", ag.integrate(
        ag.negative_entropy(2), quad.objective, ag.PolynomialDamping(3.0), cfg(1.0, 1e-3),
        np.array([0.3, 0.4]),
    )


def test_chunked_diagnostics_match_one_chunk_pass(monkeypatch):
    record = lyapunov.record_diagnostics
    calls = []

    def capture(*args, **kwargs):
        calls.append((args, kwargs))
        return record(*args, **kwargs)

    monkeypatch.setattr(lyapunov, "record_diagnostics", capture)
    seen = set()
    for label, traj in _chunked_runs():
        seen.add((traj.variant.name, traj.h.name))
        [(args, kwargs)] = calls
        calls.clear()
        m = len(traj)
        assert m == 3 * lyapunov.ROW_CHUNK + 5, label
        with monkeypatch.context() as one_chunk:
            one_chunk.setattr(lyapunov, "ROW_CHUNK", m + 1)
            whole = record(*args, **kwargs)
        for name in lyapunov.DIAGNOSTIC_FIELDS:
            assert np.array_equal(getattr(traj.records, name), getattr(whole, name)), (label, name)
        if label == "smoothed":
            # mu comes sliced from the integrator's grid, and the budget grows
            assert kwargs["mu"].shape == (m,) and traj.records.budget[-1] > 0.0
    assert seen == {
        ("standard", "squared_euclidean"),
        ("symmetric", "quadratic_matrix"),
        ("smoothed", "squared_euclidean"),
        ("standard", "negative_entropy"),
    }
