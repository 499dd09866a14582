"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the printed
PASS/FAIL lines even on success).  The canonical eight-run grid is integrated
once per session and shared by the first four criteria.
"""

import time

import numpy as np
import pytest

import agflow as ag
from agflow.cli import canonical_grid, run_canonical
from agflow.dynamics import FlowState


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"{tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{tag} failed: {detail}"


@pytest.fixture(scope="session")
def canonical_runs():
    runs = []
    for entry in canonical_grid():
        start = time.perf_counter()
        traj, fitted = run_canonical(entry, step=1e-3, record_stride=10)
        elapsed = time.perf_counter() - start
        runs.append({"entry": entry, "traj": traj, "fitted": fitted, "elapsed": elapsed})
    return runs


def test_ac01_lyapunov_monotonicity_and_runtime(canonical_runs):
    worst_ratio = -np.inf
    slowest = 0.0
    for run in canonical_runs:
        rep = ag.monotonicity_report(run["traj"])
        assert rep.tolerance == 1e-8 * max(1.0, run["traj"].records.V[0])
        worst_ratio = max(worst_ratio, rep.max_increment / rep.tolerance)
        slowest = max(slowest, run["elapsed"])
        assert rep.passed, run["entry"]["label"]
        assert run["elapsed"] <= 5.0, run["entry"]["label"]
    _report(
        "AC-1 (nonincreasing V on the canonical grid)",
        True,
        f"worst increment/tolerance {worst_ratio:.3g}, slowest run {slowest:.2f}s",
    )


def test_ac02_value_and_divergence_bounds(canonical_runs):
    worst = -np.inf
    for run in canonical_runs:
        rep = ag.bound_check(run["traj"])
        assert rep.rel_tolerance == 1e-6
        worst = max(worst, rep.worst_gap_margin, rep.worst_div_margin)
        assert rep.passed, run["entry"]["label"]
    _report(
        "AC-2 (gap and divergence bounded by e^-nu V0)",
        worst <= 1e-6,
        f"worst relative margin {worst:.3e}",
    )


def test_ac03_desk_scale_rate_table(canonical_runs):
    lines = []
    ok = True
    for run in canonical_runs:
        entry, fitted = run["entry"], run["fitted"]
        good = fitted.rate >= entry["required"]
        ok = ok and good
        lines.append(f"{entry['label']}: fitted {fitted.rate:.3f} >= {entry['required']:.3f}")
        assert good, lines[-1]
    _report("AC-3 (fitted rates meet scaled predictions)", ok, "; ".join(lines))


def test_ac04_kinetic_integral_estimates(canonical_runs):
    details = []
    for run in canonical_runs:
        traj = run["traj"]
        label = run["entry"]["label"]
        rep = ag.integral_estimates(traj)
        assert rep.rel_tolerance == 1e-3
        assert rep.passed, label
        V0 = traj.records.V[0]
        if rep.degenerate["z_x"]:
            assert rep.values["z_x"] <= 1e-10
            details.append(f"{label}: degenerate (coefficient identically zero)")
        else:
            assert rep.values["z_x"] <= V0 * (1.0 + 1e-3), label
            details.append(f"{label}: {rep.values['z_x']:.4f} <= {V0:.4f}*(1+1e-3)")
    hyp0 = next(r for r in canonical_runs if r["entry"]["label"] == "hyperbolic sigma=0")
    assert ag.integral_estimates(hyp0["traj"]).degenerate["z_x"]
    _report("AC-4 (kinetic integrals below V0)", True, "; ".join(details))


def test_closed_form_rate_fit_matches_a_polyfit_oracle(canonical_runs):
    for run in canonical_runs:
        traj, entry, fitted = run["traj"], run["entry"], run["fitted"]
        lo, hi = entry["window"]
        t, gap = traj.times, traj.records.f_gap
        in_win = (t >= lo) & (t <= hi)
        scale = max(1.0, abs(traj.f.optimal_value or 0.0))
        usable = in_win & (gap > max(np.finfo(float).eps * scale, 1e-13 * np.max(gap[in_win])))
        x = t[usable] if entry["model"] == "exponential" else np.log(t[usable])
        y = np.log(gap[usable])
        slope, intercept = np.polyfit(x, y, 1)
        resid = np.sqrt(np.mean((y - (slope * x + intercept)) ** 2))
        assert fitted.num_used == np.count_nonzero(usable), entry["label"]
        assert abs(fitted.slope - slope) <= 1e-12 * abs(slope), entry["label"]
        # a residual at round-off (1.5e-13 on `hyperbolic sigma=0`) has no relative digits
        assert abs(fitted.residual - resid) <= 1e-12 * max(resid, np.max(np.abs(y))), entry["label"]


def test_ac05_damping_scale_ode_residual():
    grid = ag.time_grid(0.1, 20.0, 1000)
    worst = max(ag.verify_alpha_ode_residual(s, grid) for s in (0.25, 1.0, 4.0))
    _report(
        "AC-5 (hyperbolic alpha solves its defining ODE)",
        worst <= 1e-8,
        f"max residual {worst:.3e}",
    )


def test_ac06_beta_parameterization_consistency():
    grid = ag.time_grid(0.5, 10.0, 500)
    beta = lambda t: 2.0 * np.log(np.sinh(0.5 * t))  # noqa: E731
    beta_dot = lambda t: 1.0 / np.tanh(0.5 * t)  # noqa: E731
    alpha = lambda t: np.log(1.0 / np.tanh(0.5 * t))  # noqa: E731
    alpha_dot = lambda t: -(1.0 - np.tanh(0.5 * t) ** 2) / (2.0 * np.tanh(0.5 * t))  # noqa: E731
    mapped = ag.from_beta_parameterization(beta, beta_dot, alpha, alpha_dot, 1.0, grid)
    dd_diff = float(
        np.max(np.abs(mapped.sample(grid).delta_dot - ag.Hyperbolic(1.0).sample(grid).delta_dot))
    )
    rep = ag.check_general(mapped, 1.0, grid)
    slack2 = float(np.max(np.abs(rep.slacks[1])))
    _report(
        "AC-6 (mapped parameters reproduce the hyperbolic schedule)",
        dd_diff <= 1e-10 and rep.passed and slack2 <= 1e-12,
        f"delta_dot diff {dd_diff:.3e}, second slack {slack2:.3e}",
    )


def test_ac07_divergence_identities_and_gradients():
    rng = np.random.default_rng(2024)
    generators = [
        ag.squared_euclidean(3),
        ag.diagonal_quadratic([1.0, 4.0, 0.25]),
        ag.negative_entropy(3),
    ]
    worst_resid = 0.0
    for h in generators:
        for x1, x2, x3 in h.sample_point(rng.uniform(size=(3000, h.dim))).reshape(1000, 3, h.dim):
            worst_resid = max(worst_resid, ag.three_point_residual(h, x1, x2, x3))
    assert worst_resid <= 1e-10

    objectives = [
        ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0])).objective,
        ag.flat_quadratic(np.array([[1.0, 1.0]]), np.array([2.0])).objective,
        ag.l1_denoise(np.array([2.0, 0.1]), 1.0).objective,
    ]
    step = 1e-5
    worst_rel = 0.0
    for target in generators + objectives:
        dim = target.dim
        value, gradient = target.value, target.gradient
        sample = getattr(target, "sample_point", None)
        for x in sample(rng.uniform(size=(30, dim))) if sample else rng.uniform(-2, 2, (30, dim)):
            if getattr(target, "smooth", True) is False:
                x = np.where(np.abs(x) < 0.05, 0.5, x)
            g = gradient(x)
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = step
                fd = (value(x + e) - value(x - e)) / (2 * step)
                rel = abs(fd - g[i]) / max(1e-8, abs(g[i]))
                worst_rel = max(worst_rel, rel)
    _report(
        "AC-7 (three-point identity and gradient consistency)",
        worst_resid <= 1e-10 and worst_rel <= 1e-6,
        f"max identity residual {worst_resid:.3e}, max gradient FD error {worst_rel:.3e}",
    )


def test_ac08_smoothing_pipeline():
    approx, spec = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    cert = ag.certify_smooth_approx(approx, num_samples=10_000, seed=0)
    assert cert.passed

    family = ag.Hyperbolic(0.0)
    mu = ag.rate_preserving_mu(family, 0.5, "exponential")
    cfg = ag.IntegratorConfig(t0=1.0, t_end=14.0, step=1e-3, record_stride=10)
    traj = ag.smoothed_flow(spec.generator, approx, family, mu, cfg, np.zeros(2))
    r = traj.records
    V, B = r.V, r.budget
    tol = 1e-8 * max(1.0, V[0])
    worst_excess = float(np.max(np.diff(V) - np.diff(B)))
    assert worst_excess <= tol

    div = np.exp(r.eta) * r.breg_xstar_z
    rhs = np.exp(-r.nu) * (V[0] + B) * (1.0 + 1e-6)
    bound_ok = bool(np.all(r.f_gap <= rhs) and np.all(div <= rhs))
    _report(
        "AC-8 (smoothed flow: certification, budgeted decay, gap bound)",
        cert.passed and worst_excess <= tol and bound_ok,
        f"worst increment excess {worst_excess:.3e} vs tol {tol:.1e}",
    )


def test_ac09_negative_control_is_detected():
    bad = ag.with_modified_nu(ag.ConstantDamping(2.0, 1.0), factor=2.0)
    cond = ag.check_general(bad, 1.0, ag.time_grid(0.1, 10.0, 200))
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
    cfg = ag.IntegratorConfig(t0=0.0, t_end=10.0, step=1e-3, record_stride=10)
    traj = ag.integrate(spec.generator, spec.objective, bad, cfg, np.array([1.0, 1.0]))
    rep = ag.monotonicity_report(traj)
    _report(
        "AC-9 (invalid schedule fails both checks)",
        (not cond.passed) and (not rep.passed) and rep.max_increment > 0,
        f"condition slack {cond.worst_slack:.3f}, V increment {rep.max_increment:.3e}",
    )


def test_ac10_general_rhs_specializes_to_standard_form():
    rng = np.random.default_rng(7)
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    families = [
        ag.ConstantDamping(1.0, 1.0),
        ag.ConstantDamping(2.0, 1.0),
        ag.ConstantDamping(4.0, 1.0),
        ag.Hyperbolic(1.0),
        ag.Hyperbolic(0.0),
        ag.PolynomialDamping(1.5),
        ag.PolynomialDamping(3.0),
        ag.PolynomialDamping(6.0),
    ]
    worst = 0.0
    for fam in families:
        for _ in range(1000):
            s = fam.sample(rng.uniform(max(fam.t_min, 0.2), 10.0))
            st = FlowState(s.t, rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
            g = ag.rhs_general(spec.generator, spec.objective, s, st)
            l2 = ag.rhs_l2(spec.objective, s, st)
            for a, b in zip(g, l2):
                scale = 1.0 + float(np.max(np.abs(b)))
                worst = max(worst, float(np.max(np.abs(a - b))) / scale)
    _report(
        "AC-10 (general state equation matches the standard form)",
        worst <= 1e-14,
        f"worst relative mismatch {worst:.3e}",
    )
