import copy
import dataclasses

import numpy as np
import pytest

import agflow as ag
from agflow import lyapunov, smoothing
from agflow.dynamics import _integrate_core
from agflow.errors import ConfigurationError, ScheduleError
from agflow.smoothing import MU_MAX, SmoothApproximation, _uniforms, add_smooth_part


def test_huber_values_at_reference_points():
    a = ag.huber_l1(np.array([1.0]))
    assert a.value(np.array([0.0]), 1.0) == 0.0
    assert a.value(np.array([2.0]), 1.0) == pytest.approx(1.5)
    assert a.base.value(np.array([2.0])) - a.value(np.array([2.0]), 1.0) == pytest.approx(
        a.beta_s * 1.0
    )
    assert a.grad_mu(np.array([0.5]), 1.0) == pytest.approx(-0.125)
    assert -a.beta_s <= a.grad_mu(np.array([0.5]), 1.0) <= 0.0


def test_huber_constants():
    a = ag.huber_l1(np.array([1.0, 3.0]))
    assert a.alpha_s == 3.0
    assert a.beta_s == 2.0


def test_huber_gradient_matches_piecewise_form():
    # the clipped ratio against the piecewise definition, bit for bit
    w = np.array([1.0, 0.5, 2.0, 3.0])
    a = ag.huber_l1(w)

    def piecewise(x, mu):
        return w * np.where(np.abs(x) <= mu, x / mu, np.sign(x))

    rng = np.random.default_rng(5)
    m = 40
    special = np.tile([[0.0, -0.0, np.inf, -np.inf], [np.nan, 1.0, -1.0, 0.0]], (m // 2, 1))
    with np.errstate(invalid="ignore"):
        for mu in (0.5, rng.uniform(1e-3, 1.0, (m, 1))):
            seam = mu * np.array([1.0, -1.0, 1.0, -1.0]) + np.zeros((m, 4))  # |x| == mu
            for x in (rng.uniform(-2.0, 2.0, (m, 4)), seam, special):
                assert np.array_equal(a.grad_x(x, mu), piecewise(x, mu), equal_nan=True)
        one = special[1]  # a single point, not a row batch
        assert np.array_equal(a.grad_x(one, 0.5), piecewise(one, 0.5), equal_nan=True)


def test_huber_rejects_negative_weight():
    with pytest.raises(ConfigurationError):
        ag.huber_l1(np.array([1.0, -1.0]))


def test_certification_passes_for_huber():
    a = ag.huber_l1(np.array([1.0, 0.5]))
    rep = ag.certify_smooth_approx(a, num_samples=1000, seed=1)
    assert rep.passed


def test_certification_catches_understated_beta():
    good = ag.huber_l1(np.array([1.0]))
    bad = SmoothApproximation(
        value=good.value,
        grad_x=good.grad_x,
        grad_mu=good.grad_mu,
        alpha_s=good.alpha_s,
        beta_s=good.beta_s / 2.0,
        base=good.base,
        name="understated",
    )
    rep = ag.certify_smooth_approx(bad, num_samples=1000, seed=1)
    assert not rep.passed
    assert rep.max_sandwich_violation > 1e-3


def test_smooth_objective_as_own_approximation_passes():
    spec = ag.quadratic(np.eye(2), np.zeros(2))
    a = ag.with_exact_smooth_objective(spec.objective)
    rep = ag.certify_smooth_approx(a, num_samples=500, seed=3)
    assert rep.passed
    assert rep.max_band_violation <= 0.0


def test_exact_approximation_takes_alpha_s_from_the_hessian():
    # L = 4: alpha_s = 1 would fail the smoothness ratio by a factor of about 3.9
    f = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2)).objective
    a = ag.with_exact_smooth_objective(f)
    assert a.alpha_s == 4.0
    rep = ag.certify_smooth_approx(a, num_samples=2000, seed=0)
    assert rep.passed and rep.max_smoothness_ratio <= 1.0
    assert ag.with_exact_smooth_objective(ag.quadratic(np.eye(2), np.zeros(2)).objective).alpha_s == 1.0
    with pytest.raises(ConfigurationError, match="Hessian"):
        ag.with_exact_smooth_objective(dataclasses.replace(f, hessian=None))


def test_sandwich_and_band_on_many_samples():
    approx, _ = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    rep = ag.certify_smooth_approx(approx, num_samples=10_000, seed=11)
    assert rep.passed


def test_grad_x_matches_finite_differences():
    approx, _ = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    rng = np.random.default_rng(2)
    step = 1e-6
    for _ in range(30):
        x = rng.uniform(-2, 2, 2)
        mu = rng.uniform(0.05, 1.0)
        # stay away from the |x| = mu seams within the FD stencil
        x = np.where(np.abs(np.abs(x) - mu) < 10 * step, x + 0.01, x)
        g = approx.grad_x(x, mu)
        for i in range(2):
            e = np.zeros(2)
            e[i] = step
            fd = (approx.value(x + e, mu) - approx.value(x - e, mu)) / (2 * step)
            assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-8)


def test_rate_preserving_mu_hyperbolic_closed_form():
    mu = ag.rate_preserving_mu(ag.Hyperbolic(1.0), 0.1, "exponential")
    for t in (0.5, 1.0, 3.0, 7.0):
        expect = np.exp(-0.1 * t) * np.tanh(0.5 * t) / np.sinh(0.5 * t) ** 2
        assert mu.mu(t) == pytest.approx(expect, rel=1e-12)


def test_rate_preserving_mu_polynomial_closed_form():
    mu = ag.rate_preserving_mu(ag.PolynomialDamping(3.0), 1.0, "polynomial")
    for t in (1.0, 2.0, 5.0):
        assert mu.mu(t) == pytest.approx(t ** -3 / 2.0, rel=1e-12)


def test_budget_closed_form_and_tail():
    eps = 0.5
    mu = ag.rate_preserving_mu(ag.Hyperbolic(0.0), eps, "exponential")
    t0 = 1.0
    # int_t0^inf exp(-eps t) dt = exp(-eps t0)/eps
    tail = mu.budget(t0, 1e9)
    assert tail == pytest.approx(np.exp(-eps * t0) / eps, rel=1e-12)
    # budget converges: second half contributes little at long horizons
    assert mu.budget(10.0, 20.0) <= 0.05 * mu.budget(t0, 20.0)


def test_rate_preserving_mu_on_a_custom_family():
    # mu = target / (nu_dot e^nu) needs no closed form of the family
    fam = ag.with_modified_nu(ag.ConstantDamping(2.0, 1.0), shift=1.0)
    mu = ag.rate_preserving_mu(fam, 0.5, "exponential")
    for t in (0.5, 1.0, 3.0):
        s = fam.sample(t)
        assert mu.mu(t) == pytest.approx(np.exp(-0.5 * t) / (s.nu_dot * np.exp(s.nu)), rel=1e-12)
    assert mu.budget(1.0, 3.0) == pytest.approx(2.0 * (np.exp(-0.5) - np.exp(-1.5)), rel=1e-12)
    with pytest.raises(ConfigurationError):
        ag.rate_preserving_mu(ag.Hyperbolic(1.0), -0.5, "exponential")
    with pytest.raises(ConfigurationError):
        ag.rate_preserving_mu(ag.Hyperbolic(1.0), 0.5, "fancy")


def test_constant_mu_with_exact_approximation_matches_unsmoothed():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=5.0, step=1e-3, record_stride=10)
    x0 = np.array([1.0, 1.0])
    plain = ag.integrate(spec.generator, spec.objective, fam, cfg, x0)
    a = ag.with_exact_smooth_objective(spec.objective)
    mu = ag.constant_mu(0.3, fam)
    smoothed = ag.smoothed_flow(spec.generator, a, fam, mu, cfg, x0)
    assert np.array_equal(plain.states_x, smoothed.states_x)
    assert np.array_equal(plain.states_z, smoothed.states_z)


def test_constant_mu_rejects_nonpositive():
    with pytest.raises(ScheduleError):
        ag.constant_mu(0.0, ag.ConstantDamping(2.0, 1.0))


def test_smoothed_flow_rejects_vanishing_or_growing_mu():
    approx, spec = ag.l1_denoise_approximation(np.array([1.0]), 1.0)
    fam = ag.Hyperbolic(0.0)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=10.0, step=1e-2)
    through_zero = ag.SmoothingSchedule(
        mu=lambda t: 1.0 - 0.2 * np.asarray(t, dtype=float),
        budget=lambda ta, tb: 0.0,
        description="linear decay through zero",
    )
    with pytest.raises(ScheduleError):
        ag.smoothed_flow(spec.generator, approx, fam, through_zero, cfg, np.zeros(1))
    growing = ag.SmoothingSchedule(
        mu=lambda t: 0.1 * np.asarray(t, dtype=float),
        budget=lambda ta, tb: 0.0,
        description="growing",
    )
    with pytest.raises(ScheduleError):
        ag.smoothed_flow(spec.generator, approx, fam, growing, cfg, np.zeros(1))


def test_smoothed_flow_bounds_on_pure_l1():
    # scalar |x| objective: x* = 0; smoothed flow keeps the certified bounds.
    # horizon ends before the oscillation amplitude reaches the mu-scale seam,
    # where RK4's local order degrades on the merely-C1 huber gradient
    a = ag.huber_l1(np.array([1.0]))
    fam = ag.Hyperbolic(0.0)
    mu = ag.rate_preserving_mu(fam, 0.5, "exponential")
    cfg = ag.IntegratorConfig(t0=1.0, t_end=6.0, step=1e-3, record_stride=10)
    traj = ag.smoothed_flow(ag.squared_euclidean(1), a, fam, mu, cfg, np.array([1.5]))
    assert ag.monotonicity_report(traj).passed
    assert ag.bound_check(traj).passed
    r = traj.records
    assert np.all(r.f_gap <= np.exp(-r.nu) * (r.V[0] + r.budget) * (1.0 + 1e-6))


def test_smoothed_flow_tracks_budgeted_increments():
    approx, spec = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    fam = ag.Hyperbolic(0.0)
    mu = ag.rate_preserving_mu(fam, 0.5, "exponential")
    cfg = ag.IntegratorConfig(t0=1.0, t_end=8.0, step=1e-3, record_stride=10)
    traj = ag.smoothed_flow(spec.generator, approx, fam, mu, cfg, np.zeros(2))
    V, B = traj.records.V, traj.records.budget
    tol = 1e-8 * max(1.0, V[0])
    assert np.max(np.diff(V) - np.diff(B)) <= tol
    rep = ag.monotonicity_report(traj)
    assert rep.passed and rep.smoothed


def test_smoothed_flow_rejects_mu_bump_between_coarse_probes():
    approx, spec = ag.l1_denoise_approximation(np.array([1.0]), 1.0)
    fam = ag.Hyperbolic(0.0)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=10.0, step=1e-2)
    # a bump on [5.0, 5.02], narrower than (t_end - t0)/100 = 0.09
    bump = ag.SmoothingSchedule(
        mu=lambda t: 1.0 + 0.5 * (np.abs(np.asarray(t, dtype=float) - 5.01) < 0.01),
        budget=lambda ta, tb: 0.0,
        description="bump",
    )
    # 101 evenly spaced probes on the horizon miss it
    assert np.all(bump.mu(np.linspace(cfg.t0, cfg.t_end, 101)) == 1.0)
    with pytest.raises(ScheduleError, match="nonincreasing"):
        ag.smoothed_flow(spec.generator, approx, fam, bump, cfg, np.zeros(1))


def test_grid_mu_matches_per_stage_mu_oracle():
    # the smooth-demo run, against the same core under a schedule whose mu(t)
    # is evaluated one time at a time, as a per-stage call would
    approx, spec = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    fam = ag.Hyperbolic(0.0)
    mu = ag.rate_preserving_mu(fam, 0.5, "exponential")
    cfg = ag.IntegratorConfig(t0=1.0, t_end=14.0, step=1e-3, record_stride=10)
    x0 = np.zeros(2)
    fast = ag.smoothed_flow(spec.generator, approx, fam, mu, cfg, x0)

    def one_time_at_a_time(t):
        return np.array([float(mu.mu(ti)) for ti in np.ravel(t)]).reshape(np.shape(t))

    per_time = dataclasses.replace(mu, mu=one_time_at_a_time)
    ref = _integrate_core(spec.generator, approx.base, fam, cfg, x0, np.zeros(2), ag.Smoothed(approx, per_time))
    assert np.array_equal(fast.times, ref.times)
    scale = max(np.max(np.abs(ref.states_x)), np.max(np.abs(ref.states_z)))
    assert np.max(np.abs(fast.states_x - ref.states_x)) <= 1e-12 * scale
    assert np.max(np.abs(fast.states_z - ref.states_z)) <= 1e-12 * scale
    V, V_ref = fast.records.V, ref.records.V
    assert np.max(np.abs(V - V_ref)) <= 1e-12 * np.max(np.abs(V_ref))
    # the trajectory's time-form gradient is the smoothed one, not base's
    x, t = fast.states_x[len(fast) // 2], float(fast.times[len(fast) // 2])
    assert np.array_equal(fast.gradient_of(x, t), approx.grad_x(x, float(mu.mu(t))))
    assert not np.array_equal(fast.gradient_of(x, t), approx.base.gradient(x))


def test_integrate_under_smoothed_is_smoothed_flow():
    # smooth-demo's problem on [1, 5], under a family that states no sigma
    approx, spec = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    fam = copy.copy(ag.PolynomialDamping(3.0))
    fam.sigma = None
    mu = ag.rate_preserving_mu(fam, 0.5, "exponential")
    cfg = ag.IntegratorConfig(t0=1.0, t_end=5.0, step=1e-3, record_stride=10)
    x0 = np.zeros(2)
    shorthand = ag.smoothed_flow(spec.generator, approx, fam, mu, cfg, x0)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, x0, variant=ag.Smoothed(approx, mu))
    for name in ("times", "states_x", "states_z"):
        assert np.array_equal(getattr(traj, name), getattr(shorthand, name)), name
    for name in lyapunov.DIAGNOSTIC_FIELDS:
        assert np.array_equal(getattr(traj.records, name), getattr(shorthand.records, name)), name
    assert traj.metadata == shorthand.metadata
    assert traj.metadata["smoothing"] == {"approximation": approx.name, "mu": mu.description}
    # sigma falls back to 0, not to the objective's
    assert traj.metadata["sigma"] == 0.0 and spec.objective.sigma == 1.0
    assert traj.metadata["integrator"]["path"] == "stepping_loop"
    x, t = traj.states_x[-1], float(traj.times[-1])
    assert np.array_equal(traj.gradient_of(x, t), approx.grad_x(x, float(mu.mu(t))))


def test_smoothed_variant_needs_f_as_its_base():
    approx, spec = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    other, _ = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    fam = ag.Hyperbolic(0.0)
    mu = ag.rate_preserving_mu(fam, 0.5, "exponential")
    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=1e-2)
    with pytest.raises(ConfigurationError, match="base"):
        ag.integrate(spec.generator, spec.objective, fam, cfg, np.zeros(2), variant=ag.Smoothed(other, mu))


@pytest.mark.parametrize("variant", [None, ag.Standard(), ag.Symmetric()], ids=["auto", "standard", "symmetric"])
def test_nonsmooth_objective_needs_a_smoothed_variant(variant):
    spec = ag.l1_denoise(np.array([2.0, 0.1]), 1.0)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=1e-2)
    with pytest.raises(ConfigurationError, match="not smooth.*Smoothed"):
        ag.integrate(spec.generator, spec.objective, ag.Hyperbolic(0.0), cfg, np.zeros(2), variant=variant)


def per_sample_certificate(a, num_samples, seed, box=2.0, tolerance=1e-9):
    """The certification one (x, y, mu) draw at a time, each taken from the
    stream on its own."""
    dim = a.base.dim
    width = 2 * dim + 1
    sandwich, band, ratio = -np.inf, -np.inf, 0.0
    for i in range(num_samples):
        u = _uniforms(seed, i * width, width)
        x = -box + 2.0 * box * u[:dim]
        y = -box + 2.0 * box * u[dim : 2 * dim]
        mu = 1e-3 + (MU_MAX - 1e-3) * u[2 * dim]
        fx = float(a.base.value(x))
        fax = float(a.value(x, mu))
        sandwich = max(sandwich, fax - fx, fx - fax - a.beta_s * mu)
        gm = float(a.grad_mu(x, mu))
        band = max(band, gm, -gm - a.beta_s)
        dx = float(np.linalg.norm(y - x))
        if dx > 1e-12:
            dg = float(np.linalg.norm(a.grad_x(y, mu) - a.grad_x(x, mu)))
            ratio = max(ratio, dg / ((a.alpha_s / mu) * dx))
    passed = sandwich <= tolerance and band <= tolerance and ratio <= 1.0 + 1e-9
    return passed, sandwich, band, ratio


@pytest.mark.parametrize("seed", [0, 1, 11])
@pytest.mark.parametrize("which", ["l1_denoise", "exact_quadratic"])
def test_batched_certification_matches_per_sample_loop(which, seed):
    if which == "l1_denoise":
        a, _ = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    else:
        a = ag.with_exact_smooth_objective(ag.quadratic(np.diag([1.0, 0.5]), np.ones(2)).objective)
    num_samples = 2500  # not a whole number of row batches
    rep = ag.certify_smooth_approx(a, num_samples=num_samples, seed=seed)
    passed, sandwich, band, ratio = per_sample_certificate(a, num_samples, seed)
    assert rep.passed == passed
    assert rep.max_sandwich_violation == pytest.approx(sandwich, rel=1e-12, abs=0.0)
    assert rep.max_band_violation == pytest.approx(band, rel=1e-12, abs=0.0)
    assert rep.max_smoothness_ratio == pytest.approx(ratio, rel=1e-12, abs=0.0)


def test_uniform_stream_is_splitmix64():
    # SplitMix64's first outputs for seed 0; the stream keeps their top 53 bits
    known = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    assert (_uniforms(0, 0, 3) * 2.0**53).tolist() == [float(k >> 11) for k in known]
    # draw k does not depend on where a call starts, and an int64 seed is a seed
    assert np.array_equal(_uniforms(np.int64(7), 5, 4), _uniforms(7, 0, 9)[5:])
    for seed in (-1, 2**64, 1.5, np.nan):
        with pytest.raises(ConfigurationError, match="seed"):
            _uniforms(seed, 0, 1)


@pytest.mark.parametrize("chunk", [7, 1024])
def test_certificate_does_not_depend_on_its_row_batches(monkeypatch, chunk):
    a, _ = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    monkeypatch.setattr(smoothing, "_CERT_CHUNK", 1000)
    reference = ag.certify_smooth_approx(a, num_samples=2500, seed=3)
    monkeypatch.setattr(smoothing, "_CERT_CHUNK", chunk)
    assert ag.certify_smooth_approx(a, num_samples=2500, seed=3) == reference


@pytest.mark.parametrize("field", ["grad_mu", "grad_x"])
def test_certificate_fails_on_nan(field):
    a = ag.huber_l1(np.array([1.0, 2.0]))

    def nan(x, mu):  # the shape of a grad_x or a grad_mu
        return np.full(np.shape(x) if field == "grad_x" else np.shape(x)[:-1], np.nan)

    rep = ag.certify_smooth_approx(dataclasses.replace(a, **{field: nan}), num_samples=2500, seed=0)
    assert rep.passed is False
    worst = rep.max_band_violation if field == "grad_mu" else rep.max_smoothness_ratio
    assert np.isnan(worst)


def smoothed_euclidean_norm(dim):
    """sqrt(||x||^2 + mu^2) - mu for ||x||, written for row batches."""

    def root(x, mu):  # shape (..., 1)
        return np.sqrt(np.sum(x * x, axis=-1, keepdims=True) + mu * mu)

    base = ag.Objective(
        dim=dim,
        value=lambda x: np.sqrt(np.sum(x * x, axis=-1)),
        gradient=lambda x: x / np.sqrt(np.sum(x * x, axis=-1, keepdims=True)),
        sigma=0.0,
        smooth=False,
        name="euclidean_norm",
    )
    return SmoothApproximation(
        value=lambda x, mu: (root(x, mu) - mu)[..., 0],
        grad_x=lambda x, mu: x / root(x, mu),
        grad_mu=lambda x, mu: (mu / root(x, mu) - 1.0)[..., 0],
        alpha_s=1.0,
        beta_s=1.0,
        base=base,
        name="smoothed_euclidean_norm",
    )


def test_certification_rejects_approximations_without_row_batches():
    good = smoothed_euclidean_norm(2)
    assert ag.certify_smooth_approx(good, num_samples=1500, seed=0).passed

    def root(x, mu):
        return np.sqrt(np.sum(x * x, axis=-1) + mu * mu)

    broken = {
        # a mu term added after the axis=-1 sum broadcasts (m,) - (m, 1) to (m, m)
        "value": dataclasses.replace(good, value=lambda x, mu: root(x, mu) - mu),
        # np.linalg.norm with no axis gives one value for the whole batch
        "base.value": dataclasses.replace(
            good, base=dataclasses.replace(good.base, value=lambda x: np.linalg.norm(x))
        ),
        # a sum with no axis keeps the right shape but mixes the rows
        "grad_x": dataclasses.replace(
            good, grad_x=lambda x, mu: x / np.sqrt(np.sum(x * x) + mu * mu)
        ),
    }
    for name, a in broken.items():
        # every broken callable still agrees with the good one on one point
        x, y = np.array([0.3, -1.2]), np.array([1.1, 0.4])
        assert a.value(x, 0.2) == pytest.approx(good.value(x, 0.2), rel=1e-12)
        assert a.base.value(x) == pytest.approx(good.base.value(x), rel=1e-12)
        assert a.grad_x(y, 0.2) == pytest.approx(good.grad_x(y, 0.2), rel=1e-12)
        with pytest.raises(ConfigurationError, match=f"^{name} .*row batches"):
            ag.certify_smooth_approx(a, num_samples=1500, seed=0)


def steep_problem(hessian, y, w):
    """0.5 (x - y)^T H (x - y) as the smooth part, plus w ||x||_1."""
    smooth = ag.Objective(
        dim=y.size,
        value=lambda x: 0.5 * np.einsum("...i,...i->...", x - y, (x - y) @ hessian),
        gradient=lambda x: (x - y) @ hessian,
        sigma=float(np.min(np.linalg.eigvalsh(hessian))),
        name="steep",
        hessian=hessian,
    )
    base = dataclasses.replace(
        smooth,
        value=lambda x: smooth.value(x) + w * np.sum(np.abs(x), axis=-1),
        gradient=lambda x: smooth.gradient(x) + w * np.sign(x),
        smooth=False,
        name="steep_l1",
        hessian=None,
    )
    return smooth, base


@pytest.mark.parametrize(
    "hessian", [10.0 * np.eye(2), np.array([[6.0, 4.0], [4.0, 6.0]])], ids=["diagonal", "dense"]
)
def test_add_smooth_part_derives_smoothness_from_hessian(hessian):
    # both Hessians have largest eigenvalue L = 10
    huber = ag.huber_l1(np.ones(2))
    smooth, base = steep_problem(hessian, np.array([2.0, 0.1]), 1.0)
    derived = add_smooth_part(huber, smooth, base)
    assert derived.alpha_s == pytest.approx(huber.alpha_s + 10.0, rel=1e-12)
    assert ag.certify_smooth_approx(derived, num_samples=3000, seed=0).passed
    # the constant L = 1 once hard-coded for every smooth part
    unit = dataclasses.replace(derived, alpha_s=huber.alpha_s + 1.0)
    rep = ag.certify_smooth_approx(unit, num_samples=3000, seed=0)
    assert not rep.passed
    assert rep.max_smoothness_ratio > 1.5


def test_add_smooth_part_needs_a_declared_hessian():
    huber = ag.huber_l1(np.ones(2))
    smooth, base = steep_problem(np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(ConfigurationError, match="Hessian"):
        add_smooth_part(huber, dataclasses.replace(smooth, hessian=None), base)
    approx, _ = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    assert approx.alpha_s == 2.0
