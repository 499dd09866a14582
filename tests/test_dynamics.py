import dataclasses
import itertools
import os
import signal
import warnings

import numpy as np
import pytest

import agflow as ag
from agflow import dynamics, lyapunov, rk4, schedules
from agflow.bregman import DistanceGenerator
from agflow.errors import (
    ConfigurationError,
    DivergenceError,
    IntegrationError,
    PreconditionError,
    TimeDomainError,
)
from oracles import stage_rhs


def scalar_quadratic():
    return ag.quadratic(np.array([[1.0]]), np.zeros(1))


def test_initial_state_zero_velocity():
    fam = ag.Hyperbolic(1.0)
    st = ag.initial_state(np.array([2.0, -1.0]), np.zeros(2), fam, 1.0)
    assert np.array_equal(st.z, st.x)


def test_initial_state_constant_damping_scaling():
    fam = ag.ConstantDamping(2.0, 1.0)  # e^alpha = 1
    st = ag.initial_state(np.array([1.0, 0.0]), np.array([2.0, 0.0]), fam, 0.0)
    assert st.z == pytest.approx(np.array([3.0, 0.0]))


def test_initial_state_polynomial_scaling():
    fam = ag.PolynomialDamping(3.0)  # e^alpha(1) = 2, so e^-alpha = 0.5
    st = ag.initial_state(np.array([0.0]), np.array([2.0]), fam, 1.0)
    assert st.z == pytest.approx(np.array([1.0]))


def test_rhs_stationary_at_optimum():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    xstar = spec.objective.minimizer
    s = ag.ConstantDamping(2.0, 1.0).sample(1.0)
    xdot, zdot = stage_rhs(spec.generator, spec.objective, s, xstar, xstar)
    assert np.linalg.norm(xdot) <= 1e-14
    assert np.linalg.norm(zdot) <= 1e-14


def test_rhs_general_specializes_to_l2():
    # the Hessian-solve branch of the stage forcing, on h = |x|^2 / 2 with
    # no declared Hessian, against its identity-Hessian branch
    rng = np.random.default_rng(0)
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    general = dataclasses.replace(spec.generator, hessian=None)
    assert spec.generator.identity_hessian and not general.identity_hessian
    fam = ag.Hyperbolic(1.0)
    for _ in range(200):
        s = fam.sample(rng.uniform(0.3, 10.0))
        x, z = rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2)
        g = stage_rhs(general, spec.objective, s, x, z)
        l = stage_rhs(spec.generator, spec.objective, s, x, z)
        for a, b in zip(g, l):
            assert np.max(np.abs(a - b)) <= 1e-14 * (1.0 + np.max(np.abs(b)))


def test_rhs_general_entropy_against_inline_formula():
    # independent evaluation of the state equation with explicit entropy
    # derivatives: grad h = 1 + log, hess_h = diag(1/x) so the solve is '* z'
    h = ag.negative_entropy(2)
    Q = np.diag([1.0, 2.0])
    b = np.array([0.2, 0.1])
    f = ag.Objective(
        dim=2,
        value=lambda x: 0.5 * float(x @ (Q @ x)) - float(b @ x),
        gradient=lambda x: Q @ x - b,
        sigma=0.0,
    )
    fam = ag.PolynomialDamping(3.0)
    s = fam.sample(2.5)
    x = np.array([0.3, 0.4])
    z = np.array([0.25, 0.5])
    xdot, zdot = stage_rhs(h, f, s, x, z)

    ea = np.exp(s.alpha)
    K = s.delta_dot + s.eta_dot - s.alpha_dot - ea
    expect_xdot = ea * (z - x)
    expect_zdot = (
        -K * ((1.0 + np.log(z)) - (1.0 + np.log(x)))
        - np.exp(s.alpha - s.eta) * (Q @ x - b)
    ) * z
    assert xdot == pytest.approx(expect_xdot, rel=1e-14)
    assert zdot == pytest.approx(expect_zdot, rel=1e-14)


def test_rhs_l2_known_coefficients():
    # the stage forcing on h = |x|^2 / 2 in the standard form eta = 2 alpha
    rng = np.random.default_rng(1)
    spec = scalar_quadratic()
    h, f = spec.generator, spec.objective
    x, z = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)

    # critical constant damping: xdot = (z - x), zdot = -(z - x) - grad f(x)
    s = ag.ConstantDamping(2.0, 1.0).sample(0.7)
    xdot, zdot = stage_rhs(h, f, s, x, z)
    assert xdot == pytest.approx(z - x, rel=1e-14)
    assert zdot == pytest.approx(-(z - x) - f.gradient(x), rel=1e-14)

    # C/t damping: xdot = (2C/3t)(z - x), zdot = -((C-3)/3t)(z - x) - (3t/2C) grad f
    C, t = 6.0, 2.0
    s = ag.PolynomialDamping(C).sample(t)
    xdot, zdot = stage_rhs(h, f, s, x, z)
    assert xdot == pytest.approx(2 * C / (3 * t) * (z - x), rel=1e-14)
    assert zdot == pytest.approx(
        -(C - 3) / (3 * t) * (z - x) - 3 * t / (2 * C) * f.gradient(x), rel=1e-13
    )

    # 3/t damping: the (z - x) coefficient vanishes, zdot = -(t/2) grad f(x)
    s = ag.Hyperbolic(0.0).sample(t)
    xdot, zdot = stage_rhs(h, f, s, x, z)
    assert xdot == pytest.approx(2.0 / t * (z - x), rel=1e-14)
    assert zdot == pytest.approx(-0.5 * t * f.gradient(x), rel=1e-13, abs=1e-15)


def test_integrate_constant_damping_rate_bound():
    spec = scalar_quadratic()
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=20.0, step=1e-3, record_stride=10)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))
    V0 = traj.records.V[0]
    assert V0 == pytest.approx(1.0, rel=1e-14)
    assert traj.records.f_gap[-1] <= np.exp(-20.0) * V0 * (1.0 + 1e-3)
    # critically damped closed form x(t) = (1 + t) e^-t
    exact = 21.0 * np.exp(-20.0)
    assert traj.states_x[-1][0] == pytest.approx(exact, rel=1e-9)


def test_zero_objective_is_stationary():
    f = ag.Objective(
        dim=1,
        value=lambda x: np.zeros(np.shape(x)[:-1]),
        gradient=lambda x: np.zeros(1),
        sigma=0.0,
        minimizer=np.array([0.5]),
        optimal_value=0.0,
        name="zero",
    )
    fam = ag.Hyperbolic(0.0)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=10.0, step=1e-2, record_stride=10)
    traj = ag.integrate(ag.squared_euclidean(1), f, fam, cfg, np.array([0.5]))
    assert np.max(np.abs(traj.states_x - 0.5)) <= 1e-12


def test_step_halving_shows_fourth_order():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
    fam = ag.ConstantDamping(1.0, 1.0)
    ends = []
    for step in (0.08, 0.04, 0.02):
        cfg = ag.IntegratorConfig(t0=0.0, t_end=4.0, step=step, record_stride=1000)
        traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0, 1.0]))
        ends.append(traj.states_x[-1].copy())
    e1 = np.linalg.norm(ends[0] - ends[1])
    e2 = np.linalg.norm(ends[1] - ends[2])
    order = np.log2(e1 / e2)
    assert order >= 3.5


def test_stationary_start_stays_at_optimum():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=20.0, step=1e-3, record_stride=100)
    traj = ag.integrate(
        spec.generator, spec.objective, fam, cfg, spec.objective.minimizer.copy()
    )
    drift = np.max(np.linalg.norm(traj.states_x - spec.objective.minimizer, axis=1))
    assert drift <= 1e-9


@pytest.mark.parametrize(
    "family", [ag.Hyperbolic(1.0), ag.PolynomialDamping(3.0)], ids=["hyperbolic", "polynomial"]
)
def test_composed_maps_keep_a_start_at_the_minimizer(family):
    # the maps act on the deviation from the rest point, which is then zero
    cfg = ag.IntegratorConfig(t0=1.0, t_end=6.0, step=1e-2, record_stride=1)
    for Q, exact in ((np.diag([1.0, 4.0]), True), (np.array([[2.0, 0.5], [0.5, 1.0]]), False)):
        spec = ag.quadratic(Q, np.array([1.0, 4.0]))
        xstar = spec.objective.minimizer
        traj = ag.integrate(spec.generator, spec.objective, family, cfg, xstar.copy(), np.zeros(2))
        assert traj.metadata["integrator"]["path"] == "composed_maps"
        if exact:
            assert np.array_equal(traj.states_x, np.broadcast_to(xstar, traj.states_x.shape))
        else:
            assert np.max(np.abs(traj.states_x - xstar)) <= 1e-15


def test_objective_without_stationary_point_is_configuration_error():
    # hessian diag(1, 0) but a linear term along the flat direction x1
    f = ag.Objective(
        dim=2,
        value=lambda x: 0.5 * x[..., 0] ** 2 - x[..., 0] - x[..., 1],
        gradient=lambda x: np.stack([x[..., 0] - 1.0, -np.ones_like(x[..., 1])], axis=-1),
        sigma=0.0,
        minimizer=np.array([1.0, 0.0]),
        optimal_value=-0.5,
        hessian=np.diag([1.0, 0.0]),
    )
    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=1e-2)
    with pytest.raises(ConfigurationError, match="no stationary point"):
        ag.integrate(ag.squared_euclidean(2), f, ag.Hyperbolic(1.0), cfg, np.zeros(2))


@pytest.mark.parametrize(
    "h, G",
    [
        (ag.quadratic_generator([[2.0, 0.5, 0.0], [0.5, 1.0, 0.25], [0.0, 0.25, 3.0]]),
         np.array([[4.0, 1.0, 0.0], [1.0, 2.0, -0.5], [0.0, -0.5, 1.0]])),
        (ag.quadratic_generator(np.diag([4.0, 0.25, 1.0])), np.diag([1.0, 9.0, 9.0])),
        (ag.quadratic_generator(np.diag([4.0, 0.25, 1.0])),
         np.array([[4.0, 1.0, 0.0], [1.0, 2.0, -0.5], [0.0, -0.5, 1.0]])),
    ],
    ids=["dense_h", "diagonal_h_g", "diagonal_h"],
)
def test_modal_form_whitens_h_and_diagonalises_g(h, G):
    r = np.array([1.0, -2.0, 0.5])
    f = ag.quadratic(G, r).objective
    S, lam, x_r, S_inv = dynamics._modal_form(h, f, np.array([0.5, -1.0, 2.0]))
    H = h.hessian
    assert np.max(np.abs(S.T @ H @ S - np.eye(3))) <= 1e-14
    assert np.max(np.abs(S.T @ G @ S - np.diag(lam))) <= 1e-14 * np.max(lam)
    assert np.all(np.diff(lam) >= 0)
    assert np.max(np.abs(S_inv @ S - np.eye(3))) <= 1e-14
    assert np.max(np.abs(G @ x_r - r)) <= 1e-13


def test_modal_form_of_a_diagonal_flow_is_a_permutation():
    # diagonal H and G: lam_i = G_ii / H_ii sorted, S's columns e_i / sqrt(H_ii)
    h = ag.quadratic_generator(np.diag([4.0, 0.25, 1.0]))
    f = ag.quadratic(np.diag([2.0, 1.0, 3.0]), np.array([2.0, 1.0, 3.0])).objective
    S, lam, x_r, _ = dynamics._modal_form(h, f, np.zeros(3))
    assert np.array_equal(lam, [0.5, 3.0, 4.0])
    assert np.array_equal(S, [[0.5, 0.0, 0.0], [0.0, 0.0, 2.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(x_r, np.ones(3))


@pytest.mark.parametrize(
    "H", [np.diag([1.0, -0.5]), np.array([[1.0, 2.0], [2.0, 1.0]])], ids=["diagonal", "dense"]
)
def test_indefinite_generator_hessian_is_configuration_error(H):
    h = dataclasses.replace(ag.squared_euclidean(2), gradient=lambda x: x @ H, hessian=H, name="indefinite")
    f = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0])).objective
    with pytest.raises(ConfigurationError, match="declared Hessian of indefinite is not positive definite"):
        dynamics._modal_form(h, f, np.ones(2))
    cfg = ag.IntegratorConfig(t0=0.0, t_end=1.0, step=1e-2)
    with pytest.raises(ConfigurationError, match="not positive definite"):
        ag.integrate(h, f, ag.ConstantDamping(2.0, 1.0), cfg, np.ones(2))


def test_kinetic_identity_for_euclidean_generator():
    # e^(2 alpha) D_h(x + e^-alpha v, x) equals ||v||^2 / 2 exactly
    rng = np.random.default_rng(9)
    h = ag.squared_euclidean(3)
    for _ in range(100):
        x = rng.uniform(-2, 2, 3)
        v = rng.uniform(-2, 2, 3)
        alpha = rng.uniform(-2.0, 2.0)
        lhs = np.exp(2 * alpha) * ag.bregman_div(h, x + np.exp(-alpha) * v, x)
        assert lhs == pytest.approx(0.5 * float(v @ v), rel=1e-14)


@pytest.mark.parametrize("hessian", [None, np.eye(1)], ids=["stepping_loop", "composed_maps"])
def test_domain_exit_reports_last_valid_state(hessian):
    base = ag.squared_euclidean(1)
    boxed = DistanceGenerator(
        dim=1,
        value=base.value,
        gradient=base.gradient,
        hessian_solve=base.hessian_solve,
        symmetric=True,
        domain_guard=lambda x: bool(np.all(np.abs(x) < 1.0)),
        name="boxed",
        hessian=base.hessian,
    )
    # minimizer at 2.0 sits outside the guard box, so the flow must exit
    f = ag.Objective(
        dim=1,
        value=lambda x: 0.5 * float((x - 2.0) @ (x - 2.0)),
        gradient=lambda x: x - 2.0,
        sigma=1.0,
        minimizer=np.array([0.0]),  # placeholder inside the box for diagnostics
        optimal_value=2.0,
        hessian=hessian,
    )
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=10.0, step=1e-2, record_stride=10)
    with pytest.raises(IntegrationError) as err:
        ag.integrate(boxed, f, fam, cfg, np.zeros(1))
    assert err.value.last_state is not None
    assert abs(err.value.last_state.x[0]) < 1.0


@pytest.mark.parametrize("hessian", [np.eye(1), None], ids=["composed_maps", "stepping_loop"])
def test_every_recorded_state_is_checked(hessian):
    # with record_stride 162 > 25, step 162 is recorded between the check
    # points 150 and 175; only there does z = -2.3235 leave |z| < 2.32
    spec = scalar_quadratic()
    boxed = dataclasses.replace(spec.generator, domain_guard=lambda x: bool(np.all(np.abs(x) < 2.32)))
    f = dataclasses.replace(spec.objective, hessian=hessian)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=2.0, step=1e-2, record_stride=162)
    with pytest.raises(IntegrationError) as err:
        ag.integrate(boxed, f, ag.ConstantDamping(0.5, 1.0), cfg, np.array([0.9]))
    assert err.value.last_state.t < 1.62


def _start_problem(entry):
    """A 2-dimensional run through `integrate` or `smoothed_flow`."""
    family = ag.Hyperbolic(0.0)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=1e-2)
    if entry == "integrate":
        spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
        return lambda x0, v0: ag.integrate(spec.generator, spec.objective, family, cfg, x0, v0)
    approx, spec = ag.l1_denoise_approximation(np.array([2.0, 0.1]), 1.0)
    mu = ag.rate_preserving_mu(family, 0.5, "exponential")
    return lambda x0, v0: ag.smoothed_flow(spec.generator, approx, family, mu, cfg, x0, v0)


@pytest.mark.parametrize("entry", ["integrate", "smoothed_flow"])
@pytest.mark.parametrize(
    "x0, v0",
    [(np.ones(3), None), (np.ones((2, 1)), None), (np.ones(1), None), (np.ones(2), np.ones(3))],
    ids=["x0_3", "x0_2x1", "x0_1", "v0_3"],
)
def test_start_of_wrong_shape_is_configuration_error(entry, x0, v0):
    run = _start_problem(entry)
    run(np.ones(2), None)
    with pytest.raises(ConfigurationError, match="shape"):
        run(x0, v0)


def test_divergence_detected():
    spec = ag.quadratic(np.array([[400.0]]), np.zeros(1))
    fam = ag.ConstantDamping(2.0, 20.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=200.0, step=1.0, record_stride=1)
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError):
        ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))


def test_stiff_layer_warning_and_counts_are_kept_in_metadata():
    spec = scalar_quadratic()
    fam = ag.Hyperbolic(1.0)  # e^alpha(0.1) is about 20, so step 1e-2 is stiff there
    cfg = ag.IntegratorConfig(t0=0.1, t_end=1.0, step=1e-2)
    with pytest.warns(RuntimeWarning, match="initial layer") as caught:
        traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))
    assert traj.metadata["warnings"] == [str(caught[0].message)]
    counts = [traj.metadata["integrator"][k] for k in ("path", "steps", "gradient_evaluations")]
    assert counts == ["composed_maps", 90, 3]

    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=1e-2)
    f = dataclasses.replace(spec.objective, hessian=None)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        calm = ag.integrate(spec.generator, f, fam, cfg, np.array([1.0]))
    assert calm.metadata["warnings"] == []
    counts = [calm.metadata["integrator"][k] for k in ("path", "steps", "gradient_evaluations")]
    assert counts == ["stepping_loop", 100, 400]


def test_trajectory_csv_deterministic(tmp_path):
    spec = scalar_quadratic()
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=2.0, step=1e-3, record_stride=50)
    paths = []
    for name in ("a.csv", "b.csv"):
        traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))
        p = tmp_path / name
        traj.write_csv(p)
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    header = paths[0].decode().splitlines()[0]
    assert header == "t,x0,z0,V,f_gap,breg_xstar_z,breg_xstar_x,breg_z_x,slack1,slack2,slack3,slack4"


def test_trajectory_grid_is_ordered_from_t0():
    spec = scalar_quadratic()
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=2.0, step=1e-3, record_stride=7)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(2.0, abs=1e-12)


def test_hessian_solve_failure_is_numerical_error():
    from agflow.errors import NumericalError

    base = ag.squared_euclidean(1)
    broken = DistanceGenerator(
        dim=1,
        value=base.value,
        gradient=base.gradient,
        hessian_solve=lambda point, rhs: (_ for _ in ()).throw(
            np.linalg.LinAlgError("singular")
        ),
        symmetric=True,
        domain_guard=base.domain_guard,
        name="singular",
    )
    spec = scalar_quadratic()
    s = ag.ConstantDamping(2.0, 1.0).sample(0.0)
    with pytest.raises(NumericalError):
        stage_rhs(broken, spec.objective, s, np.ones(1), np.zeros(1))


def test_dense_generator_stepping_loop_makes_no_linalg_solve(monkeypatch):
    # a dense h is solved from its eigenpairs, not factorized at every RK4 stage
    solve, calls = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args) or solve(*args))
    H = np.array([[1.5, 0.2], [0.2, 0.8]])
    f = dataclasses.replace(ag.quadratic(np.diag([2.0, 1.0]), np.array([1.0, -0.5])).objective, hessian=None)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=1e-2)
    traj = ag.integrate(ag.quadratic_generator(H), f, ag.PolynomialDamping(3.0), cfg, np.array([1.0, -1.0]))
    assert traj.metadata["integrator"]["path"] == "stepping_loop"
    assert traj.metadata["integrator"]["steps"] == 100
    assert calls == []


def _event_steps_oracle(n_steps, stride):
    check_every = max(1, min(stride, 25))
    recorded = {*range(0, n_steps, stride), n_steps}
    steps = sorted({*range(0, n_steps, check_every), *recorded})
    return np.array(steps), np.array([k in recorded for k in steps])


def test_event_steps_match_a_set_oracle():
    for n_steps in (1, 2, 24, 25, 26, 99, 1000, 1001, 1013):
        for stride in (1, 7, 25, 26, 40, 1001, 2000):
            (events, recorded), (expect, flags) = (
                dynamics._event_steps(n_steps, stride), _event_steps_oracle(n_steps, stride)
            )
            assert events.dtype == expect.dtype == np.int64, (n_steps, stride)
            assert np.array_equal(events, expect), (n_steps, stride)
            assert recorded.dtype == flags.dtype == bool, (n_steps, stride)
            assert np.array_equal(recorded, flags), (n_steps, stride)


def test_second_order_residual_is_differencing_small():
    spec = scalar_quadratic()
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=5.0, step=1e-3, record_stride=10)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))
    assert traj.second_order_residual() <= 1e-3


def test_integrator_config_validation():
    with pytest.raises(ConfigurationError):
        ag.IntegratorConfig(t0=1.0, t_end=1.0)
    with pytest.raises(ConfigurationError):
        ag.IntegratorConfig(t0=0.0, t_end=1.0, step=2.0)
    with pytest.raises(ConfigurationError):
        ag.IntegratorConfig(t0=0.0, t_end=1.0, record_stride=0)
    for bad in (
        {"t0": np.nan},
        {"t0": -np.inf},
        {"t_end": np.inf},
        {"step": np.nan},
        {"record_stride": 1.5},
        {"record_stride": 2.0},
    ):
        with pytest.raises(ConfigurationError):
            ag.IntegratorConfig(**{"t0": 0.0, "t_end": 1.0, "step": 1e-2, **bad})
    assert ag.IntegratorConfig(t0=0.0, t_end=1.0, record_stride=np.int64(3)).record_stride == 3


def test_integrate_rejects_inadmissible_t0():
    spec = scalar_quadratic()
    fam = ag.PolynomialDamping(3.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=5.0, step=1e-3)
    with pytest.raises(TimeDomainError):
        ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))


@pytest.mark.parametrize("wrong", ["objective", "generator"])
def test_declared_hessian_must_match_gradient(wrong):
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    f, h = spec.objective, spec.generator
    if wrong == "objective":
        f = dataclasses.replace(f, hessian=np.diag([1.0, 2.0]))
    else:
        h = dataclasses.replace(h, hessian=2.0 * np.eye(2))
    cfg = ag.IntegratorConfig(t0=0.0, t_end=1.0, step=1e-2)
    with pytest.raises(ConfigurationError, match="Hessian"):
        ag.integrate(h, f, ag.ConstantDamping(2.0, 1.0), cfg, np.array([1.0, 1.0]))


# The coarse step trips the stiff-layer warning on hyperbolic sigma=1 (t0 = 0.1);
# both paths take the same steps, which is all this comparison needs.
@pytest.mark.filterwarnings("ignore:step \\* exp:RuntimeWarning")
def test_composed_maps_match_stepping_loop():
    from agflow.cli import canonical_grid, run_canonical

    def verdicts(traj, entry, fitted):
        return (
            ag.monotonicity_report(traj).passed,
            ag.bound_check(traj).passed,
            ag.integral_estimates(traj).passed,
            fitted.rate >= entry["required"],
        )

    for entry in canonical_grid():
        fast, fitted = run_canonical(entry, step=1e-2, record_stride=10)
        m = fast.metadata["integrator"]
        assert m["path"] == "composed_maps", entry["label"]
        cfg = ag.IntegratorConfig(
            t0=m["t0"], t_end=m["t_end"], step=m["step"], record_stride=m["record_stride"]
        )
        ref = ag.integrate(
            fast.h,
            dataclasses.replace(fast.f, hessian=None),
            fast.family,
            cfg,
            np.array(fast.metadata["x0"]),
        )
        assert ref.metadata["integrator"]["path"] == "stepping_loop"
        assert np.array_equal(ref.times, fast.times)
        scale = max(np.max(np.abs(ref.states_x)), np.max(np.abs(ref.states_z)))
        assert np.max(np.abs(fast.states_x - ref.states_x)) <= 1e-11 * scale, entry["label"]
        assert np.max(np.abs(fast.states_z - ref.states_z)) <= 1e-11 * scale, entry["label"]
        V, V_ref = fast.records.V, ref.records.V
        assert np.max(np.abs(V - V_ref)) <= 1e-11 * max(1.0, V_ref[0]), entry["label"]
        ref_fitted = ag.fit_rate(ref, entry["model"], entry["window"])
        assert verdicts(fast, entry, fitted) == verdicts(ref, entry, ref_fitted), entry["label"]


def _spectrum(rng, n=64):
    """Log-uniform eigenvalues in [1, 100]."""
    return np.exp(rng.uniform(0.0, np.log(100.0), n))


@pytest.mark.parametrize("spectrum", ["log_uniform", "flat_mode", "repeated", "three_distinct"])
def test_node_maps_match_direct_step_maps(spectrum):
    rng = np.random.default_rng(15)
    lam = _spectrum(rng)
    if spectrum == "flat_mode":
        lam[7] = 0.0
    elif spectrum == "repeated":
        lam = rng.choice(lam[:6], lam.size)
    elif spectrum == "three_distinct":
        lam = rng.choice([1.0, 7.5, 100.0], lam.size)
    cfg = ag.IntegratorConfig(t0=0.5, t_end=2.5, step=1e-2)
    _, tgrid = dynamics.half_step_grid(cfg)
    ea, K, ema = schedules.flow_coefficients(ag.Hyperbolic(1.0).sample(tgrid))
    direct = rk4._rk4_step_maps(ea, K, ema, lam, cfg.step)
    nodes, W = rk4._map_nodes(lam)
    assert nodes.size == min(3, len(set(lam.tolist())))
    interpolated = rk4._rk4_step_maps(ea, K, ema, nodes, cfg.step) @ W.T
    assert np.max(np.abs(interpolated - direct)) <= 1e-14 * np.max(np.abs(direct))
    if spectrum == "three_distinct":  # each mode takes its own node's map
        assert np.array_equal(interpolated, direct)


@pytest.mark.parametrize("stride", [1, 10])
def test_composed_maps_match_stepping_loop_on_64_modes(stride):
    # a dense Q, so the modes are not the coordinates
    rng = np.random.default_rng(16)
    lam = _spectrum(rng)
    basis, _ = np.linalg.qr(rng.normal(size=(lam.size, lam.size)))
    Q = (basis * lam) @ basis.T
    spec = ag.quadratic(0.5 * (Q + Q.T), Q @ rng.uniform(-1.0, 1.0, lam.size))
    family = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=3.0, step=1e-2, record_stride=stride)
    x0 = rng.uniform(-2.0, 2.0, lam.size)
    fast = ag.integrate(spec.generator, spec.objective, family, cfg, x0)
    f = dataclasses.replace(spec.objective, hessian=None)
    ref = ag.integrate(spec.generator, f, family, cfg, x0)
    assert fast.metadata["integrator"]["path"] == "composed_maps"
    assert ref.metadata["integrator"]["path"] == "stepping_loop"
    assert np.array_equal(ref.times, fast.times)
    scale = max(np.max(np.abs(ref.states_x)), np.max(np.abs(ref.states_z)))
    assert np.max(np.abs(fast.states_x - ref.states_x)) <= 1e-11 * scale
    assert np.max(np.abs(fast.states_z - ref.states_z)) <= 1e-11 * scale


def test_walk_is_finite_where_the_step_by_step_walk_is():
    # y = (1, 0) is a fixed point of every map [[1, 1], [0, 1e100]], while
    # the maps' products overflow within four blocks
    blocks = 16
    M = np.broadcast_to(np.array([[1.0, 1.0], [0.0, 1e100]])[:, :, None, None], (2, 2, blocks, 1))
    y = np.array([[1.0], [0.0]])
    with np.errstate(all="ignore"):
        Y = rk4._walk(M, np.arange(blocks), np.ones(blocks, dtype=int), y)
    assert np.array_equal(Y, np.broadcast_to(y[:, None], (2, blocks, 1)))


def test_undeclared_generator_hessian_takes_stepping_loop():
    spec = ag.quadratic(np.diag([1.0, 2.0]), np.array([0.6, 0.8]))
    assert spec.objective.hessian is not None
    fam = ag.PolynomialDamping(3.0)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=3.0, step=1e-2, record_stride=10)
    traj = ag.integrate(
        ag.negative_entropy(2), spec.objective, fam, cfg, np.array([0.3, 0.4])
    )
    assert traj.metadata["integrator"]["path"] == "stepping_loop"


def test_identity_hessian_is_derived_from_declared_hessian():
    assert ag.squared_euclidean(2).identity_hessian
    assert not ag.quadratic_generator(np.diag([1.0, 4.0])).identity_hessian
    assert not ag.negative_entropy(2).identity_hessian
    with pytest.raises(TypeError):
        dataclasses.replace(ag.quadratic_generator(np.diag([1.0, 4.0])), identity_hessian=True)


def test_non_identity_generator_paths_agree():
    # a generator that claimed an identity Hessian beside hess h = diag(1, 4)
    # once ran a different flow on the stepping loop than on the maps
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
    h = ag.quadratic_generator(np.diag([1.0, 4.0]))
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=5.0, step=1e-3, record_stride=10)
    x0 = np.array([1.0, 1.0])
    fast = ag.integrate(h, spec.objective, fam, cfg, x0)
    ref = ag.integrate(h, dataclasses.replace(spec.objective, hessian=None), fam, cfg, x0)
    assert fast.metadata["integrator"]["path"] == "composed_maps"
    assert ref.metadata["integrator"]["path"] == "stepping_loop"
    scale = max(np.max(np.abs(ref.states_x)), np.max(np.abs(ref.states_z)))
    assert np.max(np.abs(fast.states_x[-1] - ref.states_x[-1])) <= 1e-11 * scale
    assert np.max(np.abs(fast.states_z[-1] - ref.states_z[-1])) <= 1e-11 * scale


@pytest.mark.parametrize(
    "h", [ag.squared_euclidean(2), ag.quadratic_generator(np.diag([1.0, 4.0]))], ids=["identity", "diagonal"]
)
def test_gradient_that_keeps_a_copy_sees_each_step_start(h):
    # the point handed to the gradient is valid only during the call
    # (`Objective`); a copy taken then is the point the stage evaluated
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([0.5, -0.5]))
    copies = []

    def gradient(x):
        copies.append(x.copy())
        return spec.objective.gradient(x)

    f = dataclasses.replace(spec.objective, gradient=gradient, hessian=None)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=1.5, step=1e-2, record_stride=5)
    traj = ag.integrate(h, f, ag.PolynomialDamping(3.0), cfg, np.array([1.0, -1.0]))
    assert traj.metadata["integrator"]["path"] == "stepping_loop"
    assert len(copies) == 4 * 50
    # a step's first stage is at the state it starts from
    step_starts = np.array(copies[::4])
    assert np.array_equal(step_starts[::5], traj.states_x[:-1])


def _old_csv(traj) -> str:
    """The per-sample f-string CSV writer the row-template writer replaced."""
    n = traj.states_x.shape[1]
    cols = (
        ["t"] + [f"x{i}" for i in range(n)] + [f"z{i}" for i in range(n)]
        + ["V", "f_gap", "breg_xstar_z", "breg_xstar_x", "breg_z_x"]
        + [f"slack{i}" for i in range(1, 5)]
    )
    lines = [",".join(cols)]
    r = traj.records
    for k in range(len(traj)):
        vals = (
            [traj.times[k]] + list(traj.states_x[k]) + list(traj.states_z[k])
            + [r.V[k], r.f_gap[k], r.breg_xstar_z[k], r.breg_xstar_x[k], r.breg_z_x[k]]
            + [r.slack1[k], r.slack2[k], r.slack3[k], r.slack4[k]]
        )
        lines.append(",".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"


def test_writers_match_json_dumps_and_old_csv(tmp_path, monkeypatch):
    import json

    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 0.5]))
    cfg = ag.IntegratorConfig(t0=0.0, t_end=2.5, step=1e-3, record_stride=1)
    traj = ag.integrate(
        spec.generator, spec.objective, ag.ConstantDamping(2.0, 1.0), cfg, np.array([1.0, -1.0])
    )
    assert len(traj) > 2 * 1024  # several row chunks
    special = {"V": np.nan, "f_gap": np.inf, "slack3": -np.inf, "budget": np.nan, "nu": -0.0}
    d = traj.records
    bad = {}
    for k, (name, value) in enumerate(special.items()):
        col = getattr(d, name).copy()
        col[[k, 1024 + k, -1]] = value
        bad[name] = col
    traj = dataclasses.replace(traj, records=dataclasses.replace(d, **bad))
    traj.metadata["note"] = [np.nan, np.inf, -np.inf]

    expect = json.dumps(traj.to_dict(), indent=2, sort_keys=True) + "\n"
    assert "NaN" in expect and "-Infinity" in expect
    # forced worker counts, so a one-CPU machine also runs the forked writers;
    # three workers take one row chunk each.  100 values per text chunk make
    # 7-row (CSV) and 6-row (JSON) chunks, which end inside a worker's range
    for workers, values in itertools.product((1, 2, 3), (dynamics._TEXT_VALUES, 100)):
        monkeypatch.setattr(dynamics, "_writer_count", lambda rows: workers)
        monkeypatch.setattr(dynamics, "_TEXT_VALUES", values)
        traj.write_json(tmp_path / "t.json")
        assert (tmp_path / "t.json").read_bytes() == expect.encode()
        traj.write_csv(tmp_path / "t.csv")
        assert (tmp_path / "t.csv").read_bytes() == _old_csv(traj).encode()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv", "t.json"]


@pytest.mark.parametrize("failure", ["worker_raises", "worker_killed", "parent_interrupted"])
def test_failed_writer_leaves_no_scratch_file_or_child(tmp_path, monkeypatch, failure):
    monkeypatch.setattr(dynamics, "_writer_count", lambda rows: 2)
    parent = os.getpid()

    def text(rows):
        if os.getpid() == parent:
            if failure == "parent_interrupted":
                raise KeyboardInterrupt
        elif failure == "worker_raises":
            raise RuntimeError("formatting failed")
        else:
            os.kill(os.getpid(), signal.SIGKILL)
        return "".join(f"{r[0]:.17g}\n" for r in rows)

    path = tmp_path / "t.csv"
    expected, match = (KeyboardInterrupt, None) if failure == "parent_interrupted" else (OSError, "t.csv")
    with pytest.raises(expected, match=match):
        dynamics._write_rows(path, "t\n", [np.arange(3000.0)], text, "", "")
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


def test_short_tables_fork_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    t = np.arange(2 * 1024 - 1.0)
    dynamics.write_table(tmp_path / "t.csv", ["t", "s"], [t, -t])
    expect = "t,s\n" + "".join(f"{v:.17g},{-v:.17g}\n" for v in t)
    assert (tmp_path / "t.csv").read_text() == expect
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert dynamics._writer_count(10 * 1024) == 3
    assert dynamics._writer_count(2 * 1024 - 1) == 1
    monkeypatch.delattr(os, "fork")
    assert dynamics._writer_count(10 * 1024) == 1


@pytest.mark.parametrize("failure", ["divergence", "domain_exit", "domain_excursion"])
def test_failure_inside_a_composed_block_matches_stepping_loop(failure):
    # record_stride 1 checks every step, and one composed-map chunk holds
    # every step of these one-mode flows, so the failure falls mid-block
    fam = ag.ConstantDamping(2.0, 1.0)
    x0, v0 = np.zeros(1), np.zeros(1)
    boxed = dataclasses.replace(
        ag.squared_euclidean(1), domain_guard=lambda x: bool(np.all(np.abs(x) < 1.0)), name="boxed"
    )
    if failure == "divergence":
        spec = ag.quadratic(np.array([[400.0]]), np.zeros(1))
        h, f, expected = spec.generator, spec.objective, DivergenceError
        x0 = np.ones(1)
        cfg = ag.IntegratorConfig(t0=0.0, t_end=200.0, step=1.0, record_stride=1)
    elif failure == "domain_exit":
        h, expected = boxed, IntegrationError
        f = ag.Objective(
            dim=1,
            value=lambda x: 0.5 * np.sum((x - 2.0) ** 2, axis=-1),
            gradient=lambda x: x - 2.0,
            sigma=1.0,
            minimizer=np.array([0.0]),  # placeholder inside the box for diagnostics
            optimal_value=2.0,
            hessian=np.eye(1),
        )
        cfg = ag.IntegratorConfig(t0=0.0, t_end=10.0, step=1e-2, record_stride=1)
    else:
        # z leaves the box from step 61 to 512, then both settle at x* = 0
        # inside it, so only a check of every checked row catches the exit
        h, f, expected = boxed, ag.quadratic(np.eye(1), np.zeros(1)).objective, IntegrationError
        x0 = np.array([0.9])
        fam = ag.ConstantDamping(0.5, 1.0)
        cfg = ag.IntegratorConfig(t0=0.0, t_end=10.0, step=1e-2, record_stride=1)
    errors = {}
    loop_f = dataclasses.replace(f, hessian=None)
    for path, objective in (("composed_maps", f), ("stepping_loop", loop_f)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(expected) as err:
                ag.integrate(h, objective, fam, cfg, x0, v0)
        errors[path] = err.value
    fast, ref = errors["composed_maps"], errors["stepping_loop"]
    assert str(fast) == str(ref)
    if failure == "divergence":
        assert "last valid t = " in str(ref) and "t = 0 " not in str(ref)
    else:
        assert 0.0 < ref.last_state.t < cfg.t_end
        assert fast.last_state.t == ref.last_state.t
        assert fast.last_state.x == pytest.approx(ref.last_state.x, rel=1e-12)
        assert fast.last_state.z == pytest.approx(ref.last_state.z, rel=1e-12)
        assert abs(fast.last_state.x[0]) < 1.0


def _smooth_demo_run(t_end):
    from agflow import cli

    cfg = dataclasses.replace(cli._SMOOTH_DEMO, t_end=t_end)
    return lambda: cli._run_experiment(cfg)[0]


def _quadratic_run(t_end):
    """A 64-mode diagonal quadratic with every step recorded: composed maps."""
    rng = np.random.default_rng(24)
    lam = _spectrum(rng)
    spec = ag.quadratic(np.diag(lam), lam * rng.uniform(-1.0, 1.0, lam.size))
    cfg = ag.IntegratorConfig(t0=0.0, t_end=t_end, step=1e-3, record_stride=1)
    x0 = rng.uniform(-2.0, 2.0, lam.size)
    return lambda: ag.integrate(spec.generator, spec.objective, ag.ConstantDamping(2.0, 1.0), cfg, x0)


def _entropy_run(t_end):
    """A quadratic under the negative entropy, on the stepping loop; its
    schedule's exp(pi) > 0 resolves to the standard variant with a warning."""
    spec = ag.quadratic(np.diag([1.0, 2.0]), np.array([0.6, 0.8]))
    cfg = ag.IntegratorConfig(t0=1.0, t_end=t_end, step=1e-3, record_stride=10)
    h, fam, x0 = ag.negative_entropy(2), ag.PolynomialDamping(1.5), np.array([0.3, 0.4])
    return lambda: ag.integrate(h, spec.objective, fam, cfg, x0)


_WALK_CASES = {"smooth_demo": _smooth_demo_run, "quadratic": _quadratic_run, "entropy": _entropy_run}


def test_record_rows_match_the_columns():
    # smooth-demo's 1301 rows: the last window of the row iteration is short
    records = _smooth_demo_run(14.0)().records
    window = lyapunov.ROW_CHUNK // len(lyapunov.DIAGNOSTIC_FIELDS)
    assert len(records) == 1301 and len(records) % window != 0
    rows = list(records)
    assert len(rows) == len(records)
    for name in lyapunov.DIAGNOSTIC_FIELDS:
        column = [getattr(row, name) for row in rows]
        assert all(type(v) is float for v in column), name
        assert np.array(column).tobytes() == getattr(records, name).tobytes(), name


def _sample_sizes(monkeypatch, run):
    """`run()` and the size of the times of each `ScheduleFamily.sample` call
    it makes."""
    sizes = []
    sample = schedules.ScheduleFamily.sample

    def recorded(self, t):
        sizes.append(np.size(t))
        return sample(self, t)

    monkeypatch.setattr(schedules.ScheduleFamily, "sample", recorded)
    return run(), sizes


@pytest.mark.parametrize("case, t_end", [("smooth_demo", 14.0), ("quadratic", 3.0), ("entropy", 3.0)])
def test_schedule_is_sampled_one_chunk_of_steps_at_a_time(monkeypatch, case, t_end):
    traj, sizes = _sample_sizes(monkeypatch, _WALK_CASES[case](t_end))
    steps = traj.metadata["integrator"]["steps"]
    if traj.metadata["integrator"]["path"] == "stepping_loop":
        chunk = dynamics._STEP_CHUNK
    else:  # 64 modes: the node runs are _NODE_STEPS long
        chunk = max(rk4._NODE_STEPS, rk4._MAP_CHUNK // traj.states_x.shape[1])
    bound = 2 * chunk + 1
    if "smoothing" in traj.metadata:  # mu(t) samples the family per row chunk of its times
        bound = max(bound, lyapunov.ROW_CHUNK)
    assert 2 * steps + 1 > 4 * bound
    # beyond one chunk only the diagnostics' sample at the recorded times
    assert [n for n in sizes if n > bound] == [len(traj)] * (len(traj) > bound)
    assert sum(sizes) >= 2 * steps + 1


def _bits(traj):
    """The trajectory's times, states and every Diagnostics array, as bytes."""
    arrays = [traj.times, traj.states_x, traj.states_z]
    arrays += [getattr(traj.records, f.name) for f in dataclasses.fields(traj.records)]
    return [np.asarray(a).tobytes() for a in arrays]


@pytest.mark.parametrize("case", sorted(_WALK_CASES))
def test_coefficient_chunk_sizes_do_not_change_a_bit(monkeypatch, case):
    run = _WALK_CASES[case](2.0)
    ref = run()
    monkeypatch.setattr(dynamics, "_STEP_CHUNK", 7)
    # node runs of 64 steps: those of the walk for 64 modes, so only the
    # coefficients' chunks change (the walk's grouping sets its round-off)
    monkeypatch.setattr(rk4, "_NODE_STEPS", 8)
    small = run()
    assert small.metadata == ref.metadata
    assert _bits(small) == _bits(ref)
    if case == "entropy":
        assert "exp(pi) > 0 needs a symmetric generator" in ref.metadata["warnings"][0]


def test_symmetric_variant_on_entropy_raises_before_any_gradient(monkeypatch):
    calls = []
    spec = ag.quadratic(np.diag([1.0, 2.0]), np.array([0.6, 0.8]))

    def counted(x):
        calls.append(1)
        return spec.objective.gradient(x)

    f = dataclasses.replace(spec.objective, gradient=counted)
    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=1e-3)
    h, x0 = ag.negative_entropy(2), np.array([0.3, 0.4])
    with pytest.raises(PreconditionError, match="symmetric generator"):
        ag.integrate(h, f, ag.PolynomialDamping(1.5), cfg, x0, variant=ag.Symmetric())
    assert not calls
