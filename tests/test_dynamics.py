import dataclasses
import warnings

import numpy as np
import pytest

import agflow as ag
from agflow.bregman import DistanceGenerator
from agflow.dynamics import FlowState
from agflow.errors import (
    ConfigurationError,
    DivergenceError,
    IntegrationError,
    PreconditionError,
    TimeDomainError,
)


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
    xdot, zdot = ag.rhs_general(
        spec.generator, spec.objective, s, FlowState(1.0, xstar, xstar)
    )
    assert np.linalg.norm(xdot) <= 1e-14
    assert np.linalg.norm(zdot) <= 1e-14


def test_rhs_general_specializes_to_l2():
    rng = np.random.default_rng(0)
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    fam = ag.Hyperbolic(1.0)
    for _ in range(200):
        s = fam.sample(rng.uniform(0.3, 10.0))
        st = FlowState(s.t, rng.uniform(-2, 2, 2), rng.uniform(-2, 2, 2))
        g = ag.rhs_general(spec.generator, spec.objective, s, st)
        l = ag.rhs_l2(spec.objective, s, st)
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
    xdot, zdot = ag.rhs_general(h, f, s, FlowState(2.5, x, z))

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
    rng = np.random.default_rng(1)
    f = scalar_quadratic().objective
    x, z = rng.uniform(-2, 2, 1), rng.uniform(-2, 2, 1)

    # critical constant damping: xdot = (z - x), zdot = -(z - x) - grad f(x)
    s = ag.ConstantDamping(2.0, 1.0).sample(0.7)
    xdot, zdot = ag.rhs_l2(f, s, FlowState(0.7, x, z))
    assert xdot == pytest.approx(z - x, rel=1e-14)
    assert zdot == pytest.approx(-(z - x) - f.gradient(x), rel=1e-14)

    # C/t damping: xdot = (2C/3t)(z - x), zdot = -((C-3)/3t)(z - x) - (3t/2C) grad f
    C, t = 6.0, 2.0
    s = ag.PolynomialDamping(C).sample(t)
    xdot, zdot = ag.rhs_l2(f, s, FlowState(t, x, z))
    assert xdot == pytest.approx(2 * C / (3 * t) * (z - x), rel=1e-14)
    assert zdot == pytest.approx(
        -(C - 3) / (3 * t) * (z - x) - 3 * t / (2 * C) * f.gradient(x), rel=1e-13
    )

    # 3/t damping: the (z - x) coefficient vanishes, zdot = -(t/2) grad f(x)
    s = ag.Hyperbolic(0.0).sample(t)
    xdot, zdot = ag.rhs_l2(f, s, FlowState(t, x, z))
    assert xdot == pytest.approx(2.0 / t * (z - x), rel=1e-14)
    assert zdot == pytest.approx(-0.5 * t * f.gradient(x), rel=1e-13, abs=1e-15)


def test_rhs_l2_requires_standard_eta():
    import dataclasses

    spec = scalar_quadratic()
    s = ag.ConstantDamping(2.0, 1.0).sample(0.0)
    bad = dataclasses.replace(s, eta=s.eta + 0.5)
    with pytest.raises(PreconditionError):
        ag.rhs_l2(spec.objective, bad, FlowState(0.0, np.zeros(1), np.zeros(1)))


def test_integrate_constant_damping_rate_bound():
    spec = scalar_quadratic()
    fam = ag.ConstantDamping(2.0, 1.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=20.0, step=1e-3, record_stride=10)
    traj = ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))
    V0 = traj.records[0].V
    assert V0 == pytest.approx(1.0, rel=1e-14)
    assert traj.records[-1].f_gap <= np.exp(-20.0) * V0 * (1.0 + 1e-3)
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
        hessian_apply=base.hessian_apply,
        strong_convexity=1.0,
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


def test_divergence_detected():
    spec = ag.quadratic(np.array([[400.0]]), np.zeros(1))
    fam = ag.ConstantDamping(2.0, 20.0)
    cfg = ag.IntegratorConfig(t0=0.0, t_end=200.0, step=1.0, record_stride=1)
    with pytest.warns(RuntimeWarning), pytest.raises(DivergenceError):
        ag.integrate(spec.generator, spec.objective, fam, cfg, np.array([1.0]))


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
        hessian_apply=base.hessian_apply,
        strong_convexity=1.0,
        symmetric=True,
        domain_guard=base.domain_guard,
        name="singular",
    )
    spec = scalar_quadratic()
    s = ag.ConstantDamping(2.0, 1.0).sample(0.0)
    with pytest.raises(NumericalError):
        ag.rhs_general(broken, spec.objective, s, FlowState(0.0, np.ones(1), np.zeros(1)))


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
    with pytest.raises(ConfigurationError):
        ag.IntegratorConfig(t0=0.0, t_end=1.0, method="euler")


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
        V = np.array([r.V for r in fast.records])
        V_ref = np.array([r.V for r in ref.records])
        assert np.max(np.abs(V - V_ref)) <= 1e-11 * max(1.0, V_ref[0]), entry["label"]
        ref_fitted = ag.fit_rate(ref, entry["model"], entry["window"])
        assert verdicts(fast, entry, fitted) == verdicts(ref, entry, ref_fitted), entry["label"]


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
    assert not ag.diagonal_quadratic([1.0, 4.0]).identity_hessian
    assert not ag.negative_entropy(2).identity_hessian
    with pytest.raises(TypeError):
        dataclasses.replace(ag.diagonal_quadratic([1.0, 4.0]), identity_hessian=True)


def test_non_identity_generator_paths_agree():
    # a generator that claimed an identity Hessian beside hess h = diag(1, 4)
    # once ran a different flow on the stepping loop than on the maps
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.zeros(2))
    h = ag.diagonal_quadratic([1.0, 4.0])
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


def _old_csv(traj) -> str:
    """The per-sample f-string CSV writer the row-template writer replaced."""
    n = traj.states_x.shape[1]
    cols = (
        ["t"] + [f"x{i}" for i in range(n)] + [f"z{i}" for i in range(n)]
        + ["V", "f_gap", "breg_xstar_z", "breg_xstar_x", "breg_z_x"]
        + [f"slack{i}" for i in range(1, 5)]
    )
    lines = [",".join(cols)]
    for k, r in enumerate(traj.records):
        vals = (
            [traj.times[k]] + list(traj.states_x[k]) + list(traj.states_z[k])
            + [r.V, r.f_gap, r.breg_xstar_z, r.breg_xstar_x, r.breg_z_x]
            + [r.slack1, r.slack2, r.slack3, r.slack4]
        )
        lines.append(",".join(f"{v:.17g}" for v in vals))
    return "\n".join(lines) + "\n"


def test_writers_match_json_dumps_and_old_csv(tmp_path):
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

    traj.write_json(tmp_path / "t.json")
    expect = json.dumps(traj.to_dict(), indent=2, sort_keys=True) + "\n"
    assert "NaN" in expect and "-Infinity" in expect
    assert (tmp_path / "t.json").read_bytes() == expect.encode()
    traj.write_csv(tmp_path / "t.csv")
    assert (tmp_path / "t.csv").read_bytes() == _old_csv(traj).encode()


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
