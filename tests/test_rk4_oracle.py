"""Both integration paths against a textbook RK4.

The oracle steps (x, z) with the classical four-stage formula, and each
case builds the flow's textbook right-hand side (`oracles.flow_rhs`) from the
schedule's sampled coefficients and closed-form gradients and Hessian solves
written out here; nothing of the
integrator's own stage arithmetic is reused.  The stepping loop computes the
same RK4 steps from precomputed stage coefficients, and the composed maps
push basis states through those coefficients at up to three eigenvalues and
interpolate every mode's map from them, so each agrees with the oracle to
round-off.
"""

import dataclasses

import numpy as np
import pytest

import agflow as ag
from oracles import flow_rhs

STEP = 1e-2


def textbook_rk4(rhs, t0, n_steps, stride, x, z):
    """Classical RK4 on y = (x, z) from t0 with step STEP; returns the states
    after every `stride`-th step and after the last one, starting with (x, z)."""
    xs, zs = [x], [z]
    for k in range(n_steps):
        t = t0 + k * STEP
        kx1, kz1 = rhs(t, x, z)
        kx2, kz2 = rhs(t + 0.5 * STEP, x + 0.5 * STEP * kx1, z + 0.5 * STEP * kz1)
        kx3, kz3 = rhs(t + 0.5 * STEP, x + 0.5 * STEP * kx2, z + 0.5 * STEP * kz2)
        kx4, kz4 = rhs(t + STEP, x + STEP * kx3, z + STEP * kz3)
        x = x + STEP / 6.0 * (kx1 + 2.0 * kx2 + 2.0 * kx3 + kx4)
        z = z + STEP / 6.0 * (kz1 + 2.0 * kz2 + 2.0 * kz3 + kz4)
        if (k + 1) % stride == 0 or k + 1 == n_steps:
            xs.append(x)
            zs.append(z)
    return np.array(xs), np.array(zs)


def euclidean(z, g):
    return g


def quadratic_without_hessian(q, b):
    """A quadratic objective that declares no Hessian, so it runs the loop."""
    spec = ag.quadratic(np.diag(q), np.asarray(b))
    return dataclasses.replace(spec.objective, hessian=None)


def smoothed_l1_case():
    y, w, eps = np.array([2.0, 0.1]), 1.0, 0.5
    approx, spec = ag.l1_denoise_approximation(y, w)
    family = ag.Hyperbolic(0.0)
    mu_sched = ag.rate_preserving_mu(family, eps, "exponential")
    cfg = ag.IntegratorConfig(t0=1.0, t_end=2.0, step=STEP, record_stride=10)
    x0 = np.zeros(2)
    traj = ag.smoothed_flow(spec.generator, approx, family, mu_sched, cfg, x0)

    def grad(t, x):
        # 3/t damping has nu_dot e^nu = 2 t, so mu(t) = e^(-eps t) / (2 t)
        mu = np.exp(-eps * t) / (2.0 * t)
        huber = np.where(np.abs(x) <= mu, x / mu, np.sign(x))
        return (x - y) + w * huber

    rhs = flow_rhs(family, grad, lambda p: p, euclidean)
    return traj, rhs, x0, np.zeros(2)


def integrate_case(h, f, family, horizon, x0, v0, *, grad_h, hessian_solve, grad_f):
    cfg = ag.IntegratorConfig(t0=horizon[0], t_end=horizon[1], step=STEP, record_stride=10)
    traj = ag.integrate(h, f, family, cfg, x0, v0)
    return traj, flow_rhs(family, grad_f, grad_h, hessian_solve), x0, v0


def identity_quadratic_case():
    q, b = np.array([1.0, 4.0]), np.array([1.0, -2.0])
    return integrate_case(
        ag.squared_euclidean(2), quadratic_without_hessian(q, b), ag.ConstantDamping(2.0, 1.0),
        (0.0, 2.0), np.array([1.0, 1.0]), np.array([0.5, -1.0]),
        grad_h=lambda p: p, hessian_solve=euclidean, grad_f=lambda t, x: q * x - b,
    )


def diagonal_generator_case():
    d, q, b = np.array([1.0, 4.0]), np.array([2.0, 1.0]), np.array([0.5, 0.5])
    return integrate_case(
        ag.quadratic_generator(np.diag(d)), quadratic_without_hessian(q, b), ag.Hyperbolic(1.0),
        (0.5, 2.5), np.array([1.0, -1.0]), np.array([-0.5, 0.25]),
        grad_h=lambda p: d * p, hessian_solve=lambda z, g: g / d, grad_f=lambda t, x: q * x - b,
    )


def entropy_generator_case():
    q, b = np.array([1.0, 2.0]), np.array([0.2, 0.1])
    return integrate_case(
        ag.negative_entropy(2), quadratic_without_hessian(q, b), ag.PolynomialDamping(3.0),
        (1.0, 3.0), np.array([0.3, 0.4]), np.array([0.05, -0.05]),
        # grad h = 1 + log p and hess h = diag(1 / p), so the solve multiplies by z
        grad_h=lambda p: 1.0 + np.log(p), hessian_solve=lambda z, g: g * z,
        grad_f=lambda t, x: q * x - b,
    )


def positive_pi_case():
    family = ag.PolynomialDamping(1.5)
    assert family.sample(1.0).exp_pi > 0
    a = np.array([[1.0, 1.0]])
    spec = ag.flat_quadratic(a, np.array([2.0]))
    f = dataclasses.replace(spec.objective, hessian=None)
    return integrate_case(
        spec.generator, f, family, (1.0, 3.0), np.array([2.0, 1.0]), np.zeros(2),
        grad_h=lambda p: p, hessian_solve=euclidean, grad_f=lambda t, x: a.T @ (a @ x - 2.0),
    )


def dense_generator_case():
    H = np.array([[1.5, 0.2], [0.2, 0.8]])
    Q, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -0.5])
    return integrate_case(
        ag.quadratic_generator(H), ag.quadratic(Q, b).objective, ag.Hyperbolic(1.0),
        (0.5, 2.5), np.array([1.0, -1.0]), np.array([-0.5, 0.25]),
        grad_h=lambda p: H @ p, hessian_solve=lambda z, g: np.linalg.solve(H, g),
        grad_f=lambda t, x: Q @ x - b,
    )


def dense_generator_loop_case():
    # no declared objective Hessian: the loop steps the dense Hessian solve
    H = np.array([[1.5, 0.2], [0.2, 0.8]])
    Q, b = np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([1.0, -0.5])
    return integrate_case(
        ag.quadratic_generator(H), dataclasses.replace(ag.quadratic(Q, b).objective, hessian=None),
        ag.PolynomialDamping(3.0), (1.0, 3.0), np.array([1.0, -1.0]), np.array([-0.5, 0.25]),
        grad_h=lambda p: H @ p, hessian_solve=lambda z, g: np.linalg.solve(H, g),
        grad_f=lambda t, x: Q @ x - b,
    )


def flat_quadratic_case():
    a = np.array([[1.0, 1.0]])
    spec = ag.flat_quadratic(a, np.array([2.0]))
    assert spec.objective.hessian is not None
    return integrate_case(
        spec.generator, spec.objective, ag.PolynomialDamping(1.5), (1.0, 3.0),
        np.array([2.0, 1.0]), np.array([0.5, 0.0]),
        grad_h=lambda p: p, hessian_solve=euclidean, grad_f=lambda t, x: a.T @ (a @ x - 2.0),
    )


def six_mode_case():
    # six distinct eigenvalues: the step maps come from three nodes
    q, b = np.array([1.0, 2.5, 4.0, 7.0, 10.0, 16.0]), np.array([1.0, -2.0, 0.5, 3.0, -1.0, 2.0])
    spec = ag.quadratic(np.diag(q), b)
    return integrate_case(
        spec.generator, spec.objective, ag.Hyperbolic(1.0), (0.5, 2.5), np.ones(6),
        np.linspace(-1.0, 1.0, 6), grad_h=lambda p: p, hessian_solve=euclidean,
        grad_f=lambda t, x: q * x - b,
    )


# case -> (the integration path it must take, its builder)
CASES = {
    "smoothed_l1": ("stepping_loop", smoothed_l1_case),
    "identity_quadratic": ("stepping_loop", identity_quadratic_case),
    "diagonal_generator": ("stepping_loop", diagonal_generator_case),
    "entropy_generator": ("stepping_loop", entropy_generator_case),
    "positive_pi": ("stepping_loop", positive_pi_case),
    "dense_generator_loop": ("stepping_loop", dense_generator_loop_case),
    "dense_generator": ("composed_maps", dense_generator_case),
    "flat_quadratic": ("composed_maps", flat_quadratic_case),
    "six_modes": ("composed_maps", six_mode_case),
}


def on_path(path):
    return sorted(name for name, (p, _) in CASES.items() if p == path)


def check_against_textbook_rk4(case):
    path, build = CASES[case]
    traj, rhs, x0, v0 = build()
    meta = traj.metadata["integrator"]
    assert meta["path"] == path
    evals = 4 * meta["steps"] if path == "stepping_loop" else 3  # the maps' Hessian check
    assert meta["gradient_evaluations"] == evals
    z0 = x0 + np.exp(-traj.family.sample(meta["t0"]).alpha) * v0
    xs, zs = textbook_rk4(rhs, meta["t0"], meta["steps"], meta["record_stride"], x0, z0)
    assert xs.shape == traj.states_x.shape
    scale = max(np.max(np.abs(xs)), np.max(np.abs(zs)))
    assert np.max(np.abs(traj.states_x - xs)) <= 1e-12 * scale
    assert np.max(np.abs(traj.states_z - zs)) <= 1e-12 * scale
    # the flow moved: the comparison is not one of two resting states
    assert np.max(np.abs(xs[-1] - xs[0])) > 1e-3 * scale


@pytest.mark.parametrize("case", on_path("stepping_loop"))
def test_stepping_loop_matches_textbook_rk4(case):
    check_against_textbook_rk4(case)


@pytest.mark.parametrize("case", on_path("composed_maps"))
def test_composed_maps_match_textbook_rk4(case):
    check_against_textbook_rk4(case)
