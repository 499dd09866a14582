import dataclasses

import numpy as np
import pytest

import agflow as ag
from agflow.bregman import DistanceGenerator, _uniforms
from agflow.errors import ConfigurationError, DomainError

# independent oracle for the entropy divergence on equal-sum positive vectors:
# sum_i y_i log(y_i / x_i), evaluated before the build
ENTROPY_DIV_HALF_QUARTER = 0.14384103622589035


def draws(h, count, seed):
    """`count` points of h's sampling region from the uniform stream of `seed`."""
    return h.sample_point(_uniforms(seed, 0, count * h.dim).reshape(count, h.dim))


def all_generators():
    return [
        ag.squared_euclidean(3),
        ag.diagonal_quadratic([1.0, 4.0, 0.25]),
        ag.negative_entropy(3),
        ag.from_quadratic_matrix(np.array([[2.0, 0.5], [0.5, 1.0]])),
    ]


def test_quadratic_unit_case():
    h = ag.squared_euclidean(2)
    assert ag.bregman_div(h, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.5, abs=0)


def test_identity_case_is_zero():
    for h in all_generators():
        x = np.full(h.dim, 0.3)
        assert ag.bregman_div(h, x, x) == 0.0


def test_entropy_divergence_matches_independent_formula():
    h = ag.negative_entropy(2)
    y = np.array([0.5, 0.5])
    x = np.array([0.25, 0.75])
    got = ag.bregman_div(h, y, x)
    oracle = float(np.sum(y * np.log(y / x)))
    assert got == pytest.approx(oracle, rel=1e-14)
    assert got == pytest.approx(ENTROPY_DIV_HALF_QUARTER, rel=1e-14)


def test_nonnegativity_on_random_pairs():
    for h in all_generators():
        for x, y in draws(h, 2000, 42).reshape(1000, 2, h.dim):
            assert ag.bregman_div(h, y, x) >= -1e-12


def test_l2_divergence_is_half_squared_distance():
    rng = np.random.default_rng(3)
    h = ag.squared_euclidean(4)
    for _ in range(200):
        x = rng.uniform(-2, 2, 4)
        y = rng.uniform(-2, 2, 4)
        exact = 0.5 * float(np.sum((y - x) ** 2))
        assert ag.bregman_div(h, y, x) == pytest.approx(exact, rel=1e-14)


def test_three_point_identity_trivial_and_random():
    h = ag.squared_euclidean(3)
    p = np.array([0.1, -0.4, 2.0])
    assert ag.three_point_residual(h, p, p, p) == 0.0
    rng = np.random.default_rng(11)
    for _ in range(500):
        x1, x2, x3 = (rng.uniform(-2, 2, 3) for _ in range(3))
        assert ag.three_point_residual(h, x1, x2, x3) <= 1e-12


def test_three_point_identity_entropy():
    h = ag.negative_entropy(3)
    for x1, x2, x3 in draws(h, 3000, 12).reshape(1000, 3, h.dim):
        assert ag.three_point_residual(h, x1, x2, x3) <= 1e-10


def test_hessian_solve_inverts_hessian():
    # against the declared Hessian, or where none is declared (negative
    # entropy) against a central difference of the gradient along the solve
    rng = np.random.default_rng(5)
    step = 1e-5
    for h in all_generators():
        for point in draws(h, 100, 5):
            rhs = rng.standard_normal(h.dim)
            w = h.hessian_solve(point, rhs)
            if h.hessian is not None:
                back, tol = h.hessian @ w, 1e-10
            else:
                back = (h.gradient(point + step * w) - h.gradient(point - step * w)) / (2 * step)
                tol = 1e-6
            assert np.linalg.norm(back - rhs) <= tol * (1.0 + np.linalg.norm(rhs))


def test_gradient_matches_finite_differences():
    step = 1e-5
    for h in all_generators():
        for x in draws(h, 25, 6):
            g = h.gradient(x)
            for i in range(h.dim):
                e = np.zeros(h.dim)
                e[i] = step
                fd = (h.value(x + e) - h.value(x - e)) / (2 * step)
                assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-8)


def _logsumexp_objective(dim):
    def value(x):
        m = np.max(x, axis=-1, keepdims=True)
        return (m + np.log(np.sum(np.exp(x - m), axis=-1, keepdims=True)))[..., 0]

    def gradient(x):
        e = np.exp(x - np.max(x, axis=-1, keepdims=True))
        return e / np.sum(e, axis=-1, keepdims=True)

    return ag.Objective(dim=dim, value=value, gradient=gradient, sigma=0.0, name="logsumexp")


def test_uniform_convexity_equality_case():
    h = ag.squared_euclidean(2)
    f = ag.Objective(
        dim=2,
        value=lambda x: 0.5 * np.sum(x * x, axis=-1),
        gradient=lambda x: x,
        sigma=1.0,
        minimizer=np.zeros(2),
        optimal_value=0.0,
    )
    rep = ag.check_uniform_convexity(f, h, num_samples=500, seed=0)
    assert rep.passed
    assert abs(rep.min_slack) <= 1e-12


def test_uniform_convexity_zero_sigma_convexity():
    rep = ag.check_uniform_convexity(
        _logsumexp_objective(3), ag.squared_euclidean(3), num_samples=500, seed=1
    )
    assert rep.passed


def test_uniform_convexity_overclaimed_sigma_fails():
    h = ag.squared_euclidean(2)
    f = ag.Objective(
        dim=2, value=lambda x: 0.5 * np.sum(x * x, axis=-1), gradient=lambda x: x, sigma=2.0
    )
    rep = ag.check_uniform_convexity(f, h, num_samples=500, seed=2)
    assert not rep.passed
    # D_f - 2*D_h = -(1/2)||y - x||^2 < 0 on the sampled box
    assert rep.min_slack < -0.1


def test_symmetry_quadratic_passes_entropy_fails():
    assert ag.check_symmetry(ag.squared_euclidean(3), 200, seed=0).passed
    assert ag.check_symmetry(ag.diagonal_quadratic([1.0, 2.0]), 200, seed=0).passed
    rep = ag.check_symmetry(ag.negative_entropy(2), 200, seed=0)
    assert not rep.passed
    assert rep.max_asymmetry > 1e-4


def test_symmetry_one_dimensional_identical_points():
    h = ag.squared_euclidean(1)
    x = np.array([0.7])
    assert abs(ag.bregman_div(h, x, x) - ag.bregman_div(h, x, x)) == 0.0


def test_domain_error_names_offending_point():
    h = ag.negative_entropy(2)
    bad = np.array([-0.5, 0.5])
    with pytest.raises(DomainError, match=r"-0\.5"):
        ag.bregman_div(h, bad, np.array([0.5, 0.5]))


def test_broken_sampler_is_configuration_error():
    f = _logsumexp_objective(2)
    for sample_point in (
        lambda u: np.tile([-1.0, 2.0], (len(u), 1)),  # out of the domain
        lambda u: np.array([0.5, 0.5]),  # one point for a whole row batch
    ):
        broken = dataclasses.replace(ag.negative_entropy(2), name="broken", sample_point=sample_point)
        with pytest.raises(ConfigurationError, match="broken"):
            ag.check_uniform_convexity(f, broken, num_samples=10, seed=0)
        with pytest.raises(ConfigurationError, match="broken"):
            ag.check_symmetry(broken, num_samples=10, seed=0)


@pytest.mark.parametrize("check", ["symmetry", "convexity"])
def test_sampled_checks_fail_on_nan(check):
    def nan(x):
        return np.full(np.shape(x)[:-1], np.nan)

    h = ag.squared_euclidean(2)
    if check == "symmetry":
        rep = ag.check_symmetry(dataclasses.replace(h, value=nan), 2500, seed=0)
        worst = rep.max_scaled_asymmetry
    else:
        f = dataclasses.replace(ag.quadratic(np.eye(2), np.zeros(2)).objective, value=nan)
        rep = ag.check_uniform_convexity(f, h, num_samples=2500, seed=0)
        worst = rep.min_slack
    assert rep.passed is False
    assert np.isnan(worst)


def test_convexity_check_rejects_objectives_without_row_batches():
    f = _logsumexp_objective(3)
    # a softmax over the whole batch has the right shape but wrong rows
    flat = dataclasses.replace(f, gradient=lambda x: np.exp(x) / np.sum(np.exp(x)))
    with pytest.raises(ConfigurationError, match="logsumexp.gradient"):
        ag.check_uniform_convexity(flat, ag.squared_euclidean(3), num_samples=10, seed=0)
    # a sum with no axis gives one value for the whole batch
    flat = dataclasses.replace(f, value=lambda x: float(np.log(np.sum(np.exp(x)))))
    with pytest.raises(ConfigurationError, match="logsumexp.value"):
        ag.check_uniform_convexity(flat, ag.squared_euclidean(3), num_samples=10, seed=0)


def test_entropy_sampler_is_uniform_on_the_simplex():
    h = ag.negative_entropy(3)
    x = draws(h, 20_000, 9)
    assert x.shape == (20_000, 3) and h.domain_guard(x)
    assert np.max(np.abs(np.sum(x, axis=-1) - 1.0)) <= 1e-12 and np.min(x) >= 1e-3
    p = (x - 1e-3) / (1.0 - 3e-3)
    # uniform on the simplex: each coordinate is Beta(1, 2), mean 1/3, P(p > 1/2) = 1/4
    assert np.max(np.abs(np.mean(p, axis=0) - 1.0 / 3.0)) <= 0.01
    assert np.max(np.abs(np.mean(p > 0.5, axis=0) - 0.25)) <= 0.01


def test_non_spd_matrix_rejected():
    with pytest.raises(ConfigurationError):
        ag.from_quadratic_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(ConfigurationError):
        ag.diagonal_quadratic([1.0, -1.0])


@pytest.mark.parametrize("h", all_generators(), ids=lambda h: h.name)
def test_generator_row_batches_match_one_point_calls(h):
    ys, xs = draws(h, 12, 3).reshape(2, 2, 3, h.dim)

    def close(batch, one_point):
        one_point = np.asarray(one_point, dtype=float)
        return np.max(np.abs(batch - one_point)) <= 1e-12 * max(1e-300, np.max(np.abs(one_point)))

    value = h.value(xs)
    assert np.shape(value) == (2, 3)
    assert close(value, [[h.value(x) for x in row] for row in xs])
    grad = h.gradient(xs)
    assert np.shape(grad) == (2, 3, h.dim)
    assert close(grad, [[h.gradient(x) for x in row] for row in xs])
    assert h.domain_guard(xs) is True
    div = ag.bregman_div(h, ys, xs)
    assert div.shape == (2, 3)
    one = [[ag.bregman_div(h, y, x) for y, x in zip(yr, xr)] for yr, xr in zip(ys, xs)]
    assert all(isinstance(v, float) for row in one for v in row)
    assert close(div, one)
    # a single point broadcasts against a batch
    y = ys[0, 0]
    assert close(ag.bregman_div(h, y, xs), [[ag.bregman_div(h, y, x) for x in r] for r in xs])


def test_generator_without_row_batches_is_configuration_error():
    base = ag.squared_euclidean(2)
    flat = DistanceGenerator(
        dim=2,
        value=lambda x: 0.5 * np.sum(x * x),  # no axis: one value for a batch
        gradient=base.gradient,
        hessian_solve=base.hessian_solve,
        symmetric=True,
        domain_guard=base.domain_guard,
        name="flat",
    )
    assert ag.bregman_div(flat, np.ones(2), np.zeros(2)) == 1.0
    with pytest.raises(ConfigurationError, match="flat.value"):
        ag.bregman_div(flat, np.ones(2), np.zeros((3, 2)))
