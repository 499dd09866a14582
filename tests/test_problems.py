import numpy as np
import pytest

import agflow as ag
from agflow.errors import ConfigurationError
from agflow.problems import l1_subgradient_gap, soft_threshold


def shipped_specs():
    return [
        ag.quadratic(np.eye(2), np.zeros(2)),
        ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0])),
        ag.quadratic(np.diag([1e-2, 1.0]), np.zeros(2)),
        ag.flat_quadratic(np.array([[1.0, 0.0]]), np.zeros(1)),
        ag.flat_quadratic(np.array([[1.0, 1.0]]), np.array([2.0])),
        ag.l1_denoise(np.array([2.0, 0.1]), 1.0),
    ]


def test_identity_quadratic():
    spec = ag.quadratic(np.eye(2), np.zeros(2))
    assert spec.objective.sigma == 1.0
    assert np.array_equal(spec.objective.minimizer, np.zeros(2))


@pytest.mark.parametrize(
    "Q, b, word",
    [
        (np.diag([2.0, 1.0]), [np.inf, 1.0], "b must be finite"),
        (np.diag([2.0, 1.0]), [np.nan, 1.0], "b must be finite"),
        (np.diag([np.nan, 1.0]), [1.0, 1.0], "Q must be finite"),
        (np.array([[2.0, -np.inf], [-np.inf, 1.0]]), [1.0, 1.0], "Q must be finite"),
        (np.diag([2.0, 1.0]), [1.0, 1.0, 1.0], "b must be a vector"),
        (np.diag([2.0, -1.0]), [1.0, 1.0], "positive definite"),
    ],
)
def test_quadratic_names_the_argument_that_is_wrong(Q, b, word):
    with pytest.raises(ConfigurationError, match=word):
        ag.quadratic(Q, b)


def test_quadratic_minimizer_of_a_dense_matrix():
    Q = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
    b = np.array([1.0, -2.0, 0.5])
    spec = ag.quadratic(Q, b)
    assert np.max(np.abs(Q @ spec.objective.minimizer - b)) <= 1e-14
    assert spec.objective.sigma == pytest.approx(np.linalg.eigvalsh(Q)[0], rel=1e-14)


def test_diagonal_quadratic_minimizer():
    spec = ag.quadratic(np.diag([1.0, 4.0]), np.array([1.0, 4.0]))
    assert spec.objective.minimizer == pytest.approx(np.array([1.0, 1.0]))
    assert spec.objective.sigma == 1.0


def test_ill_conditioned_sigma():
    spec = ag.quadratic(np.diag([1e-2, 1.0]), np.zeros(2))
    assert spec.objective.sigma == pytest.approx(1e-2)


def test_quadratic_rejects_indefinite():
    with pytest.raises(ConfigurationError):
        ag.quadratic(np.diag([1.0, -1.0]), np.zeros(2))
    with pytest.raises(ConfigurationError):
        ag.quadratic(np.array([[1.0, 2.0], [0.0, 1.0]]), np.zeros(2))


def test_flat_quadratic_trivial_kernel_direction():
    spec = ag.flat_quadratic(np.array([[1.0, 0.0]]), np.zeros(1))
    assert spec.objective.sigma == 0.0
    assert spec.objective.optimal_value == 0.0
    assert np.array_equal(spec.objective.minimizer, np.zeros(2))


def test_flat_quadratic_min_norm_solution():
    spec = ag.flat_quadratic(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert spec.objective.minimizer == pytest.approx(np.array([1.0, 1.0]))
    assert spec.objective.value(spec.objective.minimizer) == pytest.approx(0.0, abs=1e-14)


def test_flat_quadratic_rejects_rank_deficient():
    with pytest.raises(ConfigurationError):
        ag.flat_quadratic(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0]]), np.zeros(2))
    with pytest.raises(ConfigurationError):
        ag.flat_quadratic(np.eye(2), np.zeros(2))  # not wide


def test_l1_denoise_soft_threshold():
    spec = ag.l1_denoise(np.array([2.0, 0.1]), 1.0)
    assert np.array_equal(spec.objective.minimizer, np.array([1.0, 0.0]))
    zero = ag.l1_denoise(np.zeros(2), 1.0)
    assert np.array_equal(zero.objective.minimizer, np.zeros(2))
    assert zero.objective.optimal_value == 0.0
    y = np.array([2.0, -0.7])
    assert soft_threshold(y, 1e-12) == pytest.approx(y, abs=1e-11)


def test_l1_denoise_rejects_bad_weight():
    with pytest.raises(ConfigurationError):
        ag.l1_denoise(np.array([1.0]), 0.0)


def test_uniform_convexity_of_all_shipped_problems():
    for spec in shipped_specs():
        rep = ag.check_uniform_convexity(
            spec.objective, spec.generator, num_samples=1000, seed=0
        )
        assert rep.passed, spec.objective.name


def test_optimality_certificates():
    for spec in shipped_specs():
        obj = spec.objective
        if obj.smooth:
            assert np.linalg.norm(obj.gradient(obj.minimizer)) <= 1e-8, spec.objective.name
        assert obj.value(obj.minimizer) == pytest.approx(obj.optimal_value, abs=1e-12)
    assert l1_subgradient_gap(np.array([2.0, 0.1]), 1.0, np.array([1.0, 0.0])) == 0.0


def test_objective_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    step = 1e-5
    for spec in shipped_specs():
        obj = spec.objective
        for _ in range(20):
            x = rng.uniform(-2, 2, obj.dim)
            if not obj.smooth:
                # keep clear of kinks so the subgradient selection is the gradient
                x = np.where(np.abs(x) < 0.05, 0.5, x)
            g = obj.gradient(x)
            for i in range(obj.dim):
                e = np.zeros(obj.dim)
                e[i] = step
                fd = (obj.value(x + e) - obj.value(x - e)) / (2 * step)
                assert fd == pytest.approx(g[i], rel=1e-6, abs=1e-8), spec.objective.name


def test_quadratic_row_values_do_not_depend_on_the_batch():
    # a BLAS product x @ Q.T would give some rows other last bits in a batch
    rng = np.random.default_rng(4)
    n = 64
    lam = np.exp(rng.uniform(0.0, np.log(100.0), n))
    A = rng.standard_normal((n, n))
    X = rng.uniform(-2.0, 2.0, (1024, n))
    for Q in (np.diag(lam), A @ A.T + n * np.eye(n)):
        spec = ag.quadratic(Q, Q @ rng.uniform(-1.0, 1.0, n))
        h = ag.from_quadratic_matrix(Q)
        for fn in (spec.objective.value, h.value, h.gradient):
            rows = np.array([fn(x) for x in X])
            assert np.array_equal(fn(X), rows)
