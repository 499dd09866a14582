"""Convex-analysis substrate: distance generators, objectives, Bregman divergences.

A distance generator is a strongly convex function h whose induced divergence

    D_h(y, x) = h(y) - h(x) - grad h(x)^T (y - x) >= 0

is the metric-like quantity everything downstream (flows, Lyapunov values,
condition checks) is phrased in.  Generators expose Hessian access as
solve/apply pairs because the flow only ever needs the inverse Hessian
applied to a vector, never the matrix itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError

Vector = np.ndarray


@dataclass(frozen=True)
class DistanceGenerator:
    """A convex function h with gradient and Hessian access.

    ``hessian_solve(point, rhs)`` returns w with hess_h(point) @ w = rhs;
    ``hessian_apply(point, dir)`` returns hess_h(point) @ dir.
    ``strong_convexity`` is a modulus c > 0 with hess_h >= c * I on the
    working domain, and ``symmetric`` records whether D_h(x,y) = D_h(y,x)
    for all pairs.  ``sample_point`` draws in-domain points for the sampled
    checks; the default is the box [-2, 2]^n.  ``hessian`` is the constant
    Hessian H of a quadratic h, or None; with it the integrator may run the
    flow as composed linear step maps.
    """

    dim: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    hessian_solve: Callable[[Vector, Vector], Vector]
    hessian_apply: Callable[[Vector, Vector], Vector]
    strong_convexity: float
    symmetric: bool
    domain_guard: Callable[[Vector], bool]
    name: str = "h"
    sample_point: Optional[Callable[[np.random.Generator], Vector]] = None
    sample_region: str = "box [-2, 2]^n"
    hessian: Optional[np.ndarray] = None

    @property
    def identity_hessian(self) -> bool:
        """True iff the declared ``hessian`` is the identity; the stepping
        loop then skips the solve and takes grad h(z) - grad h(x) = z - x."""
        return self.hessian is not None and np.array_equal(self.hessian, np.eye(self.dim))

    def draw(self, rng: np.random.Generator) -> Vector:
        if self.sample_point is not None:
            return self.sample_point(rng)
        return rng.uniform(-2.0, 2.0, size=self.dim)


@dataclass(frozen=True)
class Objective:
    """The function f being minimized, with its convexity metadata.

    ``sigma`` is the uniform-convexity constant of f relative to a designated
    generator h: D_f(y, x) >= sigma * D_h(y, x).  ``smooth`` is False for
    objectives whose ``gradient`` is a subgradient selection (valid away from
    kinks); those are only driven through the smoothing pipeline.
    ``hessian`` is the constant Hessian G of a quadratic f (gradient
    G x - r), or None.
    """

    dim: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    sigma: float
    minimizer: Optional[Vector] = None
    optimal_value: Optional[float] = None
    smooth: bool = True
    name: str = "f"
    hessian: Optional[np.ndarray] = None


@dataclass(frozen=True)
class ConvexityReport:
    passed: bool
    min_slack: float
    sigma: float
    num_samples: int
    seed: int
    region: str
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "min_slack": float(self.min_slack),
            "sigma": float(self.sigma),
            "num_samples": int(self.num_samples),
            "seed": int(self.seed),
            "region": self.region,
            "tolerance": float(self.tolerance),
        }


@dataclass(frozen=True)
class SymmetryReport:
    passed: bool
    max_asymmetry: float
    max_scaled_asymmetry: float
    num_samples: int
    seed: int
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "max_asymmetry": float(self.max_asymmetry),
            "max_scaled_asymmetry": float(self.max_scaled_asymmetry),
            "num_samples": int(self.num_samples),
            "seed": int(self.seed),
            "tolerance": float(self.tolerance),
        }


def _require_in_domain(h: DistanceGenerator, point: Vector, label: str) -> None:
    if not h.domain_guard(point):
        raise DomainError(f"{label} = {np.asarray(point)} is outside the domain of {h.name}")


def row_values(name: str, values, shape) -> np.ndarray:
    """`values` as a float array, once it has `shape`: the batch shape of the
    rows it was computed from, () for a single point.  A callable that
    ignores the row axis, such as a sum with no axis, gives another shape,
    which is a ConfigurationError."""
    values = np.asarray(values, dtype=float)
    if values.shape != tuple(shape):
        raise ConfigurationError(
            f"{name} returned shape {values.shape} for rows of batch shape {tuple(shape)}; "
            "it must take row batches"
        )
    return values


def bregman_div(h: DistanceGenerator, y: Vector, x: Vector):
    """D_h(y, x) = h(y) - h(x) - grad h(x)^T (y - x).

    `y` and `x` are points or row batches of shape (..., n) that broadcast
    against each other; a batch gives one divergence per row, two points a
    Python float.  Nonnegative up to round-off; tiny negatives are reported
    as-is here and clamped only in human-readable summaries, never in
    Lyapunov arithmetic.
    """
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    _require_in_domain(h, x, "x")
    _require_in_domain(h, y, "y")
    label = f"{h.name}.value"
    d = (
        row_values(label, h.value(y), y.shape[:-1])
        - row_values(label, h.value(x), x.shape[:-1])
        - np.einsum("...i,...i->...", h.gradient(x), y - x)
    )
    return float(d) if d.ndim == 0 else d


def three_point_residual(h: DistanceGenerator, x1: Vector, x2: Vector, x3: Vector) -> float:
    """Absolute defect of the three-point decomposition of divergences.

    Evaluates |[grad h(x2) - grad h(x3)]^T (x1 - x2)
               - (-D_h(x1,x2) + D_h(x1,x3) - D_h(x2,x3))|,
    which is zero in exact arithmetic for any convex h.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    x3 = np.asarray(x3, dtype=float)
    for label, p in (("x1", x1), ("x2", x2), ("x3", x3)):
        _require_in_domain(h, p, label)
    lhs = float((h.gradient(x2) - h.gradient(x3)) @ (x1 - x2))
    rhs = -bregman_div(h, x1, x2) + bregman_div(h, x1, x3) - bregman_div(h, x2, x3)
    return abs(lhs - rhs)


def check_uniform_convexity(
    f: Objective,
    h: DistanceGenerator,
    num_samples: int,
    seed: int,
    tolerance: float = 1e-10,
) -> ConvexityReport:
    """Sampled check of D_f(y, x) >= sigma * D_h(y, x).

    Draws pairs from the generator's sampling region and reports the minimum
    slack D_f - sigma * D_h; the check passes iff it stays above -tolerance.
    This certifies the inequality on the sampled region only.
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    rng = np.random.default_rng(seed)
    min_slack = np.inf
    for _ in range(num_samples):
        x = h.draw(rng)
        y = h.draw(rng)
        if not (h.domain_guard(x) and h.domain_guard(y)):
            raise ConfigurationError(
                f"sampler for {h.name} produced out-of-domain points in region {h.sample_region}"
            )
        d_f = f.value(y) - f.value(x) - float(f.gradient(x) @ (y - x))
        slack = d_f - f.sigma * bregman_div(h, y, x)
        if slack < min_slack:
            min_slack = slack
    return ConvexityReport(
        passed=bool(min_slack >= -tolerance),
        min_slack=float(min_slack),
        sigma=f.sigma,
        num_samples=num_samples,
        seed=seed,
        region=h.sample_region,
        tolerance=tolerance,
    )


def check_symmetry(
    h: DistanceGenerator,
    num_samples: int,
    seed: int,
    tolerance: float = 1e-10,
) -> SymmetryReport:
    """Sampled check of D_h(x, y) = D_h(y, x), scaled by 1 + |D_h(x, y)|."""
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    rng = np.random.default_rng(seed)
    worst = 0.0
    worst_scaled = 0.0
    for _ in range(num_samples):
        x = h.draw(rng)
        y = h.draw(rng)
        d_xy = bregman_div(h, y, x)
        d_yx = bregman_div(h, x, y)
        gap = abs(d_xy - d_yx)
        worst = max(worst, gap)
        worst_scaled = max(worst_scaled, gap / (1.0 + abs(d_xy)))
    return SymmetryReport(
        passed=bool(worst_scaled <= tolerance),
        max_asymmetry=float(worst),
        max_scaled_asymmetry=float(worst_scaled),
        num_samples=num_samples,
        seed=seed,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# Shipped generators: `value`, `gradient` and `domain_guard` take row batches


def _dot(x: Vector, y: Vector):
    """Row-wise dot product over the last axis."""
    return np.einsum("...i,...i->...", x, y)


def squared_euclidean(dim: int) -> DistanceGenerator:
    """h(x) = (1/2) ||x||^2; the divergence is (1/2) ||y - x||^2."""
    return DistanceGenerator(
        dim=dim,
        value=lambda x: 0.5 * _dot(x, x),
        gradient=lambda x: np.asarray(x, dtype=float),
        hessian_solve=lambda point, rhs: np.asarray(rhs, dtype=float),
        hessian_apply=lambda point, d: np.asarray(d, dtype=float),
        strong_convexity=1.0,
        symmetric=True,
        domain_guard=lambda x: bool(np.all(np.isfinite(x))),
        name="squared_euclidean",
        hessian=np.eye(dim),
    )


def diagonal_quadratic(weights) -> DistanceGenerator:
    """h(x) = (1/2) x^T diag(w) x with all w_i > 0."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or np.any(w <= 0) or not np.all(np.isfinite(w)):
        raise ConfigurationError("diagonal weights must be finite and positive")
    return DistanceGenerator(
        dim=w.size,
        value=lambda x: 0.5 * _dot(x, w * x),
        gradient=lambda x: w * x,
        hessian_solve=lambda point, rhs: rhs / w,
        hessian_apply=lambda point, d: w * d,
        strong_convexity=float(np.min(w)),
        symmetric=True,
        domain_guard=lambda x: bool(np.all(np.isfinite(x))),
        name="diagonal_quadratic",
        hessian=np.diag(w),
    )


def _simplex_sampler(dim: int, margin: float) -> Callable[[np.random.Generator], Vector]:
    def draw(rng: np.random.Generator) -> Vector:
        p = rng.dirichlet(np.ones(dim))
        return (1.0 - dim * margin) * p + margin

    return draw


def negative_entropy(dim: int, margin: float = 1e-3) -> DistanceGenerator:
    """h(x) = sum_i x_i log x_i on the positive orthant.

    The induced divergence on probability vectors is the KL divergence.
    Sampled checks draw from the interior of the simplex with the given
    coordinate margin; on that region hess_h = diag(1/x) >= I.
    """
    if dim < 1 or not 0 < margin < 1.0 / dim:
        raise ConfigurationError("need dim >= 1 and 0 < margin < 1/dim")
    return DistanceGenerator(
        dim=dim,
        value=lambda x: np.sum(x * np.log(x), axis=-1),
        gradient=lambda x: 1.0 + np.log(x),
        hessian_solve=lambda point, rhs: rhs * point,
        hessian_apply=lambda point, d: d / point,
        strong_convexity=1.0,
        symmetric=False,
        domain_guard=lambda x: bool(np.all(x > 0) and np.all(np.isfinite(x))),
        name="negative_entropy",
        sample_point=_simplex_sampler(dim, margin),
        sample_region=f"interior simplex, margin {margin:g}",
    )


def from_quadratic_matrix(Q: np.ndarray) -> DistanceGenerator:
    """h(x) = (1/2) x^T Q x for a user SPD matrix; dense-factorization solves."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ConfigurationError("Q must be square")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ConfigurationError("Q must be symmetric")
    eigs = np.linalg.eigvalsh(Q)
    if eigs[0] <= 0:
        raise ConfigurationError(f"Q must be positive definite (min eigenvalue {eigs[0]:g})")
    return DistanceGenerator(
        dim=Q.shape[0],
        value=lambda x: 0.5 * _dot(x, x @ Q.T),
        gradient=lambda x: x @ Q.T,
        hessian_solve=lambda point, rhs: np.linalg.solve(Q, rhs),
        hessian_apply=lambda point, d: Q @ d,
        strong_convexity=float(eigs[0]),
        symmetric=True,
        domain_guard=lambda x: bool(np.all(np.isfinite(x))),
        name="quadratic_matrix",
        hessian=Q,
    )
