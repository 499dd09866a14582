"""Convex-analysis substrate: distance generators, objectives, Bregman divergences.

A distance generator is a strongly convex function h whose induced divergence

    D_h(y, x) = h(y) - h(x) - grad h(x)^T (y - x) >= 0

is the metric-like quantity everything downstream (flows, Lyapunov values,
condition checks) is phrased in.  Generators expose Hessian access as a
solve, because the stepping loop only ever needs the inverse Hessian applied
to a vector.  Every quadratic h(x) = (1/2) x^T Q x comes from one constructor,
`quadratic_generator`, and declares its constant Hessian Q.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigurationError, DomainError

Vector = np.ndarray


def _box(u: np.ndarray) -> np.ndarray:
    """Uniforms in [0, 1) scaled to the box [-2, 2): the default `sample_point`."""
    return -2.0 + 4.0 * u


@dataclass(frozen=True)
class DistanceGenerator:
    """A convex function h with gradient and Hessian access.

    ``hessian_solve(point, rhs)`` returns w with hess_h(point) @ w = rhs,
    and ``symmetric`` records whether D_h(x,y) = D_h(y,x) for all pairs.
    ``sample_point`` maps a row batch of uniforms in [0, 1), shape (m, n),
    to m in-domain points, shape (m, n), for the sampled checks; the default
    scales them to the box [-2, 2]^n.  ``hessian`` is the constant Hessian H
    of a quadratic h, or None; with it the integrator may run the flow as
    composed linear step maps.  As with `Objective.gradient`, a point handed
    to ``gradient`` is valid only during the call.
    """

    dim: int
    value: Callable[[Vector], float]
    gradient: Callable[[Vector], Vector]
    hessian_solve: Callable[[Vector, Vector], Vector]
    symmetric: bool
    domain_guard: Callable[[Vector], bool]
    name: str = "h"
    sample_point: Callable[[np.ndarray], np.ndarray] = _box
    sample_region: str = "box [-2, 2]^n"
    hessian: Optional[np.ndarray] = None

    @property
    def identity_hessian(self) -> bool:
        """True iff the declared ``hessian`` is the identity; the stepping
        loop then skips the solve and takes grad h(z) - grad h(x) = z - x."""
        return self.hessian is not None and np.array_equal(self.hessian, np.eye(self.dim))


@dataclass(frozen=True)
class Objective:
    """The function f being minimized, with its convexity metadata.

    ``sigma`` is the uniform-convexity constant of f relative to a designated
    generator h: D_f(y, x) >= sigma * D_h(y, x).  ``smooth`` is False for
    objectives whose ``gradient`` is a subgradient selection (valid away from
    kinks); those are only driven through the smoothing pipeline.
    ``hessian`` is the constant Hessian G of a quadratic f (gradient
    G x - r), or None.  The array handed to ``gradient`` is valid only
    during the call: the integrator reuses its buffer for later points, so a
    gradient that keeps its argument must keep a copy.
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

    to_dict = asdict


@dataclass(frozen=True)
class SymmetryReport:
    passed: bool
    max_asymmetry: float
    max_scaled_asymmetry: float
    num_samples: int
    seed: int
    tolerance: float

    to_dict = asdict


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


def _divergence(name: str, value, grad_at_x, y: Vector, x: Vector):
    """value(y) - value(x) - grad_at_x^T (y - x) per row: the one formula of
    D_h (`bregman_div`) and of D_f (`check_uniform_convexity`)."""
    label = f"{name}.value"
    return (
        row_values(label, value(y), y.shape[:-1])
        - row_values(label, value(x), x.shape[:-1])
        - _dot(grad_at_x, y - x)
    )


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
    d = _divergence(h.name, h.value, h.gradient(x), y, x)
    return float(d) if d.ndim == 0 else d


# The tolerance of `check_uniform_convexity` and `check_symmetry`, and the
# samples per row batch of every sampled check (also `certify_smooth_approx`).
SAMPLED_TOLERANCE = 1e-10
_CHECK_CHUNK = 1024


def check_seed(seed, where: str = "seed") -> int:
    """`seed` as an int, once it is an integer in [0, 2^64), the seeds of `_uniforms`."""
    if not (0 <= seed < 2**64 and seed == int(seed)):
        raise ConfigurationError(f"{where} must be an integer in [0, 2^64), got {seed}")
    return int(seed)


def _uniforms(seed: int, start: int, count: int) -> np.ndarray:
    """Draws start, ..., start + count - 1 of the SplitMix64 stream of `seed`
    (Steele, Lea & Flood, OOPSLA 2014) as floats in [0, 1): draw k mixes
    seed + (k + 1) * 0x9E3779B97F4A7C15 mod 2^64; its top 53 bits times 2^-53."""
    z = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    z *= 0x9E3779B97F4A7C15
    z += check_seed(seed)
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= factor
    z ^= z >> 31
    return (z >> 11) * 2.0**-53


def _row_batches(num_samples: int, seed: int, width: int):
    """The uniforms of samples 0, ..., num_samples - 1, `width` each, in
    (m, width) row batches of at most `_CHECK_CHUNK` samples: sample i is
    draws i * width onwards of the stream of `seed` (`_uniforms`), whatever
    the batch size."""
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    for start in range(0, num_samples, _CHECK_CHUNK):
        m = min(_CHECK_CHUNK, num_samples - start)
        yield _uniforms(seed, start * width, m * width).reshape(m, width)


def _row_batch(name: str, batch, shape, one_point) -> np.ndarray:
    """`batch` as an array, once it has `shape` and its row 0 agrees with
    `one_point`, the same callable evaluated at row 0 alone."""
    batch = row_values(name, batch, shape)
    if np.shape(one_point) != shape[1:] or not np.allclose(
        batch[0], one_point, rtol=1e-9, atol=1e-9, equal_nan=True
    ):
        raise ConfigurationError(
            f"{name} on a row batch disagrees with its one-point value; it must take row batches"
        )
    return batch


def _sampled_pairs(h: DistanceGenerator, num_samples: int, seed: int):
    """Row batches of point pairs (x, y) from `h.sample_point`: sample i maps
    its first n uniforms to x and the next n to y.  A point of the wrong
    shape or outside h's domain is a ConfigurationError."""
    for u in _row_batches(num_samples, seed, 2 * h.dim):
        u = u.reshape(-1, h.dim)
        xy = row_values(f"{h.name}.sample_point", h.sample_point(u), u.shape)
        if not h.domain_guard(xy):
            raise ConfigurationError(
                f"sampler for {h.name} produced out-of-domain points in region {h.sample_region}"
            )
        yield xy[0::2], xy[1::2]


def check_uniform_convexity(
    f: Objective, h: DistanceGenerator, num_samples: int, seed: int
) -> ConvexityReport:
    """Sampled check of D_f(y, x) >= sigma * D_h(y, x), which it certifies on
    the generator's sampling region only (`_sampled_pairs`): it passes iff
    the minimum slack D_f - sigma * D_h stays above -SAMPLED_TOLERANCE, so a
    NaN fails it.  f's `value` and `gradient` must take row batches; a
    gradient whose row 0 differs from a one-point call is a ConfigurationError."""
    min_slack = np.inf  # np.minimum keeps a NaN, Python's min drops it
    for x, y in _sampled_pairs(h, num_samples, seed):
        gx = _row_batch(f"{f.name}.gradient", f.gradient(x), x.shape, f.gradient(x[0]))
        slack = _divergence(f.name, f.value, gx, y, x) - f.sigma * bregman_div(h, y, x)
        min_slack = np.minimum(min_slack, np.min(slack))
    return ConvexityReport(
        passed=bool(min_slack >= -SAMPLED_TOLERANCE),
        min_slack=float(min_slack),
        sigma=float(f.sigma),
        num_samples=int(num_samples),
        seed=int(seed),
        region=h.sample_region,
        tolerance=SAMPLED_TOLERANCE,
    )


def check_symmetry(h: DistanceGenerator, num_samples: int, seed: int) -> SymmetryReport:
    """Sampled check of D_h(x, y) = D_h(y, x), scaled by 1 + |D_h(x, y)|, to
    SAMPLED_TOLERANCE, on pairs from `_sampled_pairs`; a NaN fails it."""
    worst = np.zeros(2)  # the gap and the scaled gap; np.maximum keeps a NaN
    for x, y in _sampled_pairs(h, num_samples, seed):
        d_xy = bregman_div(h, y, x)
        gap = np.abs(d_xy - bregman_div(h, x, y))
        np.maximum(worst, (np.max(gap), np.max(gap / (1.0 + np.abs(d_xy)))), out=worst)
    max_gap, max_scaled = worst.tolist()
    return SymmetryReport(
        passed=bool(max_scaled <= SAMPLED_TOLERANCE),
        max_asymmetry=max_gap,
        max_scaled_asymmetry=max_scaled,
        num_samples=int(num_samples),
        seed=int(seed),
        tolerance=SAMPLED_TOLERANCE,
    )


# ---------------------------------------------------------------------------
# Shipped generators: `value`, `gradient` and `domain_guard` take row batches


def _dot(x: Vector, y: Vector):
    """Row-wise dot product over the last axis."""
    return np.einsum("...i,...i->...", x, y)


def negative_entropy(dim: int) -> DistanceGenerator:
    """h(x) = sum_i x_i log x_i on the positive orthant.

    The induced divergence on probability vectors is the KL divergence.
    Sampled checks draw from the interior of the simplex with coordinate
    margin 1e-3; on that region hess_h = diag(1/x) >= I.
    """
    margin = 1e-3
    if dim < 1 or not margin < 1.0 / dim:
        raise ConfigurationError("need dim >= 1 and 0 < margin < 1/dim")

    def draw(u):
        # -log(1 - u) is Exp(1), and n of them over their sum is uniform on the simplex
        e = -np.log1p(-u)
        return (1.0 - dim * margin) * (e / np.sum(e, axis=-1, keepdims=True)) + margin

    return DistanceGenerator(
        dim=dim,
        value=lambda x: np.sum(x * np.log(x), axis=-1),
        gradient=lambda x: 1.0 + np.log(x),
        hessian_solve=lambda point, rhs: rhs * point,
        symmetric=False,
        domain_guard=lambda x: bool((x > 0).all() and np.isfinite(x).all()),
        name="negative_entropy",
        sample_point=draw,
        sample_region=f"interior simplex, margin {margin:g}",
    )


def symmetric_eigh(M: np.ndarray) -> tuple:
    """Eigenvalues w, ascending, and orthonormal eigenvectors V of a symmetric M.

    A matrix whose off-diagonal entries are all exactly zero is read off:
    its diagonal, and the identity columns, in the order of LAPACK's
    selection sort, so that ties come out as `np.linalg.eigh` gives them.
    That is eigh's result bit for bit, up to the sign of a zero eigenvalue,
    without loading LAPACK.  Any other M goes to `np.linalg.eigh`.
    """
    d = np.diag(M)
    if not np.array_equal(M, np.diag(d)):
        return np.linalg.eigh(M)
    order = np.arange(d.size)
    for i in range(d.size - 1):
        k = i + int(np.argmin(d[order[i:]]))
        order[[i, k]] = order[[k, i]]
    return d[order], np.eye(d.size)[:, order]


def spd_eigh(Q) -> tuple:
    """(Q, w, V): Q as a float array and `symmetric_eigh(Q)`, once Q is a
    nonempty, finite, symmetric, positive-definite square matrix;
    ConfigurationError otherwise."""
    Q = np.asarray(Q, dtype=float)
    if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
        raise ConfigurationError("Q must be square")
    if Q.size == 0:
        raise ConfigurationError("Q must be nonempty")
    if not np.all(np.isfinite(Q)):
        raise ConfigurationError("Q must be finite")
    if not np.allclose(Q, Q.T, atol=1e-12):
        raise ConfigurationError("Q must be symmetric")
    w, V = symmetric_eigh(Q)
    if w[0] <= 0:
        raise ConfigurationError(f"Q must be positive definite (min eigenvalue {w[0]:g})")
    return Q, w, V


def quadratic_generator(Q) -> DistanceGenerator:
    """h(x) = (1/2) x^T Q x for a finite, symmetric, positive-definite Q
    (`spd_eigh` checks it; ConfigurationError otherwise).

    A diagonal Q = diag(q), the identity included, is read off: grad h = q x
    and a Hessian solve is rhs / q.  Any other Q = V diag(w) V^T solves from
    its eigenpairs, V ((V^T rhs) / w), on one vector or a row batch, with no
    factorization per call.  The name follows from Q: squared_euclidean for
    I, diagonal_quadratic for another diagonal Q, quadratic_matrix otherwise.
    """
    Q, w, V = spd_eigh(Q)
    q = np.diag(Q)
    if np.array_equal(Q, np.diag(q)):
        name = "squared_euclidean" if np.all(q == 1.0) else "diagonal_quadratic"
        gradient = lambda x: q * x  # noqa: E731
        solve = lambda point, rhs: rhs / q  # noqa: E731
    else:
        name = "quadratic_matrix"
        gradient = lambda x: np.einsum("...j,ij->...i", x, Q)  # noqa: E731
        solve = lambda point, rhs: ((rhs @ V) / w) @ V.T  # noqa: E731
    return DistanceGenerator(
        dim=q.size,
        value=lambda x: 0.5 * _dot(x, gradient(x)),
        gradient=gradient,
        hessian_solve=solve,
        symmetric=True,
        domain_guard=lambda x: bool(np.isfinite(x).all()),
        name=name,
        hessian=Q,
    )


def squared_euclidean(dim: int) -> DistanceGenerator:
    """h(x) = (1/2) ||x||^2; the divergence is (1/2) ||y - x||^2."""
    return quadratic_generator(np.eye(dim))
