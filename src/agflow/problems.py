"""Built-in convex test objectives with known minimizers.

All problems are small (n <= 10) so the full verification suite runs in
seconds.  Each ships the objective and a matched distance generator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bregman import DistanceGenerator, Objective, spd_eigh, squared_euclidean
from .errors import ConfigurationError


@dataclass(frozen=True)
class ProblemSpec:
    objective: Objective
    generator: DistanceGenerator


def quadratic(Q, b) -> ProblemSpec:
    """f(x) = (1/2) x^T Q x - b^T x with SPD Q; sigma = lambda_min(Q).

    With Q = U diag(lam) U^T from `bregman.spd_eigh`, x* = U ((U^T b) / lam):
    a diagonal Q is read off (x*_i = b_i / Q_ii) without loading LAPACK.
    """
    Q, lam, U = spd_eigh(Q)
    b = np.asarray(b, dtype=float)
    if b.shape != (Q.shape[0],):
        raise ConfigurationError("b must be a vector of length Q.shape[0]")
    if not np.all(np.isfinite(b)):
        raise ConfigurationError("b must be finite")
    xstar = U @ ((U.T @ b) / lam)
    fstar = 0.5 * float(xstar @ (Q @ xstar)) - float(b @ xstar)
    obj = Objective(
        dim=Q.shape[0],
        # einsum, not x @ Q.T: in a BLAS product a row's last bits depend on its batch
        value=lambda x: (
            0.5 * np.einsum("...i,...i->...", x, np.einsum("...j,ij->...i", x, Q))
            - np.einsum("...i,i->...", x, b)
        ),
        gradient=lambda x: x @ Q.T - b,
        sigma=float(lam[0]),
        minimizer=xstar,
        optimal_value=fstar,
        name="quadratic",
        hessian=Q,
    )
    return ProblemSpec(objective=obj, generator=squared_euclidean(Q.shape[0]))


def flat_quadratic(A, b) -> ProblemSpec:
    """f(x) = (1/2) ||A x - b||^2 with a wide full-row-rank A; sigma = 0.

    x* is the minimum-norm solution and f* = 0 (b is in the range of A).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] >= A.shape[1] or b.shape != (A.shape[0],):
        raise ConfigurationError("A must be m x n with m < n, b of length m")
    sv = np.linalg.svd(A, compute_uv=False)
    if sv[-1] <= 1e-12 * sv[0]:
        raise ConfigurationError("A must have full row rank")
    xstar = np.linalg.lstsq(A, b, rcond=None)[0]
    obj = Objective(
        dim=A.shape[1],
        value=lambda x: 0.5 * np.sum((x @ A.T - b) ** 2, axis=-1),
        gradient=lambda x: (x @ A.T - b) @ A,
        sigma=0.0,
        minimizer=xstar,
        optimal_value=0.0,
        name="flat_quadratic",
        hessian=A.T @ A,
    )
    return ProblemSpec(objective=obj, generator=squared_euclidean(A.shape[1]))


def soft_threshold(y, w: float) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    return np.sign(y) * np.maximum(np.abs(y) - w, 0.0)


def l1_denoise(y, w: float) -> ProblemSpec:
    """f(x) = (1/2) ||x - y||^2 + w ||x||_1 (nonsmooth); x* by soft threshold.

    The stored gradient is a subgradient selection (sign(0) = 0), valid away
    from kinks; the problem is driven through the smoothing pipeline only.
    Optimality of x* is certified by subgradient membership, not gradient norm.
    """
    if w <= 0:
        raise ConfigurationError("w must be positive")
    y = np.asarray(y, dtype=float)
    xstar = soft_threshold(y, w)
    fstar = 0.5 * float(np.sum((xstar - y) ** 2)) + w * float(np.sum(np.abs(xstar)))
    obj = Objective(
        dim=y.size,
        value=lambda x: 0.5 * np.sum((x - y) ** 2, axis=-1) + w * np.sum(np.abs(x), axis=-1),
        gradient=lambda x: (x - y) + w * np.sign(x),
        sigma=1.0,
        minimizer=xstar,
        optimal_value=fstar,
        smooth=False,
        name="l1_denoise",
    )
    return ProblemSpec(objective=obj, generator=squared_euclidean(y.size))


def l1_subgradient_gap(y, w: float, xstar) -> float:
    """Max violation of the optimality certificate 0 in the subdifferential:
    |(x* - y)_i| <= w at zero coordinates, (x* - y)_i + w sign(x*_i) = 0 elsewhere."""
    y = np.asarray(y, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    resid = xstar - y
    at_zero = np.maximum(np.abs(resid) - w, 0.0)
    elsewhere = np.abs(resid + w * np.sign(xstar))
    gap = np.where(xstar == 0.0, at_zero, elsewhere)
    return float(np.max(gap, initial=0.0))
