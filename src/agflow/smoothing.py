"""Smooth approximations of nonsmooth objectives and the smoothing-aware flow.

An approximation f~(x, mu) sandwiches the base objective,

    f~(x, mu) <= f(x) <= f~(x, mu) + beta_s * mu,

is (alpha_s/mu)-smooth in x for mu <= MU_MAX, and (for the
Lipschitz-continuous variant) keeps -beta_s <= d f~/d mu <= 0.  Driving the
flow with grad_x f~(x, mu(t)) and a rate-preserving mu(t) keeps the
smooth-case convergence rate: the Lyapunov function may grow by at most
beta_s * int(nu_dot e^nu mu), which the chosen mu makes finite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bregman import DistanceGenerator, Objective, _row_batch, _row_batches, row_values
from .bregman import symmetric_eigh
from .dynamics import IntegratorConfig, Trajectory, _integrate_core
from .errors import ConfigurationError, ScheduleError
from .lyapunov import ROW_CHUNK, Smoothed
from .schedules import ScheduleFamily

Vector = np.ndarray

# The largest mu an approximation is certified for: a smooth part adds
# L * MU_MAX to alpha_s, `certify_smooth_approx` samples mu <= MU_MAX, and
# `SmoothingSchedule.on_grid` rejects a run whose mu(t) exceeds it.
MU_MAX = 1.0


@dataclass(frozen=True)
class SmoothApproximation:
    """f~(x, mu) with both partial gradients and its (alpha_s, beta_s) constants.

    The callables take row batches: x of shape (..., n) and mu a scalar or an
    array that broadcasts against x (shape (..., 1) for one mu per row).
    `value` and `grad_mu` return shape (...), `grad_x` shape (..., n).
    ``exact`` declares f~(x, mu) = base(x) for every mu; the smoothed flow is
    then the flow of `base` itself.  The x handed to `grad_x` by the
    integrator is valid only during the call (see `Objective`).
    """

    value: Callable[[Vector, float], float]
    grad_x: Callable[[Vector, float], Vector]
    grad_mu: Callable[[Vector, float], float]
    alpha_s: float
    beta_s: float
    base: Objective
    name: str = "smooth_approximation"
    exact: bool = False


@dataclass(frozen=True)
class SmoothingSchedule:
    """mu(t) > 0, nonincreasing, with a definite-integral budget evaluator.

    ``budget(t_a, t_b)`` returns int_{t_a}^{t_b} nu_dot e^nu mu dt (closed form
    when the schedule was built by `rate_preserving_mu`); multiply by beta_s
    for the Lyapunov growth allowance B.  Both take arrays of times
    elementwise: the diagnostics evaluate the budget of every recorded
    interval in one call.
    """

    mu: Callable[[float], float]
    budget: Callable[[float, float], float]
    description: str = "custom"

    def on_grid(self, t: np.ndarray) -> np.ndarray:
        """mu at the times `t`, evaluated once, vectorized; raises
        ScheduleError unless it is positive, finite and nonincreasing there,
        and at most MU_MAX at t[0], the range the approximation is certified on."""
        mu = row_values("mu", self.mu(t), np.shape(t))
        if np.any(mu <= 0) or not np.all(np.isfinite(mu)):
            raise ScheduleError("mu(t) must be positive and finite on the horizon")
        if np.any(np.diff(mu) > 1e-12 * np.max(mu)):
            raise ScheduleError("mu(t) must be nonincreasing on the horizon")
        if mu[0] > MU_MAX:
            raise ScheduleError(
                f"mu(t0) = {mu[0]:g} exceeds MU_MAX = {MU_MAX:g}, the largest mu "
                "the approximation is certified for; start the run later"
            )
        return mu


@dataclass(frozen=True)
class CertReport:
    passed: bool
    max_sandwich_violation: float
    max_band_violation: float
    max_smoothness_ratio: float
    num_samples: int
    seed: int
    region: list  # [low, high] of each coordinate of the box x and y are drawn from

    to_dict = dataclasses.asdict


def huber_l1(weights) -> SmoothApproximation:
    """Coordinatewise Huber smoothing of sum_i w_i |x_i|.

    Per coordinate: x^2/(2 mu) for |x| <= mu, |x| - mu/2 beyond; the sandwich
    gap peaks at w_i mu / 2 in the linear region, so beta_s = sum(w)/2 and
    alpha_s = max(w).
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ConfigurationError("weights must be finite and nonnegative")
    base = Objective(
        dim=w.size,
        value=lambda x: np.sum(w * np.abs(x), axis=-1),
        gradient=lambda x: w * np.sign(x),
        sigma=0.0,
        minimizer=np.zeros(w.size),
        optimal_value=0.0,
        smooth=False,
        name="weighted_l1",
    )

    # each takes any array-like x: the first ufunc on x makes it an array
    def value(x, mu):
        ax = np.abs(x)
        vals = np.where(ax <= mu, ax * ax / (2.0 * mu), ax - 0.5 * mu)
        return np.sum(w * vals, axis=-1)

    def grad_x(x, mu):
        # x / mu inside |x| <= mu and sign(x) beyond, bit for bit, as the
        # ratio clipped to [-1, 1]: three ufuncs instead of five
        return w * np.minimum(np.maximum(np.divide(x, mu), -1.0), 1.0)

    def grad_mu(x, mu):
        ax = np.abs(x)
        per = np.where(ax <= mu, -ax * ax / (2.0 * mu * mu), -0.5)
        return np.sum(w * per, axis=-1)

    return SmoothApproximation(
        value=value,
        grad_x=grad_x,
        grad_mu=grad_mu,
        alpha_s=float(np.max(w)) if w.size else 0.0,
        beta_s=0.5 * float(np.sum(w)),
        base=base,
        name="huber_l1",
    )


def _smooth_part_alpha(smooth: Objective) -> float:
    """L * MU_MAX, what a smooth term adds to alpha_s for mu <= MU_MAX, where
    L is the largest eigenvalue of its declared constant `smooth.hessian`,
    from `bregman.symmetric_eigh` (read off a diagonal Hessian)."""
    if smooth.hessian is None:
        raise ConfigurationError("the smooth part must declare a constant Hessian")
    return float(symmetric_eigh(np.asarray(smooth.hessian, dtype=float))[0][-1]) * MU_MAX


def add_smooth_part(
    a: SmoothApproximation, smooth: Objective, combined_base: Objective
) -> SmoothApproximation:
    """Approximation of (smooth + nonsmooth): add a mu-independent smooth term.

    The sandwich and the d/d mu band carry over unchanged.  The smooth part
    must declare its constant Hessian, whose largest eigenvalue L bounds its
    gradient's Lipschitz constant; the sum is (alpha_s + L MU_MAX)/mu-smooth
    for every mu <= MU_MAX, so alpha_s grows by L * MU_MAX (`_smooth_part_alpha`).
    """
    return SmoothApproximation(
        value=lambda x, mu: smooth.value(x) + a.value(x, mu),
        grad_x=lambda x, mu: smooth.gradient(x) + a.grad_x(x, mu),
        grad_mu=a.grad_mu,
        alpha_s=a.alpha_s + _smooth_part_alpha(smooth),
        beta_s=a.beta_s,
        base=combined_base,
        name=f"{a.name}+{smooth.name}",
    )


def l1_denoise_approximation(y, w: float):
    """Huber-smoothed approximation of (1/2)||x - y||^2 + w ||x||_1."""
    from .problems import l1_denoise

    y = np.asarray(y, dtype=float)
    spec = l1_denoise(y, w)
    quad = Objective(
        dim=y.size,
        value=lambda x: 0.5 * np.sum((x - y) ** 2, axis=-1),
        gradient=lambda x: x - y,
        sigma=1.0,
        name="half_squared_distance",
        hessian=np.eye(y.size),
    )
    approx = add_smooth_part(huber_l1(np.full(y.size, w)), quad, spec.objective)
    return approx, spec


# The tolerance of `certify_smooth_approx` on each violation.
CERT_TOLERANCE = 1e-9


def certify_smooth_approx(
    a: SmoothApproximation, num_samples: int, seed: int, box=None
) -> CertReport:
    """Sampled certification of the sandwich, the d/d mu band, and the
    (alpha_s/mu)-smoothness ratio at random (x, y, mu) draws.

    Sample i is x_i, y_i ~ U[low, high) and mu_i ~ U[1e-3, MU_MAX), scaled
    in that order from its 2n + 1 uniforms of the stream of `seed`
    (`bregman._row_batches`), so the report covers every mu that
    `SmoothingSchedule.on_grid` admits, whatever the batch size.  `box` is
    (low, high), two arrays of shape (n,); None is the box [-2, 2]^n
    (`bregman._box`), and `cli` passes the box a run visited
    (`visited_box`).  A NaN fails the report.  Each callable must take row
    batches (README, "Row batches"): a result of the wrong shape, or one
    whose first row differs from a one-point call, raises
    `ConfigurationError`.
    """
    dim = a.base.dim
    low, high = (np.full(dim, -2.0), np.full(dim, 2.0)) if box is None else box
    width = high - low
    # worst sandwich, band and ratio; np.maximum keeps a NaN, Python's max drops it
    worst = np.array([-np.inf, -np.inf, 0.0])
    for u in _row_batches(num_samples, seed, 2 * dim + 1):
        x, y = low + width * u[:, :dim], low + width * u[:, dim : 2 * dim]
        mu_col = 1e-3 + (MU_MAX - 1e-3) * u[:, 2 * dim :]
        mu = mu_col[:, 0]
        x0, mu0 = x[0], float(mu[0])
        fx = _row_batch("base.value", a.base.value(x), mu.shape, a.base.value(x0))
        fax = _row_batch("value", a.value(x, mu_col), mu.shape, a.value(x0, mu0))
        gm = _row_batch("grad_mu", a.grad_mu(x, mu_col), mu.shape, a.grad_mu(x0, mu0))
        gx = _row_batch("grad_x", a.grad_x(x, mu_col), x.shape, a.grad_x(x0, mu0))
        gy = row_values("grad_x", a.grad_x(y, mu_col), x.shape)
        d = y - x
        dx = np.sqrt(np.einsum("...i,...i->...", d, d))
        keep = dx > 1e-12
        dg = gy[keep] - gx[keep]
        ratio = np.sqrt(np.einsum("...i,...i->...", dg, dg)) / ((a.alpha_s / mu[keep]) * dx[keep])
        batch = (
            np.max(np.maximum(fax - fx, fx - fax - a.beta_s * mu)),
            np.max(np.maximum(gm, -gm - a.beta_s)),
            np.max(ratio, initial=0.0),
        )
        np.maximum(worst, batch, out=worst)
    worst_sandwich, worst_band, worst_ratio = worst.tolist()
    return CertReport(
        passed=bool(
            worst_sandwich <= CERT_TOLERANCE
            and worst_band <= CERT_TOLERANCE
            and worst_ratio <= 1.0 + CERT_TOLERANCE
        ),
        max_sandwich_violation=worst_sandwich,
        max_band_violation=worst_band,
        max_smoothness_ratio=worst_ratio,
        num_samples=int(num_samples),
        seed=int(seed),
        region=np.column_stack([low, high]).tolist(),
    )


# Margin of `visited_box` around the recorded states, per coordinate: a
# quarter of the largest magnitude recorded there, at least 0.25.  The
# states between records lie far inside it: recording every step instead
# of every 10th widens smooth-demo's range with y = 10 0.1 by 2e-5.
VISITED_MARGIN = 0.25


def visited_box(states_x: np.ndarray, states_z: np.ndarray) -> tuple:
    """(low, high): the box spanned by [-2, 2]^n and the recorded states x
    and z (arrays of shape (m, n)), each coordinate's state range widened
    by `VISITED_MARGIN` times max(1, its largest |x| or |z|)."""
    low = np.minimum(states_x.min(axis=0), states_z.min(axis=0))
    high = np.maximum(states_x.max(axis=0), states_z.max(axis=0))
    pad = VISITED_MARGIN * np.maximum(1.0, np.maximum(-low, high))
    return np.minimum(-2.0, low - pad), np.maximum(2.0, high + pad)


def rate_preserving_mu(
    family: ScheduleFamily, epsilon: float, kind: str
) -> SmoothingSchedule:
    """mu(t) making nu_dot e^nu mu(t) equal e^(-epsilon t) (exponential kind)
    or t^-(1+epsilon) (polynomial kind), so the growth budget stays finite.

    Holds for any family: mu = target / (nu_dot e^nu) is read off the
    family's samples, and the budget is the target's integral in closed
    form.  A run rejects (`SmoothingSchedule.on_grid`) a mu that is not
    positive, finite and nonincreasing, or that exceeds MU_MAX at t0.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if kind not in ("exponential", "polynomial"):
        raise ConfigurationError(f"unknown kind {kind!r}")

    def flow_weight(t):
        s = family.sample(t)
        return s.nu_dot * np.exp(s.nu)

    if kind == "exponential":
        target = lambda t: np.exp(-epsilon * t)  # noqa: E731
        antideriv = lambda t: -np.exp(-epsilon * t) / epsilon  # noqa: E731
        desc = f"nu_dot e^nu mu = exp(-{epsilon:g} t)"
    else:
        target = lambda t: t ** (-(1.0 + epsilon))  # noqa: E731
        antideriv = lambda t: -(t ** (-epsilon)) / epsilon  # noqa: E731
        desc = f"nu_dot e^nu mu = t^-(1+{epsilon:g})"

    def mu(t):
        # over ROW_CHUNK slices of t: a family's sample holds several t-sized arrays
        t = np.asarray(t, dtype=float)
        flat = t.reshape(-1)
        out = np.empty(flat.size)
        for k in range(0, flat.size, ROW_CHUNK):
            tk = flat[k : k + ROW_CHUNK]
            out[k : k + ROW_CHUNK] = target(tk) / flow_weight(tk)
        return out.reshape(t.shape)

    return SmoothingSchedule(
        mu=mu,
        budget=lambda ta, tb: antideriv(tb) - antideriv(ta),
        description=desc,
    )


def constant_mu(value: float, family: ScheduleFamily) -> SmoothingSchedule:
    """Fixed smoothing parameter; since int nu_dot e^nu = e^nu, the budget is
    mu * (e^nu(tb) - e^nu(ta)) in closed form."""
    if value <= 0:
        raise ScheduleError("mu must be positive")

    def budget(ta, tb):
        return value * (np.exp(family.sample(tb).nu) - np.exp(family.sample(ta).nu))

    return SmoothingSchedule(
        mu=lambda t: value + 0.0 * np.asarray(t, dtype=float),
        budget=budget,
        description=f"constant mu = {value:g}",
    )


def smoothed_flow(
    h: DistanceGenerator,
    a: SmoothApproximation,
    family: ScheduleFamily,
    mu_sched: SmoothingSchedule,
    config: IntegratorConfig,
    x0: Vector,
    v0: Optional[Vector] = None,
) -> Trajectory:
    """Shorthand for `integrate(h, a.base, family, config, x0, v0,
    variant=Smoothed(a, mu_sched))`: the flow driven by grad_x f~(x, mu(t)),
    whose diagnostics accumulate the budget B(t) = beta_s int nu_dot e^nu mu."""
    return _integrate_core(h, a.base, family, config, x0, v0, variant=Smoothed(a, mu_sched))


# beta_s of `with_exact_smooth_objective`: any beta_s >= 0 holds its sandwich.
_EXACT_BETA_S = 1.0


def with_exact_smooth_objective(f: Objective) -> SmoothApproximation:
    """Wrap a smooth objective as its own approximation (f~ = f, grad_mu = 0).

    Satisfies the band trivially; with mu -> 0 the smoothed Lyapunov value
    reduces to the standard one.  alpha_s follows `add_smooth_part`'s rule:
    L * MU_MAX, for L the largest eigenvalue of the declared `f.hessian`.
    """
    if not f.smooth or f.hessian is None:
        raise ConfigurationError("objective must be smooth and declare a constant Hessian")
    return SmoothApproximation(
        value=lambda x, mu: f.value(x),
        grad_x=lambda x, mu: f.gradient(x),
        grad_mu=lambda x, mu: np.zeros(np.shape(x)[:-1]),
        alpha_s=_smooth_part_alpha(f),
        beta_s=_EXACT_BETA_S,
        base=f,
        name=f"exact({f.name})",
        exact=True,
    )
