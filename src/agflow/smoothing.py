"""Smooth approximations of nonsmooth objectives and the smoothing-aware flow.

An approximation f~(x, mu) sandwiches the base objective,

    f~(x, mu) <= f(x) <= f~(x, mu) + beta_s * mu,

is (alpha_s/mu)-smooth in x, and (for the Lipschitz-continuous variant) keeps
-beta_s <= d f~/d mu <= 0.  Driving the flow with grad_x f~(x, mu(t)) and a
rate-preserving mu(t) keeps the smooth-case convergence rate: the Lyapunov
function may grow by at most beta_s * int(nu_dot e^nu mu), which the chosen
mu makes finite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .bregman import DistanceGenerator, Objective, row_values
from .dynamics import IntegratorConfig, Trajectory, _integrate_core, half_step_grid
from .errors import ConfigurationError, ScheduleError, UnsupportedFamilyError
from .lyapunov import Smoothed
from .schedules import ConstantDamping, Hyperbolic, PolynomialDamping, ScheduleFamily

Vector = np.ndarray


@dataclass(frozen=True)
class SmoothApproximation:
    """f~(x, mu) with both partial gradients and its (alpha_s, beta_s) constants.

    The callables take row batches: x of shape (..., n) and mu a scalar or an
    array that broadcasts against x (shape (..., 1) for one mu per row).
    `value` and `grad_mu` return shape (...), `grad_x` shape (..., n).
    ``exact`` declares f~(x, mu) = base(x) for every mu; the smoothed flow is
    then the flow of `base` itself.
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


@dataclass(frozen=True)
class CertReport:
    passed: bool
    max_sandwich_violation: float
    max_band_violation: float
    max_smoothness_ratio: float
    num_samples: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "max_sandwich_violation": float(self.max_sandwich_violation),
            "max_band_violation": float(self.max_band_violation),
            "max_smoothness_ratio": float(self.max_smoothness_ratio),
            "num_samples": int(self.num_samples),
            "seed": int(self.seed),
        }


def _huber_value(x: Vector, w: Vector, mu: float) -> float:
    ax = np.abs(x)
    inside = ax <= mu
    vals = np.where(inside, x * x / (2.0 * mu), ax - 0.5 * mu)
    return np.sum(w * vals, axis=-1)


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

    def grad_x(x, mu):
        return w * np.where(np.abs(x) <= mu, x / mu, np.sign(x))

    def grad_mu(x, mu):
        ax = np.abs(x)
        per = np.where(ax <= mu, -x * x / (2.0 * mu * mu), -0.5)
        return np.sum(w * per, axis=-1)

    return SmoothApproximation(
        value=lambda x, mu: _huber_value(np.asarray(x, dtype=float), w, mu),
        grad_x=lambda x, mu: grad_x(np.asarray(x, dtype=float), mu),
        grad_mu=lambda x, mu: grad_mu(np.asarray(x, dtype=float), mu),
        alpha_s=float(np.max(w)) if w.size else 0.0,
        beta_s=0.5 * float(np.sum(w)),
        base=base,
        name="huber_l1",
    )


def add_smooth_part(
    a: SmoothApproximation,
    smooth: Objective,
    combined_base: Objective,
    mu_max: float = 1.0,
    l_smooth: Optional[float] = None,
) -> SmoothApproximation:
    """Approximation of (smooth + nonsmooth): add a mu-independent smooth term.

    The sandwich and the d/d mu band carry over unchanged.  If the smooth
    part's gradient is L-Lipschitz, the sum is (alpha_s + L mu_max)/mu-smooth
    for every mu <= mu_max, so alpha_s grows by L * mu_max.  L is the largest
    eigenvalue of `smooth.hessian` when that is declared; otherwise it must be
    passed as `l_smooth`.
    """
    if mu_max <= 0:
        raise ConfigurationError("mu_max must be positive")
    if (smooth.hessian is None) == (l_smooth is None):
        raise ConfigurationError(
            "give l_smooth exactly when the smooth part declares no constant Hessian"
        )
    if smooth.hessian is not None:
        l_smooth = float(np.linalg.eigvalsh(np.asarray(smooth.hessian, dtype=float))[-1])
    elif not l_smooth >= 0:
        raise ConfigurationError("l_smooth must be nonnegative")
    return SmoothApproximation(
        value=lambda x, mu: smooth.value(x) + a.value(x, mu),
        grad_x=lambda x, mu: smooth.gradient(x) + a.grad_x(x, mu),
        grad_mu=a.grad_mu,
        alpha_s=a.alpha_s + l_smooth * mu_max,
        beta_s=a.beta_s,
        base=combined_base,
        name=f"{a.name}+{smooth.name}",
    )


def l1_denoise_approximation(y, w: float, mu_max: float = 1.0):
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
    approx = add_smooth_part(huber_l1(np.full(y.size, w)), quad, spec.objective, mu_max=mu_max)
    return approx, spec


# Samples per row batch of `certify_smooth_approx`.
_CERT_CHUNK = 1024


def _row_batch(name: str, batch, shape, one_point=None) -> np.ndarray:
    """`batch` as an array, once it has `shape` and (if given) its row 0
    agrees with `one_point`, the same callable evaluated at row 0 alone."""
    batch = row_values(name, batch, shape)
    if one_point is None:
        return batch
    if np.shape(one_point) != shape[1:] or not np.allclose(
        batch[0], one_point, rtol=1e-9, atol=1e-9, equal_nan=True
    ):
        raise ConfigurationError(
            f"{name} on a row batch disagrees with its one-point value; it must take row batches"
        )
    return batch


def certify_smooth_approx(
    a: SmoothApproximation,
    num_samples: int,
    seed: int,
    box: float = 2.0,
    mu_max: float = 1.0,
    tolerance: float = 1e-9,
) -> CertReport:
    """Sampled certification of the sandwich, the d/d mu band, and the
    (alpha_s/mu)-smoothness ratio at random (x, y, mu) draws.

    Sample i is x_i, y_i ~ U[-box, box]^n and mu_i ~ U[1e-3, mu_max], drawn
    in that order; the draws are taken and checked in row batches of
    `_CERT_CHUNK` samples.  Each callable must take row batches (README, "Row
    batches"): a result of the wrong shape, or one whose first row differs
    from a one-point call, raises `ConfigurationError`.
    """
    if num_samples < 1:
        raise ConfigurationError("num_samples must be >= 1")
    rng = np.random.default_rng(seed)
    dim = a.base.dim
    worst_sandwich = -np.inf
    worst_band = -np.inf
    worst_ratio = 0.0
    for start in range(0, num_samples, _CERT_CHUNK):
        m = min(_CERT_CHUNK, num_samples - start)
        u = rng.random((m, 2 * dim + 1))
        # low + (high - low) * u is how Generator.uniform scales its draws
        x = -box + 2.0 * box * u[:, :dim]
        y = -box + 2.0 * box * u[:, dim : 2 * dim]
        mu_col = 1e-3 + (mu_max - 1e-3) * u[:, 2 * dim :]
        mu = mu_col[:, 0]
        x0, mu0 = x[0], float(mu[0])
        fx = _row_batch("base.value", a.base.value(x), (m,), a.base.value(x0))
        fax = _row_batch("value", a.value(x, mu_col), (m,), a.value(x0, mu0))
        worst_sandwich = max(worst_sandwich, np.max(fax - fx), np.max(fx - fax - a.beta_s * mu))
        gm = _row_batch("grad_mu", a.grad_mu(x, mu_col), (m,), a.grad_mu(x0, mu0))
        worst_band = max(worst_band, np.max(gm), np.max(-gm - a.beta_s))
        gx = _row_batch("grad_x", a.grad_x(x, mu_col), x.shape, a.grad_x(x0, mu0))
        gy = _row_batch("grad_x", a.grad_x(y, mu_col), x.shape)
        d = y - x
        dx = np.sqrt(np.einsum("...i,...i->...", d, d))
        keep = dx > 1e-12
        dg = gy[keep] - gx[keep]
        ratio = np.sqrt(np.einsum("...i,...i->...", dg, dg)) / ((a.alpha_s / mu[keep]) * dx[keep])
        worst_ratio = max(worst_ratio, np.max(ratio, initial=0.0))
    return CertReport(
        passed=bool(
            worst_sandwich <= tolerance
            and worst_band <= tolerance
            and worst_ratio <= 1.0 + 1e-9
        ),
        max_sandwich_violation=float(worst_sandwich),
        max_band_violation=float(worst_band),
        max_smoothness_ratio=float(worst_ratio),
        num_samples=num_samples,
        seed=seed,
    )


def rate_preserving_mu(
    family: ScheduleFamily, epsilon: float, kind: str
) -> SmoothingSchedule:
    """mu(t) making nu_dot e^nu mu(t) equal e^(-epsilon t) (exponential kind)
    or t^-(1+epsilon) (polynomial kind), so the growth budget stays finite.

    Needs the family's nu_dot and e^nu in closed form; supported for the
    shipped constant/hyperbolic/polynomial families.
    """
    if epsilon <= 0:
        raise ConfigurationError("epsilon must be positive")
    if kind not in ("exponential", "polynomial"):
        raise ConfigurationError(f"unknown kind {kind!r}")
    if not isinstance(family, (ConstantDamping, Hyperbolic, PolynomialDamping)):
        raise UnsupportedFamilyError(
            f"no closed-form nu for family {getattr(family, 'name', family)!r}"
        )

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
        return target(t) / flow_weight(t)

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
    sigma: Optional[float] = None,
) -> Trajectory:
    """Integrate the flow with grad f replaced by grad_x f~(x, mu(t)).

    Diagnostics use the smoothed Lyapunov variant and accumulate the budget
    B(t) = beta_s int nu_dot e^nu mu.  mu is evaluated once, vectorized, on
    the integrator's half-step grid; it must be positive, finite and
    nonincreasing at every grid point, and the stepping loop and the
    diagnostics read it there by grid index.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.zeros_like(x0) if v0 is None else np.asarray(v0, dtype=float)
    mu_g = np.asarray(mu_sched.mu(half_step_grid(config)[1]), dtype=float)
    if np.any(mu_g <= 0) or not np.all(np.isfinite(mu_g)):
        raise ScheduleError("mu(t) must be positive and finite on the horizon")
    if np.any(np.diff(mu_g) > 1e-12 * np.max(mu_g)):
        raise ScheduleError("mu(t) must be nonincreasing on the horizon")
    variant = Smoothed(approximation=a, beta_s=a.beta_s, mu_schedule=mu_sched)
    # an exact approximation drives the flow with base's own gradient, so the
    # run takes the same integration path as the unsmoothed flow of base
    grad = None if a.exact else (lambda x, j: a.grad_x(x, mu_g[j]))
    if sigma is None:
        fam_sigma = getattr(family, "sigma", None)
        sigma = 0.0 if fam_sigma is None else fam_sigma
    traj = _integrate_core(
        h,
        a.base,
        family,
        config,
        x0,
        v0,
        variant=variant,
        sigma=sigma,
        gradient_override=grad,
        extra_metadata={"smoothing": {"approximation": a.name, "mu": mu_sched.description}},
        mu_grid=mu_g,
    )
    return dataclasses.replace(
        traj, gradient_of=lambda x, t: a.grad_x(x, float(mu_sched.mu(t)))
    )


def with_exact_smooth_objective(f: Objective, beta_s: float = 1.0) -> SmoothApproximation:
    """Wrap a smooth objective as its own approximation (f~ = f, grad_mu = 0).

    Satisfies the band trivially; with mu -> 0 the smoothed Lyapunov value
    reduces to the standard one.
    """
    if not f.smooth:
        raise ConfigurationError("objective must be smooth")
    return SmoothApproximation(
        value=lambda x, mu: f.value(x),
        grad_x=lambda x, mu: f.gradient(x),
        grad_mu=lambda x, mu: np.zeros(np.shape(x)[:-1]),
        alpha_s=1.0,
        beta_s=beta_s,
        base=f,
        name=f"exact({f.name})",
        exact=True,
    )
