"""Time-varying damping/scaling parameter families and their admissibility checks.

Each family produces, at a time t, the parameter bundle (alpha, delta_dot,
eta, nu, exp_pi) plus derivatives that drives the accelerated flow and its
Lyapunov function.  Only the derivative of delta is carried (constant shifts
of delta do not change the flow), and pi is stored as exp(pi) so the value 0
represents the disabled case pi = -infinity.

A family states alpha, delta_dot and nu with their derivatives, and eta or
exp(pi) only where it leaves the standard form eta = 2 alpha, exp(pi) = 0,
which `sample` fills in otherwise.
``sample`` accepts a scalar or a 1-d array of times; array input returns a
bundle of arrays, which the checkers and the integrator rely on.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    ConfigurationError,
    MappingError,
    PreconditionError,
    TimeDomainError,
)

# The largest slack a `ConditionReport` passes.
CONDITION_TOLERANCE = 1e-9

GENERAL_ITEMS = (
    "nu_dot - exp(alpha)",
    "-(K) + nu_dot + eta_dot",
    "K - sigma*exp(alpha - eta)",
    "-(K)",
)

GENERAL2_ITEMS = (
    "nu_dot - exp(alpha)",
    "-(K) + nu_dot + eta_dot + exp(pi + alpha)",
    "K - sigma*exp(alpha - eta) - exp(pi + alpha) + (nu_dot + eta_dot)*exp(pi) + d/dt exp(pi)",
    "-(K) - exp(pi + alpha)",
)

PARA_ITEMS = (
    "nu_dot - exp(alpha)",
    "-(K2) + nu_dot + 2*alpha_dot + exp(pi + alpha)",
    "K2 - sigma*exp(-alpha) + (nu_dot + 2*alpha_dot - exp(alpha))*exp(pi) + d/dt exp(pi)",
    "-(K2) - exp(pi + alpha)",
)


@dataclass(frozen=True)
class ScheduleSample:
    """Parameter bundle at one time (or, field-wise, on an array of times)."""

    t: float
    alpha: float
    alpha_dot: float
    delta_dot: float
    eta: float
    eta_dot: float
    nu: float
    nu_dot: float
    exp_pi: float
    exp_pi_dot: float


def time_grid(t0: float, t_end: float, num: int) -> np.ndarray:
    if not t0 < t_end or num < 2:
        raise ConfigurationError("need t0 < t_end and num >= 2")
    return np.linspace(t0, t_end, num)


class ScheduleFamily:
    """Base class; concrete families fill in `_evaluate` on an array of times.

    `params` names the constructor parameters, which `describe` reports.
    `sigma` is the uniform-convexity constant the family is built for, or
    None where it states none.  `certified_rate` is the decay of the
    objective gap that the family's nu certifies: ("exponential", r) for
    e^(-r t), ("polynomial", r) for t^-r, or None where the family states none.
    """

    name = "base"
    params: tuple = ()
    t_min: float = -math.inf
    default_t0: float = 0.0
    sigma: Optional[float] = None
    certified_rate: Optional[tuple] = None

    def _evaluate(self, t: np.ndarray) -> dict:
        raise NotImplementedError

    def check_time(self, t) -> None:
        if np.any(np.asarray(t, dtype=float) < self.t_min):
            raise TimeDomainError(
                f"{self.name} schedule is only defined for t >= {self.t_min:g}"
            )

    def sample(self, t) -> ScheduleSample:
        scalar = np.ndim(t) == 0
        ts = np.asarray(t, dtype=float)
        self.check_time(ts)
        fields = self._evaluate(ts)
        # the standard form wherever `_evaluate` leaves a field out
        if "eta" not in fields:
            fields["eta"] = 2.0 * fields["alpha"]
        if "eta_dot" not in fields:
            fields["eta_dot"] = 2.0 * fields["alpha_dot"]
        missing = {"exp_pi", "exp_pi_dot"} - fields.keys()
        if missing:
            fields.update(dict.fromkeys(missing, np.zeros_like(ts)))
        if scalar:
            fields = {k: float(v) for k, v in fields.items()}
        return ScheduleSample(t=float(ts) if scalar else ts, **fields)

    def describe(self) -> dict:
        return {"family": self.name, **{p: getattr(self, p) for p in self.params}}


class ConstantDamping(ScheduleFamily):
    """Constant damping coefficient D under strong convexity sigma > 0.

    alpha is the constant log(D/2) for D <= 2*sqrt(sigma) and
    log((D - sqrt(D^2 - 4*sigma))/2) beyond; nu grows linearly at rate
    exp(alpha), which is the certified decay rate of the objective gap.
    """

    name = "constant"
    params = ("D", "sigma")
    t_min = -math.inf
    default_t0 = 0.0

    def __init__(self, D: float, sigma: float):
        if D <= 0:
            raise ConfigurationError("D must be positive")
        if sigma <= 0:
            raise ConfigurationError("constant damping requires sigma > 0")
        self.D = float(D)
        self.sigma = float(sigma)
        if D <= 2.0 * math.sqrt(sigma):
            self.exp_alpha = D / 2.0
        else:
            self.exp_alpha = (D - math.sqrt(D * D - 4.0 * sigma)) / 2.0
        self.certified_rate = ("exponential", self.exp_alpha)

    def _evaluate(self, t: np.ndarray) -> dict:
        # eta = 2 alpha comes from `sample`; its zero fields share one array
        zero = np.zeros_like(t)
        return {
            "alpha": np.full_like(t, math.log(self.exp_alpha)),
            "alpha_dot": zero,
            "delta_dot": np.full_like(t, self.D),
            "eta_dot": zero,
            "nu": self.exp_alpha * t,
            "nu_dot": np.full_like(t, self.exp_alpha),
            "exp_pi": zero,
            "exp_pi_dot": zero,
        }


class Hyperbolic(ScheduleFamily):
    """Hyperbolic-function damping; the sigma = 0 branch is 3/t damping.

    For sigma > 0 the damping coefficient tends to 2*sqrt(sigma) and the
    certified gap decay is 1/sinh^2(sqrt(sigma) t / 2); for sigma = 0 it is
    t^-2.  Defined for t >= t_min = 1e-3; near t -> 0+ exp(alpha) grows like 2/t,
    so the integration step must satisfy step * exp(alpha(t0)) <= 0.1.
    """

    name = "hyperbolic"
    params = ("sigma",)
    t_min = 1e-3
    default_t0 = 1e-3

    def __init__(self, sigma: float):
        if sigma < 0:
            raise ConfigurationError("sigma must be nonnegative")
        self.sigma = float(sigma)
        if self.sigma > 0.0:
            self.certified_rate = ("exponential", math.sqrt(self.sigma))
        else:
            self.certified_rate = ("polynomial", 2.0)

    def _evaluate(self, t: np.ndarray) -> dict:
        if self.sigma == 0.0:
            return {
                "alpha": np.log(2.0 / t),
                "alpha_dot": -1.0 / t,
                "delta_dot": 3.0 / t,
                "nu": 2.0 * np.log(t),
                "nu_dot": 2.0 / t,
            }
        s = math.sqrt(self.sigma)
        u = np.tanh(0.5 * s * t)
        return {
            "alpha": np.log(s / u),
            "alpha_dot": -s * (1.0 - u * u) / (2.0 * u),
            "delta_dot": s * (3.0 + u * u) / (2.0 * u),
            "nu": 2.0 * np.log(np.sinh(0.5 * s * t)),
            "nu_dot": s / u,
        }


class PolynomialDamping(ScheduleFamily):
    """Damping coefficient C/t for non-strongly-convex objectives (sigma = 0).

    The certified gap decay is t^(-2C/3) for C <= 3 and t^-2 beyond; the
    C != 3 cases carry a positive exp(pi) and therefore certify through the
    symmetric-divergence Lyapunov variant.
    """

    name = "polynomial"
    params = ("C",)
    t_min = 1e-3
    default_t0 = 1.0
    sigma = 0.0

    def __init__(self, C: float):
        if C <= 0:
            raise ConfigurationError("C must be positive")
        self.C = float(C)
        self.certified_rate = ("polynomial", min(2.0 * self.C / 3.0, 2.0))
        self.exp_pi_value = abs(3.0 - self.C) / (2.0 * self.C)

    def _evaluate(self, t: np.ndarray) -> dict:
        C = self.C
        nu_rate = self.certified_rate[1]
        return {
            "alpha": np.log(2.0 * C / (3.0 * t)),
            "alpha_dot": -1.0 / t,
            "delta_dot": C / t,
            "nu": nu_rate * np.log(t),
            "nu_dot": nu_rate / t,
            "exp_pi": np.full_like(t, self.exp_pi_value),
        }


class CustomSchedule(ScheduleFamily):
    """User-supplied callables for every sampled field; exp(pi) and its
    derivative default to zero.

    Callables must accept scalar or array t (numpy-vectorized expressions do).
    """

    name = "custom"
    params = ("description",)

    def __init__(
        self,
        alpha: Callable,
        alpha_dot: Callable,
        delta_dot: Callable,
        eta: Callable,
        eta_dot: Callable,
        nu: Callable,
        nu_dot: Callable,
        exp_pi: Optional[Callable] = None,
        exp_pi_dot: Optional[Callable] = None,
        t_min: float = -math.inf,
        default_t0: float = 0.0,
        description: str = "custom",
        sigma: Optional[float] = None,
    ):
        self._fields = {
            "alpha": alpha,
            "alpha_dot": alpha_dot,
            "delta_dot": delta_dot,
            "eta": eta,
            "eta_dot": eta_dot,
            "nu": nu,
            "nu_dot": nu_dot,
            "exp_pi": exp_pi,
            "exp_pi_dot": exp_pi_dot,
        }
        self.t_min = float(t_min)
        self.default_t0 = float(default_t0)
        self.description = description
        self.sigma = sigma

    def _evaluate(self, t: np.ndarray) -> dict:
        return {
            key: np.broadcast_to(np.asarray(fn(t), dtype=float), t.shape).copy()
            for key, fn in self._fields.items()
            if fn is not None
        }


class _ModifiedNu(CustomSchedule):
    """`base` with nu -> factor*nu + shift; see `with_modified_nu`."""

    def __init__(self, base: ScheduleFamily, factor: float, shift: float):
        self.base, self.factor, self.shift = base, factor, shift
        self.t_min = base.t_min
        self.default_t0 = base.default_t0
        self.description = f"{base.name} with nu scaled by {factor:g} and shifted by {shift:g}"
        self.sigma = base.sigma

    def _evaluate(self, t: np.ndarray) -> dict:
        fields = dict(vars(self.base.sample(t)))
        del fields["t"]
        fields["nu"] = self.factor * fields["nu"] + self.shift
        fields["nu_dot"] = self.factor * fields["nu_dot"]
        return fields


def with_modified_nu(base: ScheduleFamily, factor: float = 1.0, shift: float = 0.0) -> CustomSchedule:
    """Wrap a family with nu -> factor*nu + shift (nu_dot scales accordingly).

    A shift only rescales the Lyapunov function by a constant; a factor != 1
    changes the certified rate and, for factor > 1, breaks the condition
    nu_dot <= exp(alpha) -- the deliberate negative-control schedule.  The
    wrapper is a `CustomSchedule` and samples `base` once per call.
    """
    return _ModifiedNu(base, factor, shift)


@dataclass(frozen=True)
class ConditionReport:
    """Per-inequality slacks on a time grid; every slack must be <=
    CONDITION_TOLERANCE.

    The first item is reported as nu_dot - exp(alpha); the remaining three are
    the left-hand sides of the corresponding inequalities (all <= 0 when the
    schedule is admissible).
    """

    condition: str
    item_names: tuple
    times: np.ndarray
    slacks: np.ndarray  # shape (4, len(times))

    @property
    def item_worst(self) -> np.ndarray:
        return self.slacks.max(axis=1)

    @property
    def worst_slack(self) -> float:
        return float(self.slacks.max())

    @property
    def worst_time(self) -> float:
        flat = np.unravel_index(int(self.slacks.argmax()), self.slacks.shape)
        return float(self.times[flat[1]])

    @property
    def passed(self) -> bool:
        return bool(self.worst_slack <= CONDITION_TOLERANCE)

    def to_dict(self) -> dict:
        return {
            "condition": self.condition,
            "passed": self.passed,
            "tolerance": CONDITION_TOLERANCE,
            "worst_slack": self.worst_slack,
            "worst_time": self.worst_time,
            "item_worst": [float(v) for v in self.item_worst],
            "item_names": list(self.item_names),
            "grid": {
                "t0": float(self.times[0]),
                "t_end": float(self.times[-1]),
                "num": int(self.times.size),
            },
        }


def flow_coefficients(s: ScheduleSample) -> tuple:
    """(e^alpha, K, e^(alpha - eta)) at the sample s, with K = delta_dot +
    eta_dot - alpha_dot - e^alpha: the coefficients of the flow and of its
    conditions."""
    ea = np.exp(s.alpha)
    return ea, s.delta_dot + s.eta_dot - s.alpha_dot - ea, np.exp(s.alpha - s.eta)


def is_standard_form(s: ScheduleSample) -> bool:
    """eta = 2*alpha on the sample s, to 1e-12 relative to max |eta|."""
    return bool(np.max(np.abs(s.eta - 2.0 * s.alpha)) <= 1e-12 * (1.0 + np.max(np.abs(s.eta))))


def condition_slacks(s: ScheduleSample, sigma: float) -> tuple:
    """The four `general2` condition slacks (GENERAL2_ITEMS) at the sample s,
    whose fields are scalars or arrays alike.  Each must be <= 0 for an
    admissible schedule; with exp(pi) = 0 they are the `general` ones."""
    ea, K, ema = flow_coefficients(s)
    epa = s.exp_pi * ea
    return (
        s.nu_dot - ea,
        -K + s.nu_dot + s.eta_dot + epa,
        K - sigma * ema - epa + (s.nu_dot + s.eta_dot) * s.exp_pi + s.exp_pi_dot,
        -K - epa,
    )


def alpha_ode_residual(s: ScheduleSample, sigma: float):
    """e^alpha (slack2 + slack3 - slack1) of `condition_slacks` at s.

    In the standard form (eta = 2*alpha, exp(pi) = 0) this is the residual
    2*alpha_dot*e^alpha + e^(2*alpha) - sigma of the damping-scale ODE that
    makes slacks 1-3 tight."""
    s1, s2, s3, _ = condition_slacks(s, sigma)
    return np.exp(s.alpha) * (s2 + s3 - s1)


def check_general(
    family: ScheduleFamily,
    sigma: float,
    grid: np.ndarray,
    *,
    sample: Optional[ScheduleSample] = None,
) -> ConditionReport:
    """Base admissibility conditions for the standard Lyapunov function:
    `condition_slacks` with exp(pi) = 0.  `sample` is `family.sample(grid)`
    when the caller holds it already."""
    grid = np.asarray(grid, dtype=float)
    s = family.sample(grid) if sample is None else sample
    slacks = np.vstack(condition_slacks(dataclasses.replace(s, exp_pi=0.0, exp_pi_dot=0.0), sigma))
    return ConditionReport("general", GENERAL_ITEMS, grid, slacks)


def check_general2(
    family: ScheduleFamily,
    sigma: float,
    symmetric: bool,
    grid: np.ndarray,
    *,
    sample: Optional[ScheduleSample] = None,
) -> ConditionReport:
    """Relaxed conditions available when the divergence is symmetric.

    With exp(pi) = 0 everywhere this reduces exactly to `check_general`; a
    positive exp(pi) is only licensed by a symmetric divergence, so passing
    symmetric=False with exp(pi) > 0 on the grid is a precondition error.
    `sample` is as in `check_general`.
    """
    grid = np.asarray(grid, dtype=float)
    s = family.sample(grid) if sample is None else sample
    if np.any(s.exp_pi > 0) and not symmetric:
        raise PreconditionError(
            "schedule uses exp(pi) > 0, which requires a symmetric Bregman divergence"
        )
    slacks = np.vstack(condition_slacks(s, sigma))
    return ConditionReport("general2", GENERAL2_ITEMS, grid, slacks)


def check_para(family: ScheduleFamily, sigma: float, grid: np.ndarray) -> ConditionReport:
    """Standard-form conditions, specialized to eta = 2*alpha and the l2
    generator: with eta = 2*alpha, K = K2 = delta_dot + alpha_dot - e^alpha
    and the `condition_slacks` read as PARA_ITEMS."""
    grid = np.asarray(grid, dtype=float)
    s = family.sample(grid)
    if not is_standard_form(s):
        raise PreconditionError("standard form requires eta = 2*alpha on the grid")
    slacks = np.vstack(condition_slacks(s, sigma))
    return ConditionReport("para", PARA_ITEMS, grid, slacks)


def from_beta_parameterization(
    beta: Callable,
    beta_dot: Callable,
    alpha: Callable,
    alpha_dot: Callable,
    sigma: float,
    grid: np.ndarray,
) -> CustomSchedule:
    """Map the (beta, alpha) rate parameterization of earlier momentum-flow
    formulations onto this package's schedule fields.

    The mapping is nu_dot = beta_dot, eta = log(exp(-beta) + sigma),
    delta_dot = alpha_dot + exp(alpha) + beta_dot, with exp(pi) = 0.  It is
    admissible when 0 <= beta_dot(t) <= exp(alpha(t)) on the grid; the
    resulting schedule passes `check_general` by construction, with the
    second slack identically zero.  The schedule starts at grid[0].
    """
    grid = np.asarray(grid, dtype=float)
    if sigma < 0:
        raise ConfigurationError("sigma must be nonnegative")
    bd = np.asarray(beta_dot(grid), dtype=float)
    ea = np.exp(np.asarray(alpha(grid), dtype=float))
    if np.any(bd < -1e-12) or np.any(bd - ea > 1e-12):
        raise MappingError(
            "mapping requires 0 <= beta_dot(t) <= exp(alpha(t)) on the grid"
        )

    def eta(t):
        b = np.asarray(beta(t), dtype=float)
        if sigma == 0.0:
            return -b
        return np.logaddexp(-b, math.log(sigma))

    def eta_dot(t):
        b = np.asarray(beta(t), dtype=float)
        emb = np.exp(-b)
        return -np.asarray(beta_dot(t), dtype=float) * emb / (emb + sigma)

    return CustomSchedule(
        alpha=alpha,
        alpha_dot=alpha_dot,
        delta_dot=lambda t: np.asarray(alpha_dot(t), dtype=float)
        + np.exp(np.asarray(alpha(t), dtype=float))
        + np.asarray(beta_dot(t), dtype=float),
        eta=eta,
        eta_dot=eta_dot,
        nu=beta,
        nu_dot=beta_dot,
        t_min=float(grid[0]),
        default_t0=float(grid[0]),
        description="beta-parameterization mapping",
        sigma=sigma,
    )


def verify_alpha_ode_residual(sigma: float, grid: np.ndarray) -> float:
    """Max |`alpha_ode_residual`| of the hyperbolic family (sigma >= 0) on
    the grid: the residual of 2*alpha_dot*e^alpha + e^(2*alpha) - sigma = 0,
    read off the tight condition slacks.  The closed form solves this ODE
    exactly (at sigma = 0 it is 3/t damping), so the residual only measures
    floating-point defect.

    The same ODE admits the constant branch e^alpha = sqrt(sigma) (slacks 1-3
    identically zero; that is critical constant damping) and a slow branch
    e^alpha = sqrt(sigma)*tanh(sqrt(sigma) t/2), which carries a worse rate
    and is not shipped as a family.  The grid must lie in the family's domain
    t >= 1e-3 (`TimeDomainError` otherwise).
    """
    s = Hyperbolic(sigma).sample(grid)
    return float(np.max(np.abs(alpha_ode_residual(s, sigma))))
