"""Lyapunov-function evaluation, monotonicity certification, and rate bounds.

The certified energy is

    V(t) = e^nu ( e^eta [ D_h(x*, z) + e^pi D_h(x, x*) ] + f(x) - f(x*) )

(the e^pi term only for the symmetric variant; the smoothed variant replaces
the gap by  f~(x, mu) + beta_s mu - f~(x*, mu)).  Along an admissible schedule
V is nonincreasing, every recorded coefficient slack is nonpositive, and the
accumulated integral estimates stay below V(t0).
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import asdict, dataclass, fields, replace
from typing import Optional

import numpy as np

from . import schedules
from .bregman import DistanceGenerator, Objective, bregman_div, row_values
from .errors import ConfigurationError, FitError, PreconditionError
from .schedules import ScheduleSample, condition_slacks


class Standard:
    """V = e^nu ( e^eta D_h(x*, z) + f(x) - f(x*) )."""

    name = "standard"


class Symmetric:
    """Standard V plus the e^(nu+eta+pi) D_h(x, x*) term; needs symmetric h."""

    name = "symmetric"


@dataclass(frozen=True)
class Smoothed:
    """Smoothed-objective V, and the whole description of a smoothed run:
    the integrator drives the flow with the approximation's gradient under
    mu(t).  The budget term beta_s * int(nu_dot e^nu mu), with the
    approximation's beta_s, is the only allowed growth."""

    approximation: object  # smoothing.SmoothApproximation
    mu_schedule: object  # smoothing.SmoothingSchedule

    name = "smoothed"


def check_variant(variant, h: DistanceGenerator) -> None:
    """Raise PreconditionError for Symmetric on a non-symmetric h."""
    if isinstance(variant, Symmetric) and not h.symmetric:
        raise PreconditionError("symmetric variant requires a symmetric generator")


def resolve_variant(variant, h: DistanceGenerator, exp_pi) -> tuple:
    """(variant, warnings): None becomes Symmetric if exp(pi) > 0 somewhere
    and h is symmetric, else Standard (with a warning if exp(pi) > 0).
    `exp_pi` may be an array or a bool already folded over a grid (exp(pi)
    > 0 somewhere).  `check_variant` runs first."""
    check_variant(variant, h)
    if variant is None and np.any(exp_pi > 0):
        if h.symmetric:
            return Symmetric(), []
        warning = f"exp(pi) > 0 needs a symmetric generator, not {h.name}; certifying the standard V"
        return Standard(), [warning]
    return Standard() if variant is None else variant, []


def check_conditions(variant, family, sigma: float, grid, sample=None):
    """The conditions that certify `variant`: `check_general2` for Symmetric,
    else `check_general` (exp(pi) taken as 0); `sample` as there."""
    if isinstance(variant, Symmetric):
        return schedules.check_general2(family, sigma, True, grid, sample=sample)
    return schedules.check_general(family, sigma, grid, sample=sample)


@dataclass(frozen=True, eq=False)
class Diagnostics:
    """Certification data along a trajectory, one array entry per recorded
    sample (struct of arrays).

    slack1..slack4 are the condition left-hand sides at the sample (all must
    be <= 0 for an admissible schedule); integral_* are the running trapezoid
    accumulations of the three bounded integrands; budget is B(t) for smoothed
    runs (0 otherwise).  `len` counts the samples, and iteration yields them
    as `DiagnosticsRecord` rows, read by `Trajectory.to_dict` and by the
    benchmark's `perfbench/child.py::_final_state`; the rest take the arrays.
    Iteration converts `ROW_CHUNK // len(DIAGNOSTIC_FIELDS)` rows at a time,
    so it holds at most `ROW_CHUNK` Python floats, whatever the row count.
    """

    t: np.ndarray
    V: np.ndarray
    f_gap: np.ndarray
    breg_xstar_z: np.ndarray
    breg_xstar_x: np.ndarray
    breg_z_x: np.ndarray
    slack1: np.ndarray
    slack2: np.ndarray
    slack3: np.ndarray
    slack4: np.ndarray
    integral_xstar_z: np.ndarray
    integral_xstar_x: np.ndarray
    integral_z_x: np.ndarray
    budget: np.ndarray
    nu: np.ndarray
    eta: np.ndarray

    def __len__(self) -> int:
        return int(self.t.size)

    def __iter__(self):
        rows = ROW_CHUNK // len(DIAGNOSTIC_FIELDS)
        for k0 in range(0, len(self), rows):
            cols = [getattr(self, name)[k0 : k0 + rows].tolist() for name in DIAGNOSTIC_FIELDS]
            yield from map(DiagnosticsRecord._make, zip(*cols))


DIAGNOSTIC_FIELDS = tuple(f.name for f in fields(Diagnostics))

# Rows per chunk of the diagnostics pass and of the table writers' worker
# ranges, and values per window of the row iteration's conversion to Python
# floats.
ROW_CHUNK = 1024


# One recorded sample of `Diagnostics`, as Python floats.
DiagnosticsRecord = namedtuple("DiagnosticsRecord", DIAGNOSTIC_FIELDS)


def _energy(variant, h: DistanceGenerator, s: ScheduleSample, x, xstar, d_xstar_z, f_gap, mu):
    """V of the variant from its parts, at one state or a row batch of them.

    `d_xstar_z` is D_h(x*, z) and `f_gap` is f(x) - f(x*); `mu` is the
    smoothing parameter at each state (Smoothed variant only).
    """
    if isinstance(variant, Smoothed):
        a = variant.approximation
        mu_col = np.asarray(mu, dtype=float)[..., None]
        rows = np.shape(x)[:-1]
        gap = (
            row_values("approximation.value", a.value(x, mu_col), rows)
            + a.beta_s * mu
            - a.value(xstar, mu_col)
        )
    else:
        gap = f_gap
        if isinstance(variant, Symmetric):
            d_xstar_z = d_xstar_z + s.exp_pi * bregman_div(h, x, xstar)
    return np.exp(s.nu) * (np.exp(s.eta) * d_xstar_z + gap)


def _cumulative_trapezoid(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of g over t, starting at 0."""
    return np.concatenate(([0.0], np.cumsum(0.5 * np.diff(t) * (g[:-1] + g[1:]))))


def record_diagnostics(
    variant,
    h: DistanceGenerator,
    f: Objective,
    s: ScheduleSample,
    x: np.ndarray,
    z: np.ndarray,
    xstar: np.ndarray,
    fstar: float,
    sigma: float,
    mu: Optional[np.ndarray] = None,
) -> Diagnostics:
    """Diagnostics of a whole trajectory in vectorized passes.

    `s` is the schedule sampled at the m recorded times (array fields), `x`
    and `z` the recorded states, shape (m, n).  For the Smoothed variant `mu`
    holds mu at the recorded times.  The slacks are those of the variant's
    condition set (`check_conditions`).

    The terms computed from the states run over `ROW_CHUNK` rows at a time,
    so their (rows, n) temporaries stay O(ROW_CHUNK * n); the slacks, the
    budget and the integrals run on the whole columns.
    """
    m = s.t.size
    certified = s if isinstance(variant, Symmetric) else replace(s, exp_pi=0.0, exp_pi_dot=0.0)
    slack1, slack2, slack3, slack4 = condition_slacks(certified, sigma)
    budget = np.zeros_like(s.t)
    if isinstance(variant, Smoothed):
        growth = row_values("budget", variant.mu_schedule.budget(s.t[:-1], s.t[1:]), (m - 1,))
        budget = np.concatenate(([0.0], np.cumsum(variant.approximation.beta_s * growth)))

    V, f_gap, d_xstar_z, d_xstar_x, d_z_x = (np.empty(m) for _ in range(5))
    for k in range(0, m, ROW_CHUNK):
        rows = slice(k, k + ROW_CHUNK)
        xk, zk = x[rows], z[rows]
        d_xstar_z[rows] = bregman_div(h, xstar, zk)
        d_xstar_x[rows] = bregman_div(h, xstar, xk)
        d_z_x[rows] = bregman_div(h, zk, xk)
        f_gap[rows] = row_values(f"{f.name}.value", f.value(xk), xk.shape[:-1]) - fstar
        sk = ScheduleSample(**{name: v[rows] for name, v in vars(s).items()})
        V[rows] = _energy(
            variant, h, sk, xk, xstar, d_xstar_z[rows], f_gap[rows], None if mu is None else mu[rows]
        )

    ene = np.exp(s.nu + s.eta)
    return Diagnostics(
        t=s.t,
        V=V,
        f_gap=f_gap,
        breg_xstar_z=d_xstar_z,
        breg_xstar_x=d_xstar_x,
        breg_z_x=d_z_x,
        slack1=slack1,
        slack2=slack2,
        slack3=slack3,
        slack4=slack4,
        integral_xstar_z=_cumulative_trapezoid(s.t, ene * (-slack2) * d_xstar_z),
        integral_xstar_x=_cumulative_trapezoid(s.t, ene * (-slack3) * d_xstar_x),
        integral_z_x=_cumulative_trapezoid(s.t, ene * (-slack4) * d_z_x),
        budget=budget,
        nu=s.nu,
        eta=s.eta,
    )


# ---------------------------------------------------------------------------
# Reports: every field holds a Python value, cast where the report is built,
# so `to_dict` is `asdict` and its result goes straight to `json.dumps`.
# Each checks a fixed tolerance (README, "Certificates"):
MONOTONICITY_TOLERANCE = 1e-8
BOUND_TOLERANCE = 1e-6
INTEGRAL_TOLERANCE = 1e-3


@dataclass(frozen=True)
class MonotonicityReport:
    passed: bool
    max_increment: float
    tolerance: float
    argmax_time: float
    num_samples: int
    smoothed: bool

    to_dict = asdict


@dataclass(frozen=True)
class BoundReport:
    passed: bool
    worst_gap_margin: float
    worst_div_margin: float
    rel_tolerance: float
    derived_extension: bool

    to_dict = asdict


@dataclass(frozen=True)
class IntegralReport:
    passed: bool
    values: dict
    bound: float
    rel_tolerance: float
    degenerate: dict
    coefficient_violation: Optional[str]
    kinetic_applies: bool

    to_dict = asdict


@dataclass(frozen=True)
class FittedRate:
    model: str
    window: tuple
    slope: float
    residual: float
    num_used: int

    @property
    def rate(self) -> float:
        """Decay rate/exponent (positive for a decaying gap)."""
        return -self.slope

    def to_dict(self) -> dict:
        return {**asdict(self), "rate": self.rate}


def _clamp_dust(value: float) -> float:
    return 0.0 if -1e-12 <= value < 0.0 else value


def monotonicity_report(traj) -> MonotonicityReport:
    """Max consecutive V increment, to MONOTONICITY_TOLERANCE * max(1, V0);
    for smoothed runs the per-step budget increment is the only allowed growth."""
    d = traj.records
    if len(d) < 2:
        raise ConfigurationError("need at least 2 recorded samples")
    tol = MONOTONICITY_TOLERANCE * max(1.0, d.V[0])
    inc = np.diff(d.V)
    smoothed = isinstance(traj.variant, Smoothed)
    if smoothed:
        inc = inc - np.diff(d.budget)
    k = int(np.argmax(inc))
    return MonotonicityReport(
        passed=bool(inc[k] <= tol),
        max_increment=float(inc[k]),
        tolerance=float(tol),
        argmax_time=float(d.t[k + 1]),
        num_samples=len(d),
        smoothed=smoothed,
    )


def _bound_margin(lhs: np.ndarray, rhs: np.ndarray) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(rhs > 0, lhs / np.where(rhs > 0, rhs, 1.0), np.where(lhs <= 0, 0.0, np.inf))
    return float(np.max(ratio) - 1.0)


def bound_check(traj) -> BoundReport:
    """Verify f_gap <= e^-nu (V0 + B) and e^eta D_h(x*, z) <= e^-nu (V0 + B)
    at every recorded sample (B = 0 for unsmoothed runs)."""
    d = traj.records
    rhs = np.exp(-d.nu) * (d.V[0] + d.budget)
    m1 = _bound_margin(d.f_gap, rhs)
    m2 = _bound_margin(np.exp(d.eta) * d.breg_xstar_z, rhs)
    return BoundReport(
        passed=bool(max(m1, m2) <= BOUND_TOLERANCE),
        worst_gap_margin=m1,
        worst_div_margin=m2,
        rel_tolerance=BOUND_TOLERANCE,
        # bound shapes for the symmetric variant follow by the same integration
        # argument as the standard ones; mark them as derived extensions
        derived_extension=isinstance(traj.variant, Symmetric),
    )


def integral_estimates(traj) -> IntegralReport:
    """Check the accumulated integral estimates against V(t0).

    Each integrand coefficient (-slack2, -slack3, -slack4) must be nonnegative
    wherever sampled; an identically-zero coefficient is reported as the
    degenerate branch (the estimate reduces to 0 <= V(t0)).  For standard-form
    runs (eta = 2*alpha, euclidean h) the z/x integral equals the kinetic
    integral of e^nu (coef) ||xdot||^2 / 2.
    """
    d = traj.records
    bound = d.V[0] + d.budget[-1]
    coefs = {"xstar_z": -d.slack2, "xstar_x": -d.slack3, "z_x": -d.slack4}
    # round-off dust from nonnegative integrands is clamped in the report only;
    # Lyapunov arithmetic never clamps
    finals = {
        "xstar_z": _clamp_dust(float(d.integral_xstar_z[-1])),
        "xstar_x": _clamp_dust(float(d.integral_xstar_x[-1])),
        "z_x": _clamp_dust(float(d.integral_z_x[-1])),
    }
    # scale for classifying a coefficient as identically zero vs violated
    s0 = traj.family.sample(float(d.t[0]))
    scale = 1.0 + abs(s0.delta_dot) + float(np.exp(s0.alpha))
    violation = None
    degenerate = {}
    for key, c in coefs.items():
        degenerate[key] = bool(np.max(np.abs(c)) <= 1e-9 * scale)
        if np.min(c) < -1e-9 * scale:
            violation = (
                f"integrand coefficient for {key} is negative "
                f"(min {float(np.min(c)):.3e}); condition violated"
            )
    passed = violation is None and all(
        v <= bound * (1.0 + INTEGRAL_TOLERANCE) + 1e-300 for v in finals.values()
    )
    return IntegralReport(
        passed=bool(passed),
        values=finals,
        bound=float(bound),
        rel_tolerance=INTEGRAL_TOLERANCE,
        degenerate=degenerate,
        coefficient_violation=violation,
        kinetic_applies=bool(traj.metadata.get("standard_form", False)),
    )


def fit_rate(traj, model: str, window) -> FittedRate:
    """Least-squares slope of log(f_gap) against t (exponential) or log t
    (polynomial) over the window, excluding machine-zero gaps.

    The line is fitted in closed form on centred data, xc = x - mean(x) and
    yc = y - mean(y): slope = (xc . yc) / (xc . xc), and the residual is the
    RMS of yc - slope xc.  No LAPACK least-squares solve is made.
    """
    if model not in ("exponential", "polynomial"):
        raise ConfigurationError(f"unknown rate model {model!r}")
    lo, hi = float(window[0]), float(window[1])
    t = traj.times
    gap = traj.records.f_gap
    in_win = (t >= lo) & (t <= hi)
    if not np.any(in_win):
        raise FitError(f"no samples in window [{lo:g}, {hi:g}]")
    fstar_scale = max(1.0, abs(traj.f.optimal_value or 0.0))
    floor = max(np.finfo(float).eps * fstar_scale, 1e-13 * float(np.max(gap[in_win])))
    usable = in_win & (gap > floor)
    if int(np.count_nonzero(usable)) < 5:
        raise FitError(
            f"only {int(np.count_nonzero(usable))} usable samples (gap above {floor:.3e}) "
            f"in window [{lo:g}, {hi:g}]"
        )
    xv = t[usable] if model == "exponential" else np.log(t[usable])
    yv = np.log(gap[usable])
    xc = xv - np.mean(xv)
    yc = yv - np.mean(yv)
    slope = (xc @ yc) / (xc @ xc)
    resid = float(np.sqrt(np.mean((yc - slope * xc) ** 2)))
    return FittedRate(
        model=model,
        window=(lo, hi),
        slope=float(slope),
        residual=resid,
        num_used=int(np.count_nonzero(usable)),
    )


def render_rate_table(rows: list) -> str:
    """Aligned-column text table of (label, model, predicted, fitted, margin, pass)."""
    header = ("schedule", "model", "predicted", "fitted", "required", "status")
    table = [header]
    for r in rows:
        table.append(
            (
                r["label"],
                r["model"],
                f"{r['predicted']:.4f}",
                f"{r['fitted']:.4f}",
                f">= {r['required']:.4f}",
                "pass" if r["passed"] else "FAIL",
            )
        )
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    lines = []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines) + "\n"
