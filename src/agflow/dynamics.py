"""State equations of the accelerated flow and fixed-step integration.

The second-order flow is integrated as the first-order pair (x, z) with

    xdot = e^alpha (z - x)
    hess_h(z) zdot = -(delta_dot + eta_dot - alpha_dot - e^alpha)
                       [grad h(z) - grad h(x)]  -  e^(alpha - eta) grad f(x)

using classical fixed-step 4th-order Runge-Kutta.  Schedule coefficients are
precomputed on the half-step grid in one vectorized pass, so the per-step cost
is a handful of small-vector operations.

When f and h both declare constant Hessians (and no gradient override is
given) the flow is linear in (x, z), and each RK4 step is an exact affine map.
The integrator then splits the flow into decoupled 2x2 modes, builds and
composes the step maps in vectorized passes, and walks only the composed
maps (the "composed_maps" path).  Every other flow runs the stepping loop
(the "stepping_loop" path), which is also the reference for the maps.
`metadata["integrator"]["path"]` names the path taken.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bregman import DistanceGenerator, Objective
from .errors import (
    ConfigurationError,
    DivergenceError,
    IntegrationError,
    NumericalError,
    PreconditionError,
    TimeDomainError,
)
from .schedules import ScheduleFamily, ScheduleSample

Vector = np.ndarray


@dataclass(frozen=True)
class FlowState:
    """The pair (x, z) at time t; z - x = e^(-alpha) * xdot by construction."""

    t: float
    x: Vector
    z: Vector


@dataclass(frozen=True)
class IntegratorConfig:
    t0: float
    t_end: float
    step: float = 1e-3
    record_stride: int = 10
    method: str = "rk4"

    def __post_init__(self):
        if not self.t0 < self.t_end:
            raise ConfigurationError("need t0 < t_end")
        if self.step <= 0 or self.step > self.t_end - self.t0:
            raise ConfigurationError("need 0 < step <= t_end - t0")
        if self.record_stride < 1:
            raise ConfigurationError("record_stride must be >= 1")
        if self.method != "rk4":
            raise ConfigurationError(f"unsupported method {self.method!r}")


@dataclass
class Trajectory:
    """Recorded flow samples with per-sample diagnostics.

    `times`, `states_x`, `states_z` are the recorded grid; `records` holds one
    DiagnosticsRecord per sample.  The generator, objective, family, and
    Lyapunov variant handles are kept for downstream checks; `metadata` is the
    JSON-serializable description of the run.
    """

    times: np.ndarray
    states_x: np.ndarray
    states_z: np.ndarray
    records: list
    metadata: dict
    h: DistanceGenerator
    f: Objective
    family: ScheduleFamily
    variant: object
    gradient_of: Callable[[Vector, float], Vector] = field(repr=False, default=None)

    def __len__(self) -> int:
        return int(self.times.size)

    def state(self, k: int) -> FlowState:
        return FlowState(float(self.times[k]), self.states_x[k], self.states_z[k])

    def xdot(self) -> np.ndarray:
        """Velocity at the recorded samples, e^alpha (z - x)."""
        s = self.family.sample(self.times)
        return np.exp(s.alpha)[:, None] * (self.states_z - self.states_x)

    def second_order_residual(self) -> float:
        """Max norm of the reconstructed second-order equation defect.

        xddot (by central differencing of the recorded velocity) plus
        (e^alpha - alpha_dot) xdot plus the solved damping/gradient group must
        vanish along the flow; the defect measures recording-grid differencing
        error, not integrator error.
        """
        if len(self) < 3:
            raise ConfigurationError("need at least 3 recorded samples")
        s = self.family.sample(self.times)
        ea = np.exp(s.alpha)
        K = s.delta_dot + s.eta_dot - s.alpha_dot - ea
        xdot = ea[:, None] * (self.states_z - self.states_x)
        xddot = np.gradient(xdot, self.times, axis=0)
        worst = 0.0
        for k in range(1, len(self) - 1):
            x, z = self.states_x[k], self.states_z[k]
            grad = self.gradient_of(x, float(self.times[k]))
            group = ea[k] * K[k] * (self.h.gradient(z) - self.h.gradient(x)) + np.exp(
                s.alpha[k] * 2.0 - s.eta[k]
            ) * grad
            resid = xddot[k] + (ea[k] - s.alpha_dot[k]) * xdot[k] + self.h.hessian_solve(z, group)
            worst = max(worst, float(np.linalg.norm(resid)))
        return worst

    def write_csv(self, path) -> None:
        """Wire format: '.' decimal, LF endings, 17 significant digits."""
        n = self.states_x.shape[1]
        cols = (
            ["t"]
            + [f"x{i}" for i in range(n)]
            + [f"z{i}" for i in range(n)]
            + ["V", "f_gap", "breg_xstar_z", "breg_xstar_x", "breg_z_x"]
            + [f"slack{i}" for i in range(1, 5)]
        )
        with open(path, "w", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for k, r in enumerate(self.records):
                vals = (
                    [self.times[k]]
                    + list(self.states_x[k])
                    + list(self.states_z[k])
                    + [r.V, r.f_gap, r.breg_xstar_z, r.breg_xstar_x, r.breg_z_x]
                    + [r.slack1, r.slack2, r.slack3, r.slack4]
                )
                fh.write(",".join(f"{v:.17g}" for v in vals) + "\n")

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "samples": [r.to_dict() for r in self.records],
        }


def initial_state(x0: Vector, v0: Vector, family: ScheduleFamily, t0: float) -> FlowState:
    """Build (x, z) from position and velocity: z = x0 + e^(-alpha(t0)) v0."""
    family.check_time(t0)
    x0 = np.asarray(x0, dtype=float)
    v0 = np.asarray(v0, dtype=float)
    s = family.sample(t0)
    return FlowState(t=float(t0), x=x0, z=x0 + np.exp(-s.alpha) * v0)


def rhs_general(
    h: DistanceGenerator, f: Objective, s: ScheduleSample, state: FlowState
):
    """Right-hand side of the first-order pair for a general generator h."""
    x, z = state.x, state.z
    for label, p in (("x", x), ("z", z)):
        if not h.domain_guard(p):
            raise IntegrationError(f"{label} = {p} left the domain of {h.name}", last_state=state)
    ea = np.exp(s.alpha)
    K = s.delta_dot + s.eta_dot - s.alpha_dot - ea
    rhs = -K * (h.gradient(z) - h.gradient(x)) - np.exp(s.alpha - s.eta) * f.gradient(x)
    try:
        zdot = h.hessian_solve(z, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hessian solve failed at z = {z}: {exc}") from exc
    return ea * (z - x), zdot


def rhs_l2(f: Objective, s: ScheduleSample, state: FlowState):
    """Standard-form right-hand side: requires eta = 2*alpha.

    xdot = e^alpha (z - x);
    zdot = -(delta_dot + alpha_dot - e^alpha)(z - x) - e^(-alpha) grad f(x).
    Equivalent second-order form: xddot + delta_dot*xdot + grad f(x) = 0.
    """
    if abs(s.eta - 2.0 * s.alpha) > 1e-12 * (1.0 + abs(s.eta)):
        raise PreconditionError(
            f"standard form requires eta = 2*alpha (eta={s.eta!r}, alpha={s.alpha!r})"
        )
    x, z = state.x, state.z
    ea = np.exp(s.alpha)
    # eta_dot = 2*alpha_dot here, so this equals delta_dot + alpha_dot - e^alpha;
    # written this way it matches rhs_general bit-for-bit.
    coef = s.delta_dot + s.eta_dot - s.alpha_dot - ea
    d = z - x
    return ea * d, -coef * d - np.exp(s.alpha - s.eta) * f.gradient(x)


def _stability_check(family: ScheduleFamily, t0: float, step: float) -> None:
    ea0 = float(np.exp(family.sample(t0).alpha))
    if step * ea0 > 0.1:
        warnings.warn(
            f"step * exp(alpha(t0)) = {step * ea0:.3g} > 0.1; the explicit integrator "
            "may be inaccurate in the initial layer (reduce step or start later)",
            RuntimeWarning,
            stacklevel=3,
        )


def integrate(
    h: DistanceGenerator,
    f: Objective,
    family: ScheduleFamily,
    config: IntegratorConfig,
    x0: Vector,
    v0: Optional[Vector] = None,
    variant=None,
    sigma: Optional[float] = None,
) -> Trajectory:
    """Integrate the flow and record diagnostics every `record_stride` steps.

    The horizon is snapped to a whole number of steps.  `variant` defaults to
    the symmetric Lyapunov function when the schedule carries exp(pi) > 0 (and
    h is symmetric), the standard one otherwise.  `sigma` defaults to the
    family's uniform-convexity constant, falling back to the objective's.
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.zeros_like(x0) if v0 is None else np.asarray(v0, dtype=float)
    if x0.shape != (h.dim,) or v0.shape != (h.dim,):
        raise ConfigurationError(f"x0 and v0 must have shape ({h.dim},)")
    return _integrate_core(h, f, family, config, x0, v0, variant=variant, sigma=sigma)


def half_step_grid(config: IntegratorConfig):
    """(n_steps, tgrid): the horizon snapped to a whole number of steps, and
    the RK4 half-step grid tgrid[j] = t0 + j * step / 2, j = 0..2 n_steps.

    Step k evaluates its stages at grid points 2k, 2k + 1 and 2k + 2.
    """
    n_steps = max(1, int(round((config.t_end - config.t0) / config.step)))
    return n_steps, config.t0 + 0.5 * config.step * np.arange(2 * n_steps + 1)


def _integrate_core(
    h: DistanceGenerator,
    f: Objective,
    family: ScheduleFamily,
    config: IntegratorConfig,
    x0: Vector,
    v0: Vector,
    variant=None,
    sigma: Optional[float] = None,
    gradient_override: Optional[Callable[[Vector, int], Vector]] = None,
    extra_metadata: Optional[dict] = None,
) -> Trajectory:
    """The integrator behind `integrate` and `smoothed_flow`.

    `gradient_override(x, j)`, if given, replaces grad f at half-step grid
    point j (see `half_step_grid`) and forces the stepping loop.  The
    trajectory's `gradient_of(x, t)` is grad f; a caller that overrides the
    gradient attaches its own time form.
    """
    from . import lyapunov  # deferred: lyapunov consumes dynamics types

    if config.t0 < family.t_min:
        raise TimeDomainError(
            f"t0 = {config.t0:g} is below the admissible start {family.t_min:g} of {family.name}"
        )
    _stability_check(family, config.t0, config.step)

    n_steps, tgrid = half_step_grid(config)
    hstep = config.step
    t_end = config.t0 + n_steps * hstep

    # Schedule coefficients on the half-step grid, one vectorized evaluation.
    sg = family.sample(tgrid)
    ea_g = np.exp(sg.alpha)
    K_g = sg.delta_dot + sg.eta_dot - sg.alpha_dot - ea_g
    ema_g = np.exp(sg.alpha - sg.eta)

    base_grad = f.gradient
    grad = gradient_override
    if grad is None:
        grad = lambda x, j: base_grad(x)  # noqa: E731

    if sigma is None:
        fam_sigma = getattr(family, "sigma", None)
        sigma = f.sigma if fam_sigma is None else fam_sigma

    if variant is None:
        uses_pi = bool(np.any(sg.exp_pi > 0))
        variant = lyapunov.Symmetric() if (uses_pi and h.symmetric) else lyapunov.Standard()
    elif isinstance(variant, lyapunov.Symmetric) and not h.symmetric:
        raise PreconditionError("symmetric variant requires a symmetric generator")

    if f.minimizer is None:
        raise ConfigurationError("objective needs a declared minimizer for diagnostics")
    xstar = np.asarray(f.minimizer, dtype=float)
    fstar = f.optimal_value if f.optimal_value is not None else float(f.value(xstar))

    state0 = initial_state(x0, v0, family, config.t0)
    x = state0.x.copy()
    z = state0.z.copy()
    if not (h.domain_guard(x) and h.domain_guard(z)):
        raise IntegrationError("initial state outside the generator domain", last_state=state0)

    stride = config.record_stride
    check_every = max(1, min(stride, 25))
    # steps after which the state is checked or recorded
    events = np.array(
        sorted({*range(check_every, n_steps, check_every), *range(stride, n_steps, stride), n_steps})
    )
    modes = None if gradient_override is not None else _modal_form(h, f, x)
    if modes is None:
        path = "stepping_loop"
        walk = _stepping_loop(h, grad, ea_g, K_g, ema_g, hstep, x, z, events)
    else:
        path = "composed_maps"
        walk = _composed_maps(modes, ea_g, K_g, ema_g, hstep, x, z, events)

    n_rec = 1 + np.count_nonzero((events % stride == 0) | (events == n_steps))
    times = np.empty(n_rec)
    xs = np.empty((n_rec, x.size))
    zs = np.empty((n_rec, x.size))
    times[0], xs[0], zs[0] = config.t0, x, z
    rec0 = lyapunov.record_diagnostics(
        variant, h, f, _sample_at(sg, 0), x, z, xstar, fstar, sigma, prev=None
    )
    records = [rec0]
    last_valid = (config.t0, x.copy(), z.copy())

    with np.errstate(all="ignore"):
        for step_idx, x, z in walk:
            t_now = config.t0 + step_idx * hstep

            if step_idx % check_every == 0 or step_idx == n_steps:
                if not (np.isfinite(x).all() and np.isfinite(z).all()):
                    raise DivergenceError(
                        f"non-finite state at t = {t_now:g} (last valid t = {last_valid[0]:g})"
                    )
                if not (h.domain_guard(x) and h.domain_guard(z)):
                    raise IntegrationError(
                        f"state left the domain of {h.name} at t = {t_now:g}",
                        last_state=FlowState(last_valid[0], last_valid[1], last_valid[2]),
                    )
                last_valid = (t_now, x.copy(), z.copy())

            if step_idx % stride == 0 or step_idx == n_steps:
                r = len(records)
                times[r], xs[r], zs[r] = t_now, x, z
                records.append(
                    lyapunov.record_diagnostics(
                        variant,
                        h,
                        f,
                        _sample_at(sg, 2 * step_idx),
                        x,
                        z,
                        xstar,
                        fstar,
                        sigma,
                        prev=records[-1],
                    )
                )

    metadata = {
        "problem": f.name,
        "generator": h.name,
        "schedule": family.describe(),
        "variant": variant.name,
        "sigma": float(sigma),
        "integrator": {
            "method": config.method,
            "t0": float(config.t0),
            "t_end": float(t_end),
            "step": float(hstep),
            "record_stride": int(config.record_stride),
            "path": path,
        },
        "x0": [float(v) for v in x0],
        "v0": [float(v) for v in v0],
        "V0": float(rec0.V),
        "standard_form": bool(
            h.identity_hessian
            and np.max(np.abs(sg.eta - 2.0 * sg.alpha)) <= 1e-12 * (1.0 + np.max(np.abs(sg.eta)))
        ),
    }
    if extra_metadata:
        metadata.update(extra_metadata)

    return Trajectory(
        times=times,
        states_x=xs,
        states_z=zs,
        records=records,
        metadata=metadata,
        h=h,
        f=f,
        family=family,
        variant=variant,
        gradient_of=lambda x, t: base_grad(x),
    )


def _stepping_loop(h, grad, ea_g, K_g, ema_g, hstep, x, z, events):
    """RK4 stepping on (x, z) for any generator and gradient; yields
    (step, x, z) after each step listed in `events`.  `grad(x, j)` is the
    objective's gradient at half-step grid point j.

    This is the general path and the reference the composed maps are tested
    against.
    """
    identity = h.identity_hessian
    gh = h.gradient
    solve = h.hessian_solve
    half = 0.5 * hstep
    sixth = hstep / 6.0
    done = 0
    for event in events.tolist():
        for k in range(done, event):
            j = 2 * k
            if identity:
                d = z - x
                kx1 = ea_g[j] * d
                kz1 = -K_g[j] * d - ema_g[j] * grad(x, j)
                x1 = x + half * kx1
                z1 = z + half * kz1
                d = z1 - x1
                kx2 = ea_g[j + 1] * d
                kz2 = -K_g[j + 1] * d - ema_g[j + 1] * grad(x1, j + 1)
                x2 = x + half * kx2
                z2 = z + half * kz2
                d = z2 - x2
                kx3 = ea_g[j + 1] * d
                kz3 = -K_g[j + 1] * d - ema_g[j + 1] * grad(x2, j + 1)
                x3 = x + hstep * kx3
                z3 = z + hstep * kz3
                d = z3 - x3
                kx4 = ea_g[j + 2] * d
                kz4 = -K_g[j + 2] * d - ema_g[j + 2] * grad(x3, j + 2)
            else:
                kx1, kz1 = _general_stage(gh, solve, grad, ea_g, K_g, ema_g, j, x, z)
                x1 = x + half * kx1
                z1 = z + half * kz1
                kx2, kz2 = _general_stage(gh, solve, grad, ea_g, K_g, ema_g, j + 1, x1, z1)
                x2 = x + half * kx2
                z2 = z + half * kz2
                kx3, kz3 = _general_stage(gh, solve, grad, ea_g, K_g, ema_g, j + 1, x2, z2)
                x3 = x + hstep * kx3
                z3 = z + hstep * kz3
                kx4, kz4 = _general_stage(gh, solve, grad, ea_g, K_g, ema_g, j + 2, x3, z3)

            x = x + sixth * (kx1 + 2.0 * (kx2 + kx3) + kx4)
            z = z + sixth * (kz1 + 2.0 * (kz2 + kz3) + kz4)
        done = event
        yield event, x, z


def _declared_hessian(gradient, hessian, x, label):
    """A declared constant Hessian M, checked against its gradient.

    Requires M symmetric and gradient(p) = M p + gradient(0) to round-off at
    p = x and p = x + 1; raises ConfigurationError otherwise.
    """
    n = x.size
    M = np.asarray(hessian, dtype=float)
    if M.shape != (n, n) or np.max(np.abs(M - M.T)) > 1e-12 * np.max(np.abs(M)):
        raise ConfigurationError(f"declared {label} Hessian must be a symmetric {n} x {n} matrix")
    g0 = np.asarray(gradient(np.zeros(n)), dtype=float)
    for p in (x, x + 1.0):
        err = np.max(np.abs(np.asarray(gradient(p), dtype=float) - (M @ p + g0)))
        scale = np.max(np.abs(M) @ np.abs(p) + np.abs(g0))
        if not err <= 1e-10 * scale:
            raise ConfigurationError(
                f"declared {label} Hessian does not match its gradient (mismatch {err:.3g})"
            )
    return 0.5 * (M + M.T), g0


def _modal_form(h: DistanceGenerator, f: Objective, x: Vector):
    """Split a flow whose f and h declare constant Hessians into 2x2 modes.

    With grad f(x) = G x - r and hess h = H, S solves S^T H S = I and
    S^T G S = diag(lam).  In u = S^-1 x, w = S^-1 z each mode obeys
        u' = e^alpha (w - u),  w' = -K (w - u) - e^(alpha - eta) (lam u - c)
    with c = S^T r.  Returns (S, lam, c, S^-1), or None when either Hessian
    is undeclared.
    """
    if f.hessian is None or h.hessian is None:
        return None
    G, grad0 = _declared_hessian(f.gradient, f.hessian, x, "objective")
    H, _ = _declared_hessian(h.gradient, h.hessian, x, "generator")
    try:
        L = np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise ConfigurationError(f"declared Hessian of {h.name} is not positive definite") from exc
    L_inv = np.linalg.inv(L)
    lam, U = np.linalg.eigh(L_inv @ G @ L_inv.T)
    S = L_inv.T @ U
    return S, lam, -(S.T @ grad0), S.T @ H


# Step-modes per chunk of step maps: bounds the maps' transient memory.
_MAP_CHUNK = 4096


def _mv(A, y):
    """Stacked 2x2 matrices times stacked 2-vectors."""
    return (A @ y[..., None])[..., 0]


def _rk4_step_maps(ea_g, K_g, ema_g, lam, c, hstep, k0, k1):
    """RK4 step maps y -> M y + v of steps k0..k1-1, for every mode.

    Mode i obeys y' = A(t) y + a(t) on y = (u_i, w_i), with
    A = [[-e^alpha, e^alpha], [K - e^(alpha - eta) lam_i, -K]] and
    a = (0, e^(alpha - eta) c_i), at the loop's half-step grid points.
    Returns M of shape (steps, n, 2, 2) and v of shape (steps, n, 2).
    """
    j = 2 * np.arange(k0, k1)

    def field(idx):
        ea, K, ema = ea_g[idx, None], K_g[idx, None], ema_g[idx, None]
        A = np.empty((idx.size, lam.size, 2, 2))
        A[..., 0, 0] = -ea
        A[..., 0, 1] = ea
        A[..., 1, 0] = K - ema * lam
        A[..., 1, 1] = -K
        a = np.zeros((idx.size, lam.size, 2))
        a[..., 1] = ema * c
        return A, a

    A1, a1 = field(j)
    A2, a2 = field(j + 1)
    A3, a3 = field(j + 2)
    half = 0.5 * hstep
    # stage k_i = P_i y + q_i
    P2 = A2 + half * (A2 @ A1)
    q2 = a2 + half * _mv(A2, a1)
    P3 = A2 + half * (A2 @ P2)
    q3 = a2 + half * _mv(A2, q2)
    P4 = A3 + hstep * (A3 @ P3)
    q4 = a3 + hstep * _mv(A3, q3)
    sixth = hstep / 6.0
    M = np.eye(2) + sixth * (A1 + 2.0 * (P2 + P3) + P4)
    v = sixth * (a1 + 2.0 * (q2 + q3) + q4)
    return M, v


def _compose_blocks(M, v, starts, lengths):
    """Compose the step maps of each block [start, start + length) into one map."""
    Mb = M[starts]
    vb = v[starts]
    for j in range(1, int(lengths.max())):
        live = np.flatnonzero(lengths > j)
        idx = starts[live] + j
        vb[live] = _mv(M[idx], vb[live]) + v[idx]
        Mb[live] = M[idx] @ Mb[live]
    return Mb, vb


def _composed_maps(modes, ea_g, K_g, ema_g, hstep, x, z, events):
    """RK4 on a linear flow as composed per-mode affine maps; yields
    (step, x, z) after each step listed in `events`.

    Each block of steps ends at an event.  A chunk of blocks has its step maps
    built in one vectorized pass and composed per block; the blocks are then
    walked in order.  RK4 commutes with the linear change of variables, so
    this is the stepping loop's method and differs from it by round-off only.
    """
    S, lam, c, to_modes = modes
    y = np.stack([to_modes @ x, to_modes @ z], axis=-1)
    starts = np.concatenate(([0], events[:-1]))
    per_chunk = max(1, _MAP_CHUNK // (lam.size * int(np.max(events - starts))))
    for b0 in range(0, events.size, per_chunk):
        ev = events[b0 : b0 + per_chunk]
        st = starts[b0 : b0 + per_chunk]
        M, v = _rk4_step_maps(ea_g, K_g, ema_g, lam, c, hstep, st[0], ev[-1])
        Mb, vb = _compose_blocks(M, v, st - st[0], ev - st)
        Y = np.empty((ev.size,) + y.shape)
        for b in range(ev.size):
            y = _mv(Mb[b], y) + vb[b]
            Y[b] = y
        X = Y[..., 0] @ S.T
        Z = Y[..., 1] @ S.T
        for b in range(ev.size):
            yield int(ev[b]), X[b], Z[b]


def _general_stage(gh, solve, grad, ea_g, K_g, ema_g, j, x, z):
    rhs = -K_g[j] * (gh(z) - gh(x)) - ema_g[j] * grad(x, j)
    try:
        zdot = solve(z, rhs)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hessian solve failed at z = {z}: {exc}") from exc
    return ea_g[j] * (z - x), zdot


def _sample_at(sg: ScheduleSample, idx: int) -> ScheduleSample:
    """Scalar view into a vectorized sample bundle."""
    return ScheduleSample(
        t=float(sg.t[idx]),
        alpha=float(sg.alpha[idx]),
        alpha_dot=float(sg.alpha_dot[idx]),
        delta_dot=float(sg.delta_dot[idx]),
        eta=float(sg.eta[idx]),
        eta_dot=float(sg.eta_dot[idx]),
        nu=float(sg.nu[idx]),
        nu_dot=float(sg.nu_dot[idx]),
        exp_pi=float(sg.exp_pi[idx]),
        exp_pi_dot=float(sg.exp_pi_dot[idx]),
    )
