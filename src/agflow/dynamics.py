"""State equations of the accelerated flow and fixed-step integration.

The second-order flow is integrated as the first-order pair (x, z) with

    xdot = e^alpha (z - x)
    hess_h(z) zdot = -K [grad h(z) - grad h(x)]  -  e^(alpha - eta) grad f(x)

by classical fixed-step RK4, with e^alpha, K and e^(alpha - eta)
(`schedules.flow_coefficients`) sampled on the half-step grid in one pass.
Every flow is stepped in the deviation d = z - x, where it reads

    xdot = e^alpha d,   ddot = -(kappa + e^alpha) d + F,   F = -scale raw(x, d)

with one encoding of kappa, scale and raw for every generator
(`_stage_forcing`).  The stepping loop (the "stepping_loop" path) makes one
product and one `raw` call per stage, from stage coefficients that fold in x
and the scale (`rk4._folded_stage_coefficients`).  When f and h both declare
constant Hessians (and no smoothed gradient drives the flow), the flow from
its rest point splits into 2x2 modes, each step is a linear map per mode, and
`rk4._composed_maps` walks the maps (the "composed_maps" path).
`metadata["integrator"]` names the path and counts steps and gradient calls.

Either path hands its states to one shared check in blocks of consecutive
check and record points; after the walk, `lyapunov.record_diagnostics`
certifies the recorded states in vectorized passes over row chunks.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import shutil
import signal
import tempfile
import traceback
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import g17, lyapunov
from .bregman import DistanceGenerator, Objective
from .errors import (
    ConfigurationError,
    DivergenceError,
    IntegrationError,
    NumericalError,
    PreconditionError,
    TimeDomainError,
)
from .rk4 import _composed_maps, _folded_stage_coefficients
from .schedules import ScheduleFamily, ScheduleSample, flow_coefficients, is_standard_form

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

    def __post_init__(self):
        if not np.all(np.isfinite((self.t0, self.t_end, self.step))):
            raise ConfigurationError("t0, t_end and step must be finite")
        if not self.t0 < self.t_end:
            raise ConfigurationError("need t0 < t_end")
        if self.step <= 0 or self.step > self.t_end - self.t0:
            raise ConfigurationError("need 0 < step <= t_end - t0")
        if not isinstance(self.record_stride, (int, np.integer)) or self.record_stride < 1:
            raise ConfigurationError("record_stride must be an integer >= 1")


@dataclass
class Trajectory:
    """Recorded flow samples with their diagnostics.

    `times`, `states_x`, `states_z` are the recorded grid; `records` holds the
    diagnostics as one array per field (`lyapunov.Diagnostics`); `to_dict`
    and `perfbench/child.py` read them as per-sample rows.  The generator,
    objective, family, and Lyapunov variant handles are kept for downstream
    checks; `metadata` is the JSON-serializable description of the run.
    """

    times: np.ndarray
    states_x: np.ndarray
    states_z: np.ndarray
    records: lyapunov.Diagnostics
    metadata: dict
    h: DistanceGenerator
    f: Objective
    family: ScheduleFamily
    variant: object
    gradient_of: Callable[[Vector, float], Vector] = field(repr=False, default=None)

    def __len__(self) -> int:
        return int(self.times.size)

    def second_order_residual(self) -> float:
        """Max norm of the reconstructed second-order equation defect.

        With d = z - x the flow gives xddot = alpha_dot xdot + e^alpha ddot,
        and ddot = -(kappa + e^alpha) d + F from the integrator's own stage
        forcing (`_stage_forcing`).  xddot is taken by central differencing
        of the recorded velocity, so the defect measures recording-grid
        differencing error, not integrator error.
        """
        if len(self) < 3:
            raise ConfigurationError("need at least 3 recorded samples")
        s = self.family.sample(self.times)
        ea, K, ema = flow_coefficients(s)
        times = self.times.tolist()
        grad = lambda x, k: self.gradient_of(x, times[k])  # noqa: E731
        kappa, scale, raw = _stage_forcing(self.h, grad, K, ema)
        x, d = self.states_x, self.states_z - self.states_x
        F = np.zeros_like(d)
        for k in range(1, len(self) - 1):
            F[k] = -scale[k] * raw(k, x[k], d[k])
        xdot = ea[:, None] * d
        xddot = np.gradient(xdot, self.times, axis=0)
        ddot = F - (kappa + ea)[:, None] * d
        resid = xddot - s.alpha_dot[:, None] * xdot - ea[:, None] * ddot
        return float(np.max(np.linalg.norm(resid[1:-1], axis=1)))

    def write_csv(self, path) -> None:
        """Wire format: '.' decimal, LF endings, 17 significant digits."""
        n = self.states_x.shape[1]
        d = self.records
        cols = (
            ["t"]
            + [f"x{i}" for i in range(n)]
            + [f"z{i}" for i in range(n)]
            + ["V", "f_gap", "breg_xstar_z", "breg_xstar_x", "breg_z_x"]
            + [f"slack{i}" for i in range(1, 5)]
        )
        write_table(
            path,
            cols,
            [self.times, self.states_x, self.states_z, d.V, d.f_gap, d.breg_xstar_z]
            + [d.breg_xstar_x, d.breg_z_x, d.slack1, d.slack2, d.slack3, d.slack4],
        )

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "samples": [r._asdict() for r in self.records],
        }

    def write_json(self, path) -> None:
        """Write `to_dict()` as `json.dumps(..., indent=2, sort_keys=True)`
        plus a newline would, one chunk of samples at a time."""
        keys = sorted(lyapunov.DIAGNOSTIC_FIELDS)
        # floats go through %r, which is json's float format except for the
        # non-finite values, renamed below; no key contains "nan" or "inf"
        sample = "    {\n" + ",\n".join(f'      "{k}": %r' for k in keys) + "\n    }"
        head = json.dumps({"metadata": self.metadata}, indent=2, sort_keys=True)

        def text(block):
            body = ",\n".join(sample % tuple(r) for r in block.tolist())
            return body.replace("nan", "NaN").replace("inf", "Infinity")

        _write_rows(
            path,
            head[: -len("\n}")] + ',\n  "samples": [\n',
            [getattr(self.records, k) for k in keys],
            text,
            ",\n",
            "\n  ]\n}\n",
        )


def write_table(path, names, columns) -> None:
    """CSV with a header row of `names` and one row per sample of `columns`
    (arrays of shape (m,) or (m, k)): '.' decimal, LF endings, 17
    significant digits, the bytes of f"{v:.17g}" (`g17.csv_text`)."""
    _write_rows(path, ",".join(names) + "\n", columns, g17.csv_text, "", "")


def _writer_count(rows: int) -> int:
    """Processes that format a table of `rows` rows: one per usable CPU, but
    at most one per `lyapunov.ROW_CHUNK` rows, and one where `os.fork` is
    missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, rows // lyapunov.ROW_CHUNK))


# Values per text chunk of a table: bounds the writers' transient memory.
_TEXT_VALUES = 2**12


def _write_range(fh, columns, k0, k1, text, sep) -> None:
    """Write rows k0..k1-1 of the table `columns` (arrays of shape (m,) or
    (m, k)) as `text(block)` per chunk of about `_TEXT_VALUES` values, the
    block a float64 array of shape (rows, values per row); `sep` goes before
    every chunk but the table's first."""
    k1 = min(k1, len(columns[0]))
    width = sum(int(np.prod(np.shape(c)[1:])) for c in columns)
    step = max(1, _TEXT_VALUES // width)
    for k in range(k0, k1, step):
        block = np.column_stack([c[k : min(k + step, k1)] for c in columns])
        fh.write((sep if k else "") + text(block))


def _write_rows(path, head, columns, text, sep, tail) -> None:
    """Write `head`, the table's rows through `_write_range`, and `tail`.

    The rows are cut at `lyapunov.ROW_CHUNK` boundaries into `_writer_count`
    ranges.  This process writes range 0 straight into `path`; each other
    range is written by a forked worker into a scratch file beside `path`,
    which is appended in order.  Workers build their own rows, because rows
    built before the fork would have their pages copied by refcount writes in
    both processes.
    A worker that fails makes this raise OSError; live workers are killed
    and reaped, and scratch files deleted, however the write ends.
    """
    chunks = -(-len(columns[0]) // lyapunov.ROW_CHUNK)
    w = _writer_count(len(columns[0]))
    cuts = [lyapunov.ROW_CHUNK * (chunks * i // w) for i in range(w + 1)]
    workers, scratch = [], []
    with open(path, "w", newline="\n") as fh:
        try:
            # fork before anything is written, so no worker holds buffered output
            for i in range(1, w):
                fd, name = tempfile.mkstemp(
                    prefix=f".{os.path.basename(path)}.", suffix=".part",
                    dir=os.path.dirname(os.path.abspath(path)),
                )
                scratch.append(name)
                with open(fd, "w", newline="\n") as part:
                    pid = os.fork()
                    if pid == 0:  # worker: never returns into the caller
                        code = 1
                        try:
                            _write_range(part, columns, cuts[i], cuts[i + 1], text, sep)
                            part.flush()
                            code = 0
                        except BaseException:
                            os.write(2, traceback.format_exc().encode())
                        finally:
                            os._exit(code)
                workers.append(pid)
            fh.write(head)
            _write_range(fh, columns, cuts[0], cuts[1], text, sep)
            fh.flush()
            for i, name in enumerate(scratch, start=1):
                _, status = os.waitpid(workers[0], 0)
                workers.pop(0)
                code = os.waitstatus_to_exitcode(status)
                if code:
                    how = f"exited with status {code}" if code > 0 else f"died of signal {-code}"
                    raise OSError(errno.EIO, f"writer of rows {cuts[i]}.. {how}", str(path))
                with open(name, "rb") as part:
                    shutil.copyfileobj(part, fh.buffer)
            fh.write(tail)
        finally:
            for pid in workers:
                with contextlib.suppress(ProcessLookupError, ChildProcessError):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            for name in scratch:
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(name)


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
    """Right-hand side (xdot, zdot) of the first-order pair for a general
    generator h, evaluated by the stepping loop's own stage forcing:
    xdot = e^alpha d and zdot = -kappa d + F with d = z - x."""
    x, z = state.x, state.z
    for label, p in (("x", x), ("z", z)):
        if not h.domain_guard(p):
            raise IntegrationError(f"{label} = {p} left the domain of {h.name}", last_state=state)
    ea, K, ema = flow_coefficients(s)
    kappa, scale, raw = _stage_forcing(h, lambda x, j: f.gradient(x), np.array([K]), np.array([ema]))
    d = z - x
    return ea * d, -scale[0] * raw(0, x, d) - kappa[0] * d


def rhs_l2(f: Objective, s: ScheduleSample, state: FlowState):
    """Standard-form right-hand side: requires eta = 2*alpha.

    xdot = e^alpha (z - x);
    zdot = -(delta_dot + alpha_dot - e^alpha)(z - x) - e^(-alpha) grad f(x).
    Equivalent second-order form: xddot + delta_dot*xdot + grad f(x) = 0.
    """
    if not is_standard_form(s):
        raise PreconditionError(
            f"standard form requires eta = 2*alpha (eta={s.eta!r}, alpha={s.alpha!r})"
        )
    x, z = state.x, state.z
    ea = np.exp(s.alpha)
    # eta_dot = 2*alpha_dot here, so this equals delta_dot + alpha_dot - e^alpha;
    # written this way it matches rhs_general bit-for-bit on squared_euclidean.
    coef = s.delta_dot + s.eta_dot - s.alpha_dot - ea
    d = z - x
    return ea * d, -coef * d - np.exp(s.alpha - s.eta) * f.gradient(x)


def _stability_check(family: ScheduleFamily, t0: float, step: float) -> list:
    """Warn about a stiff initial layer; returns the warnings' texts."""
    ea0 = float(np.exp(family.sample(t0).alpha))
    if not step * ea0 > 0.1:
        return []
    text = (
        f"step * exp(alpha(t0)) = {step * ea0:.3g} > 0.1; the explicit integrator "
        "may be inaccurate in the initial layer (reduce step or start later)"
    )
    warnings.warn(text, RuntimeWarning, stacklevel=3)
    return [text]


def integrate(
    h: DistanceGenerator,
    f: Objective,
    family: ScheduleFamily,
    config: IntegratorConfig,
    x0: Vector,
    v0: Optional[Vector] = None,
    variant=None,
) -> Trajectory:
    """Integrate the flow and record diagnostics every `record_stride` steps.

    The horizon is snapped to a whole number of steps.  `variant` None is
    resolved by `lyapunov.resolve_variant` on the half-step grid; an f that
    is not smooth needs a `lyapunov.Smoothed` variant (see `_integrate_core`).
    """
    return _integrate_core(h, f, family, config, x0, v0, variant=variant)


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
    v0: Optional[Vector],
    variant=None,
) -> Trajectory:
    """The integrator behind `integrate` and `smoothed_flow`.

    A `lyapunov.Smoothed(a, mu)` variant is the smoothed run of a, whose base
    must be f: mu is evaluated once on the half-step grid (`half_step_grid`,
    `SmoothingSchedule.on_grid`), the flow is driven by a.grad_x(x, mu), or
    by grad f where a is exact, and the diagnostics read mu at the recorded
    points.  sigma is `family.sigma`, falling back to `f.sigma` (to 0 when
    smoothed).  `gradient_of(x, t)` is the gradient that drives the flow.
    `v0` defaults to zero; `x0` and `v0` must have shape (h.dim,).
    """
    x0 = np.asarray(x0, dtype=float)
    v0 = np.zeros_like(x0) if v0 is None else np.asarray(v0, dtype=float)
    if x0.shape != (h.dim,) or v0.shape != (h.dim,):
        raise ConfigurationError(f"x0 and v0 must have shape ({h.dim},)")
    if config.t0 < family.t_min:
        raise TimeDomainError(
            f"t0 = {config.t0:g} is below the admissible start {family.t_min:g} of {family.name}"
        )
    smoothed = isinstance(variant, lyapunov.Smoothed)
    if smoothed and variant.approximation.base is not f:
        raise ConfigurationError("a Smoothed variant's approximation must have f as its base")
    if not (smoothed or f.smooth):
        raise ConfigurationError(f"objective {f.name} is not smooth; integrate it under a Smoothed variant")
    warned = _stability_check(family, config.t0, config.step)

    n_steps, tgrid = half_step_grid(config)
    hstep = config.step
    t_end = config.t0 + n_steps * hstep

    # Schedule coefficients on the half-step grid, one vectorized evaluation.
    sg = family.sample(tgrid)
    ea_g, K_g, ema_g = flow_coefficients(sg)

    base_grad = f.gradient
    grad = lambda x, j: base_grad(x)  # noqa: E731
    gradient_of = lambda x, t: base_grad(x)  # noqa: E731
    if smoothed:
        a, mu_sched = variant.approximation, variant.mu_schedule
        mu_g = mu_sched.on_grid(tgrid)
        # an exact approximation drives the flow with f's own gradient, so the
        # run takes the same integration path as the unsmoothed flow of f
        if not a.exact:
            grad = lambda x, j: a.grad_x(x, mu_g[j])  # noqa: E731
        gradient_of = lambda x, t: a.grad_x(x, float(mu_sched.mu(t)))  # noqa: E731
    sigma = family.sigma
    if sigma is None:
        sigma = 0.0 if smoothed else f.sigma

    variant, fallback = lyapunov.resolve_variant(variant, h, sg.exp_pi)

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
    modes = None if smoothed and not a.exact else _modal_form(h, f, x)
    if modes is None:
        path = "stepping_loop"
        grad_evals = 4 * n_steps
        walk = _stepping_loop(h, grad, ea_g, K_g, ema_g, hstep, x, z, events)
    else:
        path = "composed_maps"
        grad_evals = _HESSIAN_CHECK_POINTS
        walk = _composed_maps(modes, ea_g, K_g, ema_g, hstep, x, z, events)

    recorded = (events % stride == 0) | (events == n_steps)
    rec_steps = np.concatenate(([0], events[recorded]))
    xs = np.empty((rec_steps.size, x.size))
    zs = np.empty((rec_steps.size, x.size))
    xs[0], zs[0] = x, z
    prev = (rec_steps[:1], x[None], z[None])  # the block checked last
    e = 0  # events walked
    r = 1  # rows recorded

    with np.errstate(all="ignore"):
        for steps, X, Z in walk:
            _check_block(h, config.t0, hstep, steps, X, Z, prev)
            prev = (steps, X, Z)
            rec = recorded[e : e + steps.size]
            e += steps.size
            k = r + np.count_nonzero(rec)
            xs[r:k], zs[r:k] = X[rec], Z[rec]
            r = k

    grid_idx = 2 * rec_steps
    s_rec = ScheduleSample(**{name: v[grid_idx] for name, v in vars(sg).items()})
    standard_form = h.identity_hessian and is_standard_form(sg)
    # free the half-step grid before the diagnostics pass (the finished walk
    # holds none of it)
    del tgrid, sg, ea_g, K_g, ema_g
    diag = lyapunov.record_diagnostics(
        variant, h, f, s_rec, xs, zs, xstar, fstar, sigma, mu=mu_g[grid_idx] if smoothed else None
    )

    metadata = {
        "problem": f.name,
        "generator": h.name,
        "schedule": family.describe(),
        "variant": variant.name,
        "sigma": float(sigma),
        "integrator": {
            "method": "rk4",
            "t0": float(config.t0),
            "t_end": float(t_end),
            "step": float(hstep),
            "record_stride": int(config.record_stride),
            "path": path,
            "steps": int(n_steps),
            "gradient_evaluations": int(grad_evals),
        },
        "warnings": warned + fallback,
        "x0": [float(v) for v in x0],
        "v0": [float(v) for v in v0],
        "V0": float(diag.V[0]),
        "standard_form": standard_form,
    }
    if smoothed:
        metadata["smoothing"] = {"approximation": a.name, "mu": mu_sched.description}

    return Trajectory(
        times=config.t0 + rec_steps * hstep,
        states_x=xs,
        states_z=zs,
        records=diag,
        metadata=metadata,
        h=h,
        f=f,
        family=family,
        variant=variant,
        gradient_of=gradient_of,
    )


def _check_block(h, t0, hstep, steps, X, Z, prev):
    """Check the states X[i], Z[i] after steps[i] of a block; `prev` is the
    block (steps, X, Z) checked before it.  Z is X plus the deviation in both
    walks, so it is finite only where X is: one vectorized pass checks Z's
    finiteness and both domains.  Only when it fails are the rows tried in
    order, and the first bad one raises `DivergenceError` (non-finite) or
    `IntegrationError` (out of domain, with the last valid state).
    """
    if np.isfinite(Z).all() and h.domain_guard(X) and h.domain_guard(Z):
        return
    last_valid = FlowState(float(t0 + prev[0][-1] * hstep), prev[1][-1], prev[2][-1])
    for i in range(steps.size):
        t = float(t0 + steps[i] * hstep)
        if not (np.isfinite(X[i]).all() and np.isfinite(Z[i]).all()):
            raise DivergenceError(f"non-finite state at t = {t:g} (last valid t = {last_valid.t:g})")
        if not (h.domain_guard(X[i]) and h.domain_guard(Z[i])):
            raise IntegrationError(f"state left the domain of {h.name} at t = {t:g}", last_state=last_valid)
        last_valid = FlowState(t, X[i], Z[i])


def _stage_forcing(h, grad, K_g, ema_g):
    """The flow in deviation coordinates d = z - x, for any generator h:
    xdot = e^alpha d, ddot = -(kappa + e^alpha) d + F, F = -scale raw(j, x, d)
    at half-step grid point j, where
      kappa = K, scale = e^(alpha - eta), raw = grad f(x)  when hess h = I;
      kappa = 0, scale = 1, raw = hess_h(z)^-1 [K (grad h(z) - grad h(x))
                                  + e^(alpha - eta) grad f(x)]  otherwise,
    with K from `schedules.flow_coefficients` and z = x + d.  Returns kappa
    and scale on the grid (no new grid-sized arrays) and `raw`; `grad(x, j)`
    is grad f at grid point j.
    """
    if h.identity_hessian:
        return K_g, ema_g, lambda j, x, d: grad(x, j)

    gh, solve = h.gradient, h.hessian_solve

    def raw(j, x, d):
        z = x + d
        try:
            return solve(z, K_g[j] * (gh(z) - gh(x)) + ema_g[j] * grad(x, j))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Hessian solve failed at z = {z}: {exc}") from exc

    return np.broadcast_to(0.0, K_g.shape), np.broadcast_to(1.0, K_g.shape), raw


# Steps per chunk of stage coefficients: bounds their transient memory.
_STEP_CHUNK = 256


def _stepping_loop(h, grad, ea_g, K_g, ema_g, hstep, x, z, events):
    """RK4 stepping for any generator and gradient, in deviation coordinates
    (`_stage_forcing`); yields the block (steps, X, Z) of each step listed in
    `events` on its own, so no step is taken past a state that fails its check.

    Y = [x, d, G_1 .. G_4] holds the state and the stages' raw forcings; the
    stage coefficients over it (`_folded_stage_coefficients`) are built per
    chunk of `_STEP_CHUNK` steps, so a stage is one product and one `raw`
    call.  x enters every point with coefficient 1, so a rest point (d = 0,
    F = 0) stays exact.  This is the general path and the reference the
    composed maps are tested against.
    """
    kappa_g, scale_g, raw = _stage_forcing(h, grad, K_g, ema_g)
    Y = np.empty((6, x.size))
    Y[0], Y[1] = x, z - x
    x, d, G1, G2, G3, G4 = Y  # views: every step writes them in place
    XD, Y3, Y4, Y5 = Y[:2], Y[:3], Y[:4], Y[:5]
    S = np.empty((2, x.size))  # a stage's point, then the step's update
    xs, ds = S
    n_steps = int(events[-1])
    # the events' grid points, read lazily: a list would grow with the horizon
    ends = (2 * int(k) for k in events)
    e, end = 0, next(ends)
    for k0 in range(0, n_steps, _STEP_CHUNK):
        k1 = min(k0 + _STEP_CHUNK, n_steps)
        chunk = _folded_stage_coefficients(ea_g, kappa_g, scale_g, hstep, k0, k1)
        # `raw` is handed rows of Y and S, which the next product overwrites
        # (see `Objective`).  The method `dot` is a shorter call than np.dot
        # or @ on these tiny operands, and `out=` saves an array per stage.
        for j, P2, P3, P4, U in zip(range(2 * k0, 2 * n_steps, 2), *chunk):
            G1[...] = raw(j, x, d)
            P2.dot(Y3, S)
            G2[...] = raw(j + 1, xs, ds)
            P3.dot(Y4, S)
            G3[...] = raw(j + 1, xs, ds)
            P4.dot(Y5, S)
            G4[...] = raw(j + 2, xs, ds)
            U.dot(Y, S)
            XD[...] = S
            if j + 2 == end:
                X = x[None].copy()
                yield events[e : e + 1], X, X + d
                e, end = e + 1, next(ends, 0)


# Points at which `_declared_hessian` evaluates the gradient: 0, x and x + 1.
_HESSIAN_CHECK_POINTS = 3


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
    S^T G S = diag(lam).  The rest point is x_r = S u_r with lam u_r = S^T r.
    In the deviation coordinates u = S^-1 (x - x_r), d = S^-1 (z - x) each
    mode is the stepping loop's identity-generator flow
        u' = e^alpha d,  d' = -(K + e^alpha) d - e^(alpha - eta) lam u.
    A flat mode (lam = 0) takes u_r = 0; its (S^T r)_i must vanish to
    round-off, else f has no stationary point and this raises
    ConfigurationError.  Returns (S, lam, x_r, S^-1), or None when either
    Hessian is undeclared.
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
    c = -(S.T @ grad0)
    flat = np.abs(lam) <= 1e-12 * np.max(np.abs(lam))
    if np.any(np.abs(c[flat]) > 1e-10 * (np.abs(S.T) @ np.abs(grad0))[flat]):
        raise ConfigurationError(
            f"objective {f.name} has no stationary point: its gradient does not vanish "
            "along a flat direction of its declared Hessian"
        )
    u_r = np.divide(c, lam, out=np.zeros_like(c), where=~flat)
    return S, lam, S @ u_r, S.T @ H
