"""State equations of the accelerated flow and fixed-step integration.

The second-order flow is integrated as the first-order pair (x, z) with

    xdot = e^alpha (z - x)
    hess_h(z) zdot = -K [grad h(z) - grad h(x)]  -  e^(alpha - eta) grad f(x)

by classical fixed-step RK4, with e^alpha, K and e^(alpha - eta)
(`schedules.flow_coefficients`) sampled on the half-step grid one chunk of
steps at a time (`_CoefficientStream`), as the walk reaches them.
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
from .bregman import DistanceGenerator, Objective, symmetric_eigh
from .errors import (
    ConfigurationError,
    DivergenceError,
    IntegrationError,
    NumericalError,
    TimeDomainError,
)
from .rk4 import _composed_maps, _folded_stage_coefficients
from .schedules import (
    ScheduleFamily,
    flow_coefficients,
    is_standard_form,
    standard_form_gap,
)

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
        kappa, scale, raw = _stage_forcing(self.h, grad, K, ema, 0)
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
    resolved by `lyapunov.resolve_variant` over the half-step grid; an f that
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


def _event_steps(n_steps: int, stride: int) -> tuple:
    """(events, recorded): the steps at which a run's state is checked or
    recorded, ascending (step 0, every min(stride, 25)-th, every stride-th
    and the last), and for each whether it is recorded (step 0, every
    stride-th and the last).  Both are read off one boolean mask over the
    steps, one byte a step."""
    check_every = max(1, min(stride, 25))
    mask = np.zeros(n_steps + 1, dtype=bool)
    mask[::check_every] = True
    mask[::stride] = True
    mask[n_steps] = True
    events = np.flatnonzero(mask)
    mask[::check_every] = False
    mask[::stride] = True
    mask[n_steps] = True
    return events, mask[events]


class _CoefficientStream:
    """The flow coefficients of `family` on the half-step grid `tgrid`, one
    chunk of steps at a time: `chunk(k0, k1)` samples grid points 2 k0 .. 2 k1,
    those of steps k0..k1-1, and returns (e^alpha, K, e^(alpha - eta)) there
    (`flow_coefficients`).

    It folds what the run needs of the whole grid over the chunks it hands
    out, exactly: whether exp(pi) > 0 anywhere (`lyapunov.resolve_variant`)
    and the `standard_form_gap`.  Both are complete once a walk has reached
    its last step.
    """

    def __init__(self, family: ScheduleFamily, tgrid: np.ndarray):
        self.family, self.tgrid = family, tgrid
        self.exp_pi_positive = False
        self.standard_gap = np.zeros(2)

    def chunk(self, k0: int, k1: int) -> tuple:
        s = self.family.sample(self.tgrid[2 * k0 : 2 * k1 + 1])
        self.exp_pi_positive = self.exp_pi_positive or bool(np.any(s.exp_pi > 0))
        self.standard_gap = np.maximum(self.standard_gap, standard_form_gap(s))
        return flow_coefficients(s)


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

    coefficients = _CoefficientStream(family, tgrid)

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

    # None is resolved after the walk, which samples exp(pi) on the grid
    lyapunov.check_variant(variant, h)

    if f.minimizer is None:
        raise ConfigurationError("objective needs a declared minimizer for diagnostics")
    xstar = np.asarray(f.minimizer, dtype=float)
    fstar = f.optimal_value if f.optimal_value is not None else float(f.value(xstar))

    state0 = initial_state(x0, v0, family, config.t0)
    x = state0.x.copy()
    z = state0.z.copy()
    if not (h.domain_guard(x) and h.domain_guard(z)):
        raise IntegrationError("initial state outside the generator domain", last_state=state0)

    events, recorded = _event_steps(n_steps, config.record_stride)
    rec_steps = events[recorded]
    modes = None if smoothed and not a.exact else _modal_form(h, f, x)
    if modes is None:
        path = "stepping_loop"
        grad_evals = 4 * n_steps
        walk = _stepping_loop(h, grad, coefficients.chunk, hstep, x, z, events[1:])
    else:
        path = "composed_maps"
        grad_evals = _HESSIAN_CHECK_POINTS
        walk = _composed_maps(modes, coefficients.chunk, hstep, x, z, events[1:])

    xs = np.empty((rec_steps.size, x.size))
    zs = np.empty((rec_steps.size, x.size))
    xs[0], zs[0] = x, z
    _walk_and_record(h, config.t0, hstep, walk, events, recorded, xs, zs)
    # the event list is not needed past the walk (the exhausted walk holds none of it)
    del events, recorded

    variant, fallback = lyapunov.resolve_variant(variant, h, coefficients.exp_pi_positive)
    standard_form = h.identity_hessian and is_standard_form(coefficients.standard_gap)
    # t0 + k step has the bits of tgrid[2k]: 0.5 step 2k is exact
    times = config.t0 + rec_steps * hstep
    mu_rec = mu_g[2 * rec_steps] if smoothed else None
    # free the half-step grid before the diagnostics pass (the finished walk
    # holds none of it)
    del tgrid, coefficients
    diag = lyapunov.record_diagnostics(
        variant, h, f, family.sample(times), xs, zs, xstar, fstar, sigma, mu=mu_rec
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
        times=times,
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


def _walk_and_record(h, t0, hstep, walk, events, recorded, xs, zs):
    """Check every block (steps, X, Z) of `walk` (`_check_block`) and copy
    its recorded states into xs, zs from row 1 on; events[0] = 0 is the
    initial state, row 0.  `recorded` flags the `events` to record."""
    prev = (events[:1], xs[:1], zs[:1])  # the block checked last
    e = r = 1  # events walked and rows recorded, the initial state's included
    with np.errstate(all="ignore"):
        for steps, X, Z in walk:
            _check_block(h, t0, hstep, steps, X, Z, prev)
            prev = (steps, X, Z)
            rec = recorded[e : e + steps.size]
            e += steps.size
            k = r + np.count_nonzero(rec)
            xs[r:k], zs[r:k] = X[rec], Z[rec]
            r = k


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


def _stage_forcing(h, grad, K, ema, j0):
    """The flow in deviation coordinates d = z - x, for any generator h:
    xdot = e^alpha d, ddot = -(kappa + e^alpha) d + F, F = -scale raw(j, x, d)
    at half-step grid point j, where
      kappa = K, scale = e^(alpha - eta), raw = grad f(x)  when hess h = I;
      kappa = 0, scale = 1, raw = hess_h(z)^-1 [K (grad h(z) - grad h(x))
                                  + e^(alpha - eta) grad f(x)]  otherwise,
    with K from `schedules.flow_coefficients` and z = x + d.  K and ema hold
    K and e^(alpha - eta) at grid points j0, j0 + 1, ...  Returns kappa and
    scale at those points (no new arrays of their size) and `raw`; `grad(x,
    j)` is grad f at grid point j.
    """
    if h.identity_hessian:
        return K, ema, lambda j, x, d: grad(x, j)

    gh, solve = h.gradient, h.hessian_solve

    def raw(j, x, d):
        z = x + d
        try:
            return solve(z, K[j - j0] * (gh(z) - gh(x)) + ema[j - j0] * grad(x, j))
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"Hessian solve failed at z = {z}: {exc}") from exc

    return np.broadcast_to(0.0, K.shape), np.broadcast_to(1.0, K.shape), raw


# Steps per chunk of stage coefficients: bounds their transient memory.
_STEP_CHUNK = 256


def _stepping_loop(h, grad, coefficients, hstep, x, z, events):
    """RK4 stepping for any generator and gradient, in deviation coordinates
    (`_stage_forcing`); yields the block (steps, X, Z) of each step listed in
    `events` on its own, so no step is taken past a state that fails its check.

    Y = [x, d, G_1 .. G_4] holds the state and the stages' raw forcings.  Per
    chunk of `_STEP_CHUNK` steps k0..k1-1, `coefficients(k0, k1)` gives
    (e^alpha, K, e^(alpha - eta)) at grid points 2 k0 .. 2 k1 (see
    `_CoefficientStream`), and the stage coefficients over Y are built from
    them (`_folded_stage_coefficients`), so a stage is one product and one
    `raw` call.  x enters every point with coefficient 1, so a rest point
    (d = 0, F = 0) stays exact.  This is the general path and the reference
    the composed maps are tested against.
    """
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
        ea, K, ema = coefficients(k0, k1)
        kappa, scale, raw = _stage_forcing(h, grad, K, ema, 2 * k0)
        chunk = _folded_stage_coefficients(ea, kappa, scale, hstep)
        # `raw` is handed rows of Y and S, which the next product overwrites
        # (see `Objective`).  The method `dot` is a shorter call than np.dot
        # or @ on these tiny operands, and `out=` saves an array per stage.
        for j, P2, P3, P4, U in zip(range(2 * k0, 2 * k1, 2), *chunk):
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
    S^T G S = diag(lam): H = V diag(w) V^T whitens to W = V / sqrt(w)
    (H is positive definite iff w[0] > 0, else ConfigurationError), and
    W^T G W = U diag(lam) U^T gives S = W U.  Both spectra come from
    `bregman.symmetric_eigh`, which reads a diagonal matrix off, so
    diagonal H and G need no LAPACK call; H = I gives W = I exactly.
    The rest point is x_r = S u_r with lam u_r = S^T r.
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
    w, V = symmetric_eigh(H)
    if not w[0] > 0:
        raise ConfigurationError(f"declared Hessian of {h.name} is not positive definite")
    W = V / np.sqrt(w)
    lam, U = symmetric_eigh(W.T @ G @ W)
    S = W @ U
    c = -(S.T @ grad0)
    flat = np.abs(lam) <= 1e-12 * np.max(np.abs(lam))
    if np.any(np.abs(c[flat]) > 1e-10 * (np.abs(S.T) @ np.abs(grad0))[flat]):
        raise ConfigurationError(
            f"objective {f.name} has no stationary point: its gradient does not vanish "
            "along a flat direction of its declared Hessian"
        )
    u_r = np.divide(c, lam, out=np.zeros_like(c), where=~flat)
    return S, lam, S @ u_r, S.T @ H
