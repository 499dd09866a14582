"""Per-layer tracing of agflow, installed from outside the program.

The layers are agflow's modules.  `Tracer.install` replaces module attributes
that agflow looks up at call time with wrappers, and `objective`/`generator`
wrap callables with `dataclasses.replace` before they reach the integrator,
which binds `f.gradient`, `h.gradient` and `h.hessian_solve` once per call.

Every wrapper keeps a call count, self time (its duration minus that of
wrapped calls inside it) and the exceptions that leave its layer.  Coarse
spans (run, integrate, reports, output, ...) are also kept one by one, in
memory, and written out with the report when the child exits.
"""

from __future__ import annotations

import dataclasses
import time

LAYERS = ("schedules", "dynamics", "problems", "bregman", "lyapunov", "smoothing", "config", "cli")


class Probe:
    __slots__ = ("count", "self_time", "max_total")

    def __init__(self):
        self.count = 0
        self.self_time = 0.0
        self.max_total = 0.0


class Tracer:
    def __init__(self):
        self.probes: dict[str, Probe] = {}
        self.raised = dict.fromkeys(LAYERS, 0)
        self.spans: list[dict] = []
        self.steps = 0
        # one frame per active wrapped call: [layer, time spent in wrapped children]
        self._stack: list[list] = []
        self._open_spans: list[int] = []

    def wrap(self, key: str, fn, coarse: bool = False):
        """Wrap `fn` as probe `key` ("<layer>.<name>")."""
        probe = self.probes.setdefault(key, Probe())
        layer = key.split(".", 1)[0]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            if coarse:
                span = self._open(key)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if len(stack) < 2 or stack[-2][0] != layer:
                    self.raised[layer] += 1
                raise
            finally:
                dur = clock() - start
                stack.pop()
                probe.count += 1
                probe.self_time += dur - frame[1]
                if dur > probe.max_total:
                    probe.max_total = dur
                if stack:
                    stack[-1][1] += dur
                if coarse:
                    self._close(span)

        return traced

    def _open(self, name: str) -> int:
        parent = self._open_spans[-1] if self._open_spans else None
        self.spans.append({"name": name, "start": time.perf_counter(), "end": None, "parent": parent})
        self._open_spans.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._open_spans.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Run `fn` inside a coarse span that belongs to no layer."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- callables handed to the integrator --------------------------------

    def objective(self, f):
        return dataclasses.replace(f, gradient=self.wrap("problems.grad", f.gradient))

    def generator(self, h):
        return dataclasses.replace(
            h,
            value=self.wrap("bregman.gen", h.value),
            gradient=self.wrap("bregman.gen", h.gradient),
            hessian_solve=self.wrap("bregman.gen", h.hessian_solve),
        )

    def _problem_factory(self, factory):
        def build(*args, **kwargs):
            spec = factory(*args, **kwargs)
            return dataclasses.replace(
                spec, objective=self.objective(spec.objective), generator=self.generator(spec.generator)
            )

        return build

    def _approximation_factory(self, factory):
        def build(*args, **kwargs):
            approx, spec = factory(*args, **kwargs)
            return dataclasses.replace(approx, grad_x=self.wrap("smoothing.grad_x", approx.grad_x)), spec

        return build

    def _mu_factory(self, factory):
        def build(*args, **kwargs):
            sched = factory(*args, **kwargs)
            return dataclasses.replace(sched, mu=self.wrap("smoothing.mu", sched.mu))

        return build

    def _integrate_core(self, core):
        traced = self.wrap("dynamics.integrate", core, coarse=True)

        def counted(h, f, family, config, *args, **kwargs):
            # the integrator's own step count: the horizon snapped to whole steps
            self.steps += max(1, int(round((config.t_end - config.t0) / config.step)))
            return traced(h, f, family, config, *args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        from agflow import cli, dynamics, lyapunov, problems, schedules, smoothing

        core = self._integrate_core(dynamics._integrate_core)
        dynamics._integrate_core = core
        smoothing._integrate_core = core

        schedules.ScheduleFamily.sample = self.wrap("schedules.sample", schedules.ScheduleFamily.sample)
        for name in ("check_general", "check_general2", "check_para"):
            wrapped = self.wrap("schedules.conditions", getattr(schedules, name), coarse=True)
            setattr(schedules, name, wrapped)
            if hasattr(cli, name):
                setattr(cli, name, wrapped)

        for name in ("quadratic", "flat_quadratic", "l1_denoise"):
            setattr(problems, name, self._problem_factory(getattr(problems, name)))

        lyapunov.record_diagnostics = self.wrap("lyapunov.diag", lyapunov.record_diagnostics)
        lyapunov.bregman_div = self.wrap("bregman.div", lyapunov.bregman_div)
        for name in ("monotonicity_report", "bound_check", "integral_estimates", "fit_rate"):
            setattr(lyapunov, name, self.wrap("lyapunov.reports", getattr(lyapunov, name), coarse=True))

        smoothing.rate_preserving_mu = self._mu_factory(smoothing.rate_preserving_mu)
        smoothing.l1_denoise_approximation = self._approximation_factory(smoothing.l1_denoise_approximation)
        smoothing.certify_smooth_approx = self.wrap(
            "smoothing.certify", smoothing.certify_smooth_approx, coarse=True
        )

        cli.load_config = self.wrap("config.load", cli.load_config, coarse=True)
        for name in ("cmd_simulate", "cmd_check_assumptions", "cmd_reproduce_table", "cmd_smooth_demo"):
            setattr(cli, name, self.wrap("cli.command", getattr(cli, name), coarse=True))
        cli._write_json = self.wrap("cli.output", cli._write_json, coarse=True)
        dynamics.Trajectory.write_csv = self.wrap("cli.output", dynamics.Trajectory.write_csv, coarse=True)
        dynamics.Trajectory.to_dict = self.wrap("cli.output", dynamics.Trajectory.to_dict, coarse=True)

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        """Per-layer metrics of this process (all but those the parent measures)."""

        def probe(key):
            return self.probes.get(key, Probe())

        steps = self.steps
        integ = probe("dynamics.integrate")
        grad = probe("problems.grad")
        sample = probe("schedules.sample")
        metrics = {
            "dynamics.steps": steps,
            "dynamics.self_s": integ.self_time,
            "dynamics.step_us": 1e6 * integ.self_time / steps if steps else 0.0,
            "dynamics.integrate_s_max": integ.max_total,
            "problems.grad_calls": grad.count,
            "problems.grad_s": grad.self_time,
            "problems.grad_per_step": grad.count / steps if steps else 0.0,
            "schedules.sample_calls": sample.count,
            "schedules.sample_s": sample.self_time,
            "schedules.sample_per_step": sample.count / steps if steps else 0.0,
            "schedules.conditions_s": probe("schedules.conditions").self_time,
            "smoothing.mu_calls": probe("smoothing.mu").count,
            "smoothing.mu_s": probe("smoothing.mu").self_time,
            "smoothing.grad_x_calls": probe("smoothing.grad_x").count,
            "smoothing.grad_x_s": probe("smoothing.grad_x").self_time,
            "smoothing.certify_s": probe("smoothing.certify").self_time,
            "lyapunov.diag_calls": probe("lyapunov.diag").count,
            "lyapunov.diag_s": probe("lyapunov.diag").self_time,
            "lyapunov.reports_s": probe("lyapunov.reports").self_time,
            "bregman.div_calls": probe("bregman.div").count,
            "bregman.div_s": probe("bregman.div").self_time,
            "bregman.gen_calls": probe("bregman.gen").count,
            "bregman.gen_s": probe("bregman.gen").self_time,
            "cli.output_s": probe("cli.output").self_time,
            "cli.self_s": probe("cli.command").self_time,
            "config.load_s": probe("config.load").self_time,
        }
        metrics.update({f"{layer}.raised": n for layer, n in self.raised.items()})
        return {"metrics": metrics, "spans": self.spans}
