"""Experiment runner: simulate, check-assumptions, reproduce-table, smooth-demo.

Exit codes are a stable contract for CI: 0 all enabled checks pass, 1 a check
failed (including an unusable rate fit), 2 configuration or output error
(including an output that cannot be written), 3 numerical failure
(divergence, domain exit, singular solve).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import lyapunov, smoothing
from .config import SMOOTHING_DEFAULTS, ExperimentConfig, load_config
from .dynamics import integrate, write_table
from .errors import (
    ConfigurationError,
    DomainError,
    FitError,
    MappingError,
    NumericalError,
    PreconditionError,
    ScheduleError,
    TimeDomainError,
)
from .schedules import ConstantDamping, Hyperbolic, PolynomialDamping, time_grid

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3

_CONFIG_ERRORS = (
    ConfigurationError,
    DomainError,
    TimeDomainError,
    PreconditionError,
    MappingError,
    ScheduleError,
)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _problem_and_variant(cfg: ExperimentConfig, family):
    """The configured problem and Lyapunov variant, None for `auto`."""
    if cfg.smoothing is None:
        variant = {"standard": lyapunov.Standard(), "symmetric": lyapunov.Symmetric()}.get(cfg.variant)
        return cfg.build_problem(), variant
    # the approximation comes with its l1_denoise problem
    approx, spec = smoothing.l1_denoise_approximation(cfg.problem_params["y"], cfg.problem_params["w"])
    mu_sched = smoothing.rate_preserving_mu(family, cfg.smoothing["epsilon"], cfg.smoothing["kind"])
    return spec, lyapunov.Smoothed(approx, mu_sched)


def _run_experiment(cfg: ExperimentConfig):
    """Build and integrate one configured run; returns (trajectory, spec, family)."""
    family = cfg.build_family()
    spec, variant = _problem_and_variant(cfg, family)
    icfg = cfg.build_integrator(family)
    x0, v0 = cfg.initial_point(spec.objective.dim)
    traj = integrate(spec.generator, spec.objective, family, icfg, x0, v0, variant=variant)
    return traj, spec, family


def _summarize(traj, cfg: ExperimentConfig, family) -> dict:
    """The run's reports and its verdict; a smoothed run also certifies its
    approximation on 10 000 samples drawn from `cfg.seed`."""
    mono = lyapunov.monotonicity_report(traj)
    bounds = lyapunov.bound_check(traj)
    integrals = lyapunov.integral_estimates(traj)
    grid = time_grid(traj.times[0], traj.times[-1], cfg.grid_num)
    conditions = lyapunov.check_conditions(traj.variant, family, traj.metadata["sigma"], grid)
    summary = {
        "metadata": traj.metadata,
        "monotonicity": mono.to_dict(),
        "bounds": bounds.to_dict(),
        "integrals": integrals.to_dict(),
        "conditions": conditions.to_dict(),
    }
    passed = mono.passed and bounds.passed and integrals.passed and conditions.passed
    if isinstance(traj.variant, lyapunov.Smoothed):
        cert = smoothing.certify_smooth_approx(traj.variant.approximation, 10_000, cfg.seed)
        summary["certification"] = cert.to_dict()
        passed = passed and cert.passed
    if cfg.fit is not None:
        window = cfg.fit.get("window")
        if window is None:
            window = (0.5 * (traj.times[0] + traj.times[-1]), float(traj.times[-1]))
        fitted = lyapunov.fit_rate(traj, cfg.fit["model"], window)
        fit_dict = fitted.to_dict()
        if cfg.fit.get("required") is not None:
            fit_dict["required"] = cfg.fit["required"]
            fit_dict["meets_required"] = bool(fitted.rate >= cfg.fit["required"])
            passed = passed and fit_dict["meets_required"]
        if cfg.fit.get("predicted") is not None:
            fit_dict["predicted"] = cfg.fit["predicted"]
        summary["fit"] = fit_dict
    summary["pass"] = bool(passed)
    return summary


def _run_command(name: str, cfg: ExperimentConfig, args, prefix: str = "") -> int:
    """Run `cfg` under `--out` and `--seed`; write its outputs under `prefix`ed names."""
    seed = cfg.seed if args.seed is None else smoothing.check_seed(args.seed, "--seed")
    cfg = dataclasses.replace(cfg, out_dir=args.out or cfg.out_dir, seed=seed)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj, spec, family = _run_experiment(cfg)
    summary = _summarize(traj, cfg, family)
    summary["seed"] = cfg.seed
    if "csv" in cfg.formats:
        traj.write_csv(out / f"{prefix}trajectory.csv")
    if "json" in cfg.formats:
        traj.write_json(out / f"{prefix}trajectory.json")
    _write_json(out / f"{prefix}summary.json", summary)
    if not args.quiet:
        state = "pass" if summary["pass"] else "FAIL"
        print(f"{name}: {spec.objective.name} under {family.describe()} -> {state}")
        print(f"outputs in {out}")
    return EXIT_PASS if summary["pass"] else EXIT_CHECK_FAILURE


def cmd_simulate(args) -> int:
    return _run_command("simulate", load_config(args.config), args)


def cmd_check_assumptions(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    family = cfg.build_family()
    spec, variant = _problem_and_variant(cfg, family)
    t0 = family.default_t0 if cfg.t0 is None else cfg.t0
    grid = time_grid(max(t0, family.t_min), cfg.t_end, cfg.grid_num)
    sigma = 0.0 if family.sigma is None else family.sigma
    # the conditions that `simulate` would certify for this config
    s = family.sample(grid)
    variant = lyapunov.resolve_variant(variant, spec.generator, s.exp_pi)[0]
    report = lyapunov.check_conditions(variant, family, sigma, grid, sample=s)
    names = ["t", "slack1", "slack2", "slack3", "slack4"]
    write_table(out / "slacks.csv", names, [grid, report.slacks.T])
    _write_json(out / "assumptions.json", report.to_dict())
    if not args.quiet:
        state = "pass" if report.passed else "FAIL"
        print(f"check-assumptions: {family.describe()} ({report.condition}) -> {state}")
        print(f"worst slack {report.worst_slack:.3e} at t = {report.worst_time:g}")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


# One entry per `ScheduleFamily.certified_rate` model: the (kind, params)
# problem, start point, horizon and fit window of its rows, and the share of
# the certified exponent that a row's fitted rate must reach.
_MODEL_RUNS = {
    "exponential": dict(
        problem=("quadratic", {"Q": np.diag([1.0, 4.0]), "b": np.zeros(2)}),
        x0=(1.0, 1.0), t_end=20.0, window=(10.0, 20.0), share=0.95,
    ),
    "polynomial": dict(
        problem=("flat_quadratic", {"A": np.array([[1.0, 1.0]]), "b": np.array([2.0])}),
        x0=(2.0, 1.0), t_end=100.0, window=(10.0, 100.0), share=0.9,
    ),
}


def canonical_grid() -> list:
    """The eight canonical (family, t0) runs behind reproduce-table, labelled
    by `describe()`; `certified_rate` gives each its model's run, its
    predicted exponent and the required share of it."""
    rows = []
    for family, t0 in (
        (ConstantDamping(1.0, 1.0), 0.0),
        (ConstantDamping(2.0, 1.0), 0.0),
        (ConstantDamping(4.0, 1.0), 0.0),
        (Hyperbolic(1.0), 0.1),
        (Hyperbolic(0.0), 1.0),
        (PolynomialDamping(1.5), 1.0),
        (PolynomialDamping(3.0), 1.0),
        (PolynomialDamping(6.0), 1.0),
    ):
        model, exponent = family.certified_rate
        run = _MODEL_RUNS[model]
        params = family.describe()
        label = " ".join([params.pop("family")] + [f"{k}={v:g}" for k, v in params.items()])
        rows.append(dict(run, label=label, family=family, t0=t0, model=model,
                         predicted=exponent, required=run["share"] * exponent))
    return rows


def _canonical_config(entry: dict, **integrator) -> ExperimentConfig:
    """One canonical row's run; `integrator` overrides `step` and `record_stride`."""
    kind, params = entry["problem"]
    family = entry["family"].describe()
    fit = {k: entry[k] for k in ("model", "window", "predicted", "required")}
    return ExperimentConfig(
        problem_kind=kind, problem_params=params, family_kind=family.pop("family"),
        family_params=family, t0=entry["t0"], t_end=entry["t_end"], x0=np.array(entry["x0"]),
        fit=fit, **integrator,
    )


def run_canonical(entry: dict, **integrator):
    """Integrate one canonical row (`_canonical_config`); returns (trajectory, fitted_rate)."""
    traj = _run_experiment(_canonical_config(entry, **integrator))[0]
    return traj, lyapunov.fit_rate(traj, entry["model"], entry["window"])


def cmd_reproduce_table(args) -> int:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for entry in canonical_grid():
        cfg = _canonical_config(entry)
        traj, _, family = _run_experiment(cfg)
        row = _summarize(traj, cfg, family)
        del row["metadata"]
        row.update({k: entry[k] for k in ("label", "model", "predicted", "required")})
        row.update(fitted=row["fit"]["rate"], passed=row.pop("pass"))
        rows.append(row)
        if not args.quiet:
            print(
                f"{row['label']}: fitted {row['fitted']:.4f} "
                f"(predicted {row['predicted']:.4f}, required {row['required']:.4f}) "
                f"{'pass' if row['passed'] else 'FAIL'}"
            )
    all_ok = all(r["passed"] for r in rows)
    table = lyapunov.render_rate_table(rows)
    (out / "rate_table.txt").write_text(table)
    _write_json(out / "rate_table.json", {"rows": rows, "pass": all_ok})
    if not args.quiet:
        print(table, end="")
        print(f"outputs in {out}")
    return EXIT_PASS if all_ok else EXIT_CHECK_FAILURE


# smooth-demo's run (README gives it as a config file); the horizon is chosen
# so the step resolves the smoothed curvature w/mu(t_end)
_SMOOTH_DEMO = ExperimentConfig(
    problem_kind="l1_denoise", problem_params={"y": np.array([2.0, 0.1]), "w": 1.0},
    family_kind="hyperbolic", family_params={"sigma": 0.0}, t0=1.0, t_end=14.0,
    x0=np.zeros(2), smoothing=SMOOTHING_DEFAULTS, formats=("csv",),
)


def cmd_smooth_demo(args) -> int:
    return _run_command("smooth-demo", _SMOOTH_DEMO, args, prefix="smooth_")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agflow",
        description="Accelerated gradient flows with Lyapunov certification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # (command, function, takes --config, takes --seed, help)
    for name, func, needs_config, seeded, text in (
        ("simulate", cmd_simulate, True, True, "integrate a configured flow and verify it"),
        ("check-assumptions", cmd_check_assumptions, True, False,
         "evaluate schedule conditions on a grid"),
        ("reproduce-table", cmd_reproduce_table, False, False, "run the canonical rate grid"),
        ("smooth-demo", cmd_smooth_demo, False, True, "run the smoothing pipeline on l1 denoising"),
    ):
        p = sub.add_parser(name, help=text)
        if needs_config:
            p.add_argument("--config", required=True, help="experiment config path")
        p.add_argument("--out", default=None, help="output directory")
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _CONFIG_ERRORS as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except FitError as exc:
        print(f"rate fit unusable: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:  # an unreadable config is a ConfigurationError already
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"output error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
