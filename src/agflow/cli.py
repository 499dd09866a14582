"""Experiment runner: simulate, check-assumptions, reproduce-table, smooth-demo.

Exit codes are a stable contract for CI: 0 all enabled checks pass, 1 a check
failed (including an unusable rate fit), 2 configuration or output error
(including an output that cannot be written), 3 numerical failure
(divergence, domain exit, singular solve).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import lyapunov, problems, smoothing
from .config import ExperimentConfig, load_config
from .dynamics import IntegratorConfig, integrate, write_table
from .errors import (
    ConfigurationError,
    FitError,
    MappingError,
    NumericalError,
    PreconditionError,
    ScheduleError,
    TimeDomainError,
    UnsupportedFamilyError,
)
from .schedules import (
    ConstantDamping,
    Hyperbolic,
    PolynomialDamping,
    check_general,
    check_general2,
    time_grid,
)

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_NUMERICAL = 3

_CONFIG_ERRORS = (
    ConfigurationError,
    TimeDomainError,
    PreconditionError,
    MappingError,
    ScheduleError,
    UnsupportedFamilyError,
)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _condition_report(family, sigma, grid, symmetric: bool):
    """`check_general2` where the schedule carries exp(pi) > 0 on the grid,
    `check_general` otherwise, from one sample of the grid."""
    s = family.sample(grid)
    if np.any(np.asarray(s.exp_pi) > 0):
        return check_general2(family, sigma, symmetric, grid, sample=s)
    return check_general(family, sigma, grid, sample=s)


def _run_experiment(cfg: ExperimentConfig):
    """Build and integrate one configured run; returns (trajectory, spec, family)."""
    spec = cfg.build_problem()
    family = cfg.build_family()
    icfg = cfg.build_integrator(family)
    x0, v0 = cfg.initial_point(spec.objective.dim)

    if cfg.smoothing is not None:
        approx, spec = smoothing.l1_denoise_approximation(
            cfg.problem_params["y"], cfg.problem_params["w"]
        )
        mu_sched = smoothing.rate_preserving_mu(
            family, cfg.smoothing["epsilon"], cfg.smoothing["kind"]
        )
        traj = smoothing.smoothed_flow(
            spec.generator, approx, family, mu_sched, icfg, x0, v0
        )
        return traj, spec, family

    variant = None
    if cfg.variant == "standard":
        variant = lyapunov.Standard()
    elif cfg.variant == "symmetric":
        variant = lyapunov.Symmetric()
    traj = integrate(
        spec.generator, spec.objective, family, icfg, x0, v0, variant=variant
    )
    return traj, spec, family


def _summarize(traj, cfg: ExperimentConfig, family) -> dict:
    mono = lyapunov.monotonicity_report(
        traj, tolerance=cfg.tol_mono_scale * max(1.0, traj.records.V[0])
    )
    bounds = lyapunov.bound_check(traj, rel_tolerance=cfg.bound_rel_tol)
    integrals = lyapunov.integral_estimates(traj, rel_tolerance=cfg.integral_rel_tol)
    sigma = traj.metadata["sigma"]
    grid = time_grid(traj.times[0], traj.times[-1], cfg.grid_num)
    conditions = _condition_report(family, sigma, grid, traj.h.symmetric)
    summary = {
        "metadata": traj.metadata,
        "monotonicity": mono.to_dict(),
        "bounds": bounds.to_dict(),
        "integrals": integrals.to_dict(),
        "conditions": conditions.to_dict(),
    }
    passed = mono.passed and bounds.passed and integrals.passed and conditions.passed
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


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    if args.seed is not None:
        cfg.seed = args.seed
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    traj, spec, family = _run_experiment(cfg)
    summary = _summarize(traj, cfg, family)
    summary["seed"] = cfg.seed
    if "csv" in cfg.formats:
        traj.write_csv(out / "trajectory.csv")
    if "json" in cfg.formats:
        traj.write_json(out / "trajectory.json")
    _write_json(out / "summary.json", summary)
    if not args.quiet:
        state = "pass" if summary["pass"] else "FAIL"
        print(f"simulate: {spec.objective.name} under {family.describe()} -> {state}")
        print(f"outputs in {out}")
    return EXIT_PASS if summary["pass"] else EXIT_CHECK_FAILURE


def cmd_check_assumptions(args) -> int:
    cfg = load_config(args.config)
    if args.out:
        cfg.out_dir = args.out
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    family = cfg.build_family()
    t0 = family.default_t0 if cfg.t0 is None else cfg.t0
    grid = time_grid(max(t0, family.t_min), cfg.t_end, cfg.grid_num)
    sigma = 0.0 if family.sigma is None else family.sigma
    report = _condition_report(family, sigma, grid, symmetric=True)
    names = ["t", "slack1", "slack2", "slack3", "slack4"]
    write_table(out / "slacks.csv", names, [grid, report.slacks.T])
    _write_json(out / "assumptions.json", report.to_dict())
    if not args.quiet:
        state = "pass" if report.passed else "FAIL"
        print(f"check-assumptions: {family.describe()} ({report.condition}) -> {state}")
        print(f"worst slack {report.worst_slack:.3e} at t = {report.worst_time:g}")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILURE


# One entry per `ScheduleFamily.certified_rate` model: the problem, start
# point, horizon and fit window of its rows, and the share of the certified
# exponent that a row's fitted rate must reach.
_MODEL_RUNS = {
    "exponential": dict(
        problem=lambda: problems.quadratic(np.diag([1.0, 4.0]), np.zeros(2)),
        x0=(1.0, 1.0), t_end=20.0, window=(10.0, 20.0), share=0.95,
    ),
    "polynomial": dict(
        problem=lambda: problems.flat_quadratic(np.array([[1.0, 1.0]]), np.array([2.0])),
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


def run_canonical(entry: dict, step: float = 1e-3, record_stride: int = 10):
    """Integrate one canonical row; returns (trajectory, fitted_rate)."""
    spec = entry["problem"]()
    icfg = IntegratorConfig(entry["t0"], entry["t_end"], step, record_stride)
    traj = integrate(spec.generator, spec.objective, entry["family"], icfg, np.array(entry["x0"]))
    return traj, lyapunov.fit_rate(traj, entry["model"], entry["window"])


def cmd_reproduce_table(args) -> int:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for entry in canonical_grid():
        traj, fitted = run_canonical(entry)
        mono = lyapunov.monotonicity_report(traj)
        bounds = lyapunov.bound_check(traj)
        integrals = lyapunov.integral_estimates(traj)
        ok = fitted.rate >= entry["required"] and all(r.passed for r in (mono, bounds, integrals))
        rows.append(
            {
                "label": entry["label"],
                "model": entry["model"],
                "predicted": entry["predicted"],
                "fitted": fitted.rate,
                "required": entry["required"],
                "passed": bool(ok),
                "monotone": mono.to_dict(),
                "bounds": bounds.to_dict(),
                "integrals": integrals.to_dict(),
            }
        )
        if not args.quiet:
            print(
                f"{entry['label']}: fitted {fitted.rate:.4f} "
                f"(predicted {entry['predicted']:.4f}, required {entry['required']:.4f}) "
                f"{'pass' if ok else 'FAIL'}"
            )
    all_ok = all(r["passed"] for r in rows)
    table = lyapunov.render_rate_table(rows)
    (out / "rate_table.txt").write_text(table)
    _write_json(out / "rate_table.json", {"rows": rows, "pass": all_ok})
    if not args.quiet:
        print(table, end="")
        print(f"outputs in {out}")
    return EXIT_PASS if all_ok else EXIT_CHECK_FAILURE


def cmd_smooth_demo(args) -> int:
    out = Path(args.out or "out")
    out.mkdir(parents=True, exist_ok=True)
    y = np.array([2.0, 0.1])
    w = 1.0
    epsilon = 0.5
    approx, spec = smoothing.l1_denoise_approximation(y, w)
    family = Hyperbolic(0.0)
    # horizon chosen so the step resolves the smoothed curvature w/mu(t_end)
    mu_sched = smoothing.rate_preserving_mu(family, epsilon, "exponential")
    icfg = IntegratorConfig(t0=1.0, t_end=14.0, step=1e-3, record_stride=10)
    traj = smoothing.smoothed_flow(
        spec.generator, approx, family, mu_sched, icfg, np.zeros(2)
    )
    cert = smoothing.certify_smooth_approx(approx, num_samples=10_000, seed=args.seed or 0)
    mono = lyapunov.monotonicity_report(traj)
    bounds = lyapunov.bound_check(traj)
    summary = {
        "metadata": traj.metadata,
        "certification": cert.to_dict(),
        "monotonicity": mono.to_dict(),
        "bounds": bounds.to_dict(),
        "pass": bool(cert.passed and mono.passed and bounds.passed),
    }
    traj.write_csv(out / "smooth_trajectory.csv")
    _write_json(out / "smooth_summary.json", summary)
    if not args.quiet:
        print(f"smooth-demo: {'pass' if summary['pass'] else 'FAIL'}; outputs in {out}")
    return EXIT_PASS if summary["pass"] else EXIT_CHECK_FAILURE


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
