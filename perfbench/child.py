"""One benchmark child process: run a workload once and write result.json.

Modes:
  plain  run the workload with no wrappers on hot paths;
  trace  install `tracer.Tracer` first and add its report to the result;
  probe  exit as soon as the workload first calls `integrate` or
         `smoothed_flow`, which measures set-up alone.

In every mode `integrate` and `smoothed_flow` (called once per run) are
wrapped to note the first call's `time.monotonic()` and each trajectory's
final state, which the parent checks against the stored reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np


def _final_state(traj) -> dict:
    V = np.array([r.V for r in traj.records])
    return {
        "x": traj.states_x[-1].tolist(),
        "z": traj.states_z[-1].tolist(),
        "V0": float(V[0]),
        "V_end": float(V[-1]),
        "scale_xz": float(max(np.max(np.abs(traj.states_x)), np.max(np.abs(traj.states_z)))),
        "scale_V": float(np.max(np.abs(V))),
    }


def _write(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload))


def _install_entry(result: dict, result_path: Path, probe: bool) -> None:
    import agflow
    from agflow import cli, smoothing

    def entry(fn):
        def wrapped(*args, **kwargs):
            if result["setup_mark"] is None:
                result["setup_mark"] = time.monotonic()
                if probe:
                    _write(result_path, result)
                    os._exit(0)
            traj = fn(*args, **kwargs)
            result["runs"].append(_final_state(traj))
            return traj

        return wrapped

    agflow.integrate = cli.integrate = entry(agflow.integrate)
    smoothing.smoothed_flow = entry(smoothing.smoothed_flow)


def _cli(argv) -> int:
    from agflow import cli

    return cli.main(argv)


def canonical_grid(args, out, wrap_generator) -> int:
    return _cli(["reproduce-table", "--out", str(out), "--quiet"])


def smooth_l1(args, out, wrap_generator) -> int:
    return _cli(["smooth-demo", "--out", str(out), "--seed", str(args.seed), "--quiet"])


def dense_record(args, out, wrap_generator) -> int:
    cfg = Path(args.inputs) / "dense_record.cfg"
    return _cli(["simulate", "--config", str(cfg), "--out", str(out), "--quiet"])


def entropy_general(args, out, wrap_generator) -> int:
    """Library run: the CLI config cannot select the negative-entropy generator."""
    import agflow
    from agflow import lyapunov, problems

    data = json.loads((Path(args.inputs) / "entropy_general.json").read_text())
    w = np.array(data["weights"])
    xstar = np.array(data["xstar"])
    spec = problems.quadratic(np.diag(w), w * xstar)
    h = wrap_generator(agflow.negative_entropy(w.size))
    family = agflow.PolynomialDamping(3.0)
    icfg = agflow.IntegratorConfig(t0=1.0, t_end=30.0, step=1e-3, record_stride=10)
    traj = agflow.integrate(h, spec.objective, family, icfg, np.array(data["x0"]))
    reports = {
        "monotonicity": lyapunov.monotonicity_report(traj).to_dict(),
        "bounds": lyapunov.bound_check(traj).to_dict(),
        "integrals": lyapunov.integral_estimates(traj).to_dict(),
    }
    passed = all(r["passed"] for r in reports.values())
    _write(Path(args.out) / "summary.json", {**reports, "pass": passed})
    return 0 if passed else 1


WORKLOADS = {f.__name__: f for f in (canonical_grid, smooth_l1, dense_record, entropy_general)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "probe"), required=True)
    args = parser.parse_args()

    out = Path(args.out)
    result_path = out / "result.json"
    result = {"setup_mark": None, "runs": []}
    wrap_generator = lambda h: h  # noqa: E731
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        wrap_generator = tracer.generator
    _install_entry(result, result_path, probe=args.mode == "probe")

    program_out = out / "program"
    run = WORKLOADS[args.workload]
    if tracer is None:
        code = run(args, program_out, wrap_generator)
    else:
        code = tracer.span("run", run, args, program_out, wrap_generator)
        result["trace"] = tracer.report()
    result["exit"] = code
    _write(result_path, result)
    return code


if __name__ == "__main__":
    sys.exit(main())
