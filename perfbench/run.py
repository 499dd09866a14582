"""agflow benchmark: end-to-end and per-layer metrics for four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the repository.  Each workload run is a separate
single-threaded child process (`child.py`), started one after another in a
closed loop of one, for at least S seconds.  Every child is checked: exit
code 0, every certificate and fitted rate in its summary passes, and the
final x, z, V0 and V_end of every trajectory match `reference.json` within
its relative tolerance.  A child that fails a check is never timed.

--trace 0 prints the end-to-end metrics, each over the run's children:
  wall_p90_s   90th percentile of process spawn to exit;
  setup_s      90th percentile of process spawn to the first call into
               `integrate` or `smoothed_flow`, also taken from set-up probes
               that exit there;
  peak_rss_mb  median of the child's own max RSS, from os.wait4;
  fail_frac    failed child processes / child processes started (printed
               here; the result line carries it as `failed` / `attempted`).
--trace 1 alternates plain and traced children and prints the per-layer
metrics of the traced ones (see tracer.py) and the tracing overhead.

Times are reported at the 90th percentile, not the median, because the
speed of a shared host is uneven: for stretches of seconds to minutes it
runs the same child up to 1.5x faster than usual, and a run's median jumps
with the share of the run such a stretch covers.  The upper tail stays
closer to the usual speed.  Over 10 seeds of 30 s on a shared 2-vCPU VM, the quartile spread /
median of the run values was lower at the 90th percentile than at the
median in each of six sets (three workloads, twice): 0.09-0.23 against
0.12-0.35.  The medians are printed beside them.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it name
every metric with its unit and describe the machine.  The exit code is 0
when every check passed, 1 when one failed, and 2 when the program under
`src/` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import inputs
from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = ROOT / ".perfbench_work"
# BENCHMARK.json keeps smooth_l1 and dense_record, which between them reach
# every layer, and leaves the others to runs by hand: a canonical_grid child
# takes over 30 s, so a run times it once, and on a shared host two workloads
# with long runs give steadier figures than four with short ones
WORKLOADS = ("canonical_grid", "smooth_l1", "dense_record", "entropy_general")
SETUP_PROBES = 5
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads_per_child": 1,
    }


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


@dataclass
class Child:
    """One finished child process and what it reported."""

    mode: str
    out: Path
    wall: float
    setup: float | None
    rss_mb: float
    exit_code: int
    result: dict | None
    failures: list = field(default_factory=list)
    output_bytes: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


class Spawner:
    """The small process (spawner.py) that starts and times every child."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, cmd: list, log: Path, timeout: float) -> dict:
        request = {"cmd": cmd, "env": child_env(), "cwd": str(ROOT), "log": str(log), "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=RUN_DEADLINE_S)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            self.proc.wait()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if exc[0] is not None:
            self.proc.terminate()
        self.close()


def spawn(spawner: Spawner, mode: str, workload: str, seed: int, input_dir: Path, out: Path,
          deadline: float) -> Child:
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--inputs", str(input_dir), "--out", str(out), "--mode", mode,
    ]
    reply = spawner.run(cmd, out / "child.log", max(0.0, deadline - time.monotonic()))
    try:
        result = json.loads((out / "result.json").read_text())
    except (OSError, ValueError):
        result = None
    mark = result.get("setup_mark") if result else None
    setup = None if mark is None else mark - reply["start"]
    return Child(mode, out, reply["end"] - reply["start"], setup, reply["maxrss_kb"] / 1024.0,
                 reply["exit"], result)


# -- correctness checks ----------------------------------------------------


def _failed_certificates(node, path="summary"):
    """Every `passed`, `pass` and `meets_required` flag in a summary must be true."""
    bad = []
    if isinstance(node, dict):
        for key, val in node.items():
            if key in ("passed", "pass", "meets_required") and val is not True:
                bad.append(f"{path}.{key} is {val!r}")
            else:
                bad.extend(_failed_certificates(val, f"{path}.{key}"))
    elif isinstance(node, list):
        for i, val in enumerate(node):
            bad.extend(_failed_certificates(val, f"{path}[{i}]"))
    return bad


def _close(got, want, scale, rtol) -> bool:
    diff = np.max(np.abs(np.asarray(got, dtype=float) - np.asarray(want, dtype=float)))
    return bool(diff <= rtol * scale)


def _check_states(runs, ref_runs, rtol) -> list[str]:
    if len(runs) != len(ref_runs):
        return [f"{len(runs)} trajectories, reference has {len(ref_runs)}"]
    bad = []
    for i, (got, want) in enumerate(zip(runs, ref_runs)):
        for key in ("x", "z"):
            if len(got[key]) != len(want[key]) or not _close(got[key], want[key], want["scale_xz"], rtol):
                bad.append(f"trajectory {i}: final {key} differs from the reference")
        for key in ("V0", "V_end"):
            if not _close(got[key], want[key], want["scale_V"], rtol):
                bad.append(f"trajectory {i}: {key} = {got[key]!r}, reference {want[key]!r}")
    return bad


def _check_dense_outputs(program: Path, runs, rtol) -> list[str]:
    """trajectory.csv and trajectory.json hold every sample; the CSV ends at the final state."""
    (run,) = runs
    n = len(run["x"])
    csv = (program / "trajectory.csv").read_bytes()
    rows = csv.count(b"\n") - 1
    samples = len(json.loads((program / "trajectory.json").read_text())["samples"])
    bad = []
    if rows != samples:
        bad.append(f"trajectory.csv has {rows} rows, trajectory.json {samples} samples")
    last = [float(v) for v in csv.rstrip(b"\n").rsplit(b"\n", 1)[-1].split(b",")]
    if not (
        _close(last[1 : 1 + n], run["x"], run["scale_xz"], rtol)
        and _close(last[1 + n : 1 + 2 * n], run["z"], run["scale_xz"], rtol)
        and _close(last[1 + 2 * n], run["V_end"], run["scale_V"], rtol)
    ):
        bad.append("last row of trajectory.csv differs from the final state")
    return bad


# the CLI writes under program/; the library run's summary is written by child.py
SUMMARIES = {
    "canonical_grid": "program/rate_table.json",
    "smooth_l1": "program/smooth_summary.json",
    "dense_record": "program/summary.json",
    "entropy_general": "summary.json",
}


def check(child: Child, workload: str, expected: dict | None, digest: str, rtol: float) -> None:
    bad = child.failures
    if child.exit_code != 0:
        bad.append(f"exit code {child.exit_code}")
    if child.result is None or child.setup is None:
        bad.append("no result from the child")
        return
    if child.mode == "probe":
        return
    if expected is None:
        bad.append("no stored reference for these inputs")
    elif expected["inputs_sha256"] != digest:
        bad.append("inputs differ from those of the stored reference")
    else:
        bad.extend(_check_states(child.result["runs"], expected["runs"], rtol))
    try:
        summary = json.loads((child.out / SUMMARIES[workload]).read_text())
        bad.extend(_failed_certificates(summary))
        if summary.get("pass") is not True:
            bad.append("summary has no passing verdict")
        if workload == "dense_record" and not bad:
            bad.extend(_check_dense_outputs(child.out / "program", child.result["runs"], rtol))
    except (OSError, ValueError, KeyError, IndexError) as exc:  # missing or malformed output
        bad.append(f"unreadable output: {exc!r}")


def output_bytes(child: Child) -> int:
    program = child.out / "program"
    return sum(p.stat().st_size for p in program.rglob("*") if p.is_file()) if program.is_dir() else 0


# -- runs ------------------------------------------------------------------


class Run:
    def __init__(self, spawner, workload, seed, seconds, reference):
        self.spawner = spawner
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.children: list[Child] = []
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.input_dir = self.dir / "inputs"
        self.digest = inputs.write_inputs(workload, seed, self.input_dir)
        self.rtol = reference["rtol"]
        self.expected = reference["workloads"].get(workload, {}).get(str(inputs.variant(workload, seed)))
        self.start = time.monotonic()
        self.deadline = self.start + RUN_DEADLINE_S

    def child(self, mode: str) -> Child:
        out = self.dir / f"{len(self.children):03d}-{mode}"
        c = spawn(self.spawner, mode, self.workload, self.seed, self.input_dir, out, self.deadline)
        check(c, self.workload, self.expected, self.digest, self.rtol)
        c.output_bytes = output_bytes(c)
        shutil.rmtree(out)
        self.children.append(c)
        setup = "-" if c.setup is None else f"{c.setup:.3f}"
        print(f"child {len(self.children) - 1} {mode} wall {c.wall:.3f} s setup {setup} s "
              f"rss {c.rss_mb:.1f} MB {'ok' if c.ok else 'FAILED'}", file=sys.stderr)
        for msg in c.failures:
            print(f"check failed ({mode} child {len(self.children) - 1}): {msg}", file=sys.stderr)
        return c

    def measuring(self, since: float) -> bool:
        now = time.monotonic()
        return now - since < self.seconds and now < self.deadline

    def timed(self, *modes: str) -> list[Child]:
        """Children of these modes that passed every check; all of them if none did."""
        picked = [c for c in self.children if c.mode in modes]
        ok = [c for c in picked if c.ok]
        return ok or picked


def p90(values) -> float:
    values = list(values)
    return statistics.quantiles(values, n=10, method="inclusive")[-1] if len(values) > 1 else values[0]


def plain(run: Run) -> dict:
    for _ in range(SETUP_PROBES):
        run.child("probe")
    since = time.monotonic()
    while True:
        run.child("plain")
        if not run.measuring(since):
            break
    full = run.timed("plain")
    # a child that never reached the integrator has only its wall time to give
    setups = [c.wall if c.setup is None else c.setup for c in run.timed("probe", "plain")]
    print(f"median wall_s {statistics.median(c.wall for c in full)!r} s over {len(full)} children, "
          f"median setup_s {statistics.median(setups)!r} s over {len(setups)}")
    return {
        "wall_p90_s": (p90(c.wall for c in full), "s"),
        "setup_s": (p90(setups), "s"),
        "peak_rss_mb": (statistics.median(c.rss_mb for c in full), "MB"),
    }


def traced(run: Run) -> dict:
    since = time.monotonic()
    while True:
        run.child("plain")
        run.child("trace")
        if not run.measuring(since):
            break
    plain_children = run.timed("plain")
    trace_children = run.timed("trace")
    per_child = [dict(c.result["trace"]["metrics"], **{"cli.output_bytes": c.output_bytes}) for c in trace_children
                 if c.result and "trace" in c.result]
    metrics = {}
    for key in UNITS:
        values = [m[key] for m in per_child if key in m]
        if values:
            metrics[key] = (statistics.median(values), UNITS[key])
    wall_plain = statistics.median(c.wall for c in plain_children)
    wall_trace = statistics.median(c.wall for c in trace_children)
    metrics["trace.overhead_frac"] = (wall_trace / wall_plain - 1.0, "frac")
    spans = trace_children[0].result["trace"]["spans"] if per_child else []
    depth = []
    for s in spans:
        depth.append(0 if s["parent"] is None else depth[s["parent"]] + 1)
        print(f"span {'  ' * depth[-1]}{s['name']} {s['end'] - s['start']:.6f} s", file=sys.stderr)
    return metrics


UNITS = {
    "dynamics.steps": "count",
    "dynamics.self_s": "s",
    "dynamics.step_us": "us",
    "dynamics.integrate_s_max": "s",
    "problems.grad_calls": "count",
    "problems.grad_s": "s",
    "problems.grad_per_step": "1/step",
    "schedules.sample_calls": "count",
    "schedules.sample_s": "s",
    "schedules.sample_per_step": "1/step",
    "schedules.conditions_s": "s",
    "smoothing.mu_calls": "count",
    "smoothing.mu_s": "s",
    "smoothing.grad_x_calls": "count",
    "smoothing.grad_x_s": "s",
    "smoothing.certify_s": "s",
    "lyapunov.diag_calls": "count",
    "lyapunov.diag_s": "s",
    "lyapunov.reports_s": "s",
    "bregman.div_calls": "count",
    "bregman.div_s": "s",
    "bregman.gen_calls": "count",
    "bregman.gen_s": "s",
    "cli.output_s": "s",
    "cli.output_bytes": "bytes",
    "cli.self_s": "s",
    "config.load_s": "s",
    **{f"{layer}.raised": "count" for layer in LAYERS},
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"),
                        help="stored reference states (default: %(default)s)")
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an exception, so the spawner and its child are stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not (ROOT / "src" / "agflow" / "__init__.py").is_file():
        print(f"no agflow package under {ROOT / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    reference = json.loads(Path(args.reference).read_text())

    print("machine " + json.dumps(machine()))
    print(f"workload {args.workload} seed {args.seed} variant {inputs.variant(args.workload, args.seed)} "
          f"trace {args.trace}")
    with Spawner() as spawner:
        run = Run(spawner, args.workload, args.seed, args.seconds, reference)
        try:
            metrics = traced(run) if args.trace else plain(run)
        finally:
            shutil.rmtree(run.dir, ignore_errors=True)

    attempted = len(run.children)
    failed = sum(not c.ok for c in run.children)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print(f"metric fail_frac {failed / attempted!r} frac ({failed} of {attempted} child processes)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
