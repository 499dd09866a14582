"""Run `agflow.cli.main(argv)` in a fresh interpreter and report its footprint.

The child gets the benchmark child's environment (`perfbench/run.py`):
`PYTHONDONTWRITEBYTECODE=1`, an empty `PYTHONPYCACHEPREFIX` directory, so
every module is compiled from source, and one BLAS thread.  It is started
from a small launcher (`python -S`), because Linux carries a process's
RSS across fork and exec: the ru_maxrss that `os.wait4` reports is then
the child's own peak, not the test process's size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# argv: report path, then the CLI's arguments
_CHILD = """\
import json, sys
from agflow import cli, g17
code = cli.main(sys.argv[2:])
with open(sys.argv[1], "w") as fh:
    json.dump({"exit": code, "modules": sorted(sys.modules),
               "g17_tables": g17._powers.cache_info().currsize > 0}, fh)
"""

# argv: the child's argv, environment and timeout as JSON; kills the child
# at the timeout, and prints its exit status and ru_maxrss
_LAUNCHER = """\
import json, os, signal, sys
argv, env, timeout = json.loads(sys.argv[1])
pid = os.fork()
if pid == 0:
    try:
        os.execve(argv[0], argv, env)
    finally:
        os._exit(127)
signal.signal(signal.SIGALRM, lambda *_: os.kill(pid, signal.SIGKILL))
signal.alarm(timeout)
_, status, usage = os.wait4(pid, 0)
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))
"""
# Seconds a child may run.
TIMEOUT = 300


@dataclass(frozen=True)
class FreshRun:
    """What one fresh-interpreter run of the CLI reports."""

    exit: int  # the process's exit status
    code: int  # what `cli.main` returned
    modules: frozenset  # `sys.modules` once `cli.main` returned
    g17_tables: bool  # whether `g17._powers` was built
    maxrss_mb: float  # the child's own ru_maxrss, from `os.wait4`


def child_env(pycache: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPYCACHEPREFIX"] = pycache
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_cli(argv) -> FreshRun:
    """Run `agflow.cli.main(argv)` in a fresh interpreter; raises
    RuntimeError when the child dies before it writes its report."""
    with tempfile.TemporaryDirectory() as tmp:
        pycache, report = os.path.join(tmp, "pycache"), os.path.join(tmp, "report.json")
        os.mkdir(pycache)
        cmd = [sys.executable, "-c", _CHILD, report, *map(str, argv)]
        done = subprocess.run(
            [sys.executable, "-S", "-c", _LAUNCHER, json.dumps([cmd, child_env(pycache), TIMEOUT])],
            capture_output=True, text=True, check=True, timeout=TIMEOUT + 60,
        )
        status, maxrss_kb = json.loads(done.stdout.splitlines()[-1])
        try:
            with open(report) as fh:
                got = json.load(fh)
        except OSError as exc:
            raise RuntimeError(f"child exited {status} without a report:\n{done.stderr}") from exc
    return FreshRun(status, got["exit"], frozenset(got["modules"]), got["g17_tables"], maxrss_kb / 1024.0)

