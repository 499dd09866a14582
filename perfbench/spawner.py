"""Start and time benchmark children from a process that stays small.

Linux carries a process's peak-RSS mark across fork and exec, so the
ru_maxrss that wait4 reports for a child is never below its parent's peak at
spawn time.  The benchmark's main process imports numpy and reads large
outputs, so it starts children through this one instead: run with `-S`, it
imports little and never grows, and wait4 reports each child's own peak.

One JSON request per line on stdin:
    {"cmd": [...], "env": {...}, "cwd": "...", "log": "...", "timeout": s}
one JSON reply per line on stdout:
    {"start": t, "end": t, "exit": code, "maxrss_kb": n}
with `time.monotonic()` stamps taken just before the spawn and after wait4.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["log"], "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(req["cmd"], env=req["env"], cwd=req["cwd"], stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            end = time.monotonic()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
    return {"start": start, "end": end, "exit": proc.returncode, "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
