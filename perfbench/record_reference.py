"""Record reference.json: the final states every workload's run must reproduce.

    python3 perfbench/record_reference.py

Run it from the root of the repository, on the commit whose results are the
reference.  It runs each workload once per input variant and refuses to
record a run that fails its exit-code or certificate checks.
"""

from __future__ import annotations

import json
import shutil
import sys
import time

import inputs
import run

RTOL = 1e-9


def main() -> int:
    reference = {"rtol": RTOL, "workloads": {}}
    with run.Spawner() as spawner:
        for workload in run.WORKLOADS:
            variants = range(inputs.VARIANTS) if workload in inputs.SEEDED else range(1)
            stored = reference["workloads"][workload] = {}
            for v in variants:
                directory = run.WORK / f"reference-{workload}-{v}"
                shutil.rmtree(directory, ignore_errors=True)
                digest = inputs.write_inputs(workload, v, directory / "inputs")
                child = run.spawn(spawner, "plain", workload, v, directory / "inputs", directory / "out",
                                  time.monotonic() + 600.0)
                runs = child.result["runs"] if child.result else None
                expected = {"inputs_sha256": digest, "runs": runs}
                run.check(child, workload, expected, digest, RTOL)
                shutil.rmtree(directory)
                if not child.ok:
                    print(f"{workload} variant {v}: {child.failures}", file=sys.stderr)
                    return 1
                stored[str(v)] = expected
                print(f"{workload} variant {v}: {len(runs)} trajectories, {child.wall:.2f} s", flush=True)
    (run.HERE / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
