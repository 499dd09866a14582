"""Seeded inputs for the benchmark workloads.

The program sees only what these functions write: an experiment config for
`dense_record` and a JSON file of arrays for `entropy_general`.  Floats are
written with `repr`, so they round-trip exactly.  `canonical_grid` and
`smooth_l1` run fixed problems built into the CLI; for `smooth_l1` the seed
only drives the certification sample.

References are stored per input variant, and the seed selects the variant
as `seed % VARIANTS`, so any seed maps to inputs with a stored reference.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

VARIANTS = 32
SEEDED = ("dense_record", "entropy_general")


def variant(workload: str, seed: int) -> int:
    return seed % VARIANTS if workload in SEEDED else 0


def _vec(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _spectrum(rng: np.random.Generator, n: int) -> np.ndarray:
    """Log-uniform eigenvalues in [1, 100] that include both ends."""
    lam = np.exp(rng.uniform(0.0, np.log(100.0), n))
    lam[0], lam[1] = 1.0, 100.0
    return rng.permutation(lam)


def dense_record_config(v: int) -> str:
    """64-dim diagonal quadratic under `constant D=2 sigma=1`, every step recorded."""
    rng = np.random.default_rng([1, v])
    n = 64
    lam = _spectrum(rng, n)
    xstar = rng.uniform(-1.0, 1.0, n)
    x0 = rng.uniform(-2.0, 2.0, n)
    return f"""[problem]
kind = quadratic
q_diag = {_vec(lam)}
b = {_vec(lam * xstar)}

[schedule]
family = constant
d = 2.0
sigma = 1.0

[integrator]
t0 = 0.0
t_end = 10.0
step = 1e-3
record_stride = 1

[initial]
x0 = {_vec(x0)}

[fit]
model = exponential
window = 5 10
predicted = 1.0
required = 0.95

[output]
formats = csv json

[experiment]
seed = {v}
"""


def entropy_general_arrays(v: int) -> dict:
    """16-dim positive-orthant diagonal quadratic for the negative-entropy generator."""
    rng = np.random.default_rng([2, v])
    n = 16
    return {
        "weights": _spectrum(rng, n).tolist(),
        "xstar": rng.uniform(0.2, 1.0, n).tolist(),
        "x0": rng.uniform(0.2, 1.0, n).tolist(),
    }


def write_inputs(workload: str, seed: int, directory: Path) -> str:
    """Write the workload's inputs into `directory`; return their sha256 digest."""
    directory.mkdir(parents=True, exist_ok=True)
    v = variant(workload, seed)
    if workload == "dense_record":
        text = dense_record_config(v)
        (directory / "dense_record.cfg").write_text(text)
    elif workload == "entropy_general":
        text = json.dumps(entropy_general_arrays(v))
        (directory / "entropy_general.json").write_text(text)
    else:
        text = ""
    return hashlib.sha256(text.encode()).hexdigest()
