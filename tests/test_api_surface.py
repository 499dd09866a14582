"""Every public name of agflow has a reader outside the tests.

A name in `agflow.__all__` passes when the package reads it somewhere other
than `__init__.py` (a load of the name or of an attribute of that name, or
an import from a module of that name), when the benchmark under
`perfbench/` reads it (also as a string, as its tracer looks names up by
`getattr`), or when it is kept below for the ROADMAP item that will read it.
Definitions and docstrings are not reads.
"""

import ast
from pathlib import Path

import agflow

ROOT = Path(__file__).resolve().parents[1]

# name -> why it stays public with no reader yet
KEEP = {
    "check_uniform_convexity": "ROADMAP items 13 and 15: sampled certificates on the states a run visited",
    "check_symmetry": "ROADMAP items 13 and 15: the symmetric variant on a generator from the CLI",
    "constant_mu": "ROADMAP item 7: the constant-mu negative control of the smoothing table",
    "from_beta_parameterization": "AC-6 and ROADMAP item 5: the (beta, alpha) parameterization",
    "verify_alpha_ode_residual": "AC-5 and ROADMAP item 5: the damping-scale ODE residual",
    "with_exact_smooth_objective": "ROADMAP item 17: the SmoothApproximation.exact path it builds awaits a decision",
}


def _reads(paths, strings):
    """The names the modules at `paths` read; identifier strings too if `strings`."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                names.add(node.module.split(".")[0])
            elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def _package_reads():
    return _reads((p for p in (ROOT / "src" / "agflow").glob("*.py") if p.name != "__init__.py"), False)


def test_every_public_name_has_a_reader():
    bench = _reads((p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")), True)
    unread = sorted(set(agflow.__all__) - _package_reads() - bench - KEEP.keys())
    assert unread == [], f"public names that only tests read: {unread}"


def test_every_kept_name_is_public_and_unread():
    # a kept name that gained a reader in the package, or left the API, leaves the list
    assert sorted(KEEP.keys() - set(agflow.__all__)) == []
    assert sorted(KEEP.keys() & _package_reads()) == []
