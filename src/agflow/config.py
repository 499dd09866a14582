"""Experiment configuration: a line-oriented key/value format with sections.

The grammar is INI-style (parsed by `configparser`): `[section]` headers,
`key = value` lines, `#`/`;` comments.  Vectors are whitespace-separated
floats; matrices separate rows with `;`.  See README for the full grammar
and defaults.  Experiments are plain files so runs are diffable artifacts.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import problems
from .bregman import check_seed
from .errors import ConfigurationError
from .dynamics import IntegratorConfig
from .schedules import ConstantDamping, Hyperbolic, PolynomialDamping, with_modified_nu

PROBLEM_KINDS = ("quadratic", "flat_quadratic", "l1_denoise")
# [schedule].family -> class; its `params` are read as lower-case keys
FAMILIES = {cls.name: cls for cls in (ConstantDamping, Hyperbolic, PolynomialDamping)}
VARIANT_KINDS = ("auto", "standard", "symmetric")
FIT_MODELS = ("exponential", "polynomial")
OUTPUT_FORMATS = ("csv", "json")
# [smoothing]'s keys where the section leaves them out
SMOOTHING_DEFAULTS = {"approximation": "huber_l1", "kind": "exponential", "epsilon": 0.5}


def _parse_vector(raw: str, where: str) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in raw.split()], dtype=float)
    except ValueError as exc:
        raise ConfigurationError(f"{where}: expected whitespace-separated floats, got {raw!r}") from exc
    if vec.size == 0:
        raise ConfigurationError(f"{where}: empty vector")
    if not np.all(np.isfinite(vec)):
        raise ConfigurationError(f"{where}: values must be finite, got {raw!r}")
    return vec


def _parse_matrix(raw: str, where: str) -> np.ndarray:
    rows = [r.strip() for r in raw.split(";") if r.strip()]
    mat = [_parse_vector(r, where) for r in rows]
    if len({row.size for row in mat}) != 1:
        raise ConfigurationError(f"{where}: ragged matrix rows")
    return np.vstack(mat)


@dataclass
class ExperimentConfig:
    """Validated experiment description; `build_*` construct the live objects.

    The field defaults are the config file's defaults: `load_config` reads
    them from here for every key a file leaves out.
    """

    problem_kind: str
    problem_params: dict
    family_kind: str
    family_params: dict
    t_end: float
    nu_dot_factor: float = 1.0
    t0: Optional[float] = None
    step: float = IntegratorConfig.step
    record_stride: int = IntegratorConfig.record_stride
    grid_num: int = 1001
    variant: str = "auto"
    x0: Optional[np.ndarray] = None
    v0: Optional[np.ndarray] = None
    fit: Optional[dict] = None
    smoothing: Optional[dict] = None
    out_dir: str = "out"
    formats: tuple = OUTPUT_FORMATS
    seed: int = 0

    def build_problem(self) -> problems.ProblemSpec:
        p = self.problem_params
        if self.problem_kind == "quadratic":
            return problems.quadratic(p["Q"], p["b"])
        if self.problem_kind == "flat_quadratic":
            return problems.flat_quadratic(p["A"], p["b"])
        return problems.l1_denoise(p["y"], p["w"])

    def build_family(self):
        base = FAMILIES[self.family_kind](**self.family_params)
        if self.nu_dot_factor != 1.0:
            return with_modified_nu(base, factor=self.nu_dot_factor)
        return base

    def build_integrator(self, family) -> IntegratorConfig:
        t0 = family.default_t0 if self.t0 is None else self.t0
        return IntegratorConfig(
            t0=t0, t_end=self.t_end, step=self.step, record_stride=self.record_stride
        )

    def initial_point(self, dim: int):
        x0 = np.ones(dim) if self.x0 is None else self.x0
        v0 = np.zeros(dim) if self.v0 is None else self.v0
        if x0.shape != (dim,) or v0.shape != (dim,):
            raise ConfigurationError(
                f"[initial]: x0/v0 must have length {dim} (problem dimension)"
            )
        return x0, v0


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a config; a section or key it does not read is an error."""
    # no [DEFAULT] section reaching into the others (such a header is
    # unknown) and no % interpolation: every value is read literally
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), default_section="", interpolation=None
    )
    try:
        with open(path) as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"config parse error: {exc}") from exc

    seen = set()  # the sections, and (section, key) pairs, the loader asks for

    def has(section: str) -> bool:
        seen.add(section)
        return parser.has_section(section)

    def need(section: str) -> None:
        if not has(section):
            raise ConfigurationError(f"missing required section [{section}]")

    def text(section, key, default=None):
        seen.update((section, (section, key)))
        return parser.get(section, key).strip() if parser.has_option(section, key) else default

    def vector(section, key, default=None, parse=_parse_vector):
        raw = text(section, key)
        return default if raw is None else parse(raw, f"[{section}].{key}")

    def get_float(section, key, default=None, required=False):
        raw = text(section, key)
        if raw is None:
            if required:
                raise ConfigurationError(f"[{section}].{key} is required")
            return default
        try:
            value = float(raw)
        except ValueError as exc:
            raise ConfigurationError(f"[{section}].{key}: not a number") from exc
        # NaN would pass every range check below, and inf makes checks vacuous
        if not math.isfinite(value):
            raise ConfigurationError(f"[{section}].{key} must be finite, got {value}")
        return value

    def get_int(section, key, default):
        raw = text(section, key)
        try:
            return default if raw is None else int(raw)
        except ValueError as exc:
            raise ConfigurationError(f"[{section}].{key}: not an integer") from exc

    need("problem")
    kind = text("problem", "kind", "")
    if kind not in PROBLEM_KINDS:
        raise ConfigurationError(f"[problem].kind must be one of {PROBLEM_KINDS}, got {kind!r}")
    if kind == "quadratic":
        diag = vector("problem", "q_diag")
        Q = vector("problem", "q_rows", parse=_parse_matrix) if diag is None else np.diag(diag)
        if Q is None:
            raise ConfigurationError("[problem]: quadratic needs q_diag or q_rows")
        params = {"Q": Q, "b": vector("problem", "b", np.zeros(Q.shape[0]))}
    elif kind == "flat_quadratic":
        A = vector("problem", "a_rows", parse=_parse_matrix)
        if A is None:
            raise ConfigurationError("[problem]: flat_quadratic needs a_rows")
        params = {"A": A, "b": vector("problem", "b", np.zeros(A.shape[0]))}
    else:
        params = {"y": vector("problem", "y")}
        if params["y"] is None:
            raise ConfigurationError("[problem]: l1_denoise needs y")
        params["w"] = get_float("problem", "w", default=1.0)

    need("schedule")
    family_kind = text("schedule", "family", "")
    if family_kind not in FAMILIES:
        raise ConfigurationError(
            f"[schedule].family must be one of {tuple(FAMILIES)}, got {family_kind!r}"
        )
    fparams = {p: get_float("schedule", p.lower(), required=True) for p in FAMILIES[family_kind].params}
    # ExperimentConfig's class attributes are its field defaults
    default = ExperimentConfig
    nu_dot_factor = get_float("schedule", "nu_dot_factor", default=default.nu_dot_factor)

    need("integrator")
    t_end = get_float("integrator", "t_end", required=True)
    step = get_float("integrator", "step", default=default.step)
    if step <= 0:
        raise ConfigurationError("[integrator].step must be positive")
    record_stride = get_int("integrator", "record_stride", default.record_stride)
    if record_stride < 1:
        raise ConfigurationError("[integrator].record_stride must be >= 1")
    t0 = get_float("integrator", "t0", default=default.t0)
    grid_num = get_int("integrator", "grid_num", default.grid_num)
    if grid_num < 2:
        raise ConfigurationError("[integrator].grid_num must be >= 2")

    variant = text("lyapunov", "variant", default.variant)
    if variant not in VARIANT_KINDS:
        raise ConfigurationError(f"[lyapunov].variant must be one of {VARIANT_KINDS}, got {variant!r}")

    x0 = vector("initial", "x0")
    v0 = vector("initial", "v0")

    fit = None
    if has("fit"):
        model = text("fit", "model", "")
        if model not in FIT_MODELS:
            raise ConfigurationError(f"[fit].model must be one of {FIT_MODELS}")
        fit = {"model": model}
        win = vector("fit", "window")
        if win is not None:
            if win.size != 2 or win[0] >= win[1]:
                raise ConfigurationError("[fit].window must be two increasing floats")
            fit["window"] = (float(win[0]), float(win[1]))
        fit["predicted"] = get_float("fit", "predicted", default=None)
        fit["required"] = get_float("fit", "required", default=None)

    smoothing = None
    if has("smoothing"):
        approx = text("smoothing", "approximation", SMOOTHING_DEFAULTS["approximation"])
        if approx != "huber_l1":
            raise ConfigurationError(
                f"[smoothing].approximation: only 'huber_l1' is shipped, got {approx!r}"
            )
        kind_s = text("smoothing", "kind", SMOOTHING_DEFAULTS["kind"])
        if kind_s not in ("exponential", "polynomial"):
            raise ConfigurationError("[smoothing].kind must be exponential or polynomial")
        eps = get_float("smoothing", "epsilon", default=SMOOTHING_DEFAULTS["epsilon"])
        if eps <= 0:
            raise ConfigurationError("[smoothing].epsilon must be positive")
        smoothing = {"approximation": approx, "kind": kind_s, "epsilon": eps}
        if variant != "auto":
            raise ConfigurationError(
                f"[lyapunov].variant = {variant} cannot go with [smoothing], whose run "
                "certifies the smoothed variant; leave variant out or set it to auto"
            )
    if (smoothing is None) == (kind == "l1_denoise"):
        raise ConfigurationError(
            "the l1_denoise problem is nonsmooth and needs a [smoothing] section; no other problem takes one"
        )

    out_dir = text("output", "directory", default.out_dir)
    formats = tuple(text("output", "formats", " ".join(default.formats)).split())
    for f in formats:
        if f not in OUTPUT_FORMATS:
            raise ConfigurationError(f"[output].formats: unknown format {f!r}")
    seed = check_seed(get_int("experiment", "seed", default.seed), "[experiment].seed")

    unread = []
    for section in parser.sections():
        keys = [f"[{section}].{key}" for key in parser[section] if (section, key) not in seen]
        unread += keys if section in seen else [f"[{section}]"]
    if unread:
        raise ConfigurationError(f"{', '.join(unread)}: not read by the config grammar (README)")

    return ExperimentConfig(
        problem_kind=kind, problem_params=params, family_kind=family_kind, family_params=fparams,
        t_end=t_end, nu_dot_factor=nu_dot_factor, t0=t0, step=step, record_stride=record_stride,
        grid_num=grid_num, variant=variant, x0=x0, v0=v0, fit=fit, smoothing=smoothing,
        out_dir=out_dir, formats=formats, seed=seed,
    )
