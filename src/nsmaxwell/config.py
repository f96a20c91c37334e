"""Run configuration: flat key=value files, all errors reported at once.

Format: one ``key = value`` pair per line; ``#`` starts a comment; lists
are comma-separated.  Unknown keys are rejected.  Every parse or
validation problem is collected (with its line number) before failing,
so a bad file reports all of its defects in one pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .checks import PRODUCT_LAW_IDS
from .propagators import SCHEMES
from .system import step_count

__all__ = ["RunConfig", "ConfigError", "parse_config", "apply_flags"]

INIT_PRESETS = ("taylor-green", "random", "shell", "file")
NORM_COLUMNS = (
    "v_l2", "E_l2", "B_l2", "v_h1", "E_l2log", "B_l2log",
)


class ConfigError(ValueError):
    """Carries every collected problem, one per line of ``errors``."""

    def __init__(self, errors: list):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


@dataclass
class RunConfig:
    d: int = 2
    n: int = 64
    box_length: float = 2.0 * math.pi
    init: str = "taylor-green"
    seed: int = 0
    slope: float = 0.0
    shell: int = 2
    amplitude: float = 1.0
    init_file: str = ""
    T: float = 1.0
    dt: float = 1e-2
    scheme: str = "exp-trapezoid"
    stride: int = 10
    out_dir: str = "out"
    count: int = 20
    picard_iters: int = 6
    delta_target: float = 0.1
    epsilons: tuple = (0.01, 0.1, 1.0)
    estimates: tuple = PRODUCT_LAW_IDS
    norms: tuple = ()


def _finite(raw: str) -> float:
    """A float that is neither NaN nor infinite: every range check below
    is a comparison, which NaN passes."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


_LIST_ELEM = {"epsilons": _finite, "estimates": str, "norms": str}


def _convert(name: str, kind, raw: str):
    if name in _LIST_ELEM:
        elem = _LIST_ELEM[name]
        items = [s.strip() for s in raw.split(",") if s.strip()]
        return tuple(elem(s) for s in items)
    if kind is int:
        v = int(raw)
        return v
    if kind is float:
        return _finite(raw)
    return raw


def _validate(cfg: RunConfig, where) -> list:
    """Every rule ``cfg`` breaks, one message each, led by ``where(key)``."""
    errors = []

    def bad(key: str, message: str):
        errors.append(f"{where(key)}: {message}")

    if cfg.d not in (2, 3):
        bad("d", f"dimension must be 2 or 3, got {cfg.d}")
    if cfg.n < 8 or (cfg.n & (cfg.n - 1)) != 0:
        bad("n", f"grid size must be a power of two >= 8, got {cfg.n}")
    for key in ("box_length", "amplitude", "T", "dt", "delta_target"):
        if getattr(cfg, key) <= 0:
            bad(key, f"must be positive, got {getattr(cfg, key)}")
    for key in ("stride", "count"):
        if getattr(cfg, key) < 1:
            bad(key, f"must be a positive integer, got {getattr(cfg, key)}")
    if cfg.picard_iters < 2:  # one contraction ratio takes two iterations
        bad("picard_iters", f"must be at least 2, got {cfg.picard_iters}")
    if cfg.seed < 0:
        bad("seed", f"must be nonnegative, got {cfg.seed}")
    if cfg.T > 0 and cfg.dt > 0:
        try:
            step_count(cfg.T, cfg.dt)
        except ValueError as exc:
            bad("dt", str(exc))
    if cfg.init not in INIT_PRESETS:
        bad("init", f"unknown preset {cfg.init!r}; choose from {INIT_PRESETS}")
    if cfg.init == "file" and not cfg.init_file:
        bad("init_file", "required when init = file")
    if not cfg.out_dir:
        bad("out_dir", "must not be empty")
    if cfg.scheme not in SCHEMES:
        bad("scheme", f"unknown scheme {cfg.scheme!r}; choose from {SCHEMES}")
    if any(e <= 0 for e in cfg.epsilons):
        bad("epsilons", f"all entries must be positive, got {cfg.epsilons}")
    # An empty norms list selects the default columns, so it stays allowed.
    for key in ("epsilons", "estimates"):
        if not getattr(cfg, key):
            bad(key, "must not be empty")
    for est in cfg.estimates:
        if est not in PRODUCT_LAW_IDS:
            bad("estimates", f"unknown estimate id {est!r}")
    for norm in cfg.norms:
        if norm not in NORM_COLUMNS:
            bad("norms", f"unknown norm column {norm!r}; "
                         f"choose from {NORM_COLUMNS}")
    # A repeat would run an estimate twice or write two columns of one name.
    for key in ("epsilons", "estimates", "norms"):
        items = getattr(cfg, key)
        for item in sorted({x for x in items if items.count(x) > 1}):
            bad(key, f"repeated entry {item!r}")
    return errors


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError listing *all* problems."""
    kinds = {f.name: type(getattr(RunConfig(), f.name)) for f in fields(RunConfig)}
    values: dict = {}
    lines_of: dict = {}
    errors = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            errors.append(f"line {lineno}: expected 'key = value', got {body!r}")
            continue
        key, raw = (s.strip() for s in body.split("=", 1))
        if key not in kinds:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in values:
            errors.append(f"line {lineno}: duplicate key {key!r} "
                          f"(first set on line {lines_of[key]})")
            continue
        try:
            values[key] = _convert(key, kinds[key], raw)
            lines_of[key] = lineno
        except ValueError:
            kind = _LIST_ELEM.get(key, kinds[key])
            errors.append(f"line {lineno}: {key}: cannot parse {raw!r} as "
                          f"{'a finite float' if kind in (float, _finite) else kind.__name__}")
    # Validate whatever did parse, so constraint violations are reported
    # alongside parse errors instead of only on a second attempt.
    cfg = RunConfig(**values)
    errors.extend(_validate(cfg, lambda k: f"line {lines_of.get(k, 0)}: {k}"))
    if errors:
        raise ConfigError(errors)
    return cfg


def apply_flags(cfg: RunConfig, flags: dict) -> RunConfig:
    """``cfg`` with each field of ``flags`` that is not None replaced by
    its command-line value, checked by the rules of the file's keys; a
    problem is named by its flag (``--out-dir`` for ``out_dir``).  The
    other fields passed ``parse_config``, so no rule they enter breaks."""
    cfg = replace(cfg, **{k: v for k, v in flags.items() if v is not None})
    errors = _validate(cfg, lambda k: "--" + k.replace("_", "-"))
    if errors:
        raise ConfigError(errors)
    return cfg
