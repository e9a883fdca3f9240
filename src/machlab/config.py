"""Flat key = value experiment configuration.

One key per line, ``#`` starts a comment, keys are case-insensitive.
Unknown keys, duplicate keys, and malformed values are rejected with the
offending line number; semantic range checks name the key they reject.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, fields, replace
from typing import get_type_hints

from .initial_data import KNOWN_DATA
from .littlewood_paley import named_profile
from .spectral import FIRST_RING, MAX_STEPS, dealias_cutoff

EXPERIMENTS = (
    "selftest",
    "acoustic-decay",
    "incompressible-limit",
    "transport-log",
    "strichartz-sweep",
    "lifespan-table",
)


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


@dataclass(frozen=True)
class ExperimentConfig:
    experiment: str = ""
    n: int = 256
    box_length: float = 16.0 * math.pi
    eps: tuple[float, ...] = (0.2, 0.1, 0.05, 0.025)
    t_final: float = 1.0
    gamma: float = 1.4
    data: str = "vortex-pair-ill"
    amplitude: float = 0.5
    seed: int = 0
    profile: str = "from-data"
    cfl: float = 0.4
    max_dt: float = 0.02
    snapshots: int = 11
    out: str = "machlab-out"
    threads: int = 1
    p: float = math.inf
    c0: float = 1.0
    t_cap: float = 4.0
    blowup_factor: float = 8.0

    @property
    def gamma_bar(self) -> float:
        return 0.5 * (self.gamma - 1.0)


# each experiment's own preconditions: the decay-trend fits need three eps, the
# limit contraction two, the free-wave scaling check two (one eps has spread 1
# and passes whatever the field does), and every experiment but strichartz-sweep
# measures block norms, which need the first dyadic ring below the dealias cutoff
_MIN_EPS = {"selftest": 3, "acoustic-decay": 3, "incompressible-limit": 2,
            "strichartz-sweep": 2}

_FINITE_FIELDS = ("t_final", "t_cap", "max_dt", "amplitude", "box_length", "gamma", "c0",
                  "blowup_factor")

# Peak working set in float64 n-by-n planes, from peak-RSS measurements of
# compressible runs at n = 256 .. 1024: about 80 per running solver (state,
# RK4 stages, batched transforms, block stacks and numpy temporaries), and
# independent solves run ``threads`` at a time. selftest's transport
# cross-check runs its solvers at n_hi, in n_hi-by-n_hi planes.
_PLANES_PER_RUN = 80
# What a sweep keeps past its running members: each member's state at t_final
# (3 planes), for the final snapshot. A member reduces its state at every
# earlier snapshot time to two gaps as the run passes it, so its snapshots
# cost nothing more. The incompressible reference keeps its vorticity, one
# plane, at each snapshot time, which every member reads.
_FINAL_STATE_PLANES = 3
_REFERENCE_SNAPSHOT_PLANES = 1

# the horizons each experiment steps over at max_dt; strichartz-sweep takes no
# time steps, and selftest also runs the acceptance checks' fixed horizons,
# the longest of them acceptance.TRANSPORT_T. A config whose horizon needs
# more than ``spectral.MAX_STEPS`` steps at max_dt cannot end in a desk-scale
# time, and is rejected.
_HORIZON_KEYS = {"acoustic-decay": ("t_final",), "incompressible-limit": ("t_final",),
                 "transport-log": ("t_final",), "lifespan-table": ("t_cap",),
                 "selftest": ("t_final", "t_cap")}
SELFTEST_FIXED_HORIZON = 1.0


def _horizons(config: "ExperimentConfig") -> dict[str, float]:
    """The horizons the experiment of ``config`` steps over at max_dt, by name."""
    spans = {key: getattr(config, key) for key in _HORIZON_KEYS.get(config.experiment, ())}
    if config.experiment == "selftest":
        spans["the acceptance horizon"] = SELFTEST_FIXED_HORIZON
    return spans


def selftest_n_hi(n: int) -> int:
    """The resolution of selftest's transport cross-check; it runs only above n."""
    return min(2 * n, 512)


def _working_set_bytes(config: "ExperimentConfig") -> int:
    run_n = max(config.n, selftest_n_hi(config.n)) if config.experiment == "selftest" else config.n
    kept = _FINAL_STATE_PLANES * len(config.eps) + _REFERENCE_SNAPSHOT_PLANES * config.snapshots
    return 8 * (_PLANES_PER_RUN * max(1, config.threads) * run_n**2 + kept * config.n**2)


def _physical_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (ValueError, OSError, AttributeError):
        return None


def _parse_length(text: str) -> float:
    """A float, optionally with a trailing ``pi`` multiplier (``16pi``)."""
    t = text.strip().lower()
    if t.endswith("pi"):
        head = t[:-2].strip()
        return (float(head) if head else 1.0) * math.pi
    return float(t)


# config-file keys are the ExperimentConfig field names, so a dump always parses
# back; each key's parser follows its field's type (``float`` reads inf), and
# box_length also takes a ``pi`` suffix. A field of another type fails at import.
_PARSE_BY_TYPE = {int: int, float: float, str: str, tuple[float, ...]:
                  lambda text: tuple(map(float, filter(str.strip, text.split(","))))}
_PARSERS = {name: _parse_length if name == "box_length" else _PARSE_BY_TYPE[kind]
            for name, kind in get_type_hints(ExperimentConfig).items()}


def parse_config(text: str) -> ExperimentConfig:
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"expected key = value, got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key = key.strip().lower()
        value = value.strip()
        if key not in _PARSERS:
            raise ConfigError(
                f"unknown key {key!r}; known keys: {', '.join(sorted(_PARSERS))}", lineno
            )
        if key in raw:
            raise ConfigError(f"duplicate key {key!r} (first set on line {raw[key][1]})", lineno)
        if not value:
            raise ConfigError(f"empty value for {key!r}", lineno)
        raw[key] = (value, lineno)

    kwargs = {}
    for name, (value, lineno) in raw.items():
        try:
            kwargs[name] = _PARSERS[name](value)
        except ValueError as exc:
            raise ConfigError(f"bad value for {name!r}: {exc}", lineno) from None
    config = ExperimentConfig(**kwargs)
    # the experiment usually arrives from the command line, not the file
    validate_config(config, require_experiment="experiment" in kwargs)
    return config


def validate_config(config: ExperimentConfig, require_experiment: bool = True) -> None:
    if require_experiment and config.experiment not in EXPERIMENTS:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; got {config.experiment!r}"
        )
    for name in _FINITE_FIELDS:
        value = getattr(config, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value}")
    n = config.n
    if n < 8 or (n & (n - 1)) != 0:
        raise ConfigError(f"n must be a power of two >= 8, got {n}")
    memory = _physical_memory_bytes()
    if memory is not None and _working_set_bytes(config) > memory:
        raise ConfigError(
            f"n = {n} needs an estimated {_working_set_bytes(config) / 2**30:.3g} GiB working "
            f"set (threads = {config.threads}, {len(config.eps)} final states, "
            f"{config.snapshots} reference snapshots), more than the {memory / 2**30:.3g} GiB "
            f"of physical memory"
        )
    if not (config.box_length > 0.0):
        raise ConfigError(f"box_length must be positive, got {config.box_length}")
    if not config.eps:
        raise ConfigError("eps needs at least one value")
    for e in config.eps:
        if not (0.0 < e <= 1.0):
            raise ConfigError(f"eps values must lie in (0, 1], got {e}")
    if len(set(config.eps)) != len(config.eps):
        raise ConfigError("eps values must be distinct")
    if not (config.t_final > 0.0):
        raise ConfigError(f"t_final must be positive, got {config.t_final}")
    if not (config.gamma > 1.0):
        raise ConfigError(f"gamma must exceed 1, got {config.gamma}")
    base = config.data.partition(":")[0]
    if base not in KNOWN_DATA:
        raise ConfigError(f"unknown data {config.data!r}; known: {', '.join(KNOWN_DATA)}")
    if not (config.amplitude > 0.0):
        raise ConfigError(f"amplitude must be positive, got {config.amplitude}")
    if config.profile != "from-data":
        try:
            named_profile(config.profile)
        except ValueError as exc:
            raise ConfigError(f"bad profile: {exc}") from None
    if not (0.0 < config.cfl <= 1.0):
        raise ConfigError(f"cfl must lie in (0, 1], got {config.cfl}")
    if not (config.max_dt > 0.0):
        raise ConfigError(f"max_dt must be positive, got {config.max_dt}")
    if config.snapshots < 2:
        raise ConfigError(f"snapshots must be at least 2, got {config.snapshots}")
    if config.threads < 1:
        raise ConfigError(f"threads must be at least 1, got {config.threads}")
    if not (config.p >= 2.0):
        raise ConfigError(f"p must lie in [2, inf], got {config.p}")
    if not (config.c0 > 0.0):
        raise ConfigError(f"c0 must be positive, got {config.c0}")
    if not (config.t_cap > 0.0):
        raise ConfigError(f"t_cap must be positive, got {config.t_cap}")
    if not (config.blowup_factor > 1.0):
        raise ConfigError(f"blowup_factor must exceed 1, got {config.blowup_factor}")
    for key, span in _horizons(config).items():
        if span / config.max_dt > MAX_STEPS:
            raise ConfigError(
                f"max_dt = {config.max_dt:g} needs at least {span / config.max_dt:.3g} steps "
                f"to reach {key} = {span:g} in {config.experiment}, more than the ceiling "
                f"of {MAX_STEPS:g} steps")
    need = _MIN_EPS.get(config.experiment, 1)
    if len(config.eps) < need:
        raise ConfigError(f"eps needs at least {need} values for {config.experiment}, "
                          f"got {len(config.eps)}")
    cutoff = dealias_cutoff(n, config.box_length)
    if config.experiment in EXPERIMENTS and config.experiment != "strichartz-sweep" \
            and cutoff < FIRST_RING:
        raise ConfigError(
            f"n = {n} and box_length = {config.box_length:.6g} put the dealias cutoff at "
            f"{cutoff:.4g}, below the first dyadic ring at {FIRST_RING:g}; "
            f"raise n or shrink box_length")


# execution details that do not change what is computed; two runs of the
# same experiment must hash identically regardless of where the artifacts
# land or how many workers produced them
_VOLATILE_FIELDS = ("out", "threads")


def canonical_dump(config: ExperimentConfig) -> str:
    lines = []
    for f in fields(config):
        if f.name in _VOLATILE_FIELDS:
            continue
        v = getattr(config, f.name)
        if isinstance(v, tuple):
            v = ",".join(f"{x:.17g}" for x in v)
        elif isinstance(v, float):
            v = f"{v:.17g}"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_hash(config: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_dump(config).encode()).hexdigest()[:12]


def with_overrides(config: ExperimentConfig, **kwargs) -> ExperimentConfig:
    out = replace(config, **kwargs)
    validate_config(out, require_experiment=bool(out.experiment))
    return out
