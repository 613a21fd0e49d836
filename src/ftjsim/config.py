"""Simulation configuration: JSON schema, strict validation, default set.

The file format is versioned JSON with one section per parameter group;
unknown keys anywhere are rejected.  One top-level seed drives every random
stream.  No parameter section holds a seed: the code that draws takes one as
an argument, child ``STREAM_*`` of the master seed derived with
``variability.derive_seed`` where it is used, so runs are reproducible end to
end and loading a config derives nothing.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass
from pathlib import Path

from .conduction import ConductionParams
from .device import DeviceParams, UpdateScheme
from .errors import ConfigError
from .variability import VariabilityParams

SCHEMA_VERSION = 1

# Spawn-key indices of the master seed, one per random-stream consumer.
STREAM_VARIABILITY = 0   # device noise / population sampling
STREAM_WORKLOAD = 1      # workload generation (targets, inputs, write order)
STREAM_TRAINING = 2      # float-baseline weight initialization
STREAM_EVAL_BASE = 16    # + replica index, one per Monte-Carlo seed

MAX_ARRAY_DIM = 1024     # rows or columns of a configured crossbar


@dataclass(frozen=True)
class CrossbarConfig:
    rows: int = 64
    cols: int = 64

    def __post_init__(self) -> None:
        if not (1 <= self.rows <= MAX_ARRAY_DIM and 1 <= self.cols <= MAX_ARRAY_DIM):
            raise ValueError(f"array dimensions must lie in [1, {MAX_ARRAY_DIM}], "
                             f"got {self.rows}x{self.cols}")


@dataclass(frozen=True)
class SimConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 12345
    output_dir: str = "out"
    device: DeviceParams = DeviceParams()
    variability: VariabilityParams = VariabilityParams()
    crossbar: CrossbarConfig = CrossbarConfig()

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {self.schema_version}")
        if not (0 <= self.seed < 2**64):
            raise ConfigError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")

    def to_dict(self) -> dict:
        dev = dataclasses.asdict(self.device)
        conduction = dev.pop("conduction")
        return {
            "schema_version": self.schema_version,
            "seed": self.seed,
            "output_dir": self.output_dir,
            "scheme": dev.pop("scheme").value,
            "conduction": conduction,
            "device": dev,
            "variability": dataclasses.asdict(self.variability),
            "crossbar": dataclasses.asdict(self.crossbar),
        }


def _check_int(value, name: str) -> None:
    """JSON integers only: true/false and numbers such as 2.5 or 64.0 are rejected."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _check_float(value, name: str) -> None:
    """Finite JSON numbers only: true/false, NaN, +-Infinity and 1e400 are rejected."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):  # False for NaN, exact for huge ints
        raise ConfigError(f"{name} must be a finite number, got {value!r}")


def _build(cls, section: dict, name: str, **extra):
    """Instantiate a parameter dataclass from one JSON section, strictly.

    The fields in ``extra`` come from elsewhere in the file, so the section
    may not name them.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"section '{name}' must be an object")
    fields = {f.name: f for f in dataclasses.fields(cls) if f.name not in extra}
    unknown = sorted(set(section) - set(fields))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in section '{name}'")
    for key, value in section.items():
        check = {"int": _check_int, "float": _check_float}.get(fields[key].type)
        if check:
            check(value, f"{name}.{key}")
    try:
        return cls(**section, **extra)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from exc


def config_from_dict(raw: dict) -> SimConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    known = {"schema_version", "seed", "output_dir", "scheme",
             "conduction", "device", "variability", "crossbar"}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown top-level key(s) {unknown}")

    try:
        scheme = UpdateScheme(raw.get("scheme", UpdateScheme.AMPLITUDE_RAMP.value))
    except ValueError as exc:
        raise ConfigError(f"scheme: {exc}") from exc
    conduction = _build(ConductionParams, raw.get("conduction", {}), "conduction")
    device = _build(DeviceParams, raw.get("device", {}), "device",
                    conduction=conduction, scheme=scheme)
    variability = _build(VariabilityParams, raw.get("variability", {}), "variability")

    crossbar = _build(CrossbarConfig, raw.get("crossbar", {}), "crossbar")

    top = {key: raw.get(key, default) for key, default in
           (("schema_version", SCHEMA_VERSION), ("seed", 12345))}
    for key, value in top.items():
        _check_int(value, key)
    try:
        return SimConfig(
            **top,
            output_dir=raw.get("output_dir", "out"),
            device=device,
            variability=variability,
            crossbar=crossbar,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str | Path | None = None) -> SimConfig:
    """Read and validate a config file; None loads the built-in default set."""
    if path is None:
        return SimConfig()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(raw)
