"""Simulation configuration: JSON schema, strict validation, default set.

The file format is versioned JSON with one section per parameter group;
unknown keys anywhere are rejected.  One top-level seed drives every random
stream: consumers receive children derived via SeedSequence spawn keys (see
``variability.derive_seed``), so runs are reproducible end to end.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .conduction import V_READ_SWEEP_MAX, ConductionParams
from .device import DeviceParams, UpdateScheme
from .errors import ConfigError
from .variability import VariabilityParams, derive_seed

SCHEMA_VERSION = 1

# Spawn-key indices of the master seed, one per random-stream consumer.
STREAM_VARIABILITY = 0   # device noise / population sampling
STREAM_WORKLOAD = 1      # workload generation (targets, inputs, write order)
STREAM_TRAINING = 2      # float-baseline weight initialization
STREAM_EVAL_BASE = 16    # + replica index, one per Monte-Carlo seed


@dataclass(frozen=True)
class BiasScheme:
    """Write rails (+V/2 on the selected row, -V/2 on the selected column) and read bias."""

    v_write_pot: float = -1.6
    v_write_dep: float = 2.4
    v_read: float = 0.2

    def __post_init__(self) -> None:
        if not (self.v_write_pot < 0 < self.v_write_dep):  # negative amplitudes potentiate
            raise ConfigError(f"require v_write_pot < 0 < v_write_dep, got "
                              f"{self.v_write_pot} and {self.v_write_dep}")
        if self.v_read <= 0 or self.v_read > V_READ_SWEEP_MAX:
            raise ConfigError(f"v_read must lie in (0, {V_READ_SWEEP_MAX}] V, got {self.v_read}")


@dataclass(frozen=True)
class CrossbarConfig:
    rows: int = 64
    cols: int = 64
    bias: BiasScheme = BiasScheme()

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError(f"array dimensions must be >= 1, got {self.rows}x{self.cols}")


class _VariabilityChild:
    """``SimConfig.variability``: the section as given, read back with its seed
    set to the master seed's variability child.

    The seed is derived on first read and kept.  Deriving it loads
    numpy.random, which numpy 2 imports lazily, so a command that draws nothing
    (``iv``, ``fit``) never pays for it, and neither does loading a config.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name, self.given = name, f"_{name}_given"

    def __get__(self, config, owner=None) -> VariabilityParams:
        if config is None:
            return VariabilityParams()  # the field default
        if self.name not in config.__dict__:
            config.__dict__[self.name] = replace(
                config.__dict__[self.given], seed=derive_seed(config.seed, STREAM_VARIABILITY))
        return config.__dict__[self.name]

    def __set__(self, config, value: VariabilityParams) -> None:
        config.__dict__[self.given] = value
        config.__dict__.pop(self.name, None)


@dataclass(frozen=True)
class SimConfig:
    schema_version: int = SCHEMA_VERSION
    seed: int = 12345
    output_dir: str = "out"
    device: DeviceParams = DeviceParams()
    variability: VariabilityParams = _VariabilityChild()
    crossbar: CrossbarConfig = CrossbarConfig()

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise ValueError(f"unsupported schema_version {self.schema_version}")
        if not (0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an unsigned 64-bit integer, got {self.seed}")
        if not isinstance(self.output_dir, str):
            raise ValueError(f"output_dir must be a string, got {self.output_dir!r}")
        # Half-select levels must sit below the pulse threshold.
        bias, threshold = self.crossbar.bias, self.device.v_pulse_threshold
        for name, v in (("v_write_pot", bias.v_write_pot), ("v_write_dep", bias.v_write_dep)):
            if abs(v) / 2 >= threshold:
                raise ConfigError(f"half-select level |{name}|/2 = {abs(v) / 2} V reaches the "
                                  f"pulse threshold {threshold} V; unselected cells would disturb")

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
            "variability": {k: v for k, v in dataclasses.asdict(self.variability).items()
                            if k != "seed"},
            "crossbar": {"rows": self.crossbar.rows, "cols": self.crossbar.cols,
                         "bias": dataclasses.asdict(self.crossbar.bias)},
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
    # seed=0 stands in for the stream seed SimConfig derives from the master seed.
    variability = _build(VariabilityParams, raw.get("variability", {}), "variability", seed=0)

    xbar_raw = dict(raw.get("crossbar", {}))
    bias = _build(BiasScheme, xbar_raw.pop("bias", {}), "crossbar.bias")
    crossbar = _build(CrossbarConfig, xbar_raw, "crossbar", bias=bias)

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


def apply_master_seed(config: SimConfig, master_seed: int) -> SimConfig:
    """Reseed every stream of a config from one top-level seed."""
    if not (0 <= master_seed < 2**64):
        raise ConfigError(f"seed must be an unsigned 64-bit integer, got {master_seed}")
    return replace(config, seed=master_seed)
