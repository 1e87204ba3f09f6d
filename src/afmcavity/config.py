"""Strict JSON run configuration.

Every section is optional and falls back to the toolkit defaults, but any
key the schema does not know is an error: silent typos in a reproduction
run are worse than a hard failure.  Errors carry the offending key path.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .core import CavityParams, CouplingParams, SpinSystemParams, checked
from .phase import PhaseBoundaries
from .spectra import LossParams, write_json


class ConfigError(ValueError):
    """Configuration rejected; the message names the key path."""


@dataclass(frozen=True)
class GridSpec:
    """Inclusive uniform sweep grid."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        try:
            checked("grid step", self.step, 0.0, strict=True)
            steps = checked("grid (stop - start) / step", (self.stop - self.start) / self.step)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if not steps < np.iinfo(np.intp).max / 8:  # numpy sizes a float64 axis's bytes in intp
            raise ConfigError(f"grid of {steps + 1:.4g} samples is too large to index")

    def samples(self) -> np.ndarray:
        """Points start, start+step, ... up to stop (inclusive within rounding)."""
        if self.stop < self.start:
            return np.empty(0)
        n = int(round((self.stop - self.start) / self.step)) + 1
        axis = self.start + self.step * np.arange(n)
        axis = axis[axis <= self.stop + 1e-9 * self.step]
        axis.flags.writeable = False  # fresh, so a map adopts it without a copy
        return axis


_SECTION_TYPES = {
    "spins": SpinSystemParams,
    "cavity": CavityParams,
    "coupling": CouplingParams,
    "loss": LossParams,
    "boundaries": PhaseBoundaries,
    "field_grid": GridSpec,
    "freq_grid": GridSpec,
    "temperature_grid": GridSpec,
}


@dataclass(frozen=True)
class RunConfig:
    spins: SpinSystemParams = SpinSystemParams()
    cavity: CavityParams = CavityParams()
    coupling: CouplingParams = CouplingParams()
    loss: LossParams | None = None  # None: derived from the cavity
    boundaries: PhaseBoundaries = PhaseBoundaries()
    field_grid: GridSpec = GridSpec(start=0.0, stop=1.1, step=0.005)
    freq_grid: GridSpec = GridSpec(start=8.0, stop=15.0, step=0.005)
    temperature_grid: GridSpec = GridSpec(start=0.0, stop=3.0, step=0.05)
    seed: int = 0
    noise_sigma_db: float = 0.0

    def __post_init__(self):
        if self.loss is None:
            object.__setattr__(self, "loss", LossParams.from_cavity(self.cavity))
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError(f"seed: expected an integer >= 0, got {self.seed!r}")
        noise = self.noise_sigma_db
        if isinstance(noise, bool) or not isinstance(noise, (int, float)):
            raise ConfigError(f"noise_sigma_db: expected a number, got {noise!r}")
        try:
            object.__setattr__(self, "noise_sigma_db", checked("value", noise, 0.0))
        except (ValueError, OverflowError) as exc:  # OverflowError: an int past 1e308
            raise ConfigError(f"noise_sigma_db: {exc}") from None

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a JSON object")
        known = {f.name for f in dataclass_fields(cls)}
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown key: {key}")
        # a null section means the default, as an omitted one does
        given = [name for name in _SECTION_TYPES if raw.get(name) is not None]
        sections = {name: build_section(name, raw[name]) for name in given}
        return cls(**sections, **{key: raw[key] for key in raw.keys() - _SECTION_TYPES})

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return write_json(self.to_dict())


def build_section(name: str, raw):
    """Strictly parse one config section."""
    section_type = _SECTION_TYPES[name]
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected an object")
    allowed = {f.name for f in dataclass_fields(section_type)}
    for key, value in raw.items():
        if key not in allowed:
            raise ConfigError(f"unknown key: {name}.{key}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}.{key}: expected a number, got {value!r}")
        if isinstance(value, int) and abs(value) > sys.float_info.max:
            raise ConfigError(f"{name}.{key}: out of the float range ({name}: int too large)")
    if name in ("field_grid", "freq_grid", "temperature_grid"):
        missing = {"start", "stop", "step"} - set(raw)
        if missing:
            raise ConfigError(f"{name}: missing required keys {sorted(missing)}")
    try:
        return section_type(**raw)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: an int past 1e308
        raise ConfigError(f"{name}: {exc}") from None


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file; a missing path means defaults."""
    if path is None:
        return RunConfig()
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return RunConfig.from_dict(raw)
