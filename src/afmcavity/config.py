"""Strict JSON run configuration.

Every section is optional and falls back to the toolkit defaults, but any
key the schema does not know is an error: silent typos in a reproduction
run are worse than a hard failure.  Errors carry the offending key path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

import numpy as np

from .core import CavityParams, CouplingParams, SpinSystemParams, params_dict
from .phase import PhaseBoundaries
from .spectra import LossParams


class ConfigError(ValueError):
    """Configuration rejected; the message names the key path."""


@dataclass(frozen=True)
class GridSpec:
    """Inclusive uniform sweep grid."""

    start: float
    stop: float
    step: float

    def __post_init__(self):
        for name in ("start", "stop", "step"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"grid {name} must be finite")
        if self.step <= 0:
            raise ConfigError(f"grid step must be > 0, got {self.step}")

    def samples(self) -> np.ndarray:
        """Points start, start+step, ... up to stop (inclusive within rounding)."""
        if self.stop < self.start:
            return np.empty(0)
        n = int(round((self.stop - self.start) / self.step)) + 1
        axis = self.start + self.step * np.arange(n)
        return axis[axis <= self.stop + 1e-9 * self.step]


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
_SCALAR_KEYS = {"seed": int, "noise_sigma_db": float}

_DEFAULT_GRIDS = {
    "field_grid": GridSpec(start=0.0, stop=1.1, step=0.005),
    "freq_grid": GridSpec(start=8.0, stop=15.0, step=0.005),
    "temperature_grid": GridSpec(start=0.0, stop=3.0, step=0.05),
}


@dataclass(frozen=True)
class RunConfig:
    spins: SpinSystemParams
    cavity: CavityParams
    coupling: CouplingParams
    loss: LossParams
    boundaries: PhaseBoundaries
    field_grid: GridSpec
    freq_grid: GridSpec
    temperature_grid: GridSpec
    seed: int = 0
    noise_sigma_db: float = 0.0

    @classmethod
    def defaults(cls) -> "RunConfig":
        return cls.from_dict({})

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("configuration root must be a JSON object")
        known = set(_SECTION_TYPES) | set(_SCALAR_KEYS)
        for key in raw:
            if key not in known:
                raise ConfigError(f"unknown key: {key}")

        sections = {name: build_section(name, raw.get(name)) for name in _SECTION_TYPES}
        if sections["loss"] is None:
            sections["loss"] = LossParams.from_cavity(sections["cavity"])

        seed = raw.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"seed: expected an integer, got {seed!r}")
        noise = raw.get("noise_sigma_db", 0.0)
        if isinstance(noise, bool) or not isinstance(noise, (int, float)):
            raise ConfigError(f"noise_sigma_db: expected a number, got {noise!r}")
        if noise < 0:
            raise ConfigError(f"noise_sigma_db: must be >= 0, got {noise}")
        return cls(seed=seed, noise_sigma_db=float(noise), **sections)

    def to_dict(self) -> dict:
        out = {name: params_dict(getattr(self, name)) for name in _SECTION_TYPES}
        out["seed"] = self.seed
        out["noise_sigma_db"] = self.noise_sigma_db
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def build_section(name: str, raw):
    """Strictly parse one config section; ``None`` gives the section default."""
    section_type = _SECTION_TYPES[name]
    if raw is None:
        if name in _DEFAULT_GRIDS:
            return _DEFAULT_GRIDS[name]
        if name == "loss":
            return None  # derived from the cavity afterwards
        return section_type()
    if not isinstance(raw, dict):
        raise ConfigError(f"{name}: expected an object")
    allowed = {f.name for f in dataclass_fields(section_type)}
    for key, value in raw.items():
        if key not in allowed:
            raise ConfigError(f"unknown key: {name}.{key}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name}.{key}: expected a number, got {value!r}")
    if name in ("field_grid", "freq_grid", "temperature_grid"):
        missing = {"start", "stop", "step"} - set(raw)
        if missing:
            raise ConfigError(f"{name}: missing required keys {sorted(missing)}")
    try:
        return section_type(**raw)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{name}: {exc}") from None


def load_config(path) -> RunConfig:
    """Load and validate a JSON config file; a missing path means defaults."""
    if path is None:
        return RunConfig.defaults()
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return RunConfig.from_dict(raw)
