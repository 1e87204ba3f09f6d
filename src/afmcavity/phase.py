"""Magnetic phase classification on the (field, temperature) plane.

Three regions: antiferromagnetic at low field and temperature, spin-flop in
a wedge between the reorientation field and the saturation field, and
paramagnetic outside the ordered region.  The boundary curves are smooth
parametrized shapes anchored to the ordering temperature and the spin-flop
field; they are fitting conveniences, not derived thermodynamics, and every
shape parameter can be overridden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import core

ANTIFERROMAGNETIC = "antiferromagnetic"
SPIN_FLOP = "spin-flop"
PARAMAGNETIC = "paramagnetic"

_DEFAULT_SPIN_FLOP_FIELD = core.spin_flop_field(core.SpinSystemParams())


@dataclass(frozen=True)
class PhaseBoundaries:
    """Anchors and shape exponents of the three phase boundaries.

    The ordering (Neel) line is T_N(B) = T_N(0) * (1 - (B/B_c)^neel_exponent);
    the spin-flop line B_sf(T) = B_sf(0) * (1 - (T/T_N(0))^spin_flop_exponent)
    flattens at low temperature; the spin-flop region closes at the
    saturation field as (1 - T/T_N(0))^(1/neel_exponent).
    """

    neel_temperature: float = 2.495  # K, at zero field
    spin_flop_field: float = _DEFAULT_SPIN_FLOP_FIELD  # T, at zero temperature
    neel_exponent: float = 2.0
    critical_field: float = 2.5  # T, where the Neel line reaches zero
    saturation_field: float = 2.5  # T, spin-flop -> paramagnetic at T = 0
    spin_flop_exponent: float = 2.0

    def __post_init__(self):
        for name in (
            "neel_temperature",
            "spin_flop_field",
            "neel_exponent",
            "critical_field",
            "saturation_field",
            "spin_flop_exponent",
        ):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not self.spin_flop_field < self.saturation_field:
            raise ValueError(
                f"spin_flop_field ({self.spin_flop_field}) must be below "
                f"saturation_field ({self.saturation_field})"
            )


def neel_temperature_at(b: float, boundaries: PhaseBoundaries) -> float:
    """Ordering temperature at field ``b`` (kelvin, clipped at zero)."""
    reduced = 1.0 - (b / boundaries.critical_field) ** boundaries.neel_exponent
    return boundaries.neel_temperature * max(0.0, reduced)


def spin_flop_boundary(t: float, boundaries: PhaseBoundaries | None = None) -> float:
    """Field of the AFM / spin-flop boundary at temperature ``t`` (tesla).

    Monotone non-increasing in temperature and flat near zero; only defined
    below the zero-field ordering temperature.
    """
    if boundaries is None:
        boundaries = PhaseBoundaries()
    if not math.isfinite(t) or t < 0:
        raise ValueError(f"temperature must be finite and >= 0, got {t!r}")
    if t >= boundaries.neel_temperature:
        raise ValueError(
            f"temperature {t} K is at or above the zero-field ordering "
            f"temperature {boundaries.neel_temperature} K; no ordered boundary there"
        )
    reduced = (t / boundaries.neel_temperature) ** boundaries.spin_flop_exponent
    return boundaries.spin_flop_field * (1.0 - reduced)


def paramagnetic_boundary(t: float, boundaries: PhaseBoundaries) -> float:
    """Field where the spin-flop region gives way to the paramagnet (tesla)."""
    if t >= boundaries.neel_temperature:
        return 0.0
    reduced = 1.0 - t / boundaries.neel_temperature
    return boundaries.saturation_field * reduced ** (1.0 / boundaries.neel_exponent)


_LABELS = np.array([ANTIFERROMAGNETIC, SPIN_FLOP, PARAMAGNETIC], dtype=object)


def _curve(line, x: np.ndarray, boundaries: PhaseBoundaries) -> np.ndarray:
    return np.array([line(v, boundaries) for v in x.ravel().tolist()]).reshape(x.shape)


def _phase_labels(b: np.ndarray, t: np.ndarray, boundaries: PhaseBoundaries | None):
    """Phase names over broadcastable field and temperature arrays.

    The three rules run as masks; each boundary curve is evaluated with the
    scalar function above once per given coordinate, so a point that function
    places on the curve is judged on it bit for bit.
    """
    if boundaries is None:
        boundaries = PhaseBoundaries()
    paramagnetic = (t >= _curve(neel_temperature_at, b, boundaries)) | (
        b >= _curve(paramagnetic_boundary, t, boundaries)
    )
    # at or above the zero-field ordering temperature every point is paramagnetic
    ordered_t = np.where(t < boundaries.neel_temperature, t, 0.0)
    antiferro = b < _curve(spin_flop_boundary, ordered_t, boundaries)
    return _LABELS[np.where(paramagnetic, 2, np.where(antiferro, 0, 1))]


def _validated(name: str, values) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    bad = values[~(np.isfinite(values) & (values >= 0))]
    if bad.size:
        raise ValueError(f"{name} must be finite and >= 0, got {float(bad[0])!r}")
    return values


def classify_phase(
    b: float, t: float, boundaries: PhaseBoundaries | None = None
) -> str:
    """Name the phase at (field, temperature).

    Points exactly on a boundary go to the higher-symmetry side
    (paramagnetic over spin-flop over antiferromagnetic).
    """
    return _phase_labels(_validated("field", b), _validated("temperature", t), boundaries)


def phase_grid(field_axis, temperature_axis, boundaries: PhaseBoundaries | None = None):
    """Classify every point of a rectangular raster; rows follow the field axis."""
    b = _validated("field", field_axis)[:, None]
    t = _validated("temperature", temperature_axis)[None, :]
    return _phase_labels(b, t, boundaries).tolist()
