"""Magnetic phase classification on the (field, temperature) plane.

Three regions: antiferromagnetic at low field and temperature, spin-flop in
a wedge between the reorientation field and the saturation field, and
paramagnetic outside the ordered region.  The boundary curves are smooth
parametrized shapes anchored to the spin system's ordering temperature and
spin-flop field; they are fitting conveniences, not derived thermodynamics,
and every shape parameter can be overridden.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .core import SpinSystemParams

ANTIFERROMAGNETIC = "antiferromagnetic"
SPIN_FLOP = "spin-flop"
PARAMAGNETIC = "paramagnetic"


@dataclass(frozen=True)
class PhaseBoundaries:
    """Shapes of the three phase boundaries, anchored at the spin system's T_N(0) and B_sf(0).

    The ordering (Neel) line is T_N(B) = T_N(0) * (1 - (B/B_c)^neel_exponent);
    the spin-flop line B_sf(T) = B_sf(0) * (1 - (T/T_N(0))^spin_flop_exponent)
    flattens at low temperature; the spin-flop region closes at the
    saturation field as (1 - T/T_N(0))^(1/neel_exponent).
    """

    neel_exponent: float = 2.0
    critical_field: float = 2.5  # T, where the Neel line reaches zero
    saturation_field: float = 2.5  # T, spin-flop -> paramagnetic at T = 0
    spin_flop_exponent: float = 2.0

    def __post_init__(self):
        for name, value in vars(self).items():
            core.checked(name, value, 0.0, strict=True)
        with np.errstate(over="ignore"):  # extreme shapes leave the Neel line no float scale
            scale = np.float64(self.critical_field) ** self.neel_exponent
        core.checked("critical_field ** neel_exponent", scale, 0.0, strict=True)


def neel_temperature_at(b: float, boundaries: PhaseBoundaries, spins: SpinSystemParams) -> float:
    """Ordering temperature at field ``b`` (kelvin, clipped at zero)."""
    if b >= boundaries.critical_field:  # the power below is >= 1 there, and may overflow
        return 0.0
    reduced = 1.0 - (b / boundaries.critical_field) ** boundaries.neel_exponent
    return spins.neel_temperature * max(0.0, reduced)


def spin_flop_boundary(t: float, boundaries=PhaseBoundaries(), spins=SpinSystemParams()) -> float:
    """Field of the AFM / spin-flop boundary at temperature ``t`` (tesla).

    Monotone non-increasing in temperature and flat near zero; only defined
    below the zero-field ordering temperature.
    """
    t = core.checked("temperature", t, 0.0)
    if t >= spins.neel_temperature:
        raise ValueError(
            f"temperature {t} K is at or above the zero-field ordering "
            f"temperature {spins.neel_temperature} K; no ordered boundary there"
        )
    reduced = (t / spins.neel_temperature) ** boundaries.spin_flop_exponent
    return core.spin_flop_field(spins) * (1.0 - reduced)


def paramagnetic_boundary(t: float, boundaries: PhaseBoundaries, spins: SpinSystemParams) -> float:
    """Field where the spin-flop region gives way to the paramagnet (tesla)."""
    if t >= spins.neel_temperature:
        return 0.0
    reduced = 1.0 - t / spins.neel_temperature
    return boundaries.saturation_field * reduced ** (1.0 / boundaries.neel_exponent)


_LABELS = np.array([ANTIFERROMAGNETIC, SPIN_FLOP, PARAMAGNETIC], dtype=object)


def _curve(line, x, *params) -> np.ndarray:
    return np.array([line(v, *params) for v in np.ravel(x).tolist()]).reshape(np.shape(x))


def _phase_labels(
    b: np.ndarray, t: np.ndarray, boundaries: PhaseBoundaries, spins: SpinSystemParams
):
    """Phase names over broadcastable field and temperature arrays.

    The three rules run as masks; each boundary curve is evaluated with the
    scalar function above once per given coordinate, so a point that function
    places on the curve is judged on it bit for bit.
    """
    flop, saturation = core.spin_flop_field(spins), boundaries.saturation_field
    if not flop < saturation:
        raise ValueError(f"spin-flop field ({flop}) must be below saturation_field ({saturation})")
    paramagnetic = (t >= _curve(neel_temperature_at, b, boundaries, spins)) | (
        b >= _curve(paramagnetic_boundary, t, boundaries, spins)
    )
    # at or above the zero-field ordering temperature every point is paramagnetic
    ordered_t = np.where(t < spins.neel_temperature, t, 0.0)
    antiferro = b < _curve(spin_flop_boundary, ordered_t, boundaries, spins)
    return _LABELS[np.where(paramagnetic, 2, np.where(antiferro, 0, 1))]


def classify_phase(
    b: float, t: float, boundaries=PhaseBoundaries(), spins=SpinSystemParams()
) -> str:
    """Name the phase at (field, temperature).

    Points exactly on a boundary go to the higher-symmetry side
    (paramagnetic over spin-flop over antiferromagnetic).
    """
    b, t = core.checked("field", b, 0.0), core.checked("temperature", t, 0.0)
    return _phase_labels(b, t, boundaries, spins)


def phase_grid(
    field_axis, temperature_axis, boundaries=PhaseBoundaries(), spins=SpinSystemParams()
):
    """Classify every point of a rectangular raster; rows follow the field axis."""
    b = core.checked("field", field_axis, 0.0)[:, None]
    t = core.checked("temperature", temperature_axis, 0.0)[None, :]
    return _phase_labels(b, t, boundaries, spins).tolist()
