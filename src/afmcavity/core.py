"""Closed-form model of the coupled cavity / two-sublattice antiferromagnet.

The antiferromagnet is described by a degenerate pair of resonance modes at
``f_afmr0`` that Zeeman-split linearly with applied field; the cavity-magnon
hybrid by the eigenvalues of the 2x2 beam-splitter coupling matrix.  All
frequencies are ordinary frequencies in GHz, fields in tesla.  Every function
here is pure and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# GHz per tesla per unit g (mu_B / h, 13.996245 GHz/T), from CODATA 2018 mu_B and SI 2019 h
GHZ_PER_TESLA_PER_G = 9.2740100783e-24 / 6.62607015e-34 * 1e-9


def checked(name: str, value, low: float = -np.inf, strict: bool = False):
    """``value`` as a float, or a float array, once every entry is finite and >= ``low``.

    ``strict`` demands every entry > ``low``.  Otherwise raises ValueError
    naming ``name`` and the first bad entry.  Two reductions decide an array
    (``min()`` propagates NaN), so checking a large map allocates no mask.
    """
    arr = np.asarray(value, dtype=float)
    lo, hi = (arr.min(initial=np.inf), arr.max(initial=-np.inf)) if arr.ndim else (float(arr),) * 2
    if not (-np.inf < lo and hi < np.inf and (lo > low if strict else lo >= low)):
        bad = ~np.isfinite(arr) | (arr <= low if strict else arr < low)
        bound = f" and {'>' if strict else '>='} {low:g}" if low > -np.inf else ""
        raise ValueError(f"{name} must be finite{bound}, got {float(arr.flat[bad.argmax()])!r}")
    return arr if arr.ndim else float(arr)


@dataclass(frozen=True)
class SpinSystemParams:
    """Identity of the antiferromagnet: g-factor, zero-field resonance, ordering temperature."""

    g_factor: float = 2.0
    f_afmr0: float = 34.0  # GHz, zero-field resonance frequency
    neel_temperature: float = 2.495  # K

    def __post_init__(self):
        for name, value in vars(self).items():
            checked(name, value, 0.0, strict=True)
        flop = spin_flop_field(self)  # > 0 only if the Zeeman slope g * 13.996245 GHz/T is finite
        checked("spin-flop field f_afmr0 / (g_factor * 13.996245 GHz/T)", flop, 0.0, strict=True)


@dataclass(frozen=True)
class CavityParams:
    """Microwave cavity: f_cavity, κ_tot = f_cavity / Q and κ_ext = fraction · κ_tot (GHz).

    A fraction of 0 is an uncoupled port, and 1 a cavity without internal loss.
    """

    f_cavity: float = 11.245  # GHz
    quality_factor: float = 1300.0
    external_coupling_fraction: float = 0.5

    def __post_init__(self):
        checked("f_cavity", self.f_cavity, 0.0, strict=True)
        checked("quality_factor", self.quality_factor, 0.0, strict=True)
        if not checked("external_coupling_fraction", self.external_coupling_fraction, 0.0) <= 1.0:
            raise ValueError("external_coupling_fraction must lie in [0, 1]")
        checked("(f_cavity / quality_factor)²", self.total_linewidth * self.total_linewidth)

    @property
    def total_linewidth(self) -> float:
        """Total cavity linewidth (FWHM, GHz): f_cavity / Q."""
        return self.f_cavity / self.quality_factor


@dataclass(frozen=True)
class CouplingParams:
    """Collective coupling strength G of the spin ensemble to the cavity."""

    big_g: float = 1.72  # GHz

    def __post_init__(self):
        big_g = checked("big_g", self.big_g, 0.0)
        checked("big_g²", big_g * big_g)


@dataclass(frozen=True)
class BranchPair:
    """An ordered pair of mode frequencies (GHz).

    ``clamped`` marks a lower branch that was pinned at zero because the
    requested field is past the spin-flop transition, where the linear
    two-sublattice model stops being valid.
    """

    lower: float
    upper: float
    clamped: bool = False

    def __post_init__(self):
        checked("lower", self.lower)
        checked("upper", self.upper)
        if self.lower > self.upper:
            raise ValueError(f"lower={self.lower} exceeds upper={self.upper}")


def zeeman_branches(f_afmr0, g_factor, field):
    """Zeeman-split resonance pair over a field array: (lower, upper, clamped).

    upper = f_afmr0 + g * gamma1 * B, lower = f_afmr0 - g * gamma1 * B with
    gamma1 = 13.996245 GHz/T.  The lower branch is clamped at 0 past the
    spin-flop field, where this linear model no longer applies, and the
    boolean mask ``clamped`` marks those entries.
    """
    with np.errstate(over="ignore"):  # far past the spin flop: lower -inf, upper inf
        upper = g_factor * GHZ_PER_TESLA_PER_G * np.asarray(field, dtype=float)  # g * gamma1 * B
        lower = f_afmr0 - upper
        upper += f_afmr0  # the Zeeman term's buffer becomes the upper branch
        clamped = lower < 0.0
        # clamped in place; a 0-d field's arithmetic gives numpy scalars, which take no out=
        return np.maximum(lower, 0.0, out=lower if np.ndim(lower) else None), upper, clamped


def coupled_magnon(f_afmr0, g_factor, big_g, field):
    """Lower magnon branch and its coupling over a field array: (f_m, G, clamped).

    Past the spin-flop field f_m is clamped at 0 and G is 0, leaving the bare cavity.
    """
    f_m, upper, clamped = zeeman_branches(f_afmr0, g_factor, field)
    del upper  # freed before np.where allocates G's array
    return f_m, np.where(clamped, 0.0, big_g), clamped


def dressed_modes(f_c, f_m, big_g):
    """Eigenvalues of [[f_c, G], [G, f_m]] over arrays: (lower, upper, w).

    f± = (f_c + f_m)/2 ± r with r = sqrt(((f_c - f_m)/2)² + G²), so the
    splitting is at least 2G, with equality exactly on resonance.  ``w`` is
    the magnon weight of the upper branch, 1/2 - (f_c - f_m)/(4r); the lower
    branch holds 1 - w.  Each branch moves with f_m at its magnon weight and
    with f_c at the rest.
    """
    mean = 0.5 * (f_c + f_m)
    half_detuning = 0.5 * (f_c - f_m)
    radius = np.hypot(half_detuning, big_g)
    upper_weight = 0.5 - half_detuning / (2.0 * np.maximum(radius, 1e-300))
    return mean - radius, mean + radius, upper_weight


def magnon_branches(spins: SpinSystemParams, field: float) -> BranchPair:
    """Zeeman-split resonance pair at one field (see :func:`zeeman_branches`)."""
    field = checked("field", field, 0.0)
    lower, upper, clamped = zeeman_branches(spins.f_afmr0, spins.g_factor, field)
    return BranchPair(lower=float(lower), upper=float(upper), clamped=bool(clamped))


def spin_flop_field(spins: SpinSystemParams) -> float:
    """Field (tesla) where the lower branch reaches zero frequency."""
    return spins.f_afmr0 / (spins.g_factor * GHZ_PER_TESLA_PER_G)


def polariton_frequencies(
    cavity: CavityParams, f_magnon: float, coupling: CouplingParams
) -> BranchPair:
    """Dressed-state frequencies of the coupled cavity-magnon pair (see :func:`dressed_modes`)."""
    f_magnon = checked("f_magnon", f_magnon, 0.0)
    lower, upper, _ = dressed_modes(cavity.f_cavity, f_magnon, coupling.big_g)
    return BranchPair(lower=float(lower), upper=float(upper))


@dataclass(frozen=True)
class RegimeReport:
    """Coupling-regime label plus the ratio G / f_cavity it was judged on."""

    label: str  # weak | strong | ultrastrong | deep-strong
    ratio: float


def coupling_regime(
    coupling: CouplingParams, cavity: CavityParams, magnon_linewidth: float
) -> RegimeReport:
    """Classify the coupling strength against loss rates and mode frequency.

    strong: G exceeds both the cavity and magnon linewidths; ultrastrong
    additionally requires G/f_cavity >= 0.1 and deep-strong >= 1.  Purely
    ratio-based, so invariant under a common rescaling of all frequencies: a
    value within 2 eps (relative) of its bound counts as reaching it.
    """
    magnon_linewidth = checked("magnon_linewidth", magnon_linewidth, 0.0)
    ratio = coupling.big_g / cavity.f_cavity
    # A rescaling rounds G, f_cavity and the magnon linewidth, then G / f_cavity and
    # f_cavity / Q once more: each compared quotient moves by at most 3 units of
    # rounding (1.5 eps) from its exact value, and 2 eps also covers the product below.
    reach = 1.0 - 2.0 * np.finfo(float).eps
    if coupling.big_g * reach <= max(cavity.total_linewidth, magnon_linewidth):
        label = "weak"
    elif ratio >= reach:
        label = "deep-strong"
    elif ratio >= 0.1 * reach:
        label = "ultrastrong"
    else:
        label = "strong"
    return RegimeReport(label=label, ratio=ratio)
