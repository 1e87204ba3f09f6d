"""Simulation and analysis toolkit for cavity-antiferromagnet hybrid systems.

Forward models: Zeeman-split antiferromagnetic resonance branches, dressed
cavity-magnon states, coupled-mode transmission maps.  Inverse problems:
avoided-crossing parameter fits, field-domain linewidth extraction with
tesla-to-GHz conversion, and temperature-trend fits.
"""

from .analysis import (
    ColumnPeaks,
    FitError,
    FitReport,
    PeakSet,
    TrendFit,
    extract_peaks,
    field_linewidth,
    fit_avoided_crossing,
    fit_t4_trend,
    linewidth_field_to_freq,
    magnon_linewidth_estimate,
)
from .config import ConfigError, GridSpec, RunConfig, load_config
from .core import (
    GHZ_PER_TESLA_PER_G,
    BranchPair,
    CavityParams,
    CouplingParams,
    RegimeReport,
    SpinSystemParams,
    coupling_regime,
    magnon_branches,
    polariton_frequencies,
    spin_flop_field,
)
from .phase import (
    ANTIFERROMAGNETIC,
    PARAMAGNETIC,
    SPIN_FLOP,
    PhaseBoundaries,
    classify_phase,
    phase_grid,
    spin_flop_boundary,
)
from .spectra import (
    LossParams,
    TransmissionMap,
    VerticalCut,
    add_noise,
    load_map,
    map_from_csv,
    map_to_csv,
    s21_power,
    save_map,
    synthesize_map,
    vertical_cut,
)

__version__ = "0.1.0"

__all__ = [
    "ANTIFERROMAGNETIC",
    "BranchPair",
    "CavityParams",
    "ColumnPeaks",
    "ConfigError",
    "CouplingParams",
    "FitError",
    "FitReport",
    "GHZ_PER_TESLA_PER_G",
    "GridSpec",
    "LossParams",
    "PARAMAGNETIC",
    "PeakSet",
    "PhaseBoundaries",
    "RegimeReport",
    "RunConfig",
    "SPIN_FLOP",
    "SpinSystemParams",
    "TransmissionMap",
    "TrendFit",
    "VerticalCut",
    "add_noise",
    "classify_phase",
    "coupling_regime",
    "extract_peaks",
    "field_linewidth",
    "fit_avoided_crossing",
    "fit_t4_trend",
    "linewidth_field_to_freq",
    "load_config",
    "load_map",
    "magnon_branches",
    "magnon_linewidth_estimate",
    "map_from_csv",
    "map_to_csv",
    "phase_grid",
    "polariton_frequencies",
    "s21_power",
    "save_map",
    "spin_flop_boundary",
    "spin_flop_field",
    "synthesize_map",
    "vertical_cut",
]
