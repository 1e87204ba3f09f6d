"""Inverse problems: peak extraction, avoided-crossing fits, linewidths, trends.

The forward model lives in :mod:`afmcavity.core`; everything here recovers its
parameters from transmission data.  Fits run on the damped least-squares
solver in :mod:`afmcavity.optimize` with analytic Jacobians.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field as dataclass_field

import numpy as np

from . import core, optimize
from .core import GHZ_PER_TESLA_PER_G, CavityParams, CouplingParams, SpinSystemParams
from .spectra import TransmissionMap, write_csv, write_json

PARAMETER_ORDER = ("big_g", "f_afmr0", "g_factor", "f_cavity")
MIN_PROMINENCE = 0.1  # extract_peaks' default, a fraction of the column maximum
FIT_WINDOW = (0.0, 1.1)  # tesla; fit_avoided_crossing's default, short of the spin-flop region


class FitError(ValueError):
    """Raised when input data cannot support the requested fit."""


class ConvergenceError(RuntimeError):
    """Raised when an optimizer fails to reach its tolerances."""


# --- peak extraction --------------------------------------------------------


@dataclass(frozen=True)
class ColumnPeaks:
    """Up to two refined peak positions for one field column."""

    field: float  # tesla
    positions: tuple[float, ...]  # GHz
    heights: tuple[float, ...]


@dataclass(frozen=True)
class PeakSet:
    """Per-field peak lists extracted from a transmission map."""

    columns: tuple[ColumnPeaks, ...]
    freq_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.freq_range
        for col in self.columns:
            if len(col.positions) > 2:
                raise ValueError("at most two peaks may be retained per column")
            for p in col.positions:
                if not lo <= p <= hi:
                    raise ValueError(
                        f"peak at {p} GHz outside the map frequency range [{lo}, {hi}]"
                    )

    def to_csv(self) -> str:
        rows = [(c.field, p, h) for c in self.columns for p, h in zip(c.positions, c.heights)]
        return "".join(write_csv(["field_T,peak_GHz,height"], list(zip(*rows))))


_BLOCK_CELLS = 1 << 20  # samples searched at once, so no temporary grows with the map


def _block_prominences(block, rows, cols, peak, top, bottom) -> np.ndarray:
    """Prominence of each peak ``block[rows[peak], cols[peak]]``: its height above the
    higher of its two bases, each the lowest sample between it and the nearest strictly
    higher sample on that side (or the row's edge).  A row maximum's is its height above
    the row minimum.  ``rows, cols`` list in row-major order samples that include every
    one strictly higher than a peak of its row; ``top`` and ``bottom`` are the block's
    row maxima and minima."""
    n = block.shape[1]
    heights = block[rows, cols]
    r, c, h = rows[peak], cols[peak], heights[peak]
    proms = h - bottom[r]
    below = h < top[r]
    # each row's listed samples in a table, between sentinels higher than any sample at
    # columns -1 and n, so that every peak finds a higher sample on either side
    counts = np.bincount(rows, minlength=len(block))
    slot = np.arange(1, rows.size + 1) - (np.cumsum(counts) - counts)[rows]
    width = int(counts.max()) + 2
    level = np.full((len(block), width), -np.inf)
    level[:, [0, -1]] = np.inf
    level[rows, slot] = heights
    column = np.full(level.shape, n)
    column[:, 0] = -1
    column[rows, slot] = cols
    r, c, h, s = r[below], c[below], h[below], slot[peak][below]
    left, right = np.empty_like(c), np.empty_like(c)
    chunk = max(1, _BLOCK_CELLS // width)  # peaks compared at once: one block of cells
    for k in range(0, h.size, chunk):
        part = slice(k, k + chunk)
        higher = level[r[part]] > h[part, None]
        before = np.arange(width) < s[part, None]
        left[part] = column[r[part], width - 1 - np.argmax((higher & before)[:, ::-1], axis=1)]
        right[part] = column[r[part], np.argmax(higher > before, axis=1)]
    # Each base is a minimum over a span [a, b) of the flattened block, (left, c) and
    # (c, right) in the row, reduced from the index pairs (a, b); an empty span yields
    # v[a], a sample >= h, as min(initial=h) would.  An end past the block's last index
    # is cut to it, and that last cell is taken in afterwards.
    v, start = block.ravel(), r * n
    end = start + right
    pairs = np.stack([start + left + 1, start + c, start + c + 1, np.minimum(end, v.size - 1)], 1)
    lows = np.minimum.reduceat(v, pairs.ravel())
    np.minimum(lows[2::4], v[-1], out=lows[2::4], where=end == v.size)
    proms[below] = h - np.maximum(np.minimum(lows[::4], h), np.minimum(lows[2::4], h))
    return proms


def extract_peaks(tmap: TransmissionMap, min_prominence: float = MIN_PROMINENCE) -> PeakSet:
    """Locate up to two transmission peaks per field column.

    A sample qualifies if its topographic prominence reaches
    ``min_prominence`` times the column maximum; the two most prominent are
    kept and refined by three-point quadratic interpolation.  Columns without
    qualifying peaks stay in the set with empty tuples.
    """
    if not 0.0 < min_prominence < 1.0:
        raise ValueError(f"min_prominence must lie in (0, 1), got {min_prominence!r}")
    freqs, values = tmap.freq_axis, tmap.values
    n = freqs.size
    ranked = []  # (row, -prominence, column) of every qualifying peak
    step = max(1, _BLOCK_CELLS // n)
    for start in range(0, len(values), step):
        block = values[start : start + step]
        top, bottom = block.max(axis=1), block.min(axis=1)
        threshold = min_prominence * top
        threshold[threshold == 0] = np.inf  # a row of zeros has no peaks
        # prominence never exceeds height, so only samples at or above the threshold can
        # qualify, and every sample higher than one of those is at or above it too
        flat = np.flatnonzero(block >= threshold[:, None])
        rows, cols = np.divmod(flat, n)
        v = block.ravel()
        h, left, right = v[flat], v[flat - 1], v[np.minimum(flat + 1, v.size - 1)]
        peak = (h >= left) & (h >= right) & ((h > left) | (h > right)) & (cols > 0) & (cols < n - 1)
        # a two-sample plateau counts once, at its left sample
        peak[1:] &= (h[1:] != left[1:]) | ~peak[:-1]
        proms = _block_prominences(block, rows, cols, peak, top, bottom)
        r, c = rows[peak], cols[peak]
        keep = proms >= threshold[r]
        # every block's qualifying peaks go into one Python list for one sort, not into an
        # array grown block by block: numpy caches freed arrays under 1 KiB by exact size, and
        # each new size can pin memory in the heap that the next map reuses
        ranked += zip((r[keep] + start).tolist(), (-proms[keep]).tolist(), c[keep].tolist())
    ranked.sort()  # by row, then prominence from the highest, ties to the lower column
    peaks = sorted((r, c) for k, (r, _, c) in enumerate(ranked) if k < 2 or ranked[k - 2][0] != r)
    rows, cols = np.array(peaks, dtype=int).reshape(-1, 2).T

    # the vertex of the quadratic through each peak and its two neighbours, centred on the
    # grid point so that a symmetric pair of neighbours returns its frequency with no drift
    x, y = freqs[cols], values[rows, cols]
    t0, t2 = freqs[cols - 1] - x, freqs[cols + 1] - x
    d0, d2 = values[rows, cols - 1] - y, values[rows, cols + 1] - y
    det = t0 * t2 * (t2 - t0)
    slope = (d0 * t2 * t2 - d2 * t0 * t0) / det
    curvature = (d2 * t0 - d0 * t2) / det
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = -slope / (2.0 * curvature)
        height = y - slope * slope / (4.0 * curvature)
    upward = curvature >= 0  # collinear or upward: nothing to interpolate
    positions = np.where(upward, x, x + shift).tolist()
    heights = np.where(upward, y, height).tolist()

    bounds = np.searchsorted(rows, np.arange(len(values) + 1)).tolist()
    columns = tuple(
        ColumnPeaks(field=b, positions=tuple(positions[lo:hi]), heights=tuple(heights[lo:hi]))
        for b, lo, hi in zip(tmap.field_axis.tolist(), bounds, bounds[1:])
    )
    return PeakSet(columns=columns, freq_range=(float(freqs[0]), float(freqs[-1])))


# --- avoided-crossing fit ---------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    """Result of a least-squares parameter fit."""

    parameter_names: tuple[str, ...]
    values: tuple[float, ...]
    uncertainties: tuple[float, ...]  # 1 sigma, same order
    residual_rms: float  # GHz
    window: tuple[float, float]  # tesla
    iterations: int
    converged: bool
    gradient_norm: float
    fixed: dict = dataclass_field(default_factory=dict)
    message: str = ""  # why the optimizer stopped
    n_observations: int = 0  # peaks inside the window

    def __post_init__(self):
        if any(u < 0 for u in self.uncertainties):
            raise ValueError("uncertainties must be >= 0")

    def value_of(self, name: str) -> float:
        return self.values[self.parameter_names.index(name)]

    def uncertainty_of(self, name: str) -> float:
        return self.uncertainties[self.parameter_names.index(name)]

    def to_json_dict(self) -> dict:
        return {
            "parameters": dict(zip(self.parameter_names, self.values)),
            "uncertainties": dict(zip(self.parameter_names, self.uncertainties)),
            "fixed": dict(self.fixed),
            "residual_rms_ghz": self.residual_rms,
            "window_t": list(self.window),
            "iterations": self.iterations,
            "converged": self.converged,
            "gradient_norm": self.gradient_norm,
            "message": self.message,
            "n_observations": self.n_observations,
        }

    def to_json(self) -> str:
        return write_json(self.to_json_dict())


def _make_objective(b_arr: np.ndarray, p_arr: np.ndarray, baseline: dict, names):
    """Residual and analytic-Jacobian functions for the branch fit.

    Each observed peak is re-assigned to the nearest model branch on every
    evaluation; the Jacobian differentiates the branch currently assigned.
    A branch moves with f_m at its magnon weight, with f_cavity at the rest,
    and with G at ±G/r (r the half splitting); past the spin-flop field the magnon
    is clamped and decoupled (:func:`core.coupled_magnon`) and moves with none of these.
    """

    def model(x: np.ndarray):
        theta = dict(baseline)
        theta.update(zip(names, x))
        f_m, big_g, clamped = core.coupled_magnon(
            theta["f_afmr0"], theta["g_factor"], theta["big_g"], b_arr
        )
        lower, upper, weight = core.dressed_modes(theta["f_cavity"], f_m, big_g)
        pick_upper = np.abs(p_arr - upper) < np.abs(p_arr - lower)
        return big_g, clamped, lower, upper, weight, pick_upper

    def residual(x: np.ndarray) -> np.ndarray:
        _, _, lower, upper, _, pick_upper = model(x)
        return p_arr - np.where(pick_upper, upper, lower)

    def jacobian(x: np.ndarray) -> np.ndarray:
        big_g, clamped, lower, upper, weight, pick_upper = model(x)
        d_fm = np.where(pick_upper, weight, 1.0 - weight)
        d_f0 = np.where(clamped, 0.0, d_fm)
        half_splitting = np.maximum(0.5 * (upper - lower), 1e-300)
        grad = {
            "big_g": np.where(pick_upper, 1.0, -1.0) * big_g / half_splitting,
            "f_afmr0": d_f0,
            "g_factor": d_f0 * (-GHZ_PER_TESLA_PER_G * b_arr),
            "f_cavity": 1.0 - d_fm,
        }
        return -np.column_stack([grad[name] for name in names])

    return residual, jacobian


def fit_avoided_crossing(
    peaks: PeakSet,
    spins: SpinSystemParams,
    cavity: CavityParams,
    free,
    window: tuple[float, float] | None = None,
    coupling: CouplingParams | None = None,
) -> FitReport:
    """Fit dressed-branch eigenfrequencies to extracted peaks.

    ``free`` selects the fitted parameters among ``big_g``, ``f_afmr0``,
    ``g_factor`` and ``f_cavity``; everything else is held at the values in
    ``spins``/``cavity``/``coupling``, so a held G needs ``coupling``.  Each
    peak is matched to the nearest model branch anew on every iteration and
    the summed squared distance is minimized by damped least squares.
    ``window`` defaults to ``FIT_WINDOW``, whose upper edge keeps the fit
    away from the spin-flop region.
    """
    free = tuple(dict.fromkeys(free))
    unknown = [name for name in free if name not in PARAMETER_ORDER]
    if unknown:
        raise ValueError(f"unknown fit parameters: {unknown}")
    if not free:
        raise ValueError("free parameter mask is empty; nothing to fit")
    if coupling is None and "big_g" not in free:
        raise ValueError("big_g is held fixed, so coupling must give its value")
    if window is None:
        window = FIT_WINDOW
    lo, hi = float(window[0]), float(window[1])
    if not lo < hi:
        raise ValueError(f"window must be an increasing interval, got {window!r}")

    columns = [c for c in peaks.columns if c.positions and lo <= c.field <= hi]
    n_fields = len({c.field for c in columns})
    if n_fields < 3:
        raise FitError(
            f"no usable peaks: need >= 3 field columns with peaks in the window "
            f"[{lo}, {hi}] T, found {n_fields}"
        )

    gaps = [abs(c.positions[1] - c.positions[0]) for c in columns if len(c.positions) == 2]
    baseline = {
        # half the smallest two-peak splitting; 0.5 GHz when no column resolves a pair
        "big_g": coupling.big_g if coupling is not None else 0.5 * min(gaps, default=1.0),
        "f_afmr0": spins.f_afmr0,
        "g_factor": spins.g_factor,
        "f_cavity": cavity.f_cavity,
    }
    names = tuple(name for name in PARAMETER_ORDER if name in free)

    b_arr = np.array([c.field for c in columns for _ in c.positions])
    p_arr = np.array([p for c in columns for p in c.positions])
    residual, jacobian = _make_objective(b_arr, p_arr, baseline, names)
    x0 = np.array([baseline[name] for name in names])
    result = optimize.levenberg_marquardt(residual, x0, jac=jacobian)
    uncertainties = optimize.covariance_uncertainties(result.jacobian, result.residual)
    unbounded = [name for name, u in zip(names, uncertainties) if not np.isfinite(u)]
    if unbounded:
        raise FitError(f"the peaks do not constrain {', '.join(unbounded)}: uncertainty overflows")
    fixed = {name: baseline[name] for name in PARAMETER_ORDER if name not in names}
    return FitReport(
        parameter_names=names,
        values=tuple(float(v) for v in result.x),
        uncertainties=tuple(float(u) for u in uncertainties),
        residual_rms=float(np.sqrt(result.cost / result.residual.size)),
        window=(lo, hi),
        iterations=result.iterations,
        converged=result.converged,
        gradient_norm=result.gradient_norm,
        fixed=fixed,
        message=result.message,
        n_observations=p_arr.size,
    )


# --- field-domain linewidth -------------------------------------------------


def _pair_columns(pairs, message: str) -> tuple[np.ndarray, np.ndarray]:
    """The two columns of a non-empty sequence of pairs; ValueError(message) otherwise."""
    data = np.asarray(list(pairs), dtype=float)
    if data.ndim != 2 or data.shape[1] != 2 or data.shape[0] == 0:
        raise ValueError(message)
    return data[:, 0], data[:, 1]


def field_linewidth(cut) -> float:
    """FWHM (tesla) of a single-peaked transmission-vs-field trace.

    Fits a Lorentzian with a flat baseline; fields must strictly increase.  Raises
    :class:`FitError` naming the failure mode for flat, multi-peaked or under-sampled traces.
    """
    b, p = _pair_columns(cut, "cut must be a sequence of (field, power) pairs")
    b, p = core.checked("cut field", b), core.checked("cut power", p)
    if not np.all(b[1:] > b[:-1]):
        raise ValueError("cut fields must be strictly increasing")
    base = float(p.min())
    peak = float(p.max())
    if peak - base <= 1e-12 * max(abs(peak), 1.0):
        raise FitError("no peak: the trace is flat")
    above = np.flatnonzero(p > base + 0.5 * (peak - base))
    regions = 1 + int(np.count_nonzero(np.diff(above) > 1))
    if regions > 1:
        raise FitError(f"multiple peaks: {regions} disjoint regions above half maximum")
    if above.size < 5:
        raise FitError(
            f"too few points above half maximum ({above.size} < 5); "
            "refine the field grid"
        )

    width0 = max(b[above[-1]] - b[above[0]], float(np.min(np.diff(b))))
    center0 = float(b[np.argmax(p)])

    # Nondimensionalize so the optimizer sees O(1) parameters regardless of
    # whether the peak is millitesla- or tesla-wide.
    x_scaled = (b - center0) / width0
    y_scaled = (p - base) / (peak - base)

    def residual(x: np.ndarray) -> np.ndarray:
        center, width, amplitude, offset = x
        hw = 0.5 * width  # the model reads only hw², so the width's sign is free
        model = offset + amplitude * hw**2 / ((x_scaled - center) ** 2 + hw**2)
        return model - y_scaled

    def jacobian(x: np.ndarray) -> np.ndarray:
        center, width, amplitude, offset = x
        hw = 0.5 * width
        dx = x_scaled - center
        den = dx**2 + hw**2
        return np.column_stack(
            [
                amplitude * hw**2 * 2.0 * dx / den**2,
                amplitude * hw * dx**2 / den**2,
                hw**2 / den,
                np.ones_like(dx),
            ]
        )

    result = optimize.levenberg_marquardt(
        residual, np.array([0.0, 1.0, 1.0, 0.0]), jac=jacobian
    )
    if not result.converged:
        raise ConvergenceError(f"linewidth fit did not converge: {result.message}")
    return float(abs(result.x[1]) * width0)


def linewidth_field_to_freq(gamma_b: float, g_factor: float) -> float:
    """Convert a field-domain linewidth (tesla) to GHz: gamma_b * g * 13.996245."""
    gamma_b = core.checked("gamma_b", gamma_b, 0.0)
    g_factor = core.checked("g_factor", g_factor, 0.0, strict=True)
    return gamma_b * g_factor * GHZ_PER_TESLA_PER_G


def magnon_linewidth_estimate(
    gamma_converted: float,
    f_magnon: float,
    cavity: CavityParams,
    coupling: CouplingParams,
    upper_branch: bool = True,
) -> float:
    """Correct a converted field-domain linewidth for cavity admixture (GHz).

    A field cut measures the polariton line gamma_pol = w_m*gamma_m +
    (1-w_m)*kappa_tot on a branch whose slope is w_m times the bare Zeeman
    slope, with w_m the magnon content.  Converting the field width with the
    bare slope therefore yields gamma_m + (1-w_m)/w_m * kappa_tot; this
    subtracts the cavity term to estimate the bare magnon linewidth.
    """
    _, _, upper_weight = core.dressed_modes(cavity.f_cavity, f_magnon, coupling.big_g)
    magnon_weight = float(upper_weight if upper_branch else 1.0 - upper_weight)
    if magnon_weight <= 0:
        raise ValueError("branch has no magnon content at this detuning")
    cavity_weight = 1.0 - magnon_weight
    return gamma_converted - cavity_weight / magnon_weight * cavity.total_linewidth


# --- temperature trends -----------------------------------------------------


@dataclass(frozen=True)
class TrendFit:
    """Power-law-in-temperature trend y = A ± B * T^p."""

    offset: float  # A, units of y
    coefficient: float  # B, units of y per K^p
    exponent: float  # p
    sign: str  # "+" or "-"
    residual_rms: float
    exponent_free: bool = False

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")

    def evaluate(self, t_kelvin) -> np.ndarray:
        s = 1.0 if self.sign == "+" else -1.0
        return self.offset + s * self.coefficient * np.asarray(t_kelvin, float) ** self.exponent

    def to_json_dict(self) -> dict:
        return asdict(self)  # the field names are the file's keys

    def to_json(self) -> str:
        return write_json(self.to_json_dict())


def fit_t4_trend(
    points,
    sign: str = "+",
    exponent_free: bool = False,
    temperature_unit: str = "K",
) -> TrendFit:
    """Fit y = A ± B * T^p, with p = 4 fixed unless ``exponent_free``.

    ``points`` is a sequence of (temperature, value) pairs; temperatures are
    converted to kelvin according to ``temperature_unit`` ("K" or "mK") so
    the returned coefficient is always per K^p.  Two points suffice for the
    fixed-exponent fit; the free-exponent fit needs at least three.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if temperature_unit not in ("K", "mK"):
        raise ValueError(f"temperature_unit must be 'K' or 'mK', got {temperature_unit!r}")
    temps, values = _pair_columns(points, "points must be (temperature, value) pairs")
    t = temps * (1e-3 if temperature_unit == "mK" else 1.0)
    min_points = 3 if exponent_free else 2
    if t.size < min_points:
        raise FitError(f"need at least {min_points} points, got {t.size}")
    t = core.checked("temperature", t, 0.0, strict=True)
    y = core.checked("value", values)
    s = 1.0 if sign == "+" else -1.0

    with np.errstate(over="ignore"):  # an overflow fails the check
        t4 = core.checked("temperature⁴", t**4)
        core.checked("sum of value²", y @ y)  # no fitted residual is longer than y
    if np.ptp(t4) == 0:  # equal temperatures, or ones whose 4th powers underflow alike
        raise FitError("singular design: all temperatures⁴ are equal")
    design = np.column_stack([np.ones_like(t), s * t4])
    solution, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < 2 and not exponent_free:  # the free fit can still move the exponent
        raise FitError("singular design: temperatures⁴ are numerically collinear with the offset")
    x = np.append(solution, 4.0)

    def residual(x: np.ndarray) -> np.ndarray:
        a, bb, p = x
        return a + s * bb * t**p - y

    if exponent_free:

        def jacobian(x: np.ndarray) -> np.ndarray:
            _, bb, p = x
            tp = t**p
            return np.column_stack([np.ones_like(t), s * tp, s * bb * tp * np.log(t)])

        result = optimize.levenberg_marquardt(residual, x, jac=jacobian)
        if not result.converged:
            raise ConvergenceError(f"trend fit did not converge: {result.message}")
        x = result.x
    res = residual(x)

    fit = TrendFit(
        offset=float(x[0]),
        coefficient=float(x[1]),
        exponent=float(x[2]),
        sign=sign,
        residual_rms=float(np.sqrt(res @ res / t.size)),
        exponent_free=exponent_free,
    )
    if fit.offset <= 0:
        raise FitError(f"unphysical trend: fitted offset {fit.offset} is not positive")
    # Each y rounded by eps, and lstsq's backward error of that order, move B by up to
    # about 2n·eps·Σ|Pᵢ·yᵢ|, P the pseudo-inverse's row for B: a B within that is zero.
    row = np.linalg.pinv(np.column_stack([np.ones_like(t), t**fit.exponent]))[1]
    if fit.coefficient < -2 * t.size * np.finfo(float).eps * (np.abs(row) @ np.abs(y)):
        trend = "rise" if sign == "-" else "fall"
        raise FitError(f"fitted coefficient {fit.coefficient} contradicts sign {sign!r}: "
                       f"the data {trend} with temperature")
    if sign == "-" and np.any(fit.evaluate(t) <= 0):
        raise FitError("unphysical trend: fitted curve crosses zero inside the data range")
    return fit
