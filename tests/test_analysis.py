"""Tests for peak extraction, branch fitting, linewidths, and trend fits."""

import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmcavity as ac
from afmcavity import GHZ_PER_TESLA_PER_G, analysis, optimize, spectra
from afmcavity.analysis import _make_objective
from conftest import crossing_field, map_freq_step, numerical_jacobian, sigma_coverage

# curve_fit's default tolerances stop it about 1e-6 short of the minimum that
# optimize.solve reaches; its σ is compared at that minimum
CURVE_FIT_TOLERANCES = {"xtol": 1e-15, "ftol": 1e-15, "gtol": 1e-15}


def lorentzian_map(f_center, freq_axis, n_fields=1):
    """Single bare-cavity Lorentzian per column, centered at f_center."""
    cavity = ac.CavityParams(f_cavity=f_center)
    return ac.synthesize_map(
        np.linspace(0.1, 0.2, n_fields),
        freq_axis,
        ac.SpinSystemParams(),
        cavity,
        ac.CouplingParams(big_g=0.0),
        ac.LossParams(),
    )


class TestExtractPeaks:
    def test_replaced_values_read_afresh(self, spins, cavity, coupling, loss):
        # the block row extrema come from the map's values, not from the map it replaced
        clean = ac.synthesize_map(
            np.linspace(0.0, 1.1, 23), np.linspace(10.0, 13.0, 301), spins, cavity, coupling, loss
        )
        noisy = ac.add_noise(clean, 0.2, seed=5)
        fresh = ac.TransmissionMap(clean.field_axis, clean.freq_axis, noisy.values)
        replaced = replace(clean, values=noisy.values)
        assert repr(ac.extract_peaks(replaced, 0.2)) == repr(ac.extract_peaks(fresh, 0.2))
        assert repr(ac.extract_peaks(replaced, 0.2)) != repr(ac.extract_peaks(clean, 0.2))

    def test_on_grid_peak_exact(self):
        # dyadic grid symmetric around the center: refinement must not move it
        h = 2.0**-10
        center = 11.25
        freq_axis = center + h * np.arange(-80, 81)
        peaks = ac.extract_peaks(lorentzian_map(center, freq_axis), 0.5)
        assert peaks.columns[0].positions == (center,)

    def test_midway_peak_within_tenth_step(self):
        h = 0.001
        freq_axis = np.arange(11.145, 11.345 + h / 2, h)
        center = 11.245 + 0.5 * h
        peaks = ac.extract_peaks(lorentzian_map(center, freq_axis), 0.5)
        assert abs(peaks.columns[0].positions[0] - center) < h / 10

    def test_generic_offset_within_tenth_step(self):
        h = 0.001
        freq_axis = np.arange(11.145, 11.345 + h / 2, h)
        for offset in (0.2, 0.3, 0.7):
            center = 11.245 + offset * h
            peaks = ac.extract_peaks(lorentzian_map(center, freq_axis), 0.5)
            assert abs(peaks.columns[0].positions[0] - center) < h / 10

    def test_crossing_column_doublet(self, default_map, default_peaks, spins, cavity, coupling):
        b_cross = crossing_field(spins, cavity)
        column = min(default_peaks.columns, key=lambda c: abs(c.field - b_cross))
        assert len(column.positions) == 2
        gap = column.positions[1] - column.positions[0]
        assert gap == pytest.approx(2 * coupling.big_g, abs=2 * map_freq_step(default_map))

    def test_at_most_two_peaks_everywhere(self, default_peaks):
        assert all(len(c.positions) <= 2 for c in default_peaks.columns)

    def test_positions_inside_frequency_range(self, default_map):
        noisy = ac.add_noise(default_map, 0.3, 17)
        peaks = ac.extract_peaks(noisy, 0.2)
        lo, hi = peaks.freq_range
        for col in peaks.columns:
            for p in col.positions:
                assert lo <= p <= hi

    def test_flat_column_has_no_peaks(self):
        tmap = ac.TransmissionMap([0.1], np.linspace(9, 10, 50), np.full((1, 50), 0.25))
        peaks = ac.extract_peaks(tmap, 0.1)
        assert peaks.columns[0].positions == ()

    def test_prominence_bounds(self, default_map):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                ac.extract_peaks(default_map, bad)

    def test_noise_bumps_on_peak_shoulder_suppressed(self):
        # a small wiggle riding on the main peak has height but no prominence
        freqs = np.linspace(11.0, 11.5, 501)
        cavity = ac.CavityParams()
        loss = ac.LossParams()
        base = ac.synthesize_map(
            [0.1], freqs, ac.SpinSystemParams(), cavity, ac.CouplingParams(big_g=0.0), loss
        ).values[0].copy()
        j = int(np.argmax(base))
        base[j - 4] = base[j - 3] * 1.02  # shoulder bump, ~peak height
        tmap = ac.TransmissionMap([0.1], freqs, base[None, :])
        peaks = ac.extract_peaks(tmap, 0.2)
        assert len(peaks.columns[0].positions) == 1

    def test_csv_export(self, default_peaks):
        text = default_peaks.to_csv()
        lines = text.splitlines()
        assert lines[0] == "field_T,peak_GHz,height"
        first = lines[1].split(",")
        assert float(first[0]) == default_peaks.columns[0].field

    @pytest.mark.parametrize("shape", ["default", (1, 1), (1, 301), (6, 1)], ids=str)
    def test_csv_bytes_match_per_peak_writer(
        self, default_peaks, spins, cavity, coupling, loss, shape
    ):
        peaks = default_peaks
        if shape != "default":
            fields = np.linspace(0.2, 0.9, shape[0])
            freqs = np.linspace(10.5, 12.0, shape[1]) if shape[1] > 1 else [11.0]
            tmap = ac.synthesize_map(fields, freqs, spins, cavity, coupling, loss)
            peaks = ac.extract_peaks(tmap, 0.2)

        # the per-peak writer the shared CSV codec replaced
        lines = ["field_T,peak_GHz,height"]
        for col in peaks.columns:
            for p, h in zip(col.positions, col.heights):
                lines.append(f"{col.field!r},{p!r},{h!r}")

        assert peaks.to_csv() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("positions, message", [
        pytest.param((9.0, 10.0, 11.0), "at most two peaks may be retained per column",
                     id="three-peaks"),
        pytest.param((16.0,), r"peak at 16.0 GHz outside the map frequency range \[8.0, 15.0\]",
                     id="outside-freq-range"),
    ])
    def test_peak_set_rejects_invalid_column(self, positions, message):
        column = analysis.ColumnPeaks(0.5, positions, (1.0,) * len(positions))
        with pytest.raises(ValueError, match=f"^{message}$"):
            analysis.PeakSet((column,), (8.0, 15.0))


def _local_maxima(y: np.ndarray) -> np.ndarray:
    """Interior local maxima; two-sample plateaus count once (left sample)."""
    if y.size < 3:
        return np.empty(0, dtype=int)
    interior = y[1:-1]
    candidates = (
        (interior >= y[:-2])
        & (interior >= y[2:])
        & ((interior > y[:-2]) | (interior > y[2:]))
    )
    idx = np.flatnonzero(candidates) + 1
    if idx.size > 1:
        duplicate = (np.diff(idx) == 1) & (y[idx[1:]] == y[idx[:-1]])
        idx = idx[np.concatenate(([True], ~duplicate))]
    return idx


def _parabolic_vertex(x: np.ndarray, y: np.ndarray, i: int) -> tuple[float, float]:
    """Refine a grid maximum with the quadratic through its three samples.

    Works in coordinates centered on the grid point, so a symmetric pair of
    neighbors returns the grid frequency itself with no rounding drift; the
    vertex of a genuine 3-point maximum always lies inside the bracket.
    """
    t0 = x[i - 1] - x[i]
    t2 = x[i + 1] - x[i]
    d0 = y[i - 1] - y[i]
    d2 = y[i + 1] - y[i]
    det = t0 * t2 * (t2 - t0)
    slope = (d0 * t2 * t2 - d2 * t0 * t0) / det
    curvature = (d2 * t0 - d0 * t2) / det
    if curvature >= 0:  # collinear or upward: nothing to interpolate
        return float(x[i]), float(y[i])
    shift = -slope / (2.0 * curvature)
    height = y[i] - slope * slope / (4.0 * curvature)
    return float(x[i] + shift), float(height)


def reference_prominence(y, i):
    """The per-sample walk: the oracle for ``analysis._block_prominences``."""
    h = y[i]
    if h == y.max():
        return float(h - y.min())
    bases = []
    for step in (-1, 1):
        j = i + step
        base = h
        while 0 <= j < y.size and y[j] <= h:
            base = min(base, y[j])
            j += step
        bases.append(base)
    return float(h - max(bases))


def row_prominences(y, maxima):
    """``analysis._block_prominences`` on the one-row block ``y``, listing the samples at or
    above its lowest maximum."""
    block = y[None, :]
    cols = np.flatnonzero(y >= y[maxima].min(initial=np.inf))
    rows, peak = np.zeros_like(cols), np.isin(cols, maxima)
    top, bottom = block.max(axis=1), block.min(axis=1)
    return analysis._block_prominences(block, rows, cols, peak, top, bottom)


def reference_extract_peaks(tmap, min_prominence):
    """``extract_peaks`` as it was written around ``reference_prominence``."""
    freqs = tmap.freq_axis
    columns = []
    for b, y in zip(tmap.field_axis, tmap.values):
        threshold = min_prominence * float(y.max())
        candidates = []
        if threshold > 0:
            maxima = _local_maxima(y)
            for j in maxima[y[maxima] >= threshold]:
                prom = reference_prominence(y, j)
                if prom >= threshold:
                    candidates.append((prom, int(j)))
        candidates.sort(key=lambda t: (-t[0], t[1]))
        picks = sorted(j for _, j in candidates[:2])
        refined = [_parabolic_vertex(freqs, y, j) for j in picks]
        columns.append(
            analysis.ColumnPeaks(
                field=float(b),
                positions=tuple(pos for pos, _ in refined),
                heights=tuple(height for _, height in refined),
            )
        )
    return analysis.PeakSet(tuple(columns), (float(freqs[0]), float(freqs[-1])))


# Small integer levels make ties, plateaus and repeated column maxima common.
_levels = st.integers(0, 4)
_columns = st.one_of(
    st.lists(_levels, min_size=3, max_size=40),
    st.lists(_levels, min_size=3, max_size=3),
    st.lists(_levels, min_size=3, max_size=40).map(sorted),
    st.lists(_levels, min_size=3, max_size=40).map(lambda v: sorted(v, reverse=True)),
    st.tuples(_levels, st.integers(3, 40)).map(lambda t: [t[0]] * t[1]),
    st.lists(st.sampled_from([0, 4]), min_size=3, max_size=40),
)


def _rows(n):
    """The ``_columns`` patterns at one length ``n``, all-zero rows among them."""
    row = st.lists(_levels, min_size=n, max_size=n)
    return st.one_of(
        row,
        row.map(sorted),  # maxima and plateaus at the row's end
        row.map(lambda v: sorted(v, reverse=True)),  # the maximum on the edge column
        row.map(lambda v: [4 + level for level in v]),  # a raised floor: prominence is per row
        _levels.map(lambda v: [v] * n),
        st.just([0] * n),
        st.integers(0, n - 1).map(lambda j: [4 * (k == j) for k in range(n)]),  # one spike
        st.lists(st.sampled_from([0, 4]), min_size=n, max_size=n),
    )


class TestProminences:
    @settings(max_examples=500, deadline=None)
    @given(values=_columns, min_prominence=st.sampled_from([0.05, 0.25, 0.5, 0.75]))
    def test_matches_reference_walk(self, values, min_prominence):
        y = np.array(values, dtype=float)
        maxima = _local_maxima(y)
        expected = [reference_prominence(y, i) for i in maxima]
        assert row_prominences(y, maxima).tolist() == expected
        # the threshold and the tie-break around it
        tmap = ac.TransmissionMap([0.1], np.arange(y.size, dtype=float), y[None, :])
        assert ac.extract_peaks(tmap, min_prominence) == reference_extract_peaks(
            tmap, min_prominence
        )

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.integers(1, 40).flatmap(lambda n: st.lists(_rows(n), min_size=1, max_size=8)),
        min_prominence=st.sampled_from([0.05, 0.25, 0.5, 0.75]),
    )
    def test_rows_stay_independent(self, values, min_prominence):
        # the plateau rule and the top-two choice must not reach into a neighbouring row
        y = np.array(values, dtype=float)
        tmap = ac.TransmissionMap(np.arange(y.shape[0]), np.arange(y.shape[1]), y)
        assert repr(ac.extract_peaks(tmap, min_prominence)) == repr(
            reference_extract_peaks(tmap, min_prominence)
        )

    def test_maps_spanning_blocks_bit_identical(self, spins, cavity, coupling, loss):
        clean = ac.synthesize_map(
            ac.GridSpec(start=0.0, stop=1.1, step=0.001).samples(),
            ac.GridSpec(start=8.0, stop=15.0, step=0.005).samples(),
            spins, cavity, coupling, loss,
        )
        assert clean.values.size > analysis._BLOCK_CELLS
        for seed in range(5):
            tmap = ac.add_noise(clean, 0.2, seed)
            assert repr(ac.extract_peaks(tmap, 0.2)) == repr(reference_extract_peaks(tmap, 0.2))

    def test_matches_scipy_off_the_column_maximum(self, default_map, spins, cavity, coupling, loss):
        signal = pytest.importorskip("scipy.signal")
        fine = ac.synthesize_map(
            [0.2, 0.64, 1.0], ac.GridSpec(start=8.0, stop=15.0, step=0.0005).samples(),
            spins, cavity, coupling, loss,
        )
        columns = [
            *ac.add_noise(default_map, 0.2, 5).values[::10],
            *ac.add_noise(fine, 0.2, 11).values,
        ]
        for y in columns:
            maxima = _local_maxima(y)
            at_top = y[maxima] == y.max()
            assert at_top.sum() == 1
            proms = row_prominences(y, maxima)
            # scipy walks to the column edges from a column maximum; this package
            # takes that peak's prominence as its height above the column minimum
            assert proms[at_top].tolist() == [y.max() - y.min()]
            scipy_proms, *_ = signal.peak_prominences(y, maxima[~at_top])
            assert proms[~at_top].tolist() == scipy_proms.tolist()  # 0 ULP

    def test_long_walks_bit_identical(self, spins, cavity, coupling, loss):
        tmap = ac.add_noise(
            ac.synthesize_map(
                np.linspace(0.2, 1.0, 5),
                ac.GridSpec(start=8.0, stop=15.0, step=0.0005).samples(),
                spins, cavity, coupling, loss,
            ),
            0.2,
            2024,
        )
        peaks = ac.extract_peaks(tmap, 0.2)
        expected = reference_extract_peaks(tmap, 0.2)
        assert peaks == expected
        assert repr(peaks) == repr(expected)  # also tells -0.0 from 0.0

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.integers(3, 30).flatmap(lambda n: st.lists(_rows(n), min_size=1, max_size=8)),
        block_cells=st.sampled_from([1, 7, 40, 200]),
    )
    def test_small_blocks_bit_identical(self, values, block_cells):
        # blocks of one or a few rows, and few enough cells that the peaks of a block
        # are compared with its table a few at a time
        y = np.array(values, dtype=float)
        tmap = ac.TransmissionMap(np.arange(y.shape[0]), np.arange(y.shape[1]), y)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(analysis, "_BLOCK_CELLS", block_cells)
            peaks = ac.extract_peaks(tmap, 0.25)
        assert repr(peaks) == repr(reference_extract_peaks(tmap, 0.25))

    def test_fine_axis_across_blocks_bit_identical(
        self, spins, cavity, coupling, loss, monkeypatch
    ):
        fine = ac.synthesize_map(
            np.linspace(0.2, 1.0, 9), ac.GridSpec(start=8.0, stop=15.0, step=0.0005).samples(),
            spins, cavity, coupling, loss,
        )
        # blocks of two 14001-sample rows, so the oracle's walk stays affordable; the
        # default block size spans blocks in test_maps_spanning_blocks_bit_identical
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 2 * fine.values.shape[1])
        for sigma_db, seed in [(0.2, 0), (0.2, 1), (0.2, 2), (0.2, 3), (0.2, 4), (2.0, 0)]:
            tmap = ac.add_noise(fine, sigma_db, seed)
            assert repr(ac.extract_peaks(tmap, 0.2)) == repr(reference_extract_peaks(tmap, 0.2))

    def test_nearest_higher_sample_in_an_edge_column(self):
        rows = np.array([
            [5.0, 1.0, 3.0, 0.5, 2.0],  # the peak's higher sample on the left is column 0
            [2.0, 0.5, 3.0, 1.0, 5.0],  # and on the right the last column
            # nothing higher on one side, whose base, the higher one, is the edge column
            [0.5, 1.0, 3.0, 0.2, 5.0],
            [5.0, 0.2, 3.0, 1.0, 0.5],
        ])
        for y in rows:
            assert row_prominences(y, np.array([2])).tolist() == [reference_prominence(y, 2)]
        assert [row_prominences(y, np.array([2]))[0] for y in rows] == [2.0, 2.0, 2.5, 2.5]
        tmap = ac.TransmissionMap(np.arange(4), np.arange(5), rows)
        for min_prominence in (0.3, 0.45):
            assert repr(ac.extract_peaks(tmap, min_prominence)) == repr(
                reference_extract_peaks(tmap, min_prominence)
            )

    def test_far_side_span_ends_at_a_blocks_last_cell(self, monkeypatch):
        # the peak at column 3 has no higher sample to its right, and its right base is
        # the row's last cell: prominence 2 - max(0.5, 0) = 1.5, but 1 if that cell were missed
        last = [1.0, 4.0, 0.5, 2.0, 1.0, 0.0]
        other = [0.0, 1.0, 2.0, 4.0, 2.0, 1.0]
        block = np.array([other, last])
        cols = np.flatnonzero(block[1] >= 2.0)
        proms = analysis._block_prominences(
            block, np.ones_like(cols), cols, cols == 3, block.max(axis=1), block.min(axis=1)
        )
        assert proms.tolist() == [1.5]
        # as the last row of each two-row block; threshold 1.2 keeps the peak only at 1.5
        values = np.array([other, last, other, last])
        monkeypatch.setattr(analysis, "_BLOCK_CELLS", 2 * values.shape[1])
        tmap = ac.TransmissionMap(np.arange(4), np.arange(6), values)
        peaks = ac.extract_peaks(tmap, 0.3)
        assert [len(c.positions) for c in peaks.columns] == [1, 2, 1, 2]
        assert repr(peaks) == repr(reference_extract_peaks(tmap, 0.3))

    def test_peak_memory_stays_within_one_block(self, spins, cavity, coupling, loss):
        tmap = ac.add_noise(
            ac.synthesize_map(
                ac.GridSpec(start=0.0, stop=1.1, step=0.0035).samples(),
                ac.GridSpec(start=8.0, stop=15.0, step=0.0005).samples(),
                spins, cavity, coupling, loss,
            ),
            0.2,
            0,
        )
        assert tmap.values.size >= 4 * analysis._BLOCK_CELLS
        tracemalloc.start()
        try:
            ac.extract_peaks(tmap, 0.2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one block of float64: no temporary grows with the map
        assert peak <= analysis._BLOCK_CELLS * 8


class TestFitAvoidedCrossing:
    def test_recover_coupling_alone(self, default_peaks, spins, cavity):
        report = ac.fit_avoided_crossing(default_peaks, spins, cavity, free=("big_g",))
        assert report.converged
        assert report.gradient_norm < optimize.GRADIENT_TOL
        assert report.value_of("big_g") == pytest.approx(1.72, abs=1e-3)
        assert report.uncertainty_of("big_g") < 1e-3

    def test_recover_coupling_and_zero_field_frequency(self, default_peaks, cavity):
        start = ac.SpinSystemParams(f_afmr0=31.0)  # deliberately off
        report = ac.fit_avoided_crossing(
            default_peaks, start, cavity, free=("big_g", "f_afmr0")
        )
        assert report.converged
        assert report.value_of("big_g") == pytest.approx(1.72, rel=5e-4)
        assert report.value_of("f_afmr0") == pytest.approx(34.0, rel=5e-4)
        assert report.fixed == {"g_factor": 2.0, "f_cavity": 11.245}

    def test_noisy_monte_carlo_within_one_percent(self, default_map, cavity):
        start = ac.SpinSystemParams(f_afmr0=31.0)
        for seed in range(20):
            noisy = ac.add_noise(default_map, 0.2, seed)
            peaks = ac.extract_peaks(noisy, 0.2)
            report = ac.fit_avoided_crossing(peaks, start, cavity, free=("big_g", "f_afmr0"))
            assert report.converged
            assert report.value_of("big_g") == pytest.approx(1.72, rel=0.01)
            assert report.value_of("f_afmr0") == pytest.approx(34.0, rel=0.01)

    def test_converged_fit_names_the_gradient_test(self):
        # The README set-up at seed 1: a step below tolerance, then the gradient test passes
        # on the next pass; the message names the test that decided convergence.
        cfg = ac.RunConfig()
        tmap = ac.synthesize_map(
            cfg.field_grid.samples(), cfg.freq_grid.samples(),
            cfg.spins, cfg.cavity, cfg.coupling, cfg.loss,
        )
        peaks = ac.extract_peaks(ac.add_noise(tmap, 0.2, 1), min_prominence=0.2)
        report = ac.fit_avoided_crossing(peaks, cfg.spins, cfg.cavity, free=("big_g", "f_afmr0"))
        assert report.converged
        assert report.gradient_norm < optimize.GRADIENT_TOL
        assert report.message == "gradient below tolerance"

    def test_readme_noisy_setup_converges_on_every_seed(self, default_map, cavity):
        # the README set-up (0.2 dB, min_prominence 0.2) on seeds 0-99: 28 of these 200 fits
        # stall at the rounding floor above GRADIENT_TOL and converge on the cosine test
        stalled = 0
        for seed in range(100):
            peaks = ac.extract_peaks(ac.add_noise(default_map, 0.2, seed), 0.2)
            for f_afmr0 in (31.0, 34.0):
                start = ac.SpinSystemParams(f_afmr0=f_afmr0)
                report = ac.fit_avoided_crossing(peaks, start, cavity, free=("big_g", "f_afmr0"))
                assert report.converged, (seed, f_afmr0, report.message)
                assert report.value_of("big_g") == pytest.approx(1.72, rel=0.01)
                assert report.value_of("f_afmr0") == pytest.approx(34.0, rel=0.01)
                stalled += report.message.endswith("; cosine below tolerance")
        assert stalled > 0

    @pytest.mark.parametrize("seed", [0, 1, 3, 7])
    def test_agrees_with_scipy_least_squares(self, default_map, spins, cavity, seed, monkeypatch):
        least_squares = pytest.importorskip("scipy.optimize").least_squares
        problems = []
        solver = optimize.levenberg_marquardt

        def recorded(fun, x0, jac):
            problems.append((fun, x0, jac))
            return solver(fun, x0, jac=jac)

        monkeypatch.setattr(optimize, "levenberg_marquardt", recorded)
        peaks = ac.extract_peaks(ac.add_noise(default_map, 0.2, seed), 0.2)
        report = ac.fit_avoided_crossing(peaks, spins, cavity, free=("big_g", "f_afmr0"))
        [(fun, x0, jac)] = problems
        # tolerances near eps: scipy's default gtol of 1e-8 would stop short of the stalled fits
        ref = least_squares(fun, x0, jac=jac, method="lm", xtol=1e-15, ftol=1e-15, gtol=1e-15)
        j, r = ref.jac, ref.fun
        sigma = np.sqrt(np.diag(np.linalg.inv(j.T @ j)) * (r @ r) / (r.size - j.shape[1]))
        assert report.converged
        assert report.values == pytest.approx(tuple(ref.x), rel=1e-6)
        assert report.uncertainties == pytest.approx(tuple(sigma), rel=1e-6)

    def test_window_past_spin_flop_sees_bare_cavity(self, spins, cavity, coupling, loss):
        # map columns past the spin-flop field hold the bare cavity; the fit models them so
        field_axis = ac.GridSpec(start=0.0, stop=1.5, step=0.005).samples()
        freq_axis = ac.GridSpec(start=8.0, stop=15.0, step=0.005).samples()
        tmap = ac.synthesize_map(field_axis, freq_axis, spins, cavity, coupling, loss)
        report = ac.fit_avoided_crossing(
            ac.extract_peaks(tmap, 0.2), spins, cavity, free=("big_g", "f_afmr0"), window=(0, 1.5)
        )
        assert report.converged
        assert report.value_of("big_g") == pytest.approx(1.72, rel=1e-3)
        assert report.residual_rms < 1e-3

    def test_zero_coupling_data_fits_to_zero(self, spins, cavity):
        # branch pairs generated with G = 0: one magnon-like, one cavity-like
        fields = np.linspace(0.2, 1.0, 17)
        columns = []
        for b in fields:
            pair = ac.polariton_frequencies(
                cavity, ac.magnon_branches(spins, float(b)).lower, ac.CouplingParams(big_g=0.0)
            )
            columns.append(
                analysis.ColumnPeaks(
                    field=float(b),
                    positions=(pair.lower, pair.upper),
                    heights=(1.0, 1.0),
                )
            )
        peaks = analysis.PeakSet(columns=tuple(columns), freq_range=(0.0, 60.0))
        report = ac.fit_avoided_crossing(peaks, spins, cavity, free=("big_g",))
        # gradient of the objective vanishes quadratically at G = 0, so the
        # optimizer parks within a milli-GHz of zero rather than exactly on it
        assert abs(report.value_of("big_g")) < 1e-3

    def test_round_trip_property_over_parameter_draws(self, cavity):
        rng = np.random.default_rng(31)
        loss = ac.LossParams(magnon_linewidth=0.035)
        for _ in range(8):
            g_true = rng.uniform(0.1, 3.0)
            f0_true = rng.uniform(20.0, 50.0)
            spins_true = ac.SpinSystemParams(f_afmr0=f0_true)
            coupling_true = ac.CouplingParams(big_g=g_true)
            flop = ac.spin_flop_field(spins_true)
            cross = crossing_field(spins_true, cavity)
            b_hi = min(cross + 0.25, 0.98 * flop)
            field_axis = np.linspace(max(0.0, cross - 0.25), b_hi, 161)
            freq_axis = np.arange(
                cavity.f_cavity - 2 * g_true - 0.5,
                cavity.f_cavity + 2 * g_true + 0.5,
                0.002,
            )
            tmap = ac.synthesize_map(field_axis, freq_axis, spins_true, cavity, coupling_true, loss)
            peaks = ac.extract_peaks(tmap, 0.2)
            report = ac.fit_avoided_crossing(
                peaks,
                ac.SpinSystemParams(f_afmr0=f0_true * 1.03),
                cavity,
                free=("big_g", "f_afmr0"),
                window=(0.0, b_hi),
            )
            assert report.converged
            assert report.value_of("big_g") == pytest.approx(g_true, rel=1e-3)
            assert report.value_of("f_afmr0") == pytest.approx(f0_true, rel=1e-3)

    def test_column_permutation_invariance(self, default_peaks, spins, cavity):
        report = ac.fit_avoided_crossing(default_peaks, spins, cavity, free=("big_g",))
        rng = np.random.default_rng(8)
        order = rng.permutation(len(default_peaks.columns))
        shuffled = analysis.PeakSet(
            columns=tuple(default_peaks.columns[i] for i in order),
            freq_range=default_peaks.freq_range,
        )
        report2 = ac.fit_avoided_crossing(shuffled, spins, cavity, free=("big_g",))
        assert report2.value_of("big_g") == pytest.approx(
            report.value_of("big_g"), rel=1e-9
        )

    def test_degenerate_mask_rejected(self, default_peaks, spins, cavity):
        with pytest.raises(ValueError, match="empty"):
            ac.fit_avoided_crossing(default_peaks, spins, cavity, free=())

    def test_unknown_parameter_rejected(self, default_peaks, spins, cavity):
        with pytest.raises(ValueError, match="unknown"):
            ac.fit_avoided_crossing(default_peaks, spins, cavity, free=("kappa",))

    def test_window_without_peaks_rejected(self, default_peaks, spins, cavity):
        with pytest.raises(analysis.FitError, match="window"):
            ac.fit_avoided_crossing(
                default_peaks, spins, cavity, free=("big_g",), window=(2.0, 3.0)
            )

    @staticmethod
    def _branch_peaks(spins, cavity, layout):
        """A PeakSet with the true branches at each field: "both", "lower", "upper" or "none"."""
        coupling = ac.CouplingParams(big_g=1.72)
        columns = []
        for b, kind in layout:
            pair = ac.polariton_frequencies(cavity, ac.magnon_branches(spins, b).lower, coupling)
            positions = {
                "both": (pair.lower, pair.upper),
                "lower": (pair.lower,),
                "upper": (pair.upper,),
                "none": (),
            }[kind]
            n = len(positions)
            columns.append(analysis.ColumnPeaks(b, positions, (1.0,) * n))
        return analysis.PeakSet(columns=tuple(columns), freq_range=(0.0, 60.0))

    def test_two_columns_with_peaks_rejected(self, spins, cavity):
        # an empty column and a column past the window do not count
        layout = [(0.5, "both"), (0.6, "none"), (0.8, "lower"), (1.15, "both")]
        peaks = self._branch_peaks(spins, cavity, layout)
        with pytest.raises(analysis.FitError, match="found 2"):
            ac.fit_avoided_crossing(peaks, spins, cavity, free=("big_g",))

    def test_three_columns_with_one_peak_columns_fit(self, spins, cavity):
        layout = [(0.5, "lower"), (0.6, "none"), (0.8, "both"), (1.0, "upper"), (1.15, "both")]
        peaks = self._branch_peaks(spins, cavity, layout)
        report = ac.fit_avoided_crossing(peaks, spins, cavity, free=("big_g",))
        assert report.n_observations == 4
        assert report.converged
        assert report.value_of("big_g") == pytest.approx(1.72, rel=1e-6)

    def test_window_filters_observations(self, default_peaks, spins, cavity):
        report = ac.fit_avoided_crossing(
            default_peaks, spins, cavity, free=("big_g",), window=(0.6, 1.0)
        )
        assert report.window == (0.6, 1.0)
        assert report.converged

    def test_fixed_coupling_baseline_used(self, default_peaks, spins, cavity):
        report = ac.fit_avoided_crossing(
            default_peaks,
            spins,
            cavity,
            free=("f_afmr0",),
            coupling=ac.CouplingParams(big_g=1.72),
        )
        assert report.fixed["big_g"] == 1.72
        assert report.value_of("f_afmr0") == pytest.approx(34.0, rel=1e-3)

    def test_held_coupling_needs_a_value(self, default_peaks, spins, cavity):
        # no G is made up for the fit to hold: half the smallest splitting is not a given value
        with pytest.raises(ValueError, match="coupling must give its value"):
            ac.fit_avoided_crossing(default_peaks, spins, cavity, free=("f_afmr0",))

    def test_report_serialization_keys(self, default_peaks, spins, cavity):
        report = ac.fit_avoided_crossing(default_peaks, spins, cavity, free=("big_g",))
        payload = report.to_json_dict()
        assert set(payload) == {
            "parameters", "uncertainties", "fixed", "residual_rms_ghz",
            "window_t", "iterations", "converged", "gradient_norm",
            "message", "n_observations",
        }
        assert "big_g" in payload["parameters"]
        assert json.loads(spectra.write_json(payload)) == payload

    def test_report_rejects_negative_uncertainty(self, default_peaks, spins, cavity):
        report = ac.fit_avoided_crossing(default_peaks, spins, cavity, free=("big_g",))
        with pytest.raises(ValueError, match="^uncertainties must be >= 0$"):
            replace(report, uncertainties=(-1e-3,))

    @pytest.mark.parametrize("window", [None, (0.3, 0.9)])
    def test_report_carries_stop_reason_and_observation_count(
        self, default_peaks, spins, cavity, window
    ):
        report = ac.fit_avoided_crossing(
            default_peaks, spins, cavity, free=("big_g",), window=window
        )
        lo, hi = report.window
        observations = [(c.field, p) for c in default_peaks.columns for p in c.positions]
        in_window = [b for b, _ in observations if lo <= b <= hi]
        assert report.converged
        assert report.message == "gradient below tolerance"
        assert report.n_observations == len(in_window)
        assert 0 < report.n_observations <= len(observations)
        payload = report.to_json_dict()
        assert payload["message"] == report.message
        assert payload["n_observations"] == report.n_observations


class TestFitJacobian:
    def test_analytic_matches_central_differences(self):
        rng = np.random.default_rng(77)
        for _ in range(25):
            baseline = {
                "big_g": rng.uniform(0.2, 3.0),
                "f_afmr0": rng.uniform(20.0, 50.0),
                "g_factor": rng.uniform(1.0, 4.0),
                "f_cavity": rng.uniform(5.0, 20.0),
            }
            names = ("big_g", "f_afmr0", "g_factor", "f_cavity")
            b_arr = rng.uniform(0.05, 0.6, size=12)
            p_arr = rng.uniform(5.0, 40.0, size=12)
            residual, jacobian = _make_objective(b_arr, p_arr, baseline, names)
            x = np.array([baseline[n] for n in names])
            analytic = jacobian(x)
            numeric = numerical_jacobian(residual, x, rel_step=1e-6)
            scale = np.max(np.abs(analytic)) + 1.0
            assert np.max(np.abs(analytic - numeric)) / scale < 1e-5

    @staticmethod
    def _reference_branch(theta, b, p):
        """One observation's branch and partials, evaluated scalar by scalar."""
        f_m = theta["f_afmr0"] - theta["g_factor"] * GHZ_PER_TESLA_PER_G * b
        clamped = f_m < 0.0
        f_m = max(0.0, f_m)
        big_g = 0.0 if clamped else theta["big_g"]  # past the spin flop the magnon decouples
        half = 0.5 * (theta["f_cavity"] - f_m)
        radius = math.hypot(half, big_g)
        mean = 0.5 * (theta["f_cavity"] + f_m)
        upper = abs(p - (mean + radius)) < abs(p - (mean - radius))
        sign = 1.0 if upper else -1.0
        floor = max(radius, 1e-300)
        d_dfm = 0.5 - sign * half / (2.0 * floor)
        grad = {
            "big_g": sign * big_g / floor,
            "f_afmr0": 0.0 if clamped else d_dfm,
            "g_factor": 0.0 if clamped else d_dfm * (-GHZ_PER_TESLA_PER_G * b),
            "f_cavity": 0.5 + sign * half / (2.0 * floor),
        }
        return mean + sign * radius, grad

    def test_matches_per_observation_reference(self):
        rng = np.random.default_rng(2024)
        names = ("big_g", "f_afmr0", "g_factor", "f_cavity")
        for _ in range(100):
            baseline = {
                "big_g": rng.uniform(0.0, 3.0),
                "f_afmr0": rng.uniform(20.0, 50.0),
                "g_factor": rng.uniform(1.0, 4.0),
                "f_cavity": rng.uniform(5.0, 20.0),
            }
            # fields up to 1.5 T reach past the spin-flop field of many draws
            b_arr = rng.uniform(0.0, 1.5, size=30)
            p_arr = rng.uniform(0.0, 45.0, size=30)
            residual, jacobian = _make_objective(b_arr, p_arr, baseline, names)
            x = np.array([baseline[n] for n in names])
            expected = [self._reference_branch(baseline, b, p) for b, p in zip(b_arr, p_arr)]
            branch = np.array([e[0] for e in expected])
            ref_jac = np.array([[-e[1][n] for n in names] for e in expected])
            assert np.all(np.abs((p_arr - residual(x)) - branch) <= 1e-12 * np.abs(branch))
            error = np.max(np.abs(jacobian(x) - ref_jac), axis=0)
            assert np.all(error <= 1e-12 * np.max(np.abs(ref_jac), axis=0))


class TestFieldLinewidth:
    def test_exact_lorentzian_recovered(self):
        b = np.linspace(0.60, 0.76, 2001)
        width = 1.25e-3
        p = 0.3 + 2.0 * (width / 2) ** 2 / ((b - 0.68) ** 2 + (width / 2) ** 2)
        report = ac.field_linewidth(list(zip(b, p)))
        assert report.value_of("width") == pytest.approx(width, rel=0.01)

    @pytest.mark.parametrize("freq, edge", [
        pytest.param(11.25, "0.0", id="11.25"),
        pytest.param(11.5, "1.1", id="11.5"),
        pytest.param(11.625, None, id="11.625"),
    ])
    def test_noiseless_cut_that_stalls_returns_a_width(
        self, spins, cavity, coupling, loss, freq, edge
    ):
        # on a 1 mT × 0.125 GHz map these fits stall with ‖Jᵀr‖∞ from 2.6e-10 to 9.4e-9,
        # above GRADIENT_TOL.  Two maxima sit on the field axis's edges, where a width would
        # be extrapolated from half a peak (0.538 T and 0.071 T): those cuts are refused.
        field_axis = ac.GridSpec(start=0.0, stop=1.1, step=0.001).samples()
        freq_axis = ac.GridSpec(start=8.0, stop=15.0, step=0.125).samples()
        tmap = ac.synthesize_map(field_axis, freq_axis, spins, cavity, coupling, loss)
        cut = ac.vertical_cut(tmap, freq)
        if edge is not None:
            message = f"^peak cut off: the maximum sits on the edge field {edge} T$"
            with pytest.raises(analysis.FitError, match=message):
                ac.field_linewidth(cut)
        else:
            report = ac.field_linewidth(cut)
            width = report.value_of("width")
            assert report.converged and np.isfinite(width) and width > 0

    def test_fields_out_of_order_rejected(self):
        # unchecked, descending fields fit a negative width and shuffled ones read as many peaks
        b = np.linspace(0.60, 0.76, 2001)
        width = 1.25e-3
        p = 0.3 + 2.0 * (width / 2) ** 2 / ((b - 0.68) ** 2 + (width / 2) ** 2)
        shuffled = np.random.default_rng(0).permutation(b.size)
        cuts = [
            list(zip(b[::-1], p[::-1])),
            list(zip(b[shuffled], p[shuffled])),
            ac.VerticalCut(frequency=15.6, fields=b[::-1], powers=p[::-1]),
            list(zip(np.repeat(b, 2), np.repeat(p, 2))),  # each field twice
        ]
        for cut in cuts:
            with pytest.raises(ValueError, match="^cut fields must be strictly increasing$"):
                ac.field_linewidth(cut)

    def test_flat_trace_rejected(self):
        b = np.linspace(0, 1, 100)
        with pytest.raises(analysis.FitError, match="flat"):
            ac.field_linewidth(list(zip(b, np.full_like(b, 0.4))))

    def test_multi_peak_rejected(self):
        b = np.linspace(0.6, 0.76, 801)
        w = 1.5e-3
        p = (
            (w / 2) ** 2 / ((b - 0.64) ** 2 + (w / 2) ** 2)
            + (w / 2) ** 2 / ((b - 0.72) ** 2 + (w / 2) ** 2)
        )
        with pytest.raises(analysis.FitError, match="multiple peaks"):
            ac.field_linewidth(list(zip(b, p)))

    def test_undersampled_peak_rejected(self):
        b = np.linspace(0.6, 0.76, 25)
        w = 1.5e-3
        p = (w / 2) ** 2 / ((b - 0.68) ** 2 + (w / 2) ** 2)
        with pytest.raises(analysis.FitError, match="half maximum"):
            ac.field_linewidth(list(zip(b, p)))

    def test_map_cut_linewidth_near_magnon_value(self, spins, cavity, coupling, loss):
        tmap = ac.synthesize_map(
            np.arange(0.64, 0.72 + 5e-5, 1e-4),
            np.arange(15.5, 15.7 + 2.5e-3, 5e-3),
            spins, cavity, coupling, loss,
        )
        cut = ac.vertical_cut(tmap, 15.6)
        gamma_b = ac.field_linewidth(cut).value_of("width")
        gamma_f = ac.linewidth_field_to_freq(gamma_b, spins.g_factor)
        # the polariton line mixes in cavity damping; agreement is loose
        assert gamma_f == pytest.approx(0.035, rel=0.2)

    @pytest.mark.parametrize("cut", [[], [(0.6, 1.0, 2.0)], [0.6, 0.7]])
    def test_malformed_pairs_named(self, cut):
        with pytest.raises(ValueError, match=r"^cut must be a sequence of \(field, power\) pairs$"):
            ac.field_linewidth(cut)

    def test_coarse_field_grid_named_error(self, default_map):
        # the 5 mT sweep grid cannot resolve a ~1.3 mT polariton line:
        # the failure mode must be named, not silently mis-fit
        cut = ac.vertical_cut(default_map, 10.0)
        with pytest.raises(analysis.FitError, match="refine the field grid"):
            ac.field_linewidth(cut)

    def test_sigma_matches_curve_fit(self):
        scipy_optimize = pytest.importorskip("scipy.optimize")

        def lorentzian(b, center, width, amplitude, offset):
            return offset + amplitude * (width / 2) ** 2 / ((b - center) ** 2 + (width / 2) ** 2)

        b = np.linspace(0.60, 0.76, 801)
        p = lorentzian(b, 0.68, 0.01, 2.0, 0.3)
        p += 0.02 * np.random.default_rng(31).standard_normal(b.size)
        report = ac.field_linewidth(list(zip(b, p)))
        popt, pcov = scipy_optimize.curve_fit(lorentzian, b, p, p0=(0.679, 0.012, 1.8, 0.25),
                                              **CURVE_FIT_TOLERANCES)
        assert report.converged and report.window == (0.60, 0.76)
        assert report.values == pytest.approx(popt, rel=1e-6)
        assert report.uncertainties == pytest.approx(np.sqrt(np.diag(pcov)), rel=1e-6)


class TestLinewidthConversion:
    def test_one_millitesla(self):
        assert ac.linewidth_field_to_freq(1e-3, 2.0) == pytest.approx(
            0.02799248987214541, rel=1e-14
        )

    def test_zero(self):
        assert ac.linewidth_field_to_freq(0.0, 2.0) == 0.0

    def test_known_pair(self):
        # 1.2504 mT converts to 35.0 MHz for g = 2 within a tenth of a percent
        value = ac.linewidth_field_to_freq(1.2504e-3, 2.0)
        assert value * 1e3 == pytest.approx(35.0, rel=1e-3)

    def test_linearity_exact_for_binary_scales(self):
        x = 1.37e-3
        for k in (-3, -1, 1, 4):
            a = 2.0**k
            assert ac.linewidth_field_to_freq(a * x, 2.0) == a * ac.linewidth_field_to_freq(x, 2.0)

    def test_linearity_property(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            x = rng.uniform(1e-6, 1e-1)
            a = rng.uniform(0.1, 10.0)
            lhs = ac.linewidth_field_to_freq(a * x, 2.0)
            rhs = a * ac.linewidth_field_to_freq(x, 2.0)
            assert lhs == pytest.approx(rhs, rel=1e-14)

    def test_negative_rejected(self):
        nan = float("nan")
        for gamma_b, g_factor in ((-1e-3, 2.0), (1e-3, nan), (nan, 2.0), (1e-3, 0.0)):
            with pytest.raises(ValueError):
                ac.linewidth_field_to_freq(gamma_b, g_factor)

    def test_cavity_admixture_correction(self, spins, cavity, coupling, loss):
        tmap = ac.synthesize_map(
            np.arange(0.64, 0.72 + 5e-5, 1e-4),
            np.arange(15.5, 15.7 + 2.5e-3, 5e-3),
            spins, cavity, coupling, loss,
        )
        cut = ac.vertical_cut(tmap, 15.6)
        gamma_b = ac.field_linewidth(cut).value_of("width")
        gamma_f = ac.linewidth_field_to_freq(gamma_b, spins.g_factor)
        f_m = ac.magnon_branches(spins, float(cut.fields[np.argmax(cut.powers)])).lower
        corrected = ac.magnon_linewidth_estimate(gamma_f, f_m, cavity, coupling)
        assert corrected == pytest.approx(loss.magnon_linewidth, rel=5e-3)


def tier1_trend_inputs():
    """(points, sign, temperature_unit) of each fixed-exponent trend fit that the Tier-1
    tests make and that returns a fit, with the README's points and the benchmark's."""
    rng = np.random.default_rng
    t_lw, t_g = np.linspace(0.25, 1.0, 15), np.linspace(0.3, 1.5, 25)

    def noisy(t, y, seed):  # (t, y) pairs, y with 1% multiplicative noise
        return zip(t, y * (1 + 0.01 * rng(seed).standard_normal(t.size)))

    yield noisy(t_lw, 34.8 + 30.0 * t_lw**4, 12), "+", "K"
    yield [(0.5, 10.0), (1.0, 26.0)], "+", "K"
    for seed in range(10):
        yield noisy(t_g, 1.7 - 0.2 * t_g**4, seed), "-", "K"
    for seed in range(50):  # the acceptance suite's trend recovery
        yield noisy(t_lw, 34.8 + 30.0 * t_lw**4, seed), "+", "K"
        yield noisy(t_g, 1.7 - 0.2 * t_g**4, 1000 + seed), "-", "K"
    yield [(x, 5.5) for x in np.linspace(0.2, 1.4, 9)], "-", "K"
    t = np.linspace(0.2, 1.0, 9)
    yield zip(t, 3.0 + 2.0 * t**4), "+", "K"
    yield zip(t * 1e3, 3.0 + 2.0 * t**4), "+", "mK"
    t = np.linspace(0.3, 1.4, 12)
    yield zip(t, 34.8 + 25.0 * t**4), "+", "K"
    t = np.linspace(300, 1400, 12)
    yield zip(t, 1.7 - 0.2 * (t / 1e3) ** 4), "-", "mK"
    for sign in "+-":
        yield [(x, 35.0) for x in np.linspace(0.2, 1.5, 8)], sign, "K"
    draws = rng(28)  # the command line's scan of resolvable designs
    for i in range(100):
        t = np.sort(draws.uniform(0.01, 3.0, int(draws.integers(3, 9))))
        p, sign, unit = draws.uniform(2.0, 6.0), "+-"[i % 2], ("mK", "K", "K")[i % 3]
        a = draws.uniform(10.0, 50.0)
        b = draws.uniform(0.1, 0.9) * a / t[-1] ** p * (1 if sign == "+" else -1)
        y = a + b * t**p + 1e-4 * a * draws.standard_normal(t.size)
        yield zip(t * (1e3 if unit == "mK" else 1.0), y), sign, unit
    yield [(0.3, 35.0), (0.7, 36.1), (1.0, 42.5)], "+", "K"
    yield [(0.2 * i, 35.0 + 5.0 * (0.2 * i) ** 4) for i in range(1, 8)], "+", "K"


class TestTrendFit:
    def test_linewidth_trend_with_noise(self):
        rng = np.random.default_rng(12)
        t = np.linspace(0.25, 1.0, 15)
        a_true, b_true = 34.8, 30.0  # MHz, MHz/K^4
        y = (a_true + b_true * t**4) * (1 + 0.01 * rng.standard_normal(t.size))
        fit = ac.fit_t4_trend(list(zip(t, y)), sign="+")
        assert fit.offset == pytest.approx(a_true, rel=0.02)
        assert fit.exponent == 4.0

    def test_two_exact_points_interpolated(self):
        fit = ac.fit_t4_trend([(0.5, 10.0), (1.0, 26.0)], sign="+")
        assert fit.residual_rms == pytest.approx(0.0, abs=1e-12)
        assert fit.evaluate(0.5) == pytest.approx(10.0, rel=1e-12)
        assert fit.evaluate(1.0) == pytest.approx(26.0, rel=1e-12)

    def test_coupling_trend_with_noise(self):
        # span reaches far enough that the quartic term is well resolved
        t = np.linspace(0.3, 1.5, 25)
        a_true, b_true = 1.7, 0.2  # GHz, GHz/K^4
        worst_a, worst_b = 0.0, 0.0
        for seed in range(10):
            noise = 1 + 0.01 * np.random.default_rng(seed).standard_normal(t.size)
            y = (a_true - b_true * t**4) * noise
            fit = ac.fit_t4_trend(list(zip(t, y)), sign="-")
            worst_a = max(worst_a, abs(fit.offset - a_true) / a_true)
            worst_b = max(worst_b, abs(fit.coefficient - b_true) / b_true)
        assert worst_a < 0.05
        assert worst_b < 0.05

    def test_constant_data_gives_zero_coefficient(self):
        t = np.linspace(0.2, 1.4, 9)
        fit = ac.fit_t4_trend([(float(x), 5.5) for x in t], sign="-")
        assert abs(fit.coefficient) < 1e-12

    def test_millikelvin_unit_conversion(self):
        t_k = np.linspace(0.2, 1.0, 9)
        y = 3.0 + 2.0 * t_k**4
        fit_k = ac.fit_t4_trend(list(zip(t_k, y)), sign="+", temperature_unit="K")
        fit_mk = ac.fit_t4_trend(list(zip(t_k * 1e3, y)), sign="+", temperature_unit="mK")
        assert fit_mk.offset == pytest.approx(fit_k.offset, rel=1e-9)
        assert fit_mk.coefficient == pytest.approx(fit_k.coefficient, rel=1e-9)

    def test_free_exponent_recovers_quartic(self):
        t = np.linspace(0.3, 1.5, 21)
        y = 2.0 + 1.3 * t**4
        fit = ac.fit_t4_trend(list(zip(t, y)), sign="+", exponent_free=True)
        assert fit.exponent == pytest.approx(4.0, rel=1e-6)
        assert fit.exponent_free

    def test_errors(self):
        with pytest.raises(analysis.FitError, match="singular"):
            ac.fit_t4_trend([(0.5, 1.0), (0.5, 2.0)], sign="+")
        with pytest.raises(analysis.FitError, match="at least"):
            ac.fit_t4_trend([(0.5, 1.0)], sign="+")
        with pytest.raises(analysis.FitError, match="at least"):
            ac.fit_t4_trend([(0.5, 1.0), (0.7, 2.0)], sign="+", exponent_free=True)
        with pytest.raises(ValueError, match="> 0"):
            ac.fit_t4_trend([(0.0, 1.0), (0.5, 2.0)], sign="+")
        with pytest.raises(ValueError, match="value must be finite"):
            ac.fit_t4_trend([(0.3, 1.0), (0.5, float("nan"))], sign="+")
        with pytest.raises(ValueError, match="sign"):
            ac.fit_t4_trend([(0.5, 1.0), (0.7, 2.0)], sign="*")

    @pytest.mark.parametrize("points", [[], [(0.5, 1.0, 2.0)], [0.5, 0.7]])
    def test_malformed_points_named(self, points):
        with pytest.raises(ValueError, match=r"^points must be \(temperature, value\) pairs$"):
            ac.fit_t4_trend(points)

    def test_unknown_unit_and_sign_rejected(self):
        with pytest.raises(ValueError, match="^temperature_unit must be 'K' or 'mK', got 'C'$"):
            ac.fit_t4_trend([(0.5, 1.0), (0.7, 2.0)], temperature_unit="C")
        with pytest.raises(ValueError, match="^sign must be '\\+' or '-', got 'x'$"):
            analysis.TrendFit(offset=1.0, coefficient=1.0, exponent=4.0, sign="x",
                              residual_rms=0.0)

    def test_unphysical_trends_rejected(self):
        t = np.linspace(0.5, 1.5, 9)
        falling_through_zero = 0.5 - 0.5 * t**4
        with pytest.raises(analysis.FitError, match="unphysical"):
            ac.fit_t4_trend(list(zip(t, falling_through_zero)), sign="-")
        with pytest.raises(analysis.FitError, match="^unphysical trend: fitted offset -1.03"):
            ac.fit_t4_trend([(0.5, -1.0), (1.0, 0.0), (1.5, 4.0)], sign="+")

    def test_coefficient_against_sign_rejected(self):
        t = np.linspace(0.3, 1.5, 9)
        for sign, y, trend in (("-", 2.0 + 0.5 * t**4, "rise"), ("+", 2.0 - 0.5 * t**4, "fall")):
            for exponent_free in (False, True):
                with pytest.raises(analysis.FitError) as info:
                    ac.fit_t4_trend(list(zip(t, y)), sign=sign, exponent_free=exponent_free)
                head, rest = str(info.value).split(" contradicts ")
                assert float(head.removeprefix("fitted coefficient ")) == pytest.approx(-0.5)
                assert rest == f"sign {sign!r}: the data {trend} with temperature"

    def test_fixed_exponent_overflowing_sigma_rejected(self):
        # s² (about 1e300) times diag((JᵀJ)⁻¹) (about 1e8) overflows σ², which solve refuses
        # as it does for the free and the branch fits; at 1e-10 of these values σ is finite
        points = [(1.0, 1e150), (1.00001, 3e150), (1.00002, 1.0001e150)]
        with pytest.raises(analysis.FitError,
                           match="^the data do not constrain offset, coefficient: uncertainty"):
            ac.fit_t4_trend(points, sign="+")
        small = ac.fit_t4_trend([(t, y * 1e-10) for t, y in points], sign="+")
        assert all(np.isfinite(u) for u in small.uncertainties.values())

    def test_fixed_exponent_is_the_linear_least_squares_solution(self):
        for points, sign, unit in tier1_trend_inputs():
            points = [(float(x), float(y)) for x, y in points]
            fit = ac.fit_t4_trend(points, sign=sign, temperature_unit=unit)
            temps, y = np.array(points).T
            t = temps * (1e-3 if unit == "mK" else 1.0)
            design = np.column_stack([np.ones_like(t), (1.0 if sign == "+" else -1.0) * t**4])
            solution = np.linalg.lstsq(design, y, rcond=None)[0]
            assert (fit.offset, fit.coefficient) == tuple(solution.tolist()), (points, sign)

    def test_exact_data_fixed_exponent_converges(self):
        # the residual of exact data is rounding: at 3-20 K the solver's gradient test reads
        # T⁴ times it, and it is not orthogonal to J, so the solver alone would call a stall
        rng = np.random.default_rng(0)
        for _ in range(200):
            t = np.sort(rng.uniform(0.05, 20.0, int(rng.integers(2, 7))))
            points = list(zip(t, 30.0 + rng.uniform(0.0, 0.1) * t**4))
            fit = ac.fit_t4_trend(points, sign="+")
            assert (fit.converged, fit.message) == (True, "linear least-squares solution")
            assert list(fit.uncertainties) == ["offset", "coefficient"]

    @pytest.mark.parametrize("exponent_free", [False, True], ids=["fixed", "free"])
    def test_sigma_matches_curve_fit(self, exponent_free):
        scipy_optimize = pytest.importorskip("scipy.optimize")

        def falling(t, offset, coefficient, exponent=4.0):
            return offset - coefficient * t**exponent

        t = np.linspace(0.3, 1.5, 25)
        y = falling(t, 1.7, 0.2) + 0.01 * np.random.default_rng(5).standard_normal(t.size)
        fit = ac.fit_t4_trend(list(zip(t, y)), sign="-", exponent_free=exponent_free)
        names = ("offset", "coefficient", "exponent") if exponent_free else ("offset", "coefficient")
        p0 = (1.0, 0.1, 3.0) if exponent_free else (1.0, 0.1)
        popt, pcov = scipy_optimize.curve_fit(falling, t, y, p0=p0, **CURVE_FIT_TOLERANCES)
        assert fit.converged and tuple(fit.uncertainties) == names
        for name, value, sigma in zip(names, popt, np.sqrt(np.diag(pcov))):
            assert getattr(fit, name) == pytest.approx(value, rel=1e-6)
            assert fit.uncertainties[name] == pytest.approx(sigma, rel=1e-6)

    def test_fixed_exponent_sigma_covers_two_thirds(self):
        # additive Gaussian noise: |B - truth| <= σ_B in about 0.68 of draws (0.66 at the
        # 10 residual degrees of freedom here)
        t = np.linspace(0.3, 1.5, 12)

        def draw(seed):
            y = 1.7 + 0.2 * t**4 + 0.05 * np.random.default_rng(seed).standard_normal(t.size)
            fit = ac.fit_t4_trend(list(zip(t, y)), sign="+")
            return fit.coefficient, fit.uncertainties["coefficient"]

        coverage = sigma_coverage(draw, 0.2, range(200))
        assert coverage.trials == 200 and coverage.low < coverage.share < coverage.high
        assert 0.55 <= coverage.share <= 0.80, coverage

    def test_serialization_keys(self):
        fit = ac.fit_t4_trend([(0.5, 10.0), (1.0, 26.0)], sign="+")
        payload = fit.to_json_dict()
        assert set(payload) == {
            "offset", "coefficient", "exponent", "sign", "residual_rms", "exponent_free",
            "uncertainties", "converged", "message",
        }
