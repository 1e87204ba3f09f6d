"""Tests for transmission-map synthesis, noise, cuts, and serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmcavity as ac
from afmcavity import spectra
from conftest import map_freq_step


@pytest.fixture(scope="module")
def zero_coupling():
    return ac.CouplingParams(big_g=0.0)


class TestLossParams:
    def test_from_cavity_splits_total(self, cavity):
        loss = ac.LossParams.from_cavity(cavity)
        assert loss.cavity_total_linewidth == pytest.approx(cavity.total_linewidth, rel=1e-14)
        assert loss.cavity_external_linewidth == pytest.approx(
            0.5 * cavity.total_linewidth, rel=1e-14
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ac.LossParams(cavity_internal_linewidth=-1e-3, cavity_external_linewidth=1e-3)


class TestS21Power:
    def test_decoupled_peak_height(self, spins, cavity, zero_coupling, loss):
        # at f = f_c with G = 0 the lineshape peaks at (kappa_ext / (kappa_tot/2))^2
        expected = (loss.cavity_external_linewidth / (0.5 * loss.cavity_total_linewidth)) ** 2
        value = ac.s21_power(cavity.f_cavity, 0.4, spins, cavity, zero_coupling, loss)
        assert value == pytest.approx(expected, rel=1e-12)

    def test_normal_mode_splitting_at_crossing(self, spins, cavity, coupling, loss):
        # oracle: scan frequency on a 1 MHz grid at the crossing field and
        # locate the extrema of the hybridized doublet
        b = ac.crossing_field(spins, cavity)
        f = np.arange(8.0, 15.0, 0.001)
        power = ac.synthesize_map([b], f, spins, cavity, coupling, loss).values[0]
        doublet = np.sort(f[np.argsort(power)[-2:]])
        assert doublet[0] == pytest.approx(cavity.f_cavity - coupling.big_g, abs=0.01)
        assert doublet[1] == pytest.approx(cavity.f_cavity + coupling.big_g, abs=0.01)
        # local minimum sits at the bare cavity frequency
        window = np.abs(f - cavity.f_cavity) < 1.0
        assert f[window][np.argmin(power[window])] == pytest.approx(
            cavity.f_cavity, abs=0.002
        )
        spot = ac.s21_power(float(doublet[0]), b, spins, cavity, coupling, loss)
        assert spot == pytest.approx(power[f == doublet[0]][0], rel=1e-12)

    def test_far_detuned_tail_bound(self, spins, cavity, coupling, loss):
        peak = (loss.cavity_external_linewidth / (0.5 * loss.cavity_total_linewidth)) ** 2
        f = cavity.f_cavity + 150 * loss.cavity_total_linewidth  # magnon is at ~28 GHz here
        value = ac.s21_power(f, 0.2, spins, cavity, coupling, loss)
        assert value < 1e-4 * peak

    def test_beyond_spin_flop_rejected(self, spins, cavity, coupling, loss):
        with pytest.raises(ValueError, match="spin-flop"):
            ac.s21_power(11.0, 1.3, spins, cavity, coupling, loss)
        value = ac.s21_power(
            11.0, 1.3, spins, cavity, coupling, loss, allow_beyond_spin_flop=True
        )
        assert np.isfinite(value) and value >= 0

    def test_no_nan_on_random_draws(self, spins, cavity, coupling, loss):
        # dense random grid = 10^6 samples of the allowed domain
        rng = np.random.default_rng(99)
        fields = np.sort(rng.uniform(0.0, 1.2, 1000))
        fields = np.unique(fields)
        freqs = np.unique(np.sort(rng.uniform(0.5, 40.0, 1000)))
        tmap = ac.synthesize_map(fields, freqs, spins, cavity, coupling, loss)
        assert np.all(np.isfinite(tmap.values))
        assert np.all(tmap.values >= 0)

    def test_lossless_magnon_on_resonance_is_zero(self, spins, cavity, coupling):
        loss = ac.LossParams(
            cavity_internal_linewidth=0.004,
            cavity_external_linewidth=0.004,
            magnon_linewidth=0.0,
        )
        f_m = ac.magnon_branches(spins, 0.5).lower
        assert ac.s21_power(f_m, 0.5, spins, cavity, coupling, loss) == 0.0


def _reference_s21(freqs, f_magnon, cavity, coupling, loss):
    """The complex coupled-mode lineshape, kept as the oracle of the real kernel."""
    freqs = np.asarray(freqs, dtype=float)
    kappa_ext = loss.cavity_external_linewidth
    kappa_tot = loss.cavity_total_linewidth
    magnon_den = 1j * (freqs - f_magnon) + 0.5 * loss.magnon_linewidth
    big_g2 = coupling.big_g**2
    singular = magnon_den == 0
    shift = big_g2 / np.where(singular, 1.0, magnon_den)
    den = 1j * (freqs - cavity.f_cavity) + 0.5 * kappa_tot + shift
    dead = den == 0
    power = np.abs(kappa_ext / np.where(dead, 1.0, den)) ** 2
    if big_g2 > 0:
        power = np.where(singular, 0.0, power)
    return np.where(dead, 0.0, power)


class TestKernelOracle:
    def test_random_cavities_match_complex_form(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(3000):
            cavity = ac.CavityParams(
                f_cavity=rng.uniform(1.0, 40.0),
                quality_factor=10.0 ** rng.uniform(1.0, 6.0),
                external_coupling_fraction=rng.uniform(0.05, 0.95),
            )
            big_g = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 1.0)
            gamma = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-5.0, 0.0)
            coupling = ac.CouplingParams(big_g=big_g)
            loss = ac.LossParams.from_cavity(cavity, magnon_linewidth=gamma)
            f_c = cavity.f_cavity
            f_m = f_c + rng.uniform(-3.0, 3.0) * max(big_g, cavity.total_linewidth)
            span = 4.0 * (big_g + cavity.total_linewidth)
            freqs = np.concatenate([
                [f_c, f_m, np.nextafter(f_m, 0.0), np.nextafter(f_m, np.inf)],
                rng.uniform(f_c - span, f_c + span, 24),
                f_m + rng.normal(0.0, gamma + 1e-6, 8),
            ])
            freqs = freqs[freqs > 0]
            got = spectra._evaluate_s21(freqs, f_m, cavity, coupling, loss)
            ref = _reference_s21(freqs, f_m, cavity, coupling, loss)
            assert np.array_equal(got == 0, ref == 0)
            nonzero = ref != 0
            rel = np.abs(got[nonzero] - ref[nonzero]) / ref[nonzero]
            worst = max(worst, float(rel.max(initial=0.0)))
        assert worst < 1e-11

    def test_lossless_magnon_on_resonance(self, cavity, coupling):
        loss = ac.LossParams(0.004, 0.004, magnon_linewidth=0.0)
        f_m = 10.5
        assert spectra._evaluate_s21([f_m], f_m, cavity, coupling, loss)[0] == 0.0
        decoupled = ac.CouplingParams(big_g=0.0)
        bare = spectra._evaluate_s21([f_m], f_m, cavity, decoupled, loss)[0]
        detuning = f_m - cavity.f_cavity
        assert bare > 0
        assert bare == pytest.approx(0.004**2 / (0.004**2 + detuning**2), rel=1e-14)

    def test_lossless_cavity_on_resonance_is_zero(self, cavity):
        loss = ac.LossParams(0.0, 0.0, magnon_linewidth=0.035)
        decoupled = ac.CouplingParams(big_g=0.0)
        value = spectra._evaluate_s21([cavity.f_cavity], 30.0, cavity, decoupled, loss)[0]
        assert value == 0.0

    def test_out_row_written_in_place(self, cavity, coupling, loss):
        freqs = np.linspace(8.0, 15.0, 101)
        out = np.full(freqs.size, np.nan)
        result = spectra._evaluate_s21(freqs, 11.0, cavity, coupling, loss, out=out)
        assert result is out
        assert np.array_equal(out, spectra._evaluate_s21(freqs, 11.0, cavity, coupling, loss))


class TestTransmissionMap:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ac.TransmissionMap([0.2, 0.1], [1.0, 2.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            ac.TransmissionMap([0.1, 0.2], [1.0, 2.0], np.ones((3, 2)))
        with pytest.raises(ValueError, match="finite"):
            ac.TransmissionMap([0.1], [1.0], [[np.nan]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    def test_bad_cell_rejected(self, bad):
        values = np.ones((2, 3))
        values[1, 2] = bad  # not the first cell
        with pytest.raises(ValueError, match="values must be finite and >= 0"):
            ac.TransmissionMap([0.1, 0.2], [1.0, 2.0, 3.0], values)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_signed_zero_accepted(self, zero):
        values = np.ones((2, 3))
        values[1, 2] = zero
        tmap = ac.TransmissionMap([0.1, 0.2], [1.0, 2.0, 3.0], values)
        assert tmap.values[1, 2] == 0.0

    def test_values_immutable(self, default_map):
        with pytest.raises(ValueError):
            default_map.values[0, 0] = 1.0

    def test_caller_arrays_stay_writable(self, default_map):
        fields, freqs, values = np.array([0.1, 0.2]), np.array([1.0, 2.0]), np.ones((2, 2))
        tmap = ac.TransmissionMap(fields, freqs, values)
        cut = ac.VerticalCut(1.0, fields, values[:, 0])
        fields[0], values[0, 0] = 0.05, 2.0
        assert tmap.field_axis[0] == 0.1 and tmap.values[0, 0] == 1.0
        assert cut.fields[0] == 0.1 and cut.powers[0] == 1.0
        assert not (tmap.values.flags.writeable or cut.powers.flags.writeable)
        # read-only arrays, such as a map's own or grid samples, are adopted without a copy
        again = ac.TransmissionMap(
            default_map.field_axis, default_map.freq_axis, default_map.values
        )
        assert again.values is default_map.values
        axis = ac.GridSpec(start=8.0, stop=9.0, step=0.5).samples()
        assert ac.TransmissionMap([0.1], axis, np.ones((1, 3))).freq_axis is axis

    def test_read_only_view_is_copied(self):
        base = np.ones((2, 2))
        view = base.view()
        view.flags.writeable = False
        tmap = ac.TransmissionMap([0.1, 0.2], [1.0, 2.0], view)
        cut = ac.VerticalCut(1.0, [0.1, 0.2], view[:, 0])
        base[0, 0] = -5.0  # the view sees this write; the map and the cut must not
        assert tmap.values[0, 0] == 1.0 and cut.powers[0] == 1.0
        assert not tmap.values.flags.writeable


class TestSynthesizeMap:
    def test_single_cell(self, spins, cavity, coupling, loss):
        tmap = ac.synthesize_map([0.3], [11.0], spins, cavity, coupling, loss)
        assert tmap.shape == (1, 1)
        assert tmap.values[0, 0] == ac.s21_power(11.0, 0.3, spins, cavity, coupling, loss)
        fields = [0.0, 0.3, 0.62, 0.6617, 0.7, 1.1, 1.2]
        freqs = [8.0, 9.53, 11.0, 11.245, 12.9, 15.0]
        tmap = ac.synthesize_map(fields, freqs, spins, cavity, coupling, loss)
        for i, b in enumerate(fields):
            for j, f in enumerate(freqs):
                assert tmap.values[i, j] == ac.s21_power(f, b, spins, cavity, coupling, loss)

    def test_zero_coupling_columns_identical(self, spins, cavity, zero_coupling, loss):
        tmap = ac.synthesize_map(
            np.linspace(0, 1.0, 7), np.linspace(10.5, 12.0, 301),
            spins, cavity, zero_coupling, loss,
        )
        for i in range(1, tmap.shape[0]):
            assert np.array_equal(tmap.values[i], tmap.values[0])

    def test_minimum_gap_is_2g_at_crossing(self, default_map, default_peaks, spins, cavity, coupling):
        # column-wise two-peak separations, minimized at the crossing field
        gaps = [
            (col.field, col.positions[1] - col.positions[0])
            for col in default_peaks.columns
            if len(col.positions) == 2
        ]
        assert gaps, "expected doublet columns near the crossing"
        b_min, gap_min = min(gaps, key=lambda t: t[1])
        freq_step = map_freq_step(default_map)
        field_step = float(np.min(np.diff(default_map.field_axis)))
        assert gap_min == pytest.approx(2 * coupling.big_g, abs=freq_step)
        assert abs(b_min - ac.crossing_field(spins, cavity)) <= field_step

    def test_beyond_spin_flop_filled_with_bare_cavity(self, spins, cavity, coupling, loss):
        fields = np.array([0.5, 1.3])
        freqs = np.linspace(10.5, 12.0, 401)
        tmap = ac.synthesize_map(fields, freqs, spins, cavity, coupling, loss)
        assert tmap.metadata["beyond_spin_flop_fields"] == [1.3]
        bare = ac.synthesize_map(
            [1.3], freqs, spins, cavity, ac.CouplingParams(big_g=0.0), loss
        )
        assert np.array_equal(tmap.values[1], bare.values[0])

    def test_passivity_bound(self, default_map, loss):
        bound = (loss.cavity_external_linewidth / (0.5 * loss.cavity_total_linewidth)) ** 2
        assert default_map.values.max() <= bound * (1 + 1e-12)

    def test_decoupled_columns_are_lorentzian(self, spins, cavity, zero_coupling, loss):
        freqs = np.arange(11.0, 11.5, 0.0005)
        tmap = ac.synthesize_map(
            np.linspace(0, 1.0, 5), freqs, spins, cavity, zero_coupling, loss
        )
        for i in range(tmap.shape[0]):
            fwhm_f = _lorentzian_fwhm_ghz(freqs, tmap.values[i])
            peak_f = freqs[np.argmax(tmap.values[i])]
            assert abs(peak_f - cavity.f_cavity) <= 0.0005
            assert fwhm_f == pytest.approx(loss.cavity_total_linewidth, rel=0.02)


def _lorentzian_fwhm_ghz(freqs, power):
    """FWHM oracle via the frequency-domain Lorentzian fit of one column."""
    from afmcavity import optimize

    base, peak = float(power.min()), float(power.max())
    center0 = float(freqs[np.argmax(power)])
    scale = peak - base

    def residual(x):
        c, w, a, o = x
        hw = 0.5 * abs(w)
        return (o + a * hw**2 / ((freqs - c) ** 2 + hw**2) - power) / scale

    result = optimize.levenberg_marquardt(residual, np.array([center0, 0.01, scale, base]))
    assert result.converged or result.gradient_norm < 1e-6
    return abs(float(result.x[1]))


class TestAddNoise:
    def test_zero_sigma_identity(self, default_map):
        noisy = ac.add_noise(default_map, 0.0, 123)
        assert np.array_equal(noisy.values, default_map.values)

    def test_deterministic_for_seed(self, default_map):
        a = ac.add_noise(default_map, 0.5, 7)
        b = ac.add_noise(default_map, 0.5, 7)
        assert np.array_equal(a.values, b.values)
        c = ac.add_noise(default_map, 0.5, 8)
        assert not np.array_equal(a.values, c.values)

    def test_db_statistics(self):
        flat = ac.TransmissionMap(
            np.arange(100) * 0.01 + 0.01, np.arange(100) * 0.01 + 1.0,
            np.ones((100, 100)),
        )
        noisy = ac.add_noise(flat, 0.5, 42)
        db = 10.0 * np.log10(noisy.values)
        assert abs(db.std() - 0.5) / 0.5 < 0.05
        assert abs(db.mean()) < 0.05

    def test_negative_sigma_rejected(self, default_map):
        with pytest.raises(ValueError):
            ac.add_noise(default_map, -0.1, 1)

    def test_metadata_records_noise(self, default_map):
        noisy = ac.add_noise(default_map, 0.3, 5)
        assert noisy.metadata["noise"] == {"sigma_db": 0.3, "seed": 5}


class TestVerticalCut:
    def test_on_grid_frequency_verbatim(self, default_map):
        f = float(default_map.freq_axis[137])
        cut = ac.vertical_cut(default_map, f)
        assert cut.frequency == f
        assert np.array_equal(cut.powers, default_map.values[:, 137])
        assert np.array_equal(cut.fields, default_map.field_axis)

    def test_nearest_sample_recorded(self, default_map):
        f = float(default_map.freq_axis[21]) + 0.4 * map_freq_step(default_map)
        cut = ac.vertical_cut(default_map, f)
        assert cut.frequency == float(default_map.freq_axis[21])

    def test_out_of_range_rejected(self, default_map):
        with pytest.raises(ValueError, match="outside"):
            ac.vertical_cut(default_map, 7.0)
        with pytest.raises(ValueError, match="outside"):
            ac.vertical_cut(default_map, 15.6)

    def test_upper_branch_cut_single_peak(self, spins, cavity, coupling, loss):
        # the upper dressed branch passes a fixed high frequency exactly once
        tmap = ac.synthesize_map(
            np.arange(0.5, 0.9, 0.001), np.arange(15.5, 15.7, 0.005),
            spins, cavity, coupling, loss,
        )
        cut = ac.vertical_cut(tmap, 15.6)
        p = np.asarray(cut.powers)
        above = p > p.min() + 0.5 * (p.max() - p.min())
        runs = np.flatnonzero(np.diff(np.concatenate(([0], above.view(np.int8), [0]))) == 1)
        assert runs.size == 1

    def test_cut_iterates_as_pairs(self, default_map):
        cut = ac.vertical_cut(default_map, 11.245)
        pairs = list(cut)
        assert len(pairs) == len(default_map.field_axis)
        assert pairs[0][0] == default_map.field_axis[0]


class TestSerialization:
    def test_round_trip_bit_identical(self, default_map, tmp_path):
        small = ac.synthesize_map(
            default_map.field_axis[:7], default_map.freq_axis[:11],
            ac.SpinSystemParams(), ac.CavityParams(), ac.CouplingParams(big_g=1.72),
            ac.LossParams.from_cavity(ac.CavityParams(), 0.035),
        )
        path = tmp_path / "map.csv"
        ac.save_map(small, path)
        loaded = ac.load_map(path)
        assert np.array_equal(loaded.field_axis, small.field_axis)
        assert np.array_equal(loaded.freq_axis, small.freq_axis)
        assert np.array_equal(loaded.values, small.values)
        assert loaded.metadata == small.metadata

    def test_header_checked(self):
        with pytest.raises(ValueError, match="line 1"):
            ac.map_from_csv("field,freq,val\n0,1,2\n")

    @pytest.mark.parametrize("body, lineno", [
        pytest.param("0.1,9.0,0.5\n0.1,oops,0.5\n", 3, id="bad-value"),
        pytest.param("0.1,9.0,0.5\n\n0.1,oops,0.5\n", 4, id="bad-value-after-blank"),
        pytest.param("0.1,9.0,0.5\n \t \n0.1,oops,0.5\n", 4, id="whitespace-line-skipped"),
        pytest.param("0.1,9.0,0.5\n# note\n0.1,oops,0.5\n", 4, id="comment-line-skipped"),
        pytest.param("0.1,9.0,0.5\n0.1,9.1\n", 3, id="two-value-row"),
        pytest.param("0.1,9.0,0.5\n0.1,9.1,0.5,\n", 3, id="trailing-comma"),
        pytest.param("0.1,9.0,0.5,\n0.1,9.1,0.5\n", 2, id="first-row-trailing-comma"),
        pytest.param("0.1,9.0\n0.1,9.1,0.5\n", 2, id="first-row-two-values"),
        pytest.param("0.1,9.0,0.5,1\n0.1,9.1,0.5,1\n", 2, id="four-value-rows"),
        pytest.param("0.1,9.0,0.5\n0.1,9.1,1_0\n", 3, id="underscore-digits"),
        pytest.param("", 2, id="header-only"),
        pytest.param("\n# note\n", 2, id="no-data-rows"),
        pytest.param("0.1,9.0,nan\n", 2, id="nan-cell"),
        pytest.param("0.1,9.0,0.5\n0.1,9.1,inf\n", 3, id="inf-cell"),
        pytest.param("0.1,9.0,0.5\n\n0.1,9.1,-inf\n", 4, id="minus-inf-cell-after-blank"),
        pytest.param("0.1,9.0,0.5\n# note\n \n0.1,9.1,-1.0\n", 5, id="negative-cell-after-comment"),
        pytest.param("0.1,9.0,0.5\n0.1,nan,0.5\n", 3, id="nan-frequency"),
        pytest.param("0.1,9.0,0.5\n0.2,9.0,-1.0\n0.2,9.1,nan\n", 3, id="first-of-two-bad-cells"),
    ])
    def test_malformed_line_reported(self, body, lineno):
        text = spectra.CSV_HEADER + "\n" + body
        with pytest.raises(ValueError, match=rf"^line {lineno}:"):
            ac.map_from_csv(text)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_round_trip_property(self, data):
        def axis(n):
            finite = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
            return data.draw(st.lists(finite, min_size=n, max_size=n, unique=True).map(sorted))

        n_fields, n_freqs = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
        value = st.one_of(
            st.sampled_from([0.0, 5e-324, 1e300]),
            st.floats(0.0, 1e300, allow_nan=False, allow_infinity=False),
        )
        cells = data.draw(st.lists(value, min_size=n_fields * n_freqs, max_size=n_fields * n_freqs))
        tmap = ac.TransmissionMap(
            axis(n_fields), axis(n_freqs), np.reshape(cells, (n_fields, n_freqs))
        )
        back = ac.map_from_csv(ac.map_to_csv(tmap))
        for name in ("field_axis", "freq_axis", "values"):
            assert getattr(back, name).tobytes() == getattr(tmap, name).tobytes()

    @pytest.mark.parametrize("db", [False, True], ids=["linear", "db"])
    @pytest.mark.parametrize("shape", ["default", (1, 1), (1, 6), (6, 1)], ids=str)
    def test_bytes_match_per_cell_writer(self, default_map, shape, db):
        if shape == "default":
            field_axis, freq_axis = default_map.field_axis, default_map.freq_axis
            values = default_map.values.copy()
        else:
            rng = np.random.default_rng(11)
            field_axis = np.cumsum(rng.uniform(0.01, 0.2, shape[0]))
            freq_axis = 8.0 + np.cumsum(rng.uniform(0.001, 0.5, shape[1]))
            values = rng.uniform(0.0, 1.0, shape)
        values[0, -1] = 0.0  # writes -inf in dB
        tmap = ac.TransmissionMap(field_axis, freq_axis, values)

        # the per-cell writer the shared codec replaced
        lines = [spectra.CSV_HEADER_DB if db else spectra.CSV_HEADER]
        if db:
            with np.errstate(divide="ignore"):
                values = 10.0 * np.log10(values)
        for b, row in zip(field_axis.tolist(), values.tolist()):
            for f, v in zip(freq_axis.tolist(), row):
                lines.append(f"{b!r},{f!r},{v!r}")
        expected = "\n".join(lines) + "\n"

        assert ac.map_to_csv(tmap, db=db) == expected
        assert ("-inf" in expected) == db

    def test_incomplete_grid_rejected(self):
        text = spectra.CSV_HEADER + "\n0.1,9.0,0.5\n0.1,9.1,0.5\n0.2,9.0,0.5\n"
        with pytest.raises(ValueError, match="grid"):
            ac.map_from_csv(text)

    def test_db_export_header(self, default_map):
        text = ac.map_to_csv(default_map, db=True)
        assert text.splitlines()[0] == spectra.CSV_HEADER_DB
