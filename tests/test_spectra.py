"""Tests for transmission-map synthesis, noise, cuts, and serialization."""

import hashlib
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmcavity as ac
from afmcavity import core, spectra
from afmcavity.cli import main
from conftest import crossing_field, map_freq_step


@pytest.fixture(scope="module")
def zero_coupling():
    return ac.CouplingParams(big_g=0.0)


@pytest.fixture(scope="module")
def digest_map():
    """A clean 56×351 map of ``RunConfig()``'s model, pinned by its CSV digest."""
    cfg = ac.RunConfig()
    return ac.synthesize_map(
        ac.GridSpec(start=0.0, stop=1.375, step=0.025).samples(),
        ac.GridSpec(start=8.0, stop=15.0, step=0.02).samples(),
        cfg.spins, cfg.cavity, cfg.coupling, cfg.loss,
    )


@pytest.fixture(scope="module")
def default_text(default_map):
    """The default map's CSV text: about eleven of the reader's line windows."""
    return ac.map_to_csv(default_map)


class TestLossParams:
    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="magnon_linewidth must be finite and >= 0"):
            ac.LossParams(magnon_linewidth=-1e-3)


class TestS21Power:
    def test_decoupled_peak_height(self, spins, zero_coupling, loss):
        # at f = f_c with G = 0 the lineshape peaks at (kappa_ext / (kappa_tot/2))^2 = (2 frac)^2
        for frac in (0.0, 0.2, 0.5, 1.0):
            cavity = ac.CavityParams(external_coupling_fraction=frac)
            value = ac.s21_power(cavity.f_cavity, 0.4, spins, cavity, zero_coupling, loss)
            assert value == pytest.approx((2 * frac) ** 2, rel=1e-12)

    def test_normal_mode_splitting_at_crossing(self, spins, cavity, coupling, loss):
        # oracle: scan frequency on a 1 MHz grid at the crossing field and
        # locate the extrema of the hybridized doublet
        b = crossing_field(spins, cavity)
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
        peak = (2 * cavity.external_coupling_fraction) ** 2
        f = cavity.f_cavity + 150 * cavity.total_linewidth  # magnon is at ~28 GHz here
        value = ac.s21_power(f, 0.2, spins, cavity, coupling, loss)
        assert value < 1e-4 * peak

    def test_beyond_spin_flop_is_bare_cavity(self, spins, cavity, coupling, loss):
        # past the spin-flop field (1.2146 T) the magnon decouples: the bare cavity's closed form
        kappa_tot = cavity.total_linewidth
        kappa_ext = cavity.external_coupling_fraction * kappa_tot
        for b in (1.3, 1.5, 10.0):
            for f in (8.0, 11.0, cavity.f_cavity, 11.3, 15.0):
                bare = kappa_ext**2 / ((kappa_tot / 2) ** 2 + (f - cavity.f_cavity) ** 2)
                value = ac.s21_power(f, b, spins, cavity, coupling, loss)
                assert value == pytest.approx(bare, rel=1e-12)

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
        loss = ac.LossParams(magnon_linewidth=0.0)
        f_m = ac.magnon_branches(spins, 0.5).lower
        assert ac.s21_power(f_m, 0.5, spins, cavity, coupling, loss) == 0.0


def _reference_s21(freqs, f_magnon, cavity, coupling, loss):
    """The complex coupled-mode lineshape, kept as the oracle of the real kernel."""
    freqs = np.asarray(freqs, dtype=float)
    kappa_tot = cavity.total_linewidth
    kappa_ext = cavity.external_coupling_fraction * kappa_tot
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


def _row_kernel(freqs, f_magnon, big_g, cavity, loss):
    """The map kernel at one row per ufunc call: the slab kernel's bit-for-bit oracle."""
    freqs = np.asarray(freqs, dtype=float)
    f_magnon, big_g = np.atleast_1d(f_magnon, big_g)
    values = np.empty((f_magnon.size, freqs.size))
    kappa = cavity.total_linewidth
    kappa_ext2 = (cavity.external_coupling_fraction * kappa) ** 2
    b = 0.5 * loss.magnon_linewidth
    detuning = np.subtract(freqs, cavity.f_cavity)
    a, q = np.empty(freqs.shape), np.empty(freqs.shape)
    with np.errstate(all="ignore"):
        for out, f_m, g in zip(values, f_magnon.tolist(), big_g.tolist()):
            np.subtract(freqs, f_m, out=a)
            np.multiply(a, a, out=q)
            q += b * b
            big_g2 = g**2
            if big_g2 > 0:
                np.divide(big_g2, q, out=q)
            else:  # uncoupled, even a lossless magnon on resonance leaves the bare cavity
                q.fill(0.0)
            a *= q
            np.subtract(detuning, a, out=out)
            out *= out
            q *= b
            q += 0.5 * kappa
            q *= q
            out += q
            np.divide(kappa_ext2, out, out=out)
            np.fmax(out, 0.0, out=out)
    return values


class TestKernelOracle:
    def test_random_cavities_match_complex_form(self):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(3000):
            # the end points too: an uncoupled port and a cavity without internal loss
            frac = rng.choice([0.0, 1.0, rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)])
            cavity = ac.CavityParams(
                f_cavity=rng.uniform(1.0, 40.0),
                quality_factor=10.0 ** rng.uniform(1.0, 6.0),
                external_coupling_fraction=frac,
            )
            big_g = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-3.0, 1.0)
            gamma = 0.0 if rng.random() < 0.2 else 10.0 ** rng.uniform(-5.0, 0.0)
            coupling = ac.CouplingParams(big_g=big_g)
            loss = ac.LossParams(magnon_linewidth=gamma)
            f_c = cavity.f_cavity
            f_m = f_c + rng.uniform(-3.0, 3.0) * max(big_g, cavity.total_linewidth)
            span = 4.0 * (big_g + cavity.total_linewidth)
            freqs = np.concatenate([
                [f_c, f_m, np.nextafter(f_m, 0.0), np.nextafter(f_m, np.inf)],
                rng.uniform(f_c - span, f_c + span, 24),
                f_m + rng.normal(0.0, gamma + 1e-6, 8),
            ])
            freqs = freqs[freqs > 0]
            got = spectra._evaluate_s21(freqs, f_m, coupling.big_g, cavity, loss)[0]
            ref = _reference_s21(freqs, f_m, cavity, coupling, loss)
            assert np.array_equal(got == 0, ref == 0)
            nonzero = ref != 0
            rel = np.abs(got[nonzero] - ref[nonzero]) / ref[nonzero]
            worst = max(worst, float(rel.max(initial=0.0)))
        assert worst < 1e-11

    def test_lossless_magnon_on_resonance(self, cavity, coupling):
        loss = ac.LossParams(magnon_linewidth=0.0)
        f_m = 10.5
        assert spectra._evaluate_s21([f_m], f_m, coupling.big_g, cavity, loss)[0, 0] == 0.0
        bare = spectra._evaluate_s21([f_m], f_m, 0.0, cavity, loss)[0, 0]
        detuning = f_m - cavity.f_cavity
        half = 0.5 * cavity.total_linewidth  # = κ_ext at the fraction 0.5
        assert bare > 0
        assert bare == pytest.approx(half**2 / (half**2 + detuning**2), rel=1e-14)

    def test_lossless_cavity_on_resonance_is_zero(self):
        # f_cavity / Q underflows to 0, so the denominator vanishes on resonance: 0/0 reads 0
        cavity = ac.CavityParams(f_cavity=1e-300, quality_factor=1e300)
        assert cavity.total_linewidth == 0.0
        value = spectra._evaluate_s21([cavity.f_cavity], 30.0, 0.0, cavity, ac.LossParams())[0, 0]
        assert value == 0.0


class TestTransmissionMap:
    def test_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            ac.TransmissionMap([0.2, 0.1], [1.0, 2.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match="shape"):
            ac.TransmissionMap([0.1, 0.2], [1.0, 2.0], np.ones((3, 2)))
        with pytest.raises(ValueError, match="finite"):
            ac.TransmissionMap([0.1], [1.0], [[np.nan]])
        with pytest.raises(ValueError, match="^axes must be one-dimensional$"):
            ac.TransmissionMap([[0.1, 0.2]], [1.0], np.ones((2, 1)))
        with pytest.raises(ValueError, match="^axes must be non-empty$"):
            ac.TransmissionMap([], [1.0], np.ones((0, 1)))

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, -1e-300, -1.0], ids=["nan", "inf", "-inf", "-1e-300", "-1.0"]
    )
    def test_bad_cell_rejected(self, bad):
        values = np.ones((3, 4))
        values[2, 1] = bad  # in neither the first row nor the first column
        with pytest.raises(ValueError, match=rf"^values must be finite and >= 0, got {bad!r}$"):
            ac.TransmissionMap([0.1, 0.2, 0.3], [1.0, 2.0, 3.0, 4.0], values)

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

    def test_row_extrema_kept(self, spins, cavity, coupling, loss, tmp_path, monkeypatch):
        # slabs of 3 rows of the 301-sample maps, and a last slab of 2 of their 23 rows
        monkeypatch.setattr(spectra, "_SLAB_CELLS", 1000)
        clean = ac.synthesize_map(
            np.linspace(0.0, 1.1, 23), np.linspace(10.0, 13.0, 301), spins, cavity, coupling, loss
        )
        noisy = ac.add_noise(clean, 0.2, seed=5)
        signed_zero = np.ones((2, 3))
        signed_zero[1, 2] = -0.0
        maps = {
            "synthesize_map": clean,
            "add_noise": noisy,
            "map_from_csv": ac.map_from_csv(ac.map_to_csv(noisy)),
            "load_map": ac.load_map(ac.save_map(noisy, tmp_path / "m.csv")),
            "constructor": ac.TransmissionMap([0.1, 0.2], [1.0, 2.0, 3.0], signed_zero),
            "replace": replace(clean, values=noisy.values),
        }
        for name, tmap in maps.items():
            for kept, expected in ((tmap._row_min, tmap.values.min(axis=1)),
                                   (tmap._row_max, tmap.values.max(axis=1))):
                assert kept.tobytes() == expected.tobytes(), name
                assert not kept.flags.writeable, name
        assert np.signbit(maps["constructor"]._row_min[1])
        assert "_row" not in repr(clean)


class TestSynthesizeMap:
    def test_single_cell(self, spins, cavity, coupling, loss):
        tmap = ac.synthesize_map([0.3], [11.0], spins, cavity, coupling, loss)
        assert tmap.values.shape == (1, 1)
        assert tmap.values[0, 0] == ac.s21_power(11.0, 0.3, spins, cavity, coupling, loss)
        fields = [0.0, 0.3, 0.62, 0.6617, 0.7, 1.1, 1.2, 1.3, 1.5]  # the last two past the flop
        freqs = [8.0, 9.53, 11.0, 11.245, 12.9, 15.0]
        tmap = ac.synthesize_map(fields, freqs, spins, cavity, coupling, loss)
        for i, b in enumerate(fields):
            for j, f in enumerate(freqs):
                assert tmap.values[i, j] == ac.s21_power(f, b, spins, cavity, coupling, loss)

    def test_clean_map_csv_digest_pinned(self, digest_map):
        # The sha256 of this CSV as written by commit 001851e, before the kernel took
        # its rows as arrays.  Seven of the 56 fields lie past the spin-flop field.
        # The kernel rounds only +, −, ×, ÷ (the same on any IEEE-754 host) and two
        # scalar ``**2`` through libm ``pow``.  A change to the digest needs a reason
        # in CHANGES.md.
        tmap = digest_map
        assert tmap.values.shape == (56, 351) and len(tmap.metadata["beyond_spin_flop_fields"]) == 7
        digest = hashlib.sha256(ac.map_to_csv(tmap).encode()).hexdigest()
        assert digest == "2d6b22136f9a6401a7b06d4396ef51a142aab43ad62bbff662199daea4559c76"

    def test_zero_coupling_columns_identical(self, spins, cavity, zero_coupling, loss):
        tmap = ac.synthesize_map(
            np.linspace(0, 1.0, 7), np.linspace(10.5, 12.0, 301),
            spins, cavity, zero_coupling, loss,
        )
        for i in range(1, tmap.values.shape[0]):
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
        assert abs(b_min - crossing_field(spins, cavity)) <= field_step

    def test_beyond_spin_flop_filled_with_bare_cavity(self, spins, cavity, coupling, loss):
        fields = np.array([0.5, 1.3])
        freqs = np.linspace(10.5, 12.0, 401)
        tmap = ac.synthesize_map(fields, freqs, spins, cavity, coupling, loss)
        assert tmap.metadata["beyond_spin_flop_fields"] == [1.3]
        bare = ac.synthesize_map(
            [1.3], freqs, spins, cavity, ac.CouplingParams(big_g=0.0), loss
        )
        assert np.array_equal(tmap.values[1], bare.values[0])

    def test_passivity_bound(self, default_map, cavity):
        bound = (2 * cavity.external_coupling_fraction) ** 2
        assert default_map.values.max() <= bound * (1 + 1e-12)

    def test_decoupled_columns_are_lorentzian(self, spins, cavity, zero_coupling, loss):
        freqs = np.arange(11.0, 11.5, 0.0005)
        tmap = ac.synthesize_map(
            np.linspace(0, 1.0, 5), freqs, spins, cavity, zero_coupling, loss
        )
        for i in range(tmap.values.shape[0]):
            fwhm_f = _lorentzian_fwhm_ghz(freqs, tmap.values[i])
            peak_f = freqs[np.argmax(tmap.values[i])]
            assert abs(peak_f - cavity.f_cavity) <= 0.0005
            assert fwhm_f == pytest.approx(cavity.total_linewidth, rel=0.02)


def _lorentzian_fwhm_ghz(freqs, power):
    """FWHM oracle via the frequency-domain Lorentzian fit of one column."""
    from afmcavity import optimize
    from conftest import numerical_jacobian

    base, peak = float(power.min()), float(power.max())
    center0 = float(freqs[np.argmax(power)])
    scale = peak - base

    def residual(x):
        c, w, a, o = x
        hw = 0.5 * abs(w)
        return (o + a * hw**2 / ((freqs - c) ** 2 + hw**2) - power) / scale

    result = optimize.levenberg_marquardt(
        residual,
        np.array([center0, 0.01, scale, base]),
        jac=lambda p: numerical_jacobian(residual, p),
    )
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

    def test_noisy_map_matches_reference(self, digest_map):
        """0.2 dB at seed 3 on the digest test's map, against ``tests/data`` (see its README).

        ``add_noise`` runs four operations per cell: n = σ·z from the normal draw,
        x = n / 10, y = 10^x through ``np.power``, and y × clean.  The draw (a
        ziggurat: z is an integer times a table entry), ``/ 10`` and ``×`` are
        correctly rounded, so x is the same on every IEEE-754 host, and the digest
        test pins the clean map.  Only ``np.power`` is dispatched per CPU: take it
        within P = 4 ulp of 10^x (SVML's low-accuracy pow, the loosest that numpy
        ships; glibc's is within 1).  Two hosts' y then differ by at most
        2P·eps·10^x, and each rounds y × clean once more (eps/2), so a cell moves
        by at most (2P + 1)·eps relative, to first order in eps.  A draw from the
        ziggurat's tail (|z| > 3.654, six cells here) also passes through
        ``log1p``: taking that within 2 ulp, with the roundings of z, n and x, x
        moves by at most 8·eps·|x| and y by ln(10) times that.  A host whose
        ``exp`` or ``log1p`` flips one of the draw's accept tests changes the
        stream itself, at odds of about eps per test.
        """
        reference = np.load(Path(__file__).parent / "data" / "noisy_map_0.2db_seed3.npy")
        clean = digest_map.values
        noisy = ac.add_noise(digest_map, 0.2, 3).values
        eps, ulps = np.finfo(float).eps, 4
        exponent = np.abs(np.log10(reference / clean))  # |x| of each cell, to within 1e-15
        assert exponent.max() < 0.1  # sub-dB noise: the tail term stays below 2 eps
        bound = (2 * ulps + 1 + 8 * np.log(10) * exponent) * eps * (1 + 100 * eps) * reference
        assert reference.shape == noisy.shape == (56, 351)
        assert np.all(np.abs(noisy - reference) <= bound)


def _force_pool(monkeypatch, workers=3):
    """Spans of 20 rows of a 1401-sample map, in a pool of ``workers`` threads on any host.

    The list returned gains an entry each time a map is large enough to fan out.
    """
    pools = []
    monkeypatch.setattr(spectra, "_PARALLEL_CELLS", 20 * 1401)
    monkeypatch.setattr(spectra, "_workers", lambda: pools.append(workers) or workers)
    return pools


def _span_map(case, spins, cavity, coupling, loss):
    """The default map, or one of its variants, computed under whatever spans are in force."""
    fields = ac.GridSpec(start=0.0, stop=1.1, step=0.005).samples()
    freqs = ac.GridSpec(start=8.0, stop=15.0, step=0.005).samples()
    if case == "past-spin-flop":
        fields = np.linspace(0.0, 1.5, 221)  # the flop is at 1.215 T
    elif case in ("lossless-magnon", "uncoupled-port"):
        loss = ac.LossParams(magnon_linewidth=0.0)  # G > 0 on every row up to 1.1 T
        f_m = core.coupled_magnon(spins.f_afmr0, spins.g_factor, coupling.big_g, fields)[0]
        freqs = np.union1d(freqs, f_m[::10])  # a sample exactly at every tenth row's f_m
        if case == "uncoupled-port":
            cavity = replace(cavity, external_coupling_fraction=0.0)
    tmap = ac.synthesize_map(fields, freqs, spins, cavity, coupling, loss)
    return ac.add_noise(tmap, 0.2, seed=3) if case == "add-noise" else tmap


def _assert_same_bits(got, want):
    """The two maps' values and row extrema as int64 views (-0.0 and NaN bits count), and peaks."""
    for name in ("values", "_row_min", "_row_max"):
        assert np.array_equal(
            getattr(got, name).view(np.int64), getattr(want, name).view(np.int64)
        ), name
    assert repr(ac.extract_peaks(got, 0.2)) == repr(ac.extract_peaks(want, 0.2))


class TestSpans:
    @pytest.mark.parametrize(
        "case", ["default", "past-spin-flop", "lossless-magnon", "uncoupled-port", "add-noise"]
    )
    def test_pool_matches_inline_bit_for_bit(self, case, spins, cavity, coupling, loss, monkeypatch):
        inline = _span_map(case, spins, cavity, coupling, loss)
        pools = _force_pool(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a pool thread's RuntimeWarning would raise here
            pooled = _span_map(case, spins, cavity, coupling, loss)
        assert pools
        if case in ("lossless-magnon", "uncoupled-port"):
            assert np.any(inline.values == 0.0)
        _assert_same_bits(pooled, inline)

    def test_one_row_spans_on_more_workers_than_cpus_switching_fast(
        self, default_map, spins, cavity, coupling, loss, monkeypatch
    ):
        monkeypatch.setattr(spectra, "_PARALLEL_CELLS", 1401)  # 221 spans of one row
        monkeypatch.setattr(spectra, "_workers", lambda: 2 * (os.cpu_count() or 1) + 3)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = _span_map("default", spins, cavity, coupling, loss)
        finally:
            sys.setswitchinterval(interval)
        for name in ("values", "_row_min", "_row_max"):  # a lost or misplaced row shows here
            assert np.array_equal(
                getattr(pooled, name).view(np.int64), getattr(default_map, name).view(np.int64)
            ), name

    @pytest.mark.parametrize("force, workers, pooled", [
        (False, 3, False),  # the default map is below _PARALLEL_CELLS
        (True, 1, False),  # a 1-CPU process
        (True, 3, True),
    ])
    def test_spans_leave_the_calling_thread_only_in_a_pool(
        self, force, workers, pooled, spins, cavity, coupling, loss, monkeypatch
    ):
        if force:
            _force_pool(monkeypatch, workers)
        threads = []
        each_span = spectra._each_span

        def spy(fn, n_rows, n_cols):
            def span(rows):
                threads.append(threading.current_thread())
                fn(rows)
            each_span(span, n_rows, n_cols)

        monkeypatch.setattr(spectra, "_each_span", spy)
        _span_map("default", spins, cavity, coupling, loss)
        assert len(threads) == (24 if force else 2)  # 12 spans of 221 rows, twice
        if pooled:
            assert threading.main_thread() not in threads
        else:
            assert set(threads) == {threading.main_thread()}

    def test_bad_cell_in_the_last_span_named(self, monkeypatch):
        pools = _force_pool(monkeypatch)
        values = np.ones((45, 1401))  # spans of rows 0-19, 20-39 and 40-44
        values[44, 700] = np.nan
        with pytest.raises(ValueError, match=r"^values must be finite and >= 0, got nan$"):
            ac.TransmissionMap(np.arange(45.0), np.arange(1.0, 1402.0), values)
        assert pools

    def test_mismatched_rows_rejected_before_any_span(self, cavity, loss, monkeypatch):
        pools = _force_pool(monkeypatch)
        before = threading.active_count()
        with pytest.raises(ValueError, match="^50 magnon frequencies for 49 couplings$"):
            spectra._evaluate_s21(
                np.linspace(8.0, 15.0, 1401), np.full(50, 11.0), np.full(49, 1.72), cavity, loss
            )
        assert not pools and threading.active_count() == before

    def test_span_error_reaches_the_caller_after_every_thread(
        self, spins, cavity, coupling, loss, monkeypatch, tmp_path, capsys
    ):
        _force_pool(monkeypatch)
        each_span = spectra._each_span

        def failing(fn, n_rows, n_cols):
            def span(rows):
                if rows.stop == n_rows:
                    raise MemoryError("Unable to allocate the last span")
                fn(rows)
            each_span(span, n_rows, n_cols)

        monkeypatch.setattr(spectra, "_each_span", failing)
        before = threading.active_count()
        with pytest.raises(MemoryError, match="^Unable to allocate the last span$"):
            _span_map("default", spins, cavity, coupling, loss)
        assert threading.active_count() == before
        assert main(["sweep", "--out", str(tmp_path / "m.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: field_grid × freq_grid: Unable to allocate the last span\n"
        )
        assert threading.active_count() == before
        assert not (tmp_path / "m.csv").exists()

    def test_peak_memory_within_the_map_and_each_workers_scratch(
        self, spins, cavity, coupling, loss, monkeypatch
    ):
        pools = _force_pool(monkeypatch)
        monkeypatch.setattr(spectra, "_SLAB_CELLS", 4 * 1401)  # slabs of 4 rows in spans of 20
        _span_map("default", spins, cavity, coupling, loss)  # imports the pool's module
        tracemalloc.start()
        try:
            tmap = _span_map("default", spins, cavity, coupling, loss)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(pools) == 4
        # the map; per worker, one scratch slab and the iterator buffers of a ufunc call
        # that broadcasts a row or a column (at most two operands of np.getbufsize() cells);
        # the shared detuning row; and 96 KiB for the field-length arrays and the pool's own
        # objects: no temporary grows with a span
        row = tmap.freq_axis.nbytes
        buffers = 2 * np.getbufsize() * tmap.values.itemsize
        assert peak <= tmap.values.nbytes + 3 * (4 * row + buffers) + row + 96 * 1024

    def test_default_sweep_leaves_the_pool_module_unimported(self, tmp_path):
        # concurrent.futures costs 3-5 ms of start-up; only a map that fans out imports it
        code = (
            "import sys, afmcavity.cli\n"
            "assert afmcavity.cli.main(['sweep', '--out', 'm.csv']) == 0\n"
            "assert 'concurrent.futures' not in sys.modules, 'imported'\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(ac.__file__).resolve().parents[1])}
        child = subprocess.run([sys.executable, "-W", "error", "-c", code], cwd=tmp_path, env=env,
                               capture_output=True, encoding="utf-8", timeout=120)
        assert (child.returncode, child.stderr) == (0, "")
        assert (tmp_path / "m.csv").exists()

    def test_worker_count_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setenv("OMP_NUM_THREADS", "1")  # pins BLAS and OpenMP pools, not this one
        if hasattr(os, "sched_getaffinity"):
            assert spectra._workers() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert spectra._workers() == (os.cpu_count() or 1)


class TestSlabs:
    """The slab kernel against ``_row_kernel``, bit for bit, with warnings as errors."""

    @pytest.mark.parametrize(
        "case", ["default", "past-spin-flop", "lossless-magnon", "uncoupled-port", "add-noise"]
    )
    def test_span_maps_match_the_row_kernel(self, case, spins, cavity, coupling, loss, monkeypatch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            slabs = _span_map(case, spins, cavity, coupling, loss)
            monkeypatch.setattr(spectra, "_evaluate_s21", _row_kernel)
            rows = _span_map(case, spins, cavity, coupling, loss)
        _assert_same_bits(slabs, rows)

    @pytest.mark.parametrize("gamma", [0.0, 0.035])
    @pytest.mark.parametrize("slab_rows", [None, 1, 3, 7])  # 3 and 7 leave a short last slab
    def test_mixed_rows_match_the_row_kernel(self, slab_rows, gamma, cavity, monkeypatch):
        freqs = ac.GridSpec(start=8.0, stop=15.0, step=0.005).samples()
        f_magnon = freqs[np.linspace(100, 1300, 45).astype(int)]  # a sample exactly at each f_m
        f_magnon[1::2] += 0.0025  # and every other row between two samples
        big_g = np.resize([1.72, 0.0, 1e-170, 0.3, 0.0], 45)  # slabs mix G = 0 and G > 0 rows
        assert (1e-170) ** 2 == 0.0  # G² underflows: the row is uncoupled
        loss = ac.LossParams(magnon_linewidth=gamma)
        pools = _force_pool(monkeypatch)  # spans of rows 0-19, 20-39 and 40-44
        if slab_rows is not None:
            monkeypatch.setattr(spectra, "_SLAB_CELLS", slab_rows * freqs.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectra._evaluate_s21(freqs, f_magnon, big_g, cavity, loss)
        want = _row_kernel(freqs, f_magnon, big_g, cavity, loss)
        assert pools
        assert np.any(got == 0.0) == (gamma == 0.0)  # the lossless magnon on resonance
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
            ac.LossParams(0.035),
        )
        path = tmp_path / "map.csv"
        ac.save_map(small, path)
        loaded = ac.load_map(path)
        assert np.array_equal(loaded.field_axis, small.field_axis)
        assert np.array_equal(loaded.freq_axis, small.freq_axis)
        assert np.array_equal(loaded.values, small.values)
        assert loaded.metadata == small.metadata

    def test_missing_metadata_is_empty(self, tmp_path):
        bare = ac.TransmissionMap([0.1, 0.2], [1.0, 2.0], np.ones((2, 2)))
        assert bare.metadata == {}
        assert ac.TransmissionMap([0.1], [1.0], [[1.0]], None).metadata == {}
        path = tmp_path / "map.csv"
        ac.save_map(bare, path)
        path.with_suffix(".json").unlink()
        assert ac.load_map(path).metadata == {}

    def test_json_map_path_rejected_before_writing(self, tmp_path):
        # a .json map path is its own sidecar path: the sidecar would replace the map
        bare = ac.TransmissionMap([0.1, 0.2], [1.0, 2.0], np.ones((2, 2)))
        with pytest.raises(ValueError, match="would be overwritten by its own .json sidecar"):
            ac.save_map(bare, tmp_path / "y.json")
        assert list(tmp_path.iterdir()) == []

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

    def test_codec_peak_memory_within_two_and_a_half_texts(self, default_map):
        # Both directions work a block of rows at a time: no list of every row or line.
        tmap = ac.add_noise(default_map, 0.2, 0)
        tracemalloc.start()
        try:
            text = ac.map_to_csv(tmap)
            write_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            held, _ = tracemalloc.get_traced_memory()
            ac.map_from_csv(text)
            read_peak = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        assert write_peak <= 2.5 * len(text), write_peak / len(text)
        assert read_peak <= 2.5 * len(text), read_peak / len(text)

    def test_windowed_lines_match_splitlines(self):
        rng = np.random.default_rng(3)
        bodies = ["", " ", " \t", "0.1,9.0,0.5", "# note"]
        ends = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\n\n"]
        pieces = ["\r\n", "\r", "\x0b", "\x0c", "\x1c", " ", " \t", "", "\n"]
        # A window ends at the first newline a window past its start: after each run of
        # x's, so one window ends with each piece and its newline and the next starts with them.
        text = "".join(
            "x" * spectra._WINDOW + piece + "\n" + piece + "\n"
            + "".join(bodies[i] + ends[j] for i, j in rng.integers(0, [5, 7], size=(2000, 2)))
            for piece in pieces
        ) + "\r"
        assert list(spectra._text_lines(text)) == text.splitlines()

    @pytest.mark.parametrize("rows, reason", [
        (["0.5,9.0,oops"], "expected 3 comma-separated numbers"),
        (["0.5,9.0"], "expected 3 comma-separated numbers"),
        (["# note", "0.5,9.0,oops"], "expected 3 comma-separated numbers"),
        (["0.5,9.0,-1.0"], "expected finite numbers and a transmission >= 0"),
    ], ids=["bad-cell", "two-value-row", "comment-then-bad-cell", "negative-cell"])
    @pytest.mark.parametrize("where", ["before-cut", "after-cut"])
    def test_error_at_a_window_cut_names_its_line(self, default_text, rows, reason, where):
        cut = default_text.index("\n", spectra._WINDOW) + 1  # where the second window starts
        start = cut if where == "after-cut" else default_text.rindex("\n", 0, cut - 1) + 1
        end = default_text.index("\n", start) + 1
        text = default_text[:start] + "".join(row + "\n" for row in rows) + default_text[end:]
        lineno = default_text.count("\n", 0, start) + len(rows)
        with pytest.raises(ValueError) as info:
            ac.map_from_csv(text)
        assert str(info.value) == f"line {lineno}: {reason}, got {rows[-1]!r}"

    def test_incomplete_grid_names_last_line_of_a_long_text(self, default_map, default_text):
        cut = default_text.index("\n", spectra._WINDOW) + 1
        text = default_text[:cut] + default_text[default_text.index("\n", cut) + 1:] + "\n# end\n"
        n_fields, n_freqs = default_map.values.shape
        last = text.count("\n")  # every line of ``text`` ends in a newline
        with pytest.raises(ValueError) as info:
            ac.map_from_csv(text)
        assert str(info.value) == (
            f"line {last}: {n_fields * n_freqs - 1} rows do not form a complete "
            f"{n_fields} x {n_freqs} grid without duplicates"
        )

    def test_db_export_header(self, default_map):
        text = ac.map_to_csv(default_map, db=True)
        assert text.splitlines()[0] == spectra.CSV_HEADER_DB
