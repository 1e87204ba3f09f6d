"""Unit tests for the closed-form hybrid-system model."""


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmcavity as ac
from afmcavity.constants import GHZ_PER_TESLA_PER_G

# Independent scalar evaluation of the Zeeman slope from the pinned constants.
MU_B = 9.2740100783e-24  # J/T
PLANCK = 6.62607015e-34  # J*s
GAMMA_ORACLE = MU_B / PLANCK * 1e-9  # GHz/T per unit g


class TestConstants:
    def test_slope_matches_direct_ratio(self):
        assert GHZ_PER_TESLA_PER_G == GAMMA_ORACLE

    def test_slope_six_significant_figures(self):
        assert abs(GHZ_PER_TESLA_PER_G - 13.996245) / 13.996245 < 1e-6


class TestParams:
    @pytest.mark.parametrize("kwargs", [
        {"g_factor": 0.0},
        {"f_afmr0": -1.0},
        {"neel_temperature": 0.0},
        {"f_afmr0": float("nan")},
        {"g_factor": 1e308},  # the Zeeman slope overflows, so the spin-flop field reads 0
        {"f_afmr0": 1e300, "g_factor": 1e-300},  # the spin-flop field overflows
    ])
    def test_spin_params_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ac.SpinSystemParams(**kwargs)

    def test_total_linewidth(self, cavity):
        assert cavity.total_linewidth == pytest.approx(11.245 / 1300)
        assert cavity.total_linewidth > 0

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.2, 1.5])
    def test_coupling_fraction_bounds(self, frac):
        with pytest.raises(ValueError):
            ac.CavityParams(external_coupling_fraction=frac)

    def test_negative_big_g_rejected(self):
        with pytest.raises(ValueError):
            ac.CouplingParams(big_g=-0.1)
        with pytest.raises(ValueError, match="big_g²"):
            ac.CouplingParams(big_g=1e200)  # G² overflows

    def test_branch_pair_ordering(self):
        with pytest.raises(ValueError):
            ac.BranchPair(lower=2.0, upper=1.0)


class TestMagnonBranches:
    def test_zero_field_degenerate(self, spins):
        pair = ac.magnon_branches(spins, 0.0)
        assert pair.lower == pair.upper == 34.0
        assert not pair.clamped

    def test_half_tesla(self, spins):
        # Oracle: f± = 34 ∓/± 2 * gamma * 0.5 evaluated from raw constants.
        pair = ac.magnon_branches(spins, 0.5)
        assert pair.lower == pytest.approx(34.0 - 2.0 * GAMMA_ORACLE * 0.5, rel=1e-14)
        assert pair.upper == pytest.approx(34.0 + 2.0 * GAMMA_ORACLE * 0.5, rel=1e-14)
        assert pair.lower == pytest.approx(20.003755063927294, abs=1e-12)
        assert pair.upper == pytest.approx(47.996244936072706, abs=1e-12)

    def test_beyond_spin_flop_clamped(self, spins):
        pair = ac.magnon_branches(spins, 1.5)
        assert pair.lower == 0.0
        assert pair.clamped

    @pytest.mark.parametrize("field", [-0.1, float("nan"), float("inf")])
    def test_bad_field_rejected(self, spins, field):
        with pytest.raises(ValueError):
            ac.magnon_branches(spins, field)

    @given(
        g=st.floats(0.5, 20.0),
        f0=st.floats(1.0, 100.0),
        b=st.floats(0.0, 10.0),
    )
    def test_zero_field_degeneracy_property(self, g, f0, b):
        params = ac.SpinSystemParams(g_factor=g, f_afmr0=f0)
        pair = ac.magnon_branches(params, 0.0)
        assert pair.lower == pair.upper == f0

    @given(g=st.floats(0.5, 20.0), f0=st.floats(1.0, 100.0), frac=st.floats(0.0, 0.999))
    def test_symmetric_splitting_property(self, g, f0, frac):
        params = ac.SpinSystemParams(g_factor=g, f_afmr0=f0)
        b = frac * ac.spin_flop_field(params)
        pair = ac.magnon_branches(params, b)
        assert pair.upper - f0 == pytest.approx(f0 - pair.lower, rel=1e-12, abs=1e-12)


class TestSpinFlopField:
    def test_default_value(self, spins):
        assert ac.spin_flop_field(spins) == pytest.approx(1.2146, abs=1e-4)
        assert ac.spin_flop_field(spins) == pytest.approx(34.0 / (2.0 * GAMMA_ORACLE), rel=1e-14)

    def test_halves_with_doubled_g(self):
        assert ac.spin_flop_field(
            ac.SpinSystemParams(g_factor=4.0)
        ) == pytest.approx(0.6073057479933663, rel=1e-12)

    def test_small_f0_limit(self):
        assert ac.spin_flop_field(ac.SpinSystemParams(f_afmr0=1e-9)) < 1e-9

    def test_bisection_cross_check(self, spins):
        # Independent root bracketing of lower(B) = 0 on the clamped branch.
        lo, hi = 0.0, 5.0
        assert ac.magnon_branches(spins, lo).lower > 0
        assert ac.magnon_branches(spins, hi).lower == 0.0
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if ac.magnon_branches(spins, mid).lower > 0:
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - ac.spin_flop_field(spins)) < 2e-9


class TestPolaritonFrequencies:
    def test_resonance_splitting(self, cavity, coupling):
        pair = ac.polariton_frequencies(cavity, 11.245, coupling)
        assert pair.lower == pytest.approx(9.525, abs=1e-12)
        assert pair.upper == pytest.approx(12.965, abs=1e-12)
        assert pair.upper - pair.lower == pytest.approx(2 * 1.72, abs=1e-12)

    def test_zero_coupling_returns_bare_modes(self, cavity):
        pair = ac.polariton_frequencies(cavity, 30.0, ac.CouplingParams(big_g=0.0))
        assert pair.lower == pytest.approx(11.245, abs=1e-12)
        assert pair.upper == pytest.approx(30.0, abs=1e-12)

    def test_detuned_against_eigensolver(self, cavity, coupling):
        # Oracle: numpy eigensolver on the 2x2 coupling matrix.
        oracle = np.linalg.eigvalsh(np.array([[11.245, 1.72], [1.72, 20.0]]))
        pair = ac.polariton_frequencies(cavity, 20.0, coupling)
        assert pair.lower == pytest.approx(oracle[0], rel=1e-12)
        assert pair.upper == pytest.approx(oracle[1], rel=1e-12)
        # frozen values from the oracle run
        assert pair.lower == pytest.approx(10.919213250289753, rel=1e-12)
        assert pair.upper == pytest.approx(20.325786749710247, rel=1e-12)

    def test_matches_diagonalization_on_random_draws(self, ):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            fc = rng.uniform(1.0, 50.0)
            fm = rng.uniform(0.0, 60.0)
            g = rng.uniform(0.0, 5.0)
            pair = ac.polariton_frequencies(
                ac.CavityParams(f_cavity=fc), fm, ac.CouplingParams(big_g=g)
            )
            eig = np.linalg.eigvalsh(np.array([[fc, g], [g, fm]]))
            scale = max(abs(eig[0]), abs(eig[1]))
            assert abs(pair.lower - eig[0]) <= 1e-12 * scale
            assert abs(pair.upper - eig[1]) <= 1e-12 * scale

    @given(
        fc=st.floats(1.0, 50.0),
        fm=st.floats(0.0, 60.0),
        g=st.floats(0.0, 5.0),
    )
    def test_trace_and_splitting_properties(self, fc, fm, g):
        pair = ac.polariton_frequencies(
            ac.CavityParams(f_cavity=fc), fm, ac.CouplingParams(big_g=g)
        )
        scale = abs(fc) + abs(fm) + 1.0
        assert pair.lower + pair.upper == pytest.approx(fc + fm, abs=1e-13 * scale)
        assert pair.upper - pair.lower >= 2.0 * g - 1e-12 * scale

    def test_splitting_equals_2g_only_on_resonance(self, cavity, coupling):
        on = ac.polariton_frequencies(cavity, cavity.f_cavity, coupling)
        off = ac.polariton_frequencies(cavity, cavity.f_cavity + 0.5, coupling)
        assert on.upper - on.lower == pytest.approx(2 * coupling.big_g, rel=1e-15)
        assert off.upper - off.lower > 2 * coupling.big_g

    def test_far_detuned_approaches_bare_modes(self, cavity, coupling):
        detunings = np.array([5.0, 10.0, 20.0, 40.0, 80.0])
        shifts = []
        for d in detunings:
            pair = ac.polariton_frequencies(cavity, cavity.f_cavity + d, coupling)
            # level repulsion pushes the cavity-like lower branch below f_cavity
            shifts.append(cavity.f_cavity - pair.lower)
        shifts = np.array(shifts)
        assert np.all(shifts > 0)
        assert np.all(np.diff(shifts) < 0)  # monotone approach to the bare mode

    def test_rejects_bad_magnon_frequency(self, cavity, coupling):
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                ac.polariton_frequencies(cavity, bad, coupling)


class TestModelKernels:
    def test_dressed_modes_match_eigensolver_over_arrays(self):
        rng = np.random.default_rng(11)
        fc = rng.uniform(1.0, 50.0, size=2000)
        fm = rng.uniform(0.0, 60.0, size=2000)
        g = rng.uniform(0.0, 5.0, size=2000)
        fm[:50] = fc[:50]  # exactly on resonance, G = 0 for the first 10
        g[:10] = 0.0
        lower, upper, weight = ac.core.dressed_modes(fc, fm, g)
        eigvals, eigvecs = np.linalg.eigh(np.stack([[fc, g], [g, fm]]).transpose(2, 0, 1))
        scale = np.max(np.abs(eigvals), axis=1)
        assert np.all(np.abs(lower - eigvals[:, 0]) <= 1e-12 * scale)
        assert np.all(np.abs(upper - eigvals[:, 1]) <= 1e-12 * scale)
        # magnon weight of the upper mode: its eigenvector's magnon component²
        resolved = slice(10, None)  # G = 0 on resonance leaves the modes degenerate
        assert np.allclose(weight[resolved], eigvecs[resolved, 1, 1] ** 2, rtol=0, atol=1e-10)
        assert np.all(lower[:10] == fc[:10]) and np.all(upper[:10] == fc[:10])
        assert np.all(weight[:10] == 0.5)

    def test_zeeman_branches_over_arrays(self, spins):
        fields = np.array([0.0, 0.5, spins.f_afmr0 / (2 * GAMMA_ORACLE), 1.3])
        lower, upper, clamped = ac.core.zeeman_branches(spins.f_afmr0, spins.g_factor, fields)
        bare = spins.f_afmr0 - 2 * GAMMA_ORACLE * fields
        assert lower == pytest.approx(np.maximum(bare, 0.0), abs=1e-9)
        assert upper == pytest.approx(spins.f_afmr0 + 2 * GAMMA_ORACLE * fields, rel=1e-9)
        assert clamped.tolist() == [False, False, bool(bare[2] < 0), True]

    def test_coupled_magnon_decouples_where_clamped(self, spins):
        fields = np.array([0.0, 1.0, 1.3, 2.0])
        f_m, big_g, clamped = ac.core.coupled_magnon(spins.f_afmr0, spins.g_factor, 1.72, fields)
        lower, _, zeeman_clamped = ac.core.zeeman_branches(spins.f_afmr0, spins.g_factor, fields)
        assert np.array_equal(f_m, lower) and np.array_equal(clamped, zeeman_clamped)
        assert big_g.tolist() == [1.72, 1.72, 0.0, 0.0]


class TestCrossingField:
    def test_default_crossing(self, spins, cavity):
        assert ac.crossing_field(spins, cavity) == pytest.approx(0.8128966056228855, rel=1e-12)

    def test_crossing_for_higher_zero_field_frequency(self, cavity):
        value = ac.crossing_field(ac.SpinSystemParams(f_afmr0=36.4), cavity)
        assert value == pytest.approx(0.8986338876925372, rel=1e-12)

    def test_no_crossing_when_degenerate(self, cavity):
        with pytest.raises(ValueError):
            ac.crossing_field(ac.SpinSystemParams(f_afmr0=11.245), cavity)

    def test_crossing_consistency(self, spins, cavity):
        b = ac.crossing_field(spins, cavity)
        assert ac.magnon_branches(spins, b).lower == pytest.approx(cavity.f_cavity, rel=1e-12)


class TestCouplingRegime:
    def test_ultrastrong_default(self, cavity, coupling):
        report = ac.coupling_regime(coupling, cavity, 0.035)
        assert report.label == "ultrastrong"
        assert round(report.ratio, 4) == 0.1530
        assert report.ratio == pytest.approx(0.15295686971987552, rel=1e-14)

    def test_zero_coupling_is_weak(self, cavity):
        report = ac.coupling_regime(ac.CouplingParams(big_g=0.0), cavity, 0.035)
        assert report.label == "weak"

    def test_deep_strong(self, cavity):
        report = ac.coupling_regime(ac.CouplingParams(big_g=12.0), cavity, 0.035)
        assert report.label == "deep-strong"
        assert report.ratio == pytest.approx(1.0671409515340151, rel=1e-14)

    def test_strong_but_not_ultrastrong(self):
        cavity = ac.CavityParams(f_cavity=11.245, quality_factor=1300)
        report = ac.coupling_regime(ac.CouplingParams(big_g=0.5), cavity, 0.035)
        assert report.label == "strong"
        assert report.ratio < 0.1

    def test_below_linewidth_is_weak(self, cavity):
        report = ac.coupling_regime(ac.CouplingParams(big_g=0.02), cavity, 0.035)
        assert report.label == "weak"

    @given(
        g=st.floats(0.0, 20.0),
        fc=st.floats(1.0, 50.0),
        gm=st.floats(0.0, 1.0),
        scale=st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200)
    def test_rescaling_invariance(self, g, fc, gm, scale):
        report = ac.coupling_regime(
            ac.CouplingParams(big_g=g), ac.CavityParams(f_cavity=fc), gm
        )
        scaled = ac.coupling_regime(
            ac.CouplingParams(big_g=g * scale),
            ac.CavityParams(f_cavity=fc * scale),
            gm * scale,
        )
        assert scaled.label == report.label
        assert scaled.ratio == pytest.approx(report.ratio, rel=1e-9)

