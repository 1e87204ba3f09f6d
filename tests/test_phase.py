"""Tests for the (field, temperature) phase classifier."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmcavity as ac
from afmcavity import phase


@pytest.fixture(scope="module")
def bounds():
    return ac.PhaseBoundaries()


class TestBoundaries:
    def test_defaults_anchor_to_dispersion_model(self, spins, bounds):
        assert bounds.spin_flop_field == ac.spin_flop_field(spins)
        assert bounds.neel_temperature == spins.neel_temperature

    def test_invariants(self):
        with pytest.raises(ValueError):
            ac.PhaseBoundaries(neel_temperature=-1.0)
        with pytest.raises(ValueError, match="saturation"):
            ac.PhaseBoundaries(spin_flop_field=2.0, saturation_field=1.5)


class TestClassify:
    def test_warm_zero_field_is_paramagnetic(self, bounds):
        assert ac.classify_phase(0.0, 3.0, bounds) == ac.PARAMAGNETIC

    def test_cold_zero_field_is_ordered(self, bounds):
        assert ac.classify_phase(0.0, 1.0, bounds) == ac.ANTIFERROMAGNETIC

    def test_cold_high_field_is_spin_flop(self, bounds):
        assert ac.classify_phase(1.5, 0.025, bounds) == ac.SPIN_FLOP

    def test_very_high_field_is_paramagnetic(self, bounds):
        assert ac.classify_phase(2.8, 0.025, bounds) == ac.PARAMAGNETIC

    def test_boundary_points_take_higher_symmetry_phase(self, bounds):
        t = 0.4
        b_sf = ac.spin_flop_boundary(t, bounds)
        assert ac.classify_phase(b_sf, t, bounds) == ac.SPIN_FLOP
        assert ac.classify_phase(0.0, bounds.neel_temperature, bounds) == ac.PARAMAGNETIC

    def test_rejects_bad_inputs(self, bounds):
        with pytest.raises(ValueError):
            ac.classify_phase(-0.1, 1.0, bounds)
        with pytest.raises(ValueError):
            ac.classify_phase(0.1, -1.0, bounds)

    def test_zero_field_scan_changes_once(self, bounds):
        temps = np.linspace(0.0, 3.0, 1201)
        labels = [ac.classify_phase(0.0, float(t), bounds) for t in temps]
        changes = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert changes == 1
        flip = next(i for i in range(len(labels) - 1) if labels[i] != labels[i + 1])
        assert temps[flip + 1] >= bounds.neel_temperature - 0.01
        assert temps[flip] <= bounds.neel_temperature

    @given(
        t_frac=st.floats(0.0, 0.99),
        b_start=st.floats(0.0, 0.5),
    )
    @settings(max_examples=100)
    def test_fixed_temperature_scan_ordered(self, bounds, t_frac, b_start):
        t = t_frac * bounds.neel_temperature
        fields = np.linspace(b_start, 3.0, 400)
        labels = [ac.classify_phase(float(b), t, bounds) for b in fields]
        order = {ac.ANTIFERROMAGNETIC: 0, ac.SPIN_FLOP: 1, ac.PARAMAGNETIC: 2}
        ranks = [order[label] for label in labels]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))


class TestSpinFlopBoundary:
    def test_zero_temperature_anchor(self, spins, bounds):
        assert ac.spin_flop_boundary(0.0, bounds) == ac.spin_flop_field(spins)
        assert abs(ac.spin_flop_boundary(0.0, bounds) - ac.spin_flop_field(spins)) < 1e-6

    def test_flat_at_low_temperature(self, bounds):
        b0 = ac.spin_flop_boundary(0.0, bounds)
        assert ac.spin_flop_boundary(0.025, bounds) == pytest.approx(b0, rel=0.01)

    def test_monotone_non_increasing(self, bounds):
        temps = np.linspace(0.0, bounds.neel_temperature * 0.999, 300)
        values = [ac.spin_flop_boundary(float(t), bounds) for t in temps]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_continuous_up_to_ordering_temperature(self, bounds):
        t_near = bounds.neel_temperature * (1 - 1e-9)
        assert ac.spin_flop_boundary(t_near, bounds) == pytest.approx(0.0, abs=1e-6)

    def test_rejects_temperatures_at_or_above_ordering(self, bounds):
        with pytest.raises(ValueError):
            ac.spin_flop_boundary(bounds.neel_temperature, bounds)
        with pytest.raises(ValueError):
            ac.spin_flop_boundary(3.0, bounds)
        with pytest.raises(ValueError):
            ac.spin_flop_boundary(-0.1, bounds)


class TestPathMonotonicity:
    def test_nondecreasing_paths_change_at_most_twice(self, bounds):
        # phases only move up the symmetry ladder along a path that does not
        # decrease either coordinate, so at most two changes can occur
        rng = np.random.default_rng(55)
        order = {ac.ANTIFERROMAGNETIC: 0, ac.SPIN_FLOP: 1, ac.PARAMAGNETIC: 2}
        for _ in range(1000):
            b = np.cumsum(rng.uniform(0, 0.15, size=40)) + rng.uniform(0, 0.5)
            t = np.cumsum(rng.uniform(0, 0.15, size=40)) + rng.uniform(0, 0.5)
            labels = [ac.classify_phase(float(bi), float(ti), bounds) for bi, ti in zip(b, t)]
            ranks = [order[label] for label in labels]
            changes = sum(1 for a, c in zip(ranks, ranks[1:]) if a != c)
            assert changes <= 2
            assert all(a <= c for a, c in zip(ranks, ranks[1:]))

    def test_wedge_is_well_ordered(self, bounds):
        # the spin-flop wedge must sit strictly inside the ordered region
        for t in np.linspace(0.0, bounds.neel_temperature * 0.999, 500):
            assert ac.spin_flop_boundary(float(t), bounds) <= phase.paramagnetic_boundary(
                float(t), bounds
            )


class TestPhaseGrid:
    def test_three_regions_present(self, bounds):
        fields = np.linspace(0.0, 3.0, 61)
        temps = np.linspace(0.0, 3.0, 61)
        labels = ac.phase_grid(fields, temps, bounds)
        flat = {label for row in labels for label in row}
        assert flat == {ac.ANTIFERROMAGNETIC, ac.SPIN_FLOP, ac.PARAMAGNETIC}

    def test_known_point_in_afm_region(self, bounds):
        labels = ac.phase_grid([0.5], [1.0], bounds)
        assert labels[0][0] == ac.ANTIFERROMAGNETIC


def reference_phase(b, t, bd):
    """Scalar classifier with its own copy of the three boundary curves."""
    neel_line = bd.neel_temperature * max(
        0.0, 1.0 - (b / bd.critical_field) ** bd.neel_exponent
    )
    if t >= neel_line:
        return ac.PARAMAGNETIC
    saturation_line = bd.saturation_field * (1.0 - t / bd.neel_temperature) ** (
        1.0 / bd.neel_exponent
    )
    if b >= saturation_line:
        return ac.PARAMAGNETIC
    flop_line = bd.spin_flop_field * (
        1.0 - (t / bd.neel_temperature) ** bd.spin_flop_exponent
    )
    if b < flop_line:
        return ac.ANTIFERROMAGNETIC
    return ac.SPIN_FLOP


class TestPhaseKernelOracle:
    @staticmethod
    def random_boundaries(rng):
        flop = rng.uniform(0.2, 2.0)
        return ac.PhaseBoundaries(
            neel_temperature=rng.uniform(0.5, 5.0),
            spin_flop_field=flop,
            neel_exponent=rng.uniform(0.5, 4.0),
            critical_field=rng.uniform(0.5, 4.0),
            saturation_field=flop * rng.uniform(1.05, 3.0),
            spin_flop_exponent=rng.uniform(0.5, 4.0),
        )

    def test_matches_scalar_reference_on_and_off_boundaries(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            bd = self.random_boundaries(rng)
            t_cold = rng.uniform(0.0, bd.neel_temperature, size=6)
            b_low = rng.uniform(0.0, bd.critical_field, size=6)
            # points placed exactly on each boundary curve, plus random points
            points = [(0.0, bd.neel_temperature)]
            for t in t_cold.tolist():
                points.append((bd.spin_flop_field * (
                    1.0 - (t / bd.neel_temperature) ** bd.spin_flop_exponent), t))
                points.append((bd.saturation_field * (1.0 - t / bd.neel_temperature) ** (
                    1.0 / bd.neel_exponent), t))
            for b in b_low.tolist():
                points.append((b, bd.neel_temperature * max(
                    0.0, 1.0 - (b / bd.critical_field) ** bd.neel_exponent)))
            points += zip(rng.uniform(0.0, 4.0, 20).tolist(), rng.uniform(0.0, 6.0, 20).tolist())
            for b, t in points:
                assert ac.classify_phase(b, t, bd) == reference_phase(b, t, bd)
            fields = [b for b, _ in points]
            temps = [t for _, t in points]
            grid = ac.phase_grid(fields, temps, bd)
            assert grid == [[reference_phase(b, t, bd) for t in temps] for b in fields]
