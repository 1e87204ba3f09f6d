"""Tests for the (field, temperature) phase classifier."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmcavity as ac
from afmcavity import GHZ_PER_TESLA_PER_G, cli, phase


@pytest.fixture(scope="module")
def bounds():
    return ac.PhaseBoundaries()


class TestBoundaries:
    def test_defaults_anchor_to_dispersion_model(self, spins):
        assert ac.spin_flop_boundary(0.0) == ac.spin_flop_field(spins)
        below_neel = float(np.nextafter(spins.neel_temperature, 0.0))
        assert ac.classify_phase(0.0, below_neel) == ac.ANTIFERROMAGNETIC
        assert ac.classify_phase(0.0, spins.neel_temperature) == ac.PARAMAGNETIC

    def test_spin_system_moves_the_anchors(self, bounds):
        # f_afmr0 = 20 GHz: the 0 K spin-flop field is 0.714 T, not the default 1.215 T
        spins = ac.SpinSystemParams(f_afmr0=20.0, neel_temperature=1.5)
        flop = ac.spin_flop_field(spins)
        assert flop == pytest.approx(0.714, abs=5e-4)
        assert ac.spin_flop_boundary(0.0, bounds, spins) == flop
        assert ac.classify_phase(flop, 0.0, spins=spins) == ac.SPIN_FLOP
        assert ac.classify_phase(float(np.nextafter(flop, 0.0)), 0.0, spins=spins) == (
            ac.ANTIFERROMAGNETIC
        )
        assert ac.classify_phase(0.75, 0.0, bounds, spins) == ac.SPIN_FLOP
        assert ac.classify_phase(0.75, 0.0, bounds) == ac.ANTIFERROMAGNETIC
        assert ac.phase_grid([0.0], [1.4, 1.5], bounds, spins) == [
            [ac.ANTIFERROMAGNETIC, ac.PARAMAGNETIC]
        ]
        assert ac.phase_grid([0.0], [1.5], bounds) == [[ac.ANTIFERROMAGNETIC]]

    def test_invariants(self):
        with pytest.raises(ValueError):
            ac.SpinSystemParams(neel_temperature=-1.0)
        # a spin-flop field of 2.0006 T past a saturation field of 1.5 T
        strong = ac.SpinSystemParams(f_afmr0=56.0)
        with pytest.raises(ValueError, match="saturation"):
            ac.classify_phase(0.0, 0.0, ac.PhaseBoundaries(saturation_field=1.5), strong)
        with pytest.raises(ValueError, match="saturation"):
            ac.phase_grid([0.0], [0.0], ac.PhaseBoundaries(saturation_field=1.5), strong)
        # saturation_field ** neel_exponent overflows or underflows
        for kwargs in ({"neel_exponent": 1e300}, {"saturation_field": 1e-300}):
            with pytest.raises(ValueError, match="saturation_field \\*\\* neel_exponent"):
                ac.PhaseBoundaries(**kwargs)

    def test_neel_line_zero_past_critical_field(self, spins, bounds):
        # the Neel line's critical field is the saturation field;
        # (b / saturation_field) ** neel_exponent would overflow a Python float here
        for b in (bounds.saturation_field, 3.0, 1e300):
            assert phase.neel_temperature_at(b, bounds, spins) == 0.0


class TestClassify:
    def test_warm_zero_field_is_paramagnetic(self, bounds):
        assert ac.classify_phase(0.0, 3.0, bounds) == ac.PARAMAGNETIC

    def test_cold_zero_field_is_ordered(self, bounds):
        assert ac.classify_phase(0.0, 1.0, bounds) == ac.ANTIFERROMAGNETIC

    def test_cold_high_field_is_spin_flop(self, bounds):
        assert ac.classify_phase(1.5, 0.025, bounds) == ac.SPIN_FLOP

    def test_very_high_field_is_paramagnetic(self, bounds):
        assert ac.classify_phase(2.8, 0.025, bounds) == ac.PARAMAGNETIC

    def test_boundary_points_take_higher_symmetry_phase(self, spins, bounds):
        t = 0.4
        b_sf = ac.spin_flop_boundary(t, bounds)
        assert ac.classify_phase(b_sf, t, bounds) == ac.SPIN_FLOP
        assert ac.classify_phase(0.0, spins.neel_temperature, bounds) == ac.PARAMAGNETIC

    def test_rejects_bad_inputs(self, bounds):
        with pytest.raises(ValueError):
            ac.classify_phase(-0.1, 1.0, bounds)
        with pytest.raises(ValueError):
            ac.classify_phase(0.1, -1.0, bounds)

    def test_zero_field_scan_changes_once(self, spins, bounds):
        temps = np.linspace(0.0, 3.0, 1201)
        labels = [ac.classify_phase(0.0, float(t), bounds) for t in temps]
        changes = sum(1 for a, b in zip(labels, labels[1:]) if a != b)
        assert changes == 1
        flip = next(i for i in range(len(labels) - 1) if labels[i] != labels[i + 1])
        assert temps[flip + 1] >= spins.neel_temperature - 0.01
        assert temps[flip] <= spins.neel_temperature

    @given(
        t_frac=st.floats(0.0, 0.99),
        b_start=st.floats(0.0, 0.5),
    )
    @settings(max_examples=100)
    def test_fixed_temperature_scan_ordered(self, spins, bounds, t_frac, b_start):
        t = t_frac * spins.neel_temperature
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

    def test_monotone_non_increasing(self, spins, bounds):
        temps = np.linspace(0.0, spins.neel_temperature * 0.999, 300)
        values = [ac.spin_flop_boundary(float(t), bounds) for t in temps]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_continuous_up_to_ordering_temperature(self, spins, bounds):
        t_near = spins.neel_temperature * (1 - 1e-9)
        assert ac.spin_flop_boundary(t_near, bounds) == pytest.approx(0.0, abs=1e-6)

    def test_zero_at_or_above_ordering_and_rejects_negative(self, spins, bounds):
        assert ac.spin_flop_boundary(spins.neel_temperature, bounds) == 0.0
        assert ac.spin_flop_boundary(3.0, bounds) == 0.0
        assert ac.spin_flop_boundary(1e300, bounds) == 0.0  # returns before the power overflows
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="temperature must be finite"):
                ac.spin_flop_boundary(bad, bounds)


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

    def test_wedge_is_well_ordered(self, spins, bounds):
        # the spin-flop wedge must sit strictly inside the ordered region
        for t in np.linspace(0.0, spins.neel_temperature * 0.999, 500).tolist():
            assert phase.neel_temperature_at(ac.spin_flop_boundary(t, bounds), bounds, spins) > t


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


def reference_phase(b, t, bd, spins):
    """Scalar classifier with its own copy of the two boundary curves."""
    neel, flop = spins.neel_temperature, ac.spin_flop_field(spins)
    neel_line = neel * max(0.0, 1.0 - (b / bd.saturation_field) ** bd.neel_exponent)
    if t >= neel_line:
        return ac.PARAMAGNETIC
    flop_line = flop * (1.0 - (t / neel) ** bd.spin_flop_exponent)
    if b < flop_line:
        return ac.ANTIFERROMAGNETIC
    return ac.SPIN_FLOP


class TestPhaseKernelOracle:
    @staticmethod
    def random_phase_model(rng):
        """Random anchors (spin system) and shapes (boundaries), spin-flop field 0.2-2.0 T."""
        g_factor = rng.uniform(1.0, 3.0)
        spins = ac.SpinSystemParams(
            g_factor=g_factor,
            f_afmr0=rng.uniform(0.2, 2.0) * g_factor * GHZ_PER_TESLA_PER_G,
            neel_temperature=rng.uniform(0.5, 5.0),
        )
        bd = ac.PhaseBoundaries(
            neel_exponent=rng.uniform(0.5, 4.0),
            saturation_field=ac.spin_flop_field(spins) * rng.uniform(1.05, 3.0),
            spin_flop_exponent=rng.uniform(0.5, 4.0),
        )
        return bd, spins

    def test_matches_scalar_reference_on_and_off_boundaries(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            bd, spins = self.random_phase_model(rng)
            neel, flop = spins.neel_temperature, ac.spin_flop_field(spins)
            t_cold = rng.uniform(0.0, neel, size=6)
            b_low = rng.uniform(0.0, bd.saturation_field, size=6)
            # points placed exactly on each boundary curve, plus random points
            points = [(0.0, neel)]
            for t in t_cold.tolist():
                points.append((flop * (1.0 - (t / neel) ** bd.spin_flop_exponent), t))
            for b in b_low.tolist():
                points.append((b, neel * max(
                    0.0, 1.0 - (b / bd.saturation_field) ** bd.neel_exponent)))
            points += zip(rng.uniform(0.0, 4.0, 20).tolist(), rng.uniform(0.0, 6.0, 20).tolist())
            for b, t in points:
                assert ac.classify_phase(b, t, bd, spins) == reference_phase(b, t, bd, spins)
            fields = [b for b, _ in points]
            temps = [t for _, t in points]
            grid = ac.phase_grid(fields, temps, bd, spins)
            assert grid == [[reference_phase(b, t, bd, spins) for t in temps] for b in fields]


def two_curve_phase_grid(fields, temps, bd, spins):
    """Phase raster by the two-curve rule: above the Neel line or past the saturation line.

    Both curves end at ``bd.saturation_field``: the Neel line T_N(0) * (1 - (B/B_sat)^n)
    in field and the saturation line B_sat * (1 - T/T_N(0))^(1/n) in temperature, each
    evaluated once per coordinate in Python floats.
    """
    neel, flop, sat, n = (spins.neel_temperature, ac.spin_flop_field(spins),
                          bd.saturation_field, bd.neel_exponent)
    neel_line = [0.0 if b >= sat else neel * max(0.0, 1.0 - (b / sat) ** n) for b in fields]
    saturation_line = [0.0 if t >= neel else sat * (1.0 - t / neel) ** (1.0 / n) for t in temps]
    flop_line = [flop * (1.0 - ((t if t < neel else 0.0) / neel) ** bd.spin_flop_exponent)
                 for t in temps]
    b, t = np.array(fields)[:, None], np.array(temps)[None, :]
    paramagnetic = (t >= np.array(neel_line)[:, None]) | (b >= np.array(saturation_line))
    antiferro = b < np.array(flop_line)
    labels = np.array([ac.ANTIFERROMAGNETIC, ac.SPIN_FLOP, ac.PARAMAGNETIC], dtype=object)
    return labels[np.where(paramagnetic, 2, np.where(antiferro, 0, 1))].tolist()


class TestOneNeelLine:
    # the Neel line ending at the saturation field bounds both ordered phases on its own:
    # the saturation line is the same curve solved for the field
    @pytest.mark.parametrize("step", [None, 0.005])  # phase-map's default grid and a fine one
    @pytest.mark.parametrize("f_afmr0", [34.0, 20.0])
    def test_matches_two_curve_rule_cell_for_cell(self, bounds, step, f_afmr0):
        spins = ac.SpinSystemParams(f_afmr0=f_afmr0)
        grids = (cli.PHASE_FIELD_GRID, ac.RunConfig().temperature_grid)
        fields, temps = (replace(g, step=step or g.step).samples().tolist() for g in grids)
        grid = ac.phase_grid(fields, temps, bounds, spins)
        assert grid == two_curve_phase_grid(fields, temps, bounds, spins)
