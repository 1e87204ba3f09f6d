"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Each criterion carries its own tolerance and a wall-clock budget.
"""

import time

import numpy as np
import pytest

import afmcavity as ac
from afmcavity import GHZ_PER_TESLA_PER_G


def _report(number: int, name: str, started: float, limit: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < limit, f"criterion {number} exceeded its {limit:.0f} s budget"
    print(f"[acceptance] criterion {number} ({name}): PASS ({elapsed:.2f} s)")


def test_criterion_1_dispersion_anchor(spins):
    started = time.perf_counter()
    flop = ac.spin_flop_field(spins)
    assert flop == pytest.approx(1.2146, abs=1e-4)

    # independent bisection of lower(B) = 0 on the clamped branch
    lo, hi = 0.0, 5.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if ac.magnon_branches(spins, mid).lower > 0:
            lo = mid
        else:
            hi = mid
    assert abs(0.5 * (lo + hi) - flop) < 2e-9
    _report(1, "dispersion anchor", started, 1.0)


def test_criterion_2_eigenvalue_anchor(cavity, coupling):
    started = time.perf_counter()
    pair = ac.polariton_frequencies(cavity, cavity.f_cavity, coupling)
    assert pair.upper - pair.lower == pytest.approx(3.44, abs=1e-12)

    rng = np.random.default_rng(2718)
    for _ in range(1000):
        fc = rng.uniform(1.0, 50.0)
        fm = rng.uniform(0.0, 60.0)
        g = rng.uniform(0.0, 5.0)
        closed = ac.polariton_frequencies(
            ac.CavityParams(f_cavity=fc), fm, ac.CouplingParams(big_g=g)
        )
        eig = np.linalg.eigvalsh(np.array([[fc, g], [g, fm]]))
        scale = max(abs(eig[0]), abs(eig[1]))
        assert abs(closed.lower - eig[0]) <= 1e-12 * scale
        assert abs(closed.upper - eig[1]) <= 1e-12 * scale
    _report(2, "eigenvalue anchor", started, 1.0)


def test_criterion_3_ultrastrong_classification(cavity, coupling):
    started = time.perf_counter()
    report = ac.coupling_regime(coupling, cavity, 0.035)
    assert report.label == "ultrastrong"
    assert round(report.ratio, 4) == 0.1530
    assert report.ratio == 1.72 / 11.245
    _report(3, "ultrastrong classification", started, 1.0)


def test_criterion_4_end_to_end_round_trip(default_map, cavity):
    started = time.perf_counter()
    start_spins = ac.SpinSystemParams(f_afmr0=31.0)  # deliberately offset start

    peaks = ac.extract_peaks(default_map, min_prominence=0.2)
    report = ac.fit_avoided_crossing(peaks, start_spins, cavity, free=("big_g", "f_afmr0"))
    assert report.converged
    assert report.value_of("big_g") == pytest.approx(1.72, rel=0.005)
    assert report.value_of("f_afmr0") == pytest.approx(34.0, rel=0.005)

    for seed in range(20):
        noisy = ac.add_noise(default_map, 0.2, seed)
        noisy_peaks = ac.extract_peaks(noisy, min_prominence=0.2)
        noisy_report = ac.fit_avoided_crossing(
            noisy_peaks, start_spins, cavity, free=("big_g", "f_afmr0")
        )
        assert noisy_report.converged
        assert noisy_report.value_of("big_g") == pytest.approx(1.72, rel=0.02)
    _report(4, "end-to-end round trip", started, 60.0)


def test_criterion_5_linewidth_pipeline(spins, cavity, coupling, loss):
    started = time.perf_counter()
    tmap = ac.synthesize_map(
        np.arange(0.64, 0.72 + 5e-5, 1e-4),
        np.arange(15.5, 15.7 + 2.5e-3, 5e-3),
        spins, cavity, coupling, loss,
    )
    cut = ac.vertical_cut(tmap, 15.6)
    gamma_t = ac.field_linewidth(cut).value_of("width")
    gamma_f = ac.linewidth_field_to_freq(gamma_t, spins.g_factor)
    assert gamma_t > 0
    # the conversion is exactly gamma_B * g * 13.996245 GHz/T
    assert gamma_f == gamma_t * spins.g_factor * GHZ_PER_TESLA_PER_G
    assert abs(GHZ_PER_TESLA_PER_G - 13.996245) / 13.996245 < 1e-6
    assert gamma_f == pytest.approx(0.035, rel=0.2)

    pair_value = ac.linewidth_field_to_freq(1.2504e-3, 2.0)
    assert pair_value * 1e3 == pytest.approx(35.0, rel=1e-3)
    _report(5, "linewidth pipeline", started, 5.0)


def test_criterion_6_trend_fit_recovery():
    started = time.perf_counter()

    t_lw = np.linspace(0.25, 1.0, 15)
    a_lw, b_lw = 34.8, 30.0  # MHz, MHz/K^4; quartic term resolvable on this span
    for seed in range(50):
        noise = 1 + 0.01 * np.random.default_rng(seed).standard_normal(t_lw.size)
        fit = ac.fit_t4_trend(list(zip(t_lw, (a_lw + b_lw * t_lw**4) * noise)), sign="+")
        assert fit.offset == pytest.approx(a_lw, rel=0.02)
        assert fit.coefficient == pytest.approx(b_lw, rel=0.10)

    t_g = np.linspace(0.3, 1.5, 25)
    a_g, b_g = 1.7, 0.2  # GHz, GHz/K^4
    for seed in range(50):
        noise = 1 + 0.01 * np.random.default_rng(1000 + seed).standard_normal(t_g.size)
        fit = ac.fit_t4_trend(list(zip(t_g, (a_g - b_g * t_g**4) * noise)), sign="-")
        assert fit.offset == pytest.approx(a_g, rel=0.02)
        assert fit.coefficient == pytest.approx(b_g, rel=0.10)
    _report(6, "trend-fit recovery", started, 10.0)


def test_criterion_7_property_suites(spins, cavity, coupling, loss):
    started = time.perf_counter()
    rng = np.random.default_rng(424242)

    # zero-field degeneracy
    for _ in range(1000):
        params = ac.SpinSystemParams(
            g_factor=rng.uniform(0.5, 20.0), f_afmr0=rng.uniform(1.0, 100.0)
        )
        pair = ac.magnon_branches(params, 0.0)
        assert pair.lower == pair.upper == params.f_afmr0

    # trace preservation and splitting floor of the dressed pair
    for _ in range(1000):
        fc = rng.uniform(1.0, 50.0)
        fm = rng.uniform(0.0, 60.0)
        g = rng.uniform(0.0, 5.0)
        pair = ac.polariton_frequencies(
            ac.CavityParams(f_cavity=fc), fm, ac.CouplingParams(big_g=g)
        )
        scale = fc + fm + 1.0
        assert abs((pair.lower + pair.upper) - (fc + fm)) <= 1e-13 * scale
        assert pair.upper - pair.lower >= 2.0 * g - 1e-12 * scale

    # conversion linearity
    for _ in range(1000):
        x = rng.uniform(1e-6, 1e-1)
        a = rng.uniform(0.1, 10.0)
        g_factor = rng.uniform(0.5, 16.0)
        lhs = ac.linewidth_field_to_freq(a * x, g_factor)
        rhs = a * ac.linewidth_field_to_freq(x, g_factor)
        assert abs(lhs - rhs) <= 1e-13 * max(lhs, rhs)

    # map determinism under seed
    small = ac.synthesize_map(
        np.linspace(0.0, 1.0, 6), np.linspace(10.5, 12.0, 9),
        spins, cavity, coupling, loss,
    )
    for _ in range(1000):
        seed = int(rng.integers(0, 2**31))
        sigma = float(rng.uniform(0.0, 1.0))
        first = ac.add_noise(small, sigma, seed)
        second = ac.add_noise(small, sigma, seed)
        assert np.array_equal(first.values, second.values)

    # phase-region monotonicity along coordinate-wise nondecreasing paths
    bounds = ac.PhaseBoundaries()
    order = {ac.ANTIFERROMAGNETIC: 0, ac.SPIN_FLOP: 1, ac.PARAMAGNETIC: 2}
    for _ in range(1000):
        b_path = np.cumsum(rng.uniform(0, 0.2, size=25)) + rng.uniform(0, 0.4)
        t_path = np.cumsum(rng.uniform(0, 0.2, size=25)) + rng.uniform(0, 0.4)
        ranks = [
            order[ac.classify_phase(float(b), float(t), bounds)]
            for b, t in zip(b_path, t_path)
        ]
        assert all(a <= b for a, b in zip(ranks, ranks[1:]))
        assert sum(1 for a, b in zip(ranks, ranks[1:]) if a != b) <= 2
    _report(7, "property suites", started, 30.0)
