from typing import Callable, NamedTuple

import numpy as np
import pytest

import afmcavity as ac


@pytest.fixture(scope="session")
def spins():
    return ac.SpinSystemParams()


@pytest.fixture(scope="session")
def cavity():
    return ac.CavityParams()


@pytest.fixture(scope="session")
def coupling():
    return ac.CouplingParams(big_g=1.72)


@pytest.fixture(scope="session")
def loss():
    return ac.LossParams(magnon_linewidth=0.035)


@pytest.fixture(scope="session")
def default_map(spins, cavity, coupling, loss):
    """Reference sweep: 0-1.1 T in 5 mT steps, 8-15 GHz in 5 MHz steps."""
    field_axis = ac.GridSpec(start=0.0, stop=1.1, step=0.005).samples()
    freq_axis = ac.GridSpec(start=8.0, stop=15.0, step=0.005).samples()
    return ac.synthesize_map(field_axis, freq_axis, spins, cavity, coupling, loss)


@pytest.fixture(scope="session")
def default_peaks(default_map):
    return ac.extract_peaks(default_map, min_prominence=0.2)


def map_field_step(tmap) -> float:
    return float(np.min(np.diff(tmap.field_axis)))


def map_freq_step(tmap) -> float:
    return float(np.min(np.diff(tmap.freq_axis)))


def crossing_field(spins, cavity) -> float:
    """Field (tesla) where the descending lower magnon branch meets the cavity."""
    return (spins.f_afmr0 - cavity.f_cavity) / (spins.g_factor * ac.GHZ_PER_TESLA_PER_G)


def numerical_jacobian(
    fun: Callable[[np.ndarray], np.ndarray], x: np.ndarray, rel_step: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian of a residual vector: the oracle for analytic ones.

    Steps are relative to each parameter with a floor of ``rel_step`` so that
    zero-valued parameters still get a finite perturbation.
    """
    x = np.asarray(x, dtype=float)
    r0 = np.asarray(fun(x), dtype=float)
    jac = np.empty((r0.size, x.size))
    for i in range(x.size):
        h = rel_step * max(abs(x[i]), 1.0)
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        jac[:, i] = (np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2.0 * h)
    return jac


class Coverage(NamedTuple):
    share: float  # of the values within 1σ of the truth
    low: float  # Wilson score bounds on that share at ``z``
    high: float
    trials: int


def sigma_coverage(draw: Callable, truth, seeds, z: float = 1.96) -> Coverage:
    """Share of seeded draws whose fitted value lies within its 1σ of ``truth``.

    ``draw(seed)`` returns a (value, σ) pair, or two arrays of them matching ``truth``;
    each value counts as one Bernoulli trial.  A σ that is right covers about 0.683 of
    Gaussian errors (less with few residual degrees of freedom), so a share far below
    is a σ too small, and one far above a σ too large: a frequentist form of
    simulation-based calibration (Talts et al. 2018, arXiv:1804.06788).  The bounds
    are the binomial Wilson score interval, whose trials must be independent.
    """
    hits = trials = 0
    for seed in seeds:
        value, sigma = draw(seed)
        within = np.abs(np.asarray(value, dtype=float) - truth) <= sigma
        hits += int(np.count_nonzero(within))
        trials += within.size
    share = hits / trials
    center = (hits + z * z / 2) / (trials + z * z)
    half = z / (trials + z * z) * np.sqrt(hits * (trials - hits) / trials + z * z / 4)
    return Coverage(share, float(center - half), float(center + half), trials)
