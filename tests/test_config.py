"""Tests for the strict JSON run configuration."""

import json

import numpy as np
import pytest

import afmcavity as ac
from afmcavity.config import ConfigError, GridSpec, RunConfig, load_config


class TestGridSpec:
    def test_inclusive_samples(self):
        grid = GridSpec(start=0.0, stop=1.1, step=0.005)
        samples = grid.samples()
        assert samples.size == 221
        assert samples[0] == 0.0
        assert samples[-1] == pytest.approx(1.1, abs=1e-12)

    def test_empty_when_stop_below_start(self):
        assert GridSpec(start=1.0, stop=0.0, step=0.1).samples().size == 0

    def test_bad_step(self):
        with pytest.raises(ConfigError):
            GridSpec(start=0.0, stop=1.0, step=0.0)
        for start, stop, step in ((0.0, 1.0, 1e-320), (float("nan"), 1.0, 0.1), (-1e308, 1e308, 1)):
            with pytest.raises(ConfigError, match=r"grid \(stop - start\) / step must be finite"):
                GridSpec(start=start, stop=stop, step=step)

    def test_too_many_samples_to_index(self):
        # numpy sizes an array's bytes in intp: a float64 axis of 2**60 steps passes that range
        limit = np.iinfo(np.intp).max / 8
        assert GridSpec(start=0.0, stop=np.nextafter(limit, 0.0), step=1.0).step == 1.0
        for stop, step in ((limit, 1.0), (1.0, 1e-300)):
            with pytest.raises(ConfigError, match="samples is too large to index"):
                GridSpec(start=0.0, stop=stop, step=step)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.spins.f_afmr0 == 34.0
        assert cfg.cavity.quality_factor == 1300.0
        assert cfg.coupling.big_g == 1.72
        assert cfg.loss.cavity_total_linewidth == pytest.approx(11.245 / 1300)
        assert cfg.seed == 0

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="unknown key: spinz"):
            RunConfig.from_dict({"spinz": {}})

    def test_unknown_nested_key_has_path(self):
        with pytest.raises(ConfigError, match="spins.g_facto"):
            RunConfig.from_dict({"spins": {"g_facto": 2.0}})

    def test_invalid_value_reports_section(self):
        with pytest.raises(ConfigError, match="spins"):
            RunConfig.from_dict({"spins": {"g_factor": -2.0}})
        for noise in (float("nan"), float("inf"), -0.1):
            with pytest.raises(ConfigError, match="noise_sigma_db: value must be finite and >= 0"):
                RunConfig.from_dict({"noise_sigma_db": noise})
        # a directly built config is checked the same way
        with pytest.raises(ConfigError, match="noise_sigma_db: value must be finite and >= 0"):
            RunConfig(noise_sigma_db=-0.1)

    def test_non_numeric_rejected(self):
        with pytest.raises(ConfigError, match="cavity.f_cavity"):
            RunConfig.from_dict({"cavity": {"f_cavity": "eleven"}})
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"seed": 1.5})
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"seed": True})
        for seed in (1.5, True):  # a directly built config is checked the same way
            with pytest.raises(ConfigError, match="seed: expected an integer"):
                RunConfig(seed=seed)
        # integers past the float range
        with pytest.raises(ConfigError, match="spins: int too large"):
            RunConfig.from_dict({"spins": {"g_factor": 10**400}})
        with pytest.raises(ConfigError, match="noise_sigma_db: int too large"):
            RunConfig.from_dict({"noise_sigma_db": 10**400})

    def test_non_numeric_noise_rejected(self):
        with pytest.raises(ConfigError, match="^noise_sigma_db: expected a number, got 'x'$"):
            RunConfig.from_dict({"noise_sigma_db": "x"})

    def test_loss_derived_from_cavity_when_omitted(self):
        cfg = RunConfig.from_dict({"cavity": {"quality_factor": 650.0}})
        assert cfg.loss.cavity_total_linewidth == pytest.approx(11.245 / 650.0)

    def test_explicit_loss_respected(self):
        cfg = RunConfig.from_dict(
            {"loss": {
                "cavity_internal_linewidth": 0.002,
                "cavity_external_linewidth": 0.006,
                "magnon_linewidth": 0.05,
            }}
        )
        assert cfg.loss.cavity_external_linewidth == 0.006
        assert cfg.loss.magnon_linewidth == 0.05

    def test_round_trip(self):
        cfg = RunConfig.from_dict(
            {
                "spins": {"g_factor": 1.9, "f_afmr0": 36.4},
                "coupling": {"big_g": 1.5},
                "field_grid": {"start": 0.0, "stop": 0.9, "step": 0.01},
                "seed": 77,
                "noise_sigma_db": 0.3,
            }
        )
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_round_trip_through_json(self):
        cfg = RunConfig()
        again = RunConfig.from_dict(json.loads(cfg.to_json()))
        assert again == cfg

    def test_grid_requires_all_keys(self):
        with pytest.raises(ConfigError, match="field_grid"):
            RunConfig.from_dict({"field_grid": {"start": 0.0, "stop": 1.0}})

    # G alone is the coupling, and the saturation field alone ends the Neel line
    @pytest.mark.parametrize("partial", [
        {"coupling": {"big_g": 1.0, "n_spins": 4.0}},
        {"coupling": {"big_g": 1.0, "g_single": 0.5}},
        {"boundaries": {"critical_field": 2.5}},
    ])
    def test_coupling_half_decomposition_rejected(self, partial):
        (section, keys), = partial.items()
        with pytest.raises(ConfigError, match=f"^unknown key: {section}.{list(keys)[-1]}$"):
            RunConfig.from_dict(partial)


class TestLoadConfig:
    def test_missing_path_means_defaults(self):
        assert load_config(None) == RunConfig()

    def test_file_loading(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text('{"seed": 5}')
        assert load_config(path).seed == 5

    def test_missing_file_reported(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.json")

    def test_invalid_json_reported(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)
