"""Integration tests for the command-line surface and its exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmcavity as ac
from afmcavity import config, spectra
from afmcavity.cli import main

DEFAULT_FLOP = ac.spin_flop_field(ac.SpinSystemParams())  # tesla


@pytest.fixture(scope="module")
def sweep_config(tmp_path_factory):
    """Config for a map that is quick to synthesize but still fittable."""
    path = tmp_path_factory.mktemp("cfg") / "run.json"
    path.write_text(json.dumps({
        "field_grid": {"start": 0.0, "stop": 1.1, "step": 0.01},
        "freq_grid": {"start": 8.0, "stop": 15.0, "step": 0.01},
        "seed": 3,
    }))
    return path


@pytest.fixture(scope="module")
def sweep_map(sweep_config, tmp_path_factory):
    out = tmp_path_factory.mktemp("maps") / "map.csv"
    assert main(["sweep", "--config", str(sweep_config), "--out", str(out)]) == 0
    return out


class TestDispersion:
    def test_default_run(self, tmp_path):
        out = tmp_path / "disp.csv"
        code = main([
            "dispersion", "--b-min", "0", "--b-max", "1.3", "--b-step", "0.01",
            "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# spin_flop_field_T=1.21461")
        assert lines[1] == "field_T,lower_GHz,upper_GHz,beyond_spin_flop"
        rows = [line.split(",") for line in lines[2:]]
        lowers = [float(r[1]) for r in rows]
        uppers = [float(r[2]) for r in rows]
        flags = [int(r[3]) for r in rows]
        assert all(a >= b for a, b in zip(lowers, lowers[1:]))  # monotone down
        assert all(a <= b for a, b in zip(uppers, uppers[1:]))  # monotone up
        flop = ac.spin_flop_field(ac.SpinSystemParams())
        for r, flag in zip(rows, flags):
            assert flag == (1 if float(r[0]) >= flop else 0)

    def test_negative_field_exit_2(self, capsys):
        code = main(["dispersion", "--b-min", "-0.2", "--b-max", "0.5", "--b-step", "0.01"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --b-min, --b-max, --b-step: field must be finite and >= 0, got -0.2\n"
        )

    def test_json_format(self, capsys):
        code = main([
            "dispersion", "--b-min", "0", "--b-max", "0.1", "--b-step", "0.05",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["field_t"] == [0.0, 0.05, 0.1]
        assert payload["lower_ghz"][0] == 34.0


class TestSweep:
    def test_outputs_and_determinism(self, sweep_config, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(sweep_config), "--out", str(a)]) == 0
        assert main(["sweep", "--config", str(sweep_config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()

    def test_metadata_config_round_trips(self, sweep_map, sweep_config):
        meta = json.loads(sweep_map.with_suffix(".json").read_text())
        restored = ac.RunConfig.from_dict(meta["config"])
        assert restored == ac.load_config(sweep_config)
        # the anchors of the phase diagram are recorded once, under "spins"
        assert sorted(meta["config"]["boundaries"]) == [
            "neel_exponent", "saturation_field", "spin_flop_exponent"
        ]

    def test_zero_coupling_map_constant_columns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "coupling": {"big_g": 0.0},
            "field_grid": {"start": 0.0, "stop": 0.2, "step": 0.05},
            "freq_grid": {"start": 11.0, "stop": 11.5, "step": 0.005},
        }))
        out = tmp_path / "flat.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        tmap = ac.load_map(out)
        for i in range(1, tmap.values.shape[0]):
            assert np.array_equal(tmap.values[i], tmap.values[0])

    def test_noise_applied_with_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "noise_sigma_db": 0.2,
            "seed": 9,
            "field_grid": {"start": 0.0, "stop": 0.1, "step": 0.05},
            "freq_grid": {"start": 11.0, "stop": 11.4, "step": 0.01},
        }))
        out = tmp_path / "noisy.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["noise"] == {"sigma_db": 0.2, "seed": 9}

    def test_db_export(self, sweep_config, tmp_path):
        out = tmp_path / "db.csv"
        assert main(["sweep", "--config", str(sweep_config), "--out", str(out), "--db"]) == 0
        assert out.read_text().splitlines()[0] == "# field_T,freq_GHz,s21_db"

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "noise_sigma_db": 0.2,
            "seed": 9,
            "field_grid": {"start": 0.0, "stop": 0.1, "step": 0.05},
            "freq_grid": {"start": 11.0, "stop": 11.4, "step": 0.01},
        }))
        out = tmp_path / "map.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out), "--seed", "31"]) == 0
        meta = json.loads(out.with_suffix(".json").read_text())
        assert meta["noise"]["seed"] == 31
        assert meta["config"]["seed"] == 31  # the recorded config reproduces the map

    def test_refuses_to_overwrite_its_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        text = json.dumps({"field_grid": {"start": 0.0, "stop": 0.1, "step": 0.05}})
        cfg.write_text(text)
        for out in ("run.csv", "run.json"):
            code = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / out)])
            assert code == 2
            assert "overwrite the config" in capsys.readouterr().err
        assert cfg.read_text() == text
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_json_out_exit_2_before_synthesis(self, tmp_path, capsys, monkeypatch):
        # the map would be overwritten by its own sidecar; the path is refused before any work
        def no_synthesis(*args):
            raise AssertionError("synthesize_map called")

        monkeypatch.setattr(spectra, "synthesize_map", no_synthesis)
        out = tmp_path / "x.json"
        assert main(["sweep", "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: map path {out} would be overwritten by its own .json sidecar\n"
        )
        assert list(tmp_path.iterdir()) == []


class TestFit:
    def test_recovers_coupling_and_reports_regime(self, sweep_map, tmp_path, capsys):
        code = main(["fit", str(sweep_map), "--free", "big_g,f_afmr0"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["converged"] is True
        assert payload["parameters"]["big_g"] == pytest.approx(1.72, rel=0.005)
        assert payload["parameters"]["f_afmr0"] == pytest.approx(34.0, rel=0.005)
        assert payload["regime"]["label"] == "ultrastrong"
        assert round(payload["regime"]["ratio"], 3) == 0.153

    def test_truncated_file_exit_2(self, sweep_map, tmp_path, capsys):
        bad = tmp_path / "broken.csv"
        text = sweep_map.read_text().splitlines()
        bad.write_text("\n".join(text[: len(text) // 2]) + "\n0.5,bogus\n")
        code = main(["fit", str(bad)])
        assert code == 2
        assert "line" in capsys.readouterr().err

    def test_window_without_peaks_exit_2(self, sweep_map, capsys):
        code = main(["fit", str(sweep_map), "--window", "2.0:3.0"])
        assert code == 2
        assert "peaks" in capsys.readouterr().err

    @pytest.mark.parametrize("window, message", [
        ("1:2:3", "window must be LO:HI in tesla, got '1:2:3'"),
        ("a:b", "window must be numeric LO:HI, got 'a:b'"),
    ])
    def test_malformed_window_exit_2(self, sweep_map, capsys, window, message):
        assert main(["fit", str(sweep_map), "--window", window]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_decreasing_window_exit_2(self, sweep_map, capsys):
        assert main(["fit", str(sweep_map), "--window", "1:0"]) == 2
        assert capsys.readouterr().err == (
            "error: window must be an increasing interval, got (1.0, 0.0)\n"
        )

    def test_missing_map_exit_2(self, capsys):
        assert main(["fit", "/nonexistent/map.csv"]) == 2

    def test_report_written_to_file(self, sweep_map, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["fit", str(sweep_map), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "parameters" in payload

    def test_regime_reads_the_maps_cavity_linewidth(self, tmp_path, capsys):
        # κ_tot = f_cavity / Q = 2 GHz exceeds G = 1.72 GHz
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"cavity": {"quality_factor": 11.245 / 2}}))
        out = tmp_path / "map.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["fit", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["parameters"]["big_g"] == pytest.approx(1.72, rel=0.005)
        assert payload["regime"]["label"] == "weak"


def fine_sweep(directory: Path, cavity=None) -> Path:
    """A map on the fine linewidth grid, with the config's ``cavity`` section if given."""
    cfg = directory / "run.json"
    cfg.write_text(json.dumps({
        "field_grid": {"start": 0.64, "stop": 0.72, "step": 0.0001},
        "freq_grid": {"start": 15.5, "stop": 15.7, "step": 0.005},
        "cavity": cavity,
    }))
    out = directory / "fine.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def fine_map(tmp_path_factory):
    return fine_sweep(tmp_path_factory.mktemp("maps"))


class TestLinewidth:
    def test_linewidth_pair_and_conversion_factor(self, fine_map, capsys):
        code = main(["linewidth", str(fine_map), "--freq", "15.6"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma_tesla"] > 0
        assert payload["conversion_ghz_per_tesla"] == pytest.approx(
            2.0 * 13.996244936072705, rel=1e-12
        )
        assert payload["gamma_ghz"] == pytest.approx(
            payload["gamma_tesla"] * payload["conversion_ghz_per_tesla"], rel=1e-12
        )
        assert payload["magnon_corrected_ghz"] == pytest.approx(0.035, rel=0.01)

    def test_correction_without_a_magnon_branch_is_null(self, fine_map, tmp_path, capsys):
        # the sidecar's model (G = 0, magnon at 5 GHz) gives the cut's upper branch no magnon
        # content, so there is no linewidth to correct
        meta = json.loads(spectra.sidecar_path(fine_map).read_text())
        meta["coupling"]["big_g"] = 0
        meta["spins"]["f_afmr0"] = 5
        copy = tmp_path / "fine.csv"
        copy.write_bytes(fine_map.read_bytes())
        spectra.sidecar_path(copy).write_text(json.dumps(meta))
        assert main(["linewidth", str(copy), "--freq", "15.6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gamma_tesla"] > 0
        assert payload["magnon_corrected_ghz"] is None

    def test_frequency_outside_grid_exit_2(self, fine_map, capsys):
        assert main(["linewidth", str(fine_map), "--freq", "20.0"]) == 2
        assert "outside" in capsys.readouterr().err

    def test_correction_subtracts_the_maps_cavity_linewidth(self, tmp_path, capsys):
        # κ_tot = f_cavity / Q = 0.04 GHz + 1 ulp here, not the default 0.00865 GHz
        cavity = {"quality_factor": 281.12499999999994}
        assert main(["linewidth", str(fine_sweep(tmp_path, cavity)), "--freq", "15.6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["magnon_corrected_ghz"] == pytest.approx(0.035, rel=1e-3)

    @pytest.mark.parametrize("quality_factor", [281.125, 300])
    def test_fit_stalled_at_the_rounding_floor_exit_0(self, tmp_path, capsys, quality_factor):
        # the Lorentzian fit stops on damping exhaustion (281.125) or a step below tolerance
        # (300) just above the absolute gradient tolerance, with r orthogonal to J
        cavity = {"quality_factor": quality_factor}
        assert main(["linewidth", str(fine_sweep(tmp_path, cavity)), "--freq", "15.6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["magnon_corrected_ghz"] == pytest.approx(0.035, rel=1e-3)

    def test_zero_cavity_linewidth_map_is_flat_exit_2(self, tmp_path, capsys):
        # an uncoupled port: κ_ext = 0, so every cell of the map is 0
        cavity = {"external_coupling_fraction": 0}
        assert main(["linewidth", str(fine_sweep(tmp_path, cavity)), "--freq", "15.6"]) == 2
        assert capsys.readouterr().err == "error: no peak: the trace is flat\n"

    def test_peak_on_the_edge_field_exit_2(self, tmp_path, capsys):
        # at 11.25 GHz the cut's maximum is on the first field, so the trace holds half a peak
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "field_grid": {"start": 0.0, "stop": 1.1, "step": 0.001},
            "freq_grid": {"start": 8.0, "stop": 15.0, "step": 0.125},
        }))
        out = tmp_path / "edge.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["linewidth", str(out), "--freq", "11.25"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: peak cut off: the maximum sits on the edge field 0.0 T\n"

    def test_unconverged_fit_exit_3(self, fine_map, monkeypatch, capsys):
        from afmcavity import analysis as analysis_module

        original = analysis_module.optimize.levenberg_marquardt

        def stalled(*args, **kwargs):
            return replace(original(*args, **kwargs), converged=False,
                           message="maximum iterations reached")

        monkeypatch.setattr(analysis_module.optimize, "levenberg_marquardt", stalled)
        assert main(["linewidth", str(fine_map), "--freq", "15.6"]) == 3
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # the report is written at exit 3 too
        assert (report["converged"], report["message"]) == (False, "maximum iterations reached")
        assert captured.err == (
            "error: linewidth fit did not converge: maximum iterations reached\n"
        )

    def test_conversion_linearity_spot_check(self):
        one = ac.linewidth_field_to_freq(1e-3, 2.0)
        three = ac.linewidth_field_to_freq(3e-3, 2.0)
        assert three == pytest.approx(3 * one, rel=1e-12)


class TestTrend:
    def test_fit_from_csv(self, tmp_path, capsys):
        t = np.linspace(0.3, 1.4, 12)
        y = 34.8 + 25.0 * t**4
        path = tmp_path / "points.csv"
        path.write_text(
            "temperature,value\n"
            + "\n".join(f"{ti},{yi}" for ti, yi in zip(t, y))
            + "\n"
        )
        code = main(["trend", str(path), "--sign", "+"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["offset"] == pytest.approx(34.8, rel=1e-6)
        assert payload["coefficient"] == pytest.approx(25.0, rel=1e-6)

    def test_millikelvin_flag(self, tmp_path, capsys):
        t_mk = np.linspace(300, 1400, 12)
        y = 1.7 - 0.2 * (t_mk / 1e3) ** 4
        path = tmp_path / "points.csv"
        path.write_text("\n".join(f"{ti},{yi}" for ti, yi in zip(t_mk, y)) + "\n")
        code = main(["trend", str(path), "--sign", "-", "--t-unit", "mK"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coefficient"] == pytest.approx(0.2, rel=1e-6)

    @pytest.mark.parametrize("flags", [[], ["--free-exponent"]], ids=["fixed", "free"])
    def test_coefficient_against_sign_exit_2(self, tmp_path, capsys, flags):
        path = tmp_path / "points.csv"
        path.write_text("".join(f"{0.2 * i!r},{35 + 5 * (0.2 * i) ** 4!r}\n" for i in range(1, 8)))
        assert main(["trend", str(path), "--sign", "-", *flags]) == 2
        assert capsys.readouterr() == ("", (
            "error: fitted coefficient -5.000000000000005 contradicts sign '-': "
            "the data rise with temperature\n"
        ))

    @pytest.mark.parametrize("sign", ["+", "-"])
    def test_constant_data_exit_0_under_either_sign(self, tmp_path, capsys, sign):
        # the coefficient fits ±1.27e-16, a rounding of zero and no contradiction of the sign
        path = tmp_path / "points.csv"
        path.write_text("".join(f"{float(t)!r},35\n" for t in np.linspace(0.2, 1.5, 8)))
        assert main(["trend", str(path), "--sign", sign]) == 0
        assert abs(json.loads(capsys.readouterr().out)["coefficient"]) < 1e-15

    def test_bad_file_exit_2(self, tmp_path, capsys):
        assert main(["trend", "/nonexistent/points.csv"]) == 2
        path = tmp_path / "points.csv"
        path.write_text("1e100,1\n2e100,2\n3e100,3\n")  # T⁴ overflows a float
        for flags in ([], ["--free-exponent"]):
            capsys.readouterr()
            assert main(["trend", str(path), *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: temperature⁴ must be finite") and err.count("\n") == 1

    def test_underflowing_quartic_exit_2(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("1e-90,35\n2e-90,35.1\n3e-90,35.3\n")  # every T⁴ underflows to 0
        for flags in ([], ["--free-exponent"]):
            capsys.readouterr()
            assert main(["trend", str(path), *flags]) == 2
            err = capsys.readouterr().err
            assert err == "error: singular design: all temperatures⁴ are equal\n"

    @pytest.mark.parametrize("body", [
        # T⁴ near 1e280 beside the ones column: lstsq drops the offset
        pytest.param("1e70,35\n2e70,35.1\n3e70,35.3\n", id="huge-temperatures"),
        # T⁴ near 1e-40 beside the ones column: lstsq drops the T⁴ term
        pytest.param("1e-10,35\n2e-10,35.1\n3e-10,35.3\n", id="tiny-temperatures"),
    ])
    def test_rank_deficient_fixed_exponent_exit_2(self, tmp_path, capsys, body):
        # the free exponent starts from the same design: no fit moves it off a singular one
        path = tmp_path / "points.csv"
        path.write_text(body)
        for flags in ([], ["--free-exponent"]):
            assert main(["trend", str(path), *flags]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "error: singular design: temperatures⁴ are numerically collinear with the offset\n"
            )

    def test_singular_design_rule_refuses_no_resolvable_fit(self, tmp_path, capsys):
        # lstsq reads points at t, 2t, 3t as rank 1 only below ~66 µK or above ~2200 K: no
        # draw in 0.01-3 K meets the rule, so each one is fitted as without it
        rng = np.random.default_rng(28)
        path = tmp_path / "points.csv"
        for i in range(100):
            t = np.sort(rng.uniform(0.01, 3.0, int(rng.integers(3, 9))))
            p, sign, unit = rng.uniform(2.0, 6.0), "+-"[i % 2], ("mK", "K", "K")[i % 3]
            a = rng.uniform(10.0, 50.0)
            b = rng.uniform(0.1, 0.9) * a / t[-1] ** p * (1 if sign == "+" else -1)
            y = a + b * t**p + 1e-4 * a * rng.standard_normal(t.size)
            design = np.column_stack([np.ones_like(t), t**4])
            assert np.linalg.lstsq(design, y, rcond=None)[2] == 2
            scale = 1e3 if unit == "mK" else 1.0
            rows = zip((t * scale).tolist(), y.tolist())
            path.write_text("".join(f"{ti!r},{yi!r}\n" for ti, yi in rows))
            for flags in ([], ["--free-exponent"]):
                code = main(["trend", str(path), "--sign", sign, "--t-unit", unit, *flags])
                err = capsys.readouterr().err
                # three points leave the free fit no residual freedom: it may stall there
                assert (code, err) == (0, "") or (
                    code == 3 and flags and t.size == 3
                    and err.startswith("error: trend fit did not converge: ")
                ), (i, flags, err)

    def test_overflowing_sum_of_squares_exit_2(self, tmp_path, capsys):
        path = tmp_path / "points.csv"
        path.write_text("0.5,1e200\n1.0,3e200\n1.5,2e200\n")  # y @ y overflows
        for flags in ([], ["--free-exponent"]):
            capsys.readouterr()
            assert main(["trend", str(path), *flags]) == 2
            assert capsys.readouterr().err == "error: sum of value² must be finite, got inf\n"

    @pytest.mark.parametrize("body", [
        pytest.param("0.3,35\n0.5,35.0001\n0.7,35\n1.0,35.0002\n1.5,35\n", id="flat"),
        # a resolvable design whose exponent column squares past the float range at the start
        pytest.param("800,1e153\n1600,2e153\n2400,4e153\n", id="overflowing-normal-matrix"),
    ])
    def test_unconverged_free_exponent_exit_3(self, tmp_path, capsys, body):
        path = tmp_path / "points.csv"
        path.write_text(body)
        assert main(["trend", str(path), "--free-exponent"]) == 3
        captured = capsys.readouterr()
        report = json.loads(captured.out)  # the report is written at exit 3 too
        assert report["converged"] is False
        assert captured.err == f"error: trend fit did not converge: {report['message']}\n"

    @pytest.mark.parametrize("body, lineno", [
        pytest.param("t,y\n0.5,1.0\n0.6,oops\n", 3, id="bad-value"),
        pytest.param("t,y\n0.5,1.0\n\n0.6,oops\n", 4, id="bad-value-after-blank"),
        pytest.param("t,y\n0.5,1.0\n \t \n0.6,oops\n", 4, id="whitespace-line-skipped"),
        pytest.param("0.5,1.0\n0.6\n", 2, id="one-value-row"),
        pytest.param("0.5,1.0\n0.6,1.1,\n", 2, id="trailing-comma"),
        pytest.param("0.5,1.0\n0.6,1_1\n", 2, id="underscore-digits"),
        pytest.param("a,b,c\n0.5,1.0\n", 1, id="three-field-first-row"),
        pytest.param("0.5,1.0,2.0\n0.6,1.1,2.1\n", 1, id="three-value-rows"),
        pytest.param("t,y\n", 2, id="header-only"),
    ])
    def test_malformed_points_exit_2(self, tmp_path, capsys, body, lineno):
        path = tmp_path / "points.csv"
        path.write_text(body)
        assert main(["trend", str(path)]) == 2
        assert f"{path}: line {lineno}:" in capsys.readouterr().err


class TestPhaseMap:
    def test_default_grid_has_three_regions(self, capsys):
        code = main(["phase-map", "--b-step", "0.1", "--t-step", "0.1"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "field_T,temperature_K,phase"
        labels = {line.split(",")[2] for line in lines[2:]}
        assert labels == {"antiferromagnetic", "spin-flop", "paramagnetic"}
        by_point = {tuple(line.split(",")[:2]): line.split(",")[2] for line in lines[2:]}
        assert by_point[("0.5", "1.0")] == "antiferromagnetic"

    def test_single_cell_warm(self, capsys):
        code = main([
            "phase-map", "--b-min", "0", "--b-max", "0", "--b-step", "1",
            "--t-min", "3", "--t-max", "3", "--t-step", "1",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[2].endswith("paramagnetic")

    def test_temperature_grid_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"temperature_grid": {"start": 0.5, "stop": 1.0, "step": 0.25}}))
        argv = ["phase-map", "--config", str(cfg), "--format", "json", "--b-step", "1.5"]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["temperature_k"] == [0.5, 0.75, 1.0]
        assert payload["field_t"] == [0.0, 1.5, 3.0]  # the field axis keeps its own base
        # a --t-* flag replaces only its own part of the config grid
        assert main([*argv, "--t-max", "0.75"]) == 0
        assert json.loads(capsys.readouterr().out)["temperature_k"] == [0.5, 0.75]

    def test_spin_system_moves_the_spin_flop_boundary(self, tmp_path, capsys):
        # at f_afmr0 = 20 GHz the 0 K boundary sits at dispersion's spin-flop field,
        # 0.714 T, where the default spin system puts it at 1.215 T
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"spins": {"f_afmr0": 20}}))
        assert main(["dispersion", "--config", str(cfg), "--b-max", "0"]) == 0
        flop = float(capsys.readouterr().out.splitlines()[0].removeprefix("# spin_flop_field_T="))
        assert flop == ac.spin_flop_field(ac.SpinSystemParams(f_afmr0=20.0))
        assert flop == pytest.approx(0.714, abs=5e-4)
        for b, label in ((np.nextafter(flop, 0.0), "antiferromagnetic"), (flop, "spin-flop")):
            field = repr(float(b))
            argv = ["phase-map", "--config", str(cfg), "--b-min", field, "--b-max", field,
                    "--b-step", "1", "--t-max", "0"]
            assert main(argv) == 0
            assert capsys.readouterr().out.splitlines()[2:] == [f"{field},0.0,{label}"]
        assert main(["phase-map", "--config", str(cfg), "--b-step", "0.05", "--t-max", "0"]) == 0
        assert "0.75,0.0,spin-flop" in capsys.readouterr().out.splitlines()

    def test_streamed_file_peak_memory_below_its_size(self, tmp_path):
        # The table goes to the file a block at a time, never as one string.
        out = tmp_path / "phases.csv"
        argv = ["phase-map", "--b-step", "0.005", "--t-step", "0.005", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 9_000_000
        assert peak < size, peak / size

    def test_stdout_and_file_bytes_match(self, tmp_path, capsys):
        out = tmp_path / "phases.csv"
        argv = ["phase-map", "--b-step", "0.1", "--t-step", "0.1"]
        assert main(argv) == 0
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_reader_that_stops_early_ends_output_quietly(self, monkeypatch, capsys):
        # as under `afmcavity phase-map | head -1`: the table outgrows the pipe's reader
        read_end, write_end = os.pipe()
        os.close(read_end)
        with open(write_end, "w") as closed_pipe, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", closed_pipe)
            assert main(["phase-map"]) == 0
        assert capsys.readouterr().err == ""


class TestExitCodes:
    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"spins": {"g_facto": 2.0}}')
        code = main(["dispersion", "--config", str(cfg)])
        assert code == 2
        assert "g_facto" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar, expected", [
        pytest.param({"spins": {"bogus": 1.0}}, "spins.bogus", id="unknown-key"),
        pytest.param({"coupling": {"n_spins": 1e18}},
                     "error: map sidecar: unknown key: coupling.n_spins\n", id="n-spins-key"),
        pytest.param({"loss": {"cavity_external_linewidth": 0.004}},
                     "error: map sidecar: unknown key: loss.cavity_external_linewidth\n",
                     id="cavity-linewidth-key"),
        pytest.param("[1]", "{path}: expected a JSON object, got list", id="list-root"),
        pytest.param('"x"', "{path}: expected a JSON object, got str", id="string-root"),
        pytest.param("null", "{path}: expected a JSON object, got NoneType", id="null-root"),
        pytest.param("truncated", "{path}: ", id="truncated"),
    ])
    def test_unknown_sidecar_key_exit_2(self, sweep_map, tmp_path, capsys, sidecar, expected):
        csv = tmp_path / "map.csv"
        csv.write_bytes(sweep_map.read_bytes())
        text = sweep_map.with_suffix(".json").read_text()
        if isinstance(sidecar, dict):  # keys added to sections of the map's own sidecar
            meta = json.loads(text)
            for section, extra in sidecar.items():
                meta[section].update(extra)
            sidecar = json.dumps(meta)
        elif sidecar == "truncated":
            sidecar = text[: len(text) // 2]
        csv.with_suffix(".json").write_text(sidecar)
        for args in (["fit", str(csv)], ["linewidth", str(csv), "--freq", "11.0"]):
            assert main(args) == 2
            err = capsys.readouterr().err
            assert expected.format(path=csv.with_suffix(".json")) in err
            assert "Traceback" not in err
            assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("f_afmr0, unbounded", [(1e155, "big_g"), (1e156, "big_g, f_afmr0")])
    def test_unconstrained_fit_exit_2(self, sweep_map, tmp_path, f_afmr0, unbounded):
        # a magnon 1e155 GHz away leaves subnormal Jacobian columns: the covariance overflows
        csv = tmp_path / "map.csv"
        csv.write_bytes(sweep_map.read_bytes())
        csv.with_suffix(".json").write_text(json.dumps({"spins": {"f_afmr0": f_afmr0}}))
        code, err = _main_quietly(["fit", str(csv), "--out", str(tmp_path / "fit.json")])
        assert (code, err) == (
            2, f"error: the data do not constrain {unbounded}: uncertainty overflows\n"
        )

    @pytest.mark.parametrize("argv, raw, expected", [
        pytest.param(["sweep"], {"cavity": {"quality_factor": 1e-300}},
                     "cavity: (f_cavity / quality_factor)²", id="cavity-linewidth"),
        pytest.param(["sweep"], {"coupling": {"big_g": 1e200}}, "coupling: big_g²", id="big-g"),
        # the cavity's linewidths follow from the cavity section alone
        pytest.param(["sweep"], {"loss": {"cavity_internal_linewidth": 1e200,
                                          "cavity_external_linewidth": 1e200}},
                     "unknown key: loss.cavity_internal_linewidth\n", id="loss-linewidths"),
        pytest.param(["sweep"], {"coupling": {"big_g": 1.72, "n_spins": 1e18, "g_single": 1.72e-9}},
                     "unknown key: coupling.n_spins\n", id="coupling-decomposition"),
        pytest.param(["dispersion"], {"spins": {"g_factor": 1e308}},
                     "spins: spin-flop field f_afmr0 / (g_factor", id="zeeman-slope"),
        pytest.param(["dispersion"], {"spins": {"g_factor": 10**400}},  # a JSON integer
                     "spins.g_factor: out of the float range", id="int-past-float-range"),
        pytest.param(["dispersion"], {"spins": {"g_factor": 1e300},
                                      "field_grid": {"start": 0.0, "stop": 1e10, "step": 1e9}},
                     "upper branch", id="upper-branch"),
        pytest.param(["phase-map"], {"boundaries": {"neel_exponent": 1e300}},
                     "boundaries: saturation_field ** neel_exponent", id="neel-exponent"),
        pytest.param(["phase-map"], {"boundaries": {"saturation_field": 1e-300}},
                     "boundaries: saturation_field ** neel_exponent", id="saturation-field"),
        pytest.param(["phase-map"], {"boundaries": {"critical_field": 2.5}},
                     "unknown key: boundaries.critical_field\n", id="critical-field"),
        pytest.param(["phase-map"], {"boundaries": {"neel_temperature": 1.0}},
                     "unknown key: boundaries.neel_temperature\n", id="neel-temperature-key"),
        pytest.param(["phase-map"], {"boundaries": {"spin_flop_field": 1.0}},
                     "unknown key: boundaries.spin_flop_field\n", id="spin-flop-field-key"),
        # the spin-flop wedge needs the spin system's spin-flop field below saturation
        pytest.param(["phase-map"], {"spins": {"f_afmr0": 80}},
                     f"spin-flop field ({ac.spin_flop_field(ac.SpinSystemParams(f_afmr0=80))!r}) "
                     "must be below saturation_field (2.5)\n", id="spin-flop-above-saturation"),
        pytest.param(["phase-map"], {"boundaries": {"saturation_field": DEFAULT_FLOP}},
                     f"spin-flop field ({DEFAULT_FLOP!r}) must be below "
                     f"saturation_field ({DEFAULT_FLOP!r})\n", id="spin-flop-at-saturation"),
        pytest.param(["phase-map", "--b-step", "1e-320"], {},
                     "--b-step: grid (stop - start) / step", id="b-step"),
        pytest.param(["dispersion"], {"field_grid": {"start": 0.0, "stop": 1e9, "step": 1e-300}},
                     "field_grid: grid (stop - start) / step", id="field-step"),
        pytest.param(["sweep"], {"noise_sigma_db": 1e4,
                                 "field_grid": {"start": 0.0, "stop": 0.1, "step": 0.05},
                                 "freq_grid": {"start": 8.0, "stop": 9.0, "step": 0.5}},
                     "noise_sigma_db: 10000.0 overflows the noise factor: values must be finite "
                     "and >= 0, got inf", id="noise-factor"),
        pytest.param(["sweep"], {"noise_sigma_db": 1e5},
                     "noise_sigma_db: 100000.0 overflows the noise factor: values must be finite "
                     "and >= 0, got inf", id="noise-factor-default-grid"),
        # 1e15 samples: numpy refuses the allocation at once, so nothing is allocated
        pytest.param(["sweep"], {"field_grid": {"start": 0.0, "stop": 1.0, "step": 1e-15}},
                     "field_grid: Unable to allocate", id="grid-too-large"),
        pytest.param(["dispersion", "--b-step", "1e-15"], {}, "--b-step: Unable to allocate",
                     id="b-step-too-large"),
        pytest.param(["phase-map", "--t-step", "1e-15"], {}, "--t-step: Unable to allocate",
                     id="t-step-too-large"),
        pytest.param(["sweep"], {"freq_grid": {"start": 8.0, "stop": 15.0, "step": 1e-15}},
                     "freq_grid: Unable to allocate", id="freq-grid-too-large"),
        # two axes of 56 MB each (the run peaks near 360 MB) whose 357 TiB map outgrows
        # the 128-256 TiB a 47- or 48-bit address space holds: refused on any host
        pytest.param(["sweep"], {"field_grid": {"start": 0.0, "stop": 0.7, "step": 1e-7},
                                 "freq_grid": {"start": 8.0, "stop": 8.7, "step": 1e-7}},
                     "field_grid × freq_grid: Unable to allocate 357. TiB for an array with "
                     "shape (7000001, 7000001)", id="map-too-large"),
        # past 2**60 samples numpy cannot index a float64 axis's bytes
        pytest.param(["sweep"], {"field_grid": {"start": 0, "stop": 1, "step": 1e-300}},
                     "field_grid: grid of 1e+300 samples is too large to index",
                     id="field-grid-past-index"),
        pytest.param(["phase-map"], {"temperature_grid": {"start": 0, "stop": 1, "step": 1e-300}},
                     "temperature_grid: grid of 1e+300 samples is too large to index",
                     id="temperature-grid-past-index"),
        pytest.param(["phase-map", "--b-step", "1e-300"], {},
                     "--b-step: grid of 3e+300 samples is too large to index",
                     id="b-step-past-index"),
        pytest.param(["dispersion", "--b-step", "1e-300"], {},
                     "--b-step: grid of 1.1e+300 samples is too large to index",
                     id="dispersion-past-index"),
        pytest.param(["sweep"], {"seed": -1}, "seed: expected an integer >= 0, got -1",
                     id="negative-seed"),
        pytest.param(["sweep"], {"seed": -1, "noise_sigma_db": 0.2},
                     "seed: expected an integer >= 0, got -1", id="negative-seed-noisy"),
        pytest.param(["sweep", "--seed", "-1"], {"noise_sigma_db": 0.2},
                     "seed: expected an integer >= 0, got -1", id="negative-seed-flag"),
        # a grid whose stop lies below its start
        pytest.param(["dispersion", "--b-min", "2", "--b-max", "1"], {},
                     "--b-min, --b-max: grid (stop - start) / step must be finite and >= 0, "
                     "got -200.0\n", id="reversed-dispersion-flags"),
        pytest.param(["phase-map", "--b-max", "-1"], {},
                     "--b-max: grid (stop - start) / step must be finite and >= 0, got -20.0\n",
                     id="reversed-phase-map-flags"),
        pytest.param(["sweep"], {"field_grid": {"start": 1, "stop": 0, "step": 0.1}},
                     "field_grid: grid (stop - start) / step must be finite and >= 0, got -10.0\n",
                     id="reversed-field-grid"),
        # a grid whose samples fall below its axis's bound
        pytest.param(["sweep"], {"field_grid": {"start": -1, "stop": 0, "step": 0.5}},
                     "field_grid: field must be finite and >= 0, got -1.0\n",
                     id="negative-field-grid-sweep"),
        pytest.param(["dispersion"], {"field_grid": {"start": -1, "stop": 0, "step": 0.5}},
                     "field_grid: field must be finite and >= 0, got -1.0\n",
                     id="negative-field-grid-dispersion"),
        pytest.param(["dispersion", "--b-min", "-1"], {},
                     "--b-min: field must be finite and >= 0, got -1.0\n",
                     id="negative-dispersion-flag"),
        pytest.param(["phase-map", "--b-min", "-1"], {},
                     "--b-min: field must be finite and >= 0, got -1.0\n",
                     id="negative-phase-map-flag"),
        pytest.param(["sweep"], {"freq_grid": {"start": 0, "stop": 1, "step": 0.5}},
                     "freq_grid: frequency must be finite and > 0, got 0.0\n",
                     id="zero-freq-grid"),
        pytest.param(["phase-map"], {"temperature_grid": {"start": -1, "stop": 1, "step": 0.5}},
                     "temperature_grid: temperature must be finite and >= 0, got -1.0\n",
                     id="negative-temperature-grid"),
    ])
    def test_overflowing_derived_quantity_exit_2(self, tmp_path, capsys, argv, raw, expected):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(raw))
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and err.count("\n") == 1

    def test_noise_too_large_to_allocate_exit_2(self, tmp_path, monkeypatch, capsys):
        # stands in for numpy's refusal, so that nothing is allocated
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 1.00 TiB for an array with shape (1, 1) "
                              "and data type float64")

        monkeypatch.setattr(spectra, "add_noise", refuse)
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"noise_sigma_db": 0.2,
                                   "field_grid": {"start": 0.0, "stop": 0.0, "step": 1.0},
                                   "freq_grid": {"start": 8.0, "stop": 8.0, "step": 1.0}}))
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == (
            "error: field_grid × freq_grid: Unable to allocate 1.00 TiB for an array with "
            "shape (1, 1) and data type float64\n"
        )
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("cell", ["nan", "inf", "-1.0"])
    def test_bad_cell_exit_2(self, sweep_map, tmp_path, capsys, cell):
        lines = sweep_map.read_text().splitlines()
        field, freq, _ = lines[5].split(",")
        lines[5] = f"{field},{freq},{cell}"
        csv = tmp_path / "map.csv"
        csv.write_text("\n".join(lines) + "\n")
        for args in (["fit", str(csv)], ["linewidth", str(csv), "--freq", "11.0"]):
            assert main(args) == 2
            err = capsys.readouterr().err
            assert f"{csv}: line 6: expected finite numbers and a transmission >= 0" in err
            assert "Traceback" not in err

    def test_bad_cell_past_the_first_window_exit_2(self, tmp_path, capsys):
        # line 200000 of the default map lies about 7 MB in, past the reader's first ~1 MiB window
        csv = tmp_path / "map.csv"
        assert main(["sweep", "--out", str(csv)]) == 0
        lines = csv.read_text().splitlines(keepends=True)
        lines[199_999] = "0.5,9.0,oops\n"
        csv.write_text("".join(lines))
        assert main(["fit", str(csv)]) == 2
        assert capsys.readouterr().err == (
            f"error: {csv}: line 200000: expected 3 comma-separated numbers, got '0.5,9.0,oops'\n"
        )

    def test_unconverged_fit_exit_3(self, sweep_map, monkeypatch, capsys):
        from afmcavity import analysis as analysis_module
        from afmcavity import cli as cli_module

        original_fit = analysis_module.fit_avoided_crossing

        def stalled_fit(*args, **kwargs):
            return replace(original_fit(*args, **kwargs), converged=False,
                           message="maximum iterations reached")

        monkeypatch.setattr(cli_module.analysis, "fit_avoided_crossing", stalled_fit)
        assert main(["fit", str(sweep_map)]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.out)["converged"] is False
        assert captured.err == "error: branch fit did not converge: maximum iterations reached\n"


class TestRemovedFlags:
    """Each command declares only the shared flags it reads; the rest exit 2."""

    @pytest.mark.parametrize("command, flag", [
        pytest.param(command, flag, id=f"{command}{flag[0]}")
        for flag, commands in [
            (["--seed", "1"], ("dispersion", "fit", "linewidth", "trend", "phase-map")),
            (["--format", "json"], ("sweep", "fit", "linewidth", "trend")),
            (["--config", "run.json"], ("trend",)),
        ]
        for command in commands
    ])
    def test_flag_nothing_reads_exit_2(self, sweep_config, sweep_map, tmp_path, capsys,
                                       command, flag):
        points = tmp_path / "points.csv"
        points.write_text("0.5,35.3\n0.7,36.2\n1.0,40.0\n")
        argv = {
            "dispersion": ["dispersion", "--b-max", "0.1"],
            "sweep": ["sweep", "--config", str(sweep_config), "--out", str(tmp_path / "m.csv")],
            "fit": ["fit", str(sweep_map)],
            "linewidth": ["linewidth", str(sweep_map), "--freq", "11.0"],
            "trend": ["trend", str(points)],
            "phase-map": ["phase-map", "--b-step", "0.5", "--t-step", "0.5"],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, *flag])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# `afmcavity` in a fresh interpreter that turns every warning into an error.  The child finds
# the package by an absolute path, since a relative PYTHONPATH would follow its working
# directory, and buffers its stdout as under a shell, where the interpreter flushes it at exit.
AFMCAVITY = [sys.executable, "-W", "error", "-m", "afmcavity.cli"]
CHILD_ENV = {
    **{key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"},
    "PYTHONPATH": str(Path(ac.__file__).resolve().parents[1]),
    "PYTHONIOENCODING": "utf-8",
}


def _afmcavity(*argv, cwd):
    """``afmcavity argv`` run in ``cwd`` by a fresh interpreter, with its output as text."""
    return subprocess.run([*AFMCAVITY, *argv], cwd=cwd, env=CHILD_ENV, capture_output=True,
                          encoding="utf-8", timeout=120)


class TestProcess:
    """What only a real process shows: ``sys.exit(main())``, and the interpreter's exit."""

    def test_sweep_then_fit_exit_0(self, sweep_config, tmp_path):
        sweep = _afmcavity("sweep", "--config", str(sweep_config), "--out", "m.csv", cwd=tmp_path)
        assert (sweep.returncode, sweep.stdout, sweep.stderr) == (0, "", "")
        fit = _afmcavity("fit", "m.csv", cwd=tmp_path)
        assert (fit.returncode, fit.stderr) == (0, "")
        assert json.loads(fit.stdout)["converged"] is True

    def test_noisy_readme_chain_seed_0_exit_0(self, tmp_path):
        # the CI chain: this fit stalls above the absolute gradient tolerance
        (tmp_path / "noisy.json").write_text(json.dumps({"noise_sigma_db": 0.2}))
        sweep = _afmcavity("sweep", "--config", "noisy.json", "--seed", "0", "--out", "m.csv",
                           cwd=tmp_path)
        assert (sweep.returncode, sweep.stdout, sweep.stderr) == (0, "", "")
        fit = _afmcavity("fit", "m.csv", "--min-prominence", "0.2", cwd=tmp_path)
        assert (fit.returncode, fit.stderr) == (0, "")
        report = json.loads(fit.stdout)
        assert report["converged"] is True
        assert report["message"].endswith("; cosine below tolerance")

    def test_overflowing_coupling_exit_2(self, tmp_path):
        (tmp_path / "bad.json").write_text(json.dumps({"coupling": {"big_g": 1e200}}))
        run = _afmcavity("sweep", "--config", "bad.json", "--out", "bad.csv", cwd=tmp_path)
        assert (run.returncode, run.stdout, run.stderr) == (
            2, "", "error: coupling: big_g² must be finite, got inf\n"
        )

    def test_unconverged_trend_exit_3(self, tmp_path):
        (tmp_path / "flat.csv").write_text("0.3,35\n0.5,35.0001\n0.7,35\n1.0,35.0002\n1.5,35\n")
        run = _afmcavity("trend", "flat.csv", "--free-exponent", cwd=tmp_path)
        report = json.loads(run.stdout)  # the report is written at exit 3 too
        assert (run.returncode, report["converged"]) == (3, False)
        assert run.stderr == f"error: trend fit did not converge: {report['message']}\n"

    def test_reader_that_stops_early_exit_0_quietly(self, tmp_path):
        # as under `afmcavity phase-map ... | head -n 1`: the 9 MB table outgrows the pipe
        argv = ["phase-map", "--b-step", "0.005", "--t-step", "0.005"]
        with open(tmp_path / "stderr", "w+b") as err:
            child = subprocess.Popen([*AFMCAVITY, *argv], cwd=tmp_path, env=CHILD_ENV,
                                     stdout=subprocess.PIPE, stderr=err)
            first = child.stdout.readline()
            child.stdout.close()
            code = child.wait(timeout=120)
            err.seek(0)
            assert (first, code, err.read()) == (
                b"# boundary shapes are approximate parametrized curves\n", 0, b""
            )

    @pytest.mark.parametrize("argv", [
        pytest.param(["dispersion"], id="dispersion"),
        pytest.param(["phase-map", "--b-step", "1", "--t-step", "1"], id="phase-map"),
    ])
    def test_reader_gone_before_start_exit_0_quietly(self, tmp_path, argv):
        # the whole table fits stdout's buffer, so the first write to the pipe is a flush
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            run = subprocess.run([*AFMCAVITY, *argv], cwd=tmp_path, env=CHILD_ENV,
                                 stdout=write_end, stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write_end)
        assert (run.returncode, run.stderr) == (0, b"")


# Every section given, on small grids and with noise on: the base of the one-value changes below.
BASE_CONFIG = ac.RunConfig(
    field_grid=ac.GridSpec(start=0.6, stop=0.9, step=0.05),
    freq_grid=ac.GridSpec(start=10.0, stop=12.5, step=0.1),
    temperature_grid=ac.GridSpec(start=0.5, stop=2.5, step=0.5),
    seed=3,
    noise_sigma_db=0.2,
).to_dict()
CONFIG_VALUES = [  # every dataclass field of every section, then seed and noise_sigma_db
    (section, key) for section, value in BASE_CONFIG.items() if isinstance(value, dict)
    for key in value
] + [(key,) for key, value in BASE_CONFIG.items() if not isinstance(value, dict)]


def _config_outputs(directory: Path, raw: dict) -> list[bytes]:
    """The bytes of sweep's map CSV, dispersion's CSV and phase-map's CSV under config ``raw``."""
    cfg = directory / "run.json"
    cfg.write_text(json.dumps(raw))
    outputs = []
    for command in ("sweep", "dispersion", "phase-map"):
        out = directory / f"{command}.csv"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        outputs.append(out.read_bytes())  # the sweep's sidecar echoes the config: not read
    return outputs


@pytest.fixture(scope="module")
def base_outputs(tmp_path_factory):
    return _config_outputs(tmp_path_factory.mktemp("base-config"), BASE_CONFIG)


class TestConfigValues:
    @pytest.mark.parametrize("path", CONFIG_VALUES, ids=".".join)
    def test_every_value_changes_an_output(self, base_outputs, tmp_path, path):
        raw = json.loads(json.dumps(BASE_CONFIG))
        *sections, key = path
        section = raw[sections[0]] if sections else raw
        value = section[key]
        section[key] = value + 1 if isinstance(value, int) else value * 0.9
        assert _config_outputs(tmp_path, raw) != base_outputs, f"{'.'.join(path)} changes nothing"


class TestTableDigests:
    """The sha256 of each CLI table as written by commit d1e769c.

    ``dispersion`` rounds only ×, −, + and ``maximum``, and ``phase-map``'s curves
    use Python ``**`` at the default exponent 2.0, which a correctly rounded ``pow``
    computes exactly, so the bytes should be the same on any IEEE-754 host.  A
    change to a digest needs a reason in CHANGES.md.
    """

    @pytest.mark.parametrize("argv, digest", [
        # 131 rows, nine of them past the spin-flop field, where the lower branch is clamped
        pytest.param(["dispersion", "--b-min", "0", "--b-max", "1.3", "--b-step", "0.01"],
                     "cd1f82551e36939a05ecb007fa957364b48f694c1fa87f46a3c6069f2d02e844",
                     id="dispersion-csv"),
        pytest.param(["dispersion", "--b-min", "0", "--b-max", "1.3", "--b-step", "0.01",
                      "--format", "json"],
                     "fd80b0c721e5e64c1015b68a5374ffe48841eed694fb6710b73e4296f37ab17a",
                     id="dispersion-json"),
        pytest.param(["phase-map"],
                     "aaabccbc0558aa4e077d1ac91bd3e54c889989d378c00bd791ced14b383a7d1f",
                     id="phase-map-csv"),
        pytest.param(["phase-map", "--format", "json"],
                     "a71a629ef7cdb82e841e02f472447ed4e3e03afd82190d83f24a6d645021d3bb",
                     id="phase-map-json"),
        pytest.param(["phase-map", "--b-step", "0.25", "--t-step", "0.25"],
                     "6a1b534c87c4311d7f041b48751f70543b4e7a85522168cb045e997354ec0ed5",
                     id="phase-map-coarse-csv"),
    ])
    def test_table_digest_pinned(self, tmp_path, argv, digest):
        out = tmp_path / "table"
        assert main([*argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestCsvBytes:
    """CLI tables match the per-cell writers the shared CSV codec replaced."""

    @pytest.mark.parametrize("grid", [
        pytest.param([], id="default"),
        pytest.param(["--b-min", "0.3", "--b-max", "0.3", "--b-step", "0.1"], id="1"),
        pytest.param(["--b-min", "1.0", "--b-max", "1.3", "--b-step", "0.01"], id="N"),
    ])
    def test_dispersion(self, tmp_path, grid):
        out = tmp_path / "disp.csv"
        assert main(["dispersion", *grid, "--out", str(out)]) == 0

        cfg = ac.RunConfig()
        start, stop, step = (float(v) for v in grid[1::2]) if grid else (
            cfg.field_grid.start, cfg.field_grid.stop, cfg.field_grid.step)
        fields = ac.GridSpec(start=start, stop=stop, step=step).samples()
        flop = ac.spin_flop_field(cfg.spins)
        lines = [f"# spin_flop_field_T={flop!r}", "field_T,lower_GHz,upper_GHz,beyond_spin_flop"]
        for b in fields.tolist():
            pair = ac.magnon_branches(cfg.spins, b)
            lines.append(f"{b!r},{pair.lower!r},{pair.upper!r},{int(pair.clamped)}")
        assert out.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("grid", [
        pytest.param((0.0, 3.0, 0.05, 0.0, 3.0, 0.05), id="default"),
        pytest.param((0.5, 0.5, 1.0, 1.0, 1.0, 1.0), id="1x1"),
        pytest.param((0.5, 0.5, 1.0, 0.0, 3.0, 0.1), id="1xN"),
        pytest.param((0.0, 3.0, 0.1, 1.0, 1.0, 1.0), id="Nx1"),
    ])
    def test_phase_map(self, tmp_path, grid):
        out = tmp_path / "phases.csv"
        flags = ["--b-min", "--b-max", "--b-step", "--t-min", "--t-max", "--t-step"]
        argv = [item for pair in zip(flags, map(str, grid)) for item in pair]
        assert main(["phase-map", *argv, "--out", str(out)]) == 0

        fields = ac.GridSpec(start=grid[0], stop=grid[1], step=grid[2]).samples()
        temps = ac.GridSpec(start=grid[3], stop=grid[4], step=grid[5]).samples()
        lines = [
            "# boundary shapes are approximate parametrized curves",
            "field_T,temperature_K,phase",
        ]
        for b in fields:
            for t in temps:
                lines.append(f"{float(b)!r},{float(t)!r},{ac.classify_phase(float(b), float(t))}")
        assert out.read_text() == "\n".join(lines) + "\n"


# --- fuzz gate ----------------------------------------------------------------


def _mostly(valid, invalid):
    """Draw from ``valid`` about four times in five, else from ``invalid``."""
    return st.integers(0, 4).flatmap(lambda k: valid if k else invalid)


# Magnitudes from 1e-300 to 1e300 of either sign, values near the defaults so
# that some configs run to the end, and the specials Python's json accepts.
POSITIVE = st.builds(
    lambda mantissa, exponent: mantissa * 10.0**exponent,
    st.floats(1.0, 9.99), st.integers(-300, 299),
)
NUMBERS = st.sampled_from([
    POSITIVE, POSITIVE, POSITIVE.map(lambda x: -x), st.floats(0.001, 100.0),
    st.sampled_from([0.0, math.nan, math.inf, -math.inf]),
]).flatmap(lambda numbers: numbers)
JUNK = st.one_of(st.text(max_size=3), st.lists(st.integers(), max_size=2), st.booleans(), st.none())
VALUES = _mostly(NUMBERS, JUNK)
UNKNOWN_KEY = st.fixed_dictionaries({"bogus": VALUES})


def _section(keys):
    return _mostly(
        st.fixed_dictionaries({}, optional={key: VALUES for key in keys}),
        st.one_of(JUNK, UNKNOWN_KEY),
    )


# A finite start and step give about 60 samples per axis, so a swept map stays
# within a few thousand cells; the sweep grids are always given, since the
# default grids hold 309 621 cells.
GRIDS = _mostly(
    st.builds(
        lambda start, step, count: {"start": start, "stop": start + step * count, "step": step},
        NUMBERS, NUMBERS, st.integers(-2, 60),
    ),
    st.one_of(_section(["start", "stop"]), UNKNOWN_KEY),
)
CONFIGS = _mostly(
    st.fixed_dictionaries({"field_grid": GRIDS, "freq_grid": GRIDS}, optional={
        **{
            name: _section([f.name for f in fields(kind)])
            for name, kind in config._SECTION_TYPES.items()
            if kind is not ac.GridSpec
        },
        "temperature_grid": GRIDS,
        "seed": _mostly(st.integers(0, 2**64), VALUES),
        "noise_sigma_db": VALUES,
    }),
    st.one_of(JUNK, UNKNOWN_KEY),
)
NON_FINITE = re.compile(r"(?i)\b(nan|inf|infinity)\b")

# A points-file cell: mostly a positive number, half of them from 1e-300 to
# 1e300 and half near 1; else a negative number, 0 or a special (printed by
# repr: "nan", "inf", "-inf"), short text (possibly empty), or a literal that
# overflows to infinity when parsed.
CELLS = st.integers(0, 9).flatmap(lambda k: (
    st.one_of(st.text("0123456789.e+-x, ", max_size=4), st.just("1e999")),
    st.sampled_from([0.0, math.nan, math.inf, -math.inf]).map(repr),
    POSITIVE.map(lambda x: repr(-x)),
)[k] if k < 3 else st.one_of(POSITIVE, st.floats(0.001, 100.0)).map(repr))
POINTS = st.lists(st.tuples(CELLS, CELLS).map(",".join), max_size=8)
TREND_FLAGS = st.sampled_from([[], ["--free-exponent"], ["--sign", "-"], ["--t-unit", "mK"]])
# A map sidecar: the model sections that `fit` and `linewidth` read, each optional.
SIDECARS = _mostly(
    st.fixed_dictionaries({}, optional={
        name: _section([f.name for f in fields(config._SECTION_TYPES[name])])
        for name in ("spins", "cavity", "coupling", "loss")
    }),
    st.one_of(JUNK, UNKNOWN_KEY),
)


def _main_quietly(argv):
    """The exit code and stderr of ``main(argv)``, with every warning an error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error")
        code = main(argv)
    return code, stderr.getvalue()


@pytest.fixture(scope="module")
def fuzz_maps(tmp_path_factory):
    """Two small noiseless maps: one across the avoided crossing for `fit`, and one
    with a field step fine enough for `linewidth` at 15.6 GHz."""
    directory = tmp_path_factory.mktemp("fuzz")
    grids = {
        "crossing": {"field_grid": {"start": 0.0, "stop": 1.1, "step": 0.02},
                     "freq_grid": {"start": 8.0, "stop": 15.0, "step": 0.02}},
        "line": {"field_grid": {"start": 0.64, "stop": 0.72, "step": 0.0002},
                 "freq_grid": {"start": 15.5, "stop": 15.7, "step": 0.02}},
    }
    maps = []
    for name, raw in grids.items():
        cfg, out = directory / f"{name}-run.json", directory / f"{name}.csv"
        cfg.write_text(json.dumps(raw))
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        maps.append(out)
    return maps


@pytest.fixture(scope="module")
def fuzz_csv(tmp_path_factory):
    """Per command, the lines of a small noiseless map written by ``map_to_csv``, the path
    its mutants are written to, and the exit code, stderr and report of the clean map there."""
    directory = tmp_path_factory.mktemp("csv-fuzz")
    params = (ac.SpinSystemParams(), ac.CavityParams(), ac.CouplingParams(big_g=1.72),
              ac.LossParams(0.035))
    grids = {
        "fit": ((0.0, 1.1, 0.025), (8.0, 15.0, 0.1), []),  # exits 0
        "linewidth": ((0.66, 0.70, 0.0002), (15.5, 15.7, 0.05), ["--freq", "15.6"]),  # exits 3
    }
    cases = {}
    for command, (field_grid, freq_grid, flags) in grids.items():
        axes = [ac.GridSpec(*grid).samples() for grid in (field_grid, freq_grid)]
        text = ac.map_to_csv(ac.synthesize_map(*axes, *params))
        path, out = directory / f"{command}.csv", directory / f"{command}.json"
        argv = [command, str(path), *flags, "--out", str(out)]
        path.write_text(text)
        clean = _run_reading(argv, out)
        cases[command] = text.splitlines(), path, argv, out, clean
    return cases


def _run_reading(argv, out):
    """``_main_quietly(argv)`` plus the report it wrote to ``out`` (None if none)."""
    out.unlink(missing_ok=True)
    code, err = _main_quietly(argv)
    return code, err, out.read_text() if out.exists() else None


def _mutate_map_lines(lines, data):
    """One drawn mutation of a map CSV's lines (header first): the new text, and the file
    line its read must fail on, or None where the map the text holds is unchanged."""
    lines, last = list(lines), len(lines)
    k = data.draw(st.integers(1, last - 1), label="data row")  # file line k + 1
    kind = data.draw(st.sampled_from(
        ["cell", "drop-field", "add-field", "insert", "duplicate", "delete", "crlf"]), label="kind")
    bad = k + 1
    if kind == "cell":
        value = data.draw(st.sampled_from(["nan", "inf", "-1", "1_0", "oops", ""]), label="cell")
        column = data.draw(st.integers(0, 2), label="column")
        cells = lines[k].split(",")
        cells[column] = value
        lines[k] = ",".join(cells)
        if value == "-1" and column < 2:  # a new axis value: no complete grid, named at the end
            bad = last
    elif kind == "drop-field":
        lines[k] = lines[k].rsplit(",", 1)[0]
    elif kind == "add-field":
        lines[k] += ",0.5"
    elif kind == "insert":
        lines.insert(k, data.draw(st.sampled_from(["", " \t", "# note"]), label="inserted"))
        bad = None
    elif kind == "duplicate":
        lines.insert(k, lines[k])
        bad = last + 1
    elif kind == "delete":
        del lines[k]
        bad = last - 1
    else:
        return "".join(line + "\r\n" for line in lines), None
    return "".join(line + "\n" for line in lines), bad


class TestFuzz:
    @given(command=st.sampled_from(["dispersion", "sweep", "phase-map"]), raw=CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_random_config_exits_0_or_2(self, command, raw):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.json", Path(tmp) / "out.csv"
            cfg.write_text(json.dumps(raw))
            code, err = _main_quietly([command, "--config", str(cfg), "--out", str(out)])
            assert code in (0, 2), err
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                return
            assert err == ""
            outputs = [out, out.with_suffix(".json")] if command == "sweep" else [out]
            for path in outputs:
                assert not NON_FINITE.search(path.read_text()), path.read_text()[:300]

    @given(rows=POINTS, flags=TREND_FLAGS)
    @settings(max_examples=200, deadline=None)
    def test_random_points_exit_0_2_or_3(self, rows, flags):
        with tempfile.TemporaryDirectory() as tmp:
            points, out = Path(tmp) / "points.csv", Path(tmp) / "trend.json"
            points.write_text("".join(row + "\n" for row in rows))
            code, err = _main_quietly(["trend", str(points), "--out", str(out), *flags])
            assert code in (0, 2, 3), err
            if code:
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                return
            assert err == ""
            assert not NON_FINITE.search(out.read_text()), out.read_text()

    @given(sidecar=SIDECARS)
    @settings(max_examples=200, deadline=None)
    def test_random_map_sidecar_exits_0_2_or_3(self, fuzz_maps, sidecar):
        crossing, line = fuzz_maps
        for csv in fuzz_maps:
            spectra.sidecar_path(csv).write_text(json.dumps(sidecar))
        with tempfile.TemporaryDirectory() as tmp:
            for argv in (["fit", str(crossing)], ["linewidth", str(line), "--freq", "15.6"]):
                out = Path(tmp) / f"{argv[0]}.json"
                code, err = _main_quietly([*argv, "--out", str(out)])
                assert code in (0, 2, 3), err
                if code:
                    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                if code == 2:
                    continue
                report = out.read_text()
                if code == 0:
                    assert err == "", err
                    assert not NON_FINITE.search(report), report
                else:  # exit 3 still writes its report
                    assert " fit did not converge: " in err, err
                    assert json.loads(report)["converged"] is False

    @given(command=st.sampled_from(["fit", "linewidth"]), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_mutated_map_exits_0_2_or_3(self, fuzz_csv, command, data):
        lines, path, argv, out, clean = fuzz_csv[command]
        text, bad = _mutate_map_lines(lines, data)
        path.write_text(text, newline="")
        code, err, report = _run_reading(argv, out)
        assert code in (0, 2, 3), err
        if bad is None:  # blank, whitespace-only and comment lines and CRLF change nothing
            assert (code, err, report) == clean
        else:
            assert code == 2, err
            assert err.startswith(f"error: {path}: line {bad}: ") and err.count("\n") == 1, err
