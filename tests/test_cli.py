"""Integration tests for the command-line surface and its exit codes."""

import contextlib
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import afmcavity as ac
from afmcavity import config
from afmcavity.cli import main


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

    def test_empty_range_header_only(self, tmp_path, capsys):
        code = main(["dispersion", "--b-min", "1.0", "--b-max", "0.5", "--b-step", "0.01"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2  # comment + header, no rows

    def test_negative_field_exit_2(self, capsys):
        code = main(["dispersion", "--b-min", "-0.2", "--b-max", "0.5", "--b-step", "0.01"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

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
        for i in range(1, tmap.shape[0]):
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

    def test_missing_map_exit_2(self, capsys):
        assert main(["fit", "/nonexistent/map.csv"]) == 2

    def test_report_written_to_file(self, sweep_map, tmp_path):
        out = tmp_path / "fit.json"
        assert main(["fit", str(sweep_map), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "parameters" in payload


@pytest.fixture(scope="module")
def fine_map(tmp_path_factory):
    cfg = tmp_path_factory.mktemp("cfg") / "fine.json"
    cfg.write_text(json.dumps({
        "field_grid": {"start": 0.64, "stop": 0.72, "step": 0.0001},
        "freq_grid": {"start": 15.5, "stop": 15.7, "step": 0.005},
    }))
    out = tmp_path_factory.mktemp("maps") / "fine.csv"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    return out


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

    def test_frequency_outside_grid_exit_2(self, fine_map, capsys):
        assert main(["linewidth", str(fine_map), "--freq", "20.0"]) == 2
        assert "outside" in capsys.readouterr().err

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

    def test_bad_file_exit_2(self, tmp_path, capsys):
        assert main(["trend", "/nonexistent/points.csv"]) == 2
        path = tmp_path / "points.csv"
        path.write_text("1e100,1\n2e100,2\n3e100,3\n")  # T⁴ overflows a float
        for flags in ([], ["--free-exponent"]):
            capsys.readouterr()
            assert main(["trend", str(path), *flags]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: temperature⁴ must be finite") and err.count("\n") == 1

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

    def test_degenerate_grid_header_only(self, capsys):
        code = main(["phase-map", "--b-min", "1", "--b-max", "0", "--b-step", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2


class TestExitCodes:
    def test_unknown_config_key_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"spins": {"g_facto": 2.0}}')
        code = main(["dispersion", "--config", str(cfg)])
        assert code == 2
        assert "g_facto" in capsys.readouterr().err

    @pytest.mark.parametrize("sidecar, expected", [
        pytest.param("bogus-key", "spins.bogus", id="unknown-key"),
        pytest.param("[1]", "{path}: expected a JSON object, got list", id="list-root"),
        pytest.param('"x"', "{path}: expected a JSON object, got str", id="string-root"),
        pytest.param("truncated", "{path}: ", id="truncated"),
    ])
    def test_unknown_sidecar_key_exit_2(self, sweep_map, tmp_path, capsys, sidecar, expected):
        csv = tmp_path / "map.csv"
        csv.write_bytes(sweep_map.read_bytes())
        text = sweep_map.with_suffix(".json").read_text()
        if sidecar == "bogus-key":
            meta = json.loads(text)
            meta["spins"]["bogus"] = 1.0
            sidecar = json.dumps(meta)
        elif sidecar == "truncated":
            sidecar = text[: len(text) // 2]
        csv.with_suffix(".json").write_text(sidecar)
        for args in (["fit", str(csv)], ["linewidth", str(csv), "--freq", "11.0"]):
            assert main(args) == 2
            err = capsys.readouterr().err
            assert expected.format(path=csv.with_suffix(".json")) in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("argv, raw, expected", [
        pytest.param(["sweep"], {"cavity": {"quality_factor": 1e-300}},
                     "cavity: (f_cavity / quality_factor)²", id="cavity-linewidth"),
        pytest.param(["sweep"], {"coupling": {"big_g": 1e200}}, "coupling: big_g²", id="big-g"),
        pytest.param(["sweep"], {"loss": {"cavity_internal_linewidth": 1e200,
                                          "cavity_external_linewidth": 1e200}},
                     "loss: cavity_total_linewidth²", id="loss-linewidths"),
        pytest.param(["dispersion"], {"spins": {"g_factor": 1e308}},
                     "spins: spin-flop field f_afmr0 / (g_factor", id="zeeman-slope"),
        pytest.param(["dispersion"], {"spins": {"g_factor": 1e300},
                                      "field_grid": {"start": 0.0, "stop": 1e10, "step": 1e9}},
                     "upper branch", id="upper-branch"),
        pytest.param(["phase-map"], {"boundaries": {"neel_exponent": 1e300}},
                     "boundaries: critical_field ** neel_exponent", id="neel-exponent"),
        pytest.param(["phase-map"], {"boundaries": {"critical_field": 1e-300}},
                     "boundaries: critical_field ** neel_exponent", id="critical-field"),
        pytest.param(["phase-map", "--b-step", "1e-320"], {}, "grid (stop - start) / step",
                     id="b-step"),
        pytest.param(["dispersion"], {"field_grid": {"start": 0.0, "stop": 1e9, "step": 1e-300}},
                     "field_grid: grid (stop - start) / step", id="field-step"),
        pytest.param(["sweep"], {"noise_sigma_db": 1e4,
                                 "field_grid": {"start": 0.0, "stop": 0.1, "step": 0.05},
                                 "freq_grid": {"start": 8.0, "stop": 9.0, "step": 0.5}},
                     "values must be finite and >= 0, got inf", id="noise-factor"),
    ])
    def test_overflowing_derived_quantity_exit_2(self, tmp_path, capsys, argv, raw, expected):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(raw))
        assert main([*argv, "--config", str(cfg), "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {expected}") and err.count("\n") == 1

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

    def test_unconverged_fit_exit_3(self, sweep_map, monkeypatch, capsys):
        from afmcavity import analysis as analysis_module
        from afmcavity import cli as cli_module

        original_fit = analysis_module.fit_avoided_crossing

        def stalled_fit(*args, **kwargs):
            report = original_fit(*args, **kwargs)
            return analysis_module.FitReport(
                parameter_names=report.parameter_names,
                values=report.values,
                uncertainties=report.uncertainties,
                residual_rms=report.residual_rms,
                window=report.window,
                iterations=report.iterations,
                converged=False,
                gradient_norm=report.gradient_norm,
                fixed=report.fixed,
            )

        monkeypatch.setattr(cli_module.analysis, "fit_avoided_crossing", stalled_fit)
        assert main(["fit", str(sweep_map)]) == 3
        capsys.readouterr()


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


class TestDeterminism:
    def test_dispersion_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["dispersion", "--b-min", "0", "--b-max", "1.3", "--b-step", "0.01"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_phase_map_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["phase-map", "--b-step", "0.25", "--t-step", "0.25"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

        cfg = ac.RunConfig.defaults()
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


class TestFuzz:
    @given(command=st.sampled_from(["dispersion", "sweep", "phase-map"]), raw=CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_random_config_exits_0_or_2(self, command, raw):
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp) / "run.json", Path(tmp) / "out.csv"
            cfg.write_text(json.dumps(raw))
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error")
                code = main([command, "--config", str(cfg), "--out", str(out)])
            err = stderr.getvalue()
            assert code in (0, 2), err
            if code == 2:
                assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
                return
            assert err == ""
            outputs = [out, out.with_suffix(".json")] if command == "sweep" else [out]
            for path in outputs:
                assert not NON_FINITE.search(path.read_text()), path.read_text()[:300]
