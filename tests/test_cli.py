"""Integration tests for the command-line surface and its exit codes."""

import json

import numpy as np
import pytest

import afmcavity as ac
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

    def test_bad_file_exit_2(self, capsys):
        assert main(["trend", "/nonexistent/points.csv"]) == 2

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
