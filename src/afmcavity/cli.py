"""Command-line surface: dispersion | sweep | fit | linewidth | trend | phase-map.

Every command is deterministic for a fixed config and seed.  Exit codes:
0 success, 2 input or validation failure, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import analysis, core, phase, spectra
from .analysis import ConvergenceError
from .config import ConfigError, GridSpec, build_section, load_config

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NO_CONVERGENCE = 3

PHASE_FIELD_GRID = GridSpec(start=0.0, stop=3.0, step=0.05)  # tesla; phase-map's field axis
GRID_FLAGS = {"start": "min", "stop": "max", "step": "step"}  # GridSpec part -> --{axis}-* flag


def _io_flags(parser: argparse.ArgumentParser, config: bool = True, table: bool = False) -> None:
    """``--out``, plus ``--config`` where a run config is read and ``--format`` for tables."""
    if config:
        parser.add_argument("--config", metavar="PATH", help="JSON run configuration")
    parser.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    if table:
        parser.add_argument("--format", choices=("csv", "json"), default="csv", help="table format")


def _grid_flags(parser: argparse.ArgumentParser, axis: str, unit: str) -> None:
    """``--{axis}-min``, ``--{axis}-max`` and ``--{axis}-step``, with no defaults."""
    for part, flag in GRID_FLAGS.items():
        parser.add_argument(f"--{axis}-{flag}", type=float, dest=f"{axis}_{part}", metavar=unit)


def _grid(base: GridSpec, section: str, name: str, args=None, axis: str = "", strict=False):
    """The samples of ``base`` with the parts given by the ``--{axis}-*`` flags laid over it.

    A grid that is invalid, too large to allocate, or whose samples ``name`` are
    not finite and >= 0 (> 0 if ``strict``) is a ``ConfigError`` that names the
    flags given, or else the config ``section``.
    """
    given = {part: v for part in GRID_FLAGS
             if (v := getattr(args, f"{axis}_{part}", None)) is not None}
    named = ", ".join(f"--{axis}-{GRID_FLAGS[part]}" for part in given) or section
    try:
        return core.checked(name, replace(base, **given).samples(), 0.0, strict)
    except (ValueError, MemoryError) as exc:
        raise ConfigError(f"{named}: {exc}") from None


def _emit(chunks, out: str | None) -> None:
    """Write the strings of ``chunks`` in turn to ``out``, or else to stdout."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as f:
        try:
            f.writelines(chunks)
            f.flush()  # here, not at exit, where a failed flush prints an error and exits 120
        except BrokenPipeError:  # a reader that stops early, as `| head` does
            # what is left unwritten goes to devnull, so that the flush at exit cannot fail
            with open(os.devnull, "w") as devnull:
                os.dup2(devnull.fileno(), f.fileno())


def _map_params(args):
    """The map of an analysis run and its model parameters: map metadata first, config second."""
    cfg = load_config(args.config)
    tmap = spectra.load_map(args.map)
    meta = tmap.metadata
    try:
        return (tmap,) + tuple(
            getattr(cfg, name) if meta.get(name) is None else build_section(name, meta[name])
            for name in ("spins", "cavity", "coupling", "loss")
        )
    except ConfigError as exc:
        raise ConfigError(f"map sidecar: {exc}") from None


def cmd_dispersion(args) -> int:
    cfg = load_config(args.config)
    fields = _grid(cfg.field_grid, "field_grid", "field", args, "b")
    flop = core.spin_flop_field(cfg.spins)
    lower, upper, clamped = core.zeeman_branches(cfg.spins.f_afmr0, cfg.spins.g_factor, fields)
    core.checked("upper branch f_afmr0 + g_factor * 13.996245 GHz/T * field", upper)
    columns = [fields.tolist(), lower.tolist(), upper.tolist(), clamped.astype(int).tolist()]
    if args.format == "json":
        keys = ("field_t", "lower_ghz", "upper_ghz", "beyond_spin_flop")
        payload = {"spin_flop_field_t": flop, **dict(zip(keys, columns))}
        _emit([spectra.write_json(payload)], args.out)
    else:
        header = [f"# spin_flop_field_T={flop!r}", "field_T,lower_GHz,upper_GHz,beyond_spin_flop"]
        _emit(spectra.write_csv(header, columns), args.out)
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out = args.out or "transmission_map.csv"
    if args.config and Path(args.config).resolve() in (
        Path(out).resolve(), spectra.sidecar_path(out).resolve()
    ):
        raise ConfigError(f"--out {out} would overwrite the config {args.config}")
    spectra.checked_map_path(out)
    field_axis = _grid(cfg.field_grid, "field_grid", "field")
    freq_axis = _grid(cfg.freq_grid, "freq_grid", "frequency", strict=True)
    try:
        tmap = spectra.synthesize_map(
            field_axis, freq_axis, cfg.spins, cfg.cavity, cfg.coupling, cfg.loss
        )
        if cfg.noise_sigma_db > 0:
            try:
                tmap = spectra.add_noise(tmap, cfg.noise_sigma_db, cfg.seed)
            except ValueError as exc:  # the noisy map's own check: a factor 10^(n/10) past 1e308
                raise ConfigError(
                    f"noise_sigma_db: {cfg.noise_sigma_db!r} overflows the noise factor: {exc}"
                ) from None
    except MemoryError as exc:  # the map or its noise
        raise ConfigError(f"field_grid × freq_grid: {exc}") from None
    tmap = replace(tmap, metadata={**tmap.metadata, "config": cfg.to_dict()})
    spectra.save_map(tmap, out, db=args.db)
    return EXIT_OK


def cmd_fit(args) -> int:
    tmap, spins, cavity, coupling, loss = _map_params(args)
    free = tuple(name.strip() for name in args.free.split(",") if name.strip())
    window = _parse_window(args.window)
    peaks = analysis.extract_peaks(tmap, min_prominence=args.min_prominence)
    report = analysis.fit_avoided_crossing(
        peaks,
        spins,
        cavity,
        free=free,
        window=window,
        coupling=None if "big_g" in free else coupling,
    )
    payload = report.to_json_dict()
    fitted = {**report.fixed, **payload["parameters"]}
    regime = core.coupling_regime(
        core.CouplingParams(big_g=abs(fitted["big_g"])),
        replace(cavity, f_cavity=fitted["f_cavity"]),
        loss.magnon_linewidth,
    )
    payload["regime"] = {"label": regime.label, "ratio": regime.ratio}
    _emit([spectra.write_json(payload)], args.out)
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_linewidth(args) -> int:
    tmap, spins, cavity, coupling, _ = _map_params(args)
    cut = spectra.vertical_cut(tmap, args.freq)
    gamma_t = analysis.field_linewidth(cut)
    gamma_f = analysis.linewidth_field_to_freq(gamma_t, spins.g_factor)
    payload = {
        "frequency_ghz": cut.frequency,
        "gamma_tesla": gamma_t,
        "gamma_ghz": gamma_f,
        "conversion_ghz_per_tesla": analysis.linewidth_field_to_freq(1.0, spins.g_factor),
        "g_factor": spins.g_factor,
    }
    if "spins" in tmap.metadata:
        # With the synthesis record available, also report the polariton
        # linewidth corrected for the cavity admixture of the branch.
        peak_field = float(cut.fields[int(cut.powers.argmax())])
        f_magnon = core.magnon_branches(spins, peak_field).lower
        try:
            corrected = analysis.magnon_linewidth_estimate(
                gamma_f,
                f_magnon,
                cavity,
                coupling,
                upper_branch=cut.frequency >= cavity.f_cavity,
            )
        except ValueError:
            corrected = None
        payload["magnon_corrected_ghz"] = corrected
    _emit([spectra.write_json(payload)], args.out)
    return EXIT_OK


def cmd_trend(args) -> int:
    points = _read_points(Path(args.points))
    fit = analysis.fit_t4_trend(
        points,
        sign=args.sign,
        exponent_free=args.free_exponent,
        temperature_unit=args.t_unit,
    )
    _emit([fit.to_json()], args.out)
    return EXIT_OK


def cmd_phase_map(args) -> int:
    cfg = load_config(args.config)
    fields = _grid(PHASE_FIELD_GRID, "--b-*", "field", args, "b").tolist()
    temps = _grid(cfg.temperature_grid, "temperature_grid", "temperature", args, "t").tolist()
    labels = phase.phase_grid(fields, temps, cfg.boundaries, cfg.spins)
    note = "boundary shapes are approximate parametrized curves"
    if args.format == "json":
        payload = {
            "note": note,
            "field_t": fields,
            "temperature_k": temps,
            "phase": labels,
        }
        _emit([spectra.write_json(payload)], args.out)
    else:
        header = [f"# {note}", "field_T,temperature_K,phase"]
        _emit(spectra.write_csv(header, [labels], grid=(fields, temps)), args.out)
    return EXIT_OK


def _parse_window(text: str | None) -> tuple[float, float] | None:
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise ConfigError(f"window must be LO:HI in tesla, got {text!r}")
    try:
        return float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"window must be numeric LO:HI, got {text!r}") from None


def _read_points(path: Path):
    """(temperature, value) rows; a first row of two fields, not both numbers, is a header."""
    lines = path.read_text().splitlines()
    head = lines[0].split(",") if lines else []
    skip = 0
    try:
        list(map(float, head))
    except ValueError:
        skip = int(len(head) == 2)
    try:
        return spectra.read_csv(lines[skip:], 2, start=1 + skip)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afmcavity",
        description="Cavity-antiferromagnet hybrid system simulation and analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="resonance branches vs field (CSV)")
    _io_flags(p, table=True)
    _grid_flags(p, "b", "T")
    p.set_defaults(run=cmd_dispersion)

    p = sub.add_parser("sweep", help="synthesize a transmission map (CSV + JSON sidecar)")
    _io_flags(p)
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--db", action="store_true", help="write values in dB (export only)")
    p.set_defaults(run=cmd_sweep)

    p = sub.add_parser("fit", help="fit dressed branches to a transmission map")
    _io_flags(p)
    p.add_argument("map", help="transmission map CSV")
    p.add_argument(
        "--free", default="big_g,f_afmr0",
        help="comma list among big_g,f_afmr0,g_factor,f_cavity",
    )
    lo, hi = analysis.FIT_WINDOW
    p.add_argument("--window", help=f"fit window LO:HI in tesla (default {lo:g}:{hi:g})")
    p.add_argument("--min-prominence", type=float, default=analysis.MIN_PROMINENCE)
    p.set_defaults(run=cmd_fit)

    p = sub.add_parser("linewidth", help="field-domain linewidth at a fixed frequency")
    _io_flags(p)
    p.add_argument("map", help="transmission map CSV")
    p.add_argument("--freq", type=float, required=True, help="cut frequency (GHz)")
    p.set_defaults(run=cmd_linewidth)

    p = sub.add_parser("trend", help="fit y = A ± B·T^4 to (temperature, value) points")
    _io_flags(p, config=False)
    p.add_argument("points", help="CSV of temperature,value rows")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--free-exponent", action="store_true")
    p.add_argument("--t-unit", choices=("K", "mK"), default="K")
    p.set_defaults(run=cmd_trend)

    p = sub.add_parser("phase-map", help="rasterized phase diagram (CSV)")
    _io_flags(p, table=True)
    _grid_flags(p, "b", "T")
    _grid_flags(p, "t", "K")
    p.set_defaults(run=cmd_phase_map)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
