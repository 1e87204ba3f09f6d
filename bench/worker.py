"""One benchmark workload, run in a fresh process by ``bench/run.py``.

    python3 bench/worker.py --workload NAME --workdir DIR [--first-op-seed N]
        [--seconds S] [--trace 0|1] [--setup-only]

Set-up (importing ``afmcavity`` and building the fixed inputs) is timed from
the first line of ``main``.  Ops then run back to back, one in flight, until
their summed wall time reaches ``--seconds``; op ``i`` gets op seed
``N + i``.  Warm-up ops take seeds counting down from
``N + WARMUP_SEED_OFFSET``, outside the timed sequence.  Every op's output is checked outside its timed region.  Each op
is timed in seconds and in refs (see ``_reference_seconds``).  The result is
one JSON object on stdout.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from spans import Tracer, self_times

BENCH_DIR = Path(__file__).resolve().parent

# The model every workload synthesizes (the package defaults) and the values
# a correct analysis recovers from it.
EXPECTED = {
    "big_g": 1.72,  # GHz
    "f_afmr0": 34.0,  # GHz
    "magnon_corrected_ghz": 0.035,  # GHz, bare magnon FWHM
    "trend_offset": 35.0,
    "trend_coefficient": 5.0,  # per K^4
    "trend_exponent": 4.0,
}
REL_TOL = 0.01
# Op times are also reported in 'refs': wall time divided by the time of a
# fixed reference computation sampled next to the op.  On a shared host the
# speed of the same code drifts 10-20% between runs; the ratio cancels most
# of that drift.
REF_REPEATS = 5
REF_INTERVAL_S = 0.5
NOISE_DB = 0.2
WARMUP_SEED_OFFSET = 99_999
MIN_PROMINENCE = 0.2

# Problem kinds.  WRONG (a value off its expected one, a non-zero exit other
# than the fit's 3, an exception) fails the op and makes the run incorrect.
# NONCONVERGED is the program flagging a fit whose values pass every check
# (``converged=False``, or the CLI fit's exit 3): the known converged-flag
# defect.  It is counted in the per-layer ``failed_frac``, not as a failed op.
NONCONVERGED = "nonconverged"
WRONG = "wrong"


def _within(value, expected) -> bool:
    return abs(value - expected) <= REL_TOL * abs(expected)


def _check_fit(params: dict, converged: bool, label: str, expected: dict) -> list:
    problems = []
    for name in ("big_g", "f_afmr0"):
        if not _within(params[name], expected[name]):
            problems.append((WRONG, f"{label}: {name}={params[name]!r}, expected {expected[name]}"))
    if not converged:
        problems.append((NONCONVERGED, f"{label}: converged=False"))
    return problems


class Workload:
    """Fixed inputs built in ``setup``; ``run`` is the timed op, ``check`` is not."""

    warmup_ops = 1
    tracer: Tracer | None = None  # set while a traced op runs

    def __init__(self, ac, workdir: Path, expected: dict):
        self.ac = ac
        self.workdir = workdir
        self.expected = expected

    def _load_config(self, name: str, raw: dict):
        # Configs get stems no map file uses: ``save_map`` writes its sidecar
        # to <map stem>.json and would overwrite a config of the same stem.
        path = self.workdir / f"cfg_{name}.json"
        path.write_text(json.dumps(raw))
        return self.ac.config.load_config(path)

    def _fit(self, peaks, f_afmr0_start: float):
        ac = self.ac
        return ac.analysis.fit_avoided_crossing(
            peaks,
            ac.core.SpinSystemParams(f_afmr0=f_afmr0_start),
            self.cfg.cavity,
            free=("big_g", "f_afmr0"),
        )

    def prepare(self):
        """Called before each op, outside its timed stages."""

    def steps(self, seed) -> list:
        """The timed op as zero-argument calls made in order.

        The reference may be sampled between two calls, outside the op's
        time; ``check`` gets the list of their results.
        """
        return [functools.partial(self.run, seed)]

    def check(self, seed, outputs) -> list:
        """Problems found in one op's output; called outside its timed stages."""
        [reports] = outputs
        problems = []
        for start, report in reports:
            params = dict(zip(report.parameter_names, report.values))
            problems += _check_fit(params, report.converged, f"fit from f_afmr0={start}", self.expected)
        return problems


class FineNoisy(Workload):
    """Noisy map on a 0.5 MHz frequency step: ``extract_peaks`` dominates."""

    warmup_ops = 0  # one op is ~9 s and allocates nothing that a second op reuses

    def setup(self):
        self.cfg = self._load_config("fine_noisy", {
            "field_grid": {"start": 0.0, "stop": 1.1, "step": 0.005},
            "freq_grid": {"start": 8.0, "stop": 15.0, "step": 0.0005},
        })
        self.axes = (self.cfg.field_grid.samples(), self.cfg.freq_grid.samples())

    def run(self, seed):
        ac, cfg = self.ac, self.cfg
        tmap = ac.spectra.synthesize_map(*self.axes, cfg.spins, cfg.cavity, cfg.coupling, cfg.loss)
        noisy = ac.spectra.add_noise(tmap, NOISE_DB, seed)
        peaks = ac.analysis.extract_peaks(noisy, MIN_PROMINENCE)
        return [(31.0, self._fit(peaks, 31.0))]


class MonteCarlo(Workload):
    """Noise study on one default-grid map built at set-up."""

    STARTS = (31.0, 34.0)

    def setup(self):
        cfg = self.cfg = self._load_config("monte_carlo", {})
        self.base = self.ac.spectra.synthesize_map(
            cfg.field_grid.samples(), cfg.freq_grid.samples(),
            cfg.spins, cfg.cavity, cfg.coupling, cfg.loss,
        )

    def run(self, seed):
        noisy = self.ac.spectra.add_noise(self.base, NOISE_DB, seed)
        peaks = self.ac.analysis.extract_peaks(noisy, MIN_PROMINENCE)
        return [(start, self._fit(peaks, start)) for start in self.STARTS]


class LargeClean(Workload):
    """Noiseless map on the 10x-per-axis grid (2201 x 14001)."""

    warmup_ops = 0  # every op allocates its ~250 MB map afresh, so nothing warms up

    def setup(self):
        self.cfg = self._load_config("large_clean", {
            "field_grid": {"start": 0.0, "stop": 1.1, "step": 0.0005},
            "freq_grid": {"start": 8.0, "stop": 15.0, "step": 0.0005},
        })
        self.axes = (self.cfg.field_grid.samples(), self.cfg.freq_grid.samples())

    def run(self, seed):
        ac, cfg = self.ac, self.cfg
        tmap = ac.spectra.synthesize_map(*self.axes, cfg.spins, cfg.cavity, cfg.coupling, cfg.loss)
        peaks = ac.analysis.extract_peaks(tmap, MIN_PROMINENCE)
        return [(cfg.spins.f_afmr0, self._fit(peaks, cfg.spins.f_afmr0))]


class CliChain(Workload):
    """The README's command chain, each command a fresh process."""

    warmup_ops = 0  # every command starts a fresh interpreter, as users' runs do
    PHASE_STEP = 0.005
    PHASE_POINTS = [(0.0, 0.1), (0.5, 1.0), (1.5, 0.5), (2.0, 2.0), (1.0, 2.9), (2.9, 0.1)]

    def setup(self):
        self.cfg = self._load_config("noise", {"noise_sigma_db": NOISE_DB})
        self._load_config("fine", {
            "field_grid": {"start": 0.64, "stop": 0.72, "step": 0.0001},
            "freq_grid": {"start": 15.5, "stop": 15.7, "step": 0.005},
        })
        # Exact points of y = 35 + 5 T^4, so the free-exponent fit must return them.
        lines = ["temperature,value"]
        for i in range(1, 8):
            t = 0.2 * i
            lines.append(f"{t!r},{EXPECTED['trend_offset'] + EXPECTED['trend_coefficient'] * t ** 4!r}")
        (self.workdir / "points.csv").write_text("\n".join(lines) + "\n")
        self.axes = (self.cfg.field_grid.samples(), self.cfg.freq_grid.samples())
        w = str(self.workdir)
        self.commands = [
            ("sweep", ["sweep", "--config", f"{w}/cfg_noise.json", "--out", f"{w}/map_default.csv", "--seed", None]),
            ("fit", ["fit", f"{w}/map_default.csv", "--min-prominence", str(MIN_PROMINENCE), "--out", f"{w}/fit.json"]),
            ("sweep_fine", ["sweep", "--config", f"{w}/cfg_fine.json", "--out", f"{w}/map_fine.csv"]),
            ("linewidth", ["linewidth", f"{w}/map_fine.csv", "--freq", "15.6", "--out", f"{w}/linewidth.json"]),
            ("trend", ["trend", f"{w}/points.csv", "--free-exponent", "--out", f"{w}/trend.json"]),
            ("phase-map", ["phase-map", "--b-step", str(self.PHASE_STEP), "--t-step", str(self.PHASE_STEP),
                           "--out", f"{w}/phases.csv"]),
        ]
        self.output_files = ["map_default.csv", "map_default.json", "fit.json", "map_fine.csv",
                        "map_fine.json", "linewidth.json", "trend.json", "phases.csv"]

    def prepare(self):
        for name in self.output_files:
            (self.workdir / name).unlink(missing_ok=True)

    def steps(self, seed):
        # One step per command, so each is timed against a reference sampled
        # next to it: the host's speed drifts within one ~4 s op.
        return [
            functools.partial(self._command, name, [str(seed) if a is None else a for a in argv])
            for name, argv in self.commands
        ]

    def _command(self, name, argv) -> int:
        quiet = {"stdout": subprocess.DEVNULL, "stderr": subprocess.DEVNULL}
        if self.tracer is None:
            return subprocess.run([sys.executable, "-m", "afmcavity.cli", *argv], **quiet).returncode
        spans_file = self.workdir / "spans.json"
        index = self.tracer.begin(f"cli.{name}")
        code = subprocess.run(
            [sys.executable, str(BENCH_DIR / "tracecli.py"), str(spans_file), "--", *argv], **quiet
        ).returncode
        self.tracer.end(index)
        self.tracer.counts[self.tracer.op]["cli.exit_nonzero"] += code != 0
        child = json.loads(spans_file.read_text())
        self.tracer.add_child(child["spans"], child["counts"], index)
        return code

    def check(self, seed, outputs):
        codes = dict(zip((name for name, _ in self.commands), outputs))
        # The fit's exit 3 is its converged=False, which _check_fit flags;
        # fit.json is written either way.
        ok = {name for name, code in codes.items() if code == 0 or (name, code) == ("fit", 3)}
        problems = [(WRONG, f"{name} exited {code}") for name, code in codes.items() if name not in ok]
        if "sweep" in ok:
            problems += self._check_map(seed)
        if "fit" in ok:
            report = self._read_json("fit.json")
            problems += _check_fit(report["parameters"], report["converged"], "cli fit", self.expected)
        if "linewidth" in ok:
            value = self._read_json("linewidth.json").get("magnon_corrected_ghz")
            if value is None or not _within(value, self.expected["magnon_corrected_ghz"]):
                problems.append((WRONG, f"linewidth: magnon_corrected_ghz={value!r}"))
        if "trend" in ok:
            trend = self._read_json("trend.json")
            for key in ("offset", "coefficient", "exponent"):
                if not _within(trend[key], self.expected[f"trend_{key}"]):
                    problems.append((WRONG, f"trend: {key}={trend[key]!r}"))
        if "phase-map" in ok:
            problems += self._check_phases()
        return problems

    def _read_json(self, name):
        return json.loads((self.workdir / name).read_text())

    def _check_map(self, seed):
        """The map ``fit`` reads equals the in-process synthesis bit for bit."""
        ac, cfg = self.ac, self.cfg
        ref = ac.spectra.add_noise(
            ac.spectra.synthesize_map(*self.axes, cfg.spins, cfg.cavity, cfg.coupling, cfg.loss),
            cfg.noise_sigma_db, seed,
        )
        got = ac.spectra.load_map(self.workdir / "map_default.csv")
        same = (
            got.values.shape == ref.values.shape
            and (got.field_axis == ref.field_axis).all()
            and (got.freq_axis == ref.freq_axis).all()
            and (got.values == ref.values).all()
        )
        return [] if same else [(WRONG, "sweep: CSV map differs from in-process synthesis")]

    def _check_phases(self):
        lines = (self.workdir / "phases.csv").read_text().splitlines()
        n_temps = int(round(3.0 / self.PHASE_STEP)) + 1
        problems = []
        for b, t in self.PHASE_POINTS:
            i, j = round(b / self.PHASE_STEP), round(t / self.PHASE_STEP)
            field, temp, label = lines[2 + i * n_temps + j].split(",")
            want = self.ac.phase.classify_phase(float(field), float(temp))
            if abs(float(field) - b) > 1e-9 or abs(float(temp) - t) > 1e-9 or label != want:
                problems.append((WRONG, f"phase-map: ({field}, {temp}) -> {label}, expected {want}"))
        return problems


WORKLOADS = {
    "cli_chain": CliChain,
    "fine_noisy": FineNoisy,
    "monte_carlo": MonteCarlo,
    "large_clean": LargeClean,
}


def _reference_seconds() -> float:
    """Wall time of a fixed interpreter-plus-numpy computation: one 'ref'.

    The median of ``REF_REPEATS`` runs, so that one interrupted run does not
    count.  It calls nothing in afmcavity, so no change to the package can
    move it; only the host's speed does.  Its arrays are allocated and
    touched before timing: the cost of fresh pages depends on what the
    process allocated before (the allocator's mmap threshold), not on the
    host.
    """
    import numpy as np

    a = np.arange(400_000, dtype=float)
    buf = a.copy()
    times = []
    for _ in range(REF_REPEATS):
        start = time.perf_counter()
        acc = 0.0
        for i in range(80_000):
            acc += (i % 7) * 0.5
        np.multiply(a, a, out=buf)
        buf += acc
        acc += float(np.sqrt(buf, out=buf).sum())
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _run_ops(workload, ac, seeds, seconds, tracer=None):
    """Closed loop: one op in flight until the ops' summed wall time reaches ``seconds``.

    The reference is sampled before a step of an op (see ``Workload.steps``)
    once ``REF_INTERVAL_S`` of op time has passed since the last sample, and
    once more at the end.  A step's time in refs uses the reference
    interpolated to the step's midpoint; an op's is the sum over its steps.
    """
    import numpy as np

    records, total, since_ref, samples = [], 0.0, REF_INTERVAL_S, []
    workload.tracer = tracer
    while not records or total < seconds:
        seed = next(seeds)
        workload.prepare()
        if tracer is not None:
            tracer.op = str(seed)
            tracer.install(ac)
        spans, outputs, error = [], [], None
        try:
            for step in workload.steps(seed):
                if since_ref >= REF_INTERVAL_S:
                    samples.append((time.perf_counter(), _reference_seconds()))
                    since_ref = 0.0
                start = time.perf_counter()
                try:
                    outputs.append(step())
                finally:
                    spans.append((start, time.perf_counter()))
                    since_ref += spans[-1][1] - start
        except Exception:  # the loop must finish and report every op
            error = traceback.format_exc(limit=3)
        if tracer is not None:
            tracer.uninstall()
        problems = [(WRONG, f"op raised: {error}")] if error else workload.check(seed, outputs)
        elapsed = sum(end - start for start, end in spans)
        total += elapsed
        records.append({"seed": seed, "s": elapsed, "steps": spans, "problems": problems})
    samples.append((time.perf_counter(), _reference_seconds()))
    at, ref = zip(*samples)
    for r in records:
        r["ref"] = sum(
            (end - start) / float(np.interp((start + end) / 2, at, ref)) for start, end in r.pop("steps")
        )
    return records


def _layer_metrics(tracer: Tracer, records: list, import_s: float) -> dict:
    """Per-layer numbers: set-up cost plus the mean cost of one traced op."""
    ops = [str(r["seed"]) for r in records]
    n = len(ops)

    def per_op(table: dict, key) -> float:
        return table.get(("setup", key), 0.0) + sum(table.get((op, key), 0.0) for op in ops) / n

    selfs = self_times(tracer.spans)
    span_counts: dict = {}
    for name, _, _, _, op in tracer.spans:
        span_counts[(op, name)] = span_counts.get((op, name), 0) + 1
    counts = {(op, name): v for op, table in tracer.counts.items() for name, v in table.items()}

    m = {"cli.import.s": import_s}
    for cmd in ("sweep", "fit", "sweep_fine", "linewidth", "trend", "phase-map"):
        m[f"cli.{cmd}.s"] = per_op(selfs, f"cli.{cmd}")
    for name in ("config.load_config", "spectra.map_to_csv", "spectra.map_from_csv",
                 "spectra.synthesize_map", "spectra.add_noise", "spectra.vertical_cut",
                 "analysis.extract_peaks", "analysis.fit_avoided_crossing",
                 "analysis.field_linewidth", "analysis.fit_t4_trend",
                 "optimize.levenberg_marquardt", "optimize.callback", "phase.phase_grid"):
        m[f"{name}.s"] = per_op(selfs, name)
    for name in ("cli.exit_nonzero", "spectra.csv_bytes", "spectra.synthesize_map.cells", "core.magnon_branches.calls",
                 "analysis.extract_peaks.peaks", "analysis.fit_avoided_crossing.n_obs",
                 "optimize.levenberg_marquardt.iterations", "optimize.fun_evals",
                 "optimize.jac_evals", "phase.phase_grid.points", "phase.classify_phase.calls"):
        m[name] = per_op(counts, name)
    m["optimize.levenberg_marquardt.calls"] = per_op(span_counts, "optimize.levenberg_marquardt")
    fits = per_op(span_counts, "analysis.fit_avoided_crossing")
    m["analysis.fit_avoided_crossing.converged_frac"] = (
        per_op(counts, "analysis.fit_avoided_crossing.converged") / fits
    )
    return m


def _import_seconds(repeats: int = 3) -> float:
    """Median wall time of a fresh ``python -c "import afmcavity"``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import afmcavity"], check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    t0 = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--first-op-seed", type=int, default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    import afmcavity as ac
    import afmcavity.cli  # noqa: F401  (wrapped by the tracer)
    import numpy

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install(ac)
    workload = WORKLOADS[args.workload](ac, workdir, EXPECTED)
    workload.setup()
    if tracer is not None:
        tracer.uninstall()
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    warmup_seed = args.first_op_seed + WARMUP_SEED_OFFSET
    for i in range(workload.warmup_ops):
        _run_ops(workload, ac, iter([warmup_seed - i]), 0.0)

    seeds = itertools.count(args.first_op_seed)

    result = {"setup_s": setup_s, "numpy": numpy.__version__, "warmup_ops": workload.warmup_ops}
    if args.trace:
        # Half the run untraced, half traced: their ratio is the tracing overhead.
        half = args.seconds / 2
        plain = _run_ops(workload, ac, seeds, half)
        traced = _run_ops(workload, ac, seeds, half, tracer)
        records = plain + traced
        layers = _layer_metrics(tracer, traced, _import_seconds())
        layers["trace.overhead_ratio"] = (
            statistics.median(r["ref"] for r in traced) / statistics.median(r["ref"] for r in plain)
        )
        result["layers"] = layers
        result["spans"] = len(tracer.spans)
        (workdir / "trace.json").write_text(json.dumps({"spans": tracer.spans}))
    else:
        records = _run_ops(workload, ac, seeds, args.seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_chain" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
    result["records"] = records
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
