"""afmcavity benchmark: one workload per invocation, metrics as JSON.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of an afmcavity checkout; the package is imported from
``src/``.  Metric names and units come from ``BENCHMARK.json``.  With
``--trace 0`` the last stdout line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (see ``bench/notes.json`` for what each is
expected to move).  A record of the run, with its environment, goes to
``.bench_work/results/``.

This process never imports numpy or afmcavity.  An untraced run splits its
seconds over ``MEASURE_PROCESSES`` fresh workers and pools their ops, so no
single process's memory layout decides the result; set-up is the median over
``SETUP_SAMPLES`` fresh processes.  Op ``i`` of process ``k`` gets op seed
``seed * 1_000_000 + k * 100_000 + i``.  The whole invocation, all its
workers together, must end within ``2 * seconds + SETUP_ALLOWANCE_S``.

The end-to-end op metrics are in refs, the time of a fixed reference
computation measured next to each op (see ``bench/worker.py``), because this
host's speed drifts too much between runs for wall time to be compared
across commits.  Wall-clock op_p50_s and ops_per_s are printed with the
environment and kept in the run record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
MEASURE_PROCESSES = 3
SETUP_SAMPLES = 7
# Time allowed on top of twice the measured seconds: set-up of every worker,
# warm-up, reference samples and the last op's overrun.
SETUP_ALLOWANCE_S = 130.0
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class BenchError(RuntimeError):
    pass


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _worker(argv: list[str], env: dict, deadline: float) -> dict:
    """Run bench/worker.py to completion and return its JSON result."""
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py"), *argv],
        stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("the run passed its deadline before a worker finished") from None
    finally:
        if proc.poll() is None:  # interrupted: take the worker's children down too
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "afmcavity" / "__init__.py").is_file():
        print("error: src/afmcavity not found; run from the root of an afmcavity checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    # Let SIGTERM unwind through the finally blocks below, which stop the workers.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    deadline = time.monotonic() + 2 * args.seconds + SETUP_ALLOWANCE_S
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
    )
    results_dir = root / ".bench_work" / "results"
    scratch = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--workdir", str(scratch)]
    processes = 1 if args.trace else MEASURE_PROCESSES
    run_args = common + ["--seconds", str(args.seconds / processes), "--trace", str(args.trace)]
    try:
        parts = [
            _worker(run_args + ["--first-op-seed", str(args.seed * 1_000_000 + k * 100_000)],
                    env, deadline)
            for k in range(processes)
        ]
        setups = [p["setup_s"] for p in parts]
        if not args.trace:
            setups += [
                _worker(common + ["--setup-only"], env, deadline)["setup_s"]
                for _ in range(SETUP_SAMPLES - processes)
            ]
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            shutil.copyfile(scratch / "trace.json", f"{stem}-spans.json")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    records = [r for p in parts for r in p["records"]]
    # An op fails when a check finds a wrong output; the known non-convergence
    # (a flag on values that pass) only counts towards the per-layer failed_frac.
    failed = [r for r in records if any(kind == "wrong" for kind, _ in r["problems"])]
    flagged = [r for r in records if r["problems"]]
    correct = not failed
    times = [r["s"] for r in records]
    refs = [r["ref"] for r in records]
    if args.trace:
        values = dict(parts[0]["layers"], failed_frac=len(flagged) / len(records))
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "op_p50_ref": statistics.median(refs),
            "ops_per_kref": 1000.0 * len(refs) / sum(refs),
            "peak_rss_mb": max(p["peak_rss_mb"] for p in parts),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    environment = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": parts[0]["numpy"],
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "threads": {var: env[var] for var in THREAD_VARS},
        "ops": len(records),
        "processes": processes,
        "warmup_ops_per_process": parts[0]["warmup_ops"],
        "setup_samples_s": setups,
        "op_p50_s": statistics.median(times),
        "ops_per_s": len(times) / sum(times),
        "ref_s": statistics.median(t / r for t, r in zip(times, refs)),
    }
    if args.trace:
        environment["tracing_overhead_ratio"] = values["trace.overhead_ratio"]
        environment["spans"] = parts[0]["spans"]
    record = {"environment": environment, "metrics": metrics, "ops": records}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"environment": environment}))
    for r in flagged:
        print(f"op seed {r['seed']}: " + "; ".join(msg for _, msg in r["problems"]))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
