"""Smoke test of the benchmark harness itself.

    python3 bench/smoke.py

Runs every workload with one timed op per worker, traced and untraced, and
asserts that each metric named in BENCHMARK.json appears with its unit; that
the correctness checks fire on a deliberately wrong expected value (one op
run in-process); and that the harness fails without printing a result where
there is no source tree.
Takes about two minutes.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["attempted"] >= 1 and 0 <= out["failed"] <= out["attempted"], out
    return out


def check_metrics(out, wanted):
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, got
    for name, m in out["metrics"].items():
        assert isinstance(m["value"], (int, float)), (name, m)


def check_fires(workload, key, wrong):
    """Run one op in-process against a wrong expected value; its check must fail it."""
    import afmcavity
    import worker

    expected = dict(worker.EXPECTED, **{key: wrong})
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
        w = worker.WORKLOADS[workload](afmcavity, Path(tmp), expected)
        w.setup()
        [record] = worker._run_ops(w, afmcavity, iter([1_000_000]), 0.0)
    assert any(kind == worker.WRONG for kind, _ in record["problems"]), (workload, record)


def main():
    for workload in (w["name"] for w in SPEC["workloads"]):
        out = result("--workload", workload, "--trace", "0")
        check_metrics(out, SPEC["end_to_end"])
        assert out["correct"], (workload, out)
        assert all(m["value"] > 0 for m in out["metrics"].values()), out
        out = result("--workload", workload, "--trace", "1")
        check_metrics(out, SPEC["per_layer"])
        assert out["correct"], (workload, out)
        print(f"ok  {workload}: metrics and units, traced and untraced")

    for workload, key, wrong in (("monte_carlo", "big_g", 1.5), ("cli_chain", "magnon_corrected_ghz", 0.05)):
        check_fires(workload, key, wrong)
        print(f"ok  {workload}: check fires on expected {key}={wrong}")

    bare = ROOT / ".bench_work" / "smoke-no-source"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", "monte_carlo", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok  no source tree: exit", proc.returncode, "and no result")


if __name__ == "__main__":
    main()
