"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload at its smoke size, untraced and traced, and checks
that each run exits 0, passes its correctness check with a mismatch
count of 0, and reports exactly the metrics of ``BENCHMARK.json`` with
their units. Then checks that the benchmark refuses to run, without a
result line, in a directory holding only ``BENCHMARK.json`` and
``perfbench/``. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def fail(message: str) -> int:
    print(f"FAIL {message}")
    return 1


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            res = run(ROOT, wl["name"], trace)
            label = f"{wl['name']} --trace {trace}"
            if res.returncode != 0:
                return fail(f"{label}: exit {res.returncode}\n{res.stderr}")
            lines = res.stdout.splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                return fail(f"{label}: result keys {sorted(result)}")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                return fail(f"{label}: metrics differ from BENCHMARK.json: "
                            f"{sorted(set(got) ^ set(want))}")
            mismatch = "check.mismatch_count" if trace else "mismatch_count"
            printed = {line.split()[0]: line.split()[1] for line in lines[1:-1]}
            if not result["correct"] or printed.get(mismatch) != "0":
                return fail(f"{label}: correct={result['correct']} {mismatch}={printed.get(mismatch)}")
            print(f"ok   {label}: {len(got)} metrics, {result['attempted']} attempted")

    bare = ROOT / ".bench_build" / "perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        res = run(bare, bench["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if res.returncode == 0 or res.stdout.strip():
        return fail("run.py without src/ must exit non-zero and print no result")
    print(f"ok   without src/: exit {res.returncode}, no result printed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
