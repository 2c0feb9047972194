"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload mc-coverage --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, and prints for every
end-to-end metric its median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound from ``BENCHMARK.json``. A spread
below a third of the bound is the target for every metric but setup_s.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        t0 = perf_counter()
        res = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(res.stdout.splitlines()[-1])
        print(f"seed {seed}: {perf_counter() - t0:.1f} s wall, correct={result['correct']}, "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in bench["end_to_end"]:
        vals = values[metric["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = "" if spread < metric["bound"] / 3 or metric["name"] == "setup_s" else "  <-- wide"
        print(f"{metric['name']:22s} median {med:12.6g}  spread {spread:7.4f}  "
              f"bound {metric['bound']}{flag}  [{' '.join(f'{v:.4g}' for v in vals)}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
