"""funreg benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload mc-coverage --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. With ``--trace 0`` the run sets up several times, measures
operations for ``--seconds`` of timed work and prints the end-to-end
metrics. With ``--trace 1`` it runs each operation once untraced and once
with span tracing installed, until ``--seconds / 2`` of untraced work are
done, and prints the per-layer metrics. Every operation's outputs are
checked against the pure-numpy reference in ``reference.py``. The last
line of standard output is the JSON result; the lines before it list the
machine facts and every metric by name with its unit. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# One BLAS thread: one caller in one process, so that a busy neighbour on
# the other core slows a run less. Set before numpy loads; an explicit
# setting in the environment wins, and facts record the count in force.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

# Claims measured on seeds 1..10 are checked again on this seed, which
# is not used while a change is being written.
HELDOUT_SEED = 20051017

SETUP_REPEATS = 5


def work_dir() -> Path:
    """Scratch inputs of this process; removed when the run ends."""
    return OUT / f"work-{os.getpid()}"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke shrinks every shape for the smoke test")
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Cold ``import funreg`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import funreg; print(time.perf_counter() - t)"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.split()[-1])


def blas_threads() -> int | None:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("lib*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(args, wl) -> dict:
    import numpy as np
    import scipy

    import funreg

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "scale": args.scale, "seed": args.seed,
        "heldout_seed": HELDOUT_SEED, "seconds": args.seconds, "trace": args.trace,
        "shape": wl.shape, "funreg": funreg.__version__,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": blas_threads(),
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "lab_threads": 1,
    }


def run_ops(wl, cal, seconds):
    """Run operations 0, 1, ... until ``seconds`` of timed work are done,
    timing the calibration kernel just before each. Returns the operations
    and their speed factors."""
    ops, kernel_s, timed = [], [], 0.0
    while not ops or timed < seconds:
        kernel_s.append(cal.kernel())
        ops.append(wl.op(len(ops)))
        timed += ops[-1].seconds
    return ops, cal.smoothed_factors(kernel_s)


def check_ops(wl, indices, ops):
    mismatches, floor = 0, []
    for index, op in zip(indices, ops):
        bad, ref_s = wl.check(index, op.outputs)
        mismatches += bad
        floor += ref_s
    return mismatches, floor


def end_to_end(args, workloads) -> tuple[dict, dict]:
    from calibrate import Calibration

    cal = Calibration(wl_calibration(workloads, args))
    setups, setup_speeds, wl = [], [], None
    for k in range(SETUP_REPEATS):
        setup_speeds.append(cal.factor())
        imp = import_seconds()
        t0 = perf_counter()
        wl = workloads.build(args.workload, args.scale, args.seed, work_dir() / f"setup{k}")
        wl.op(-1)
        setups.append(imp + perf_counter() - t0)
    ops, speeds = run_ops(wl, cal, args.seconds)
    mismatches, _ = check_ops(wl, range(len(ops)), ops)
    attempted = sum(o.attempted for o in ops)
    failed = sum(o.failed for o in ops)
    metrics = {
        "setup_s": (statistics.median(s * f for s, f in zip(setups, setup_speeds)), "s"),
        **{k: (v, UNITS[k]) for k, v in wl.metrics(ops, speeds).items()},
        "completed_fraction": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    report = {**{f"{k}.raw": (v, UNITS[k]) for k, v in wl.metrics(ops, [1.0] * len(ops)).items()},
              "setup_s.raw": (statistics.median(setups), "s"),
              "speed_factor.p50": (statistics.median(speeds), "ratio"),
              **{k: (v, "count") for k, v in wl.samples(ops).items()},
              "failed_fraction": (failed / attempted, "ratio"),
              "mismatch_count": (mismatches, "count"),
              "operations": (len(ops), "count")}
    return metrics, dict(correct=mismatches == 0, attempted=attempted, failed=failed, report=report, wl=wl)


def per_layer(args, workloads) -> tuple[dict, dict]:
    import tracer

    wl = workloads.build(args.workload, args.scale, args.seed, work_dir())
    wl.op(-1)
    tr = tracer.Tracer(wl.unit_spans)
    plain, traced = [], []
    # Each operation runs once untraced and once traced, in alternating
    # order, so that neither pass gains from running second.
    while not plain or sum(o.seconds for o in plain) < args.seconds / 2:
        index = len(plain)
        for traced_now in (index % 2 == 1, index % 2 == 0):
            if traced_now:
                tr.install()
                try:
                    traced.append(wl.op(index))
                finally:
                    tr.remove()
            else:
                plain.append(wl.op(index))
    indices = range(len(plain))
    mismatches, floor = check_ops(wl, indices, traced)
    differ = sum(a.outputs != b.outputs for a, b in zip(plain, traced))
    units = sum(o.units for o in traced)
    plain_s, traced_s = sum(o.seconds for o in plain), sum(o.seconds for o in traced)
    lib_unit_s = statistics.median(o.seconds / o.units for o in plain)
    floor_s = statistics.median(floor)
    metrics = {
        **tr.layer_metrics(units),
        **wl.layer_metrics(traced),
        "floor.replicate_ms": (floor_s * 1e3, "ms"),
        "floor.ratio": (lib_unit_s / floor_s, "ratio"),
        "trace.overhead_pct": ((traced_s - plain_s) / plain_s * 100, "%"),
        "check.mismatch_count": (mismatches, "count"),
    }
    OUT.mkdir(parents=True, exist_ok=True)
    tr.write(OUT / f"trace-{args.workload}-{args.seed}.json",
             {"facts": machine_facts(args, wl), "units": units})
    report = {"traced_outputs_differ": (differ, "count"), "operations": (len(traced), "count")}
    return metrics, dict(correct=mismatches == 0 and differ == 0,
                         attempted=sum(o.attempted for o in traced),
                         failed=sum(o.failed for o in traced), report=report, wl=wl)


def wl_calibration(workloads, args) -> str:
    return workloads.WORKLOADS[args.workload][args.scale].get("calibration", "mixed")


UNITS = {"replicates_per_s": "1/s", "fit_s.p50": "s", "predict_ms.p50": "ms", "predict_ms.p90": "ms"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "funreg" / "__init__.py").is_file():
        print(f"error: no funreg sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import funreg

    if Path(funreg.__file__).resolve().parent != SRC / "funreg":
        print(f"error: funreg imported from {funreg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    measure = per_layer if args.trace else end_to_end
    try:
        metrics, result = measure(args, workloads)
    finally:
        shutil.rmtree(work_dir(), ignore_errors=True)
    print("facts " + json.dumps(machine_facts(args, result["wl"])))
    for name, (value, unit) in {**metrics, **result["report"]}.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
