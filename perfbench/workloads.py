"""The benchmark's workloads, driven through funreg's public functions.

Each workload is set up from a seed, then runs numbered operations. An
operation times only calls into ``funreg``; checking its outputs against
``reference`` happens outside the timed region. The same operation
number always gets the same inputs, so a traced pass can repeat an
untraced one exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import reference as ref
from funreg import CoeffRule, EigenDecay, FilterSpec, SpectralModel, cli, make_trapezoid_grid, simlab

# Agreement with the numpy reference: d_n exactly, every float to this
# relative tolerance. The reference solves through the Gram matrix when
# n < p, so the tolerance covers eigenvector roundoff near small gaps.
REL_TOL = 1e-9

POWER_DECAY = 1.0      # lambda_j = j^-(1 + a)
RHO_EXPONENT = 2.0     # <rho, e_j> = j^-2
NOISE_SD = 0.5
LEVEL = 0.95


@dataclass
class OpResult:
    seconds: float                 # timed wall time of the operation
    units: int                     # replicates, or 1 fit/predict round
    attempted: int
    failed: int
    outputs: object                # compared between traced and untraced passes
    latencies: dict = field(default_factory=dict)


def close(a: float, b: float, scale: float | None = None) -> bool:
    scale = max(abs(a), abs(b)) if scale is None else scale
    return abs(a - b) <= REL_TOL * max(scale, 1e-300)


def call_seed(seed: int, index: int) -> int:
    """Experiment seed of operation ``index`` (index -1 is the warm-up)."""
    return int(np.random.SeedSequence([seed, 7, index + 1]).generate_state(1)[0])


def make_model(p: int, L: int) -> SpectralModel:
    return SpectralModel(
        make_trapezoid_grid(0.0, 1.0, p), EigenDecay.power(POWER_DECAY),
        CoeffRule.power(RHO_EXPONENT), noise_sd=NOISE_SD, L=L,
    )


def rho_coeffs(L: int) -> np.ndarray:
    return np.arange(1, L + 1, dtype=float) ** -RHO_EXPONENT


class MonteCarlo:
    """``coverage_experiment`` (x_index None) or ``fixed_x_experiment``.

    One operation is one experiment call of ``batch`` replicates.
    """

    unit_spans = {"simlab.generate_dataset"}

    def __init__(self, seed, *, n, p, L, filt: ref.Filter, batch, x_index=None, workdir=None):
        if x_index is None and filt.kind != "truncation":
            raise ValueError("the random-x check reads s_hat as sqrt(d_n), true for truncation only")
        self.seed, self.n, self.batch, self.filt = seed, n, batch, filt
        self.shape = {"n": n, "p": p, "L": L, "replicates_per_call": batch}
        self.model = make_model(p, L)
        self.spec = FilterSpec(filt.kind, cn=filt.cn, alpha=filt.alpha)
        self.x = None if x_index is None else self.model.basis_curves[x_index - 1]
        self.inputs = dict(
            basis=np.asarray(self.model.basis), lambdas=np.asarray(self.model.lambdas),
            rho_coeffs=rho_coeffs(L), w=ref.trapezoid_weights(p), noise_sd=NOISE_SD,
            n=n, filt=filt, level=LEVEL,
            x=None if self.x is None else np.asarray(self.x.values),
        )
        self.q = statistics.NormalDist().inv_cdf((1 + LEVEL) / 2)

    def op(self, index: int) -> OpResult:
        seed = call_seed(self.seed, index)
        t0 = perf_counter()
        if self.x is None:
            report = simlab.coverage_experiment(
                self.model, self.n, self.filt.cn, self.spec, LEVEL, self.batch, seed, threads=1)
        else:
            report = simlab.fixed_x_experiment(
                self.model, self.x, self.n, self.filt.cn, self.spec, LEVEL, self.batch, seed, threads=1)
        seconds = perf_counter() - t0
        failed = sum(bool(row["failed"]) for row in report.rows)
        return OpResult(seconds, self.batch, self.batch, failed, report.rows)

    def check(self, index: int, rows) -> tuple[int, list[float]]:
        """Mismatching replicates, and the reference's seconds per replicate."""
        seed = call_seed(self.seed, index)
        bad, floor = 0, []
        for row in rows:
            t0 = perf_counter()
            ft, iv = ref.replicate(seed, row["replicate"], **self.inputs)
            floor.append(perf_counter() - t0)
            bad += not self._agrees(row, ft, iv)
        return bad, floor

    def _agrees(self, row, ft, iv) -> bool:
        if row["failed"] or iv is None:
            return bool(row["failed"]) and iv is None
        if row["d_n"] != ft.d_n:
            return False
        half = row["half_width"]
        lib_norm = row["t_hat"] if self.x is not None else math.sqrt(row["d_n"])
        lib_sigma = half * math.sqrt(self.n) / (self.q * lib_norm)
        return (close(row["center"], iv.center, max(abs(iv.center), iv.half_width))
                and close(half, iv.half_width)
                and close(lib_norm, iv.normalizer)
                and close(lib_sigma, iv.sigma_hat))

    def metrics(self, ops: list[OpResult], speeds: list[float]) -> dict:
        secs = [o.seconds * f for o, f in zip(ops, speeds)]
        per_rep_ms = [s / self.batch * 1e3 for s in secs]
        return {
            "replicates_per_s": self.batch / float(np.median(secs)),
            "fit_s.p50": float(np.median(secs)),
            "predict_ms.p50": float(np.median(per_rep_ms)),
            "predict_ms.p90": float(np.percentile(per_rep_ms, 90)),
        }

    def samples(self, ops: list[OpResult]) -> dict:
        return {"fit_s.samples": len(ops), "predict_ms.samples": len(ops)}

    def layer_metrics(self, ops: list[OpResult]) -> dict:
        return {"simlab.failed_replicates": (sum(o.failed for o in ops), "count"),
                "estimator.fit_json_bytes": (0, "bytes")}


class CliRoundTrip:
    """``funreg fit`` on a tall CSV, then ``funreg predict`` calls.

    One operation is a round: one centered ridge fit writing the fit
    JSON, then ``predicts`` interval calls that cycle over the predictor
    files and alternate the ``s_hat`` and ``t_hat`` normalizers.
    """

    unit_spans = {"cli.fit", "cli.predict"}

    def __init__(self, seed, *, n, p, L, filt: ref.Filter, predicts, x_files, workdir: Path):
        self.filt = filt
        self.shape = {"n": n, "p": p, "L": L, "predicts_per_fit": predicts}
        workdir.mkdir(parents=True, exist_ok=True)
        model = make_model(p, L)
        basis, lam = np.asarray(model.basis), np.asarray(model.lambdas)
        self.w = ref.trapezoid_weights(p)
        t = np.linspace(0.0, 1.0, p)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 11]))
        mean_curve = 0.5 + t
        self.X = mean_curve + (rng.standard_normal((n, L)) * np.sqrt(lam)) @ basis
        self.y = 1.0 + self.X @ (self.w * (rho_coeffs(L) @ basis)) + NOISE_SD * rng.standard_normal(n)
        self.xs = mean_curve + (rng.standard_normal((x_files, L)) * np.sqrt(lam)) @ basis

        curves, responses = workdir / "curves.csv", workdir / "responses.txt"
        np.savetxt(curves, np.vstack([t, self.X]), fmt="%.17g", delimiter=",")
        np.savetxt(responses, self.y, fmt="%.17g")
        x_paths = []
        for k, x in enumerate(self.xs):
            x_paths.append(workdir / f"x{k}.csv")
            np.savetxt(x_paths[-1], np.vstack([t, x]), fmt="%.17g", delimiter=",")
        self.fit_path = workdir / "fit.json"
        self.fit_argv = ["fit", "--curves", str(curves), "--responses", str(responses),
                         "--filter", filt.kind, "--cn", repr(filt.cn), "--alpha", repr(filt.alpha),
                         "--out", str(self.fit_path)]
        self.predict_argv = []
        for k in range(predicts):
            norm = "s_hat" if k % 2 == 0 else "t_hat"
            self.predict_argv.append((k % x_files, norm, [
                "predict", "--fit", str(self.fit_path), "--x", str(x_paths[k % x_files]),
                "--level", repr(LEVEL), "--normalizer", norm]))

    @staticmethod
    def _call(argv) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
        return rc, buf.getvalue()

    def op(self, index: int) -> OpResult:
        t0 = perf_counter()
        fit_rc, fit_out = self._call(self.fit_argv)
        fit_s = perf_counter() - t0
        predict_s, results = [], []
        for _, _, argv in self.predict_argv:
            t1 = perf_counter()
            results.append(self._call(argv))
            predict_s.append(perf_counter() - t1)
        seconds = perf_counter() - t0
        fit_json = self.fit_path.read_bytes() if fit_rc == 0 else b""
        rcs = [fit_rc] + [rc for rc, _ in results]
        return OpResult(seconds, 1, len(rcs), sum(rc != 0 for rc in rcs),
                        ((fit_rc, fit_out, fit_json), results),
                        {"fit_s": fit_s, "predict_s": predict_s})

    def check(self, index: int, outputs) -> tuple[int, list[float]]:
        """Mismatching CLI calls, and the reference's seconds per round."""
        (fit_rc, _, fit_json), results = outputs
        t0 = perf_counter()
        ft = ref.fit(self.X, self.y, self.w, self.filt, center=True)
        ivs = [ref.interval(ft, self.xs[k], self.w, LEVEL, norm) for k, norm, _ in self.predict_argv]
        floor = [perf_counter() - t0]
        bad = int(not self._fit_agrees(fit_rc, fit_json, ft))
        for (rc, out), iv in zip(results, ivs):
            bad += not self._interval_agrees(rc, out, iv)
        return bad, floor

    @staticmethod
    def _fit_agrees(rc, fit_json, ft) -> bool:
        if ft is None or rc != 0:
            return ft is None and rc != 0
        try:
            payload = json.loads(fit_json)
            rho = np.asarray(payload["rho_hat"], dtype=float)
        except (ValueError, KeyError, TypeError):
            return False
        scale = float(np.max(np.abs(ft.rho_hat)))
        return (payload.get("d_n") == ft.d_n and rho.shape == ft.rho_hat.shape
                and float(np.max(np.abs(rho - ft.rho_hat))) <= REL_TOL * scale
                and close(float(payload.get("s_hat", "nan")), ft.s_hat)
                and ft.sigma_hat is not None
                and close(float(payload.get("sigma_hat") or "nan"), ft.sigma_hat))

    @staticmethod
    def _interval_agrees(rc, out, iv) -> bool:
        if iv is None or rc != 0:
            return iv is None and rc != 0
        try:
            center, lo, hi = (float(v) for v in out.strip().split(","))
        except ValueError:
            return False
        half = (hi - lo) / 2
        return close(center, iv.center, max(abs(iv.center), iv.half_width)) and close(half, iv.half_width)

    def metrics(self, ops: list[OpResult], speeds: list[float]) -> dict:
        # Predict percentiles are taken within each round, where one speed
        # factor holds, and their median over rounds is reported.
        per_round = [np.percentile(o.latencies["predict_s"], (50, 90)) * f * 1e3
                     for o, f in zip(ops, speeds)]
        return {
            "replicates_per_s": 1 / float(np.median([o.seconds * f for o, f in zip(ops, speeds)])),
            "fit_s.p50": float(np.median([o.latencies["fit_s"] * f for o, f in zip(ops, speeds)])),
            "predict_ms.p50": float(np.median([r[0] for r in per_round])),
            "predict_ms.p90": float(np.median([r[1] for r in per_round])),
        }

    def samples(self, ops: list[OpResult]) -> dict:
        return {"fit_s.samples": len(ops),
                "predict_ms.samples": sum(len(o.latencies["predict_s"]) for o in ops)}

    def layer_metrics(self, ops: list[OpResult]) -> dict:
        fit_bytes = statistics.median(len(o.outputs[0][2]) for o in ops)
        return {"simlab.failed_replicates": (0, "count"),
                "estimator.fit_json_bytes": (fit_bytes, "bytes")}


# Shapes are (n, p, L). "smoke" shrinks every workload for the smoke test.
# "calibration" names the calibrate.py kernel that tracks the dominant cost.
WORKLOADS = {
    "mc-coverage": {
        "full": dict(cls=MonteCarlo, n=500, p=101, L=50, batch=10,
                     filt=ref.Filter("truncation", cn=1e-2)),
        "smoke": dict(cls=MonteCarlo, n=60, p=21, L=10, batch=2,
                      filt=ref.Filter("truncation", cn=5e-2)),
    },
    "mc-fixed-x-wide": {
        "full": dict(cls=MonteCarlo, n=300, p=1001, L=200, batch=1, x_index=2,
                     filt=ref.Filter("tikhonov", cn=1e-3, alpha=1e-4), calibration="dense"),
        "smoke": dict(cls=MonteCarlo, n=30, p=51, L=20, batch=1, x_index=2,
                      filt=ref.Filter("tikhonov", cn=1e-2, alpha=1e-3), calibration="dense"),
    },
    "cli-fit-predict": {
        "full": dict(cls=CliRoundTrip, n=5000, p=101, L=50, predicts=40, x_files=8,
                     filt=ref.Filter("ridge", cn=1e-3, alpha=1e-4)),
        "smoke": dict(cls=CliRoundTrip, n=200, p=21, L=10, predicts=4, x_files=2,
                      filt=ref.Filter("ridge", cn=1e-2, alpha=1e-3)),
    },
}


def build(name: str, scale: str, seed: int, workdir: Path):
    params = dict(WORKLOADS[name][scale])
    cls = params.pop("cls")
    params.pop("calibration", None)
    return cls(seed, workdir=workdir, **params)
