"""Ground-truth spectral models, data generation, and the Monte Carlo
experiments that probe the asymptotic claims at desk scale.

Simulated predictors follow a truncated expansion X = sum_l sqrt(lam_l)
xi_l e_l with unit-variance scores, responses Y = <rho, X> + eps. All
randomness flows from per-replicate generators derived from (seed,
replicate index), so serial and threaded runs agree byte for byte.
The near-normality check on the standardized errors is the two-sided
Kolmogorov-Smirnov statistic D against N(0, 1), with no p-value; it is
bit-equal to ``scipy.stats.kstest(errors, "norm").statistic``.
The ``*_from_config`` functions at the end read their fields through ``config``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
from scipy.special import ndtr

from . import config
from .errors import DegenerateFitError, ValidationError
from .estimator import fit, normalizers, prediction_interval
from .filters import FilterSpec, select_kn
from .hilbert import (
    Curve,
    CurveMatrix,
    Grid,
    ensure_same_grid,
    inner_product,
    make_trapezoid_grid,
    norm,
)

XI_LAWS = ("gaussian", "uniform", "rademacher")

# Absolute slack (scaled by the interval center) used when testing whether
# a target falls inside an interval; makes the noiseless degenerate case
# well defined in floating point.
COVERAGE_SLACK = 1e-9


# ---------------------------------------------------------------------------
# decay and coefficient rules


@dataclass(frozen=True)
class EigenDecay:
    """Eigenvalue rule: power lam_j = j^-(1+a) or geometric lam_j = r^j."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "power":
            if self.param <= 0:
                raise ValidationError("power decay needs a > 0")
        elif self.kind == "geometric":
            if not 0 < self.param < 1:
                raise ValidationError("geometric decay needs 0 < r < 1")
        else:
            raise ValidationError(f"unknown decay kind {self.kind!r}")

    def values(self, count: int) -> np.ndarray:
        j = np.arange(1, count + 1, dtype=float)
        if self.kind == "power":
            return j ** -(1.0 + self.param)
        return self.param**j

    @staticmethod
    def power(a: float) -> "EigenDecay":
        return EigenDecay("power", a)

    @staticmethod
    def geometric(r: float) -> "EigenDecay":
        return EigenDecay("geometric", r)


@dataclass(frozen=True)
class CoeffRule:
    """Coefficient rule for <rho, e_j>: a power law or an explicit list."""

    kind: str
    exponent: float | None = None
    coeffs: tuple | None = None
    normalize: bool = False
    scale: float = 1.0

    def __post_init__(self):
        if self.kind == "power":
            if self.exponent is None:
                raise ValidationError("power coefficients need an exponent")
        elif self.kind == "finite":
            if self.coeffs is None:
                raise ValidationError("finite coefficients need explicit values")
            object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        else:
            raise ValidationError(f"unknown coefficient kind {self.kind!r}")

    def values(self, count: int) -> np.ndarray:
        if self.kind == "power":
            j = np.arange(1, count + 1, dtype=float)
            out = self.scale * j ** -float(self.exponent)
        else:
            out = np.zeros(count)
            m = min(count, len(self.coeffs))
            out[:m] = self.coeffs[:m]
            out *= self.scale
        if self.normalize:
            total = np.sqrt(np.sum(out**2))
            if total == 0:
                raise ValidationError("cannot normalize all-zero coefficients")
            out = out / total
        return out

    @staticmethod
    def power(exponent: float, normalize: bool = False, scale: float = 1.0) -> "CoeffRule":
        return CoeffRule("power", exponent=exponent, normalize=normalize, scale=scale)

    @staticmethod
    def finite(coeffs, normalize: bool = False) -> "CoeffRule":
        return CoeffRule("finite", coeffs=tuple(coeffs), normalize=normalize)


def power_squared_coeffs(beta: float, count: int) -> np.ndarray:
    """Squared coordinates x_j^2 = j^-(1+beta)."""
    j = np.arange(1, count + 1, dtype=float)
    return j ** -(1.0 + beta)


# ---------------------------------------------------------------------------
# the spectral model


@dataclass(frozen=True)
class SpectralModel:
    """Ground truth: eigenvalue decay, basis, coefficient rule, noise law."""

    grid: Grid
    decay: EigenDecay
    rho: CoeffRule
    noise_sd: float
    xi_law: str = "gaussian"
    L: int | None = None

    def __post_init__(self):
        if self.noise_sd < 0 or not np.isfinite(self.noise_sd):
            raise ValidationError("noise_sd must be nonnegative and finite")
        if self.xi_law not in XI_LAWS:
            raise ValidationError(f"xi law must be one of {XI_LAWS}")
        L = self.L if self.L is not None else min(100, len(self.grid) - 1)
        if L < 1:
            raise ValidationError("need at least one expansion term")
        if L > len(self.grid) - 1:
            raise ValidationError(
                f"L={L} exceeds the basis capacity of a {len(self.grid)}-point grid"
            )
        object.__setattr__(self, "L", int(L))

    @cached_property
    def lambdas(self) -> np.ndarray:
        lam = self.decay.values(self.L)
        if not np.all(lam > 0) or not np.all(np.diff(lam) < 0):
            raise ValidationError("eigenvalue rule must be strictly decreasing, positive")
        lam.flags.writeable = False
        return lam

    @cached_property
    def rho_coeffs(self) -> np.ndarray:
        out = self.rho.values(self.L)
        out.flags.writeable = False
        return out

    @cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal basis values, rows e_1..e_L on the grid.

        Cosine family (constant, then sqrt(2) cos(j pi t) on the unit
        interval) re-orthonormalized discretely under the quadrature
        product so that <e_i, e_j> = delta_ij to machine precision.
        """
        p = len(self.grid)
        pts = self.grid.points
        t = (pts - pts[0]) / (pts[-1] - pts[0])
        raw = np.empty((self.L, p))
        raw[0] = 1.0
        for j in range(1, self.L):
            raw[j] = np.sqrt(2.0) * np.cos(j * np.pi * t)
        w = self.grid.weights
        basis = np.empty_like(raw)
        for j in range(self.L):
            v = raw[j].copy()
            if j:
                v -= (basis[:j] @ (w * v)) @ basis[:j]
            nrm = np.sqrt(np.sum(v * v * w))
            if nrm < 1e-10:
                raise ValidationError("basis degenerated; reduce L or refine the grid")
            basis[j] = v / nrm
        basis.flags.writeable = False
        return basis

    @cached_property
    def basis_curves(self) -> tuple[Curve, ...]:
        return tuple(Curve(self.grid, row) for row in self.basis)

    @cached_property
    def rho_curve(self) -> Curve:
        return Curve(self.grid, self.rho_coeffs @ self.basis)

    def curve_from_coeffs(self, coeffs) -> Curve:
        """Curve sum_l c_l e_l from leading basis coefficients."""
        c = np.asarray(coeffs, dtype=float)
        if c.size > self.L:
            raise ValidationError(f"at most L={self.L} coefficients supported")
        return Curve(self.grid, c @ self.basis[: c.size])

    def x_coefficients(self, x: Curve) -> np.ndarray:
        """True-basis coordinates <x, e_l> for l = 1..L."""
        ensure_same_grid(self, x)
        return self.basis @ (self.grid.weights * x.values)


# ---------------------------------------------------------------------------
# sampling


def replicate_rng(seed: int, *indices: int) -> np.random.Generator:
    """Deterministic per-replicate stream derived from (seed, indices)."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), *(int(i) for i in indices)])
    )


def _draw_xi(rng: np.random.Generator, law: str, shape) -> np.ndarray:
    if law == "gaussian":
        return rng.standard_normal(shape)
    if law == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), shape)
    return rng.integers(0, 2, shape).astype(float) * 2.0 - 1.0


def kl_sample(model: SpectralModel, rng: np.random.Generator) -> Curve:
    """One draw X = sum_{l<=L} sqrt(lam_l) xi_l e_l."""
    xi = _draw_xi(rng, model.xi_law, model.L)
    return Curve(model.grid, (np.sqrt(model.lambdas) * xi) @ model.basis)


def generate_dataset(
    model: SpectralModel, n: int, rng: np.random.Generator
) -> tuple[CurveMatrix, np.ndarray]:
    """n i.i.d. pairs (X_i, Y_i) with Y = <rho, X> + Normal(0, noise_sd^2)."""
    if n < 1:
        raise ValidationError("need n >= 1")
    xi = _draw_xi(rng, model.xi_law, (n, model.L))
    values = (xi * np.sqrt(model.lambdas)) @ model.basis
    weighted_rho = model.grid.weights * model.rho_curve.values
    y = values @ weighted_rho
    if model.noise_sd > 0:
        y = y + model.noise_sd * rng.standard_normal(n)
    return CurveMatrix(model.grid, values), y


# ---------------------------------------------------------------------------
# truth-side quantities


@dataclass(frozen=True)
class TrueNormalizers:
    k_n: int
    s_n: float
    t_n_x: float | None


def true_normalizers(
    model: SpectralModel, cn: float, filt: FilterSpec, x: Curve | None = None
) -> TrueNormalizers:
    """Nonrandom rank k_n and the population normalizers at that rank."""
    k_n = select_kn(model.lambdas, cn)
    coeffs = None if x is None else model.x_coefficients(x)[:k_n]
    norms = normalizers(model.lambdas[:k_n], replace(filt, cn=cn), coeffs)
    return TrueNormalizers(k_n=k_n, s_n=norms.s, t_n_x=norms.t)


def truncation_bias(model: SpectralModel, k: int, x: Curve | None = None) -> float:
    """Tail size left by a rank-k projection of rho.

    Expected-predictor form sqrt(sum_{l>k} lam_l rho_l^2), or the signed
    magnitude |sum_{l>k} rho_l <x, e_l>| at a fixed x.
    """
    if k < 0:
        raise ValidationError("rank must be nonnegative")
    if k >= model.L:
        return 0.0
    if x is None:
        tail = model.lambdas[k:] * model.rho_coeffs[k:] ** 2
        return float(np.sqrt(np.sum(tail)))
    coeff = model.x_coefficients(x)
    return float(abs(np.sum(model.rho_coeffs[k:] * coeff[k:])))


def t_normalizer_profile(
    decay: EigenDecay, k_max: int, beta: float | None = None, x_squared=None
) -> np.ndarray:
    """t_{k,x} = sqrt(sum_{j<=k} x_j^2 / lam_j) for k = 1..k_max.

    Uses the plain spectral-truncation weights; bounded iff x lies in
    the range of the square-root covariance.
    """
    lam = decay.values(k_max)
    if beta is not None:
        x2 = power_squared_coeffs(beta, k_max)
    else:
        x2 = np.asarray(x_squared, dtype=float)
        if x2.size < k_max:
            raise ValidationError("x_squared shorter than k_max")
        x2 = x2[:k_max]
    return np.sqrt(np.cumsum(x2 / lam))


def loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    return float(np.polyfit(np.log(np.asarray(xs, float)), np.log(np.asarray(ys, float)), 1)[0])


# ---------------------------------------------------------------------------
# Monte Carlo experiments


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated interval-coverage run; rows keep per-replicate detail.

    ``ks_statistic`` is the two-sided Kolmogorov-Smirnov D of the
    standardized errors against N(0, 1) (``normal_ks_statistic``; no
    p-value), or None when no replicate succeeded or an error is not finite.
    """

    nominal_level: float
    n: int
    replicates: int
    empirical_coverage: float
    mean_half_width: float | None
    ks_statistic: float | None
    bias_summary: float | None
    seed: int
    n_failed: int
    x_rkhs_sup: float | None
    rows: tuple[dict, ...]

    def to_dict(self) -> dict:
        out = {
            "nominal_level": self.nominal_level,
            "n": self.n,
            "replicates": self.replicates,
            "empirical_coverage": self.empirical_coverage,
            "mean_half_width": self.mean_half_width,
            "ks_statistic": self.ks_statistic,
            "bias_summary": self.bias_summary,
            "seed": self.seed,
            "n_failed": self.n_failed,
        }
        if self.x_rkhs_sup is not None:
            out["x_rkhs_sup"] = self.x_rkhs_sup
        return out


def _check_run(replicates: int, seed: int, threads: int, level: float | None = None) -> None:
    if level is not None and not 0 < level < 1:
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")


def _run_indexed(worker, count: int, threads: int) -> list:
    # more workers than tasks or cores only adds threads that wait
    workers = min(threads, count, os.cpu_count() or 1)
    if workers <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(count)))


def _interval_hit(lo: float, hi: float, target: float, center: float) -> bool:
    slack = COVERAGE_SLACK * max(1.0, abs(center))
    return bool(lo - slack <= target <= hi + slack)


def _standardized(n: int, err: float, denom: float) -> float:
    if denom > 0:
        return float(np.sqrt(n) * err / denom)
    return 0.0 if err == 0 else float("inf")


def normal_ks_statistic(sample: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov D of ``sample`` against N(0, 1).

    Same arithmetic, in the same order, as ``scipy.stats.kstest(sample,
    "norm").statistic``, so the two are bit-equal; no p-value is computed.
    """
    x = np.sort(sample)
    n = x.size
    c = ndtr(x)
    return float(max((np.arange(1.0, n + 1) / n - c).max(), (c - np.arange(0.0, n) / n).max()))


def _aggregate(rows, level, n, replicates, seed, x_rkhs_sup=None) -> CoverageReport:
    ok = [r for r in rows if not r["failed"]]
    n_failed = len(rows) - len(ok)
    if ok:
        coverage = float(np.mean([r["hit"] for r in ok]))
        half = float(np.mean([r["half_width"] for r in ok]))
        bias = float(np.mean([r["bias"] for r in ok]))
        errs = np.array([r["std_error"] for r in ok])
        ks = normal_ks_statistic(errs) if np.all(np.isfinite(errs)) else None
    else:
        coverage, half, bias, ks = 0.0, None, None, None
    return CoverageReport(
        nominal_level=level,
        n=n,
        replicates=replicates,
        empirical_coverage=coverage,
        mean_half_width=half,
        ks_statistic=ks,
        bias_summary=bias,
        seed=seed,
        n_failed=n_failed,
        x_rkhs_sup=x_rkhs_sup,
        rows=tuple(rows),
    )


def _interval_experiment(model, x, n, cn, filt, level, replicates, seed, threads):
    """The replicate loop of both interval experiments.

    With ``x`` None each replicate draws X_new after its dataset and uses
    the s_hat pivot; otherwise it targets <rho, x> with the t_hat pivot
    and records t_hat. Both scale the standardized error by the pivot the
    interval used.
    """
    _check_run(replicates, seed, threads, level)
    filt = replace(filt, cn=cn)
    k_n = select_kn(model.lambdas, cn)
    # the row fields a failed replicate leaves None
    blank = ["center", "half_width", "std_error", "bias", "d_n"] + ([] if x is None else ["t_hat"])
    if x is None:
        pivot, min_pairs, rkhs_sup = "s_hat", 0, None
        rho_tail = model.rho_coeffs[k_n:]
    else:
        # the projection bias reads up to k_n eigenvectors
        pivot, min_pairs = "t_hat", k_n
        x_coeff = model.x_coefficients(x)
        rkhs_sup = float(np.max(x_coeff**2 / model.lambdas))
        true_proj = float(np.sum(model.rho_coeffs[:k_n] * x_coeff[:k_n]))
        w = model.grid.weights

    def worker(rep: int) -> dict:
        rng = replicate_rng(seed, rep)
        sample, y = generate_dataset(model, n, rng)
        x_new = kl_sample(model, rng) if x is None else x
        target = inner_product(model.rho_curve, x_new)
        row = {"replicate": rep, "failed": False, "hit": False,
               **dict.fromkeys(blank), "error": ""}
        try:
            ft = fit(sample, y, filt, center=False, min_pairs=min_pairs)
            row["d_n"] = ft.d_n
            iv = prediction_interval(ft, x_new, level, pivot)
        except (DegenerateFitError, ValidationError) as exc:
            row["failed"] = True
            row["error"] = str(exc)
            return row
        row["center"] = iv.center
        row["half_width"] = iv.half_width
        row["hit"] = _interval_hit(iv.lo, iv.hi, target, iv.center)
        row["std_error"] = _standardized(n, iv.center - target, ft.sigma_hat * iv.normalizer)
        if x is None:
            # the deterministic truncation-bias component at the rank k_n
            row["bias"] = -float(np.sum(rho_tail * model.x_coefficients(x_new)[k_n:]))
            return row
        row["t_hat"] = iv.normalizer
        # empirical-vs-true projection of rho at the nonrandom rank
        kk = min(k_n, int(np.count_nonzero(ft.decomposition.eigenvalues > 0)))
        ehat = ft.decomposition.vectors_matrix[:kk]
        rho_on_ehat = ehat @ (w * model.rho_curve.values)
        x_on_ehat = ehat @ (w * x.values)
        row["bias"] = float(np.sum(rho_on_ehat * x_on_ehat) - true_proj)
        return row

    rows = _run_indexed(worker, replicates, threads)
    return _aggregate(rows, level, n, replicates, seed, x_rkhs_sup=rkhs_sup)


def coverage_experiment(
    model: SpectralModel,
    n: int,
    cn: float,
    filt: FilterSpec,
    level: float,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> CoverageReport:
    """Interval coverage for the random new-predictor target <rho, X_new>.

    Each replicate draws a fresh dataset and one extra predictor, fits
    with the supplied filter (threshold cn), and records the hit, the
    standardized error sqrt(n)(Yhat - <rho, X_new>)/(sigma_hat s_hat),
    and the deterministic truncation-bias component at the nonrandom
    rank k_n.
    """
    return _interval_experiment(model, None, n, cn, filt, level, replicates, seed, threads)


def fixed_x_experiment(
    model: SpectralModel,
    x: Curve,
    n: int,
    cn: float,
    filt: FilterSpec,
    level: float,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> CoverageReport:
    """Interval coverage for the fixed target <rho, x> with the t_hat pivot.

    Replicates with a zero normalizer (x orthogonal to the retained
    eigenspace) count as failures. The random projection bias
    <(Pi_hat - Pi) rho, x> at rank k_n is estimated per replicate
    through the model's true eigenbasis.
    """
    return _interval_experiment(model, x, n, cn, filt, level, replicates, seed, threads)


# ---------------------------------------------------------------------------
# norm-topology divergence demo


@dataclass(frozen=True)
class NormDivergenceReport:
    """Monte Carlo trend of the norm error under a growing design."""

    rows: tuple[dict, ...]
    diverging: bool
    replicates: int
    seed: int

    def to_dict(self) -> dict:
        return {
            "rows": list(self.rows),
            "diverging": self.diverging,
            "replicates": self.replicates,
            "seed": self.seed,
        }


def rank_threshold(lambdas, k: int) -> float:
    """Threshold sitting between the k-th and (k+1)-th true eigenvalues."""
    lam = np.asarray(lambdas, dtype=float)
    if not 1 <= k < lam.size:
        raise ValidationError(f"rank {k} needs 1 <= k < {lam.size}")
    return float(np.sqrt(lam[k - 1] * lam[k]))


def rank_power_cn_rule(model: SpectralModel, exponent: float):
    """Threshold rule targeting an effective rank of about n**exponent."""

    def rule(n: int) -> float:
        if n < 1:
            raise ValidationError(f"sample size must be >= 1, got {n}")
        if exponent * np.log(n) >= np.log(model.L):
            # the rank is capped at L - 1; n**exponent may overflow
            k = model.L - 1
        else:
            k = min(max(1, int(round(n**exponent))), model.L - 1)
        return rank_threshold(model.lambdas, k)

    return rule


def norm_divergence_demo(
    model: SpectralModel,
    n_grid,
    cn_rule,
    filt: FilterSpec,
    replicates: int,
    seed: int,
    threads: int = 1,
) -> NormDivergenceReport:
    """Track ||rho_hat - rho|| and sqrt(n)||rho_hat - rho||/s_hat over n.

    The candidate-normalized quantity keeps growing as the retained rank
    increases; the report flags divergence when the ratio between
    consecutive grid values exceeds 1 in (at least) the final two steps.
    """
    ns = [int(v) for v in n_grid]
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValidationError("n_grid must be strictly increasing with >= 2 entries")
    _check_run(replicates, seed, threads)

    rho = model.rho_curve
    rows = []
    for n in ns:
        cn = float(cn_rule(n)) if callable(cn_rule) else float(cn_rule)
        filt_n = replace(filt, cn=cn)

        def worker(rep: int, n=n, filt_n=filt_n) -> tuple:
            rng = replicate_rng(seed, n, rep)
            sample, y = generate_dataset(model, n, rng)
            try:
                ft = fit(sample, y, filt_n, center=False)
            except (DegenerateFitError, ValidationError):
                return (np.nan, np.nan, np.nan)
            err = norm(ft.rho_hat - rho)
            return (err, np.sqrt(n) * err / ft.s_hat, ft.d_n)

        results = np.array(_run_indexed(worker, replicates, threads))
        good = results[~np.isnan(results[:, 0])]
        rows.append(
            {
                "n": n,
                "cn": cn,
                "mean_norm_error": float(np.mean(good[:, 0])) if good.size else None,
                "mean_normalized": float(np.mean(good[:, 1])) if good.size else None,
                "mean_d_n": float(np.mean(good[:, 2])) if good.size else None,
                "n_failed": int(len(results) - len(good)),
            }
        )

    normalized = [r["mean_normalized"] for r in rows]
    ratios = [
        b / a if (a and b and a > 0) else float("nan")
        for a, b in zip(normalized, normalized[1:])
    ]
    tail = ratios[-2:] if len(ratios) >= 2 else ratios
    diverging = bool(tail) and all(np.isfinite(r) and r > 1 for r in tail)
    if normalized[-1] is None or normalized[-1] < 1e-8:
        # roundoff-sized errors (exact recovery) are not divergence
        diverging = False
    return NormDivergenceReport(
        rows=tuple(rows), diverging=diverging, replicates=replicates, seed=seed
    )


# ---------------------------------------------------------------------------
# deterministic diagnostics


@dataclass(frozen=True)
class VarianceBoundReport:
    """Growth diagnostic for the fixed-x projection-bias variance."""

    k_grid: tuple[int, ...]
    values: tuple[float, ...]
    reference: tuple[float, ...]
    inner_sums: np.ndarray

    def to_dict(self) -> dict:
        return {
            "k_grid": list(self.k_grid),
            "values": list(self.values),
            "reference": list(self.reference),
        }


def variance_lower_bound(
    model: SpectralModel, k_grid, beta: float | None = None, x_squared=None
) -> VarianceBoundReport:
    """Evaluate sum_{j<=k} lam_j rho_j^2 sum_{l<j} lam_l x_l^2/(lam_j-lam_l)^2.

    Also returns the comparison series sum_{j<=k} j^2 x_j^2 rho_j^2
    (the divergent reference when x follows a power law) and the raw
    inner sums for growth-rate inspection.
    """
    ks = [int(k) for k in k_grid]
    if not ks or any(k < 1 for k in ks):
        raise ValidationError("k_grid must contain positive ranks")
    max_k = max(ks)
    lam = model.decay.values(max_k)
    if np.unique(lam).size != lam.size:
        raise ValidationError("repeated eigenvalues make the inner sum singular")
    rho = model.rho.values(max_k)
    if beta is not None:
        x2 = power_squared_coeffs(beta, max_k)
    else:
        x2 = np.asarray(x_squared, dtype=float)
        if x2.size < max_k:
            raise ValidationError("x_squared shorter than max(k_grid)")
        x2 = x2[:max_k]

    inner = np.zeros(max_k)
    for j in range(1, max_k):
        diff = lam[j] - lam[:j]
        inner[j] = float(np.sum(lam[:j] * x2[:j] / diff**2))
    totals = np.cumsum(lam * rho**2 * inner)
    j_idx = np.arange(1, max_k + 1, dtype=float)
    reference = np.cumsum(j_idx**2 * x2 * rho**2)

    return VarianceBoundReport(
        k_grid=tuple(ks),
        values=tuple(float(totals[k - 1]) for k in ks),
        reference=tuple(float(reference[k - 1]) for k in ks),
        inner_sums=inner,
    )


@dataclass(frozen=True)
class ConditionUReport:
    """Partial sums of sum_j rho_j^2 with a last-decade convergence flag.

    last_decade_fraction is the share of the J-term total contributed by
    the last max(1, J // 10) terms (the final term alone when J < 10);
    convergent is set when that share is at most 1%.
    """

    partial_sums: np.ndarray
    convergent: bool
    last_decade_fraction: float
    J: int

    def to_dict(self) -> dict:
        return {
            "partial_sums": self.partial_sums.tolist(),
            "convergent": self.convergent,
            "last_decade_fraction": self.last_decade_fraction,
            "J": self.J,
        }


def condition_u_diagnostic(model: SpectralModel, J: int) -> ConditionUReport:
    """Identifiability diagnostic: partial sums of the squared coefficients.

    The window is the last max(1, J // 10) of the J terms, so the final
    term alone when J < 10. Convergence is flagged when the window adds
    at most 1% of the J-term total; a heuristic, since convergence is not
    decidable from finitely many terms. An all-zero series reports a
    fraction of 0 and is convergent. Otherwise J = 1 makes the window the
    whole series, so the fraction is 1 and the result is never convergent:
    a consequence of the heuristic, not a claim about the series.
    """
    if not 1 <= J <= model.L:
        raise ValidationError(f"J must satisfy 1 <= J <= L={model.L}")
    rho = model.rho_coeffs[:J]
    sums = np.cumsum(rho**2)
    start = J - max(1, J // 10)
    before = sums[start - 1] if start > 0 else 0.0
    total = sums[-1]
    fraction = float((total - before) / total) if total > 0 else 0.0
    return ConditionUReport(
        partial_sums=sums,
        convergent=fraction <= 0.01,
        last_decade_fraction=fraction,
        J=J,
    )


@dataclass(frozen=True)
class EigenInequalityReport:
    """Outcome of the convexity inequality sweep on an eigenvalue sequence."""

    pairwise_ok: bool
    tail_ok: bool
    first_pairwise_violation: tuple[int, int] | None
    first_tail_violation: int | None
    start_index: int
    length: int

    @property
    def ok(self) -> bool:
        return self.pairwise_ok and self.tail_ok

    def to_dict(self) -> dict:
        return {
            "pairwise_ok": self.pairwise_ok,
            "tail_ok": self.tail_ok,
            "first_pairwise_violation": self.first_pairwise_violation,
            "first_tail_violation": self.first_tail_violation,
            "start_index": self.start_index,
            "length": self.length,
        }


def eigen_inequality_check(lambdas, start_index: int = 1) -> EigenInequalityReport:
    """Verify j lam_j >= k lam_k (j < k) and sum_{j>=k} lam_j <= (k+1) lam_k.

    Both sweeps run over 1-based indices >= start_index (the source
    inequalities are asymptotic, so callers may exclude a finite prefix);
    tail sums are truncated at the end of the sequence. Comparisons allow
    1e-9 relative slack so exact-equality cases do not flag.
    """
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ValidationError("need a 1-d sequence with >= 2 eigenvalues")
    if not np.all(lam > 0) or not np.all(np.diff(lam) < 0):
        raise ValidationError("eigenvalues must be strictly decreasing, positive")
    if not 1 <= start_index <= lam.size:
        raise ValidationError("start_index out of range")
    s = start_index - 1
    idx = np.arange(1, lam.size + 1, dtype=float)
    jl = idx * lam
    slack = 1.0 + 1e-9

    first_pair = None
    running_min = jl[s]
    running_arg = s
    for k in range(s + 1, lam.size):
        if jl[k] > running_min * slack:
            first_pair = (running_arg + 1, k + 1)
            break
        if jl[k] < running_min:
            running_min = jl[k]
            running_arg = k

    tails = np.cumsum(lam[::-1])[::-1]
    bad = np.flatnonzero(tails[s:] > (idx[s:] + 1) * lam[s:] * slack)
    first_tail = int(bad[0]) + start_index if bad.size else None

    return EigenInequalityReport(
        pairwise_ok=first_pair is None,
        tail_ok=first_tail is None,
        first_pairwise_violation=first_pair,
        first_tail_violation=first_tail,
        start_index=start_index,
        length=int(lam.size),
    )


# ---------------------------------------------------------------------------
# config plumbing


def decay_from_config(cfg: dict) -> EigenDecay:
    kind = config.kind(cfg, "decay", {"power": (("a",), ()), "geometric": (("r",), ())})
    return EigenDecay(kind, config.value(cfg, "a" if kind == "power" else "r", "decay", float))


def rho_from_config(cfg: dict) -> CoeffRule:
    kind = config.kind(cfg, "rho", {
        "power": (("exponent",), ("normalize", "scale")),
        "finite": (("coeffs",), ("normalize",)),
    })
    normalize = config.value(cfg, "normalize", "rho", bool, False)
    if kind == "power":
        return CoeffRule.power(
            config.value(cfg, "exponent", "rho", float),
            normalize=normalize,
            scale=config.value(cfg, "scale", "rho", float, 1.0),
        )
    return CoeffRule.finite(config.numbers(cfg, "coeffs", "rho", float), normalize=normalize)


def model_from_config(cfg: dict) -> SpectralModel:
    """Build a SpectralModel from the shared config fields."""
    grid_points = config.value(cfg, "grid_points", "config", int, 101)
    return SpectralModel(
        grid=make_trapezoid_grid(0.0, 1.0, grid_points),
        decay=decay_from_config(cfg.get("decay")),
        rho=rho_from_config(cfg.get("rho")),
        noise_sd=config.value(cfg, "noise_sd", "config", float, 0.0),
        xi_law=config.value(cfg, "xi", "config", str, "gaussian"),
        L=config.value(cfg, "L", "config", int, None),
    )


def x_from_config(model: SpectralModel, cfg: dict) -> Curve:
    """The fixed predictor: a basis curve, leading basis coefficients, or
    the power profile with squared coordinates j^-(1+beta)."""
    kind = config.kind(cfg, "x", {
        "basis": ((), ("index",)),
        "coeffs": ((), ("values",)),
        "power": (("beta",), ()),
    })
    if kind == "basis":
        index = config.value(cfg, "index", "x", int, 1)
        if not 1 <= index <= model.L:
            raise ValidationError(f"x basis index must be in [1, {model.L}]")
        return model.basis_curves[index - 1]
    if kind == "coeffs":
        return model.curve_from_coeffs(config.numbers(cfg, "values", "x", float, []))
    beta = config.value(cfg, "beta", "x", float)
    return model.curve_from_coeffs(np.sqrt(power_squared_coeffs(beta, model.L)))


def cn_rule_from_config(model: SpectralModel, cfg: dict):
    """Threshold rule n -> cn: a fixed value, or rank_power_cn_rule."""
    kind = config.kind(cfg, "cn_rule", {
        "fixed": (("value",), ()),
        "rank-power": ((), ("exponent",)),
    })
    if kind == "fixed":
        cn = config.value(cfg, "value", "cn_rule", float)
        return lambda n: cn
    return rank_power_cn_rule(model, config.value(cfg, "exponent", "cn_rule", float, 1 / 3))
