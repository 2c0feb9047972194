"""Ground-truth spectral models, data generation, and the Monte Carlo
experiments that probe the asymptotic claims at desk scale.

Simulated predictors follow a truncated expansion X = sum_l sqrt(lam_l)
xi_l e_l with unit-variance scores, responses Y = <rho, X> + eps. All
randomness flows from per-replicate generators derived from (seed,
replicate index), so serial and threaded runs agree byte for byte.
The near-normality check on the standardized errors is the two-sided
Kolmogorov-Smirnov statistic D against N(0, 1), with no p-value, computed
with ``kstest``'s arithmetic. Phi is ``funreg.normal.ndtr``, within 2**-51
of ``scipy.special.ndtr``; D has resolution 1/n, so it agrees with
``scipy.stats.kstest(errors, "norm").statistic`` to about an ulp.

``population(model, filt, x)`` is what the model and the filter f (with
its threshold cn) fix before any sample is drawn, for the true eigenpairs
(lam_l, e_l) and rho_l = <rho, e_l>. Every coverage and fixed-x report
carries it, last, as its ``population`` key, and it is also a report of
its own: ``population_report`` (``funreg simulate population``) gives the
block at each rank of a grid, with no sample drawn. Its fields:

* ``k_n``: the nonrandom rank, the largest p with lam_p + delta_p/2 >= cn
  (``filters.select_kn``), which d_n tracks in both CLTs.
* ``s_n`` = sqrt(sum_{j<=k_n} [lam_j f(lam_j)]^2): the random-x
  normalizer that s_hat estimates (sqrt(k_n) for truncation).
* ``t_n_x`` = sqrt(sum_{j<=k_n} lam_j f(lam_j)^2 <x, e_j>^2), fixed x
  only: the normalizer that t_hat(x) estimates. It stays bounded as k_n
  grows iff x is in the range of Gamma^{1/2}: the rate depends on x.
* ``tail_bias``: what the rank-k_n projection leaves of rho,
  sqrt(sum_{l>k_n} lam_l rho_l^2) for a random x, or the signed
  sum_{l>k_n} rho_l <x, e_l> at a fixed x. The CLTs centre at the
  projection, so it must be small against the half width; this is where
  the smoothness of rho enters the rate.
* ``h3_sup`` = sup over [cn, lam_1] of |1 - g(s)| for the gain g(s) = s f(s)
  (``filters.gain``): the attenuation that hypothesis H3 asks to be
  o(1/sqrt(n)). g rises with s for every kind, so it is 1 - g(cn): 0 for
  truncation, alpha/(cn + alpha) for ridge, alpha/(cn^2 + alpha) for tikhonov.
* ``first_pairwise_violation`` and ``first_tail_violation``: the
  eigenvalue inequalities j lam_j >= k lam_k (j < k) and
  sum_{j>=k} lam_j <= (k+1) lam_k that follow from the convexity of
  lam_l assumed in the paper, swept over the L model eigenvalues with
  1e-9 relative slack (tail sums end at L). The first is the first k with
  k lam_k above min_{j<k} j lam_j, paired with the j of that minimum; the
  second is the first k whose tail sum is too large. Each is None when
  its inequality holds.

The block also holds, outside its JSON, ``x_rkhs_sup`` =
max_l <x, e_l>^2 / lam_l (a top-level key of fixed-x and population
reports).

Every interval row, on either pivot, records as ``bias`` the error that a
noise-free refit of its sample would make at its target x (the drawn X_new
or the fixed x). An uncentered fit has <Delta_0, e_j> = lam_j <rho, e_j>,
so over its retained pairs (lam_j, e_j)

    bias = sum_{j<=d_n} g(lam_j) <rho, e_j> <e_j, x> - <rho, x>

for the gain g of ``filters.gain``: the truncation tail, the
eigenprojection error and the filter's shrinkage.

Every Monte Carlo experiment runs its replicates through one driver,
``_replicates``, which draws and fits each dataset, spreads the replicates
over threads and records a failed fit as a failed row; an experiment only
fills its row fields from a fit. Every report's JSON is ``_as_dict``.
The ``*_from_config`` functions at the end read their fields through
``config``; ``experiment_from_config`` is the one reader of a whole
``simulate`` config, with each experiment's keys in ``EXPERIMENTS``.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cached_property

import numpy as np

from . import config
from .errors import DegenerateFitError, ValidationError
from .estimator import fit, normalizers, prediction_interval
from .filters import FilterSpec, filter_from_config, gain, h3_sup_deviation, select_kn
from .hilbert import (
    Curve,
    CurveMatrix,
    Grid,
    inner_product,
    make_trapezoid_grid,
    norm,
)
from .normal import ndtr

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
        # the squared norm of the coefficients must be finite
        with np.errstate(over="ignore"):
            if self.kind == "power":
                j = np.arange(1, count + 1, dtype=float)
                out = j ** -float(self.exponent)
            else:
                out = np.zeros(count)
                m = min(count, len(self.coeffs))
                out[:m] = self.coeffs[:m]
            total = np.sqrt(np.sum(out**2))
        if not np.isfinite(total):
            raise ValidationError("rho coefficients overflow: their squared norm is not finite")
        if self.normalize:
            if total == 0:
                raise ValidationError("cannot normalize all-zero coefficients")
            out = out / total
        return out

    @staticmethod
    def power(exponent: float, normalize: bool = False) -> "CoeffRule":
        return CoeffRule("power", exponent=exponent, normalize=normalize)

    @staticmethod
    def finite(coeffs, normalize: bool = False) -> "CoeffRule":
        return CoeffRule("finite", coeffs=tuple(coeffs), normalize=normalize)


def power_squared_coeffs(beta: float, count: int) -> np.ndarray:
    """Squared coordinates x_j^2 = j^-(1+beta); inf where they overflow."""
    j = np.arange(1, count + 1, dtype=float)
    with np.errstate(over="ignore"):
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
    def basis_curves(self) -> CurveMatrix:
        """e_1..e_L as a ``CurveMatrix`` sharing the ``basis`` buffer."""
        return CurveMatrix(self.grid, self.basis)

    @cached_property
    def rho_curve(self) -> Curve:
        return self.curve_from_coeffs(self.rho_coeffs)

    def curve_from_coeffs(self, coeffs) -> Curve:
        """Curve sum_l c_l e_l from leading basis coefficients: the one such map."""
        c = np.asarray(coeffs, dtype=float)
        if c.size > self.L:
            raise ValidationError(f"at most L={self.L} coefficients supported")
        with np.errstate(over="ignore", invalid="ignore"):
            values = c @ self.basis[: c.size]
        return Curve(self.grid, values)


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
    return model.curve_from_coeffs(np.sqrt(model.lambdas) * xi)


def generate_dataset(
    model: SpectralModel, n: int, rng: np.random.Generator
) -> tuple[CurveMatrix, np.ndarray]:
    """n i.i.d. pairs (X_i, Y_i) with Y = <rho, X> + Normal(0, noise_sd^2)."""
    if n < 1:
        raise ValidationError("need n >= 1")
    xi = _draw_xi(rng, model.xi_law, (n, model.L))
    values = (xi * np.sqrt(model.lambdas)) @ model.basis
    # fresh rows, so the matrix holds them without a copy
    values.flags.writeable = False
    sample = CurveMatrix(model.grid, values)
    y = sample.inner_products(model.rho_curve)
    if model.noise_sd > 0:
        with np.errstate(over="ignore"):
            y = y + model.noise_sd * rng.standard_normal(n)
        if not np.all(np.isfinite(y)):
            raise ValidationError("responses overflow: noise_sd is too large to simulate")
    return sample, y


# ---------------------------------------------------------------------------
# the population block


def _as_dict(report, skip=()) -> dict:
    """The JSON form of every report: its dataclass fields in declaration
    order, but those in ``skip``, with tuples and arrays as lists."""
    out = {}
    for f in fields(report):
        if f.name not in skip:
            v = getattr(report, f.name)
            out[f.name] = v.tolist() if isinstance(v, np.ndarray) else (
                list(v) if isinstance(v, tuple) else v)
    return out


@dataclass(frozen=True)
class Population:
    """The population side of an experiment; see the module docstring.

    ``x_rkhs_sup`` is None for a random x and is left out of ``to_dict``,
    as is ``t_n_x`` when None.
    """

    k_n: int
    s_n: float
    t_n_x: float | None
    tail_bias: float
    h3_sup: float
    first_pairwise_violation: tuple[int, int] | None
    first_tail_violation: int | None
    x_rkhs_sup: float | None

    def to_dict(self) -> dict:
        skip = ("x_rkhs_sup",) + (("t_n_x",) if self.t_n_x is None else ())
        return _as_dict(self, skip)


def population(model: SpectralModel, filt: FilterSpec, x: Curve | None = None) -> Population:
    """The population block of ``model`` under ``filt`` (threshold filt.cn),
    for a random new predictor or, given ``x``, at that fixed point. An x
    whose ``x_rkhs_sup``, ``t_n_x`` or ``tail_bias`` overflows raises
    ValidationError."""
    lam, rho = model.lambdas, model.rho_coeffs
    k_n = select_kn(lam, filt.cn)
    # a fixed x too large for its sums is refused, not reported as Infinity
    with np.errstate(over="ignore", invalid="ignore"):
        if x is None:
            coeffs = rkhs_sup = None
            tail = float(np.sqrt(np.sum(lam[k_n:] * rho[k_n:] ** 2)))
        else:
            x_coeff = model.basis_curves.inner_products(x)
            coeffs = x_coeff[:k_n]
            rkhs_sup = float(np.max(x_coeff**2 / lam))
            tail = float(np.sum(rho[k_n:] * x_coeff[k_n:]))
        norms = normalizers(lam[:k_n], filt, coeffs)
    if x is not None and not np.all(np.isfinite([rkhs_sup, norms.t, tail])):
        raise ValidationError("fixed x is too large: x_rkhs_sup, t_n_x or tail_bias overflows")

    slack = 1.0 + 1e-9
    idx = np.arange(1, lam.size + 1, dtype=float)
    jl = idx * lam
    # k breaks the pairwise inequality when k lam_k exceeds the running
    # minimum of j lam_j over j < k; j is where that minimum first occurs
    up = np.flatnonzero(jl[1:] > np.minimum.accumulate(jl)[:-1] * slack)
    pairwise = (int(np.argmin(jl[: up[0] + 1])) + 1, int(up[0]) + 2) if up.size else None
    tails = np.cumsum(lam[::-1])[::-1]
    bad = np.flatnonzero(tails > (idx + 1) * lam * slack)

    return Population(
        k_n=k_n,
        s_n=norms.s,
        t_n_x=norms.t,
        tail_bias=tail,
        h3_sup=h3_sup_deviation(filt),
        first_pairwise_violation=pairwise,
        first_tail_violation=int(bad[0]) + 1 if bad.size else None,
        x_rkhs_sup=rkhs_sup,
    )


# ---------------------------------------------------------------------------
# Monte Carlo experiments


@dataclass(frozen=True)
class CoverageReport:
    """Aggregated interval-coverage run; rows keep per-replicate detail.

    ``ks_statistic`` is the two-sided Kolmogorov-Smirnov D of the
    standardized errors against N(0, 1) (``normal_ks_statistic``; no
    p-value), or None when no replicate succeeded or an error is not finite.

    ``bias_summary`` is the mean of the successful rows' ``bias``,
    sum_{j<=d_n} g(lam_j) <rho, e_j> <e_j, x> - <rho, x>.

    ``population`` is the run's ``Population``, written last by ``to_dict``;
    the module docstring lists its fields and what each probes. Its
    ``x_rkhs_sup`` is the top-level key.
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
    population: Population
    rows: tuple[dict, ...]

    def to_dict(self) -> dict:
        out = _as_dict(self, ("population", "rows"))
        if self.population.x_rkhs_sup is not None:
            out["x_rkhs_sup"] = self.population.x_rkhs_sup
        out["population"] = self.population.to_dict()
        return out

    @property
    def all_failed(self) -> bool:
        return self.n_failed == self.replicates


def _check_run(replicates: int, seed: int, threads: int, level: float | None = None) -> None:
    if level is not None and not 0 < level < 1:
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    if seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    if threads < 1:
        raise ValidationError(f"threads must be >= 1, got {threads}")


def _replicates(model, n, filt, key, count, threads, blank, read) -> list[dict]:
    """One row per replicate ``rep``, fitted uncentered on n pairs drawn from
    ``replicate_rng(*key, rep)``: ``replicate``, ``failed``, the fields of
    ``blank`` (``d_n`` among them, set once the fit succeeds) and ``error``.
    ``read(ft, rng, row)`` fills the rest; a DegenerateFitError or
    ValidationError from the fit or ``read`` fails the row with its message.
    """

    def one(rep: int) -> dict:
        rng = replicate_rng(*key, rep)
        sample, y = generate_dataset(model, n, rng)
        row = {"replicate": rep, "failed": False, **blank, "error": ""}
        try:
            ft = fit(sample, y, filt, center=False)
            row["d_n"] = ft.d_n
            read(ft, rng, row)
        except (DegenerateFitError, ValidationError) as exc:
            row["failed"] = True
            row["error"] = str(exc)
        return row

    # more workers than tasks or cores only adds threads that wait; and each
    # worker's eigensolve also runs on BLAS's own threads, so a pool pays only
    # when BLAS runs one thread (OPENBLAS_NUM_THREADS=1): with BLAS at its
    # default on 2 cores, 2 workers gave about half the replicates/s of 1
    workers = min(threads, count, os.cpu_count() or 1)
    if workers <= 1:
        return [one(rep) for rep in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(count)))


def _mean(rows, key) -> float | None:
    """The mean of ``key`` over ``rows``, or None when there are none."""
    return float(np.mean([r[key] for r in rows])) if rows else None


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
    "norm").statistic``; no p-value is computed. Phi is ``funreg.normal.ndtr``,
    within 2**-51 of the ``scipy.special.ndtr`` that ``kstest`` calls; the
    tests check D bit-equal to ``kstest`` run with this Phi.
    """
    x = np.sort(sample)
    n = x.size
    c = np.array([ndtr(v) for v in x.tolist()])
    return float(max((np.arange(1.0, n + 1) / n - c).max(), (c - np.arange(0.0, n) / n).max()))


def _interval_experiment(model, x, n, cn, filt, level, replicates, seed, threads):
    """Both interval experiments: each replicate's row, read off its fit.

    With ``x`` None each replicate draws X_new after its fit and uses
    the s_hat pivot; otherwise it targets <rho, x> with the t_hat pivot
    and records t_hat. Both scale the standardized error by the pivot the
    interval used, and both record one ``bias`` (see the module docstring).
    A zero fixed x, whose t_hat is zero, is refused before any replicate,
    and so is one too large for the population block (``population``).
    """
    _check_run(replicates, seed, threads, level)
    if x is not None and not np.any(x.values):
        raise DegenerateFitError("x is the zero curve: its t_hat normalizer is zero")
    filt = replace(filt, cn=cn)
    pop = population(model, filt, x)
    pivot = "s_hat" if x is None else "t_hat"
    # the row fields a failed replicate leaves at these values
    blank = {"hit": False, **dict.fromkeys(["center", "half_width", "std_error", "bias", "d_n"])}
    if x is not None:
        blank["t_hat"] = None

    def read(ft, rng, row) -> None:
        x_new = kl_sample(model, rng) if x is None else x
        target = inner_product(model.rho_curve, x_new)
        iv = prediction_interval(ft, x_new, level, pivot)
        row["center"] = iv.center
        row["half_width"] = iv.half_width
        row["hit"] = _interval_hit(iv.lo, iv.hi, target, iv.center)
        row["std_error"] = _standardized(n, iv.center - target, ft.sigma_hat * iv.normalizer)
        # what a noise-free refit would predict, less the target
        dec = ft.decomposition
        g = gain(ft.filter, dec.eigenvalues[: ft.d_n], ft.filtered_values)
        coords = dec.eigenvectors.inner_products
        refit = np.sum(g * coords(model.rho_curve) * coords(x_new))
        row["bias"] = float(refit - target)
        if x is not None:
            row["t_hat"] = iv.normalizer

    rows = _replicates(model, n, filt, (seed,), replicates, threads, blank, read)
    ok = [r for r in rows if not r["failed"]]
    errs = np.array([r["std_error"] for r in ok])
    return CoverageReport(
        nominal_level=level,
        n=n,
        replicates=replicates,
        empirical_coverage=_mean(ok, "hit") if ok else 0.0,
        mean_half_width=_mean(ok, "half_width"),
        ks_statistic=normal_ks_statistic(errs) if ok and np.all(np.isfinite(errs)) else None,
        bias_summary=_mean(ok, "bias"),
        seed=seed,
        n_failed=len(rows) - len(ok),
        population=pop,
        rows=tuple(rows),
    )


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
    and the bias sum_{j<=d_n} g(lam_j) <rho, e_j> <e_j, X_new> -
    <rho, X_new>: the error of a noise-free refit of the same sample.
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

    A zero x raises DegenerateFitError, and an x too large for the
    population block ValidationError, before any replicate runs; a nonzero
    x orthogonal to the retained eigenspace fails each replicate. Each row's
    bias is sum_{j<=d_n} g(lam_j) <rho, e_j> <e_j, x> - <rho, x>.
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

    to_dict = _as_dict

    @property
    def all_failed(self) -> bool:
        """Every replicate failed at every sample size."""
        return all(row["n_failed"] == self.replicates for row in self.rows)


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
        # the rank is capped at L - 1; n**exponent may overflow, a float product only to inf
        if exponent * float(np.log(n)) >= np.log(model.L):
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
    # each n seeds its replicates' streams, which take no negative entropy
    if ns[0] < 1:
        raise ValidationError(f"n_grid entries must be >= 1, got {ns[0]}")
    _check_run(replicates, seed, threads)

    rho = model.rho_curve

    def read(ft, rng, row) -> None:
        row["norm_error"] = norm(ft.rho_hat - rho)
        row["normalized"] = np.sqrt(ft.n) * row["norm_error"] / ft.s_hat

    blank = dict.fromkeys(["norm_error", "normalized", "d_n"])
    rows = []
    for n in ns:
        cn = float(cn_rule(n))
        reps = _replicates(model, n, replace(filt, cn=cn), (seed, n), replicates, threads,
                           blank, read)
        ok = [r for r in reps if not r["failed"]]
        rows.append(
            {
                "n": n,
                "cn": cn,
                "mean_norm_error": _mean(ok, "norm_error"),
                "mean_normalized": _mean(ok, "normalized"),
                "mean_d_n": _mean(ok, "d_n"),
                "n_failed": len(reps) - len(ok),
            }
        )

    normalized = [r["mean_normalized"] for r in rows]
    ratios = [
        b / a if (a and b and a > 0) else float("nan")
        for a, b in zip(normalized, normalized[1:])
    ]
    diverging = all(np.isfinite(r) and r > 1 for r in ratios[-2:])
    if normalized[-1] is None or normalized[-1] < 1e-8:
        # roundoff-sized errors (exact recovery) are not divergence
        diverging = False
    return NormDivergenceReport(
        rows=tuple(rows), diverging=diverging, replicates=replicates, seed=seed
    )


# ---------------------------------------------------------------------------
# the population report


def condition_u(coeffs) -> tuple[np.ndarray, float, bool]:
    """Identifiability diagnostic: the partial sums of the squared
    coefficients, the share of their total that the last max(1, J // 10)
    of the J terms add (the final term alone when J < 10), and whether
    that share is at most 1%.

    The 1% rule is a heuristic, since convergence is not decidable from
    finitely many terms. An all-zero series has share 0 and is convergent.
    Otherwise J = 1 makes the window the whole series, so the share is 1
    and the result is never convergent: a consequence of the heuristic,
    not a claim about the series.
    """
    sums = np.cumsum(np.asarray(coeffs, dtype=float) ** 2)
    start = sums.size - max(1, sums.size // 10)
    before = sums[start - 1] if start > 0 else 0.0
    total = sums[-1]
    fraction = float((total - before) / total) if total > 0 else 0.0
    return sums, fraction, fraction <= 0.01


@dataclass(frozen=True)
class PopulationReport:
    """The population block per rank of a grid; see ``population_report``.

    ``x_rkhs_sup`` is None for a random x and is then left out of
    ``to_dict``. ``partial_sums``, ``last_decade_fraction`` and
    ``convergent`` are ``condition_u`` over the model's L coefficients.
    """

    x_rkhs_sup: float | None
    partial_sums: np.ndarray
    last_decade_fraction: float
    convergent: bool
    rows: tuple[dict, ...]

    all_failed = False  # deterministic: no replicate to fail

    def to_dict(self) -> dict:
        return _as_dict(self, ("x_rkhs_sup",) if self.x_rkhs_sup is None else ())


def population_report(
    model: SpectralModel, filt: FilterSpec, k_grid, x: Curve | None = None
) -> PopulationReport:
    """The population block at each rank k of ``k_grid``, with no sample drawn.

    Each row holds k, cn = ``rank_threshold(model.lambdas, k)`` and the
    fields of ``population(model, replace(filt, cn=cn), x)``: the block a
    coverage (x None) or fixed-x report run at that cn carries. The cn of
    ``filt`` itself is not read. The report also holds ``x_rkhs_sup`` for a
    fixed x, and condition U over the model's coefficients (``condition_u``).
    """
    ks = [int(k) for k in k_grid]
    if not ks:
        raise ValidationError("k_grid must be a nonempty list")
    rows = []
    for k in ks:
        cn = rank_threshold(model.lambdas, k)
        pop = population(model, replace(filt, cn=cn), x)
        rows.append({"k": k, "cn": cn, **pop.to_dict()})
    sums, fraction, convergent = condition_u(model.rho_coeffs)
    return PopulationReport(
        x_rkhs_sup=pop.x_rkhs_sup,
        partial_sums=sums,
        last_decade_fraction=fraction,
        convergent=convergent,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# config plumbing


def decay_from_config(cfg: dict) -> EigenDecay:
    kind = config.kind(cfg, "decay", {"power": (("a",), ()), "geometric": (("r",), ())})
    return EigenDecay(kind, config.value(cfg, "a" if kind == "power" else "r", "decay", float))


def rho_from_config(cfg: dict) -> CoeffRule:
    kind = config.kind(cfg, "rho", {
        "power": (("exponent",), ("normalize",)),
        "finite": (("coeffs",), ("normalize",)),
    })
    normalize = config.value(cfg, "normalize", "rho", bool, False)
    if kind == "power":
        return CoeffRule.power(config.value(cfg, "exponent", "rho", float), normalize=normalize)
    return CoeffRule.finite(config.numbers(cfg, "coeffs", "rho", float), normalize=normalize)


# the model's keys, which every experiment config holds beside its own
_MODEL_REQUIRED = ("decay", "rho")
_MODEL_OPTIONAL = ("noise_sd", "xi", "L", "grid_points")


def model_from_config(cfg: dict) -> SpectralModel:
    """Build a SpectralModel from the model's config fields."""
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
        "coeffs": (("values",), ()),
        "power": (("beta",), ()),
    })
    if kind == "basis":
        index = config.value(cfg, "index", "x", int, 1)
        if not 1 <= index <= model.L:
            raise ValidationError(f"x basis index must be in [1, {model.L}]")
        return model.basis_curves[index - 1]
    if kind == "coeffs":
        values = config.numbers(cfg, "values", "x", float)
        if not values:
            raise ValidationError("x.values must be a nonempty list")
        return model.curve_from_coeffs(values)
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


def _interval_from_config(cfg: dict, threads: int) -> CoverageReport:
    model = model_from_config(cfg)
    filt = filter_from_config(cfg["filter"])
    n = config.value(cfg, "n", "config", int)
    level = config.value(cfg, "level", "config", float)
    replicates = config.value(cfg, "replicates", "config", int)
    seed = config.value(cfg, "seed", "config", int)
    # the key table makes x required for fixed-x and unknown for coverage
    x = x_from_config(model, cfg["x"]) if "x" in cfg else None
    return _interval_experiment(model, x, n, filt.cn, filt, level, replicates, seed, threads)


def _norm_divergence_from_config(cfg: dict, threads: int) -> NormDivergenceReport:
    n_grid = config.numbers(cfg, "n_grid", "config", int)
    if not n_grid:
        raise ValidationError("n_grid must be a nonempty list")
    model = model_from_config(cfg)
    rule = cn_rule_from_config(model, cfg["cn_rule"])
    # placeholder threshold; the rule supplies the real value per n
    filt = filter_from_config(cfg["filter"], cn=rule(n_grid[0]))
    replicates = config.value(cfg, "replicates", "config", int)
    seed = config.value(cfg, "seed", "config", int)
    return norm_divergence_demo(model, n_grid, rule, filt, replicates, seed, threads)


def _population_from_config(cfg: dict, threads: int) -> PopulationReport:
    model = model_from_config(cfg)
    k_grid = config.numbers(cfg, "k_grid", "config", int)
    # placeholder threshold; population_report sets cn per rank
    filt = filter_from_config(cfg["filter"], cn=model.lambdas[0])
    x = x_from_config(model, cfg["x"]) if "x" in cfg else None
    return population_report(model, filt, k_grid, x)


# Each ``simulate`` experiment: its required and its optional config keys
# besides the model's, and its reader. The ones with replicates are the Monte
# Carlo experiments.
EXPERIMENTS = {
    "coverage": (("filter", "n", "level", "replicates", "seed"), (), _interval_from_config),
    "fixed-x": (("filter", "n", "level", "replicates", "seed", "x"), (), _interval_from_config),
    "norm-divergence": (
        ("filter", "n_grid", "cn_rule", "replicates", "seed"),
        (),
        _norm_divergence_from_config,
    ),
    "population": (("filter", "k_grid"), ("x",), _population_from_config),
}


def experiment_from_config(name: str, cfg, threads: int = 1):
    """Run the experiment ``name`` of ``EXPERIMENTS`` on its JSON config.

    Keys outside the model's and the experiment's are refused; the fields
    are then read in a fixed order, so a config with several faults always
    reports the same first one. ``threads`` spreads the replicates of a
    Monte Carlo experiment. Every report gives ``to_dict()``, its rows-CSV
    ``rows`` and ``all_failed``.
    """
    if name not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {name!r}")
    required, optional, run = EXPERIMENTS[name]
    config.section(cfg, "config", (*_MODEL_REQUIRED, *required), (*_MODEL_OPTIONAL, *optional))
    return run(cfg, threads)
