"""Spectral estimator, its CLT normalizers, and prediction intervals.

A fit centers the sample once (unless told not to) and reads those rows
X_c three times: for the covariance K = X_c'X_c / n, for the
cross-covariance Delta_n = X_c'(Y - Y_mean) / n and for the residuals.
The estimate is rho_hat = sum_{j<=d_n} f(lam_j) <Delta_n, e_j> e_j, where
d_n counts the empirical eigenvalues at or above the threshold; d_n and
the filtered values f(lam_j) are worked out once and kept on the fit.
Both CLT pivots are sums over that retained spectrum, computed by the
one kernel ``normalizers``:

    s_hat    = sqrt(sum_j [lam_j f(lam_j)]^2)             (random x)
    t_hat(x) = sqrt(sum_j lam_j f(lam_j)^2 <x, e_j>^2)    (fixed x)

Only two functions read them off a fit: ``fit`` keeps s_hat and the
residual scale sigma_hat, and ``prediction_interval`` computes t_hat(x),
with its zero floor, and reports the pivot it used as ``normalizer``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtri

from . import config
from .covariance import SpectralDecomposition, eigendecompose, empirical_covariance, spectral_gaps
from .errors import DegenerateFitError, ValidationError
from .filters import TRUNCATION, FilterSpec, effective_rank, filter_from_config, filter_to_config
from .filters import filter_values
from .hilbert import Curve, CurveMatrix, Grid, ensure_same_grid, inner_product
from .hilbert import norm as norm_of

# Relative tolerance for the stored filtered values and s_hat of a fit
# payload against the values recomputed from its eigenvalues and filter.
PAYLOAD_RTOL = 1e-9


class Normalizers(NamedTuple):
    """The pivot sums over one spectrum; see ``normalizers``."""

    filtered: np.ndarray
    s: float
    t: float | None
    peak: float


def normalizers(lam, filt: FilterSpec, coeffs=None, filtered=None) -> Normalizers:
    """The CLT pivot sums over the eigenvalues ``lam`` under ``filt``.

    Returns f(lam) (evaluated once, unless the caller passes the values
    it holds as ``filtered``); s = sqrt(sum [lam f(lam)]^2), exactly
    sqrt(d) for truncation; t = sqrt(sum lam f(lam)^2 c_j^2) for the
    coordinates c_j = <x, e_j> in ``coeffs``, else None; and peak =
    max sqrt(lam) f(lam), the largest per-mode weight of t.
    """
    lam = np.asarray(lam, dtype=float)
    f = filter_values(filt, lam) if filtered is None else filtered
    # lam f(lam) is exactly 1 on the support of truncation, not lam * (1/lam)
    xf = np.where(lam >= filt.cn, 1.0, 0.0) if filt.kind == TRUNCATION else lam * f
    t = None if coeffs is None else float(np.sqrt(np.sum(lam * f**2 * coeffs**2)))
    return Normalizers(f, float(np.sqrt(np.sum(xf**2))), t, float(np.max(np.sqrt(lam) * f)))


@dataclass(frozen=True)
class EstimatorFit:
    """Fitted coefficient curve, f(lam_j) of its d_n retained eigenvalues,
    normalizers and provenance."""

    rho_hat: Curve
    filtered_values: np.ndarray
    s_hat: float
    sigma_hat: float
    n: int
    decomposition: SpectralDecomposition
    filter: FilterSpec
    centered: bool
    x_mean: Curve
    y_mean: float

    @property
    def d_n(self) -> int:
        return self.filtered_values.size

    @property
    def grid(self) -> Grid:
        return self.rho_hat.grid


def predict(fit: EstimatorFit, x: Curve) -> float:
    """Point prediction <rho_hat, x>, plus the intercept for centered fits."""
    ensure_same_grid(fit.rho_hat, x)
    if fit.centered:
        return fit.y_mean + inner_product(fit.rho_hat, x - fit.x_mean)
    return inner_product(fit.rho_hat, x)


def _residual_sigma(rows: np.ndarray, y: np.ndarray, rho_hat: Curve, y_mean, d_n) -> float:
    """sqrt(sum_i (Y_i - Yhat_i)^2 / (n - d_n)) over rows centered as the fit's;
    the caller ensures n > d_n."""
    n = rows.shape[0]
    # row-wise inner_product: same products and weights, same reduction;
    # the weights multiply in place, so one (n, p) temporary is live
    prod = rho_hat.values * rows
    prod *= rho_hat.grid.weights
    preds = y_mean + np.sum(prod, axis=1)
    return float(np.sqrt(np.sum((y - preds) ** 2) / (n - d_n)))


def fit(
    sample: CurveMatrix | list[Curve],
    responses,
    filt: FilterSpec,
    center: bool = True,
    *,
    min_pairs: int = 0,
) -> EstimatorFit:
    """Fit the regularized functional regression on (sample, responses).

    Centering (the default) subtracts the empirical means from both the
    curves and the responses before forming the moment equation; disable
    it for data that is centered by construction. The fit's decomposition
    holds every eigenvalue and the eigenvectors of the d_n retained pairs,
    or of the first ``min_pairs`` positive pairs when that is more.
    """
    sample = CurveMatrix.of(sample)
    n = len(sample)
    if n < 2:
        raise ValidationError("need at least 2 observations to fit")
    y = np.asarray(responses, dtype=float)
    if y.ndim != 1 or y.size != n:
        raise ValidationError(f"got {y.size} responses for {n} curves")
    if not np.all(np.isfinite(y)):
        raise ValidationError("responses must be finite")

    cov = empirical_covariance(sample, center=center)
    # the covariance's rows: the sample centered once, or the sample itself
    rows = cov.samples.values
    x_mean = cov.mean if center else Curve.zeros(sample.grid)
    y_mean = float(y.mean()) if center else 0.0
    delta = Curve(sample.grid, rows.T @ (y - y_mean) / n)

    decomposition = eigendecompose(cov, filt.cn, min_pairs=min_pairs)
    d = effective_rank(decomposition, filt.cn)
    if d == 0:
        raise DegenerateFitError("threshold exceeds spectrum: no eigenvalue retained")
    norms = normalizers(decomposition.eigenvalues[:d], filt)
    norms.filtered.flags.writeable = False
    # coordinates over every held pair, then the retained ones
    coeff = decomposition.coefficients(delta)[:d]
    rho = Curve(sample.grid, (norms.filtered * coeff) @ decomposition.vectors_matrix[:d])

    if n > d:
        sigma = _residual_sigma(rows, y, rho, y_mean, d)
    else:
        # retained rank saturates the sample: rho_hat is still defined but
        # the residual scale has no degrees of freedom left
        sigma = float("nan")
    return EstimatorFit(
        rho_hat=rho,
        filtered_values=norms.filtered,
        s_hat=norms.s,
        sigma_hat=sigma,
        n=n,
        decomposition=decomposition,
        filter=filt,
        centered=center,
        x_mean=x_mean,
        y_mean=y_mean,
    )


@dataclass(frozen=True)
class PredictionInterval:
    """Symmetric CLT interval around the point prediction.

    ``normalizer`` is the value of the ``normalizer_kind`` pivot (s_hat or
    t_hat(x)) that scaled the half width.
    """

    center: float
    half_width: float
    level: float
    normalizer_kind: str
    normalizer: float

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width


def normal_quantile(prob: float) -> float:
    """Standard normal quantile, ``scipy.special.ndtri``.

    This is the routine ``scipy.stats.norm.ppf`` calls, so the quantile is
    bit-equal to it.
    """
    return float(ndtri(prob))


def prediction_interval(
    fit: EstimatorFit, x: Curve, level: float, normalizer: str = "s_hat"
) -> PredictionInterval:
    """Interval center +- q * sigma_hat * N / sqrt(n) at the given level.

    N is s_hat for the random-predictor pivot or t_hat(x) for the
    fixed-point pivot; a zero t_hat means x carries no information from
    the retained eigenspace and is an error rather than an infinite
    interval.
    """
    if not 0 < level < 1:
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")
    if normalizer not in ("s_hat", "t_hat"):
        raise ValidationError(f"unknown normalizer {normalizer!r}")
    if not np.isfinite(fit.sigma_hat):
        raise DegenerateFitError(
            "noise scale undefined: no residual degrees of freedom (n == d_n)"
        )
    center = predict(fit, x)
    if normalizer == "s_hat":
        scale = fit.s_hat
    else:
        d = fit.d_n
        norms = normalizers(fit.decomposition.eigenvalues[:d], fit.filter,
                            fit.decomposition.coefficients(x)[:d], fit.filtered_values)
        scale = norms.t
        # relative floor: roundoff-sized projections of x onto the retained
        # eigenspace must not masquerade as information
        if scale <= 1e-12 * norm_of(x) * norms.peak:
            raise DegenerateFitError(
                "t_hat normalizer is zero: x is orthogonal to the retained eigenspace"
            )
    q = normal_quantile((1 + level) / 2)
    half = q * fit.sigma_hat * scale / np.sqrt(fit.n)
    return PredictionInterval(
        center=center,
        half_width=float(half),
        level=level,
        normalizer_kind=normalizer,
        normalizer=scale,
    )


def fit_to_dict(fit: EstimatorFit) -> dict:
    """JSON-ready representation with enough state to re-run predictions."""
    d = fit.d_n
    return {
        "n": fit.n,
        "d_n": d,
        "s_hat": fit.s_hat,
        "sigma_hat": fit.sigma_hat if np.isfinite(fit.sigma_hat) else None,
        "filter": filter_to_config(fit.filter),
        "grid": {
            "points": fit.grid.points.tolist(),
            "weights": fit.grid.weights.tolist(),
        },
        "rho_hat": fit.rho_hat.values.tolist(),
        "eigenvalues": fit.decomposition.eigenvalues.tolist(),
        "filtered_values": fit.filtered_values.tolist(),
        "eigenvectors": fit.decomposition.vectors_matrix[:d].tolist(),
        "centered": fit.centered,
        "x_mean": fit.x_mean.values.tolist(),
        "y_mean": fit.y_mean,
    }


def fit_from_dict(payload: dict) -> EstimatorFit:
    """Rebuild a fit from fit_to_dict output.

    The decomposition holds every stored eigenvalue and the d_n stored
    eigenvectors, the same form as a fresh fit's. The eigenvectors must
    form a (d_n, p) matrix, the eigenvalues must retain exactly d_n pairs
    at the filter's threshold, and the stored filtered values and s_hat
    must agree with the retained eigenvalues and filter. Scalar fields
    are read with the config module's exact JSON types.
    """
    where = "fit payload"
    try:
        grid = Grid(payload["grid"]["points"], payload["grid"]["weights"])
        filt = filter_from_config(payload["filter"])
        d = config.value(payload, "d_n", where, int)
        n = config.value(payload, "n", where, int)
        lam_all = np.asarray(payload["eigenvalues"], dtype=float)
        vectors = np.asarray(payload["eigenvectors"], dtype=float)
        stored_filtered = np.asarray(payload["filtered_values"], dtype=float)
        stored_s_hat = config.value(payload, "s_hat", where, float)
        sigma = payload["sigma_hat"]
        sigma = None if sigma is None else config.value(payload, "sigma_hat", where, float)
        rho_hat = Curve(grid, payload["rho_hat"])
        x_mean = Curve(grid, payload["x_mean"])
        centered = config.value(payload, "centered", where, bool)
        y_mean = config.value(payload, "y_mean", where, float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed fit payload: {exc}") from None
    if n < 2:
        raise ValidationError(f"{where}.n must be at least 2, got {n}")
    if sigma is not None and sigma < 0:
        raise ValidationError(f"{where}.sigma_hat must be null or nonnegative, got {sigma!r}")
    if (sigma is None) != (n <= d):
        raise ValidationError(
            f"{where}.sigma_hat must be null exactly when n <= d_n (n={n}, d_n={d})"
        )
    if vectors.shape != (d, len(grid)):
        raise ValidationError(
            f"stored eigenvectors have shape {vectors.shape}, expected "
            f"(d_n, p) = ({d}, {len(grid)})"
        )
    if lam_all.ndim != 1 or lam_all.size < d:
        raise ValidationError("stored eigenvalues do not cover the d_n retained pairs")
    decomposition = SpectralDecomposition(
        grid=grid,
        eigenvalues=lam_all,
        eigenvectors=CurveMatrix(grid, vectors),
        gaps=spectral_gaps(lam_all),
    )
    retained = effective_rank(decomposition, filt.cn)
    if retained != d:
        raise ValidationError(
            f"stored eigenvalues retain {retained} pairs at the threshold, but d_n = {d}"
        )
    # written as "<=" so that a NaN anywhere fails the comparison
    expected = normalizers(lam_all[:d], filt)
    if stored_filtered.shape != expected.filtered.shape or not np.all(
        np.abs(stored_filtered - expected.filtered) <= PAYLOAD_RTOL * np.abs(expected.filtered)
    ):
        raise ValidationError("stored filtered values disagree with eigenvalues and filter")
    if not abs(stored_s_hat - expected.s) <= PAYLOAD_RTOL * expected.s:
        raise ValidationError("stored s_hat disagrees with eigenvalues and filter")
    stored_filtered.flags.writeable = False
    return EstimatorFit(
        rho_hat=rho_hat,
        filtered_values=stored_filtered,
        s_hat=stored_s_hat,
        sigma_hat=float("nan") if sigma is None else sigma,
        n=n,
        decomposition=decomposition,
        filter=filt,
        centered=centered,
        x_mean=x_mean,
        y_mean=y_mean,
    )


def save_fit(path, fit: EstimatorFit) -> None:
    config.write_json(path, fit_to_dict(fit))


def load_fit(path) -> EstimatorFit:
    return fit_from_dict(config.read_json(path))
