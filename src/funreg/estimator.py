"""Regularized inverse, coefficient estimate, normalizers, and intervals.

The estimate solves the empirical moment equation through the filtered
spectral inverse: rho_hat = sum_{j<=d_n} f(lam_j) <Delta_n, e_j> e_j,
where d_n counts the empirical eigenvalues at or above the threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from . import config
from .covariance import (
    SpectralDecomposition,
    cross_covariance,
    eigendecompose,
    empirical_covariance,
    spectral_gaps,
)
from .errors import DegenerateFitError, GridMismatchError, ValidationError
from .filters import FilterSpec, effective_rank, filter_from_config, filter_to_config, filter_values, xf_values
from .hilbert import Curve, CurveMatrix, Grid, ensure_same_grid, inner_product
from .hilbert import norm as norm_of

# Relative tolerance for the stored filtered values and s_hat of a fit
# payload against the values recomputed from its eigenvalues and filter.
PAYLOAD_RTOL = 1e-9


@dataclass(frozen=True)
class RegularizedInverse:
    """Finite-rank operator h -> sum_{j<=d_n} f(lam_j) <h, e_j> e_j."""

    decomposition: SpectralDecomposition
    filter: FilterSpec
    filtered_values: np.ndarray

    @property
    def d_n(self) -> int:
        return self.filtered_values.size

    def apply(self, h: Curve) -> Curve:
        d = self.d_n
        coeff = self.decomposition.coefficients(h)[:d]
        values = (self.filtered_values * coeff) @ self.decomposition.vectors_matrix[:d]
        return Curve(self.decomposition.grid, values)


def regularized_inverse(
    decomposition: SpectralDecomposition, filt: FilterSpec
) -> RegularizedInverse:
    d = effective_rank(decomposition, filt.cn)
    if d == 0:
        raise DegenerateFitError("threshold exceeds spectrum: no eigenvalue retained")
    filtered = filter_values(filt, decomposition.eigenvalues[:d])
    filtered.flags.writeable = False
    return RegularizedInverse(decomposition, filt, filtered)


def s_hat(decomposition: SpectralDecomposition, filt: FilterSpec) -> float:
    """Adaptive normalizer sqrt(sum_j [lam_j f(lam_j)]^2) over retained j.

    Exactly sqrt(d_n) for the truncation filter.
    """
    d = effective_rank(decomposition, filt.cn)
    if d == 0:
        raise DegenerateFitError("threshold exceeds spectrum: no eigenvalue retained")
    xf = xf_values(filt, decomposition.eigenvalues[:d])
    return float(np.sqrt(np.sum(xf**2)))


def t_hat(decomposition: SpectralDecomposition, filt: FilterSpec, x: Curve) -> float:
    """Fixed-point normalizer sqrt(sum_j lam_j f(lam_j)^2 <x, e_j>^2)."""
    d = effective_rank(decomposition, filt.cn)
    if d == 0:
        raise DegenerateFitError("threshold exceeds spectrum: no eigenvalue retained")
    lam = decomposition.eigenvalues[:d]
    f = filter_values(filt, lam)
    coeff = decomposition.coefficients(x)[:d]
    return float(np.sqrt(np.sum(lam * f**2 * coeff**2)))


@dataclass(frozen=True)
class EstimatorFit:
    """Fitted coefficient curve with its normalizers and provenance."""

    rho_hat: Curve
    d_n: int
    s_hat: float
    sigma_hat: float
    n: int
    decomposition: SpectralDecomposition
    filter: FilterSpec
    centered: bool
    x_mean: Curve
    y_mean: float

    @property
    def grid(self) -> Grid:
        return self.rho_hat.grid


def predict(fit: EstimatorFit, x: Curve) -> float:
    """Point prediction <rho_hat, x>, plus the intercept for centered fits."""
    ensure_same_grid(fit.rho_hat, x)
    if fit.centered:
        return fit.y_mean + inner_product(fit.rho_hat, x - fit.x_mean)
    return inner_product(fit.rho_hat, x)


def _residual_sigma(
    sample: CurveMatrix, responses, rho_hat, centered, x_mean, y_mean, d_n
) -> float:
    n = len(sample)
    if n <= d_n:
        raise DegenerateFitError(f"degrees of freedom exhausted: n={n} <= d_n={d_n}")
    ensure_same_grid(rho_hat, sample)
    y = np.asarray(responses, dtype=float)
    values = sample.values - x_mean.values if centered else sample.values
    # row-wise inner_product: same products and weights, same reduction
    preds = np.sum((rho_hat.values * values) * sample.grid.weights, axis=1)
    if centered:
        preds = y_mean + preds
    return float(np.sqrt(np.sum((y - preds) ** 2) / (n - d_n)))


def sigma_hat(
    sample: CurveMatrix | list[Curve], responses, fit: EstimatorFit
) -> float:
    """Residual noise scale with an (n - d_n) degrees-of-freedom correction."""
    return _residual_sigma(
        CurveMatrix.of(sample),
        responses,
        fit.rho_hat,
        fit.centered,
        fit.x_mean,
        fit.y_mean,
        fit.d_n,
    )


def fit(
    sample: CurveMatrix | list[Curve], responses, filt: FilterSpec, center: bool = True
) -> EstimatorFit:
    """Fit the regularized functional regression on (sample, responses).

    Centering (the default) subtracts the empirical means from both the
    curves and the responses before forming the moment equation; disable
    it for data that is centered by construction.
    """
    sample = CurveMatrix.of(sample)
    n = len(sample)
    if n < 2:
        raise ValidationError("need at least 2 observations to fit")
    y = np.asarray(responses, dtype=float)
    if y.ndim != 1 or y.size != n:
        raise ValidationError(f"got {y.size} responses for {n} curves")

    cov = empirical_covariance(sample, center=center)
    delta = cross_covariance(sample, y, center=center)
    decomposition = eigendecompose(cov)
    rinv = regularized_inverse(decomposition, filt)
    rho = rinv.apply(delta.curve)

    if center:
        x_mean = Curve(sample.grid, sample.values.mean(axis=0))
        y_mean = float(y.mean())
    else:
        x_mean = Curve.zeros(sample.grid)
        y_mean = 0.0

    if n > rinv.d_n:
        sigma = _residual_sigma(sample, y, rho, center, x_mean, y_mean, rinv.d_n)
    else:
        # retained rank saturates the sample: rho_hat is still defined but
        # the residual scale has no degrees of freedom left
        sigma = float("nan")
    return EstimatorFit(
        rho_hat=rho,
        d_n=rinv.d_n,
        s_hat=s_hat(decomposition, filt),
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
        scale = t_hat(fit.decomposition, fit.filter, x)
        # relative floor: roundoff-sized projections of x onto the retained
        # eigenspace must not masquerade as information
        d = fit.d_n
        lam = fit.decomposition.eigenvalues[:d]
        per_mode = np.sqrt(lam) * filter_values(fit.filter, lam)
        floor = 1e-12 * norm_of(x) * float(np.max(per_mode))
        if scale <= floor:
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
        "filtered_values": filter_values(
            fit.filter, fit.decomposition.eigenvalues[:d]
        ).tolist(),
        "eigenvectors": fit.decomposition.vectors_matrix[:d].tolist(),
        "centered": fit.centered,
        "x_mean": fit.x_mean.values.tolist(),
        "y_mean": fit.y_mean,
    }


def fit_from_dict(payload: dict) -> EstimatorFit:
    """Rebuild a fit from fit_to_dict output (retained eigenpairs only).

    The eigenvectors must form a (d_n, p) matrix, and the stored filtered
    values and s_hat must agree with the retained eigenvalues and filter.
    Scalar fields are read with the config module's exact JSON types.
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
        sigma = float("nan") if sigma is None else config.value(payload, "sigma_hat", where, float)
        rho_hat = Curve(grid, payload["rho_hat"])
        x_mean = Curve(grid, payload["x_mean"])
        centered = config.value(payload, "centered", where, bool)
        y_mean = config.value(payload, "y_mean", where, float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed fit payload: {exc}") from None
    if vectors.shape != (d, len(grid)):
        raise ValidationError(
            f"stored eigenvectors have shape {vectors.shape}, expected "
            f"(d_n, p) = ({d}, {len(grid)})"
        )
    if lam_all.ndim != 1 or lam_all.size < d:
        raise ValidationError("stored eigenvalues do not cover the d_n retained pairs")
    decomposition = SpectralDecomposition(
        grid=grid,
        eigenvalues=lam_all[:d],
        eigenvectors=CurveMatrix(grid, vectors),
        gaps=spectral_gaps(lam_all)[:d],
        n=n,
    )
    # written as "<=" so that a NaN anywhere fails the comparison
    expected = filter_values(filt, decomposition.eigenvalues)
    if stored_filtered.shape != expected.shape or not np.all(
        np.abs(stored_filtered - expected) <= PAYLOAD_RTOL * np.abs(expected)
    ):
        raise ValidationError("stored filtered values disagree with eigenvalues and filter")
    expected_s_hat = s_hat(decomposition, filt)
    if not abs(stored_s_hat - expected_s_hat) <= PAYLOAD_RTOL * expected_s_hat:
        raise ValidationError("stored s_hat disagrees with eigenvalues and filter")
    return EstimatorFit(
        rho_hat=rho_hat,
        d_n=d,
        s_hat=stored_s_hat,
        sigma_hat=sigma,
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
