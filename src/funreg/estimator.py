"""Spectral estimator, its CLT normalizers, and prediction intervals.

``fit`` centers the sample itself, once (unless told not to), and reads
those rows X_c three times: ``covariance.eigendecompose`` solves for the
covariance K = X_c'X_c / n on them, and the fit forms the
cross-covariance Delta_n = X_c'(Y - Y_mean) / n and the residuals. The
estimate is rho_hat = sum_{j<=d_n} f(lam_j) <Delta_n, e_j> e_j, where
d_n counts the empirical eigenvalues at or above the threshold by the one
rule ``covariance.retained_rank``, on a fresh spectrum and on a loaded
one alike; d_n and the filtered values f(lam_j) are worked out once and
kept on the fit. The residual scale is

    sigma_hat = sqrt(sum_i (Y_i - Y_mean - <X_c,i, rho_hat>)^2 / (n - d_n)),

with every <X_c,i, rho_hat> from one ``CurveMatrix.inner_products``; it is
NaN when d_n >= n, or n - 1 in a centered fit, whose mean takes one more.
Both CLT pivots are sums over that retained spectrum, computed by the
one kernel ``normalizers``:

    s_hat    = sqrt(sum_j g(lam_j)^2)                     (random x)
    t_hat(x) = sqrt(sum_j lam_j f(lam_j)^2 <x, e_j>^2)    (fixed x)

for the filter's gain g(lam) = lam f(lam) of ``filters.gain``.

``fit`` keeps s_hat and the residual scale sigma_hat, and
``prediction_interval`` computes t_hat(x), with its zero floor, and
reports the pivot it used as ``normalizer``. A fit file stores no
f(lam_j): ``fit_from_dict`` derives them and s_hat by the same
``normalizers`` call as ``fit``, so a loaded fit equals the fresh one.
The interval's quantile is ``normal.ndtri``, a port of Cephes ``ndtri``
that the tests check bit-equal to ``scipy.special.ndtri``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import config
from .covariance import eigendecompose, retained_rank
from .errors import DegenerateFitError, ValidationError
from .filters import FilterSpec, filter_from_config, filter_to_config, filter_values, gain
from .hilbert import Curve, CurveMatrix, Grid, ensure_same_grid
from .hilbert import norm as norm_of
from .normal import ndtri

# Relative tolerance for the stored s_hat of a fit payload against the one
# recomputed from its eigenvalues and filter; the loaded fit holds the latter.
PAYLOAD_RTOL = 1e-9

# Bound on |<e_i, e_j> - delta_ij| for a fit payload's eigenvectors under
# its grid weights, in units of sqrt(lam_1 / lam_i) sqrt(lam_1 / lam_j).
# The p x p route's vectors are orthonormal to a few eps. The Gram route
# maps its vectors back through the sample, which divides the solve's
# backward error, about eps lam_1, by sqrt(lam_i lam_j). JSON round trips
# of fresh fits on both routes (p from 21 to 1001, lam_d / lam_1 down to
# the 1e-12 clamp) deviated by up to 6.4e-5 unscaled but at most 9.7e-16 in
# these units; an edited vector entry or weight moves one by order 1.
ORTHONORMALITY_TOL = 1e-9

# The pivots ``prediction_interval`` can scale by, random x first.
NORMALIZERS = ("s_hat", "t_hat")


class Normalizers(NamedTuple):
    """The pivot sums over one spectrum; see ``normalizers``."""

    filtered: np.ndarray
    s: float
    t: float | None
    peak: float


def normalizers(lam, filt: FilterSpec, coeffs=None, filtered=None) -> Normalizers:
    """The CLT pivot sums over the eigenvalues ``lam`` under ``filt``.

    Returns f(lam) (evaluated once, unless the caller passes the values
    it holds as ``filtered``); s = sqrt(sum g(lam)^2) for the gain g of
    ``filters.gain``, exactly sqrt(d) for truncation; t = sqrt(sum lam
    f(lam)^2 c_j^2) for the coordinates c_j = <x, e_j> in ``coeffs``, else
    None; and peak = max sqrt(lam) f(lam), the largest per-mode weight of t.
    An s that underflows to zero, as every retained gain is below about
    1.5e-154, is refused: it would give zero-width intervals.
    """
    lam = np.asarray(lam, dtype=float)
    f = filter_values(filt, lam) if filtered is None else filtered
    t = None if coeffs is None else float(np.sqrt(np.sum(lam * f**2 * coeffs**2)))
    s = float(np.sqrt(np.sum(gain(filt, lam, f) ** 2)))
    if s == 0:
        raise ValidationError("s_hat underflows to zero: rescale the curves")
    return Normalizers(f, s, t, float(np.max(np.sqrt(lam) * f)))


@dataclass(frozen=True)
class EstimatorFit:
    """Fitted coefficient curve, f(lam_j) of its d_n retained eigenvalues,
    normalizers, the spectrum that ``eigendecompose`` returns (its positive
    eigenvalues, and the vectors of the d_n retained pairs) and provenance."""

    rho_hat: Curve
    filtered_values: np.ndarray
    s_hat: float
    sigma_hat: float
    n: int
    eigenvalues: np.ndarray
    eigenvectors: CurveMatrix
    filter: FilterSpec
    centered: bool
    x_mean: Curve
    y_mean: float

    @property
    def d_n(self) -> int:
        return self.filtered_values.size


def predict(fit: EstimatorFit, x: Curve) -> float:
    """Point prediction <rho_hat, x - x_mean>, plus the intercept y_mean
    for centered fits (an uncentered fit's means are zero).

    The sum has ``inner_product``'s products in its order; a prediction
    that overflows, in x - x_mean, the sum or the intercept, is refused.
    """
    ensure_same_grid(fit.rho_hat, x)
    with np.errstate(over="ignore", invalid="ignore"):
        dx = x.values - fit.x_mean.values
        value = float(np.sum((fit.rho_hat.values * dx) * fit.rho_hat.grid.weights))
    if fit.centered:
        value = fit.y_mean + value
    if not np.isfinite(value):
        raise ValidationError("point prediction overflows: the predictor x is too large")
    return value


def check_sample_size(n: int) -> None:
    """Refuse a sample of fewer than 2 curves, the fewest ``fit`` takes."""
    if n < 2:
        raise ValidationError("need at least 2 observations to fit")


def check_level(level: float) -> None:
    """Refuse a confidence level outside (0, 1)."""
    if not 0 < level < 1:
        raise ValidationError(f"confidence level must be in (0, 1), got {level}")


def _saturated(n: int, d: int, centered: bool) -> bool:
    """No residual degrees of freedom: d_n >= n, or n - 1 in a centered fit."""
    return n - centered <= d


def fit(
    sample: CurveMatrix | list[Curve],
    responses,
    filt: FilterSpec,
    center: bool = True,
) -> EstimatorFit:
    """Fit the regularized functional regression on (sample, responses).

    Centering (the default) subtracts the empirical means from both the
    curves and the responses before forming the moment equation; disable
    it for data that is centered by construction. The fit holds every
    eigenvalue and the eigenvectors of the d_n retained pairs; a threshold
    that splits tied eigenvalues raises DegenerateFitError (see
    ``covariance``).
    """
    sample = CurveMatrix.of(sample)
    n = len(sample)
    check_sample_size(n)
    y = np.asarray(responses, dtype=float)
    if y.ndim != 1 or y.size != n:
        raise ValidationError(f"got {y.size} responses for {n} curves")
    if not np.all(np.isfinite(y)):
        raise ValidationError("responses must be finite")

    grid = sample.grid
    # an overflow is refused where it lands (a curve, the covariance, sigma_hat)
    with np.errstate(over="ignore", invalid="ignore"):
        if center:
            mean = sample.values.mean(axis=0)
            # a fresh read-only array is held by the matrix as it is, not
            # copied, and the matrix checks the centered rows finite
            centered = sample.values - mean
            centered.flags.writeable = False
            sample = CurveMatrix(grid, centered)
            x_mean = Curve(grid, mean)
        else:
            x_mean = Curve.zeros(grid)
        # ``sample`` now holds the rows of the covariance, cross-covariance and residuals
        y_mean = float(y.mean()) if center else 0.0
        yc = y - y_mean
        delta = Curve(grid, sample.values.T @ yc / n)

        lam, vectors = eigendecompose(sample, filt.cn)
        d = len(vectors)
        norms = normalizers(lam[:d], filt)
        rho = Curve(grid, (norms.filtered * vectors.inner_products(delta)) @ vectors.values)

        if not _saturated(n, d, center):
            resid = yc - sample.inner_products(rho)
            sigma = float(np.sqrt(np.sum(resid**2) / (n - d)))
            if not np.isfinite(sigma):
                raise ValidationError("residual scale sigma_hat overflows: rescale the responses")
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
        eigenvalues=lam,
        eigenvectors=vectors,
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


def prediction_interval(
    fit: EstimatorFit, x: Curve, level: float, normalizer: str = "s_hat"
) -> PredictionInterval:
    """Interval center +- q * sigma_hat * N / sqrt(n) at the given level.

    N is s_hat for the random-predictor pivot or t_hat(x) for the
    fixed-point pivot; a zero t_hat means x carries no information from
    the retained eigenspace and is an error rather than an infinite
    interval, and an x too large for t_hat or its floor to be finite is
    refused, as is a half width that overflows.
    """
    check_level(level)
    if normalizer not in NORMALIZERS:
        raise ValidationError(f"unknown normalizer {normalizer!r}")
    if not np.isfinite(fit.sigma_hat):
        raise DegenerateFitError(
            "noise scale undefined: no residual degrees of freedom "
            "(d_n >= n, or n - 1 in a centered fit)"
        )
    center = predict(fit, x)
    if normalizer == "s_hat":
        scale = fit.s_hat
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            norms = normalizers(fit.eigenvalues[:fit.d_n], fit.filter,
                                fit.eigenvectors.inner_products(x), fit.filtered_values)
            # relative floor: roundoff-sized projections of x onto the
            # retained eigenspace must not masquerade as information
            floor = 1e-12 * norm_of(x) * norms.peak
        scale = norms.t
        if not (np.isfinite(scale) and np.isfinite(floor)):
            raise ValidationError("t_hat normalizer overflows: the predictor x is too large")
        if scale <= floor:
            raise DegenerateFitError(
                "t_hat normalizer is zero: x is orthogonal to the retained eigenspace"
            )
    q = ndtri((1 + level) / 2)
    half = q * fit.sigma_hat * scale / np.sqrt(fit.n)
    if not np.isfinite(half):
        # the product overflowed before the division: dividing sigma_hat
        # first keeps a finite half width, and only such overflows take
        # this order, so every other half width keeps its last bit
        with np.errstate(over="ignore"):
            half = q * scale * (fit.sigma_hat / np.sqrt(fit.n))
    if not np.isfinite(half):
        raise ValidationError(
            "interval half width overflows: sigma_hat times the pivot is too large"
        )
    return PredictionInterval(
        center=center,
        half_width=float(half),
        level=level,
        normalizer_kind=normalizer,
        normalizer=scale,
    )


# the keys of a fit payload, every one written by ``fit_to_dict``
_FIT_KEYS = ("n", "d_n", "s_hat", "sigma_hat", "filter", "grid", "rho_hat", "eigenvalues",
             "eigenvectors", "centered", "x_mean", "y_mean")


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
            "points": fit.rho_hat.grid.points.tolist(),
            "weights": fit.rho_hat.grid.weights.tolist(),
        },
        "rho_hat": fit.rho_hat.values.tolist(),
        "eigenvalues": fit.eigenvalues.tolist(),
        "eigenvectors": fit.eigenvectors.values.tolist(),
        "centered": fit.centered,
        "x_mean": fit.x_mean.values.tolist(),
        "y_mean": fit.y_mean,
    }


def fit_from_dict(payload: dict) -> EstimatorFit:
    """Rebuild a fit from fit_to_dict output.

    The fit holds the positive stored eigenvalues, dropping any zero tail,
    and the d_n stored eigenvectors: a fresh fit's form. The eigenvectors
    must form a (d_n, p) matrix, and the eigenvalues must be finite,
    nonnegative and nonincreasing and retain exactly d_n pairs at the
    filter's threshold by ``retained_rank`` (which raises
    DegenerateFitError when the threshold splits a tie). The eigenvectors
    must be orthonormal under the grid weights, to ORTHONORMALITY_TOL.
    f(lam_j) and s_hat come from ``normalizers`` as in ``fit``, and the
    stored s_hat must agree. An uncentered fit must store zero means.
    Every field is read with the config module's exact JSON types, and
    the payload and its grid must hold exactly the keys that
    ``fit_to_dict`` writes. A refusal of the grid, a curve or the
    eigenvector matrix by its type names its key.
    """
    where = "fit payload"
    config.section(payload, where, _FIT_KEYS)
    config.section(payload["grid"], f"{where}.grid", ("points", "weights"))
    points = config.array(payload["grid"], "points", f"{where}.grid")
    weights = config.array(payload["grid"], "weights", f"{where}.grid")
    with config.naming(f"{where}.grid"):
        grid = Grid(points, weights)

    def curve(key: str) -> Curve:
        values = config.array(payload, key, where)
        with config.naming(f"{where}.{key}"):
            return Curve(grid, values)

    filt = filter_from_config(payload["filter"], where=f"{where}.filter")
    d = config.value(payload, "d_n", where, int)
    n = config.value(payload, "n", where, int)
    lam_all = config.array(payload, "eigenvalues", where)
    vectors = config.array(payload, "eigenvectors", where, rows=True)
    stored_s_hat = config.value(payload, "s_hat", where, float)
    sigma = config.value(payload, "sigma_hat", where, float, None)
    rho_hat = curve("rho_hat")
    x_mean = curve("x_mean")
    centered = config.value(payload, "centered", where, bool)
    y_mean = config.value(payload, "y_mean", where, float)
    with config.naming(f"{where}.n"):
        check_sample_size(n)
    # an interval divides by sqrt(n), which needs a machine integer
    if n > np.iinfo(np.int64).max:
        raise ValidationError(f"{where}.n must be at most 2**63 - 1, got {n}")
    for key, mean in (("x_mean", x_mean.values), ("y_mean", y_mean)):
        if not centered and np.any(mean != 0):
            raise ValidationError(f"{where}.{key} must be zero in an uncentered fit")
    if sigma is not None and sigma < 0:
        raise ValidationError(f"{where}.sigma_hat must be null or nonnegative, got {sigma!r}")
    if (sigma is None) != _saturated(n, d, centered):
        raise ValidationError(
            f"{where}.sigma_hat must be null exactly when d_n >= n, or n - 1 in a "
            f"centered fit (n={n}, d_n={d}, centered={'true' if centered else 'false'})"
        )
    if vectors.shape != (d, len(grid)):
        raise ValidationError(
            f"stored eigenvectors have shape {vectors.shape}, expected "
            f"(d_n, p) = ({d}, {len(grid)})"
        )
    if not (np.all(np.isfinite(lam_all)) and np.all(lam_all >= 0)
            and np.all(np.diff(lam_all) <= 0)):
        raise ValidationError(
            f"{where}.eigenvalues must be finite, nonnegative and nonincreasing"
        )
    # a fit writes its positive spectrum, descending; a file that pads it
    # with a zero tail loads to the same fit
    lam_all = lam_all[:np.count_nonzero(lam_all > 0)]
    with config.naming(f"{where}.eigenvectors"):
        eigenvectors = CurveMatrix(grid, vectors)
    retained = retained_rank(lam_all, filt.cn, len(grid))
    if retained != d:
        raise ValidationError(
            f"stored eigenvalues retain {retained} pairs at the threshold, but d_n = {d}"
        )
    # written as "<=" so that a NaN, from an overflowing edited entry, fails
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.sqrt(lam_all[0] / lam_all[:d])
        deviation = np.abs((vectors * grid.weights) @ vectors.T - np.eye(d))
        orthonormal = np.all(deviation <= ORTHONORMALITY_TOL * np.outer(scale, scale))
    if not orthonormal:
        raise ValidationError(f"{where}.eigenvectors are not orthonormal under the grid weights")
    norms = normalizers(lam_all[:d], filt)
    # written as "<=" so that a NaN fails the comparison
    if not abs(stored_s_hat - norms.s) <= PAYLOAD_RTOL * norms.s:
        raise ValidationError("stored s_hat disagrees with eigenvalues and filter")
    return EstimatorFit(
        rho_hat=rho_hat,
        filtered_values=norms.filtered,
        s_hat=norms.s,
        sigma_hat=float("nan") if sigma is None else sigma,
        n=n,
        eigenvalues=lam_all,
        eigenvectors=eigenvectors,
        filter=filt,
        centered=centered,
        x_mean=x_mean,
        y_mean=y_mean,
    )


def save_fit(path, fit: EstimatorFit) -> None:
    config.write_json(path, fit_to_dict(fit))


def load_fit(path) -> EstimatorFit:
    return fit_from_dict(config.read_json(path))
