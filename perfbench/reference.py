"""Pure-numpy reference for one regularized fit and its CLT interval.

This module imports nothing from ``funreg``: it is the oracle the
benchmark checks the library against and the floor it times the library
against. It re-derives the estimator from the formulas:

* covariance ``K = Xc' Xc / n`` under the quadrature product, solved in
  the symmetric coordinates ``Z = Xc W^{1/2}``;
* the eigensolve is chosen by shape: the ``p x p`` matrix ``Z'Z / n``
  when ``n >= p``, the ``n x n`` Gram matrix ``Z Z' / n`` when ``n < p``
  (its eigenvectors are mapped back through ``Z'``);
* ``d_n`` counts eigenvalues at or above ``cn`` once values below
  ``1e-12 * lambda_1`` are clamped to zero (the library's documented rule);
* ``rho_hat = sum_j f(lam_j) <Delta, e_j> e_j``,
  ``sigma_hat^2 = RSS / (n - d_n)``, ``s_hat^2 = sum (lam f)^2``,
  ``t_hat^2 = sum lam f^2 <x, e_j>^2`` and the half-width
  ``q * sigma_hat * N / sqrt(n)``.

A replicate that the library must refuse (no retained eigenvalue, no
residual degrees of freedom, or a ``t_hat`` at roundoff level) comes back
as ``None`` so that failures are compared too.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

EIGENVALUE_CLAMP = 1e-12


@dataclass(frozen=True)
class Filter:
    kind: str
    cn: float
    alpha: float | None = None

    def __call__(self, lam: np.ndarray) -> np.ndarray:
        if self.kind == "truncation":
            return 1.0 / lam
        if self.kind == "ridge":
            return 1.0 / (lam + self.alpha)
        if self.kind == "tikhonov":
            return lam / (lam**2 + self.alpha)
        raise ValueError(f"reference has no {self.kind!r} filter")


@dataclass(frozen=True)
class Fit:
    rho_hat: np.ndarray
    d_n: int
    lam: np.ndarray        # retained eigenvalues
    f: np.ndarray          # filter values at lam
    vectors: np.ndarray    # (p, d_n), orthonormal in symmetric coordinates
    sqrt_w: np.ndarray
    sigma_hat: float | None
    s_hat: float
    n: int
    x_mean: np.ndarray
    y_mean: float


@dataclass(frozen=True)
class Interval:
    center: float
    half_width: float
    normalizer: float
    sigma_hat: float


def trapezoid_weights(p: int) -> np.ndarray:
    """Trapezoid weights on p uniform points of [0, 1]."""
    h = 1.0 / (p - 1)
    w = np.full(p, h)
    w[0] = w[-1] = h / 2
    return w


def fit(X: np.ndarray, y: np.ndarray, w: np.ndarray, filt: Filter, center: bool) -> Fit | None:
    n, p = X.shape
    if center:
        x_mean, y_mean = X.mean(axis=0), float(y.mean())
        Xc, yc = X - x_mean, y - y_mean
    else:
        x_mean, y_mean = np.zeros(p), 0.0
        Xc, yc = X, y
    sqrt_w = np.sqrt(w)
    Z = Xc * sqrt_w
    if n < p:
        lam, V = np.linalg.eigh(Z @ Z.T / n)
    else:
        lam, V = np.linalg.eigh(Z.T @ Z / n)
    lam, V = lam[::-1], V[:, ::-1]
    lam = np.where(lam < EIGENVALUE_CLAMP * max(lam[0], 0.0), 0.0, lam)
    keep = (lam >= filt.cn) & (lam > 0)
    lam, V = lam[keep], V[:, keep]
    d = lam.size
    if d == 0:
        return None
    U = Z.T @ V / np.sqrt(n * lam) if n < p else V
    f = filt(lam)
    coef = U.T @ (Z.T @ yc / n)
    rho = (U @ (f * coef)) / sqrt_w
    s_hat = float(np.sqrt(np.sum((lam * f) ** 2)))
    sigma = None
    if n > d:
        resid = yc - Xc @ (w * rho)
        sigma = float(np.sqrt(np.sum(resid**2) / (n - d)))
    return Fit(rho, d, lam, f, U, sqrt_w, sigma, s_hat, n, x_mean, y_mean)


def interval(ft: Fit | None, x: np.ndarray, w: np.ndarray, level: float, normalizer: str) -> Interval | None:
    if ft is None or ft.sigma_hat is None:
        return None
    center = ft.y_mean + float(np.sum(w * ft.rho_hat * (x - ft.x_mean)))
    if normalizer == "s_hat":
        scale = ft.s_hat
    else:
        cx = ft.vectors.T @ (ft.sqrt_w * x)
        scale = float(np.sqrt(np.sum(ft.lam * ft.f**2 * cx**2)))
        floor = 1e-12 * float(np.sqrt(np.sum(w * x * x))) * float(np.max(np.sqrt(ft.lam) * ft.f))
        if scale <= floor:
            return None
    q = NormalDist().inv_cdf((1 + level) / 2)
    return Interval(center, q * ft.sigma_hat * scale / np.sqrt(ft.n), scale, ft.sigma_hat)


def draw_dataset(rng: np.random.Generator, basis, lambdas, rho_curve, w, noise_sd, n):
    """The library's Gaussian Karhunen-Loeve draw, in the same order."""
    xi = rng.standard_normal((n, lambdas.size))
    X = (xi * np.sqrt(lambdas)) @ basis
    y = X @ (w * rho_curve)
    if noise_sd > 0:
        y = y + noise_sd * rng.standard_normal(n)
    return X, y


def replicate(seed: int, rep: int, *, basis, lambdas, rho_coeffs, w, noise_sd, n,
              filt: Filter, level: float, x=None):
    """One Monte Carlo replicate from the draws of ``SeedSequence([seed, rep])``.

    With ``x=None`` a fresh predictor is drawn after the data set and the
    ``s_hat`` pivot is used (random-x); otherwise ``t_hat`` at ``x``.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), int(rep)]))
    rho_curve = rho_coeffs @ basis
    X, y = draw_dataset(rng, basis, lambdas, rho_curve, w, noise_sd, n)
    if x is None:
        xi = rng.standard_normal(lambdas.size)
        x_new = (np.sqrt(lambdas) * xi) @ basis
        normalizer = "s_hat"
    else:
        x_new, normalizer = x, "t_hat"
    ft = fit(X, y, w, filt, center=False)
    return ft, interval(ft, x_new, w, level, normalizer)
