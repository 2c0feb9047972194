"""Empirical covariance operator and its eigensystem.

The operator acts on a curve h as (Ah)(t_i) = sum_j w_j K(t_i, t_j) h(t_j),
i.e. K W in raw coordinates, with K = X'X / n for the n sample rows X.
``empirical_covariance`` centers the rows when asked, once, and keeps
them: ``estimator.fit`` reads the same rows for the cross-covariance and
the residuals, and an uncentered sample is used as it is, uncopied.
The eigenproblem is solved in the symmetric coordinates Z = X W^{1/2},
on the matrix chosen by shape alone:

* n >= p: the p x p matrix S = W^{1/2} K W^{1/2} = Z'Z / n, every pair;
* n < p: the n x n Gram matrix Z Z' / n, whose eigenvectors v map back
  as Z' v / sqrt(n lam). Only the pairs with a positive eigenvalue after
  the clamp are kept (at most n, the sample rank): the null space of K
  is never computed, and the p x p kernel is never built.

Samples enter as a ``CurveMatrix``; a list of curves is stacked once by
``CurveMatrix.of``, which also checks that they share one grid. The
eigenvectors of a decomposition are one ``CurveMatrix`` with a row per
eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateFitError, ValidationError
from .hilbert import Curve, CurveMatrix, Grid, ensure_same_grid

# Relative cutoff below which empirical eigenvalues are treated as exact zeros.
EIGENVALUE_CLAMP = 1e-12


@dataclass(frozen=True)
class CovarianceOperator:
    """Empirical second-moment operator with kernel K = X'X / n.

    ``samples`` holds the n rows X (already centered when the operator
    was built with centering); the p x p kernel is formed only when read.
    """

    samples: CurveMatrix

    def __post_init__(self):
        if not isinstance(self.samples, CurveMatrix):
            raise ValidationError("covariance samples must be a CurveMatrix")

    @property
    def grid(self) -> Grid:
        return self.samples.grid

    @property
    def n(self) -> int:
        return len(self.samples)

    @cached_property
    def kernel(self) -> np.ndarray:
        """K[i, j] = (1/n) sum_k X_k(t_i) X_k(t_j), symmetrized."""
        values = self.samples.values
        kernel = values.T @ values / self.n
        kernel = (kernel + kernel.T) / 2
        kernel.flags.writeable = False
        return kernel


def empirical_covariance(
    sample: CurveMatrix | list[Curve], center: bool = True
) -> CovarianceOperator:
    """Operator with kernel K[i, j] = (1/n) sum_k X_k(t_i) X_k(t_j).

    With center=True the sample mean curve is subtracted first; disable
    for synthetic data that is centered by construction.
    """
    sample = CurveMatrix.of(sample)
    if center:
        sample = CurveMatrix(sample.grid, sample.values - sample.values.mean(axis=0))
    return CovarianceOperator(sample)


@dataclass(frozen=True)
class SpectralDecomposition:
    """Sorted eigenpairs of the weighted covariance operator.

    Eigenvalues are descending. When n >= p there are p pairs, with the
    finite-rank tail clamped to exact zeros; when n < p only the pairs
    with a positive eigenvalue are held (the sample rank, at most n) and
    the null space is omitted. Every caller reads only positive pairs, so
    the two forms agree. Eigenvectors are the rows of one matrix,
    orthonormal under the quadrature product with a deterministic sign
    convention. ``gaps`` holds the min-of-neighbors differences (the
    trailing entry uses the implicit next eigenvalue 0).
    """

    grid: Grid
    eigenvalues: np.ndarray
    eigenvectors: CurveMatrix
    gaps: np.ndarray

    def __post_init__(self):
        for name in ("eigenvalues", "gaps"):
            arr = np.array(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if self.eigenvalues.size != len(self.eigenvectors):
            raise ValidationError("one eigenvector per eigenvalue required")
        ensure_same_grid(self.eigenvectors, self)

    @property
    def vectors_matrix(self) -> np.ndarray:
        """Eigenvector values stacked as rows, shape (m, p)."""
        return self.eigenvectors.values

    def coefficients(self, h: Curve) -> np.ndarray:
        """Coordinates <h, e_j> of a curve in the eigenbasis."""
        ensure_same_grid(self, h)
        return self.vectors_matrix @ (self.grid.weights * h.values)


def spectral_gaps(lam: np.ndarray) -> np.ndarray:
    """Min-of-neighbors differences of a descending spectrum: delta_1 =
    lam_1 - lam_2 and delta_j = min(lam_{j-1} - lam_j, lam_j - lam_{j+1}),
    with an implicit next eigenvalue 0 after the last."""
    ext = np.append(lam, 0.0)
    right = ext[:-1] - ext[1:]
    gaps = right.copy()
    gaps[1:] = np.minimum(right[1:], right[:-1])
    return gaps


def eigendecompose(op: CovarianceOperator) -> SpectralDecomposition:
    """Eigensystem of h -> sum_j w_j K(., t_j) h(t_j) under the weighted product.

    Solved on the p x p matrix when n >= p and on the n x n Gram matrix
    when n < p (see the module docstring); the latter keeps only the
    positive eigenvalues and raises DegenerateFitError when there is none.
    """
    w = op.grid.weights
    sqrt_w = np.sqrt(w)
    gram_route = op.n < len(w)
    if gram_route:
        z = op.samples.values * sqrt_w
        sym = z @ z.T / op.n
    else:
        sym = sqrt_w[:, None] * op.kernel * sqrt_w[None, :]
    sym = (sym + sym.T) / 2
    try:
        lam, vec = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"eigensolver failed: {exc}") from None
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    vec = vec[:, order]

    lam = np.where(lam < EIGENVALUE_CLAMP * max(lam[0], 0.0), 0.0, lam)

    if gram_route:
        # descending and clamped, so the positive values are a prefix
        rank = int(np.count_nonzero(lam > 0))
        if rank == 0:
            raise DegenerateFitError("threshold exceeds spectrum: the sample spectrum is zero")
        lam = lam[:rank]
        vec = z.T @ vec[:, :rank] / np.sqrt(op.n * lam)

    # rows are eigenvectors in raw coordinates; C order keeps each row's
    # sum the same pairwise reduction as the sum over a single curve
    u = np.ascontiguousarray(vec.T) / sqrt_w
    # renormalize under the quadrature product and fix the sign so that
    # each row's largest-magnitude entry is positive
    u = u / np.sqrt(np.sum(u * u * w, axis=1))[:, None]
    peak = u[np.arange(lam.size), np.argmax(np.abs(u), axis=1)]
    u[peak < 0] *= -1

    return SpectralDecomposition(
        grid=op.grid,
        eigenvalues=lam,
        eigenvectors=CurveMatrix(op.grid, u),
        gaps=spectral_gaps(lam),
    )
