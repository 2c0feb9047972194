"""Empirical covariance operator, its eigensystem and the retained-rank rule.

The operator acts on a curve h as (Ah)(t_i) = sum_j w_j K(t_i, t_j) h(t_j),
i.e. K W in raw coordinates, with K = X'X / n for the n sample rows X.
``eigendecompose`` solves on the rows it is given and never centers:
``estimator.fit`` centers the sample once, when asked, and passes the
same rows it reads for the cross-covariance and the residuals. The
eigenproblem is solved in the symmetric coordinates Z = X W^{1/2}, on the
matrix chosen by shape alone:

* n >= p: the p x p matrix S = W^{1/2} K W^{1/2} = Z'Z / n;
* n < p: the n x n Gram matrix Z Z' / n, whose eigenvectors v map back
  as Z' v / sqrt(n lam), so the p x p kernel is never built.

Both routes keep only the positive eigenvalues at or above the clamp, at
most the sample rank, since nothing reads the null space of K.

Only the p x p route symmetrizes, as (S + S') / 2: X'X of one buffer is
exactly symmetric, but scaling it by W^{1/2} on both sides rounds its two
triangles differently. The Gram route scales the rows first, and Z Z' of
one buffer is exactly symmetric as computed (the same products summed in
the same order for entries (i, j) and (j, i)), so it is solved as it is.

Every kept eigenvalue is returned, but the eigenvectors are mapped back,
renormalized and sign-fixed only for the d_n leading pairs at or above
the threshold cn, the pairs a fit reads.

The one rule for how many pairs a threshold keeps, d_n, is
``retained_rank``: the positive eigenvalues at or above cn of a
descending spectrum. ``eigendecompose`` and a loaded fit count d_n with
it, and it alone refuses an empty spectrum, on both routes, or a split tie.

A threshold must not split a cluster of eigenvalues that the solve cannot
tell apart. ``eigh`` is backward stable: its spectrum is exact for S + E
with ||E||_2 <= c m eps ||S||_2 (m <= p the order of the matrix solved,
eps the unit roundoff, c a modest constant), so by Weyl's inequality each
computed eigenvalue is within ||E||_2 of an exact one, and ||S||_2 =
lambda_1; forming S adds rounding of the same kind. Two computed
eigenvalues closer than about p eps lambda_1 may thus be a tie, and which
of them lands above cn depends on roundoff, such as the order of the
sample rows. ``cluster_tolerance`` is CLUSTER_FACTOR times that scale,
with p the grid size on both routes. When cn falls between two positive
eigenvalues closer than it, ``retained_rank`` raises DegenerateFitError;
widening d_n over the cluster instead would silently move the threshold.

Samples enter as a ``CurveMatrix``; ``fit`` stacks a list of curves once
by ``CurveMatrix.of``, which also checks that they share one grid. The
eigenvectors ``eigendecompose`` returns are one ``CurveMatrix`` holding
a leading prefix of the pairs, one row per pair: its rows are
``eigenvectors.values``, its grid ``eigenvectors.grid``, and the
coordinates <h, e_j> of a curve are ``eigenvectors.inner_products(h)``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateFitError, ValidationError
from .hilbert import CurveMatrix

# Relative cutoff below which empirical eigenvalues are dropped as exact zeros.
EIGENVALUE_CLAMP = 1e-12
# Multiple of p * eps * lambda_1 within which two eigenvalues are one
# cluster that a threshold must not split (see the module docstring).
CLUSTER_FACTOR = 4.0


def cluster_tolerance(lambda_1: float, p: int) -> float:
    """CLUSTER_FACTOR * p * eps * lambda_1: the gap below which two computed
    eigenvalues of a p-point operator with top eigenvalue lambda_1 may be a tie."""
    return CLUSTER_FACTOR * p * np.finfo(float).eps * lambda_1


def retained_rank(lam: np.ndarray, cn: float, p: int) -> int:
    """d_n: the number of positive eigenvalues at or above cn (boundary
    inclusive) of a descending spectrum of a p-point operator.

    The positive values are read as a prefix. DegenerateFitError is
    raised when none is retained, or when cn separates two positive
    eigenvalues closer than ``cluster_tolerance``.
    """
    rank = int(np.count_nonzero(lam > 0))
    d = int(np.count_nonzero(lam[:rank] >= cn))
    if d == 0:
        raise DegenerateFitError("threshold exceeds spectrum: no eigenvalue retained")
    tol = cluster_tolerance(lam[0], p)
    if d < rank and lam[d - 1] - lam[d] <= tol:
        raise DegenerateFitError(
            f"threshold splits tied eigenvalues lambda_{d} = {float(lam[d - 1])!r} and "
            f"lambda_{d + 1} = {float(lam[d])!r}: gap {lam[d - 1] - lam[d]:.3g} <= "
            f"cluster tolerance {tol:.3g}"
        )
    return d


def eigendecompose(sample: CurveMatrix, cn: float) -> tuple[np.ndarray, CurveMatrix]:
    """Eigensystem of h -> sum_j w_j K(., t_j) h(t_j) under the weighted
    product, with K = X'X / n for the rows X of ``sample`` as given.

    Returns ``(eigenvalues, eigenvectors)``, both read-only. The
    eigenvalues are the positive ones at or above the clamp, descending,
    on either route (see the module docstring). ``eigenvectors`` holds
    the vectors of the d_n pairs that ``retained_rank`` keeps at ``cn``
    (cn = 0 keeps every pair) as the rows of one matrix, orthonormal
    under the quadrature product with a deterministic sign convention;
    ``retained_rank`` raises DegenerateFitError when there is none, on
    either route, or when cn splits a tie.
    """
    if not isinstance(sample, CurveMatrix):
        raise ValidationError("sample rows must be a CurveMatrix")
    grid = sample.grid
    n = len(sample)
    w = grid.weights
    sqrt_w = np.sqrt(w)
    gram_route = n < len(w)
    with np.errstate(over="ignore", invalid="ignore"):
        if gram_route:
            # ZZ' of one buffer is exactly symmetric: the sqrt(w) scaling
            # comes before the product
            z = sample.values * sqrt_w
            sym = z @ z.T / n
        else:
            # X'X of one buffer is exactly symmetric, but the sqrt(w) scaling
            # rounds its two triangles differently
            kernel = sample.values.T @ sample.values / n
            sym = sqrt_w[:, None] * kernel * sqrt_w[None, :]
            sym = (sym + sym.T) / 2
    if not np.all(np.isfinite(sym)):
        raise ValidationError("sample covariance overflows: the curve values are too large")
    try:
        lam, vec = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"eigensolver failed: {exc}") from None
    order = np.argsort(lam)[::-1]
    lam = lam[order]
    # descending, so the positive values at or above the clamp are a prefix
    lam = lam[:np.count_nonzero((lam > 0) & (lam >= EIGENVALUE_CLAMP * lam[0]))]
    held = retained_rank(lam, cn, len(w))
    vec = vec[:, order[:held]]
    if gram_route:
        vec = z.T @ vec / np.sqrt(n * lam[:held])

    # rows are eigenvectors in raw coordinates; C order keeps each row's
    # sum the same pairwise reduction as the sum over a single curve
    u = np.ascontiguousarray(vec.T) / sqrt_w
    # renormalize under the quadrature product and fix the sign so that
    # each row's largest-magnitude entry is positive
    u = u / np.sqrt(np.sum(u * u * w, axis=1))[:, None]
    peak = u[np.arange(held), np.argmax(np.abs(u), axis=1)]
    u[peak < 0] *= -1
    u.flags.writeable = False
    lam.flags.writeable = False
    return lam, CurveMatrix(grid, u)
