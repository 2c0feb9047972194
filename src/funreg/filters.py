"""Regularization filter family, its gain, the nonrandom rank k_n, and the
attenuation probe of H3.

A filter maps empirical eigenvalues to the coefficients of the
regularized inverse. Every kind vanishes strictly below its threshold
cn and satisfies f(x) > 0 for every positive x >= cn:

    truncation   f(x) = 1/x
    ridge        f(x) = 1/(x + alpha)
    tikhonov     f(x) = x/(x^2 + alpha)
    generalized  f(x) = x^p/(x + alpha)^(p+1)   (variant A)
                 f(x) = x^p/(x^(p+1) + alpha)   (variant B)

The gain g(x) = x f(x) is what a filter keeps of a mode; s_hat, H3's
``h3_sup_deviation`` and a noise-free refit read it from its one rule,
``gain``, which is exactly 1.0 on truncation's support (not x * (1/x)).

The empirical rank d_n a threshold keeps is counted on the sample
spectrum by ``covariance.retained_rank``; a model spectrum is checked by
``check_true_spectrum``, for ``select_kn`` and ``SpectralModel.lambdas``.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np

from . import config
from .errors import ValidationError

TRUNCATION = "truncation"
RIDGE = "ridge"
TIKHONOV = "tikhonov"
GENERALIZED = "generalized"

KINDS = (TRUNCATION, RIDGE, TIKHONOV, GENERALIZED)
# the two forms of the generalized filter, named in the module docstring
VARIANTS = ("A", "B")


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind with its threshold and parameters.

    cn = 0 is accepted for the parametric kinds (keep every strictly
    positive eigenvalue); truncation needs cn > 0 since f(x) = 1/x blows
    up at the origin.
    """

    kind: str
    cn: float
    alpha: float | None = None
    p: int | None = None
    variant: str | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"unknown filter kind {self.kind!r}")
        if not np.isfinite(self.cn) or self.cn < 0:
            raise ValidationError("threshold cn must be nonnegative and finite")
        if self.kind == TRUNCATION:
            if self.cn == 0:
                raise ValidationError("truncation requires cn > 0")
            if self.alpha is not None or self.p is not None or self.variant is not None:
                raise ValidationError("truncation takes no parameters")
        else:
            if self.alpha is None or not np.isfinite(self.alpha) or self.alpha <= 0:
                raise ValidationError(f"{self.kind} requires alpha > 0")
        if self.kind == GENERALIZED:
            # x^p is a float power, so p must be a float too
            if self.p is None or int(self.p) != self.p or not 1 <= self.p <= sys.float_info.max:
                raise ValidationError("generalized filter requires integer p in [1, 1.8e308]")
            if self.variant not in VARIANTS:
                raise ValidationError("generalized filter variant must be 'A' or 'B'")
            object.__setattr__(self, "p", int(self.p))
        elif self.kind in (RIDGE, TIKHONOV):
            if self.p is not None or self.variant is not None:
                raise ValidationError(f"{self.kind} takes only alpha")


def filter_values(spec: FilterSpec, x) -> np.ndarray:
    """Read-only vectorized f_n over nonnegative arguments; zero strictly below cn.
    A value that over- or underflows (as x^p may) is refused, not returned.

    Curves scaled by c scale the spectrum by c^2. With cn scaled by c^2 and
    alpha by c^2 (ridge, generalized A), c^4 (tikhonov) or c^(2p+2)
    (generalized B), the rescaled filter g has g(c^2 x) = f_n(x) / c^2.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValidationError("filter arguments must be finite and nonnegative")
    on = x >= spec.cn
    out = np.zeros_like(x)
    xs = x[on]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if spec.kind == TRUNCATION:
            out[on] = 1.0 / xs
        elif spec.kind == RIDGE:
            out[on] = 1.0 / (xs + spec.alpha)
        elif spec.kind == TIKHONOV:
            out[on] = xs / (xs**2 + spec.alpha)
        else:
            if spec.variant == "A":
                out[on] = xs**spec.p / (xs + spec.alpha) ** (spec.p + 1)
            else:
                out[on] = xs**spec.p / (xs ** (spec.p + 1) + spec.alpha)
    bad = ~np.isfinite(out) | (on & (x > 0) & (out == 0))
    if np.any(bad):
        raise ValidationError(f"{spec.kind} filter over- or underflows at {float(x[bad][0])!r}")
    out.flags.writeable = False
    return out


def gain(spec: FilterSpec, lam, f) -> np.ndarray:
    """g(lam) = lam f(lam) for f = ``filter_values(spec, lam)``: 0 below cn, and
    exactly 1.0 on truncation's support."""
    if spec.kind == TRUNCATION:
        return np.where(lam >= spec.cn, 1.0, 0.0)
    return lam * f


def spectral_gaps(lam: np.ndarray) -> np.ndarray:
    """Min-of-neighbors differences of a descending spectrum: delta_1 =
    lam_1 - lam_2 and delta_j = min(lam_{j-1} - lam_j, lam_j - lam_{j+1}),
    with an implicit next eigenvalue 0 after the last."""
    ext = np.append(lam, 0.0)
    right = ext[:-1] - ext[1:]
    gaps = right.copy()
    gaps[1:] = np.minimum(right[1:], right[:-1])
    return gaps


def check_true_spectrum(values) -> np.ndarray:
    """``values`` as a model spectrum: 1-d, nonempty, positive, finite, strictly decreasing."""
    lam = np.asarray(values, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValidationError("need a 1-d eigenvalue sequence")
    if not np.all(lam > 0) or not np.all(np.isfinite(lam)):
        raise ValidationError("eigenvalues must be positive and finite")
    if lam.size > 1 and not np.all(np.diff(lam) < 0):
        raise ValidationError("eigenvalues must be strictly decreasing")
    return lam


def select_kn(true_eigenvalues, cn: float) -> int:
    """Nonrandom rank: the largest p with lambda_p + delta_p/2 >= cn.

    The input is read as a truncation of an infinite decreasing spectrum,
    so the last index (whose right-neighbor gap is unknown) never enters
    the sup. delta_1 = lambda_1 - lambda_2 and delta_p is the min of the
    two neighboring differences.
    """
    lam = check_true_spectrum(true_eigenvalues)
    if not 0 < cn < lam[0]:
        raise ValidationError(f"threshold must satisfy 0 < cn < lambda_1, got {cn}")
    m = lam.size
    if m == 1:
        return 1
    deltas = spectral_gaps(lam)[:-1]
    eligible = np.flatnonzero(lam[: m - 1] + deltas / 2 >= cn)
    # p = 1 always qualifies because lambda_1 > cn
    return int(eligible[-1]) + 1


def h3_sup_deviation(spec: FilterSpec) -> float:
    """sup over s >= cn of |1 - g(s)|, the attenuation of H3.

    The gain g rises with s for every kind, so the sup is 1 - g(cn): a
    closed form for ridge and tikhonov, free of its cancellation, and
    exactly 0 for truncation by ``gain``.
    """
    if spec.kind == RIDGE:
        return spec.alpha / (spec.cn + spec.alpha)
    if spec.kind == TIKHONOV:
        return spec.alpha / (spec.cn**2 + spec.alpha)
    return float(1.0 - gain(spec, spec.cn, filter_values(spec, spec.cn)))


def filter_from_config(cfg: dict, cn: float | None = None, where: str = "filter") -> FilterSpec:
    """Build a FilterSpec from its JSON fragment, rejecting unknown keys.

    An explicit ``cn`` argument supplies the threshold (used when a
    threshold rule gives the cutoff per sample size), and the fragment may
    then not hold a ``cn`` of its own. Every refusal names ``where``, the
    fragment's dotted path, once.
    """
    required = ("kind", "cn") if cn is None else ("kind",)
    config.section(cfg, where, required, ("alpha", "p", "variant"))
    args = dict(
        kind=config.value(cfg, "kind", where, str),
        cn=config.value(cfg, "cn", where, float) if cn is None else float(cn),
        alpha=config.value(cfg, "alpha", where, float, None),
        p=config.value(cfg, "p", where, int, None),
        variant=config.value(cfg, "variant", where, str, None),
    )
    with config.naming(where):
        return FilterSpec(**args)


def filter_to_config(spec: FilterSpec) -> dict:
    """The spec's fields that are set, in declaration order."""
    return {f.name: v for f in fields(spec) if (v := getattr(spec, f.name)) is not None}
