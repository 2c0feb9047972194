"""Regularization filter family, rank rules, and the bias-condition probe.

A filter maps empirical eigenvalues to the coefficients of the
regularized inverse. Every kind vanishes strictly below its threshold
cn and satisfies f(x) > 0 for x >= cn:

    truncation   f(x) = 1/x
    ridge        f(x) = 1/(x + alpha)
    tikhonov     f(x) = x/(x^2 + alpha)
    generalized  f(x) = x^p/(x + alpha)^(p+1)   (variant A)
                 f(x) = x^p/(x^(p+1) + alpha)   (variant B)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import config
from .covariance import spectral_gaps
from .errors import ValidationError

TRUNCATION = "truncation"
RIDGE = "ridge"
TIKHONOV = "tikhonov"
GENERALIZED = "generalized"

_KINDS = (TRUNCATION, RIDGE, TIKHONOV, GENERALIZED)

# Grid resolution for the sup search when no closed form is available.
_H3_GRID = 10_000


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
        if self.kind not in _KINDS:
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
            if self.p is None or int(self.p) != self.p or self.p < 1:
                raise ValidationError("generalized filter requires integer p >= 1")
            if self.variant not in ("A", "B"):
                raise ValidationError("generalized filter variant must be 'A' or 'B'")
            object.__setattr__(self, "p", int(self.p))
        elif self.kind in (RIDGE, TIKHONOV):
            if self.p is not None or self.variant is not None:
                raise ValidationError(f"{self.kind} takes only alpha")


def filter_values(spec: FilterSpec, x) -> np.ndarray:
    """Vectorized f_n over nonnegative arguments; zero strictly below cn."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or not np.all(np.isfinite(x)):
        raise ValidationError("filter arguments must be finite and nonnegative")
    on = x >= spec.cn
    out = np.zeros_like(x)
    xs = x[on]
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
    return out


def select_kn(true_eigenvalues, cn: float) -> int:
    """Nonrandom rank: the largest p with lambda_p + delta_p/2 >= cn.

    The input is read as a truncation of an infinite decreasing spectrum,
    so the last index (whose right-neighbor gap is unknown) never enters
    the sup. delta_1 = lambda_1 - lambda_2 and delta_p is the min of the
    two neighboring differences.
    """
    lam = np.asarray(true_eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValidationError("need a 1-d eigenvalue sequence")
    if not np.all(lam > 0) or not np.all(np.isfinite(lam)):
        raise ValidationError("eigenvalues must be positive and finite")
    if lam.size > 1 and not np.all(np.diff(lam) < 0):
        raise ValidationError("eigenvalues must be strictly decreasing")
    if not 0 < cn < lam[0]:
        raise ValidationError(f"threshold must satisfy 0 < cn < lambda_1, got {cn}")
    m = lam.size
    if m == 1:
        return 1
    deltas = spectral_gaps(lam)[:-1]
    eligible = np.flatnonzero(lam[: m - 1] + deltas / 2 >= cn)
    # p = 1 always qualifies because lambda_1 > cn
    return int(eligible[-1]) + 1


def effective_rank(decomposition, cn: float) -> int:
    """Number of strictly positive empirical eigenvalues >= cn (boundary
    inclusive)."""
    lam = np.asarray(decomposition.eigenvalues, dtype=float)
    if not np.isfinite(cn) or cn < 0:
        raise ValidationError("threshold cn must be nonnegative and finite")
    return int(np.count_nonzero((lam >= cn) & (lam > 0)))


@dataclass(frozen=True)
class H3Report:
    """Finite-sample probe of the attenuation condition.

    sup_deviation is sup over [cn, upper] of |s f_n(s) - 1|. The
    asymptotic requirement (a o(1/sqrt(n)) decay) cannot be decided from
    one sample; bound_satisfied_hint just flags sup * sqrt(n) <= 1.
    """

    sup_deviation: float
    bound_satisfied_hint: bool


def check_h3(spec: FilterSpec, n: int, upper: float) -> H3Report:
    """Evaluate the sup deviation analytically where a closed form exists
    (the extremum sits at s = cn for truncation/ridge/tikhonov), else by
    dense grid search."""
    if n < 1:
        raise ValidationError("sample size must be >= 1")
    if upper < spec.cn:
        raise ValidationError("upper end must be >= cn")
    if spec.kind == TRUNCATION:
        sup = 0.0
    elif spec.kind == RIDGE:
        sup = spec.alpha / (spec.cn + spec.alpha)
    elif spec.kind == TIKHONOV:
        sup = spec.alpha / (spec.cn**2 + spec.alpha)
    else:
        s = np.linspace(spec.cn, upper, _H3_GRID)
        sup = float(np.max(np.abs(s * filter_values(spec, s) - 1.0)))
    return H3Report(
        sup_deviation=float(sup), bound_satisfied_hint=bool(sup * np.sqrt(n) <= 1.0)
    )


def filter_from_config(cfg: dict, cn: float | None = None) -> FilterSpec:
    """Build a FilterSpec from its JSON fragment, rejecting unknown keys.

    An explicit ``cn`` argument overrides the fragment's value (used when
    a threshold rule supplies the cutoff per sample size).
    """
    where = "filter"
    required = ("kind", "cn") if cn is None else ("kind",)
    config.section(cfg, where, required, ("cn", "alpha", "p", "variant"))
    return FilterSpec(
        kind=config.value(cfg, "kind", where, str),
        cn=config.value(cfg, "cn", where, float) if cn is None else float(cn),
        alpha=config.value(cfg, "alpha", where, float, None),
        p=config.value(cfg, "p", where, int, None),
        variant=config.value(cfg, "variant", where, str, None),
    )


def filter_to_config(spec: FilterSpec) -> dict:
    cfg = {"kind": spec.kind, "cn": spec.cn}
    if spec.alpha is not None:
        cfg["alpha"] = spec.alpha
    if spec.p is not None:
        cfg["p"] = spec.p
    if spec.variant is not None:
        cfg["variant"] = spec.variant
    return cfg
