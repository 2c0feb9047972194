"""Exact symmetries of the fit and its intervals, each checked on one data set.

Every filter variant, centered and uncentered, on both solver routes
(n >= p solves on the p x p matrix, n < p on the Gram matrix):

* scale: X -> cX and x -> cx, with the filter rescaled so that
  f_n(c^2 s) = f_n(s) / c^2 (see ``filters.filter_values``), keeps d_n,
  the center and both half widths, and gives rho_hat / c; bit-equal for
  c = 2, to 1e-12 relative for c = 3;
* response map: y -> a + b y (centered) or y -> b y (uncentered) moves the
  center to a + b center and scales both half widths by |b|;
* row order: permuting the sample keeps d_n, rho_hat, the center and both
  half widths to 1e-12 relative;
* pivot identity: s_hat^2 = mean_i t_hat(X_c,i)^2 over the fit's own rows
  X_c (centered or not, as the fit), to 8 d_n eps relative, since
  mean_i <X_c,i, e_j>^2 = lam_j; so s_hat is the root mean square of t_hat.

Centers are compared on the scale max(|center|, half width), as a center
near zero carries the roundoff of the terms that cancel in it. A shift of
every curve and of x by one constant curve is not checked: the t_hat half
width of a centered fit moves with it, as that pivot is taken at the raw x
and not at x - x_mean, a known fault of centered fits.
"""

from dataclasses import replace

import numpy as np
import pytest

from funreg.covariance import eigendecompose
from funreg.estimator import fit, prediction_interval, t_pivot
from funreg.filters import FilterSpec
from funreg.hilbert import Curve, CurveMatrix, make_trapezoid_grid
from funreg.simlab import CoeffRule, EigenDecay, SpectralModel, generate_dataset

# (p, n): the first and last on the p x p route, the middle two on the Gram route
SHAPES = [(21, 200), (101, 40), (51, 30), (31, 500)]
VARIANTS = ["truncation", "ridge", "tikhonov", "generalized-A", "generalized-B"]
LEVEL = 0.9
RTOL = 1e-12


def make_filter(variant: str, cn: float) -> FilterSpec:
    """Each variant at threshold cn, with alpha on the scale of f_n(cn)."""
    return {
        "truncation": FilterSpec("truncation", cn),
        "ridge": FilterSpec("ridge", cn, alpha=cn),
        "tikhonov": FilterSpec("tikhonov", cn, alpha=cn**2),
        "generalized-A": FilterSpec("generalized", cn, alpha=cn, p=2, variant="A"),
        "generalized-B": FilterSpec("generalized", cn, alpha=cn**3, p=2, variant="B"),
    }[variant]


def rescaled(spec: FilterSpec, c: float) -> FilterSpec:
    """The filter g with g(c^2 s) = f(s) / c^2: cn by c^2, and alpha by c^2
    (ridge, generalized A), c^4 (tikhonov) or c^(2p+2) (generalized B)."""
    if spec.alpha is None:
        return replace(spec, cn=spec.cn * c**2)
    power = {"ridge": 2, "tikhonov": 4}.get(spec.kind)
    if power is None:
        power = 2 if spec.variant == "A" else 2 * spec.p + 2
    return replace(spec, cn=spec.cn * c**2, alpha=spec.alpha * c**power)


def dataset(p: int, n: int, center: bool):
    """n mean-shifted curves, their responses, one more curve as x, and a
    threshold halfway (geometrically) between the 5th and 6th eigenvalues."""
    grid = make_trapezoid_grid(0.0, 1.0, p)
    model = SpectralModel(grid, EigenDecay.power(1.0), CoeffRule.power(2.0),
                          noise_sd=0.5, L=min(20, p - 1))
    sample, y = generate_dataset(model, n + 1, np.random.default_rng(p * n))
    rows = sample.values + (1.0 + 2.0 * grid.points)
    solved = rows[:n] - rows[:n].mean(axis=0) if center else rows[:n]
    lam, _ = eigendecompose(CurveMatrix(grid, solved), 0.0)
    cn = float(np.sqrt(lam[4] * lam[5]))
    return grid, rows[:n], y[:n] + 0.5, Curve(grid, rows[n]), cn


def summary(grid, rows, y, x, spec, center):
    """The fit and its (center, s_hat half width, t_hat half width) at x."""
    ft = fit(CurveMatrix(grid, rows), y, spec, center=center)
    s_iv = prediction_interval(ft, x, LEVEL, "s_hat")
    t_iv = prediction_interval(ft, x, LEVEL, "t_hat")
    assert s_iv.center == t_iv.center
    return ft, (s_iv.center, s_iv.half_width, t_iv.half_width)


def assert_close_intervals(got, want):
    center, *halves = want
    scale = max(abs(center), *halves)
    assert abs(got[0] - center) <= RTOL * scale
    for g, w in zip(got[1:], halves):
        assert abs(g - w) <= RTOL * w


def relative_gap(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


CASES = [
    pytest.param(p, n, variant, center, id=f"{p}x{n}-{variant}-{'centered' if center else 'raw'}")
    for p, n in SHAPES for variant in VARIANTS for center in (True, False)
]


@pytest.fixture(scope="module")
def data():
    return {(p, n, center): dataset(p, n, center)
            for p, n in SHAPES for center in (True, False)}


@pytest.mark.parametrize("p, n, variant, center", CASES)
def test_scale(data, p, n, variant, center):
    grid, rows, y, x, cn = data[p, n, center]
    spec = make_filter(variant, cn)
    base, want = summary(grid, rows, y, x, spec, center)
    # a power of two scales every product exactly
    ft, got = summary(grid, 2.0 * rows, y, Curve(grid, 2.0 * x.values),
                      rescaled(spec, 2.0), center)
    assert ft.d_n == base.d_n
    assert got == want
    assert np.array_equal(2.0 * ft.rho_hat.values, base.rho_hat.values)

    ft, got = summary(grid, 3.0 * rows, y, Curve(grid, 3.0 * x.values),
                      rescaled(spec, 3.0), center)
    assert ft.d_n == base.d_n
    assert_close_intervals(got, want)
    assert relative_gap(3.0 * ft.rho_hat.values, base.rho_hat.values) <= RTOL


@pytest.mark.parametrize("p, n, variant, center", CASES)
def test_response_map(data, p, n, variant, center):
    grid, rows, y, x, cn = data[p, n, center]
    spec = make_filter(variant, cn)
    a, b = (0.75 if center else 0.0), -1.5
    base, (center_0, s_half, t_half) = summary(grid, rows, y, x, spec, center)
    ft, got = summary(grid, rows, a + b * y, x, spec, center)
    assert ft.d_n == base.d_n
    assert_close_intervals(got, (a + b * center_0, abs(b) * s_half, abs(b) * t_half))


@pytest.mark.parametrize("p, n, variant, center", CASES)
def test_row_order(data, p, n, variant, center):
    grid, rows, y, x, cn = data[p, n, center]
    spec = make_filter(variant, cn)
    base, want = summary(grid, rows, y, x, spec, center)
    order = np.random.default_rng(n).permutation(n)
    ft, got = summary(grid, rows[order], y[order], x, spec, center)
    assert ft.d_n == base.d_n
    assert relative_gap(ft.rho_hat.values, base.rho_hat.values) <= RTOL
    assert_close_intervals(got, want)


@pytest.mark.parametrize("p, n, variant, center", CASES)
def test_s_hat_is_the_root_mean_square_of_t_hat(data, p, n, variant, center):
    grid, rows, y, _, cn = data[p, n, center]
    ft = fit(CurveMatrix(grid, rows), y, make_filter(variant, cn), center=center)
    own = rows - rows.mean(axis=0) if center else rows
    # one (n, d_n) call: the coordinates <X_c,i, e_j> of every row
    t = t_pivot(ft.weights, own @ (grid.weights * ft.eigenvectors.values).T)
    assert t.shape == (n,)
    gap = abs(np.mean(t**2) - ft.s_hat**2) / ft.s_hat**2
    assert gap <= 8 * ft.d_n * np.finfo(float).eps
