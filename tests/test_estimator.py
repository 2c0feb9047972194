import dataclasses
import functools
import json
import operator
import tracemalloc

import numpy as np
import pytest

from funreg import cli, estimator
from funreg.covariance import eigendecompose, retained_rank
from funreg.errors import DegenerateFitError, FunregError, ValidationError
from funreg.estimator import (
    NORMALIZERS,
    ORTHONORMALITY_TOL,
    EstimatorFit,
    fit,
    fit_from_dict,
    fit_to_dict,
    load_fit,
    normalizers,
    predict,
    prediction_interval,
    save_fit,
)
from funreg.filters import FilterSpec, filter_values
from funreg.hilbert import (
    Curve,
    CurveMatrix,
    Grid,
    inner_product,
    make_trapezoid_grid,
    norm,
    save_curves_csv,
)
from funreg.normal import ndtri
from test_symmetries import VARIANTS, make_filter


def unit_weight_grid(p=2):
    return Grid(np.arange(float(p)), np.ones(p))


def toy_fit(center=False):
    g = unit_weight_grid()
    sample = [Curve(g, [2.0, 0.0]), Curve(g, [0.0, 1.0])]
    return sample, fit(sample, [2.0, 1.0], FilterSpec("truncation", 0.1), center=center)


def centered_rows(sample):
    """The rows minus their mean curve, as ``fit`` centers them."""
    matrix = CurveMatrix.of(sample)
    return CurveMatrix(matrix.grid, matrix.values - matrix.values.mean(axis=0))


def gaussian_sample(n, p, seed=0):
    g = make_trapezoid_grid(0.0, 1.0, p)
    rng = np.random.default_rng(seed)
    sample = [Curve(g, rng.standard_normal(p)) for _ in range(n)]
    return g, sample, rng


class TestRegularizedInverse:
    """The filtered inverse rho_hat = sum_j f(lam_j) <Delta_n, e_j> e_j, seen
    through fit."""

    def test_truncation_reciprocals_on_diagonal_spectrum(self):
        sample, ft = toy_fit()
        assert np.allclose(ft.filtered_values, [0.5, 2.0])
        # Delta_n = (1/n) sum_i Y_i X_i = (2, 0.5)
        delta = Curve(ft.rho_hat.grid, [2.0, 0.5])
        for f, e in zip(ft.filtered_values, ft.eigenvectors):
            assert inner_product(ft.rho_hat, e) == pytest.approx(f * inner_product(delta, e))

    def test_ridge_coefficient(self):
        g = make_trapezoid_grid(0.0, 1.0, 8)
        rng = np.random.default_rng(1)
        u = Curve(g, rng.standard_normal(8))
        u = Curve(g, u.values * (1.0 / norm(u)))
        ft = fit([u, u], [1.0, 1.0], FilterSpec("ridge", 0.1, alpha=0.5), center=False)
        assert ft.d_n == 1
        assert ft.filtered_values[0] == pytest.approx(1 / 1.5, rel=1e-10)

    def test_rank_zero_is_an_error(self):
        g, sample, _ = gaussian_sample(5, 6, seed=4)
        lam, _ = eigendecompose(centered_rows(sample), 0.0)
        with pytest.raises(DegenerateFitError):
            fit(sample, np.ones(5), FilterSpec("truncation", lam[0] * 2))

    def test_rank_matches_effective_rank(self):
        g, sample, _ = gaussian_sample(12, 6, seed=5)
        lam, _ = eigendecompose(centered_rows(sample), 0.0)
        spec = FilterSpec("truncation", lam[2])
        ft = fit(sample, np.ones(12), spec)
        assert ft.d_n == retained_rank(lam, spec.cn, len(g)) == 3
        assert ft.filtered_values.size == 3


class TestFit:
    def test_hand_example(self):
        _, ft = toy_fit()
        assert np.allclose(ft.rho_hat.values, [1.0, 1.0], atol=1e-12)
        assert ft.d_n == 2
        assert ft.s_hat == pytest.approx(np.sqrt(2))

    def test_noiseless_recovery_on_retained_span(self):
        g, sample, rng = gaussian_sample(40, 10, seed=7)
        lam, vectors = eigendecompose(CurveMatrix.of(sample), 0.0)
        rho = Curve(g, vectors.values[0] * 0.8 + vectors.values[1] * (-0.3))
        y = [inner_product(rho, x) for x in sample]
        ft = fit(sample, y, FilterSpec("truncation", lam[2]), center=False)
        for j in range(ft.d_n):
            err = inner_product(ft.rho_hat - rho, vectors[j])
            assert abs(err) < 1e-8

    def test_zero_responses(self):
        g, sample, _ = gaussian_sample(10, 6, seed=9)
        ft = fit(sample, np.zeros(10), FilterSpec("truncation", 1e-6), center=False)
        assert np.allclose(ft.rho_hat.values, 0.0, atol=1e-12)
        assert ft.sigma_hat == pytest.approx(0.0, abs=1e-12)

    def test_zero_wide_sample_is_degenerate(self):
        # n < p with an all-zero spectrum: no eigenpair to keep, and the
        # same error (exit 3) as a threshold above a nonzero spectrum
        g = make_trapezoid_grid(0.0, 1.0, 11)
        with pytest.raises(DegenerateFitError, match="threshold exceeds spectrum"):
            fit(CurveMatrix(g, np.zeros((3, 11))), [1.0, 0.0, -1.0],
                FilterSpec("truncation", 1e-6), center=False)

    def test_needs_two_observations(self):
        g = unit_weight_grid()
        with pytest.raises(ValidationError):
            fit([Curve(g, [1.0, 0.0])], [1.0], FilterSpec("truncation", 0.1))

    def test_response_length_mismatch(self):
        g, sample, _ = gaussian_sample(6, 5, seed=2)
        with pytest.raises(ValidationError):
            fit(sample, [1.0] * 5, FilterSpec("truncation", 1e-6))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_responses_rejected(self, bad):
        g, sample, _ = gaussian_sample(6, 5, seed=2)
        y = np.ones(6)
        y[3] = bad
        for center in (True, False):
            with pytest.raises(ValidationError, match="responses must be finite"):
                fit(sample, y, FilterSpec("truncation", 1e-6), center=center)

    def test_filtered_values_are_kept_on_the_fit(self):
        g, sample, rng = gaussian_sample(30, 8, seed=6)
        spec = FilterSpec("tikhonov", 1e-3, alpha=0.01)
        ft = fit(sample, rng.standard_normal(30), spec)
        lam = ft.eigenvalues[: ft.d_n]
        assert np.array_equal(ft.filtered_values, filter_values(spec, lam))
        assert not ft.filtered_values.flags.writeable

    @pytest.mark.parametrize("scale, message", [
        (1e300, "residual scale sigma_hat overflows"),
        (1e308, "curve values must be finite"),
    ], ids=["residuals", "cross-covariance"])
    def test_overflowing_responses_are_refused_without_a_warning(self, scale, message):
        g, sample, rng = gaussian_sample(12, 5, seed=3)
        with pytest.raises(ValidationError, match=f"^{message}"):
            fit(sample, scale * np.sign(rng.standard_normal(12)), FilterSpec("ridge", 0.0,
                                                                            alpha=0.1))

    def test_one_name_per_quantity(self):
        # a fit's grid is rho_hat's, and its spectrum is its own two fields
        _, ft = toy_fit()
        for obj, name in ((EstimatorFit, "grid"), (EstimatorFit, "decomposition"),
                          (ft, "grid"), (ft, "decomposition")):
            assert not hasattr(obj, name)

    def test_saturated_fit_has_undefined_sigma(self):
        _, ft = toy_fit()
        assert np.isnan(ft.sigma_hat)

    def test_rho_in_retained_span(self):
        g, sample, _ = gaussian_sample(15, 8, seed=3)
        y = np.linspace(-1, 1, 15)
        ft = fit(sample, y, FilterSpec("truncation", 1e-3), center=False)
        vm = ft.eigenvectors.values[: ft.d_n]
        coeff = vm @ (g.weights * ft.rho_hat.values)
        residual = ft.rho_hat.values - coeff @ vm
        assert np.sqrt(np.sum(residual**2 * g.weights)) < 1e-8

    def test_centered_fit_holds_one_copy_of_the_rows(self):
        # the centered rows cost one copy of the sample, so the peak is about
        # 2.0x the rows' bytes; a second copy of them would peak at about 3.0x
        g = make_trapezoid_grid(0.0, 1.0, 101)
        rng = np.random.default_rng(3)
        values = rng.standard_normal((20000, 101))
        values.flags.writeable = False
        sample = CurveMatrix(g, values)
        y = rng.standard_normal(20000)
        tracemalloc.start()
        try:
            ft = fit(sample, y, FilterSpec("ridge", 0.01, alpha=0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sample.values is values and ft.centered
        assert peak <= 2.5 * values.nbytes

    @pytest.mark.parametrize("center, bound", [(True, 1.25), (False, 0.25), (True, 1.11)])
    def test_fit_builds_no_temporary_the_size_of_the_rows(self, center, bound):
        # the p x p route at the cli-fit-predict shape: a centered fit holds
        # one copy of the rows (1.0x) and the eigensolver's p x p arrays
        # (about 0.1x), and no (n, p) finiteness mask (0.125x); the residuals
        # are inner products, with no (n, p) product beside them
        g = make_trapezoid_grid(0.0, 1.0, 101)
        rng = np.random.default_rng(4)
        values = rng.standard_normal((5000, 101))
        values.flags.writeable = False
        sample = CurveMatrix(g, values)
        y = rng.standard_normal(5000)
        tracemalloc.start()
        try:
            ft = fit(sample, y, FilterSpec("ridge", 0.01, alpha=0.1), center=center)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(ft.sigma_hat)
        assert peak <= bound * values.nbytes


class TestPredict:
    def test_zero_curve(self):
        _, ft = toy_fit()
        assert predict(ft, Curve.zeros(ft.rho_hat.grid)) == 0.0

    def test_hand_value(self):
        sample, ft = toy_fit()
        assert predict(ft, sample[0]) == pytest.approx(2.0, abs=1e-12)

    def test_linearity_without_centering(self):
        sample, ft = toy_fit()
        x1, x2 = sample
        lhs = predict(ft, Curve(x1.grid, 2.0 * x1.values + (-3.0) * x2.values))
        rhs = 2.0 * predict(ft, x1) - 3.0 * predict(ft, x2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_grid_mismatch(self):
        _, ft = toy_fit()
        other = Curve(make_trapezoid_grid(0, 1, 2), [1.0, 1.0])
        with pytest.raises(ValidationError, match="^curves live on different grids$"):
            predict(ft, other)

    def test_centered_fit_reproduces_training_mean(self):
        g, sample, _ = gaussian_sample(20, 6, seed=11)
        y = np.linspace(0.0, 3.0, 20) + 5.0
        ft = fit(sample, y, FilterSpec("truncation", 1e-4), center=True)
        x_mean = Curve(g, np.mean([c.values for c in sample], axis=0))
        assert predict(ft, x_mean) == pytest.approx(y.mean(), rel=1e-10)

    @pytest.mark.parametrize("center", [False, True], ids=["uncentered", "centered"])
    def test_equals_the_inner_product_bit_for_bit(self, center):
        g, sample, rng = gaussian_sample(20, 6, seed=13)
        ft = fit(sample, rng.standard_normal(20) + 4.0, FilterSpec("ridge", 1e-4, alpha=1e-3),
                 center=center)
        for values in rng.standard_normal((5, 6)) * [[1e-3], [1.0], [1e3], [1e150], [-1e300]]:
            x = Curve(g, values)
            expected = inner_product(ft.rho_hat, x - ft.x_mean)
            assert predict(ft, x) == (ft.y_mean + expected if center else expected)

    def test_overflow_is_refused(self):
        g, sample, rng = gaussian_sample(20, 6, seed=13)
        ft = fit(sample, rng.standard_normal(20), FilterSpec("ridge", 1e-4, alpha=1e-3))
        assert np.max(np.abs(ft.rho_hat.values)) > 1
        big = Curve(g, np.sign(ft.rho_hat.values) * 1.5e308)
        far = dataclasses.replace(ft, x_mean=Curve(g, np.full(6, -1.5e308)))
        # rho_hat times x, and x - x_mean, each overflow
        for f, x in [(ft, big), (far, Curve(g, np.full(6, 1.5e308)))]:
            with pytest.raises(ValidationError, match="^point prediction overflows: "):
                predict(f, x)


def pivots(lam, vectors, spec, x=None):
    """``normalizers`` over the pairs of a spectrum that ``spec`` retains."""
    d = retained_rank(lam, spec.cn, len(vectors.grid))
    return normalizers(lam[:d], spec, None if x is None else vectors.inner_products(x)[:d])


class TestNormalizers:
    def test_s_hat_truncation_is_sqrt_rank(self):
        g, sample, rng = gaussian_sample(30, 8, seed=6)
        lam, _ = eigendecompose(centered_rows(sample), 0.0)
        spec = FilterSpec("truncation", lam[3])
        assert fit(sample, rng.standard_normal(30), spec).s_hat == np.sqrt(4)

    def test_s_hat_ridge_example(self):
        sample = [Curve(unit_weight_grid(), [np.sqrt(2), 0.0]),
                  Curve(unit_weight_grid(), [0.0, 1.0])]
        lam, _ = eigendecompose(CurveMatrix.of(sample), 0.0)
        assert np.allclose(lam, [1.0, 0.5])
        spec = FilterSpec("ridge", 0.1, alpha=0.5)
        expected = np.sqrt((1 / 1.5) ** 2 + 0.25)
        s = fit(sample, [1.0, 1.0], spec, center=False).s_hat
        assert s == pytest.approx(expected, abs=1e-4)
        assert s == pytest.approx(0.8333, abs=1e-4)

    def test_s_hat_single_retained(self):
        g, sample, rng = gaussian_sample(25, 6, seed=8)
        lam, _ = eigendecompose(centered_rows(sample), 0.0)
        spec = FilterSpec("tikhonov", lam[0] * 0.999, alpha=0.01)
        lam1 = lam[0]
        s = fit(sample, rng.standard_normal(25), spec).s_hat
        assert s == pytest.approx(lam1 * lam1 / (lam1**2 + 0.01))

    def test_t_hat_on_leading_eigenvector(self):
        g = unit_weight_grid()
        u = Curve(g, [0.5, 0.0])  # eigenvalue 0.25 via outer product
        lam, vectors = eigendecompose(CurveMatrix.of([u]), 0.0)
        assert lam[0] == pytest.approx(0.25)
        spec = FilterSpec("truncation", 0.01)
        assert pivots(lam, vectors, spec, vectors[0]).t == pytest.approx(2.0, rel=1e-10)

    def test_t_hat_orthogonal_xestimate_zero(self):
        g, sample, _ = gaussian_sample(20, 6, seed=12)
        lam, vectors = eigendecompose(centered_rows(sample), 0.0)
        spec = FilterSpec("truncation", lam[2])
        x = vectors[4]
        assert pivots(lam, vectors, spec, x).t < 1e-10

    def test_t_hat_two_mode_example(self):
        g = Grid(np.arange(2.0), np.ones(2))
        sample = [Curve(g, [np.sqrt(2), 0.0]), Curve(g, [0.0, np.sqrt(0.5)])]
        lam, vectors = eigendecompose(CurveMatrix.of(sample), 0.0)
        assert np.allclose(lam, [1.0, 0.25])
        x = Curve(g, vectors.values[0] + vectors.values[1])
        spec = FilterSpec("truncation", 0.01)
        assert pivots(lam, vectors, spec, x).t == pytest.approx(2.2360, abs=1e-4)


class TestNormalizerKernel:
    SPECS = (
        FilterSpec("truncation", 0.05),
        FilterSpec("ridge", 0.05, alpha=0.1),
        FilterSpec("tikhonov", 0.05, alpha=0.01),
        FilterSpec("generalized", 0.05, alpha=0.02, p=2, variant="A"),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_sums_match_their_formulas(self, spec):
        lam = np.array([1.0, 0.4, 0.3, 0.05])
        c = np.array([0.5, -1.0, 2.0, 0.25])
        out = normalizers(lam, spec, c)
        f = filter_values(spec, lam)
        assert np.array_equal(out.filtered, f)
        assert out.s == pytest.approx(np.sqrt(np.sum((lam * f) ** 2)), rel=1e-14)
        assert out.t == pytest.approx(np.sqrt(np.sum(lam * f**2 * c**2)), rel=1e-14)
        assert out.peak == np.max(np.sqrt(lam) * f)
        assert normalizers(lam, spec).t is None

    def test_truncation_s_is_exactly_sqrt_rank(self):
        lam = np.array([0.9, 0.7, 0.3, 0.3, 0.11])
        assert normalizers(lam, FilterSpec("truncation", 0.1)).s == np.sqrt(5)
        # an eigenvalue below cn contributes nothing
        assert normalizers(lam, FilterSpec("truncation", 0.2)).s == 2.0

    def test_held_values_skip_the_filter(self, monkeypatch):
        lam = np.array([1.0, 0.5, 0.2])
        c = np.array([1.0, 2.0, 3.0])
        spec = FilterSpec("ridge", 0.1, alpha=0.05)
        fresh = normalizers(lam, spec, c)

        def unexpected(*args):
            raise AssertionError("filter_values called with the values in hand")

        monkeypatch.setattr(estimator, "filter_values", unexpected)
        held = normalizers(lam, spec, c, fresh.filtered)
        assert held.filtered is fresh.filtered
        assert (held.s, held.t, held.peak) == (fresh.s, fresh.t, fresh.peak)

    def test_interval_reuses_the_fit_values(self, monkeypatch):
        g, sample, rng = gaussian_sample(40, 8, seed=9)
        ft = fit(sample, rng.standard_normal(40), FilterSpec("tikhonov", 1e-3, alpha=0.01))
        expected = prediction_interval(ft, sample[0], 0.9, "t_hat")

        def unexpected(*args):
            raise AssertionError("filter_values called after the fit")

        monkeypatch.setattr(estimator, "filter_values", unexpected)
        assert prediction_interval(ft, sample[0], 0.9, "t_hat") == expected
        assert prediction_interval(ft, sample[0], 0.9, "s_hat").normalizer == ft.s_hat


class TestSigmaHat:
    def test_noiseless(self):
        g, sample, _ = gaussian_sample(30, 8, seed=13)
        lam, vectors = eigendecompose(CurveMatrix.of(sample), 0.0)
        rho = Curve(g, vectors.values[0] * 1.5)
        y = [inner_product(rho, x) for x in sample]
        ft = fit(sample, y, FilterSpec("truncation", lam[1]), center=False)
        assert ft.sigma_hat < 1e-6

    def test_explicit_error_when_saturated(self):
        sample, ft = toy_fit()
        assert np.isnan(ft.sigma_hat)
        with pytest.raises(DegenerateFitError):
            prediction_interval(ft, sample[0], 0.9)

    def test_single_residual_dof(self):
        g = unit_weight_grid(3)
        sample = [
            Curve(g, [1.0, 0.0, 0.0]),
            Curve(g, [0.0, 1.0, 0.0]),
            Curve(g, [0.0, 0.0, 1.0]),
        ]
        y = [1.0, 1.0, 1.0]
        ft = fit(sample, y, FilterSpec("truncation", 1e-9), center=True)
        # the mean takes the one observation that d_n = n - 1 leaves
        assert ft.d_n == ft.n - 1
        assert np.isnan(ft.sigma_hat)
        with pytest.raises(DegenerateFitError, match="no residual degrees of freedom"):
            prediction_interval(ft, sample[0], 0.9)


def per_curve_sigma_hat(sample, y, ft):
    """The residual scale as a loop of per-curve inner products."""
    preds = []
    for x in sample:
        if ft.centered:
            preds.append(ft.y_mean + inner_product(ft.rho_hat, x - ft.x_mean))
        else:
            preds.append(inner_product(ft.rho_hat, x))
    res = np.asarray(y, dtype=float) - np.array(preds)
    return float(np.sqrt(np.sum(res**2) / (len(sample) - ft.d_n)))


def matrix_sigma_hat(sample, y, ft):
    """The residual scale in plain numpy, all rows at once:
    sqrt(sum((y - y_mean - X_c @ (w * rho_hat))**2) / (n - d_n))."""
    x = np.stack([c.values for c in sample])
    y = np.asarray(y, dtype=float)
    x_c, y_mean = (x - x.mean(axis=0), y.mean()) if ft.centered else (x, 0.0)
    res = y - y_mean - x_c @ (ft.rho_hat.grid.weights * ft.rho_hat.values)
    return float(np.sqrt(np.sum(res**2) / (len(sample) - ft.d_n)))


class TestMatrixSampleParity:
    SPECS = (FilterSpec("truncation", 1e-2), FilterSpec("ridge", 1e-3, alpha=0.05))

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("spec", SPECS)
    def test_list_and_matrix_fits_are_identical(self, spec, center):
        g, sample, rng = gaussian_sample(40, 9, seed=71)
        y = rng.standard_normal(40)
        a = fit(sample, y, spec, center=center)
        b = fit(CurveMatrix.of(sample), y, spec, center=center)
        assert np.array_equal(a.rho_hat.values, b.rho_hat.values)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors.values, b.eigenvectors.values)
        assert np.array_equal(a.x_mean.values, b.x_mean.values)
        assert a.d_n == b.d_n
        assert a.s_hat == b.s_hat
        assert a.sigma_hat == b.sigma_hat

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("n, p", [(40, 9), (300, 101), (160, 150)])
    def test_sigma_hat_equals_per_curve_loop_bit_for_bit(self, n, p, center):
        # small noise keeps residuals far below the predictions, so any
        # change in how a prediction is rounded shows in sigma_hat: it is
        # pinned bit for bit to the matrix formula, and the per-curve loop,
        # which rounds each prediction its own way, agrees to a few ulps
        g, sample, rng = gaussian_sample(n, p, seed=n + p)
        rho = Curve(g, np.cos(3 * g.points))
        y = np.array([inner_product(rho, x) for x in sample]) + 1e-3 * rng.standard_normal(n)
        spec = FilterSpec("ridge", 1e-3, alpha=0.05)
        ft = fit(sample, y, spec, center=center)
        expected = matrix_sigma_hat(sample, y, ft)
        assert ft.sigma_hat == expected
        assert fit(CurveMatrix.of(sample), y, spec, center=center).sigma_hat == expected
        assert ft.sigma_hat == pytest.approx(per_curve_sigma_hat(sample, y, ft), rel=1e-15, abs=0)


class TestPredictionInterval:
    def make_noisy_fit(self, n=60, seed=21):
        g, sample, rng = gaussian_sample(n, 8, seed=seed)
        rho = Curve(g, np.linspace(0.5, -0.5, 8))
        y = np.array([inner_product(rho, x) for x in sample]) + 0.3 * rng.standard_normal(n)
        return g, sample, fit(sample, y, FilterSpec("truncation", 1e-2), center=False)

    def test_half_width_formula(self):
        # q(0.975) * sigma * s / sqrt(n) with sigma=1, s=2, n=100
        q = ndtri(0.975)
        assert q * 1.0 * 2.0 / 10.0 == pytest.approx(0.39199, abs=1e-5)

    def test_quantile_is_bit_equal_to_scipy_stats(self):
        from scipy.stats import norm as stdnorm

        probs = np.concatenate([np.linspace(0.5, 0.999999, 20001), [0.95, 0.975, 0.995]])
        ours = np.array([ndtri(float(q)) for q in probs])
        assert np.array_equal(ours, stdnorm.ppf(probs))

    def test_interval_uses_the_formula(self):
        g, sample, ft = self.make_noisy_fit()
        x = sample[0]
        iv = prediction_interval(ft, x, 0.95, "s_hat")
        expected = ndtri(0.975) * ft.sigma_hat * ft.s_hat / np.sqrt(ft.n)
        assert iv.half_width == pytest.approx(expected, rel=1e-12)
        assert iv.center == pytest.approx(predict(ft, x))
        assert iv.lo <= iv.center <= iv.hi

    def test_interval_reports_its_normalizer(self):
        g, sample, ft = self.make_noisy_fit()
        x = sample[2]
        assert prediction_interval(ft, x, 0.9, "s_hat").normalizer == ft.s_hat
        iv = prediction_interval(ft, x, 0.9, "t_hat")
        assert iv.normalizer == pivots(ft.eigenvalues, ft.eigenvectors, ft.filter, x).t

    def test_width_vanishes_as_level_drops(self):
        g, sample, ft = self.make_noisy_fit()
        x = sample[0]
        widths = [
            prediction_interval(ft, x, lvl, "s_hat").half_width
            for lvl in (0.9, 0.5, 0.1, 1e-6)
        ]
        assert all(a > b for a, b in zip(widths, widths[1:]))
        assert widths[-1] < 1e-5

    def test_noiseless_interval_degenerates(self):
        g, sample, _ = gaussian_sample(20, 6, seed=23)
        lam, vectors = eigendecompose(CurveMatrix.of(sample), 0.0)
        rho = vectors[0]
        y = [inner_product(rho, x) for x in sample]
        ft = fit(sample, y, FilterSpec("truncation", lam[1]), center=False)
        iv = prediction_interval(ft, sample[0], 0.95, "s_hat")
        assert iv.half_width == pytest.approx(0.0, abs=1e-10)

    def test_invalid_level(self):
        _, _, ft = self.make_noisy_fit()
        for lvl in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                prediction_interval(ft, ft.x_mean, lvl)

    def test_unknown_normalizer(self):
        _, sample, ft = self.make_noisy_fit()
        with pytest.raises(ValidationError, match="^unknown normalizer 'z_hat'$") as exc:
            prediction_interval(ft, sample[0], 0.9, "z_hat")
        assert exc.type is ValidationError

    def test_degenerate_t_hat_is_an_error(self):
        g, sample, _ = gaussian_sample(20, 6, seed=25)
        lam, vectors = eigendecompose(CurveMatrix.of(sample), 0.0)
        spec = FilterSpec("truncation", lam[2])
        y = np.linspace(0, 1, 20)
        ft = fit(sample, y, spec, center=False)
        x = vectors[5]
        with pytest.raises(DegenerateFitError):
            prediction_interval(ft, x, 0.95, "t_hat")

    def test_interval_duality(self):
        g, sample, ft = self.make_noisy_fit(seed=27)
        rho_true = Curve(g, np.linspace(0.5, -0.5, 8))
        q = ndtri(0.975)
        for x in sample[:10]:
            iv = prediction_interval(ft, x, 0.95, "s_hat")
            target = inner_product(rho_true, x)
            stat = (
                np.sqrt(ft.n) * abs(iv.center - target) / (ft.sigma_hat * ft.s_hat)
            )
            assert (iv.lo <= target <= iv.hi) == (stat <= q)


class TestStructuralProperties:
    def test_truncation_equals_pcr_on_scores(self):
        g, sample, rng = gaussian_sample(50, 10, seed=31)
        y = np.array(
            [inner_product(Curve(g, np.cos(np.pi * g.points)), x) for x in sample]
        ) + 0.2 * rng.standard_normal(50)
        lam, vectors = eigendecompose(CurveMatrix.of(sample), 0.0)
        d = 4
        ft = fit(sample, y, FilterSpec("truncation", lam[d] * 1.0001),
                 center=False)
        assert ft.d_n == d
        scores = np.array(
            [[inner_product(x, vectors[j]) for j in range(d)] for x in sample]
        )
        coef, *_ = np.linalg.lstsq(scores, y, rcond=None)
        rho_pcr = coef @ vectors.values[:d]
        assert np.abs(ft.rho_hat.values - rho_pcr).max() < 1e-8

    def test_ridge_shrinks_relative_to_truncation(self):
        g, sample, rng = gaussian_sample(40, 8, seed=33)
        y = rng.standard_normal(40)
        cn = 1e-3
        trunc = fit(sample, y, FilterSpec("truncation", cn), center=False)
        for alpha in (0.01, 0.1, 1.0):
            ridge = fit(sample, y, FilterSpec("ridge", cn, alpha=alpha), center=False)
            assert norm(ridge.rho_hat) <= norm(trunc.rho_hat) + 1e-12

    def test_scale_equivariance(self):
        g, sample, rng = gaussian_sample(30, 8, seed=35)
        y = rng.standard_normal(30)
        c = 3.7
        spec = FilterSpec("ridge", 1e-3, alpha=0.05)
        base = fit(sample, y, spec, center=False)
        scaled = fit(sample, c * y, spec, center=False)
        assert np.allclose(scaled.rho_hat.values, c * base.rho_hat.values, rtol=1e-10)
        assert scaled.sigma_hat == pytest.approx(c * base.sigma_hat, rel=1e-10)
        assert scaled.s_hat == base.s_hat
        x = sample[0]
        assert prediction_interval(scaled, x, 0.9, "t_hat").normalizer == pytest.approx(
            prediction_interval(base, x, 0.9, "t_hat").normalizer, rel=1e-12
        )
        iv_base = prediction_interval(base, x, 0.9)
        iv_scaled = prediction_interval(scaled, x, 0.9)
        assert iv_scaled.half_width == pytest.approx(c * iv_base.half_width, rel=1e-10)

    def test_s_hat_monotone_in_retained_rank(self):
        g, sample, _ = gaussian_sample(40, 10, seed=37)
        lam, vectors = eigendecompose(centered_rows(sample), 0.0)
        values = [
            pivots(lam, vectors, FilterSpec("ridge", lam[d] * 0.9999, alpha=0.01)).s
            for d in range(6)
        ]
        assert all(b >= a for a, b in zip(values, values[1:]))


class TestDenseOracles:
    """Small-instance equivalences against direct dense linear algebra."""

    def setup_case(self, seed=41, n=25, p=6):
        g = make_trapezoid_grid(0.0, 1.0, p)
        rng = np.random.default_rng(seed)
        sample = [Curve(g, rng.standard_normal(p)) for _ in range(n)]
        y = rng.standard_normal(n)
        values = np.stack([c.values for c in sample])
        K = values.T @ values / n
        K = (K + K.T) / 2
        delta = np.stack([c.values for c in sample]).T @ y / n
        return g, sample, y, K, delta

    def test_ridge_matches_dense_weighted_solve(self):
        g, sample, y, K, delta = self.setup_case()
        alpha = 0.3
        ft = fit(sample, y, FilterSpec("ridge", 0.0, alpha=alpha), center=False)
        sw = np.sqrt(g.weights)
        Kw = sw[:, None] * K * sw[None, :]
        rho_w = np.linalg.solve(Kw + alpha * np.eye(len(g)), sw * delta)
        assert np.abs(ft.rho_hat.values - rho_w / sw).max() < 1e-8

    def test_tikhonov_matches_dense_weighted_solve(self):
        g, sample, y, K, delta = self.setup_case(seed=43)
        alpha = 0.2
        ft = fit(sample, y, FilterSpec("tikhonov", 0.0, alpha=alpha), center=False)
        sw = np.sqrt(g.weights)
        Kw = sw[:, None] * K * sw[None, :]
        rho_w = Kw @ np.linalg.solve(Kw @ Kw + alpha * np.eye(len(g)), sw * delta)
        assert np.abs(ft.rho_hat.values - rho_w / sw).max() < 1e-8


class TestSerialization:
    def test_round_trip_predictions(self, tmp_path):
        g, sample, rng = gaussian_sample(30, 7, seed=51)
        y = rng.standard_normal(30)
        ft = fit(sample, y, FilterSpec("ridge", 1e-3, alpha=0.05), center=True)
        path = tmp_path / "fit.json"
        save_fit(path, ft)
        back = load_fit(path)
        for x in sample[:8]:
            assert predict(back, x) == pytest.approx(predict(ft, x), abs=1e-12)
            a = prediction_interval(ft, x, 0.9, "t_hat")
            b = prediction_interval(back, x, 0.9, "t_hat")
            assert b.center == pytest.approx(a.center, abs=1e-12)
            assert b.half_width == pytest.approx(a.half_width, abs=1e-12)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
    @pytest.mark.parametrize("n", [60, 12], ids=["pxp", "gram"])
    def test_dict_round_trip_is_lossless(self, n, center, variant):
        # p = 21: n = 60 solves on the p x p matrix, n = 12 on the Gram matrix
        g, sample, rng = gaussian_sample(n + 1, 21, seed=53)
        rows, x = CurveMatrix.of(sample[:n]), sample[n]
        lam, _ = eigendecompose(centered_rows(rows) if center else rows, 0.0)
        spec = make_filter(variant, float(np.sqrt(lam[3] * lam[4])))
        ft = fit(rows, rng.standard_normal(n), spec, center=center)
        payload = json.loads(json.dumps(fit_to_dict(ft)))
        assert "filtered_values" not in payload
        back = fit_from_dict(payload)
        # f(lam) and s_hat are derived again, by the fresh fit's own call
        assert back.d_n == ft.d_n == 4
        assert np.array_equal(back.filtered_values, ft.filtered_values)
        assert not back.filtered_values.flags.writeable
        assert back.s_hat == ft.s_hat
        assert np.array_equal(back.rho_hat.values, ft.rho_hat.values)
        assert np.array_equal(back.x_mean.values, ft.x_mean.values)
        assert (back.sigma_hat, back.n, back.filter, back.centered, back.y_mean) == (
            ft.sigma_hat, ft.n, ft.filter, ft.centered, ft.y_mean)
        # a loaded fit and a fresh one hold one form: every eigenvalue, d_n vectors
        assert np.array_equal(back.eigenvalues, ft.eigenvalues)
        assert np.array_equal(back.eigenvectors.values, ft.eigenvectors.values)
        assert predict(back, x) == predict(ft, x)
        for pivot in NORMALIZERS:
            assert prediction_interval(back, x, 0.9, pivot) == prediction_interval(ft, x, 0.9, pivot)

    def test_ill_conditioned_gram_fit_round_trips(self):
        # the Gram route maps its vectors back through the sample, so their
        # orthogonality error grows as lam_1 / sqrt(lam_i lam_j); a fresh fit
        # near the eigenvalue clamp deviates far beyond ORTHONORMALITY_TOL
        # unscaled, and must still load
        g = make_trapezoid_grid(0.0, 1.0, 101)
        k = np.arange(1, 21)
        basis = np.sqrt(2) * np.sin(np.pi * k[:, None] * g.points)
        rng = np.random.default_rng(0)
        rows = CurveMatrix(g, (rng.standard_normal((20, 20)) * 0.5**k) @ basis)
        ft = fit(rows, rng.standard_normal(20), FilterSpec("ridge", 1e-300, alpha=0.1),
                 center=False)
        payload = json.loads(json.dumps(fit_to_dict(ft)))
        v = np.array(payload["eigenvectors"])
        assert np.abs((v * g.weights) @ v.T - np.eye(ft.d_n)).max() > 1e3 * ORTHONORMALITY_TOL
        back = fit_from_dict(payload)
        assert np.array_equal(back.eigenvectors.values, ft.eigenvectors.values)

    def test_malformed_payload(self):
        with pytest.raises(ValidationError):
            fit_from_dict({"n": 3})

    def test_payload_must_agree_with_its_spectrum(self):
        g, sample, rng = gaussian_sample(12, 5, seed=53)
        ft = fit(sample, rng.standard_normal(12), FilterSpec("ridge", 1e-3, alpha=0.05))
        payload = json.loads(json.dumps(fit_to_dict(ft)))
        assert fit_from_dict(payload).s_hat == ft.s_hat
        # a file no longer stores the filtered values, and one that does is refused
        with pytest.raises(ValidationError, match="unknown config keys.*'filtered_values'"):
            fit_from_dict(dict(payload, filtered_values=ft.filtered_values.tolist()))
        for key, value in (
            ("s_hat", ft.s_hat * 1.01),
            ("eigenvectors", [row[:-1] for row in payload["eigenvectors"]]),
            ("eigenvalues", payload["eigenvalues"][: ft.d_n - 1]),
            ("eigenvalues", payload["eigenvalues"] + [1.0]),
            ("n", 12.5),
            ("n", 1),
            ("sigma_hat", -ft.sigma_hat),
            ("sigma_hat", None),
            ("d_n", True),
            ("centered", "false"),
        ):
            edited = dict(payload, **{key: value})
            with pytest.raises(ValidationError):
                fit_from_dict(edited)


# one field's replacement: each JSON kind, an integer beyond the float range,
# and NaN, which no JSON file holds but a payload dict may
FIELD_EDITS = (None, True, 3, 10**400, float("nan"), "x", [1.0], [[1.0]], {"a": 1})
DELETE = object()


def field_paths(payload):
    """Each key of a payload, of its grid and of its filter, and the first
    entry of each array (of the eigenvectors: the first row and its entry)."""
    paths = [(key,) for key in payload]
    paths += [(part, key) for part in ("grid", "filter") for key in payload[part]]
    paths += [(key, 0) for key in ("rho_hat", "eigenvalues", "eigenvectors", "x_mean")]
    paths += [("grid", "points", 0), ("grid", "weights", 0), ("eigenvectors", 0, 0)]
    return paths


def edited_payload(payload, path, value):
    out = json.loads(json.dumps(payload))
    *head, last = path
    parent = functools.reduce(operator.getitem, head, out)
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = value
    return out


@pytest.mark.parametrize("center", [True, False], ids=["centered", "uncentered"])
@pytest.mark.parametrize("spec", [
    FilterSpec("truncation", 0.05),
    FilterSpec("ridge", 0.05, alpha=0.1),
    FilterSpec("generalized", 0.05, alpha=0.01, p=2, variant="B"),
], ids=lambda s: s.kind)
def test_every_single_field_edit_loads_or_is_refused(spec, center):
    # fit_from_dict reads every field through config and the validated
    # types, so an edit either loads or raises a FunregError, never another
    # exception (a warning would be an error here too)
    g, sample, rng = gaussian_sample(12, 5, seed=71)
    payload = json.loads(json.dumps(fit_to_dict(
        fit(sample, rng.standard_normal(12), spec, center=center))))
    fit_from_dict(payload)
    refused = 0
    loaded = set()
    for path in field_paths(payload):
        for value in (DELETE, *FIELD_EDITS):
            try:
                fit_from_dict(edited_payload(payload, path, value))
                loaded.add(path)
            except FunregError:
                refused += 1
            except Exception as exc:
                pytest.fail(f"{path} set to {str(value)[:20]}: {exc!r}")
    assert refused >= 0.95 * len(field_paths(payload)) * (1 + len(FIELD_EDITS))
    # a vector entry or a weight set to 3 breaks orthonormality under the weights
    assert not loaded & {("eigenvectors", 0, 0), ("grid", "weights", 0)}


def truncation_payload():
    """The JSON of an uncentered truncation fit that keeps 4 of 8 pairs."""
    g, sample, rng = gaussian_sample(40, 8, seed=61)
    cn = float(eigendecompose(CurveMatrix.of(sample), 0.0)[0][3])
    ft = fit(sample, rng.standard_normal(40), FilterSpec("truncation", cn), center=False)
    assert ft.d_n == 4
    return json.loads(json.dumps(fit_to_dict(ft))), sample[0]


def run_predict(tmp_path, capsys, payload, x):
    """``funreg predict --level 0.9 --normalizer t_hat`` on a fit payload:
    the exit code and the stderr lines."""
    (tmp_path / "fit.json").write_text(json.dumps(payload))
    save_curves_csv(tmp_path / "x.csv", [x])
    code = cli.main(["predict", "--fit", str(tmp_path / "fit.json"), "--x",
                     str(tmp_path / "x.csv"), "--level", "0.9", "--normalizer", "t_hat"])
    return code, capsys.readouterr().err.splitlines()


def unsorted_spectrum(payload):
    """Eigenvalues d_n and d_n + 1 swapped, with the stored s_hat that the
    swapped spectrum gives: a zero inside the retained block, which a fit
    never writes."""
    d = payload["d_n"]
    lam = list(payload["eigenvalues"])
    lam[d - 1], lam[d] = lam[d], lam[d - 1]
    return dict(payload, eigenvalues=lam, s_hat=float(np.sqrt(d - 1)))


def edited_tail(payload, value):
    return dict(payload, eigenvalues=payload["eigenvalues"][:-1] + [value])


class TestLoadedSpectrum:
    """A loaded fit counts d_n by the one retained-rank rule, on a spectrum
    of the form a fit writes."""

    @staticmethod
    def split_tie(payload):
        """Eigenvalue d_n + 1 one ulp below lambda_{d_n}, and cn = lambda_{d_n}."""
        d = payload["d_n"]
        lam = list(payload["eigenvalues"])
        lam[d] = float(np.nextafter(lam[d - 1], 0))
        return dict(payload, eigenvalues=lam, filter=dict(payload["filter"], cn=lam[d - 1]))

    def test_a_loaded_fit_inside_a_tie_is_degenerate(self, tmp_path):
        payload, _ = truncation_payload()
        (tmp_path / "fit.json").write_text(json.dumps(self.split_tie(payload)))
        with pytest.raises(DegenerateFitError,
                           match=r"threshold splits tied eigenvalues lambda_4 = \S+ and lambda_5"):
            load_fit(tmp_path / "fit.json")

    def test_cli_predict_on_a_loaded_tie_exits_3(self, tmp_path, capsys):
        payload, x = truncation_payload()
        code, err = run_predict(tmp_path, capsys, self.split_tie(payload), x)
        assert code == 3
        assert len(err) == 1
        assert err[0].startswith("error: degenerate: threshold splits tied eigenvalues lambda_4")

    @pytest.mark.parametrize("edit", [
        unsorted_spectrum,
        lambda payload: edited_tail(payload, float("nan")),
        lambda payload: edited_tail(payload, -1e-3),
    ], ids=["unsorted", "nan", "negative"])
    def test_a_spectrum_no_fit_writes_is_rejected(self, edit, tmp_path, capsys):
        payload, x = truncation_payload()
        # the stored fit itself loads and predicts
        assert run_predict(tmp_path, capsys, payload, x) == (0, [])
        with pytest.raises(ValidationError, match="eigenvalues must be finite, nonnegative"):
            fit_from_dict(edit(payload))
        code, err = run_predict(tmp_path, capsys, edit(payload), x)
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error: validation: fit payload.eigenvalues must be")


def centered_case(n, p, seed=7):
    """Rows around the mean curve 1.5 sin(pi t), with an intercept of 2 in
    the responses."""
    g = make_trapezoid_grid(0.0, 1.0, p)
    rng = np.random.default_rng(seed)
    values = 1.5 * np.sin(np.pi * g.points) + rng.standard_normal((n, p))
    rho = np.cos(2 * g.points)
    y = 2.0 + values @ (g.weights * rho) + 0.2 * rng.standard_normal(n)
    return CurveMatrix(g, values), y


# fit(center=True) on each route: (n, p, filter) and the values it gave
CENTERED_GOLDEN = {
    "p x p": ((60, 11, FilterSpec("truncation", 0.05)), {
        "d_n": 8, "s_hat": 2.8284271247461903, "sigma_hat": 0.22149441710880302,
        "rho_hat": (0.2545170095066849, 0.4862469212174255, -0.10127850610162172),
        "t_hat": 3.6517171378120556,
        "interval": (2.4951233928427095, 2.323367539950723, 2.666879245734696),
    }),
    "gram": ((15, 41, FilterSpec("ridge", 0.02, alpha=0.05)), {
        "d_n": 12, "s_hat": 1.8676228705054188, "sigma_hat": 0.28213721860908664,
        "rho_hat": (0.09356359254292035, 0.7631020259752896, 0.8302330045466866),
        "t_hat": 1.449823193955223,
        "interval": (2.14203332778258, 1.9683104355529353, 2.3157562200122244),
    }),
}


def approx(value):
    return pytest.approx(value, rel=1e-12, abs=0)


class TestCenteredGolden:
    @pytest.mark.parametrize("route", CENTERED_GOLDEN)
    def test_centered_fit_and_interval(self, route):
        (n, p, spec), golden = CENTERED_GOLDEN[route]
        sample, y = centered_case(n, p)
        ft = fit(sample, y, spec, center=True)
        assert ft.d_n == golden["d_n"]
        assert ft.s_hat == approx(golden["s_hat"])
        assert ft.sigma_hat == approx(golden["sigma_hat"])
        assert tuple(ft.rho_hat.values[[0, p // 2, p - 1]]) == approx(golden["rho_hat"])
        iv = prediction_interval(ft, sample[0], 0.9, "t_hat")
        assert iv.normalizer == approx(golden["t_hat"])
        assert (iv.center, iv.lo, iv.hi) == approx(golden["interval"])
