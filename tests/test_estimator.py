import json

import numpy as np
import pytest

from funreg import estimator
from funreg.covariance import eigendecompose, empirical_covariance
from funreg.errors import DegenerateFitError, GridMismatchError, ValidationError
from funreg.estimator import (
    fit,
    fit_from_dict,
    fit_to_dict,
    load_fit,
    normal_quantile,
    normalizers,
    predict,
    prediction_interval,
    save_fit,
)
from funreg.filters import FilterSpec, effective_rank, filter_values
from funreg.hilbert import Curve, CurveMatrix, Grid, inner_product, make_trapezoid_grid, norm


def unit_weight_grid(p=2):
    return Grid(np.arange(float(p)), np.ones(p))


def toy_fit(center=False):
    g = unit_weight_grid()
    sample = [Curve(g, [2.0, 0.0]), Curve(g, [0.0, 1.0])]
    return sample, fit(sample, [2.0, 1.0], FilterSpec("truncation", 0.1), center=center)


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
        dec = ft.decomposition
        assert np.allclose(ft.filtered_values, [0.5, 2.0])
        # Delta_n = (1/n) sum_i Y_i X_i = (2, 0.5)
        delta = Curve(ft.grid, [2.0, 0.5])
        for f, e in zip(ft.filtered_values, dec.eigenvectors):
            assert inner_product(ft.rho_hat, e) == pytest.approx(f * inner_product(delta, e))

    def test_ridge_coefficient(self):
        g = make_trapezoid_grid(0.0, 1.0, 8)
        rng = np.random.default_rng(1)
        u = Curve(g, rng.standard_normal(8))
        u = u * (1.0 / norm(u))
        ft = fit([u, u], [1.0, 1.0], FilterSpec("ridge", 0.1, alpha=0.5), center=False)
        assert ft.d_n == 1
        assert ft.filtered_values[0] == pytest.approx(1 / 1.5, rel=1e-10)

    def test_rank_zero_is_an_error(self):
        g, sample, _ = gaussian_sample(5, 6, seed=4)
        dec = eigendecompose(empirical_covariance(sample))
        with pytest.raises(DegenerateFitError):
            fit(sample, np.ones(5), FilterSpec("truncation", dec.eigenvalues[0] * 2))

    def test_rank_matches_effective_rank(self):
        g, sample, _ = gaussian_sample(12, 6, seed=5)
        dec = eigendecompose(empirical_covariance(sample))
        ft = fit(sample, np.ones(12), FilterSpec("truncation", dec.eigenvalues[2]))
        assert ft.d_n == 3
        assert ft.filtered_values.size == 3


class TestFit:
    def test_hand_example(self):
        _, ft = toy_fit()
        assert np.allclose(ft.rho_hat.values, [1.0, 1.0], atol=1e-12)
        assert ft.d_n == 2
        assert ft.s_hat == pytest.approx(np.sqrt(2))

    def test_noiseless_recovery_on_retained_span(self):
        g, sample, rng = gaussian_sample(40, 10, seed=7)
        dec = eigendecompose(empirical_covariance(sample, center=False))
        rho = dec.eigenvectors[0] * 0.8 + dec.eigenvectors[1] * (-0.3)
        y = [inner_product(rho, x) for x in sample]
        ft = fit(sample, y, FilterSpec("truncation", dec.eigenvalues[2]), center=False)
        for j in range(ft.d_n):
            err = inner_product(ft.rho_hat - rho, dec.eigenvectors[j])
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
        lam = ft.decomposition.eigenvalues[: ft.d_n]
        assert np.array_equal(ft.filtered_values, filter_values(spec, lam))
        assert not ft.filtered_values.flags.writeable
        assert fit_to_dict(ft)["filtered_values"] == ft.filtered_values.tolist()

    def test_saturated_fit_has_undefined_sigma(self):
        _, ft = toy_fit()
        assert np.isnan(ft.sigma_hat)

    def test_rho_in_retained_span(self):
        g, sample, _ = gaussian_sample(15, 8, seed=3)
        y = np.linspace(-1, 1, 15)
        ft = fit(sample, y, FilterSpec("truncation", 1e-3), center=False)
        vm = ft.decomposition.vectors_matrix[: ft.d_n]
        coeff = vm @ (g.weights * ft.rho_hat.values)
        residual = ft.rho_hat.values - coeff @ vm
        assert np.sqrt(np.sum(residual**2 * g.weights)) < 1e-8


class TestPredict:
    def test_zero_curve(self):
        _, ft = toy_fit()
        assert predict(ft, Curve.zeros(ft.grid)) == 0.0

    def test_hand_value(self):
        sample, ft = toy_fit()
        assert predict(ft, sample[0]) == pytest.approx(2.0, abs=1e-12)

    def test_linearity_without_centering(self):
        sample, ft = toy_fit()
        x1, x2 = sample
        lhs = predict(ft, 2.0 * x1 + (-3.0) * x2)
        rhs = 2.0 * predict(ft, x1) - 3.0 * predict(ft, x2)
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_grid_mismatch(self):
        _, ft = toy_fit()
        other = Curve(make_trapezoid_grid(0, 1, 2), [1.0, 1.0])
        with pytest.raises(GridMismatchError):
            predict(ft, other)

    def test_centered_fit_reproduces_training_mean(self):
        g, sample, _ = gaussian_sample(20, 6, seed=11)
        y = np.linspace(0.0, 3.0, 20) + 5.0
        ft = fit(sample, y, FilterSpec("truncation", 1e-4), center=True)
        x_mean = Curve(g, np.mean([c.values for c in sample], axis=0))
        assert predict(ft, x_mean) == pytest.approx(y.mean(), rel=1e-10)


def pivots(dec, spec, x=None):
    """``normalizers`` over the pairs of ``dec`` that ``spec`` retains."""
    d = effective_rank(dec, spec.cn)
    return normalizers(dec.eigenvalues[:d], spec, None if x is None else dec.coefficients(x)[:d])


class TestNormalizers:
    def test_s_hat_truncation_is_sqrt_rank(self):
        g, sample, rng = gaussian_sample(30, 8, seed=6)
        dec = eigendecompose(empirical_covariance(sample))
        spec = FilterSpec("truncation", dec.eigenvalues[3])
        assert fit(sample, rng.standard_normal(30), spec).s_hat == np.sqrt(4)

    def test_s_hat_ridge_example(self):
        sample = [Curve(unit_weight_grid(), [np.sqrt(2), 0.0]),
                  Curve(unit_weight_grid(), [0.0, 1.0])]
        dec = eigendecompose(empirical_covariance(sample, center=False))
        assert np.allclose(dec.eigenvalues, [1.0, 0.5])
        spec = FilterSpec("ridge", 0.1, alpha=0.5)
        expected = np.sqrt((1 / 1.5) ** 2 + 0.25)
        s = fit(sample, [1.0, 1.0], spec, center=False).s_hat
        assert s == pytest.approx(expected, abs=1e-4)
        assert s == pytest.approx(0.8333, abs=1e-4)

    def test_s_hat_single_retained(self):
        g, sample, rng = gaussian_sample(25, 6, seed=8)
        dec = eigendecompose(empirical_covariance(sample))
        spec = FilterSpec("tikhonov", dec.eigenvalues[0] * 0.999, alpha=0.01)
        lam1 = dec.eigenvalues[0]
        s = fit(sample, rng.standard_normal(25), spec).s_hat
        assert s == pytest.approx(lam1 * lam1 / (lam1**2 + 0.01))

    def test_t_hat_on_leading_eigenvector(self):
        g = unit_weight_grid()
        u = Curve(g, [0.5, 0.0])  # eigenvalue 0.25 via outer product
        dec = eigendecompose(empirical_covariance([u], center=False))
        assert dec.eigenvalues[0] == pytest.approx(0.25)
        spec = FilterSpec("truncation", 0.01)
        assert pivots(dec, spec, dec.eigenvectors[0]).t == pytest.approx(2.0, rel=1e-10)

    def test_t_hat_orthogonal_xestimate_zero(self):
        g, sample, _ = gaussian_sample(20, 6, seed=12)
        dec = eigendecompose(empirical_covariance(sample))
        spec = FilterSpec("truncation", dec.eigenvalues[2])
        x = dec.eigenvectors[4]
        assert pivots(dec, spec, x).t < 1e-10

    def test_t_hat_two_mode_example(self):
        g = Grid(np.arange(2.0), np.ones(2))
        sample = [Curve(g, [np.sqrt(2), 0.0]), Curve(g, [0.0, np.sqrt(0.5)])]
        dec = eigendecompose(empirical_covariance(sample, center=False))
        assert np.allclose(dec.eigenvalues, [1.0, 0.25])
        x = dec.eigenvectors[0] + dec.eigenvectors[1]
        spec = FilterSpec("truncation", 0.01)
        assert pivots(dec, spec, x).t == pytest.approx(2.2360, abs=1e-4)


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
        dec = eigendecompose(empirical_covariance(sample, center=False))
        rho = dec.eigenvectors[0] * 1.5
        y = [inner_product(rho, x) for x in sample]
        ft = fit(sample, y, FilterSpec("truncation", dec.eigenvalues[1]), center=False)
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
        assert ft.d_n == ft.n - 1
        res = y - np.array([predict(ft, x) for x in sample])
        expected = np.sqrt(np.sum(res**2))
        assert ft.sigma_hat == pytest.approx(expected)


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
        assert np.array_equal(a.decomposition.eigenvalues, b.decomposition.eigenvalues)
        assert np.array_equal(a.decomposition.vectors_matrix, b.decomposition.vectors_matrix)
        assert np.array_equal(a.x_mean.values, b.x_mean.values)
        assert a.d_n == b.d_n
        assert a.s_hat == b.s_hat
        assert a.sigma_hat == b.sigma_hat

    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("n, p", [(40, 9), (300, 101), (160, 150)])
    def test_sigma_hat_equals_per_curve_loop_bit_for_bit(self, n, p, center):
        # small noise keeps residuals far below the predictions, so any
        # change in how a prediction is rounded shows in sigma_hat
        g, sample, rng = gaussian_sample(n, p, seed=n + p)
        rho = Curve(g, np.cos(3 * g.points))
        y = np.array([inner_product(rho, x) for x in sample]) + 1e-3 * rng.standard_normal(n)
        spec = FilterSpec("ridge", 1e-3, alpha=0.05)
        ft = fit(sample, y, spec, center=center)
        expected = per_curve_sigma_hat(sample, y, ft)
        assert ft.sigma_hat == expected
        assert fit(CurveMatrix.of(sample), y, spec, center=center).sigma_hat == expected


class TestPredictionInterval:
    def make_noisy_fit(self, n=60, seed=21):
        g, sample, rng = gaussian_sample(n, 8, seed=seed)
        rho = Curve(g, np.linspace(0.5, -0.5, 8))
        y = np.array([inner_product(rho, x) for x in sample]) + 0.3 * rng.standard_normal(n)
        return g, sample, fit(sample, y, FilterSpec("truncation", 1e-2), center=False)

    def test_half_width_formula(self):
        # q(0.975) * sigma * s / sqrt(n) with sigma=1, s=2, n=100
        q = normal_quantile(0.975)
        assert q * 1.0 * 2.0 / 10.0 == pytest.approx(0.39199, abs=1e-5)

    def test_quantile_is_bit_equal_to_scipy_stats(self):
        from scipy.stats import norm as stdnorm

        probs = np.concatenate([np.linspace(0.5, 0.999999, 20001), [0.95, 0.975, 0.995]])
        ours = np.array([normal_quantile(float(q)) for q in probs])
        assert np.array_equal(ours, stdnorm.ppf(probs))

    def test_interval_uses_the_formula(self):
        g, sample, ft = self.make_noisy_fit()
        x = sample[0]
        iv = prediction_interval(ft, x, 0.95, "s_hat")
        expected = normal_quantile(0.975) * ft.sigma_hat * ft.s_hat / np.sqrt(ft.n)
        assert iv.half_width == pytest.approx(expected, rel=1e-12)
        assert iv.center == pytest.approx(predict(ft, x))
        assert iv.lo <= iv.center <= iv.hi

    def test_interval_reports_its_normalizer(self):
        g, sample, ft = self.make_noisy_fit()
        x = sample[2]
        assert prediction_interval(ft, x, 0.9, "s_hat").normalizer == ft.s_hat
        iv = prediction_interval(ft, x, 0.9, "t_hat")
        assert iv.normalizer == pivots(ft.decomposition, ft.filter, x).t

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
        dec = eigendecompose(empirical_covariance(sample, center=False))
        rho = dec.eigenvectors[0]
        y = [inner_product(rho, x) for x in sample]
        ft = fit(sample, y, FilterSpec("truncation", dec.eigenvalues[1]), center=False)
        iv = prediction_interval(ft, sample[0], 0.95, "s_hat")
        assert iv.half_width == pytest.approx(0.0, abs=1e-10)

    def test_invalid_level(self):
        _, _, ft = self.make_noisy_fit()
        for lvl in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValidationError):
                prediction_interval(ft, ft.x_mean, lvl)

    def test_degenerate_t_hat_is_an_error(self):
        g, sample, _ = gaussian_sample(20, 6, seed=25)
        dec = eigendecompose(empirical_covariance(sample, center=False))
        spec = FilterSpec("truncation", dec.eigenvalues[2])
        y = np.linspace(0, 1, 20)
        ft = fit(sample, y, spec, center=False)
        x = dec.eigenvectors[5]
        with pytest.raises(DegenerateFitError):
            prediction_interval(ft, x, 0.95, "t_hat")

    def test_interval_duality(self):
        g, sample, ft = self.make_noisy_fit(seed=27)
        rho_true = Curve(g, np.linspace(0.5, -0.5, 8))
        q = normal_quantile(0.975)
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
        dec = eigendecompose(empirical_covariance(sample, center=False))
        d = 4
        ft = fit(sample, y, FilterSpec("truncation", dec.eigenvalues[d] * 1.0001),
                 center=False)
        assert ft.d_n == d
        scores = np.array(
            [[inner_product(x, dec.eigenvectors[j]) for j in range(d)] for x in sample]
        )
        coef, *_ = np.linalg.lstsq(scores, y, rcond=None)
        rho_pcr = coef @ dec.vectors_matrix[:d]
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
        dec = eigendecompose(empirical_covariance(sample))
        values = [
            pivots(dec, FilterSpec("ridge", dec.eigenvalues[d] * 0.9999, alpha=0.01)).s
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
        K = empirical_covariance(sample, center=False).kernel
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

    def test_dict_round_trip_is_lossless(self):
        g, sample, rng = gaussian_sample(12, 5, seed=53)
        ft = fit(sample, rng.standard_normal(12), FilterSpec("truncation", 1e-3),
                 center=False)
        payload = json.loads(json.dumps(fit_to_dict(ft)))
        back = fit_from_dict(payload)
        assert np.array_equal(back.rho_hat.values, ft.rho_hat.values)
        assert back.s_hat == ft.s_hat
        assert back.sigma_hat == ft.sigma_hat
        assert back.filter == ft.filter
        # a loaded fit and a fresh one hold one form: every eigenvalue, d_n vectors
        for name in ("eigenvalues", "vectors_matrix", "gaps"):
            assert np.array_equal(getattr(back.decomposition, name),
                                  getattr(ft.decomposition, name))

    def test_malformed_payload(self):
        with pytest.raises(ValidationError):
            fit_from_dict({"n": 3})

    def test_payload_must_agree_with_its_spectrum(self):
        g, sample, rng = gaussian_sample(12, 5, seed=53)
        ft = fit(sample, rng.standard_normal(12), FilterSpec("ridge", 1e-3, alpha=0.05))
        payload = json.loads(json.dumps(fit_to_dict(ft)))
        assert fit_from_dict(payload).s_hat == ft.s_hat
        for key, value in (
            ("s_hat", ft.s_hat * 1.01),
            ("filtered_values", [v * 2 for v in payload["filtered_values"]]),
            ("filtered_values", payload["filtered_values"][:-1]),
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
