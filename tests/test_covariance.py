import numpy as np
import pytest
import scipy.linalg

from funreg.covariance import (
    EIGENVALUE_CLAMP,
    CovarianceOperator,
    cross_covariance,
    eigendecompose,
    empirical_covariance,
)
from funreg.errors import ValidationError
from funreg.hilbert import Curve, CurveMatrix, Grid, inner_product, make_trapezoid_grid, norm


def unit_weight_grid(p=2):
    return Grid(np.arange(float(p)), np.ones(p))


def toy_sample(grid=None):
    g = grid or unit_weight_grid()
    return g, [Curve(g, [2.0, 0.0]), Curve(g, [0.0, 1.0])]


def random_sample(n, p, seed=0, grid=None):
    g = grid or make_trapezoid_grid(0.0, 1.0, p)
    rng = np.random.default_rng(seed)
    return g, [Curve(g, rng.standard_normal(p)) for _ in range(n)]


class TestEmpiricalCovariance:
    def test_single_curve_outer_product(self):
        g = unit_weight_grid()
        x = Curve(g, [3.0, -1.0])
        op = empirical_covariance([x], center=False)
        assert np.allclose(op.kernel, np.outer(x.values, x.values))

    def test_hand_example_diagonal(self):
        g, sample = toy_sample()
        op = empirical_covariance(sample, center=False)
        assert np.allclose(op.kernel, np.diag([2.0, 0.5]))

    def test_positive_semidefinite_pairing(self):
        g, sample = random_sample(6, 9, seed=3)
        op = empirical_covariance(sample)
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = Curve(g, rng.standard_normal(9))
            assert inner_product(op.apply(h), h) >= -1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError):
            empirical_covariance([])

    def test_grid_mismatch_rejected(self):
        a = Curve(make_trapezoid_grid(0, 1, 4), np.ones(4))
        b = Curve(make_trapezoid_grid(0, 2, 4), np.ones(4))
        with pytest.raises(ValidationError):
            empirical_covariance([a, b])

    def test_centering_changes_kernel(self):
        _, sample = toy_sample()
        raw = empirical_covariance(sample, center=False)
        centered = empirical_covariance(sample, center=True)
        assert not np.allclose(raw.kernel, centered.kernel)
        vals = np.stack([c.values for c in sample])
        vals = vals - vals.mean(axis=0)
        assert np.allclose(centered.kernel, vals.T @ vals / 2)


class TestCrossCovariance:
    def test_zero_responses(self):
        _, sample = toy_sample()
        delta = cross_covariance(sample, [0.0, 0.0], center=False)
        assert np.all(delta.curve.values == 0)

    def test_hand_example(self):
        _, sample = toy_sample()
        delta = cross_covariance(sample, [2.0, 1.0], center=False)
        assert np.allclose(delta.curve.values, [2.0, 0.5])

    def test_noiseless_identity_with_kernel(self):
        g, sample = random_sample(8, 6, seed=11)
        rho = Curve(g, np.linspace(-1, 2, 6))
        y = [inner_product(rho, x) for x in sample]
        op = empirical_covariance(sample, center=False)
        delta = cross_covariance(sample, y, center=False)
        assert np.allclose(delta.curve.values, op.apply(rho).values, atol=1e-10)

    def test_length_mismatch(self):
        _, sample = toy_sample()
        with pytest.raises(ValidationError):
            cross_covariance(sample, [1.0])

    def test_lies_in_sample_span(self):
        g, sample = random_sample(3, 8, seed=5)
        y = [1.0, -2.0, 0.5]
        delta = cross_covariance(sample, y, center=False)
        basis = np.stack([c.values for c in sample])
        _, residual, *_ = np.linalg.lstsq(basis.T, delta.curve.values, rcond=None)
        assert residual.size == 0 or residual[0] < 1e-18


class TestEigendecompose:
    def test_diagonal_kernel_unit_weights(self):
        g = unit_weight_grid()
        op = CovarianceOperator(g, np.diag([2.0, 0.5]), n=2)
        dec = eigendecompose(op)
        assert np.allclose(dec.eigenvalues, [2.0, 0.5])
        assert np.allclose(np.abs(dec.vectors_matrix), np.eye(2), atol=1e-12)

    def test_rank_one_unit_norm_curve(self):
        g = make_trapezoid_grid(0.0, 1.0, 21)
        u = Curve(g, np.sin(2 * np.pi * g.points))
        u = u * (1.0 / norm(u))
        dec = eigendecompose(empirical_covariance([u], center=False))
        assert dec.eigenvalues[0] == pytest.approx(1.0, rel=1e-10)
        assert np.all(dec.eigenvalues[1:] <= 1e-12)

    def test_reconstruction_matches_operator_action(self):
        g, sample = random_sample(12, 6, seed=2)
        op = empirical_covariance(sample)
        dec = eigendecompose(op)
        rng = np.random.default_rng(4)
        for _ in range(4):
            h = Curve(g, rng.standard_normal(6))
            assert norm(dec.apply(h) - op.apply(h)) < 1e-8

    def test_orthonormal_under_weighted_product(self):
        g, sample = random_sample(10, 7, seed=9)
        dec = eigendecompose(empirical_covariance(sample))
        gram = np.array(
            [
                [inner_product(a, b) for b in dec.eigenvectors]
                for a in dec.eigenvectors
            ]
        )
        assert np.abs(gram - np.eye(7)).max() < 1e-8

    def test_eigenvector_equation(self):
        g, sample = random_sample(9, 5, seed=14)
        op = empirical_covariance(sample)
        dec = eigendecompose(op)
        for lam, e in zip(dec.eigenvalues, dec.eigenvectors):
            assert norm(op.apply(e) - lam * e) < 1e-8

    def test_matches_dense_generalized_solve(self):
        # oracle: eigenvalues of the non-symmetric matrix K W solved densely
        g, sample = random_sample(20, 8, seed=21)
        op = empirical_covariance(sample)
        dec = eigendecompose(op)
        raw = scipy.linalg.eig(op.kernel @ np.diag(g.weights))
        oracle = np.sort(raw[0].real)[::-1]
        assert np.allclose(dec.eigenvalues, oracle, rtol=1e-10, atol=1e-12)

    def test_trace_identity_after_centering(self):
        g, sample = random_sample(15, 9, seed=8)
        dec = eigendecompose(empirical_covariance(sample, center=True))
        mean = np.mean([c.values for c in sample], axis=0)
        centered = [Curve(g, c.values - mean) for c in sample]
        avg_sq = np.mean([norm(c) ** 2 for c in centered])
        assert dec.eigenvalues.sum() == pytest.approx(avg_sq, rel=1e-8)

    def test_rank_bounded_by_sample_size(self):
        g, sample = random_sample(3, 10, seed=6)
        dec = eigendecompose(empirical_covariance(sample, center=False))
        assert np.count_nonzero(dec.eigenvalues > 1e-12 * dec.eigenvalues[0]) <= 3

    def test_sign_convention_is_deterministic(self):
        _, sample = random_sample(10, 6, seed=13)
        d1 = eigendecompose(empirical_covariance(sample))
        d2 = eigendecompose(empirical_covariance(sample))
        for a, b in zip(d1.eigenvectors, d2.eigenvectors):
            assert np.array_equal(a.values, b.values)
        for e in d1.eigenvectors:
            k = np.argmax(np.abs(e.values))
            assert e.values[k] > 0

    def test_eigenvectors_match_per_column_loop_bit_for_bit(self):
        # reference: renormalize and sign-fix one eigenvector at a time
        for n, p, seed in ((10, 6, 13), (40, 101, 2), (5, 150, 8)):
            g, sample = random_sample(n, p, seed=seed)
            op = empirical_covariance(sample)
            dec = eigendecompose(op)
            w = g.weights
            sqrt_w = np.sqrt(w)
            sym = sqrt_w[:, None] * op.kernel * sqrt_w[None, :]
            lam, vec = np.linalg.eigh((sym + sym.T) / 2)
            order = np.argsort(lam)[::-1]
            lam, vec = lam[order], vec[:, order]
            lam = np.where(lam < EIGENVALUE_CLAMP * max(lam[0], 0.0), 0.0, lam)
            expected = []
            for j in range(lam.size):
                u = vec[:, j] / sqrt_w
                u = u / np.sqrt(np.sum(u * u * w))
                k = int(np.argmax(np.abs(u)))
                if u[k] < 0:
                    u = -u
                expected.append(u)
            assert isinstance(dec.eigenvectors, CurveMatrix)
            assert len(dec.eigenvectors) == p
            assert np.array_equal(dec.eigenvalues, lam)
            assert np.array_equal(dec.vectors_matrix, np.stack(expected))

    def test_list_and_matrix_samples_give_identical_operators(self):
        g, sample = random_sample(30, 11, seed=17)
        y = np.random.default_rng(3).standard_normal(30)
        matrix = CurveMatrix.of(sample)
        for center in (False, True):
            assert np.array_equal(
                empirical_covariance(sample, center=center).kernel,
                empirical_covariance(matrix, center=center).kernel,
            )
            assert np.array_equal(
                cross_covariance(sample, y, center=center).curve.values,
                cross_covariance(matrix, y, center=center).curve.values,
            )

    def test_gaps_follow_min_of_neighbors(self):
        g = Grid(np.arange(4.0), np.ones(4))
        op = CovarianceOperator(g, np.diag([4.0, 2.0, 1.0, 0.5]), n=4)
        dec = eigendecompose(op)
        assert np.allclose(dec.gaps, [2.0, 1.0, 0.5, 0.5])

    def test_non_symmetric_kernel_rejected(self):
        g = unit_weight_grid()
        with pytest.raises(ValidationError):
            CovarianceOperator(g, np.array([[1.0, 0.2], [0.1, 1.0]]), n=1)

    def test_negative_noise_eigenvalues_clamped_to_zero(self):
        g, sample = random_sample(2, 6, seed=31)
        dec = eigendecompose(empirical_covariance(sample, center=False))
        assert np.all(dec.eigenvalues >= 0)
        assert np.all(dec.eigenvalues[2:] == 0.0)
