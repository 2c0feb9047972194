import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from funreg.covariance import (
    EIGENVALUE_CLAMP,
    CovarianceOperator,
    SpectralDecomposition,
    eigendecompose,
    empirical_covariance,
    spectral_gaps,
)
from funreg.errors import DegenerateFitError, ValidationError
from funreg.estimator import fit, normalizers
from funreg.filters import FilterSpec, effective_rank
from funreg.hilbert import (
    Curve,
    CurveMatrix,
    Grid,
    inner_product,
    make_trapezoid_grid,
    norm,
    trapezoid_weights,
)


def unit_weight_grid(p=2):
    return Grid(np.arange(float(p)), np.ones(p))


def toy_sample(grid=None):
    g = grid or unit_weight_grid()
    return g, [Curve(g, [2.0, 0.0]), Curve(g, [0.0, 1.0])]


def random_sample(n, p, seed=0, grid=None):
    g = grid or make_trapezoid_grid(0.0, 1.0, p)
    rng = np.random.default_rng(seed)
    return g, [Curve(g, rng.standard_normal(p)) for _ in range(n)]


def operator_action(op, h):
    """(Ah)(t_i) = sum_j w_j K(t_i, t_j) h(t_j) from the kernel."""
    return Curve(op.grid, op.kernel @ (op.grid.weights * h.values))


def sorted_clamped_eigh(sym):
    """eigh of the symmetrized matrix, descending, tail clamped to zeros."""
    lam, vec = np.linalg.eigh((sym + sym.T) / 2)
    order = np.argsort(lam)[::-1]
    lam, vec = lam[order], vec[:, order]
    return np.where(lam < EIGENVALUE_CLAMP * max(lam[0], 0.0), 0.0, lam), vec


def dense_solve(op):
    """The p x p route from op.kernel: every pair, with the eigenvectors as
    columns in symmetric coordinates."""
    sqrt_w = np.sqrt(op.grid.weights)
    return sorted_clamped_eigh(sqrt_w[:, None] * op.kernel * sqrt_w[None, :])


def gram_solve(op):
    """The n x n route: the positive pairs, eigenvectors mapped back through Z'."""
    z = op.samples.values * np.sqrt(op.grid.weights)
    lam, vec = sorted_clamped_eigh(z @ z.T / op.n)
    rank = int(np.count_nonzero(lam > 0))
    lam = lam[:rank]
    return lam, z.T @ vec[:, :rank] / np.sqrt(op.n * lam)


def per_column_vectors(lam, vec, w):
    """Renormalize and sign-fix one eigenvector at a time."""
    sqrt_w = np.sqrt(w)
    rows = []
    for j in range(lam.size):
        u = vec[:, j] / sqrt_w
        u = u / np.sqrt(np.sum(u * u * w))
        k = int(np.argmax(np.abs(u)))
        if u[k] < 0:
            u = -u
        rows.append(u)
    return np.stack(rows)


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
            assert inner_product(operator_action(op, h), h) >= -1e-12

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
        # the kernel is (X'X/n + its transpose)/2, bit for bit
        kernel = vals.T @ vals / 2
        assert np.array_equal(centered.kernel, (kernel + kernel.T) / 2)


class TestCrossCovariance:
    """Delta_n = (1/n) sum_i Y_i X_i, seen through the fit it feeds: with
    every eigenvalue retained by truncation, K rho_hat = Delta_n."""

    FULL_RANK = FilterSpec("truncation", 1e-9)

    def test_zero_responses(self):
        _, sample = toy_sample()
        ft = fit(sample, [0.0, 0.0], self.FULL_RANK, center=False)
        assert np.all(ft.rho_hat.values == 0)

    def test_hand_example(self):
        _, sample = toy_sample()
        ft = fit(sample, [2.0, 1.0], self.FULL_RANK, center=False)
        op = empirical_covariance(sample, center=False)
        assert np.allclose(operator_action(op, ft.rho_hat).values, [2.0, 0.5])

    def test_noiseless_identity_with_kernel(self):
        g, sample = random_sample(8, 6, seed=11)
        rho = Curve(g, np.linspace(-1, 2, 6))
        y = [inner_product(rho, x) for x in sample]
        ft = fit(sample, y, self.FULL_RANK, center=False)
        assert ft.d_n == 6
        assert np.allclose(ft.rho_hat.values, rho.values, atol=1e-8)

    def test_length_mismatch(self):
        _, sample = toy_sample()
        with pytest.raises(ValidationError):
            fit(sample, [1.0], self.FULL_RANK)

    def test_lies_in_sample_span(self):
        g, sample = random_sample(3, 8, seed=5)
        y = [1.0, -2.0, 0.5]
        rho_hat = fit(sample, y, self.FULL_RANK, center=False).rho_hat.values
        basis = np.stack([c.values for c in sample])
        _, residual, *_ = np.linalg.lstsq(basis.T, rho_hat, rcond=None)
        assert residual.size == 0 or residual[0] < 1e-18 * np.sum(rho_hat**2)


class TestEigendecompose:
    def test_diagonal_kernel_unit_weights(self):
        g = unit_weight_grid()
        # rows (2, 0) and (0, 1) give the kernel diag(2, 0.5)
        op = CovarianceOperator(CurveMatrix(g, [[2.0, 0.0], [0.0, 1.0]]))
        assert np.array_equal(op.kernel, np.diag([2.0, 0.5]))
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
            action = (dec.eigenvalues * dec.coefficients(h)) @ dec.vectors_matrix
            assert norm(Curve(g, action) - operator_action(op, h)) < 1e-8

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
            assert norm(operator_action(op, e) - lam * e) < 1e-8

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
        # reference: renormalize and sign-fix one eigenvector at a time,
        # starting from the p x p solve when n >= p and from the Gram
        # route's mapped matrix when n < p
        for n, p, seed in ((10, 6, 13), (40, 101, 2), (5, 150, 8)):
            g, sample = random_sample(n, p, seed=seed)
            op = empirical_covariance(sample)
            dec = eigendecompose(op)
            lam, vec = gram_solve(op) if n < p else dense_solve(op)
            assert isinstance(dec.eigenvectors, CurveMatrix)
            # n < p keeps the centered sample's rank, n - 1
            assert len(dec.eigenvectors) == (n - 1 if n < p else p)
            assert np.array_equal(dec.eigenvalues, lam)
            assert np.array_equal(dec.vectors_matrix, per_column_vectors(lam, vec, g.weights))

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
                fit(sample, y, FilterSpec("truncation", 1e-9), center=center).rho_hat.values,
                fit(matrix, y, FilterSpec("truncation", 1e-9), center=center).rho_hat.values,
            )

    def test_gaps_follow_min_of_neighbors(self):
        g = Grid(np.arange(4.0), np.ones(4))
        # four rows 2 * sqrt(lambda_j) e_j give the kernel diag(4, 2, 1, 0.5)
        rows = 2 * np.diag(np.sqrt([4.0, 2.0, 1.0, 0.5]))
        op = CovarianceOperator(CurveMatrix(g, rows))
        assert np.allclose(op.kernel, np.diag([4.0, 2.0, 1.0, 0.5]), rtol=1e-15, atol=0)
        dec = eigendecompose(op)
        assert np.allclose(dec.gaps, [2.0, 1.0, 0.5, 0.5])

    def test_malformed_rows_rejected(self):
        g = unit_weight_grid()
        for rows in (
            np.ones((2, 3)),  # wrong width for a 2-point grid
            np.array([[1.0, np.nan], [0.0, 1.0]]),
            np.array([[1.0, np.inf]]),
        ):
            with pytest.raises(ValidationError):
                CovarianceOperator(CurveMatrix(g, rows))
            # a bare array is not a validated sample
            with pytest.raises(ValidationError):
                CovarianceOperator(rows)

    def test_negative_noise_eigenvalues_clamped_to_zero(self):
        # n < p: only the positive pairs are kept, never a noise pair
        g, sample = random_sample(2, 6, seed=31)
        dec = eigendecompose(empirical_covariance(sample, center=False))
        assert 1 <= dec.eigenvalues.size <= 2
        assert np.all(dec.eigenvalues > 0)
        # n >= p: six curves in a two-dimensional span leave four noise
        # eigenvalues, clamped to exact zeros
        rng = np.random.default_rng(31)
        values = rng.standard_normal((6, 2)) @ np.stack([c.values for c in sample])
        dec = eigendecompose(empirical_covariance(CurveMatrix(g, values), center=False))
        assert dec.eigenvalues.size == 6
        assert np.all(dec.eigenvalues[:2] > 0)
        assert np.all(dec.eigenvalues[2:] == 0.0)


# eigenvalue pool for the cross-route property test: repeated draws give
# tied spectra, and neighbouring values differ by at least a factor 2
SPECTRUM_LEVELS = (1.0, 0.5, 0.2, 0.1, 0.05, 0.02)
FILTERS = (
    lambda cn: FilterSpec("truncation", cn),
    lambda cn: FilterSpec("ridge", cn, alpha=0.05),
    lambda cn: FilterSpec("tikhonov", cn, alpha=0.01),
    lambda cn: FilterSpec("generalized", cn, alpha=0.02, p=2, variant="A"),
    lambda cn: FilterSpec("generalized", cn, alpha=0.02, p=1, variant="B"),
)


@st.composite
def wide_problems(draw):
    """An n < p sample with a chosen weighted spectrum (ties allowed), a
    threshold strictly between two distinct eigenvalues, and a filter."""
    p = draw(st.integers(3, 40))
    n = draw(st.one_of(st.just(1), st.just(p - 1), st.integers(1, max(1, p // 8)),
                       st.integers(1, p - 1)))
    rank = draw(st.integers(1, n))
    levels = np.sort(draw(st.lists(st.sampled_from(SPECTRUM_LEVELS),
                                   min_size=rank, max_size=rank)))[::-1]
    distinct = np.unique(levels)[::-1]
    cut = draw(st.integers(1, distinct.size))
    if cut < distinct.size:
        cn = float(np.sqrt(distinct[cut - 1] * distinct[cut]))
    else:
        cn = float(distinct[-1] / 2)
    filt = draw(st.sampled_from(FILTERS))(cn)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        grid = make_trapezoid_grid(0.0, 1.0, p)
    else:
        points = np.cumsum(rng.uniform(0.5, 1.5, p))
        grid = Grid(points, trapezoid_weights(points))
    # Z = sqrt(n) A diag(sqrt(levels)) B' has Z Z' / n = A diag(levels) A'
    a, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    b, _ = np.linalg.qr(rng.standard_normal((p, rank)))
    z = np.sqrt(n) * (a * np.sqrt(levels)) @ b.T
    sample = CurveMatrix(grid, z / np.sqrt(grid.weights))
    y = rng.standard_normal(n)
    x = Curve(grid, rng.standard_normal(p))
    return sample, y, x, filt, levels


def assert_rel(actual, expected, scale=None, rtol=1e-10):
    """Largest difference within rtol of the largest expected magnitude
    (or of ``scale``)."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape
    if scale is None:
        scale = np.max(np.abs(expected))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


class TestGramRoute:
    @settings(max_examples=120, deadline=None)
    @given(wide_problems())
    def test_matches_the_p_by_p_solve(self, problem):
        sample, y, x, filt, levels = problem
        op = empirical_covariance(sample, center=False)
        gram = eigendecompose(op)
        assert "kernel" not in vars(op), "the n < p route built the p x p kernel"
        # one eigenpair per positive eigenvalue: the sample rank
        assert gram.eigenvalues.size == levels.size
        assert np.all(gram.eigenvalues > 0)
        np.testing.assert_allclose(gram.eigenvalues, levels, rtol=1e-10, atol=0)

        lam, vec = dense_solve(op)
        dense = SpectralDecomposition(op.grid, lam, CurveMatrix(op.grid, per_column_vectors(
            lam, vec, op.grid.weights)), spectral_gaps(lam))
        assert np.count_nonzero(dense.eigenvalues > 0) == levels.size
        for dec in (gram, dense):
            d = effective_rank(dec, filt.cn)
            assert d == np.count_nonzero(levels >= filt.cn)
        np.testing.assert_allclose(gram.eigenvalues, dense.eigenvalues[:levels.size],
                                   rtol=1e-10, atol=0)
        # gaps inside a tie are roundoff: compare on the scale of lambda_1
        assert_rel(gram.gaps, dense.gaps[:levels.size], scale=levels[0])

        e_gram = gram.vectors_matrix[:d]
        e_dense = dense.vectors_matrix[:d]
        assert_rel(e_gram.T @ e_gram, e_dense.T @ e_dense)

        # the filtered inverse of each solve applied to Delta_n
        delta = Curve(op.grid, sample.values.T @ y / op.n)
        rho = []
        for dec in (gram, dense):
            f = normalizers(dec.eigenvalues[:d], filt).filtered
            rho.append((f * dec.coefficients(delta)[:d]) @ dec.vectors_matrix[:d])
        assert_rel(rho[0], rho[1])

        # a fit holds the vectors of the d retained pairs only, mapped back
        # from the same Gram solve as the full decomposition's
        held = eigendecompose(op, filt.cn)
        assert len(held.eigenvectors) == d
        assert np.array_equal(held.eigenvalues, gram.eigenvalues)
        assert_rel(held.vectors_matrix, gram.vectors_matrix[:d])
        rho_held = (normalizers(held.eigenvalues[:d], filt).filtered
                    * held.coefficients(delta)) @ held.vectors_matrix
        assert_rel(rho_held, rho[1])
        if op.n >= 2:
            # fit takes the Gram route to the same estimate
            ft = fit(sample, y, filt, center=False)
            assert len(ft.decomposition.eigenvectors) == ft.d_n == d
            assert np.array_equal(ft.decomposition.eigenvalues, gram.eigenvalues)
            assert np.array_equal(ft.rho_hat.values, rho_held)
        pivots = [normalizers(dec.eigenvalues[:d], filt, dec.coefficients(x)[:d])
                  for dec in (gram, dense)]
        assert_rel(pivots[0].s, pivots[1].s)
        assert_rel(pivots[0].t, pivots[1].t)

    def test_zero_sample_keeps_the_degenerate_error(self):
        g = make_trapezoid_grid(0.0, 1.0, 11)
        op = empirical_covariance(CurveMatrix(g, np.zeros((3, 11))), center=False)
        with pytest.raises(DegenerateFitError, match="threshold exceeds spectrum"):
            eigendecompose(op)

    def test_route_is_chosen_by_shape(self):
        # n = p solves the p x p matrix and keeps every pair
        g, sample = random_sample(6, 6, seed=4)
        op = empirical_covariance(sample)
        dec = eigendecompose(op)
        assert "kernel" in vars(op)
        assert dec.eigenvalues.size == 6
        assert dec.eigenvalues[-1] == 0.0


# (n, p) on each side of the route choice: p x p when n >= p, Gram when n < p
ROUTES = [(40, 9), (6, 21)]


class TestHeldPrefix:
    @staticmethod
    def problem(n, p, seed=8):
        g = make_trapezoid_grid(0.0, 1.0, p)
        rng = np.random.default_rng(seed)
        sample = CurveMatrix(g, rng.standard_normal((n, p)))
        return sample, rng.standard_normal(n), empirical_covariance(sample, center=False)

    @pytest.mark.parametrize("n, p", ROUTES)
    def test_fit_holds_the_retained_vectors_and_the_full_spectrum(self, n, p):
        sample, y, op = self.problem(n, p)
        full = eigendecompose(op)
        cn = float(np.sqrt(full.eigenvalues[3] * full.eigenvalues[4]))
        filt = FilterSpec("ridge", cn, alpha=0.05)
        ft = fit(sample, y, filt, center=False)
        assert ft.d_n == 4
        assert len(ft.decomposition.eigenvectors) == ft.d_n
        assert np.array_equal(ft.decomposition.eigenvalues, full.eigenvalues)
        assert np.array_equal(ft.decomposition.gaps, full.gaps)
        assert_rel(ft.decomposition.vectors_matrix, full.vectors_matrix[:4])

    @pytest.mark.parametrize("n, p", ROUTES)
    def test_min_pairs_extends_the_prefix_up_to_the_rank(self, n, p):
        _, _, op = self.problem(n, p)
        full = eigendecompose(op)
        rank = int(np.count_nonzero(full.eigenvalues > 0))
        cn = float(full.eigenvalues[1])
        assert len(eigendecompose(op, cn).eigenvectors) == 2
        assert len(eigendecompose(op, cn, min_pairs=1).eigenvectors) == 2
        held = eigendecompose(op, cn, min_pairs=5)
        assert len(held.eigenvectors) == 5
        assert_rel(held.vectors_matrix, full.vectors_matrix[:5])
        assert len(eigendecompose(op, cn, min_pairs=p + 1).eigenvectors) == rank

    @pytest.mark.parametrize("n, p", ROUTES)
    def test_threshold_above_the_spectrum_is_degenerate(self, n, p):
        sample, y, op = self.problem(n, p)
        cn = 2 * float(eigendecompose(op).eigenvalues[0])
        with pytest.raises(DegenerateFitError, match="no eigenvalue retained"):
            eigendecompose(op, cn)
        for min_pairs in (0, 3):
            with pytest.raises(DegenerateFitError, match="no eigenvalue retained"):
                fit(sample, y, FilterSpec("truncation", cn), center=False, min_pairs=min_pairs)

    @pytest.mark.parametrize("n, p", ROUTES)
    def test_a_threshold_tied_with_an_eigenvalue_holds_its_vector(self, n, p):
        sample, y, op = self.problem(n, p)
        full = eigendecompose(op)
        cn = float(full.eigenvalues[2])
        assert full.eigenvalues[3] < cn
        assert len(eigendecompose(op, cn).eigenvectors) == 3
        ft = fit(sample, y, FilterSpec("truncation", cn), center=False)
        assert ft.d_n == 3
        assert_rel(ft.decomposition.vectors_matrix, full.vectors_matrix[:3])

    def test_centering_keeps_one_centered_array_and_the_mean(self):
        g, sample = random_sample(7, 5, seed=3)
        matrix = CurveMatrix.of(sample)
        op = empirical_covariance(matrix)
        assert np.array_equal(op.mean.values, matrix.values.mean(axis=0))
        assert np.array_equal(op.samples.values, matrix.values - matrix.values.mean(axis=0))
        # the centered rows are held as computed, read-only, not copied again
        assert op.samples.values.flags.owndata and not op.samples.values.flags.writeable
        assert empirical_covariance(matrix, center=False).mean is None
