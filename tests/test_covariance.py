import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from funreg import cli
from unittest import mock

from funreg import estimator
from funreg.covariance import (
    EIGENVALUE_CLAMP,
    cluster_tolerance,
    eigendecompose,
    retained_rank,
)
from funreg.errors import DegenerateFitError, ValidationError
from funreg.estimator import fit, normalizers
from funreg.filters import FilterSpec, spectral_gaps
from funreg.hilbert import (
    Curve,
    CurveMatrix,
    Grid,
    inner_product,
    make_trapezoid_grid,
    norm,
    save_curves_csv,
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


def kernel(sample):
    """The reference kernel K[i, j] = (1/n) sum_k X_k(t_i) X_k(t_j) of the
    rows as given, symmetrized: (X'X/n + its transpose)/2."""
    values = CurveMatrix.of(sample).values
    k = values.T @ values / len(values)
    return (k + k.T) / 2


def centered_rows(sample):
    """The rows minus their mean curve, as ``fit`` centers them."""
    matrix = CurveMatrix.of(sample)
    return CurveMatrix(matrix.grid, matrix.values - matrix.values.mean(axis=0))


def operator_action(sample, h):
    """(Ah)(t_i) = sum_j w_j K(t_i, t_j) h(t_j) from the reference kernel."""
    return Curve(h.grid, kernel(sample) @ (h.grid.weights * h.values))


def held_kernel(lam, vectors):
    """sum_j lam_j e_j e_j' over the held pairs: K itself when every
    positive pair is held."""
    e = vectors.values
    return (e.T * lam[: len(e)]) @ e


def sorted_clamped_eigh(sym):
    """eigh of the symmetrized matrix, descending, cut to the pairs whose
    eigenvalue is positive and at or above the clamp."""
    lam, vec = np.linalg.eigh((sym + sym.T) / 2)
    order = np.argsort(lam)[::-1]
    lam, vec = lam[order], vec[:, order]
    rank = int(np.count_nonzero((lam > 0) & (lam >= EIGENVALUE_CLAMP * lam[0])))
    return lam[:rank], vec[:, :rank]


def dense_solve(sample):
    """The p x p route from the reference kernel: every pair, with the
    eigenvectors as columns in symmetric coordinates."""
    sample = CurveMatrix.of(sample)
    sqrt_w = np.sqrt(sample.grid.weights)
    return sorted_clamped_eigh(sqrt_w[:, None] * kernel(sample) * sqrt_w[None, :])


def gram_solve(sample):
    """The n x n route: the positive pairs, eigenvectors mapped back through Z'."""
    sample = CurveMatrix.of(sample)
    n = len(sample)
    z = sample.values * np.sqrt(sample.grid.weights)
    lam, vec = sorted_clamped_eigh(z @ z.T / n)
    return lam, z.T @ vec / np.sqrt(n * lam)


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
    """The kernel K = X'X / n that ``eigendecompose`` solves for, read back
    from the spectrum as sum_j lam_j e_j e_j'."""

    def test_single_curve_outer_product(self):
        g = unit_weight_grid()
        x = Curve(g, [3.0, -1.0])
        spectrum = eigendecompose(CurveMatrix.of([x]), 0.0)
        assert np.allclose(held_kernel(*spectrum), np.outer(x.values, x.values))

    def test_hand_example_diagonal(self):
        g, sample = toy_sample()
        spectrum = eigendecompose(CurveMatrix.of(sample), 0.0)
        assert np.allclose(held_kernel(*spectrum), np.diag([2.0, 0.5]))

    def test_positive_semidefinite_pairing(self):
        g, sample = random_sample(6, 9, seed=3)
        lam, vectors = eigendecompose(centered_rows(sample), 0.0)
        assert np.all(lam >= 0)
        rng = np.random.default_rng(7)
        for _ in range(5):
            h = Curve(g, rng.standard_normal(9))
            action = Curve(g, held_kernel(lam, vectors) @ (g.weights * h.values))
            assert inner_product(action, h) >= -1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(ValidationError, match="^a curve matrix needs at least one row$"):
            fit([], [], FilterSpec("truncation", 0.1))

    def test_grid_mismatch_rejected(self):
        a = Curve(make_trapezoid_grid(0, 1, 4), np.ones(4))
        b = Curve(make_trapezoid_grid(0, 2, 4), np.ones(4))
        with pytest.raises(ValidationError):
            fit([a, b], [1.0, 2.0], FilterSpec("truncation", 0.1))

    def test_centering_changes_kernel(self):
        _, sample = toy_sample()
        y = [2.0, 1.0]
        filt = FilterSpec("truncation", 1e-9)
        raw, cen = (fit(sample, y, filt, center=center) for center in (False, True))
        assert not np.allclose(held_kernel(raw.eigenvalues, raw.eigenvectors),
                               held_kernel(cen.eigenvalues, cen.eigenvectors))
        vals = np.stack([c.values for c in sample])
        vals = vals - vals.mean(axis=0)
        assert np.allclose(held_kernel(cen.eigenvalues, cen.eigenvectors), vals.T @ vals / 2)
        # the fit solves on (X'X/n + its transpose)/2 of the centered rows,
        # bit for bit
        lam, _ = dense_solve(CurveMatrix(sample[0].grid, vals))
        assert np.array_equal(cen.eigenvalues, lam)


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
        assert np.allclose(operator_action(sample, ft.rho_hat).values, [2.0, 0.5])

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
    def test_an_overflowing_covariance_is_refused_without_a_warning(self):
        # each product of two entries near 1e200 overflows on both routes
        for n in (4, 2):
            rows = CurveMatrix(unit_weight_grid(3), np.full((n, 3), 1e200))
            with pytest.raises(ValidationError, match="^sample covariance overflows"):
                eigendecompose(rows, 0.0)

    def test_an_eigensolver_failure_is_one_validation_line(self, tmp_path, capsys):
        def fail(matrix):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        message = "eigensolver failed: Eigenvalues did not converge"
        g, sample = random_sample(6, 4, seed=1)
        save_curves_csv(tmp_path / "curves.csv", CurveMatrix.of(sample))
        (tmp_path / "y.csv").write_text("1.0\n" * 6)
        capsys.readouterr()
        with mock.patch.object(np.linalg, "eigh", fail):
            with pytest.raises(ValidationError) as raised:
                eigendecompose(CurveMatrix.of(sample), 0.0)
            code = cli.main(["fit", "--curves", str(tmp_path / "curves.csv"),
                             "--responses", str(tmp_path / "y.csv"), "--filter", "truncation",
                             "--cn", "0.1", "--out", str(tmp_path / "fit.json")])
        assert raised.type is ValidationError and str(raised.value) == message
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: validation: {message}"]
        assert not (tmp_path / "fit.json").exists()

    def test_diagonal_kernel_unit_weights(self):
        g = unit_weight_grid()
        # rows (2, 0) and (0, 1) give the kernel diag(2, 0.5)
        rows = CurveMatrix(g, [[2.0, 0.0], [0.0, 1.0]])
        assert np.array_equal(kernel(rows), np.diag([2.0, 0.5]))
        lam, vectors = eigendecompose(rows, 0.0)
        assert np.allclose(lam, [2.0, 0.5])
        assert np.allclose(np.abs(vectors.values), np.eye(2), atol=1e-12)

    def test_rank_one_unit_norm_curve(self):
        g = make_trapezoid_grid(0.0, 1.0, 21)
        u = Curve(g, np.sin(2 * np.pi * g.points))
        u = Curve(g, u.values * (1.0 / norm(u)))
        lam, _ = eigendecompose(CurveMatrix.of([u]), 0.0)
        assert lam[0] == pytest.approx(1.0, rel=1e-10)
        assert np.all(lam[1:] <= 1e-12)

    def test_reconstruction_matches_operator_action(self):
        g, sample = random_sample(12, 6, seed=2)
        rows = centered_rows(sample)
        lam, vectors = eigendecompose(rows, 0.0)
        rng = np.random.default_rng(4)
        for _ in range(4):
            h = Curve(g, rng.standard_normal(6))
            action = (lam * vectors.inner_products(h)) @ vectors.values
            assert norm(Curve(g, action) - operator_action(rows, h)) < 1e-8

    def test_orthonormal_under_weighted_product(self):
        g, sample = random_sample(10, 7, seed=9)
        _, vectors = eigendecompose(centered_rows(sample), 0.0)
        gram = np.array([[inner_product(a, b) for b in vectors] for a in vectors])
        assert np.abs(gram - np.eye(7)).max() < 1e-8

    def test_eigenvector_equation(self):
        g, sample = random_sample(9, 5, seed=14)
        rows = centered_rows(sample)
        for lam, e in zip(*eigendecompose(rows, 0.0)):
            assert norm(operator_action(rows, e) - Curve(g, lam * e.values)) < 1e-8

    def test_matches_dense_generalized_solve(self):
        # oracle: eigenvalues of the non-symmetric matrix K W solved densely
        g, sample = random_sample(20, 8, seed=21)
        rows = centered_rows(sample)
        lam, _ = eigendecompose(rows, 0.0)
        raw = scipy.linalg.eig(kernel(rows) @ np.diag(g.weights))
        oracle = np.sort(raw[0].real)[::-1]
        assert np.allclose(lam, oracle, rtol=1e-10, atol=1e-12)

    def test_trace_identity_after_centering(self):
        g, sample = random_sample(15, 9, seed=8)
        lam, _ = eigendecompose(centered_rows(sample), 0.0)
        mean = np.mean([c.values for c in sample], axis=0)
        centered = [Curve(g, c.values - mean) for c in sample]
        avg_sq = np.mean([norm(c) ** 2 for c in centered])
        assert lam.sum() == pytest.approx(avg_sq, rel=1e-8)

    def test_rank_bounded_by_sample_size(self):
        g, sample = random_sample(3, 10, seed=6)
        lam, _ = eigendecompose(CurveMatrix.of(sample), 0.0)
        assert np.count_nonzero(lam > 1e-12 * lam[0]) <= 3

    def test_sign_convention_is_deterministic(self):
        _, sample = random_sample(10, 6, seed=13)
        _, v1 = eigendecompose(centered_rows(sample), 0.0)
        _, v2 = eigendecompose(centered_rows(sample), 0.0)
        for a, b in zip(v1, v2):
            assert np.array_equal(a.values, b.values)
        for e in v1:
            k = np.argmax(np.abs(e.values))
            assert e.values[k] > 0

    def test_eigenvectors_match_per_column_loop_bit_for_bit(self):
        # reference: renormalize and sign-fix one eigenvector at a time,
        # starting from the p x p solve when n >= p and from the Gram
        # route's mapped matrix when n < p
        for n, p, seed in ((10, 6, 13), (40, 101, 2), (5, 150, 8)):
            g, sample = random_sample(n, p, seed=seed)
            rows = centered_rows(sample)
            held, vectors = eigendecompose(rows, 0.0)
            lam, vec = gram_solve(rows) if n < p else dense_solve(rows)
            assert isinstance(vectors, CurveMatrix)
            # n < p keeps the centered sample's rank, n - 1
            assert len(vectors) == (n - 1 if n < p else p)
            assert np.array_equal(held, lam)
            assert np.array_equal(vectors.values, per_column_vectors(lam, vec, g.weights))

    def test_list_and_matrix_samples_give_identical_operators(self):
        g, sample = random_sample(30, 11, seed=17)
        y = np.random.default_rng(3).standard_normal(30)
        matrix = CurveMatrix.of(sample)
        for center in (False, True):
            a, b = (fit(s, y, FilterSpec("truncation", 1e-9), center=center)
                    for s in (sample, matrix))
            assert np.array_equal(a.eigenvalues, b.eigenvalues)
            assert np.array_equal(a.rho_hat.values, b.rho_hat.values)

    def test_gaps_follow_min_of_neighbors(self):
        g = Grid(np.arange(4.0), np.ones(4))
        # four rows 2 * sqrt(lambda_j) e_j give the kernel diag(4, 2, 1, 0.5)
        rows = CurveMatrix(g, 2 * np.diag(np.sqrt([4.0, 2.0, 1.0, 0.5])))
        assert np.allclose(kernel(rows), np.diag([4.0, 2.0, 1.0, 0.5]), rtol=1e-15, atol=0)
        lam, _ = eigendecompose(rows, 0.0)
        assert np.allclose(spectral_gaps(lam), [2.0, 1.0, 0.5, 0.5])

    def test_malformed_rows_rejected(self):
        g = unit_weight_grid()
        for rows in (
            np.ones((2, 3)),  # wrong width for a 2-point grid
            np.array([[1.0, np.nan], [0.0, 1.0]]),
            np.array([[1.0, np.inf]]),
        ):
            with pytest.raises(ValidationError):
                eigendecompose(CurveMatrix(g, rows), 0.0)
            # a bare array is not a validated sample
            with pytest.raises(ValidationError):
                eigendecompose(rows, 0.0)

    def test_negative_noise_eigenvalues_clamped_to_zero(self):
        # n < p: only the positive pairs are kept, never a noise pair
        g, sample = random_sample(2, 6, seed=31)
        lam, _ = eigendecompose(CurveMatrix.of(sample), 0.0)
        assert 1 <= lam.size <= 2
        assert np.all(lam > 0)
        # n >= p: six curves in a two-dimensional span leave four noise
        # eigenvalues below the clamp, and they are dropped too
        rng = np.random.default_rng(31)
        values = rng.standard_normal((6, 2)) @ np.stack([c.values for c in sample])
        lam, _ = eigendecompose(CurveMatrix(g, values), 0.0)
        assert lam.size == 2
        assert np.all(lam > 0)


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
        n, grid = len(sample), sample.grid
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            gram = eigendecompose(sample, 0.0)
        assert eigh.call_args.args[0].shape == (n, n), "the n < p route solved the p x p kernel"
        gram_lam, gram_vectors = gram
        # one eigenpair per positive eigenvalue: the sample rank
        assert gram_lam.size == levels.size
        assert np.all(gram_lam > 0)
        np.testing.assert_allclose(gram_lam, levels, rtol=1e-10, atol=0)

        lam, vec = dense_solve(sample)
        dense_vectors = CurveMatrix(grid, per_column_vectors(lam, vec, grid.weights))
        dense = (lam, dense_vectors)
        assert np.count_nonzero(lam > 0) == levels.size
        for spectrum, _ in (gram, dense):
            d = retained_rank(spectrum, filt.cn, len(grid))
            assert d == np.count_nonzero(levels >= filt.cn)
        np.testing.assert_allclose(gram_lam, lam[:levels.size], rtol=1e-10, atol=0)
        # gaps inside a tie are roundoff: compare on the scale of lambda_1
        assert_rel(spectral_gaps(gram_lam), spectral_gaps(lam)[:levels.size], scale=levels[0])

        e_gram = gram_vectors.values[:d]
        e_dense = dense_vectors.values[:d]
        assert_rel(e_gram.T @ e_gram, e_dense.T @ e_dense)

        # the filtered inverse of each solve applied to Delta_n
        delta = Curve(grid, sample.values.T @ y / n)
        rho = []
        for spectrum, vectors in (gram, dense):
            f = normalizers(spectrum[:d], filt).filtered
            rho.append((f * vectors.inner_products(delta)[:d]) @ vectors.values[:d])
        assert_rel(rho[0], rho[1])

        # a fit holds the vectors of the d retained pairs only, mapped back
        # from the same Gram solve as the full spectrum's
        held_lam, held = eigendecompose(sample, filt.cn)
        assert len(held) == d
        assert np.array_equal(held_lam, gram_lam)
        assert_rel(held.values, gram_vectors.values[:d])
        rho_held = (normalizers(held_lam[:d], filt).filtered
                    * held.inner_products(delta)) @ held.values
        assert_rel(rho_held, rho[1])
        if n >= 2:
            # fit takes the Gram route to the same estimate
            ft = fit(sample, y, filt, center=False)
            assert len(ft.eigenvectors) == ft.d_n == d
            assert np.array_equal(ft.eigenvalues, gram_lam)
            assert np.array_equal(ft.rho_hat.values, rho_held)
        pivots = [normalizers(spectrum[:d], filt, vectors.inner_products(x)[:d])
                  for spectrum, vectors in (gram, dense)]
        assert_rel(pivots[0].s, pivots[1].s)
        assert_rel(pivots[0].t, pivots[1].t)

    def test_zero_sample_keeps_the_degenerate_error(self):
        g = make_trapezoid_grid(0.0, 1.0, 11)
        with pytest.raises(DegenerateFitError, match="threshold exceeds spectrum"):
            eigendecompose(CurveMatrix(g, np.zeros((3, 11))), 0.0)

    # n < p takes the Gram route, n >= p the p x p one
    @pytest.mark.parametrize("n", [3, 20])
    def test_zero_sample_is_refused_by_retained_rank_on_both_routes(self, n, tmp_path, capsys):
        message = "threshold exceeds spectrum: no eigenvalue retained"
        sample = CurveMatrix(make_trapezoid_grid(0.0, 1.0, 11), np.zeros((n, 11)))
        with pytest.raises(DegenerateFitError) as raised:
            eigendecompose(sample, 0.0)
        assert str(raised.value) == message
        save_curves_csv(tmp_path / "curves.csv", sample)
        (tmp_path / "y.csv").write_text("1.0\n" * n)
        capsys.readouterr()
        code = cli.main(["fit", "--curves", str(tmp_path / "curves.csv"),
                         "--responses", str(tmp_path / "y.csv"), "--filter", "truncation",
                         "--cn", "0.1", "--out", str(tmp_path / "fit.json")])
        assert code == 3
        assert capsys.readouterr().err.splitlines() == [f"error: degenerate: {message}"]
        assert not (tmp_path / "fit.json").exists()

    def test_route_is_chosen_by_shape(self):
        # n = p solves the p x p matrix and keeps the positive pairs: the
        # centered sample's rank, n - 1
        g, sample = random_sample(6, 6, seed=4)
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            lam, _ = eigendecompose(centered_rows(sample), 0.0)
        assert eigh.call_args.args[0].shape == (6, 6)
        assert lam.size == 5
        assert np.all(lam > 0)


# (n, p) on each side of the route choice: p x p when n >= p, Gram when n < p
ROUTES = [(40, 9), (6, 21)]


class TestHeldPrefix:
    @staticmethod
    def problem(n, p, seed=8):
        g = make_trapezoid_grid(0.0, 1.0, p)
        rng = np.random.default_rng(seed)
        sample = CurveMatrix(g, rng.standard_normal((n, p)))
        return sample, rng.standard_normal(n)

    @pytest.mark.parametrize("n, p", ROUTES)
    def test_fit_holds_the_retained_vectors_and_the_full_spectrum(self, n, p):
        sample, y = self.problem(n, p)
        lam, vectors = eigendecompose(sample, 0.0)
        cn = float(np.sqrt(lam[3] * lam[4]))
        filt = FilterSpec("ridge", cn, alpha=0.05)
        ft = fit(sample, y, filt, center=False)
        assert ft.d_n == 4
        assert len(ft.eigenvectors) == ft.d_n
        assert np.array_equal(ft.eigenvalues, lam)
        assert_rel(ft.eigenvectors.values, vectors.values[:4])

    # both routes, and a p x p solve of a sample whose rank is below p
    @pytest.mark.parametrize("center", [False, True])
    @pytest.mark.parametrize("n, p, span", [(40, 9, None), (40, 9, 4), (6, 21, None)])
    def test_one_spectrum_fresh_and_loaded_from_a_zero_padded_file(self, n, p, span, center):
        sample, y = self.problem(n, p)
        rng = np.random.default_rng(5)
        if span:
            sample = CurveMatrix(sample.grid, rng.standard_normal((n, span)) @ sample.values[:span])
        rows = centered_rows(sample) if center else sample
        lam, _ = eigendecompose(rows, 0.0)
        filt = FilterSpec("truncation", float(np.sqrt(lam[2] * lam[3])))
        ft = fit(sample, y, filt, center=center)
        # the positive eigenvalues, descending, as many as the solved rows' rank
        assert ft.eigenvalues.size == min(n - center, span or p)
        assert np.all(ft.eigenvalues > 0) and np.all(np.diff(ft.eigenvalues) < 0)
        # a file that pads the spectrum with zeros to p values loads to the same fit
        payload = estimator.fit_to_dict(ft)
        payload["eigenvalues"] += [0.0] * (p - ft.eigenvalues.size)
        back = estimator.fit_from_dict(json.loads(json.dumps(payload)))
        assert np.array_equal(back.eigenvalues, ft.eigenvalues)
        assert estimator.fit_to_dict(back) == estimator.fit_to_dict(ft)
        x = Curve(sample.grid, rng.standard_normal(p))
        assert estimator.predict(back, x) == estimator.predict(ft, x)
        for pivot in estimator.NORMALIZERS:
            assert (estimator.prediction_interval(back, x, 0.9, pivot)
                    == estimator.prediction_interval(ft, x, 0.9, pivot))

    @pytest.mark.parametrize("n, p", ROUTES)
    def test_the_spectrum_is_read_only_fresh_and_loaded(self, n, p):
        sample, y = self.problem(n, p)
        lam, vectors = eigendecompose(sample, 0.0)
        ft = fit(sample, y, FilterSpec("ridge", float(lam[3]), alpha=0.05), center=False)
        back = estimator.fit_from_dict(json.loads(json.dumps(estimator.fit_to_dict(ft))))
        for held in (lam, vectors, ft.eigenvalues, ft.eigenvectors, back.eigenvalues,
                     back.eigenvectors):
            values = held.values if isinstance(held, CurveMatrix) else held
            assert not values.flags.writeable

    @pytest.mark.parametrize("n, p", ROUTES)
    def test_threshold_above_the_spectrum_is_degenerate(self, n, p):
        sample, y = self.problem(n, p)
        cn = 2 * float(eigendecompose(sample, 0.0)[0][0])
        with pytest.raises(DegenerateFitError, match="no eigenvalue retained"):
            eigendecompose(sample, cn)
        with pytest.raises(DegenerateFitError, match="no eigenvalue retained"):
            fit(sample, y, FilterSpec("truncation", cn), center=False)

    @pytest.mark.parametrize("n, p", ROUTES)
    def test_a_threshold_tied_with_an_eigenvalue_holds_its_vector(self, n, p):
        sample, y = self.problem(n, p)
        lam, vectors = eigendecompose(sample, 0.0)
        cn = float(lam[2])
        assert lam[3] < cn
        assert len(eigendecompose(sample, cn)[1]) == 3
        ft = fit(sample, y, FilterSpec("truncation", cn), center=False)
        assert ft.d_n == 3
        assert_rel(ft.eigenvectors.values, vectors.values[:3])

    def test_centering_keeps_one_centered_array_and_the_mean(self, monkeypatch):
        g, sample = random_sample(7, 5, seed=3)
        matrix = CurveMatrix.of(sample)
        solved = []

        def spy(rows, *args, **kwargs):
            solved.append(rows)
            return eigendecompose(rows, *args, **kwargs)

        monkeypatch.setattr(estimator, "eigendecompose", spy)
        y, filt = np.arange(7.0), FilterSpec("truncation", 1e-9)
        ft = fit(matrix, y, filt)
        assert np.array_equal(ft.x_mean.values, matrix.values.mean(axis=0))
        assert np.array_equal(solved[0].values, matrix.values - matrix.values.mean(axis=0))
        # the centered rows are held as computed, read-only, not copied again
        assert solved[0].values.flags.owndata and not solved[0].values.flags.writeable
        # an uncentered fit solves on the sample itself, with a zero mean
        ft = fit(matrix, y, filt, center=False)
        assert solved[1] is matrix
        assert not np.any(ft.x_mean.values)


def tied_pair_problem(n, p=41, seed=0):
    """Uncentered rows with a tied pair of eigenvalues: three curves
    orthonormal under the weights, orthogonal score columns with empirical
    variances 1, 1 and 0.01 (so the two leading eigenvalues tie), and
    noiseless responses."""
    g = make_trapezoid_grid(0.0, 1.0, p)
    rng = np.random.default_rng(seed)
    curves = np.linalg.qr(rng.standard_normal((p, 3)))[0].T / np.sqrt(g.weights)
    scores = np.sqrt(n) * np.linalg.qr(rng.standard_normal((n, 3)))[0] * [1.0, 1.0, 0.1]
    return CurveMatrix(g, scores @ curves), scores @ np.array([1.0, 0.5, 0.25])


class TestTiedCutoff:
    # n = 400 >= p = 41 solves the p x p matrix, n = 20 the Gram matrix
    TIED_ROUTES = [400, 20]

    @staticmethod
    def split_threshold(sample):
        """The top eigenvalue, a threshold that keeps lambda_1 alone."""
        lam, _ = eigendecompose(sample, 0.0)
        # the tie is broken by roundoff alone, within the cluster tolerance
        assert 0 < lam[0] - lam[1] <= cluster_tolerance(lam[0], len(sample.grid))
        return float(lam[0])

    @pytest.mark.parametrize("n", TIED_ROUTES)
    def test_a_threshold_inside_a_tie_is_degenerate(self, n):
        sample, y = tied_pair_problem(n)
        cn = self.split_threshold(sample)
        match = r"splits tied eigenvalues lambda_1 = \S+ and lambda_2 = \S+: gap \S+ <= cluster"
        with pytest.raises(DegenerateFitError, match=match):
            eigendecompose(sample, cn)
        with pytest.raises(DegenerateFitError, match=match):
            fit(sample, y, FilterSpec("truncation", cn), center=False)

    @pytest.mark.parametrize("n", TIED_ROUTES)
    def test_every_row_order_raises_or_agrees(self, n):
        sample, y = tied_pair_problem(n)
        # inside the tie, and clear of it with both tied pairs retained
        for cn in (self.split_threshold(sample), 0.5):
            fits = []
            for seed in range(12):
                perm = np.random.default_rng(seed).permutation(n)
                try:
                    ft = fit(CurveMatrix(sample.grid, sample.values[perm]), y[perm],
                             FilterSpec("truncation", cn), center=False)
                except DegenerateFitError:
                    continue
                fits.append(ft.rho_hat.values)
            if cn == 0.5:
                assert len(fits) == 12
            for rho in fits[1:]:
                assert np.max(np.abs(rho - fits[0])) <= 1e-12 * np.max(np.abs(fits[0]))

    @pytest.mark.parametrize("n", TIED_ROUTES)
    def test_cli_fit_inside_a_tie_exits_3(self, n, tmp_path, capsys):
        sample, y = tied_pair_problem(n)
        save_curves_csv(tmp_path / "curves.csv", sample)
        (tmp_path / "y.csv").write_text("\n".join(repr(float(v)) for v in y) + "\n")
        cn = self.split_threshold(sample)
        code = cli.main(["fit", "--curves", str(tmp_path / "curves.csv"),
                         "--responses", str(tmp_path / "y.csv"), "--filter", "truncation",
                         "--cn", repr(cn), "--no-center", "--out", str(tmp_path / "fit.json")])
        err = capsys.readouterr().err.splitlines()
        assert code == 3
        assert len(err) == 1
        assert err[0].startswith("error: degenerate: threshold splits tied eigenvalues lambda_1")
        assert not (tmp_path / "fit.json").exists()


# (n, p) with n < p, from mc-fixed-x-wide's (300, 1001) down to the tests' sizes
GRAM_SHAPES = [(300, 1001), (199, 1001), (40, 101), (12, 21), (8, 21)]


@pytest.mark.parametrize("n, p", GRAM_SHAPES)
def test_gram_matrix_is_solved_exactly_symmetric_as_computed(n, p):
    """The Gram route solves z @ z.T / n without symmetrizing it: the
    product of one buffer with its own transpose is symmetric bit for bit."""
    g = make_trapezoid_grid(0.0, 1.0, p)
    x = np.random.default_rng(n + p).standard_normal((n, p))
    z = x * np.sqrt(g.weights)
    s = z @ z.T / n
    assert np.array_equal(s, s.T)
    with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
        eigendecompose(CurveMatrix(g, x), 0.0)
    assert np.array_equal(eigh.call_args.args[0], s)
