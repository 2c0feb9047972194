import functools
import os
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funreg.covariance import eigendecompose
from funreg.errors import DegenerateFitError, GridMismatchError, ValidationError
from funreg import estimator, simlab
from funreg.estimator import fit, predict
from funreg.filters import FilterSpec
from funreg.hilbert import (
    Curve,
    CurveMatrix,
    Grid,
    inner_product,
    make_trapezoid_grid,
    norm,
    trapezoid_weights,
)
from funreg.normal import ndtr
from funreg.simlab import (
    CoeffRule,
    EigenDecay,
    SpectralModel,
    cn_rule_from_config,
    condition_u,
    coverage_experiment,
    experiment_from_config,
    fixed_x_experiment,
    generate_dataset,
    kl_sample,
    model_from_config,
    normal_ks_statistic,
    norm_divergence_demo,
    population,
    population_report,
    power_squared_coeffs,
    rank_power_cn_rule,
    rank_threshold,
    replicate_rng,
    x_from_config,
)


def smooth_model(noise=0.5, L=50, p=101, xi="gaussian"):
    return SpectralModel(
        make_trapezoid_grid(0.0, 1.0, p),
        EigenDecay.power(2.0),
        CoeffRule.power(3.0, normalize=True),
        noise_sd=noise,
        xi_law=xi,
        L=L,
    )


TRUNC = FilterSpec("truncation", 0.5)


class TestModelConstruction:
    def test_lambda_monotone_and_positive(self):
        m = smooth_model()
        assert np.all(m.lambdas > 0)
        assert np.all(np.diff(m.lambdas) < 0)

    def test_power_decay_satisfies_convexity(self):
        m = smooth_model()
        diffs = -np.diff(m.lambdas)
        assert np.all(diffs[1:] <= diffs[:-1] + 1e-15)

    def test_basis_orthonormal_under_quadrature(self):
        m = smooth_model(L=30, p=61)
        gram = m.basis @ (m.grid.weights[:, None] * m.basis.T)
        assert np.abs(gram - np.eye(30)).max() < 1e-8

    def test_rho_normalized(self):
        m = smooth_model()
        assert norm(m.rho_curve) == pytest.approx(1.0, rel=1e-10)

    def test_default_truncation_level(self):
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 51), EigenDecay.power(1.0),
            CoeffRule.power(2.0), noise_sd=0.0,
        )
        assert m.L == 50
        m2 = SpectralModel(
            make_trapezoid_grid(0, 1, 201), EigenDecay.power(1.0),
            CoeffRule.power(2.0), noise_sd=0.0,
        )
        assert m2.L == 100

    def test_L_capped_by_grid(self):
        with pytest.raises(ValidationError):
            SpectralModel(
                make_trapezoid_grid(0, 1, 11), EigenDecay.power(1.0),
                CoeffRule.power(2.0), noise_sd=0.0, L=11,
            )

    def test_invalid_parameters(self):
        g = make_trapezoid_grid(0, 1, 11)
        with pytest.raises(ValidationError):
            EigenDecay.power(-1.0)
        with pytest.raises(ValidationError):
            EigenDecay.geometric(1.5)
        with pytest.raises(ValidationError):
            SpectralModel(g, EigenDecay.power(1.0), CoeffRule.power(2.0), noise_sd=-1.0)
        with pytest.raises(ValidationError):
            SpectralModel(g, EigenDecay.power(1.0), CoeffRule.power(2.0),
                          noise_sd=0.0, xi_law="cauchy")

    def test_xi_laws_have_unit_variance(self):
        for law in ("gaussian", "uniform", "rademacher"):
            m = smooth_model(noise=0.0, L=1, p=11, xi=law)
            rng = replicate_rng(17)
            draws = np.array(
                [inner_product(kl_sample(m, rng), m.basis_curves[0]) for _ in range(8000)]
            )
            assert draws.var() == pytest.approx(m.lambdas[0], rel=0.1)
            # fourth moment finite and small for all offered laws
            assert np.mean((draws / np.sqrt(m.lambdas[0])) ** 4) < 10


def clustered_grid():
    """Three of four points within 2e-7: the cosines barely differ on them."""
    points = np.array([0.0, 1e-7, 2e-7, 1.0])
    return Grid(points, trapezoid_weights(points))


def model_with(**fields):
    """A small model with some of its fields replaced."""
    args = dict(grid=make_trapezoid_grid(0.0, 1.0, 11), decay=EigenDecay.power(1.0),
                rho=CoeffRule.finite([1.0]), noise_sd=0.0, L=3)
    args.update(fields)
    return SpectralModel(**args)


# (call, message): each refusal of the lab's model and runner, by its message
LAB_REFUSALS = [
    (lambda: EigenDecay("linear", 1.0), "unknown decay kind 'linear'"),
    (lambda: CoeffRule("power"), "power coefficients need an exponent"),
    (lambda: CoeffRule("finite"), "finite coefficients need explicit values"),
    (lambda: CoeffRule("spline"), "unknown coefficient kind 'spline'"),
    (lambda: CoeffRule.finite([0.0, 0.0], normalize=True).values(2),
     "cannot normalize all-zero coefficients"),
    (lambda: CoeffRule.finite([1e308, 1e308]).values(2),
     "rho coefficients overflow: their squared norm is not finite"),
    (lambda: CoeffRule.power(-1e308).values(3),
     "rho coefficients overflow: their squared norm is not finite"),
    (lambda: model_with(L=0), "need at least one expansion term"),
    # 3^-2001 underflows to zero
    (lambda: model_with(decay=EigenDecay.power(2000.0)).lambdas,
     "eigenvalue rule must be strictly decreasing, positive"),
    (lambda: model_with(grid=clustered_grid()).basis,
     "basis degenerated; reduce L or refine the grid"),
    (lambda: model_with().curve_from_coeffs([1.0] * 4), "at most L=3 coefficients supported"),
    (lambda: model_with().curve_from_coeffs([np.inf]), "curve values must be finite"),
    # x_j^2 = j^(1e308) overflows
    (lambda: x_from_config(model_with(), {"kind": "power", "beta": -1e308}),
     "curve values must be finite"),
    (lambda: generate_dataset(model_with(), 0, replicate_rng(1)), "need n >= 1"),
    (lambda: generate_dataset(model_with(noise_sd=1e308), 50, replicate_rng(1)),
     "responses overflow: noise_sd is too large to simulate"),
    (lambda: experiment_from_config("variance-bound", {}), "unknown experiment 'variance-bound'"),
]


@pytest.mark.parametrize("call, message", LAB_REFUSALS, ids=[
    "decay-kind", "power-no-exponent", "finite-no-coeffs", "coefficient-kind",
    "normalize-zeros", "rho-overflow", "power-rho-overflow", "L=0", "decay-underflow",
    "clustered-grid", "too-many-coefficients", "infinite-coefficient", "power-x-overflow", "n=0",
    "noise-overflow", "unknown-experiment"])
def test_lab_refusal_names_its_cause(call, message):
    # a warning would be an error here: each refusal is the one signal
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as exc:
        call()
    assert exc.type is ValidationError


class TestModelCoordinates:
    def test_model_curves_come_from_curve_from_coeffs(self, monkeypatch):
        m = smooth_model(L=12, p=41)
        calls = []
        one_map = SpectralModel.curve_from_coeffs

        def spy(model, coeffs):
            calls.append(np.array(coeffs))
            return one_map(model, coeffs)

        monkeypatch.setattr(SpectralModel, "curve_from_coeffs", spy)
        # the same values, bit for bit, as the products they replaced
        assert np.array_equal(m.rho_curve.values, m.rho_coeffs @ m.basis)
        x = kl_sample(m, replicate_rng(3))
        xi = replicate_rng(3).standard_normal(12)
        assert np.array_equal(x.values, (np.sqrt(m.lambdas) * xi) @ m.basis)
        assert len(calls) == 2 and np.array_equal(calls[0], m.rho_coeffs)

    def test_basis_coordinates_are_unit_vectors(self):
        m = smooth_model(L=12, p=41)
        for j, e_j in enumerate(m.basis_curves):
            assert np.allclose(m.basis_curves.inner_products(e_j), np.eye(12)[j], atol=1e-12)

    def test_basis_curves_share_the_basis_buffer(self):
        m = smooth_model(L=12, p=41)
        assert isinstance(m.basis_curves, CurveMatrix)
        assert m.basis_curves.grid is m.grid
        assert np.shares_memory(m.basis_curves.values, m.basis)

    def test_rejects_curve_on_other_grid(self):
        m = smooth_model(L=3, p=21)
        with pytest.raises(GridMismatchError):
            m.basis_curves.inner_products(Curve(make_trapezoid_grid(0.0, 1.0, 11), np.ones(11)))

    def test_moment_identity_monte_carlo(self):
        m = smooth_model(noise=0.3, L=6, p=41)
        rng = replicate_rng(29)
        sample, y = generate_dataset(m, 20000, rng)
        values = np.stack([c.values for c in sample])
        coeffs = values @ (m.grid.weights[:, None] * m.basis.T)
        emp = (coeffs * y[:, None]).mean(axis=0)
        expected = m.lambdas * m.rho_coeffs
        mc_err = 4 * np.sqrt(m.lambdas) / np.sqrt(20000)
        assert np.all(np.abs(emp - expected) < mc_err + 1e-3)


class TestKlSample:
    def test_single_mode_rademacher_is_sign_flip(self):
        m = smooth_model(noise=0.0, L=1, p=21, xi="rademacher")
        rng = replicate_rng(3)
        e1 = m.basis_curves[0]
        signs = set()
        for _ in range(50):
            x = kl_sample(m, rng)
            c = inner_product(x, e1)
            assert abs(abs(c) - 1.0) < 1e-10
            assert norm(x - c * e1) < 1e-10
            signs.add(np.sign(c))
        assert signs == {1.0, -1.0}

    def test_score_mean_within_monte_carlo_error(self):
        m = smooth_model(noise=0.0, L=5, p=41)
        rng = replicate_rng(5)
        draws = np.array(
            [inner_product(kl_sample(m, rng), m.basis_curves[0]) for _ in range(10000)]
        )
        assert abs(draws.mean()) < 3 * np.sqrt(m.lambdas[0]) / np.sqrt(10000)

    def test_score_variances_match_eigenvalues(self):
        m = smooth_model(noise=0.0, L=4, p=41)
        rng = replicate_rng(7)
        xs = [kl_sample(m, rng) for _ in range(10000)]
        for j in (0, 1, 3):
            scores = np.array([inner_product(x, m.basis_curves[j]) for x in xs])
            assert scores.var() == pytest.approx(m.lambdas[j], rel=0.1)


class TestGenerateDataset:
    def test_noiseless_responses_are_inner_products(self):
        m = smooth_model(noise=0.0, L=10, p=51)
        sample, y = generate_dataset(m, 50, replicate_rng(9))
        for x, yi in zip(sample, y):
            assert yi == pytest.approx(inner_product(m.rho_curve, x), abs=1e-10)

    def test_pure_noise_variance(self):
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 21), EigenDecay.power(2.0),
            CoeffRule.finite([0.0]), noise_sd=0.7, L=3,
        )
        _, y = generate_dataset(m, 10000, replicate_rng(11))
        assert y.var() == pytest.approx(0.49, rel=0.1)

    def test_returns_one_curve_matrix(self):
        m = smooth_model(L=10, p=31)
        sample, y = generate_dataset(m, 25, replicate_rng(4))
        assert isinstance(sample, CurveMatrix)
        assert sample.values.shape == (25, 31)
        assert sample.grid is m.grid
        assert y.shape == (25,)

    def test_fixed_seed_bit_identical(self):
        m = smooth_model()
        xs1, y1 = generate_dataset(m, 20, replicate_rng(42, 0))
        xs2, y2 = generate_dataset(m, 20, replicate_rng(42, 0))
        assert np.array_equal(y1, y2)
        for a, b in zip(xs1, xs2):
            assert np.array_equal(a.values, b.values)

    def test_holds_one_copy_of_the_rows(self):
        # the scores and their scaled copy (each half the rows' bytes at
        # L = 50, p = 101) live while the rows are formed, a peak of 2.0x
        # the rows; a copy of the rows in the matrix peaks at about 2.6x
        m = smooth_model(L=50, p=101)
        rng = replicate_rng(6)
        tracemalloc.start()
        try:
            sample, _ = generate_dataset(m, 20000, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.35 * sample.values.nbytes


def truncated_at(model, k, x=None):
    """The population block under truncation with k_n = k."""
    pop = population(model, FilterSpec("truncation", rank_threshold(model.lambdas, k)), x)
    assert pop.k_n == k
    return pop


class TestPopulationNormalizers:
    def test_truncation_s_is_sqrt_kn(self):
        m = smooth_model()
        res = population(m, FilterSpec("truncation", rank_threshold(m.lambdas, 4)))
        assert res.k_n == 4
        assert res.s_n == np.sqrt(4)

    def test_t_on_first_basis_function(self):
        m = smooth_model()
        res = population(m, FilterSpec("truncation", rank_threshold(m.lambdas, 3)),
                         m.basis_curves[0])
        assert res.t_n_x == pytest.approx(1 / np.sqrt(m.lambdas[0]), rel=1e-8)

    def test_bounded_t_regime_partial_sum(self):
        # lam_j = j^-2, x_j^2 = j^-4: t^2 = sum j^-2 <= pi^2/6
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 101), EigenDecay.power(1.0),
            CoeffRule.power(3.0), noise_sd=0.0, L=60,
        )
        x = m.curve_from_coeffs(np.sqrt(power_squared_coeffs(3.0, 50)))
        res = population(m, FilterSpec("truncation", rank_threshold(m.lambdas, 40)), x)
        assert res.k_n == 40
        partial = np.sqrt(np.sum(np.arange(1.0, 41.0) ** -2))
        assert res.t_n_x == pytest.approx(partial, rel=1e-6)
        assert res.t_n_x < np.pi / np.sqrt(6)


class TestPopulation:
    def test_block_matches_closed_forms(self):
        # rho in the span of e_1..e_3 = the rank k_n = 3, and x = e_2
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 31), EigenDecay.power(1.0),
            CoeffRule.finite([1.0, 0.5, 0.25]), noise_sd=0.0, L=10,
        )
        cn, alpha = rank_threshold(m.lambdas, 3), 0.01
        x = m.basis_curves[1]
        h3 = {
            FilterSpec("truncation", cn): 0.0,
            FilterSpec("ridge", cn, alpha=alpha): alpha / (cn + alpha),
            FilterSpec("tikhonov", cn, alpha=alpha): alpha / (cn**2 + alpha),
        }
        for filt, sup in h3.items():
            for pop in (population(m, filt), population(m, filt, x)):
                assert pop.k_n == 3
                assert pop.tail_bias == 0.0
                assert pop.h3_sup == pytest.approx(sup, rel=1e-12, abs=0)
                assert pop.first_pairwise_violation is None
                assert pop.first_tail_violation is None
        pop = population(m, FilterSpec("truncation", cn), x)
        assert pop.s_n == np.sqrt(3.0)
        assert pop.t_n_x == pytest.approx(1 / np.sqrt(m.lambdas[1]), rel=1e-12)
        assert population(m, FilterSpec("truncation", cn)).t_n_x is None

    def test_reports_carry_the_block_last(self):
        m = smooth_model(L=10, p=31)
        cn = rank_threshold(m.lambdas, 3)
        cov = coverage_experiment(m, 40, cn, TRUNC, 0.9, 2, 5)
        fx = fixed_x_experiment(m, m.basis_curves[0], 40, cn, TRUNC, 0.9, 2, 5)
        assert cov.population == population(m, FilterSpec("truncation", cn))
        assert fx.population == population(m, FilterSpec("truncation", cn), m.basis_curves[0])
        for rep in (cov, fx):
            assert list(rep.to_dict())[-1] == "population"
            assert rep.to_dict()["population"] == rep.population.to_dict()
        assert "x_rkhs_sup" not in fx.to_dict()["population"]


class TestTruncationBias:
    def test_zero_when_rho_in_leading_span(self):
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 31), EigenDecay.power(1.0),
            CoeffRule.finite([1.0, 0.5, 0.25]), noise_sd=0.0, L=10,
        )
        assert truncated_at(m, 3).tail_bias == 0.0

    def test_single_term_tail(self):
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 31), EigenDecay.geometric(0.5),
            CoeffRule.finite([1.0] * 10), noise_sd=0.0, L=10,
        )
        assert truncated_at(m, 9).tail_bias == pytest.approx(np.sqrt(2.0**-10))
        assert truncated_at(m, 9).tail_bias == pytest.approx(0.03125)

    def test_monotone_in_rank(self):
        m = smooth_model()
        vals = [truncated_at(m, k).tail_bias for k in range(1, 20)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_fixed_x_form(self):
        # signed at a fixed x: sum_{l>k_n} rho_l <x, e_l>
        m = smooth_model(L=10, p=41)
        x = m.basis_curves[4]
        assert truncated_at(m, 4, x).tail_bias == pytest.approx(m.rho_coeffs[4], abs=1e-10)
        minus_x = Curve(m.grid, -x.values)
        assert truncated_at(m, 4, minus_x).tail_bias == pytest.approx(-m.rho_coeffs[4], abs=1e-10)
        assert truncated_at(m, 5, x).tail_bias == pytest.approx(0.0, abs=1e-10)


class TestTRegimeProfile:
    # under truncation t_n_x at rank k is sqrt(sum_{j<=k} x_j^2 / lam_j)

    @staticmethod
    @functools.cache
    def model():
        return SpectralModel(make_trapezoid_grid(0, 1, 502), EigenDecay.power(1.0),
                             CoeffRule.power(3.0), noise_sd=0.0, L=501)

    def profile(self, x_squared, ranks):
        m = self.model()
        x = m.curve_from_coeffs(np.sqrt(x_squared))
        return np.array([truncated_at(m, k, x).t_n_x for k in ranks])

    def test_bounded_branch_stabilizes(self):
        t = self.profile(power_squared_coeffs(3.0, 501), [50, 500])
        rel_inc = (t[-1] - t[0]) / t[-1]
        assert rel_inc < 0.01

    def test_divergent_branch_grows(self):
        lam = EigenDecay.power(1.0).values(501)
        t = self.profile(lam, range(1, 501))
        assert t[499] >= 10 * t[4] * (1 - 1e-12)
        assert np.allclose(t**2, np.arange(1.0, 501.0))


class TestConditionU:
    def model_with_rho(self, rule, L=1000, p=None):
        p = p or (L + 1)
        return SpectralModel(
            make_trapezoid_grid(0, 1, p), EigenDecay.power(1.0), rule,
            noise_sd=0.0, L=L,
        )

    def test_geometric_coefficients_converge(self):
        m = self.model_with_rho(CoeffRule.finite([2.0**-j for j in range(1, 61)]), L=60)
        sums, _, convergent = condition_u(m.rho_coeffs[:60])
        assert sums[-1] == pytest.approx(1 / 3, rel=1e-6)
        assert convergent

    def test_slow_decay_flagged_divergent(self):
        m = self.model_with_rho(CoeffRule.power(0.5), L=1000)
        sums, _, convergent = condition_u(m.rho_coeffs[:1000])
        expected = np.sum(1.0 / np.arange(1.0, 1001.0))
        assert sums[-1] == pytest.approx(expected, rel=1e-10)
        assert not convergent

    def test_finite_support_reaches_exact_limit(self):
        m = self.model_with_rho(CoeffRule.finite([1.0, -0.5]), L=50, p=51)
        sums, _, convergent = condition_u(m.rho_coeffs[:50])
        assert sums[-1] == pytest.approx(1.25)
        assert convergent

    def test_window_is_last_tenth_of_terms(self):
        # terms 4..10 are zero, so the last decade (term 10) adds nothing
        m = self.model_with_rho(CoeffRule.finite([1.0, 0.5, 0.25]), L=10, p=21)
        sums, fraction, convergent = condition_u(m.rho_coeffs[:10])
        assert sums[-1] == pytest.approx(1.3125)
        assert fraction == 0.0
        assert convergent

    def test_short_series_window_is_final_term(self):
        m = self.model_with_rho(CoeffRule.finite([1.0, 0.5, 0.25]), L=10, p=21)
        _, fraction, convergent = condition_u(m.rho_coeffs[:3])
        assert fraction == pytest.approx(0.0625 / 1.3125)
        assert not convergent
        _, fraction, convergent = condition_u(m.rho_coeffs[:1])
        assert fraction == 1.0
        assert not convergent


class TestPopulationReport:
    FILTERS = [
        FilterSpec("truncation", 0.5),
        FilterSpec("ridge", 0.5, alpha=0.01),
        FilterSpec("tikhonov", 0.5, alpha=1e-3),
    ]

    @pytest.mark.parametrize("filt", FILTERS, ids=lambda f: f.kind)
    def test_rows_are_the_blocks_of_reports_run_at_their_cn(self, filt):
        m = smooth_model(L=10, p=31)
        x = m.basis_curves[1]
        for target in (x, None):
            report = population_report(m, filt, [1, 3, 6], target)
            for row in report.rows:
                if target is None:
                    run = coverage_experiment(m, 40, row["cn"], filt, 0.9, 1, 5)
                else:
                    run = fixed_x_experiment(m, target, 40, row["cn"], filt, 0.9, 1, 5)
                block = run.to_dict()["population"]
                assert list(row) == ["k", "cn", *block]
                assert {k: v for k, v in row.items() if k not in ("k", "cn")} == block
            if target is None:
                assert "x_rkhs_sup" not in report.to_dict()
            else:
                assert report.to_dict()["x_rkhs_sup"] == run.to_dict()["x_rkhs_sup"]

    def test_ranks_set_cn_and_condition_u_covers_the_model(self):
        m = smooth_model(L=10, p=31)
        report = population_report(m, FilterSpec("truncation", 123.0), [2, 5])
        assert [row["cn"] for row in report.rows] == [rank_threshold(m.lambdas, k)
                                                      for k in (2, 5)]
        assert [row["k_n"] for row in report.rows] == [2, 5]
        sums, fraction, convergent = condition_u(m.rho_coeffs)
        assert np.array_equal(report.partial_sums, sums)
        assert (report.last_decade_fraction, report.convergent) == (fraction, convergent)
        assert report.partial_sums.size == m.L


def spectrum_population(lambdas):
    """The population block of a model given by its eigenvalues alone."""
    lam = np.asarray(lambdas, dtype=float)
    model = SimpleNamespace(lambdas=lam, rho_coeffs=np.zeros(lam.size))
    return population(model, FilterSpec("truncation", lam[1]))


class TestEigenInequalities:
    @staticmethod
    def holds(pop):
        return pop.first_pairwise_violation is None and pop.first_tail_violation is None

    def test_power_decay_clean(self):
        lam = np.arange(1.0, 1001.0) ** -2
        assert self.holds(spectrum_population(lam))

    def test_geometric_half_clean(self):
        lam = 0.5 ** np.arange(1.0, 61.0)
        assert self.holds(spectrum_population(lam))

    def test_non_convex_sequence_flagged(self):
        # tail sum at k=1 is 2.09 > 2*1.0; pairwise already fails at (1, 2)
        rep = spectrum_population([1.0, 0.9, 0.1, 0.09])
        assert rep.first_tail_violation == 1
        assert rep.first_pairwise_violation == (1, 2)

    def test_geometric_point_nine_violates_at_small_indices(self):
        lam = 0.9 ** np.arange(1.0, 61.0)
        rep = spectrum_population(lam)
        assert rep.first_pairwise_violation == (1, 2)
        assert rep.first_tail_violation == 1

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.01, 0.999), st.none()), min_size=1, max_size=40))
    def test_pairwise_sweep_matches_the_loop(self, ratios):
        # the running-minimum loop the vectorized sweep replaced, kept as the
        # reference; a None step j/(j+1) keeps j lam_j level up to roundoff
        steps = [j / (j + 1) if r is None else r for j, r in enumerate(ratios, 1)]
        lam = np.cumprod([1.0] + steps)
        jl = np.arange(1, lam.size + 1) * lam
        expected, running_min, running_arg = None, jl[0], 0
        for k in range(1, lam.size):
            if jl[k] > running_min * (1.0 + 1e-9):
                expected = (running_arg + 1, k + 1)
                break
            if jl[k] < running_min:
                running_min, running_arg = jl[k], k
        assert spectrum_population(lam).first_pairwise_violation == expected


class TestCoverageExperiment:
    def test_noiseless_in_span_covers_exactly(self):
        # every simulated mode retained, so the projection recovers rho exactly
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 41), EigenDecay.geometric(0.5),
            CoeffRule.finite([1.0, 0.4]), noise_sd=0.0, L=2,
        )
        rep = coverage_experiment(m, n=30, cn=0.05, filt=TRUNC, level=0.95,
                                  replicates=20, seed=1)
        assert rep.n_failed == 0
        assert rep.empirical_coverage == 1.0
        assert rep.mean_half_width < 1e-8

    def test_zero_model_standardizes_its_zero_errors_to_zero(self):
        # rho = 0 and no noise: rho_hat, sigma_hat and every error are exactly
        # 0, so each standardized error is 0 / 0, which a row reads as 0
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 41), EigenDecay.geometric(0.5),
            CoeffRule.finite([0.0, 0.0]), noise_sd=0.0, L=2,
        )
        rep = coverage_experiment(m, n=30, cn=0.05, filt=TRUNC, level=0.95,
                                  replicates=3, seed=1)
        assert [r["std_error"] for r in rep.rows] == [0.0, 0.0, 0.0]
        assert rep.empirical_coverage == 1.0 and rep.mean_half_width == 0.0

    def test_single_replicate_coverage_is_binary(self):
        m = smooth_model()
        cn = rank_threshold(m.lambdas, 3)
        rep = coverage_experiment(m, n=40, cn=cn, filt=TRUNC, level=0.5,
                                  replicates=1, seed=2)
        assert rep.empirical_coverage in (0.0, 1.0)
        assert rep.replicates == 1

    def test_reports_are_reproducible_and_thread_invariant(self):
        m = smooth_model(L=20, p=41)
        cn = rank_threshold(m.lambdas, 3)
        kwargs = dict(n=50, cn=cn, filt=TRUNC, level=0.9, replicates=12, seed=77)
        a = coverage_experiment(m, **kwargs)
        b = coverage_experiment(m, **kwargs)
        c = coverage_experiment(m, **kwargs, threads=4)
        assert a.to_dict() == b.to_dict() == c.to_dict()
        assert a.rows == b.rows == c.rows

    def test_bias_dominance_switch(self):
        # rough coefficients: too aggressive a cutoff degrades coverage
        rough = SpectralModel(
            make_trapezoid_grid(0, 1, 101), EigenDecay.power(1.0),
            CoeffRule.power(0.9, normalize=True), noise_sd=0.3, L=50,
        )
        coverages = {}
        for d in (1, 5):
            cn = rank_threshold(rough.lambdas, d)
            rep = coverage_experiment(rough, n=300, cn=cn, filt=TRUNC, level=0.95,
                                      replicates=200, seed=99)
            coverages[d] = rep.empirical_coverage
        assert coverages[1] < coverages[5]

    def test_oracle_consistency_large_sample(self):
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 51), EigenDecay.geometric(0.5),
            CoeffRule.finite([1.0, 0.5, 0.25]), noise_sd=0.0, L=3,
        )
        sample, _ = generate_dataset(m, 50000, replicate_rng(123, 0))
        dec = eigendecompose(CurveMatrix(sample.grid, sample.values - sample.values.mean(axis=0)), 0.0)
        rel = np.abs(dec.eigenvalues[:3] - m.lambdas) / m.lambdas
        assert rel.max() < 0.05
        for j in range(3):
            overlap = abs(inner_product(dec.eigenvectors[j], m.basis_curves[j]))
            assert overlap >= 0.99


class TestNormalKsStatistic:
    # a few values drawn often give ties; +-40 reaches where ndtr is 0 or 1
    SAMPLES = st.lists(
        st.one_of(st.sampled_from([-1.0, 0.0, 0.25, 3.0]), st.floats(-40.0, 40.0)),
        min_size=1,
        max_size=500,
    )

    @settings(max_examples=200, deadline=None)
    @given(SAMPLES)
    def test_bit_equal_to_scipy_kstest(self, values):
        from scipy.stats import kstest

        sample = np.array(values)
        # scipy's arithmetic for D, with this package's Phi
        assert normal_ks_statistic(sample) == float(kstest(sample, np.vectorize(ndtr)).statistic)

    def test_known_values(self):
        assert normal_ks_statistic(np.array([0.0])) == 0.5
        assert normal_ks_statistic(np.array([40.0, 40.0])) == 1.0


class TestFixedXExperiment:
    def test_standardized_errors_near_normal(self):
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 101), EigenDecay.geometric(0.5),
            CoeffRule.finite([1.0, 0.5, 0.25]), noise_sd=0.3, L=10,
        )
        x = m.basis_curves[0]
        cn = rank_threshold(m.lambdas, 3)
        rep = fixed_x_experiment(m, x, n=400, cn=cn, filt=TRUNC, level=0.95,
                                 replicates=500, seed=11)
        assert rep.n_failed == 0
        assert rep.ks_statistic < 1.36 / np.sqrt(500)
        assert rep.population.x_rkhs_sup == pytest.approx(1 / m.lambdas[0], rel=1e-8)

    def test_zero_x_is_refused_before_any_fit(self, monkeypatch):
        m = smooth_model(L=10, p=31)

        def no_fit(*args, **kwargs):
            raise AssertionError("fit called for a zero x")

        monkeypatch.setattr(simlab, "fit", no_fit)
        with pytest.raises(DegenerateFitError, match="x is the zero curve"):
            fixed_x_experiment(m, m.curve_from_coeffs([0.0, 0.0]), n=40,
                               cn=rank_threshold(m.lambdas, 3), filt=TRUNC, level=0.9,
                               replicates=3, seed=1)

    def test_orthogonal_x_fails_every_replicate(self):
        m = smooth_model(L=20, p=101)
        # orthogonalize a high-frequency curve against the full model basis
        raw = np.cos(40 * np.pi * m.grid.points)
        coeffs = m.basis @ (m.grid.weights * raw)
        x = Curve(m.grid, raw - coeffs @ m.basis)
        cn = rank_threshold(m.lambdas, 4)
        rep = fixed_x_experiment(m, x, n=40, cn=cn, filt=TRUNC, level=0.95,
                                 replicates=5, seed=3)
        assert rep.n_failed == 5
        assert rep.empirical_coverage == 0.0

    def test_t_hat_coverage_is_near_nominal(self):
        # the paper's fixed-x CLT: lam_j = j^-2, a finite rho inside the
        # retained rank 3, so the truncation bias is zero by construction
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 21), EigenDecay.power(1.0),
            CoeffRule.finite([1.0, 0.5, 0.25]), noise_sd=0.5, L=10,
        )
        x = m.basis_curves[1]
        cn = rank_threshold(m.lambdas, 3)
        assert truncated_at(m, 3, x).tail_bias == 0.0
        level, replicates = 0.95, 1000
        rep = fixed_x_experiment(m, x, n=200, cn=cn, filt=FilterSpec("truncation", cn),
                                 level=level, replicates=replicates, seed=1)
        assert rep.n_failed == 0
        se = np.sqrt(level * (1 - level) / replicates)
        assert abs(rep.empirical_coverage - level) <= 3 * se

    def test_t_hat_stabilizes_for_smooth_x(self):
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 101), EigenDecay.power(1.0),
            CoeffRule.power(3.0, normalize=True), noise_sd=0.3, L=50,
        )
        x = m.curve_from_coeffs(np.sqrt(power_squared_coeffs(3.0, m.L)))
        rule = rank_power_cn_rule(m, 1 / 3)
        means = []
        for n in (200, 400, 800, 1600):
            rep = fixed_x_experiment(m, x, n=n, cn=rule(n), filt=TRUNC, level=0.95,
                                     replicates=25, seed=5)
            means.append(np.mean([r["t_hat"] for r in rep.rows if not r["failed"]]))
        means = np.array(means)
        assert abs(means[-1] - means.mean()) / means.mean() < 0.05


# (p, n): the first and last on the p x p route, the middle two on the Gram route
BIAS_SHAPES = [(21, 60), (21, 12), (101, 40), (51, 500)]
BIAS_CASES = [
    pytest.param(p, n, variant, pivot, id=f"{p}x{n}-{variant}-{pivot}")
    for p, n in BIAS_SHAPES
    for variant in ("truncation", "ridge", "tikhonov", "generalized-A", "generalized-B")
    for pivot in ("s_hat", "t_hat")
]


class TestOneBiasFormula:
    """Each row's bias is the error of a noise-free refit of its sample at
    its target, on either pivot, for every filter variant and both routes."""

    SEED = 31

    @classmethod
    def run(cls, p, n, variant, pivot, noise_sd):
        """The experiment's rows, each with its sample and its target x."""
        m = SpectralModel(make_trapezoid_grid(0.0, 1.0, p), EigenDecay.power(1.0),
                          CoeffRule.power(2.0), noise_sd=noise_sd, L=min(20, p - 1))
        cn = rank_threshold(m.lambdas, 5)
        filt = {
            "truncation": FilterSpec("truncation", cn),
            "ridge": FilterSpec("ridge", cn, alpha=cn),
            "tikhonov": FilterSpec("tikhonov", cn, alpha=cn**2),
            "generalized-A": FilterSpec("generalized", cn, alpha=cn, p=2, variant="A"),
            "generalized-B": FilterSpec("generalized", cn, alpha=cn**3, p=2, variant="B"),
        }[variant]
        if pivot == "s_hat":
            x = None
            rep = coverage_experiment(m, n, cn, filt, 0.9, 8, cls.SEED)
        else:
            x = m.curve_from_coeffs(np.sqrt(power_squared_coeffs(1.0, m.L)))
            rep = fixed_x_experiment(m, x, n, cn, filt, 0.9, 8, cls.SEED)
        assert rep.n_failed == 0
        for row in rep.rows:
            rng = replicate_rng(cls.SEED, row["replicate"])
            sample, _ = generate_dataset(m, n, rng)
            yield m, filt, row, sample, kl_sample(m, rng) if x is None else x

    @pytest.mark.parametrize("p, n, variant, pivot", BIAS_CASES)
    def test_noiseless_bias_is_the_error(self, p, n, variant, pivot):
        for m, _, row, _, x in self.run(p, n, variant, pivot, noise_sd=0.0):
            target = inner_product(m.rho_curve, x)
            assert abs(row["bias"] - (row["center"] - target)) <= 1e-12 * max(1.0, abs(target))

    @pytest.mark.parametrize("p, n, variant, pivot", BIAS_CASES)
    def test_bias_is_the_noise_free_refit_error(self, p, n, variant, pivot):
        for m, filt, row, sample, x in self.run(p, n, variant, pivot, noise_sd=0.5):
            y0 = sample.values @ (m.grid.weights * m.rho_curve.values)
            target = inner_product(m.rho_curve, x)
            error = predict(fit(sample, y0, filt, center=False), x) - target
            assert abs(row["bias"] - error) <= 1e-12 * max(1.0, abs(target))


def saturated_model():
    # with n = 2 and cn below both empirical eigenvalues, fit succeeds with
    # d_n = 2 and the interval fails for lack of residual degrees of freedom
    return SpectralModel(
        make_trapezoid_grid(0, 1, 21), EigenDecay.geometric(0.5),
        CoeffRule.finite([1.0, 0.4]), noise_sd=0.3, L=2,
    )


class TestFailedRowsKeepRank:
    def test_coverage_rows_record_d_n(self):
        rep = coverage_experiment(saturated_model(), n=2, cn=1e-8,
                                  filt=FilterSpec("truncation", 1e-8), level=0.95,
                                  replicates=3, seed=7)
        assert rep.n_failed == 3
        for row in rep.rows:
            assert row["failed"]
            assert "no residual degrees of freedom" in row["error"]
            assert row["d_n"] == 2

    def test_fixed_x_rows_record_d_n(self):
        m = saturated_model()
        rep = fixed_x_experiment(m, m.basis_curves[0], n=2, cn=1e-8,
                                 filt=FilterSpec("truncation", 1e-8), level=0.95,
                                 replicates=3, seed=7)
        assert rep.n_failed == 3
        assert [row["d_n"] for row in rep.rows] == [2, 2, 2]

    def test_rows_failing_in_fit_leave_d_n_empty(self):
        rep = coverage_experiment(saturated_model(), n=1, cn=1e-8,
                                  filt=FilterSpec("truncation", 1e-8), level=0.95,
                                  replicates=2, seed=7)
        assert rep.n_failed == 2
        for row in rep.rows:
            assert "at least 2 observations" in row["error"]
            assert row["d_n"] is None


class TestFixedXNormalizer:
    def test_t_hat_computed_once_per_replicate(self, monkeypatch):
        # t_hat is the normalizer kernel's sum over the coordinates of x
        calls = []
        original = estimator.normalizers

        def counted(lam, filt, coeffs=None, filtered=None):
            if coeffs is not None:
                calls.append(1)
            return original(lam, filt, coeffs, filtered)

        monkeypatch.setattr(estimator, "normalizers", counted)
        monkeypatch.setattr(simlab, "normalizers", counted)
        m = smooth_model(L=10, p=31)
        rep = fixed_x_experiment(m, m.basis_curves[1], n=60, cn=rank_threshold(m.lambdas, 3),
                                 filt=TRUNC, level=0.9, replicates=4, seed=5)
        assert rep.n_failed == 0
        # one per replicate, and one for the run's population block
        assert len(calls) == 4 + 1


# Seeded reports recorded before the sample became one curve matrix: the
# discrete fields must match exactly, and every float to 1e-12 relative.
# "fixed_x_wide" (n = 12 < p = 21) was recorded from the p x p eigensolve,
# before n < p samples took the n x n Gram route: its floats must match to
# 1e-10 relative. The ``bias`` values and ``bias_summary`` were recorded
# again when every row's bias became the error of a noise-free refit.
GOLDEN_ROW_KEYS = ("failed", "hit", "d_n", "center", "half_width", "std_error", "bias", "t_hat")
GOLDEN = {
    "coverage": {
        "report": {
            "nominal_level": 0.9, "n": 40, "replicates": 3, "empirical_coverage": 1.0,
            "mean_half_width": 0.1534318264773056, "ks_statistic": 0.43359414323769685,
            "bias_summary": -0.0001812515027375163, "seed": 2024, "n_failed": 0,
        },
        "rows": [
            (False, True, 4, -0.28627250783315356, 0.17936786800682644,
             0.029070431366549306, -2.716820851367263e-05),
            (False, True, 4, -0.3807790954432839, 0.15575448443006362,
             -0.16723100879006358, -0.017115166367256296),
            (False, True, 4, 0.16587703343478424, 0.12517312699502678,
             1.3241866481282105, 0.01659858006755742),
        ],
    },
    "fixed_x": {
        "report": {
            "nominal_level": 0.9, "n": 40, "replicates": 3, "empirical_coverage": 1.0,
            "mean_half_width": 0.1302365274225166, "ks_statistic": 0.6629263633764128,
            "bias_summary": -0.03535384889234716, "seed": 2024, "n_failed": 0,
            "x_rkhs_sup": 4.000000000000002,
        },
        "rows": [
            (False, True, 6, 0.20958715149302135, 0.1580953014825488,
             -0.42046297276887756, -0.017074448838619638, 1.7362264038221982),
            (False, True, 7, 0.21223662678714572, 0.1197920571088704,
             -0.5185253755066043, -0.04140836496756639, 1.46927426826188),
            (False, True, 5, 0.21594148914261713, 0.11282222367613055,
             -0.4965445927847346, -0.047578732870855456, 1.756938270974554),
        ],
    },
    "fixed_x_wide": {
        "report": {
            "nominal_level": 0.9, "n": 12, "replicates": 3, "empirical_coverage": 1.0,
            "mean_half_width": 0.3208387176266323, "ks_statistic": 0.5892315243879322,
            "bias_summary": -0.07705162318016949, "seed": 2024, "n_failed": 0,
            "x_rkhs_sup": 4.000000000000002,
        },
        "rows": [
            (False, True, 5, 0.2352228174948501, 0.4482710120840339,
             -0.05422233779230702, -0.0243139944561733, 1.7253300290211997),
            (False, True, 5, 0.024257848325279906, 0.2438681904092545,
             -1.522596269381683, -0.12102914515254262, 1.6628185540520655),
            (False, True, 4, 0.016166828350673526, 0.27037695038660847,
             -1.4225374609004058, -0.08581172993179254, 1.3625063645995759),
        ],
    },
}


class TestSeededGoldenReports:
    @staticmethod
    def model():
        return SpectralModel(make_trapezoid_grid(0.0, 1.0, 21), EigenDecay.power(1.0),
                             CoeffRule.power(2.0), noise_sd=0.3, L=8)

    @staticmethod
    def assert_matches(report, golden, rel=1e-12):
        for key, value in golden["report"].items():
            if isinstance(value, float):
                assert report.to_dict()[key] == pytest.approx(value, rel=rel, abs=0)
            else:
                assert report.to_dict()[key] == value
        assert len(report.rows) == len(golden["rows"])
        for row, expected in zip(report.rows, golden["rows"]):
            for key, value in zip(GOLDEN_ROW_KEYS, expected):
                if isinstance(value, float):
                    assert row[key] == pytest.approx(value, rel=rel, abs=0)
                else:
                    assert row[key] == value

    def test_coverage_report(self):
        rep = coverage_experiment(self.model(), 40, 0.05, FilterSpec("truncation", 0.05),
                                  0.9, 3, 2024)
        self.assert_matches(rep, GOLDEN["coverage"])

    def test_fixed_x_report(self):
        m = self.model()
        rep = fixed_x_experiment(m, m.basis_curves[1], 40, 0.02,
                                 FilterSpec("tikhonov", 0.02, alpha=0.01), 0.9, 3, 2024)
        self.assert_matches(rep, GOLDEN["fixed_x"])

    def test_fixed_x_wide_report(self):
        m = self.model()
        rep = fixed_x_experiment(m, m.basis_curves[1], 12, 0.02,
                                 FilterSpec("tikhonov", 0.02, alpha=0.01), 0.9, 3, 2024)
        self.assert_matches(rep, GOLDEN["fixed_x_wide"], rel=1e-10)


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records max_workers, runs serially."""

    created: list = []

    def __init__(self, max_workers):
        RecordingPool.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestRunThreads:
    @pytest.fixture
    def pool(self, monkeypatch):
        RecordingPool.created = []
        monkeypatch.setattr(simlab, "ThreadPoolExecutor", RecordingPool)
        return RecordingPool.created

    @pytest.mark.parametrize("threads,replicates,cores,workers", [
        (10**6, 3, 64, 3),      # clamped to the number of replicates
        (10**6, 6, 2, 2),       # clamped to the number of cores
        (4, 6, None, None),     # unknown core count: serial
        (1, 6, 64, None),       # serial, no pool
        (8, 1, 64, None),       # one replicate: serial
    ])
    def test_workers_clamped(self, pool, monkeypatch, threads, replicates, cores, workers):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        m = smooth_model(L=5, p=21)
        kwargs = dict(n=20, cn=rank_threshold(m.lambdas, 2), filt=TRUNC, level=0.9,
                      replicates=replicates, seed=5)
        serial = coverage_experiment(m, **kwargs)
        assert pool == []
        assert coverage_experiment(m, **kwargs, threads=threads).rows == serial.rows
        assert pool == ([] if workers is None else [workers])

    @pytest.mark.parametrize("bad", [dict(threads=0), dict(threads=-5),
                                     dict(seed=-1), dict(replicates=0)])
    def test_run_arguments_validated(self, pool, bad):
        m = smooth_model(L=5, p=21)
        kwargs = dict(n=20, cn=rank_threshold(m.lambdas, 2), filt=TRUNC, level=0.9,
                      replicates=2, seed=1, threads=1)
        kwargs.update(bad)
        with pytest.raises(ValidationError):
            coverage_experiment(m, **kwargs)
        with pytest.raises(ValidationError):
            fixed_x_experiment(m, m.basis_curves[0], **kwargs)
        nd = {k: kwargs[k] for k in ("filt", "replicates", "seed", "threads")}
        with pytest.raises(ValidationError):
            norm_divergence_demo(m, [20, 40], lambda n: kwargs["cn"], **nd)
        assert pool == []


    @pytest.mark.parametrize("level", [1.5, 1.0, 0.0, -0.1, float("nan")])
    def test_level_checked_before_replicates(self, monkeypatch, level):
        def no_replicate(*args, **kwargs):
            raise AssertionError("a replicate ran")

        monkeypatch.setattr(simlab, "generate_dataset", no_replicate)
        m = smooth_model(L=5, p=21)
        kwargs = dict(n=20, cn=rank_threshold(m.lambdas, 2), filt=TRUNC, level=level,
                      replicates=2, seed=1)
        with pytest.raises(ValidationError, match="confidence level"):
            coverage_experiment(m, **kwargs)
        with pytest.raises(ValidationError, match="confidence level"):
            fixed_x_experiment(m, m.basis_curves[0], **kwargs)


class TestNormDivergence:
    def test_exact_inversion_gives_zero_norms(self):
        # noiseless, every simulated mode retained: rho_hat recovers rho
        m = SpectralModel(
            make_trapezoid_grid(0, 1, 41), EigenDecay.geometric(0.5),
            CoeffRule.finite([1.0, 0.4, 0.2]), noise_sd=0.0, L=3,
        )
        rep = norm_divergence_demo(m, [30, 60], lambda n: 0.05, TRUNC,
                                   replicates=10, seed=8)
        for row in rep.rows:
            assert row["mean_norm_error"] < 1e-8
        assert not rep.diverging

    def test_shrinking_threshold_inflates_norm_error(self):
        m = smooth_model(noise=0.5)
        errors = []
        for d in (2, 8, 20):
            cn = rank_threshold(m.lambdas, d)
            rep = norm_divergence_demo(m, [150, 151], lambda n, c=cn: c, TRUNC,
                                       replicates=30, seed=13)
            errors.append(rep.rows[0]["mean_norm_error"])
        assert errors[0] < errors[1] < errors[2]

    def test_requires_increasing_grid(self):
        m = smooth_model()
        with pytest.raises(ValidationError):
            norm_divergence_demo(m, [100, 100], lambda n: 0.01, TRUNC,
                                 replicates=2, seed=1)


class TestConfigPlumbing:
    def test_model_from_config(self):
        cfg = {
            "decay": {"kind": "power", "a": 2.0},
            "rho": {"kind": "power", "exponent": 3.0, "normalize": True},
            "noise_sd": 0.5,
            "xi": "gaussian",
            "L": 50,
            "grid_points": 101,
        }
        m = model_from_config(cfg)
        assert m.L == 50
        assert m.noise_sd == 0.5
        assert m.lambdas[0] == 1.0

    def test_unknown_decay_keys_rejected(self):
        with pytest.raises(ValidationError):
            model_from_config(
                {"decay": {"kind": "power", "a": 1.0, "b": 2},
                 "rho": {"kind": "power", "exponent": 2.0}}
            )

    @pytest.mark.parametrize("key,bad", [
        ("noise_sd", True),
        ("noise_sd", "0.5"),
        ("L", 20.0),
        ("xi", 1),
        ("grid_points", "101"),
        ("rho", {"kind": "power", "exponent": 3.0, "normalize": 1}),
        ("rho", {"kind": "finite", "coeffs": [1.0, "0.5"]}),
        ("decay", {"kind": "power", "a": float("nan")}),
        ("decay", {"kind": "power"}),
        ("decay", "power"),
    ])
    def test_mistyped_fields_rejected(self, key, bad):
        cfg = {
            "decay": {"kind": "power", "a": 2.0},
            "rho": {"kind": "power", "exponent": 3.0},
            key: bad,
        }
        with pytest.raises(ValidationError):
            model_from_config(cfg)

    def test_x_and_cn_rule_configs(self):
        m = model_from_config({
            "decay": {"kind": "power", "a": 1.0},
            "rho": {"kind": "power", "exponent": 2.0},
            "L": 10, "grid_points": 21,
        })
        x = x_from_config(m, {"kind": "coeffs", "values": [1.0, 0.5]})
        assert np.array_equal(x.values, m.curve_from_coeffs([1.0, 0.5]).values)
        basis_x = x_from_config(m, {"kind": "basis"})
        assert basis_x.grid is m.grid
        assert np.array_equal(basis_x.values, m.basis_curves[0].values)
        with pytest.raises(ValidationError):
            x_from_config(m, {"kind": "basis", "index": 11})
        assert cn_rule_from_config(m, {"kind": "fixed", "value": 0.02})(50) == 0.02
        default = cn_rule_from_config(m, {"kind": "rank-power"})
        assert default(64) == rank_power_cn_rule(m, 1 / 3)(64)
        with pytest.raises(ValidationError):
            default(0)

    def test_power_x_has_squared_coordinates_j_to_minus_one_plus_beta(self):
        m = model_from_config({
            "decay": {"kind": "power", "a": 1.0},
            "rho": {"kind": "power", "exponent": 2.0},
            "L": 10, "grid_points": 21,
        })
        x = x_from_config(m, {"kind": "power", "beta": 1.5})
        np.testing.assert_allclose(m.basis_curves.inner_products(x) ** 2,
                                   np.arange(1.0, 11.0) ** -2.5, rtol=1e-12, atol=0)

    def test_rank_power_rule_caps_huge_exponents(self):
        m = smooth_model(L=10, p=21)
        cap = rank_threshold(m.lambdas, 9)
        # 1e308 log(50) overflows to inf, with no warning
        for exponent in (1.0, 2.5, 1e300, 1e308):
            assert rank_power_cn_rule(m, exponent)(50) == cap
        assert rank_power_cn_rule(m, 0.5)(16) == rank_threshold(m.lambdas, 4)
        assert rank_power_cn_rule(m, -1e300)(50) == rank_threshold(m.lambdas, 1)

    def test_geometric_decay_config(self):
        cfg = {
            "decay": {"kind": "geometric", "r": 0.5},
            "rho": {"kind": "finite", "coeffs": [1.0, 0.5]},
        }
        m = model_from_config(cfg)
        assert m.lambdas[0] == 0.5
