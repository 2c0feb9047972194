import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funreg.covariance import eigendecompose, empirical_covariance, spectral_gaps
from funreg.errors import ValidationError
from funreg.filters import (
    FilterSpec,
    check_h3,
    effective_rank,
    filter_from_config,
    filter_to_config,
    filter_values,
    select_kn,
)
from funreg.estimator import normalizers
from funreg.hilbert import Curve, make_trapezoid_grid


def filter_at(spec, x):
    """f_n at one argument."""
    return float(filter_values(spec, [x])[0])


class FakeDecomposition:
    def __init__(self, eigenvalues):
        self.eigenvalues = np.asarray(eigenvalues, dtype=float)


class TestFilterSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            FilterSpec("lasso", 0.1)

    def test_truncation_needs_positive_cn(self):
        with pytest.raises(ValidationError):
            FilterSpec("truncation", 0.0)

    def test_parametric_kinds_need_positive_alpha(self):
        for kind in ("ridge", "tikhonov"):
            with pytest.raises(ValidationError):
                FilterSpec(kind, 0.1)
            with pytest.raises(ValidationError):
                FilterSpec(kind, 0.1, alpha=-1.0)

    def test_ridge_allows_zero_threshold(self):
        spec = FilterSpec("ridge", 0.0, alpha=0.5)
        assert spec.cn == 0.0

    def test_generalized_needs_p_and_variant(self):
        with pytest.raises(ValidationError):
            FilterSpec("generalized", 0.1, alpha=0.5)
        with pytest.raises(ValidationError):
            FilterSpec("generalized", 0.1, alpha=0.5, p=2, variant="C")
        FilterSpec("generalized", 0.1, alpha=0.5, p=2, variant="A")

    def test_truncation_takes_no_parameters(self):
        with pytest.raises(ValidationError):
            FilterSpec("truncation", 0.1, alpha=0.5)


class TestFilterValue:
    def test_truncation_above_threshold(self):
        assert filter_at(FilterSpec("truncation", 0.3), 0.5) == pytest.approx(2.0)

    def test_truncation_below_threshold(self):
        assert filter_at(FilterSpec("truncation", 0.3), 0.2) == 0.0

    def test_tikhonov(self):
        assert filter_at(
            FilterSpec("tikhonov", 0.05, alpha=0.01), 0.1
        ) == pytest.approx(5.0)

    def test_ridge(self):
        assert filter_at(FilterSpec("ridge", 0.2, alpha=0.1), 0.4) == pytest.approx(2.0)

    def test_generalized_variants(self):
        a = FilterSpec("generalized", 0.1, alpha=0.5, p=2, variant="A")
        b = FilterSpec("generalized", 0.1, alpha=0.5, p=2, variant="B")
        x = 0.7
        assert filter_at(a, x) == pytest.approx(x**2 / (x + 0.5) ** 3)
        assert filter_at(b, x) == pytest.approx(x**2 / (x**3 + 0.5))

    def test_boundary_value_included(self):
        assert filter_at(FilterSpec("truncation", 0.3), 0.3) == pytest.approx(1 / 0.3)

    def test_negative_argument_rejected(self):
        with pytest.raises(ValidationError):
            filter_at(FilterSpec("truncation", 0.3), -0.1)


class TestFilterProperties:
    SPECS = [
        FilterSpec("truncation", 0.3),
        FilterSpec("ridge", 0.3, alpha=0.05),
        FilterSpec("tikhonov", 0.3, alpha=0.05),
        FilterSpec("generalized", 0.3, alpha=0.05, p=2, variant="A"),
        FilterSpec("generalized", 0.3, alpha=0.02, p=1, variant="B"),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.variant}")
    def test_zero_below_support_positive_on_it(self, spec):
        below = np.linspace(0.0, spec.cn * 0.999, 50)
        assert np.all(filter_values(spec, below) == 0.0)
        above = np.linspace(spec.cn, 2.0, 200)
        assert np.all(filter_values(spec, above) > 0.0)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.variant}")
    def test_decreasing_on_working_interval(self, spec):
        # (F.1); parameters above satisfy the small-alpha regime it needs
        xs = np.linspace(spec.cn, 1.5, 400)
        vals = filter_values(spec, xs)
        assert np.all(np.diff(vals) <= 1e-12)

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"{s.kind}-{s.variant}")
    def test_continuous_on_open_support(self, spec):
        xs = np.linspace(spec.cn + 1e-9, 2.0, 1000)
        vals = filter_values(spec, xs)
        assert np.abs(np.diff(vals)).max() < filter_at(spec, spec.cn) * 0.05

    def test_attenuation_in_unit_interval(self):
        xs = np.linspace(0.31, 3.0, 100)
        for spec in self.SPECS[1:3]:
            xf = xs * filter_values(spec, xs)
            assert np.all(xf > 0) and np.all(xf <= 1.0)
        # truncation's x f(x) is exactly 1 on its support, so the
        # normalizer kernel's s is exactly sqrt(count)
        assert normalizers(xs, self.SPECS[0]).s == np.sqrt(xs.size)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=1e-4, max_value=0.05),
        st.floats(min_value=0.35, max_value=3.0),
    )
    def test_ridge_converges_to_truncation(self, alpha, x):
        ridge = FilterSpec("ridge", 0.3, alpha=alpha)
        assert abs(filter_at(ridge, x) - 1.0 / x) <= alpha / x**2 + 1e-15


class TestSelectKn:
    def test_hand_example(self):
        lam = [1.0, 0.5, 0.25, 0.125, 0.0625]
        assert select_kn(lam, 0.3) == 3

    def test_boundary_keeps_leading_eigenvalue(self):
        lam = [1.0, 0.4, 0.16]
        # lambda_2 + delta_2/2 = 0.52; any cn in (0.52, lambda_1) keeps only p=1
        assert select_kn(lam, 0.8) == 1

    def test_two_eigenvalue_truncation(self):
        assert select_kn([1.0, 0.5], 0.6) == 1

    def test_monotone_in_threshold(self):
        lam = (0.8 ** np.arange(1, 30)).tolist()
        thresholds = np.linspace(1e-4, 0.75, 40)
        ranks = [select_kn(lam, c) for c in thresholds]
        assert all(a >= b for a, b in zip(ranks, ranks[1:]))

    def test_threshold_above_lambda1_rejected(self):
        with pytest.raises(ValidationError):
            select_kn([1.0, 0.5], 1.5)

    def test_non_monotone_rejected(self):
        with pytest.raises(ValidationError):
            select_kn([1.0, 1.2, 0.5], 0.3)

    def test_single_eigenvalue(self):
        assert select_kn([1.0], 0.4) == 1

    def test_matches_inline_neighbor_gaps(self):
        # the min-of-neighbours differences select_kn derived inline before
        # it used spectral_gaps, kept as the reference
        rng = np.random.default_rng(4)
        for _ in range(300):
            lam = np.sort(rng.random(rng.integers(2, 30)))[::-1]
            lam = lam[np.r_[True, np.diff(lam) < 0]]
            if lam.size < 2:
                continue
            diffs = lam[:-1] - lam[1:]
            deltas = diffs.copy()
            deltas[1:] = np.minimum(diffs[1:], diffs[:-1])
            assert np.array_equal(spectral_gaps(lam)[:-1], deltas)
            cn = rng.uniform(0.0, lam[0])
            if cn > 0:
                eligible = np.flatnonzero(lam[:-1] + deltas / 2 >= cn)
                assert select_kn(lam, cn) == int(eligible[-1]) + 1


class TestEffectiveRank:
    def test_zero_when_all_below(self):
        assert effective_rank(FakeDecomposition([0.05, 0.01]), 0.1) == 0

    def test_ignores_numerically_zero_tail(self):
        assert effective_rank(FakeDecomposition([2.0, 0.5, 1e-13]), 0.1) == 2

    def test_boundary_inclusive(self):
        assert effective_rank(FakeDecomposition([1.0, 0.5, 0.25]), 0.25) == 3

    def test_zero_threshold_counts_positive_only(self):
        assert effective_rank(FakeDecomposition([1.0, 0.5, 0.0, 0.0]), 0.0) == 2

    def test_matches_kn_on_gapped_spectrum(self):
        lam = [1.0, 0.7, 0.5, 1e-4, 5e-5]
        cn = 0.01
        assert effective_rank(FakeDecomposition(lam), cn) == select_kn(lam, cn)


class TestCheckH3:
    def test_truncation_exact_zero(self):
        rep = check_h3(FilterSpec("truncation", 0.3), n=50, upper=2.0)
        assert rep.sup_deviation == 0.0
        assert rep.bound_satisfied_hint

    def test_ridge_analytic_value(self):
        rep = check_h3(FilterSpec("ridge", 0.3, alpha=0.1), n=50, upper=2.0)
        assert rep.sup_deviation == pytest.approx(0.25, abs=1e-12)

    def test_tikhonov_analytic_value(self):
        rep = check_h3(FilterSpec("tikhonov", 0.3, alpha=0.01), n=50, upper=2.0)
        assert rep.sup_deviation == pytest.approx(0.01 / (0.09 + 0.01), abs=1e-12)

    def test_generalized_grid_search_matches_closed_form(self):
        # variant A: x f(x) = (x/(x+alpha))^(p+1), worst at x = cn
        spec = FilterSpec("generalized", 0.3, alpha=0.05, p=2, variant="A")
        rep = check_h3(spec, n=100, upper=3.0)
        expected = 1.0 - (0.3 / 0.35) ** 3
        assert rep.sup_deviation == pytest.approx(expected, rel=1e-6)

    def test_upper_below_cn_rejected(self):
        with pytest.raises(ValidationError):
            check_h3(FilterSpec("truncation", 0.3), n=10, upper=0.2)

    def test_hint_scales_with_n(self):
        spec = FilterSpec("ridge", 0.3, alpha=0.001)
        small = check_h3(spec, n=4, upper=1.0)
        large = check_h3(spec, n=10**8, upper=1.0)
        assert small.bound_satisfied_hint
        assert not large.bound_satisfied_hint


class TestFilterConfig:
    def test_round_trip(self):
        spec = FilterSpec("generalized", 0.2, alpha=0.4, p=3, variant="B")
        assert filter_from_config(filter_to_config(spec)) == spec

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            filter_from_config({"kind": "truncation", "cn": 0.1, "beta": 1})

    def test_missing_cn_rejected(self):
        with pytest.raises(ValidationError):
            filter_from_config({"kind": "truncation"})

    def test_cn_override(self):
        spec = filter_from_config({"kind": "ridge", "alpha": 0.2}, cn=0.05)
        assert spec.cn == 0.05

    @pytest.mark.parametrize("cfg", [
        {"kind": "generalized", "cn": 0.1, "alpha": 0.2, "p": 2.0, "variant": "A"},
        {"kind": "ridge", "cn": 0.1, "alpha": "0.2"},
        {"kind": "ridge", "cn": True, "alpha": 0.2},
        {"kind": 3, "cn": 0.1},
        ["kind", "ridge"],
    ])
    def test_mistyped_fields_rejected(self, cfg):
        with pytest.raises(ValidationError):
            filter_from_config(cfg)

    def test_integer_fields_accepted_as_numbers(self):
        spec = filter_from_config({"kind": "ridge", "cn": 0, "alpha": 1})
        assert (spec.cn, spec.alpha) == (0.0, 1.0)
        assert isinstance(spec.alpha, float)


class TestRankAgreementOnRealDecomposition:
    def test_effective_rank_of_fitted_spectrum(self):
        g = make_trapezoid_grid(0.0, 1.0, 16)
        rng = np.random.default_rng(2)
        sample = [Curve(g, rng.standard_normal(16)) for _ in range(40)]
        dec = eigendecompose(empirical_covariance(sample))
        d = effective_rank(dec, dec.eigenvalues[4] * 0.999)
        assert d == 5
