import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from funreg.errors import ValidationError
from funreg.hilbert import (
    Curve,
    CurveMatrix,
    Grid,
    inner_product,
    load_curves_csv,
    make_trapezoid_grid,
    norm,
    save_curves_csv,
    trapezoid_weights,
)


def unit_grid(p=11):
    return make_trapezoid_grid(0.0, 1.0, p)


curve_values = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), min_size=11, max_size=11
)


class TestMakeTrapezoidGrid:
    def test_two_points(self):
        g = make_trapezoid_grid(0, 1, 2)
        assert np.allclose(g.points, [0.0, 1.0])
        assert np.allclose(g.weights, [0.5, 0.5])

    def test_three_points(self):
        g = make_trapezoid_grid(0, 1, 3)
        assert np.allclose(g.weights, [0.25, 0.5, 0.25])

    def test_weights_sum_to_domain_length(self):
        g = make_trapezoid_grid(0, 2, 5)
        assert g.weights.sum() == pytest.approx(2.0, rel=1e-12)

    # Grid's rule refuses these, in the words of a grid row read from a CSV
    def test_rejects_single_point(self):
        with pytest.raises(ValidationError, match="^a grid needs at least 2 points$"):
            make_trapezoid_grid(0, 1, 1)

    def test_rejects_empty_interval(self):
        with pytest.raises(ValidationError, match="^grid points must be strictly increasing$"):
            make_trapezoid_grid(1, 1, 5)

    def test_rejects_a_span_beyond_the_float_range(self):
        # refused before np.linspace, whose step would overflow with a warning
        with pytest.raises(ValidationError, match="must span a finite range"):
            make_trapezoid_grid(-1.7e308, 1.7e308, 5)


class TestGridAndCurveValidation:
    def test_points_must_increase(self):
        with pytest.raises(ValidationError):
            Grid([0.0, 0.0, 1.0], [0.1, 0.1, 0.1])

    def test_weights_must_be_positive(self):
        with pytest.raises(ValidationError):
            Grid([0.0, 1.0], [1.0, 0.0])

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            Grid([0.0, 0.5, 1.0], [0.5, 0.5])

    def test_curve_length_must_match_grid(self):
        with pytest.raises(ValidationError):
            Curve(unit_grid(5), [1.0, 2.0])

    def test_curve_values_must_be_finite(self):
        with pytest.raises(ValidationError):
            Curve(unit_grid(3), [0.0, np.nan, 1.0])

    @pytest.mark.parametrize("make", [Curve, lambda g, v: CurveMatrix(g, v[None])],
                             ids=["curve", "matrix-row"])
    def test_curve_and_matrix_row_share_one_finiteness_rule(self, make):
        # 1e308 at every point of a unit-weight grid sums past the float
        # range, yet every value is finite, so it is accepted
        g = Grid(np.arange(3.0), np.ones(3))
        values = np.full(3, 1e308)
        assert np.array_equal(make(g, values).values.reshape(-1), values)
        for bad in ([1e308, np.inf, 1e308], [1e308, np.nan, 0.0], [np.inf, -np.inf, 0.0]):
            with pytest.raises(ValidationError, match="^curve values must be finite$"):
                make(g, np.array(bad))

    @pytest.mark.parametrize("make, message", [
        (lambda: Grid([[0.0, 1.0]], [[1.0, 1.0]]), "grid points and weights must be 1-d"),
        (lambda: Grid([0.0], [1.0]), "a grid needs at least 2 points"),
        (lambda: Grid([0.0, np.inf], [1.0, 1.0]), "grid points and weights must be finite"),
        (lambda: Grid([-1.7e308, 1.7e308], [1.0, 1.0]), "grid points must span a finite range"),
        (lambda: Curve(unit_grid(3), [[0.0, 1.0, 2.0]]), "curve values must be 1-d"),
        # the weights are refused with the grid's messages, before they divide by p - 1
        (lambda: trapezoid_weights([0.0]), "a grid needs at least 2 points"),
        (lambda: trapezoid_weights([1.0, 0.5, 0.0]), "grid points must be strictly increasing"),
    ], ids=["2-d-grid", "one-point-grid", "infinite-point", "overflowing-span", "2-d-curve",
            "one-point-weights", "decreasing-weights"])
    def test_refusal_names_its_cause(self, make, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$") as exc:
            make()
        assert exc.type is ValidationError

    def test_grids_equal_by_value_and_never_equal_another_type(self):
        g = unit_grid(5)
        assert g == unit_grid(5) and g != unit_grid(6)
        # __eq__ defers to the other operand, so the comparison is False
        assert g.__eq__(g.points) is NotImplemented
        assert g != "grid" and g != None  # noqa: E711

    def test_immutability(self):
        g = unit_grid(5)
        with pytest.raises(ValueError):
            g.points[0] = 3.0


class TestCurveMatrix:
    def test_rejects_non_2d_values(self):
        g = unit_grid(3)
        with pytest.raises(ValidationError):
            CurveMatrix(g, [0.0, 1.0, 2.0])
        with pytest.raises(ValidationError):
            CurveMatrix(g, np.zeros((2, 2, 3)))

    def test_rejects_wrong_width(self):
        with pytest.raises(ValidationError):
            CurveMatrix(unit_grid(3), np.zeros((4, 2)))

    def test_rejects_non_finite_values(self):
        for bad in (np.nan, np.inf, -np.inf):
            values = np.zeros((3, 3))
            values[1, 2] = bad
            with pytest.raises(ValidationError):
                CurveMatrix(unit_grid(3), values)
        # a row holding inf and -inf sums to nan, with no numpy warning
        values = np.zeros((3, 3))
        values[0, :2] = (np.inf, -np.inf)
        with pytest.raises(ValidationError):
            CurveMatrix(unit_grid(3), values)

    def test_accepts_finite_rows_whose_weighted_sums_overflow(self):
        values = np.full((2, 3), 1.5e308)
        m = CurveMatrix(Grid(np.arange(3.0), np.ones(3)), values)
        assert np.array_equal(m.values, values)

    def test_rejects_zero_rows(self):
        with pytest.raises(ValidationError):
            CurveMatrix(unit_grid(3), np.zeros((0, 3)))

    def test_of_rejects_mixed_grids_and_empty_input(self):
        a = Curve(unit_grid(4), np.ones(4))
        b = Curve(make_trapezoid_grid(0.0, 2.0, 4), np.ones(4))
        with pytest.raises(ValidationError, match="^curves live on different grids$"):
            CurveMatrix.of([a, a, b])
        with pytest.raises(ValidationError):
            CurveMatrix.of([])

    def test_of_stacks_curves_and_passes_a_matrix_through(self):
        g = unit_grid(5)
        rng = np.random.default_rng(1)
        curves = [Curve(g, rng.standard_normal(5)) for _ in range(3)]
        m = CurveMatrix.of(curves)
        assert m.grid is g
        assert np.array_equal(m.values, np.stack([c.values for c in curves]))
        assert CurveMatrix.of(m) is m

    def test_rows_index_and_iterate_as_curves(self):
        g = unit_grid(4)
        values = np.arange(12.0).reshape(3, 4)
        m = CurveMatrix(g, values)
        assert len(m) == 3
        assert isinstance(m[1], Curve)
        assert np.array_equal(m[-1].values, values[2])
        rows = list(m)
        assert all(c.grid is g for c in rows)
        assert np.array_equal(np.stack([c.values for c in rows]), values)

    def test_values_are_a_frozen_copy(self):
        values = np.ones((2, 3))
        m = CurveMatrix(unit_grid(3), values)
        values[0, 0] = 5.0
        assert m.values[0, 0] == 1.0
        with pytest.raises(ValueError):
            m.values[0, 0] = 2.0

    def test_inner_products_are_one_weighted_matrix_vector_product(self):
        g = make_trapezoid_grid(0.0, 1.0, 33)
        rng = np.random.default_rng(5)
        m = CurveMatrix(g, rng.standard_normal((7, 33)))
        h = Curve(make_trapezoid_grid(0.0, 1.0, 33), rng.standard_normal(33))
        ips = m.inner_products(h)
        assert np.array_equal(ips, m.values @ (g.weights * h.values))
        assert ips == pytest.approx([inner_product(row, h) for row in m], rel=1e-12)

    def test_inner_products_reject_a_foreign_grid(self):
        m = CurveMatrix(unit_grid(5), np.ones((2, 5)))
        with pytest.raises(ValidationError, match="^curves live on different grids$"):
            m.inner_products(Curve(make_trapezoid_grid(0.0, 2.0, 5), np.ones(5)))


class TestInnerProduct:
    def test_constant_one_integrates_to_domain_length(self):
        g = unit_grid(17)
        one = Curve(g, np.ones(17))
        assert inner_product(one, one) == pytest.approx(1.0, abs=1e-14)

    def test_disjoint_supports_are_orthogonal(self):
        g = Grid(np.arange(10.0), np.ones(10))
        f_vals = np.zeros(10)
        g_vals = np.zeros(10)
        f_vals[::2] = 1.7
        g_vals[1::2] = -2.3
        assert inner_product(Curve(g, f_vals), Curve(g, g_vals)) == 0.0

    def test_sin_squared_matches_analytic_integral(self):
        g = make_trapezoid_grid(0.0, 1.0, 201)
        s = Curve(g, np.sin(np.pi * g.points))
        assert inner_product(s, s) == pytest.approx(0.5, abs=1e-4)

    def test_grid_mismatch_rejected(self):
        f = Curve(unit_grid(5), np.ones(5))
        g = Curve(make_trapezoid_grid(0.0, 2.0, 5), np.ones(5))
        with pytest.raises(ValidationError, match="^curves live on different grids$"):
            inner_product(f, g)

    def test_equal_grids_by_value_are_accepted(self):
        f = Curve(unit_grid(5), np.ones(5))
        g = Curve(unit_grid(5), np.full(5, 2.0))
        assert inner_product(f, g) == pytest.approx(2.0)


class TestNorm:
    def test_zero_curve(self):
        assert norm(Curve.zeros(unit_grid())) == 0.0

    def test_constant_one(self):
        g = unit_grid()
        assert norm(Curve(g, np.ones(len(g)))) == pytest.approx(1.0, abs=1e-14)

    def test_homogeneity(self):
        g = unit_grid(31)
        rng = np.random.default_rng(0)
        f = Curve(g, rng.standard_normal(31))
        u = Curve(g, f.values * (1.0 / norm(f)))
        assert norm(Curve(g, 3.0 * u.values)) == pytest.approx(3.0, rel=1e-10)


class TestInnerProductProperties:
    @settings(max_examples=50, deadline=None)
    @given(curve_values, curve_values)
    def test_cauchy_schwarz(self, fv, gv):
        g = unit_grid()
        f, h = Curve(g, fv), Curve(g, gv)
        assert abs(inner_product(f, h)) <= norm(f) * norm(h) * (1 + 1e-10) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(curve_values, curve_values)
    def test_parallelogram_law(self, fv, gv):
        g = unit_grid()
        f, h = Curve(g, fv), Curve(g, gv)
        lhs = norm(Curve(g, f.values + h.values)) ** 2 + norm(f - h) ** 2
        rhs = 2 * (norm(f) ** 2 + norm(h) ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @settings(max_examples=50, deadline=None)
    @given(curve_values, curve_values)
    def test_symmetry_is_bitwise(self, fv, gv):
        g = unit_grid()
        f, h = Curve(g, fv), Curve(g, gv)
        assert inner_product(f, h) == inner_product(h, f)

    @settings(max_examples=30, deadline=None)
    @given(
        curve_values,
        curve_values,
        st.floats(min_value=-10, max_value=10),
        st.floats(min_value=-10, max_value=10),
    )
    def test_bilinearity(self, fv, gv, a, b):
        g = unit_grid()
        f, h = Curve(g, fv), Curve(g, gv)
        probe = Curve(g, np.linspace(-1, 1, 11))
        lhs = inner_product(Curve(g, a * f.values + b * h.values), probe)
        rhs = a * inner_product(f, probe) + b * inner_product(h, probe)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-8)

    def test_positive_definite(self):
        g = unit_grid()
        f = Curve(g, np.r_[np.zeros(10), 1e-8])
        assert inner_product(f, f) > 0
        assert inner_product(Curve.zeros(g), Curve.zeros(g)) == 0.0


class TestCurveCsv:
    def test_round_trip(self, tmp_path):
        g = make_trapezoid_grid(0.0, 1.0, 7)
        curves = [
            Curve(g, np.sin(g.points)),
            Curve(g, np.linspace(-3, 2, 7)),
        ]
        path = tmp_path / "curves.csv"
        save_curves_csv(path, curves)
        loaded = load_curves_csv(path)
        assert len(loaded) == 2
        assert np.array_equal(loaded[0].grid.points, g.points)
        assert np.array_equal(loaded[0].grid.weights, g.weights)
        for orig, back in zip(curves, loaded):
            assert np.array_equal(orig.values, back.values)

    # the two fine grids are ones whose spacing varies by more than the
    # uniform-spacing tolerance of trapezoid_weights
    @pytest.mark.parametrize("a, b, p", [(0.0, 1.0, 4), (2.0, 3.0, 3001), (0.0, 1.0, 7113)])
    def test_loads_one_matrix(self, tmp_path, a, b, p):
        g = make_trapezoid_grid(a, b, p)
        matrix = CurveMatrix(g, np.arange(2.0 * p).reshape(2, p))
        path = tmp_path / "curves.csv"
        save_curves_csv(path, matrix)
        loaded = load_curves_csv(path)
        assert isinstance(loaded, CurveMatrix)
        assert loaded.grid == g
        assert np.array_equal(loaded.values, matrix.values)

    def test_save_into_a_missing_directory_is_a_validation_error(self, tmp_path):
        g = make_trapezoid_grid(0.0, 1.0, 4)
        path = tmp_path / "no-such-dir" / "curves.csv"
        with pytest.raises(ValidationError, match="^cannot write "):
            save_curves_csv(path, CurveMatrix(g, np.ones((1, 4))))

    def test_rejects_non_finite_cell(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("0.0,1.0\n1.0,nan\n")
        with pytest.raises(ValidationError):
            load_curves_csv(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.0,1.0\nx,2.0\n")
        with pytest.raises(ValidationError):
            load_curves_csv(path)

    def test_rejects_ragged_rows(self, tmp_path):
        # numpy's advice to pass ``usecols`` is cut: no caller can set it
        path = tmp_path / "ragged.csv"
        for text, change in [("0.0,0.5,1.0\n1.0,2.0\n", "from 3 to 2 at row 2"),
                             ("0.0,0.5,1.0\n1,2,3\n4,5\n", "from 3 to 2 at row 3"),
                             ("0.0,0.5,1.0\n1,2,3\n4,5,6,7\n", "from 3 to 4 at row 3")]:
            path.write_text(text)
            with pytest.raises(ValidationError, match=change) as info:
                load_curves_csv(path)
            assert "usecols" not in str(info.value)

    @pytest.mark.parametrize("text, message", [
        ("0.0\n1.0\n", "at least 2 points"),
        ("0.0,inf\n1.0,2.0\n", "must be finite"),
        ("nan,1.0\n1.0,2.0\n", "must be finite"),
        ("1.0,0.0\n1.0,2.0\n", "strictly increasing"),
    ])
    def test_rejects_a_malformed_grid_row_before_its_weights(self, tmp_path, text, message):
        path = tmp_path / "grid.csv"
        path.write_text(text)
        with pytest.raises(ValidationError, match=message):
            load_curves_csv(path)

    def test_holds_the_file_once(self, tmp_path):
        # the cli-fit-predict shape; a copy of the parsed rows would peak
        # at about 2.1x the matrix
        g = make_trapezoid_grid(0.0, 1.0, 101)
        values = np.random.default_rng(3).standard_normal((5000, 101))
        path = tmp_path / "big.csv"
        np.savetxt(path, np.vstack([g.points, values]), fmt="%.17g", delimiter=",")
        tracemalloc.start()
        try:
            loaded = load_curves_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, values)
        assert loaded.values.flags.owndata and not loaded.values.flags.writeable
        assert peak <= 1.25 * values.nbytes

    def test_rejects_missing_curves(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("0.0,1.0\n")
        with pytest.raises(ValidationError):
            load_curves_csv(path)
