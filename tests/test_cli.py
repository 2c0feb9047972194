import concurrent.futures
import contextlib
import csv
import io
import json
import os
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from funreg import cli, simlab
from funreg.cli import main

# grid points (0, 2) give trapezoid weights (1, 1), matching the
# unit-weight arithmetic of the worked fit example
TOY_CURVES = "0.0,2.0\n2.0,0.0\n0.0,1.0\n"
TOY_RESPONSES = "2.0\n1.0\n"
# four curves on three points
THREE_POINT_CURVES = "0.0,0.5,1.0\n1.0,0.2,-0.3\n-0.4,0.9,0.3\n0.3,-0.5,1.1\n0.8,0.6,0.1\n"
# a generalized filter exponent beyond the float range
HUGE_P = 10**400
GENERALIZED = ["--filter", "generalized", "--cn", "0.1", "--alpha", "0.1"]


@pytest.fixture
def toy_inputs(tmp_path):
    curves = tmp_path / "curves.csv"
    responses = tmp_path / "responses.csv"
    curves.write_text(TOY_CURVES)
    responses.write_text(TOY_RESPONSES)
    return curves, responses


def run(argv):
    return main([str(a) for a in argv])


def assert_validation_exit(code, capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert code == 2
    assert len(err) == 1
    assert err[0].startswith("error: validation: ")


def base_coverage_config(**overrides):
    cfg = {
        "decay": {"kind": "geometric", "r": 0.5},
        "rho": {"kind": "finite", "coeffs": [1.0, 0.4]},
        "noise_sd": 0.0,
        "xi": "gaussian",
        "L": 2,
        "grid_points": 21,
        "filter": {"kind": "truncation", "cn": 0.05},
        "n": 25,
        "level": 0.95,
        "replicates": 3,
        "seed": 7,
    }
    cfg.update(overrides)
    return cfg


class TestFitCommand:
    def test_toy_fit_writes_expected_json(self, toy_inputs, tmp_path, capsys):
        curves, responses = toy_inputs
        out = tmp_path / "fit.json"
        code = run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1", "--no-center",
                    "--out", out])
        assert code == 0
        payload = json.loads(out.read_text())
        assert np.allclose(payload["grid"]["weights"], [1.0, 1.0])
        assert np.allclose(payload["rho_hat"], [1.0, 1.0], atol=1e-12)
        assert payload["d_n"] == 2
        captured = capsys.readouterr().out
        assert "d_n=2" in captured

    def test_response_length_mismatch_exits_2(self, toy_inputs, tmp_path):
        curves, _ = toy_inputs
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\n")
        code = run(["fit", "--curves", curves, "--responses", bad,
                    "--filter", "truncation", "--cn", "0.1",
                    "--out", tmp_path / "f.json"])
        assert code == 2

    def test_threshold_above_spectrum_exits_3(self, toy_inputs, tmp_path):
        curves, responses = toy_inputs
        code = run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "1000.0", "--no-center",
                    "--out", tmp_path / "f.json"])
        assert code == 3

    def test_identical_wide_curves_exit_3(self, tmp_path, capsys):
        # three identical curves on 11 points (n < p): centering leaves
        # no positive eigenvalue to keep
        grid = ",".join(repr(float(t)) for t in np.linspace(0.0, 1.0, 11))
        curve = ",".join(repr(float(v)) for v in 0.1 + np.sin(np.linspace(0.0, 3.0, 11)))
        curves = tmp_path / "curves.csv"
        curves.write_text("\n".join([grid, curve, curve, curve]) + "\n")
        responses = tmp_path / "y.csv"
        responses.write_text("1.0\n2.0\n0.5\n")
        out = tmp_path / "f.json"
        code = run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "ridge", "--cn", "1e-6", "--alpha", "0.1", "--out", out])
        err = capsys.readouterr().err.strip().splitlines()
        assert code == 3
        assert len(err) == 1
        assert err[0].startswith("error: degenerate: threshold exceeds spectrum")
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_nonfinite_response_exits_2(self, toy_inputs, tmp_path, capsys, bad):
        curves, _ = toy_inputs
        responses = tmp_path / "y.csv"
        responses.write_text(f"2.0\n{bad}\n")
        out = tmp_path / "f.json"
        code = run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1", "--out", out])
        assert_validation_exit(code, capsys)
        assert not out.exists()

    @pytest.mark.parametrize("curves_text", ["0.0\n1.0\n2.0\n", "0.0,inf\n1.0,2.0\n3.0,4.0\n"])
    def test_malformed_grid_row_exits_2(self, tmp_path, capsys, curves_text):
        # one grid point, or a point that is not finite: rejected before the
        # trapezoid weights divide by p - 1 or by the span
        curves = tmp_path / "c.csv"
        curves.write_text(curves_text)
        responses = tmp_path / "y.csv"
        responses.write_text("1.0\n2.0\n")
        code = run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1", "--out", tmp_path / "f.json"])
        assert_validation_exit(code, capsys)

    def test_underscore_response_exits_2(self, toy_inputs, tmp_path, capsys):
        # Python's float() reads 1_0 as 10.0; the curve file's grammar does not
        curves, _ = toy_inputs
        responses = tmp_path / "y.csv"
        responses.write_text("2.0\n1_0\n")
        code = run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1", "--out", tmp_path / "f.json"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"error: validation: {responses}: non-numeric response "
                       "(could not convert string '1_0' to float64)\n")

    def test_responses_parse_as_float_in_any_layout(self, tmp_path):
        values = np.random.default_rng(4).standard_normal(12) * 10.0 ** np.arange(-6, 6)
        cells = ["%.17g" % v for v in values]
        path = tmp_path / "y.csv"
        path.write_text(",".join(cells[:5]) + "\n" + "  ".join(cells[5:9]) + "\n\n"
                        + "\t".join(cells[9:]) + ",\n")
        assert np.array_equal(cli._load_responses(path), [float(c) for c in cells])

    @pytest.mark.parametrize("responses_text, options", [
        ("", ["--filter", "truncation", "--cn", "0.1"]),
        (TOY_RESPONSES, ["--filter", "truncation", "--cn", "nan"]),
        (TOY_RESPONSES, ["--filter", "ridge", "--cn", "0.1", "--alpha", "0.1", "--p", "2"]),
        # a p beyond the float range, and x^p that over- or underflows on the
        # uncentered spectrum (2, 0.5)
        (TOY_RESPONSES, [*GENERALIZED, "--variant", "A", "--p", HUGE_P]),
        (TOY_RESPONSES, [*GENERALIZED, "--variant", "A", "--p", "2000", "--no-center"]),
        (TOY_RESPONSES, [*GENERALIZED, "--variant", "B", "--p", "5000", "--no-center"]),
    ], ids=["empty-responses", "cn-nan", "ridge-with-p", "generalized-huge-p",
            "generalized-A-p=2000", "generalized-B-p=5000"])
    def test_refused_input_exits_2_with_one_line(self, toy_inputs, tmp_path, capsys,
                                                  responses_text, options):
        curves, responses = toy_inputs
        responses.write_text(responses_text)
        out = tmp_path / "f.json"
        code = run(["fit", "--curves", curves, "--responses", responses, *options,
                    "--out", out])
        assert_validation_exit(code, capsys)
        assert not out.exists()

    def test_missing_curves_file_exits_2(self, tmp_path):
        code = run(["fit", "--curves", tmp_path / "none.csv",
                    "--responses", tmp_path / "none2.csv",
                    "--filter", "truncation", "--cn", "0.1",
                    "--out", tmp_path / "f.json"])
        assert code == 2


class TestPredictCommand:
    @pytest.fixture
    def toy_fit_path(self, tmp_path):
        curves = tmp_path / "c.csv"
        responses = tmp_path / "y.csv"
        curves.write_text(TOY_CURVES)
        responses.write_text(TOY_RESPONSES)
        out = tmp_path / "fit.json"
        assert run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1", "--no-center",
                    "--out", out]) == 0
        x_path = tmp_path / "x.csv"
        x_path.write_text("0.0,2.0\n2.0,0.0\n")
        return out, x_path

    def test_point_prediction_output(self, toy_fit_path, capsys):
        fit_path, x_path = toy_fit_path
        capsys.readouterr()
        code = run(["predict", "--fit", fit_path, "--x", x_path])
        assert code == 0
        assert capsys.readouterr().out.strip() == "2.0"

    @pytest.mark.parametrize("normalizer", ["s_hat", "t_hat"])
    def test_normalizer_without_level_exits_2(self, toy_fit_path, capsys, normalizer):
        fit_path, x_path = toy_fit_path
        capsys.readouterr()
        code = run(["predict", "--fit", fit_path, "--x", x_path, "--normalizer", normalizer])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            "error: validation: --normalizer needs --level: a point prediction has no normalizer"]

    def test_level_alone_is_the_s_hat_pivot(self, tmp_path, capsys):
        from funreg.estimator import fit as fit_fn, save_fit
        from funreg.filters import FilterSpec
        from funreg.hilbert import CurveMatrix, make_trapezoid_grid, save_curves_csv

        rng = np.random.default_rng(5)
        sample = CurveMatrix(make_trapezoid_grid(0.0, 1.0, 5), rng.standard_normal((10, 5)))
        fit_path, x_path = tmp_path / "fit.json", tmp_path / "x.csv"
        save_fit(fit_path, fit_fn(sample, rng.standard_normal(10), FilterSpec("truncation", 0.1)))
        save_curves_csv(x_path, [sample[0]])
        outputs = []
        for pivot in ([], ["--normalizer", "s_hat"]):
            capsys.readouterr()
            assert run(["predict", "--fit", fit_path, "--x", x_path, "--level", "0.9",
                        *pivot]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] != ""

    def test_interval_output_and_degenerate_sigma(self, tmp_path, capsys):
        from funreg.estimator import fit as fit_fn, save_fit
        from funreg.filters import FilterSpec
        from funreg.hilbert import Curve, inner_product, make_trapezoid_grid

        g = make_trapezoid_grid(0.0, 1.0, 5)
        rng = np.random.default_rng(3)
        sample = [Curve(g, rng.standard_normal(5)) for _ in range(10)]
        rho = Curve(g, np.linspace(1.0, -1.0, 5))
        y = [inner_product(rho, x) for x in sample]
        ft = fit_fn(sample, y, FilterSpec("truncation", 1e-8), center=False)
        fit_path = tmp_path / "fit.json"
        save_fit(fit_path, ft)
        x_path = tmp_path / "x.csv"
        pts = ",".join(repr(float(p)) for p in g.points)
        vals = ",".join(repr(float(v)) for v in sample[0].values)
        x_path.write_text(f"{pts}\n{vals}\n")
        code = run(["predict", "--fit", fit_path, "--x", x_path,
                    "--level", "0.95"])
        assert code == 0
        center, lo, hi = map(float, capsys.readouterr().out.strip().split(","))
        assert lo == pytest.approx(center, abs=1e-9)
        assert hi == pytest.approx(center, abs=1e-9)

    def test_grid_mismatch_exits_2(self, toy_fit_path, tmp_path):
        fit_path, _ = toy_fit_path
        other_x = tmp_path / "otherx.csv"
        other_x.write_text("0.0,3.0\n1.0,1.0\n")
        assert run(["predict", "--fit", fit_path, "--x", other_x]) == 2

    def test_malformed_fit_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        x_path = tmp_path / "x.csv"
        x_path.write_text("0.0,1.0\n1.0,1.0\n")
        assert run(["predict", "--fit", bad, "--x", x_path]) == 2

    def test_two_curve_predictor_exits_2(self, toy_fit_path, tmp_path, capsys):
        fit_path, _ = toy_fit_path
        capsys.readouterr()
        x = tmp_path / "x2.csv"
        x.write_text("0.0,2.0\n2.0,0.0\n1.0,1.0\n")
        code = run(["predict", "--fit", fit_path, "--x", x])
        assert_validation_exit(code, capsys)

    def test_one_column_predictor_exits_2(self, toy_fit_path, tmp_path, capsys):
        fit_path, _ = toy_fit_path
        capsys.readouterr()
        x = tmp_path / "x1.csv"
        x.write_text("0.0\n1.0\n")
        code = run(["predict", "--fit", fit_path, "--x", x])
        assert_validation_exit(code, capsys)

    def test_ragged_predictor_names_the_row_and_no_usecols(self, toy_fit_path, tmp_path,
                                                            capsys):
        fit_path, _ = toy_fit_path
        capsys.readouterr()
        x = tmp_path / "ragged.csv"
        x.write_text("0.0,1.0,2.0\n1,2,3\n4,5\n")
        code = run(["predict", "--fit", fit_path, "--x", x])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: validation: ") and err.count("\n") == 1
        assert "the number of columns changed from 3 to 2 at row 3" in err
        assert "usecols" not in err

    def test_degenerate_t_hat_exits_3(self, tmp_path):
        # rank-one data along the first coordinate; x points the other way
        curves = tmp_path / "c.csv"
        curves.write_text("0.0,2.0\n1.0,0.0\n2.0,0.0\n-1.0,0.0\n")
        responses = tmp_path / "y.csv"
        responses.write_text("1.0\n2.0\n-1.0\n")
        fit_path = tmp_path / "fit.json"
        assert run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "1e-6", "--no-center",
                    "--out", fit_path]) == 0
        x_path = tmp_path / "x.csv"
        x_path.write_text("0.0,2.0\n0.0,1.0\n")
        code = run(["predict", "--fit", fit_path, "--x", x_path,
                    "--level", "0.9", "--normalizer", "t_hat"])
        assert code == 3


class TestCenteredFitWithoutResidualDof:
    """Three centered curves span two dimensions, so d_n = n - 1 = 2, and the
    mean takes the one observation left: the fit has no noise scale."""

    @pytest.fixture
    def fit_path(self, tmp_path, capsys):
        curves, responses = tmp_path / "c.csv", tmp_path / "y.csv"
        curves.write_text("0.0,0.5,1.0\n1.0,0.2,-0.3\n-0.4,0.9,0.3\n0.3,-0.5,1.1\n")
        responses.write_text("1.0\n-0.5\n0.7\n")
        (tmp_path / "x.csv").write_text("0.0,0.5,1.0\n0.5,0.1,0.2\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "1e-9", "--out", out]) == 0
        assert capsys.readouterr() == ("d_n=2 s_hat=1.4142135623730951 sigma_hat=nan\n", "")
        return out

    @pytest.mark.parametrize("normalizer", ["s_hat", "t_hat"])
    def test_interval_exits_3(self, fit_path, capsys, normalizer):
        assert json.loads(fit_path.read_text())["sigma_hat"] is None
        x_path = fit_path.parent / "x.csv"
        code = run(["predict", "--fit", fit_path, "--x", x_path, "--level", "0.95",
                    "--normalizer", normalizer])
        assert (code, *capsys.readouterr()) == (
            3, "", "error: degenerate: noise scale undefined: no residual degrees of "
                   "freedom (d_n >= n, or n - 1 in a centered fit)\n")
        # a point prediction needs no noise scale
        assert run(["predict", "--fit", fit_path, "--x", x_path]) == 0
        assert capsys.readouterr() == ("0.6337950138504155\n", "")

    def test_loader_refuses_a_stored_sigma_hat(self, fit_path, capsys):
        fit_path.write_text(json.dumps(dict(json.loads(fit_path.read_text()), sigma_hat=0.5)))
        code = run(["predict", "--fit", fit_path, "--x", fit_path.parent / "x.csv"])
        assert (code, *capsys.readouterr()) == (
            2, "", "error: validation: fit payload.sigma_hat must be null exactly when "
                   "d_n >= n, or n - 1 in a centered fit (n=3, d_n=2, centered=true)\n")


class TestFitFileErrors:
    """Unreadable, unwritable and inconsistent fit files exit 2 with one line."""

    @pytest.fixture
    def toy_fit(self, toy_inputs, tmp_path):
        curves, responses = toy_inputs
        out = tmp_path / "fit.json"
        assert run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1", "--no-center",
                    "--out", out]) == 0
        x_path = tmp_path / "x.csv"
        x_path.write_text("0.0,2.0\n2.0,0.0\n")
        return json.loads(out.read_text()), x_path

    def predict_with(self, payload, x_path, tmp_path):
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(payload))
        return run(["predict", "--fit", path, "--x", x_path])

    def test_missing_fit_file(self, tmp_path, capsys):
        x_path = tmp_path / "x.csv"
        x_path.write_text("0.0,1.0\n1.0,1.0\n")
        code = run(["predict", "--fit", tmp_path / "none.json", "--x", x_path])
        assert_validation_exit(code, capsys)

    def test_unwritable_fit_out(self, toy_inputs, tmp_path, capsys):
        curves, responses = toy_inputs
        code = run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1",
                    "--out", tmp_path / "no-such-dir" / "fit.json"])
        assert_validation_exit(code, capsys)

    def test_unwritable_report_out(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_coverage_config(replicates=1)))
        code = run(["simulate", "coverage", "--config", cfg_path,
                    "--out", tmp_path / "no-such-dir" / "r.json"])
        assert_validation_exit(code, capsys)

    def test_ragged_eigenvector_row(self, toy_fit, tmp_path, capsys):
        payload, x_path = toy_fit
        payload["eigenvectors"][1] = payload["eigenvectors"][1][:1]
        capsys.readouterr()
        assert_validation_exit(self.predict_with(payload, x_path, tmp_path), capsys)

    def test_non_integer_d_n(self, toy_fit, tmp_path, capsys):
        payload, x_path = toy_fit
        payload["d_n"] = "abc"
        capsys.readouterr()
        assert_validation_exit(self.predict_with(payload, x_path, tmp_path), capsys)

    def test_eigenvectors_not_d_n_by_p(self, toy_fit, tmp_path, capsys):
        payload, x_path = toy_fit
        assert payload["d_n"] == 2
        payload["eigenvectors"] = payload["eigenvectors"][:1]
        capsys.readouterr()
        assert_validation_exit(self.predict_with(payload, x_path, tmp_path), capsys)

    def test_s_hat_disagrees_with_spectrum(self, toy_fit, tmp_path, capsys):
        payload, x_path = toy_fit
        payload["s_hat"] = 123.0
        capsys.readouterr()
        assert_validation_exit(self.predict_with(payload, x_path, tmp_path), capsys)

    @pytest.fixture
    def dof_fit(self, toy_inputs, tmp_path):
        """The toy fit with a third curve, so that sigma_hat has a degree of freedom."""
        curves, responses = toy_inputs
        curves.write_text(TOY_CURVES + "1.0,1.0\n")
        responses.write_text(TOY_RESPONSES + "3.0\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1", "--no-center",
                    "--out", out]) == 0
        payload = json.loads(out.read_text())
        assert (payload["n"], payload["d_n"]) == (3, 2) and payload["sigma_hat"] > 0
        x_path = tmp_path / "x.csv"
        x_path.write_text("0.0,2.0\n2.0,0.0\n")
        return payload, x_path

    @pytest.mark.parametrize("edit", [
        {"n": 0},
        {"n": -3},
        {"sigma_hat": -1.0},
        # n = 3 > d_n = 2 needs a noise scale, n = 2 = d_n must not have one
        {"sigma_hat": None},
        {"n": 2},
    ], ids=["n=0", "n=-3", "negative-sigma", "null-sigma", "sigma-without-dof"])
    def test_out_of_range_fields(self, dof_fit, tmp_path, capsys, edit):
        payload, x_path = dof_fit
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(dict(payload, **edit)))
        capsys.readouterr()
        code = run(["predict", "--fit", path, "--x", x_path, "--level", "0.9"])
        assert_validation_exit(code, capsys)

    @pytest.mark.parametrize("n, line", [
        (1, "fit payload.n: need at least 2 observations to fit"),
        (2**63, "fit payload.n must be at most 2**63 - 1, got 9223372036854775808"),
    ], ids=["n=1", "n=2**63"])
    def test_sample_size_out_of_range_is_named(self, toy_fit, tmp_path, capsys, n, line):
        payload, x_path = toy_fit
        capsys.readouterr()
        code = self.predict_with(dict(payload, n=n), x_path, tmp_path)
        assert (code, *capsys.readouterr()) == (2, "", f"error: validation: {line}\n")

    @pytest.mark.parametrize("normalizer", ["s_hat", "t_hat"])
    def test_sigma_hat_too_large_for_a_finite_interval(self, dof_fit, tmp_path, capsys,
                                                       normalizer):
        # at level 0.9 the half widths are 2.28e308 (s_hat) and 2.64e308
        # (t_hat): beyond the float range in either order of the product
        payload, x_path = dof_fit
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(dict(payload, sigma_hat=1.7e308)))
        capsys.readouterr()
        code = run(["predict", "--fit", path, "--x", x_path, "--level", "0.9",
                    "--normalizer", normalizer])
        assert code == 2
        assert capsys.readouterr() == ("", "error: validation: interval half width overflows: "
                                           "sigma_hat times the pivot is too large\n")

    @pytest.mark.parametrize("normalizer, half", [("s_hat", 1.343e308), ("t_hat", 1.551e308)],
                             ids=["s_hat", "t_hat"])
    def test_finite_half_width_of_a_huge_sigma_hat(self, dof_fit, tmp_path, capsys,
                                                   normalizer, half):
        # q * sigma_hat * pivot overflows, yet the half width is finite
        payload, x_path = dof_fit
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(dict(payload, sigma_hat=1e308)))
        capsys.readouterr()
        code = run(["predict", "--fit", path, "--x", x_path, "--level", "0.9",
                    "--normalizer", normalizer])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        center, lo, hi = (float(v) for v in out.strip().split(","))
        assert np.isfinite([center, lo, hi]).all()
        assert (hi - center) == pytest.approx(half, rel=1e-3)
        assert (center - lo) == pytest.approx(half, rel=1e-3)

    @pytest.mark.parametrize("edit, key", [
        ({"bogus": 1}, "bogus"),
        ({"grid": [1, 2]}, "grid"),
        ({"grid": {"points": [0.0, 2.0], "weights": [1.0, 1.0], "step": 2.0}}, "step"),
        # a fit file no longer stores them: the loader derives them from the spectrum
        ({"filtered_values": [0.5, 2.0]}, "filtered_values"),
        # every array holds JSON numbers only; each of these used to load
        ({"eigenvalues": [2.0, "0.5"]}, "payload.eigenvalues must hold JSON numbers only"),
        ({"rho_hat": ["1.0", 1.0]}, "payload.rho_hat must hold JSON numbers only"),
        ({"eigenvectors": [[1.0, 0.0], [0.0, "1.0"]]},
         "payload.eigenvectors must hold JSON numbers only"),
        ({"grid": {"points": [0.0, 2.0], "weights": ["1.0", 1.0]}},
         "payload.grid.weights must hold JSON numbers only"),
        ({"grid": {"points": [0.0, "2.0"], "weights": [1.0, 1.0]}},
         "payload.grid.points must hold JSON numbers only"),
        ({"x_mean": [True, True]}, "payload.x_mean must hold JSON numbers only"),
        ({"rho_hat": [1.0, True]}, "payload.rho_hat must hold JSON numbers only"),
        # the toy fit is uncentered: predict reads neither mean, so both must be zero
        ({"x_mean": [5.0, 5.0]}, "payload.x_mean must be zero in an uncentered fit"),
        ({"x_mean": [0.0, -3.0]}, "payload.x_mean must be zero in an uncentered fit"),
        ({"y_mean": 7.0}, "payload.y_mean must be zero in an uncentered fit"),
        # a refusal of the filter names it by its dotted path, once
        ({"filter": {"kind": "generalized", "cn": 0.1, "alpha": 0.1, "p": HUGE_P,
                     "variant": "A"}},
         "fit payload.filter: generalized filter requires integer p in [1, 1.8e308]"),
        ({"n": HUGE_P}, "payload.n must be at most 2**63 - 1"),
        # a refusal of Grid, Curve or CurveMatrix names the key it was built from
        ({"rho_hat": [1.0]}, "fit payload.rho_hat: curve has 1 values but grid has 2 points"),
        ({"x_mean": [0.0]}, "fit payload.x_mean: curve has 1 values but grid has 2 points"),
        ({"grid": {"points": [2.0, 0.0], "weights": [1.0, 1.0]}},
         "fit payload.grid: grid points must be strictly increasing"),
        ({"grid": {"points": [0.0], "weights": [1.0]}},
         "fit payload.grid: a grid needs at least 2 points"),
        # JSON's Infinity reads as a float
        ({"eigenvectors": [[float("inf"), 0.0], [0.0, 1.0]]},
         "fit payload.eigenvectors: curve values must be finite"),
        ({"filter": {"kind": "bogus", "cn": 0.1}},
         "fit payload.filter: unknown filter kind 'bogus'"),
        ({"filter": {"kind": "truncation", "cn": 0.1, "extra": 1}},
         "fit payload.filter: unknown config keys ['extra']"),
        ({"filter": {"kind": "ridge", "cn": 0.1, "alpha": "x"}},
         "fit payload.filter.alpha must be a finite number, got 'x'"),
    ], ids=["unknown-key", "grid-not-an-object", "unknown-grid-key", "filtered-values",
            "string-eigenvalue", "string-rho", "string-eigenvector", "string-weight",
            "string-point", "boolean-x-mean", "boolean-rho", "uncentered-x-mean",
            "uncentered-one-x-mean-entry", "uncentered-y-mean", "huge-p", "huge-n",
            "short-rho", "short-x-mean", "decreasing-grid", "one-point-grid",
            "infinite-eigenvector-entry", "unknown-filter-kind", "unknown-filter-key",
            "string-filter-alpha"])
    def test_unknown_or_malformed_key_is_named(self, toy_fit, tmp_path, capsys, edit, key):
        payload, x_path = toy_fit
        capsys.readouterr()
        code = self.predict_with(dict(payload, **edit), x_path, tmp_path)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert len(err) == 1
        assert err[0].startswith("error: validation: ") and key in err[0]

    @pytest.mark.parametrize("part, key", [("eigenvectors", 0), ("grid", "weights")],
                             ids=["eigenvector-entry", "grid-weight"])
    def test_eigenvectors_not_orthonormal_under_the_weights(self, toy_fit, tmp_path, capsys,
                                                            part, key):
        # each edit used to load, and t_hat then read the edited vectors
        payload, x_path = toy_fit
        payload[part][key][0] = 3.0
        capsys.readouterr()
        code = self.predict_with(payload, x_path, tmp_path)
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: validation: fit payload.eigenvectors are not orthonormal under the grid "
            "weights"]

    def test_threshold_retaining_another_count_than_d_n(self, toy_fit, tmp_path, capsys):
        payload, x_path = toy_fit
        # the stored spectrum is (2, 0.5): cn = 1 retains one pair, not d_n = 2
        assert (payload["eigenvalues"], payload["d_n"]) == ([2.0, 0.5], 2)
        payload["filter"]["cn"] = 1.0
        capsys.readouterr()
        code = self.predict_with(payload, x_path, tmp_path)
        err = capsys.readouterr().err.splitlines()
        assert code == 2
        assert err == ["error: validation: stored eigenvalues retain 1 pairs at the "
                       "threshold, but d_n = 2"]

    @pytest.mark.parametrize("eigenvalues, line", [
        ([2.0], "validation: stored eigenvalues retain 1 pairs at the threshold, but d_n = 2"),
        ([0.05], "degenerate: threshold exceeds spectrum: no eigenvalue retained"),
    ], ids=["retained-at-the-threshold", "below-the-threshold"])
    def test_fewer_eigenvalues_than_eigenvector_rows(self, toy_fit, tmp_path, capsys,
                                                      eigenvalues, line):
        # the pairs the stored eigenvalues retain at cn = 0.1 are counted
        # against d_n, the number of eigenvector rows
        payload, x_path = toy_fit
        assert (len(payload["eigenvectors"]), payload["filter"]["cn"]) == (2, 0.1)
        payload["eigenvalues"] = eigenvalues
        capsys.readouterr()
        code = self.predict_with(payload, x_path, tmp_path)
        assert code == (2 if line.startswith("validation") else 3)
        assert capsys.readouterr().err.splitlines() == [f"error: {line}"]

    def test_unedited_payload_still_predicts(self, toy_fit, tmp_path, capsys):
        payload, x_path = toy_fit
        capsys.readouterr()
        assert self.predict_with(payload, x_path, tmp_path) == 0
        assert capsys.readouterr().out.strip() == "2.0"


class TestSimulateCommand:
    def test_noiseless_coverage_report(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_coverage_config(replicates=1)))
        out = tmp_path / "report.json"
        assert run(["simulate", "coverage", "--config", cfg_path, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["empirical_coverage"] == 1.0
        assert report["n_failed"] == 0
        rows_csv = tmp_path / "report.csv"
        assert rows_csv.exists()
        lines = rows_csv.read_text().strip().splitlines()
        assert len(lines) == 2  # header + one replicate

    def test_identical_runs_are_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_coverage_config(noise_sd=0.4,
                                                            replicates=6)))
        outs = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.json"
            assert run(["simulate", "coverage", "--config", cfg_path,
                        "--out", out]) == 0
            outs.append((out.read_bytes(), (tmp_path / f"{name}.csv").read_bytes()))
        assert outs[0] == outs[1]

    def test_threaded_run_matches_serial(self, tmp_path, monkeypatch):
        # pretend to have 4 cores so that a 1-core runner still uses the pool
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        pools = []
        real_pool = concurrent.futures.ThreadPoolExecutor

        def recording_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording_pool)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_coverage_config(noise_sd=0.4,
                                                            replicates=8)))
        serial = tmp_path / "serial.json"
        threaded = tmp_path / "threaded.json"
        assert run(["simulate", "coverage", "--config", cfg_path, "--out", serial]) == 0
        assert run(["simulate", "coverage", "--config", cfg_path, "--out", threaded,
                    "--threads", "4"]) == 0
        assert pools == [4]
        assert serial.read_bytes() == threaded.read_bytes()
        assert (tmp_path / "serial.csv").read_bytes() == (tmp_path / "threaded.csv").read_bytes()

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, threads):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_coverage_config(replicates=2)))
        code = run(["simulate", "coverage", "--config", cfg_path,
                    "--out", tmp_path / "r.json", "--threads", threads])
        assert_validation_exit(code, capsys)
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("command", [
        name for name, (keys, _, _) in simlab.EXPERIMENTS.items() if "replicates" not in keys
    ])
    def test_deterministic_commands_take_no_threads(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(["simulate", command, "--config", tmp_path / "cfg.json",
                 "--out", tmp_path / "r.json", "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(base_coverage_config(bogus=1)))
        assert run(["simulate", "coverage", "--config", cfg_path,
                    "--out", tmp_path / "r.json"]) == 2

    def test_missing_config_key_exits_2(self, tmp_path):
        cfg = base_coverage_config()
        del cfg["level"]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run(["simulate", "coverage", "--config", cfg_path,
                    "--out", tmp_path / "r.json"]) == 2

    def test_all_replicates_failing_exits_4(self, tmp_path):
        # cn lies below both empirical eigenvalues of the two-curve sample,
        # so d_n == n == 2 saturates the fit and no replicate has residual
        # degrees of freedom left for sigma_hat
        cfg = base_coverage_config(n=2, replicates=4, noise_sd=0.3,
                                   filter={"kind": "truncation", "cn": 1e-8})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        assert run(["simulate", "coverage", "--config", cfg_path, "--out", out]) == 4
        report = json.loads(out.read_text())
        assert report["n_failed"] == 4
        with open(tmp_path / "r.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        for row in rows:
            assert row["failed"] == "1"
            assert "no residual degrees of freedom" in row["error"]

    def test_fixed_x_runs_and_reports_precondition(self, tmp_path):
        cfg = base_coverage_config(noise_sd=0.3, replicates=4)
        cfg["x"] = {"kind": "basis", "index": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        assert run(["simulate", "fixed-x", "--config", cfg_path, "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["x_rkhs_sup"] == pytest.approx(2.0)  # 1/lambda_1
        # L = 2, whose last index never enters k_n: t_n_x = 1/sqrt(lambda_1) at x = e_1
        assert report["population"]["k_n"] == 1
        assert report["population"]["t_n_x"] == pytest.approx(np.sqrt(2.0), rel=1e-12)

    def test_zero_fixed_x_exits_3_without_a_report(self, tmp_path, capsys):
        cfg = base_coverage_config(noise_sd=0.3, x={"kind": "coeffs", "values": [0.0, 0.0]})
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        assert run(["simulate", "fixed-x", "--config", cfg_path, "--out", out]) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: degenerate: ")
        assert not out.exists() and not (tmp_path / "r.csv").exists()

    def test_norm_divergence_roundtrip(self, tmp_path):
        cfg = {
            "decay": {"kind": "power", "a": 1.0},
            "rho": {"kind": "power", "exponent": 3.0, "normalize": True},
            "noise_sd": 0.5,
            "L": 30,
            "grid_points": 61,
            "filter": {"kind": "truncation"},
            "n_grid": [60, 120],
            "cn_rule": {"kind": "rank-power", "exponent": 0.3333333333333333},
            "replicates": 5,
            "seed": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        assert run(["simulate", "norm-divergence", "--config", cfg_path,
                    "--out", out]) == 0
        report = json.loads(out.read_text())
        assert len(report["rows"]) == 2
        assert (tmp_path / "r.csv").exists()

    def test_condition_u_rows(self, tmp_path):
        cfg = {
            "decay": {"kind": "power", "a": 1.0},
            "rho": {"kind": "finite", "coeffs": [1.0, 0.5, 0.25]},
            "L": 10,
            "grid_points": 21,
            "filter": {"kind": "truncation"},
            "k_grid": [1, 3],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "pop.json"
        assert run(["simulate", "population", "--config", cfg_path,
                    "--out", out]) == 0
        report = json.loads(out.read_text())
        assert list(report) == ["partial_sums", "last_decade_fraction", "convergent", "rows"]
        assert report["convergent"]
        assert report["partial_sums"][-1] == pytest.approx(1.3125)
        assert [row["k"] for row in report["rows"]] == [1, 3]
        assert len((tmp_path / "pop.csv").read_text().strip().splitlines()) == 3


NORM_DIVERGENCE_CONFIG = {
    "decay": {"kind": "power", "a": 1.0},
    "rho": {"kind": "power", "exponent": 3.0, "normalize": True},
    "L": 10,
    "grid_points": 21,
    "filter": {"kind": "truncation"},
    "n_grid": [20, 40],
    "cn_rule": {"kind": "rank-power", "exponent": 0.3},
    "replicates": 2,
    "seed": 3,
}
NORM_DIVERGENCE_FIXED_CONFIG = dict(NORM_DIVERGENCE_CONFIG,
                                    cn_rule={"kind": "fixed", "value": 0.05})
POPULATION_CONFIG = {
    "decay": {"kind": "power", "a": 1.0},
    "rho": {"kind": "finite", "coeffs": [1.0, 0.5]},
    "L": 10,
    "grid_points": 21,
    "filter": {"kind": "truncation"},
    "k_grid": [1, 3, 5],
}
POPULATION_X_CONFIG = dict(POPULATION_CONFIG, x={"kind": "basis", "index": 2})
COVERAGE_CONFIG = base_coverage_config()
FIXED_X_CONFIG = base_coverage_config(x={"kind": "basis", "index": 1})

# (command, base config, key, malformed value); each base config runs
# cleanly as it is
MALFORMED_CONFIGS = [
    ("coverage", COVERAGE_CONFIG, "n", "abc"),
    ("coverage", COVERAGE_CONFIG, "replicates", 2.7),
    ("coverage", COVERAGE_CONFIG, "level", "high"),
    ("coverage", COVERAGE_CONFIG, "L", 2.5),
    ("coverage", COVERAGE_CONFIG, "grid_points", "many"),
    ("coverage", COVERAGE_CONFIG, "noise_sd", [0.1]),
    ("coverage", COVERAGE_CONFIG, "rho", {"kind": "finite", "coeffs": 5}),
    ("coverage", COVERAGE_CONFIG, "rho", {"kind": "finite", "coeffs": [1.0], "normalize": "no"}),
    ("coverage", COVERAGE_CONFIG, "rho", {"kind": "power", "exponent": "steep"}),
    ("coverage", COVERAGE_CONFIG, "decay", {"kind": "geometric", "r": "half"}),
    ("coverage", COVERAGE_CONFIG, "decay", {"kind": ["power"], "a": 1.0}),
    ("coverage", COVERAGE_CONFIG, "filter", {"kind": "ridge", "cn": 0.05, "alpha": "big"}),
    ("fixed-x", FIXED_X_CONFIG, "x", {"kind": "power", "beta": "two"}),
    ("fixed-x", FIXED_X_CONFIG, "x", {"kind": "basis", "index": "one"}),
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, "cn_rule",
     {"kind": "rank-power", "exponent": "third"}),
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, "cn_rule", {"kind": "fixed"}),
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, "n_grid", ["a", "b"]),
    ("population", POPULATION_X_CONFIG, "x", {"kind": "power", "beta": "two"}),
    ("population", POPULATION_X_CONFIG, "x", {"kind": "power"}),
    ("population", POPULATION_CONFIG, "k_grid", "ten"),
    ("coverage", COVERAGE_CONFIG, "level", 1.5),
    ("fixed-x", FIXED_X_CONFIG, "level", 1.5),
    ("fixed-x", FIXED_X_CONFIG, "level", 0),
    # the threshold rule sets cn per n, so a cn in the filter is refused
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, "filter", {"kind": "truncation", "cn": 123.0}),
    # without its values a coeffs x would be the zero predictor
    ("fixed-x", FIXED_X_CONFIG, "x", {"kind": "coeffs"}),
    ("fixed-x", FIXED_X_CONFIG, "x", {"kind": "coeffs", "values": []}),
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, "n_grid", []),
    # a coefficient rule has no scale
    ("coverage", COVERAGE_CONFIG, "rho", {"kind": "power", "exponent": 2.0, "scale": 2.0}),
    # every rank k needs 1 <= k < L, as its cn sits between lam_k and lam_{k+1}
    ("population", POPULATION_CONFIG, "k_grid", []),
    ("population", POPULATION_CONFIG, "k_grid", ["a"]),
    ("population", POPULATION_CONFIG, "k_grid", [0]),
    ("population", POPULATION_CONFIG, "k_grid", [POPULATION_CONFIG["L"]]),
    # each rank sets cn, so a cn in the filter is refused
    ("population", POPULATION_CONFIG, "filter", {"kind": "truncation", "cn": 0.1}),
    ("fixed-x", FIXED_X_CONFIG, "filter",
     {"kind": "generalized", "cn": 0.05, "alpha": 0.1, "p": HUGE_P, "variant": "A"}),
    # a sample of fewer than 2 curves cannot be fitted, so the lab refuses it
    # before the first replicate, under either threshold rule
    ("norm-divergence", NORM_DIVERGENCE_FIXED_CONFIG, "n_grid", [-2, 5]),
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, "n_grid", [0, 5]),
    # COVERAGE_CONFIG has L = 2, and a coefficient beyond L is refused, not cut
    ("coverage", COVERAGE_CONFIG, "rho", {"kind": "finite", "coeffs": [1.0, 0.4, 0.2]}),
    # sizes whose first array is beyond the 2**47-byte user address space, so
    # numpy refuses each before it touches a page
    ("population", POPULATION_CONFIG, "grid_points", 10**15),
    ("population", POPULATION_CONFIG, "grid_points", 10**30),
    ("fixed-x", FIXED_X_CONFIG, "n", 10**14),
    ("fixed-x", FIXED_X_CONFIG, "n", 10**30),
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, "n_grid", [20, 10**14]),
    # one curve per sample, which every replicate's fit would refuse
    ("coverage", COVERAGE_CONFIG, "n", 1),
    ("fixed-x", FIXED_X_CONFIG, "n", 1),
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, "n_grid", [1, 40]),
]
# The first 35 ids are the ones these cases had when ids were built from their
# index, kept so that no test id moves; each later case is named by its content.
MALFORMED_CONFIG_IDS = [
    "coverage-n-0", "coverage-replicates-1", "coverage-level-2", "coverage-L-3",
    "coverage-grid_points-4", "coverage-noise_sd-5", "coverage-rho-6", "coverage-rho-7",
    "coverage-rho-8", "coverage-decay-9", "coverage-decay-10", "coverage-filter-11",
    "fixed-x-x-12", "fixed-x-x-13", "norm-divergence-cn_rule-14", "norm-divergence-cn_rule-15",
    "norm-divergence-n_grid-16", "population-x-17", "population-x-18", "population-k_grid-19",
    "coverage-level-20", "fixed-x-level-21", "fixed-x-level-22", "norm-divergence-filter-23",
    "fixed-x-x-24", "fixed-x-x-25", "norm-divergence-n_grid-26", "coverage-rho-27",
    "population-k_grid-28", "population-k_grid-29", "population-k_grid-30",
    "population-k_grid-31", "population-filter-32", "fixed-x-filter-33",
    "norm-divergence-n_grid-34",
    "norm-divergence-rank-power-n_grid-below-1", "coverage-rho-longer-than-L",
    "population-grid_points-1e15", "population-grid_points-1e30", "fixed-x-n-1e14",
    "fixed-x-n-1e30", "norm-divergence-n_grid-1e14", "coverage-n-1", "fixed-x-n-1",
    "norm-divergence-n_grid-1",
]

COVERAGE_HEADER = "replicate,failed,hit,center,half_width,std_error,bias,d_n,error"
FIXED_X_HEADER = "replicate,failed,hit,center,half_width,std_error,bias,d_n,t_hat,error"
# an all-failed run: cn below both eigenvalues of a two-curve sample leaves
# no residual degrees of freedom (see test_all_replicates_failing_exits_4)
SATURATED = dict(n=2, replicates=2, noise_sd=0.3, filter={"kind": "truncation", "cn": 1e-8})

# (command, config, exit code, literal header line of the rows CSV)
ROWS_CSV_HEADERS = [
    ("coverage", COVERAGE_CONFIG, 0, COVERAGE_HEADER),
    ("coverage", base_coverage_config(**SATURATED), 4, COVERAGE_HEADER),
    ("fixed-x", FIXED_X_CONFIG, 0, FIXED_X_HEADER),
    ("fixed-x", dict(FIXED_X_CONFIG, **SATURATED), 4, FIXED_X_HEADER),
    ("norm-divergence", NORM_DIVERGENCE_CONFIG, 0,
     "n,cn,mean_norm_error,mean_normalized,mean_d_n,n_failed"),
    ("population", POPULATION_CONFIG, 0,
     "k,cn,k_n,s_n,tail_bias,h3_sup,first_pairwise_violation,first_tail_violation"),
    ("population", POPULATION_X_CONFIG, 0,
     "k,cn,k_n,s_n,t_n_x,tail_bias,h3_sup,first_pairwise_violation,first_tail_violation"),
    # a threshold above the whole spectrum fails every replicate at every n
    ("norm-divergence", dict(NORM_DIVERGENCE_CONFIG, n_grid=[2, 3],
                             cn_rule={"kind": "fixed", "value": 50.0}), 4,
     "n,cn,mean_norm_error,mean_normalized,mean_d_n,n_failed"),
]


@pytest.mark.parametrize("command, cfg, code, header", ROWS_CSV_HEADERS)
def test_rows_csv_header_is_pinned(tmp_path, command, cfg, code, header):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert run(["simulate", command, "--config", cfg_path, "--out", out]) == code
    with open(tmp_path / "r.csv", newline="") as fh:
        assert fh.readline() == header + "\r\n"


@pytest.mark.parametrize(
    "command, cfg", [(command, cfg) for command, cfg, code, _ in ROWS_CSV_HEADERS if code == 4]
)
def test_all_failed_run_prints_one_error_line(tmp_path, capsys, command, cfg):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert run(["simulate", command, "--config", cfg_path, "--out", out]) == 4
    replicates = json.loads(out.read_text())["replicates"]
    # norm-divergence fits its replicates at each n of its grid
    attempted = replicates * len(cfg["n_grid"]) if command == "norm-divergence" else replicates
    assert capsys.readouterr().err.splitlines() == [
        f"error: all-replicates-failed: all {attempted} replicates failed; see {out}"
    ]


REPORT_KEYS = ["nominal_level", "n", "replicates", "empirical_coverage", "mean_half_width",
               "ks_statistic", "bias_summary", "seed", "n_failed"]
POPULATION_KEYS = ["k_n", "s_n", "tail_bias", "h3_sup", "first_pairwise_violation",
                   "first_tail_violation"]

# (command, config, top-level keys of the report JSON, keys of its population block)
REPORT_SCHEMAS = [
    ("coverage", COVERAGE_CONFIG, REPORT_KEYS + ["population"], POPULATION_KEYS),
    ("fixed-x", FIXED_X_CONFIG, REPORT_KEYS + ["x_rkhs_sup", "population"],
     POPULATION_KEYS[:2] + ["t_n_x"] + POPULATION_KEYS[2:]),
]


@pytest.mark.parametrize("command, cfg, keys, population_keys", REPORT_SCHEMAS)
def test_report_key_order_is_pinned(tmp_path, command, cfg, keys, population_keys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert run(["simulate", command, "--config", cfg_path, "--out", out]) == 0
    report = json.loads(out.read_text())
    assert list(report) == keys
    assert list(report["population"]) == population_keys


class TestArgumentErrors:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "--curves", "c", "--responses", "r", "--filter", "ridge",
              "--cn", "abc", "--out", "o"], "argument --cn: invalid float value: 'abc'"),
            (["simulate", "coverage", "--config", "c", "--out", "o", "--threads", "two"],
             "argument --threads: invalid int value: 'two'"),
            (["predict", "--fit", "f", "--x", "x", "--normalizer", "z_hat"],
             "argument --normalizer: invalid choice: 'z_hat'"),
            (["predict", "--fit", "f"], "the following arguments are required: --x"),
            # the population report replaced these two experiments
            (["simulate", "variance-bound", "--config", "c", "--out", "o"],
             "argument experiment: invalid choice: 'variance-bound'"),
            (["simulate", "condition-u", "--config", "c", "--out", "o"],
             "argument experiment: invalid choice: 'condition-u'"),
        ],
    )
    def test_argument_errors_are_one_validation_line(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: validation: {message}")

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["fit", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: funreg fit")


class TestMalformedConfigs:
    @pytest.mark.parametrize("command,base,key,bad", MALFORMED_CONFIGS, ids=MALFORMED_CONFIG_IDS)
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, base, key, bad):
        cfg = dict(base)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "r.json"
        assert run(["simulate", command, "--config", cfg_path, "--out", out]) == 0
        capsys.readouterr()
        cfg[key] = bad
        cfg_path.write_text(json.dumps(cfg))
        assert_validation_exit(run(["simulate", command, "--config", cfg_path,
                                    "--out", out]), capsys)


def _refuse_constant(name):
    raise AssertionError(f"report holds the non-JSON constant {name}")


def _scaled_curves(scale):
    """THREE_POINT_CURVES with every curve value times ``scale``."""
    grid, *rows = THREE_POINT_CURVES.splitlines()
    return "\n".join([grid] + [",".join(repr(float(v) * scale) for v in row.split(","))
                                for row in rows]) + "\n"


# a fixed x, and a predictor on the three-point grid, whose coordinates are
# finite but whose squares are not
HUGE_X = {"kind": "coeffs", "values": [1e200, 0.0]}
HUGE_X_CSV = "0.0,0.5,1.0\n1e200,1e200,1e200\n"
RIDGE_FIT = ["fit", "--curves", "c.csv", "--responses", "y.csv", "--filter", "ridge",
             "--cn", "0.01", "--alpha", "0.1", "--out", "fit.json"]
# RIDGE_FIT's rho_hat values lie below 1 in size, so no finite predictor
# overflows <rho_hat, x>; against responses 1000 times larger rho_hat is 1000
# times larger, and the predictor 1.5e308 overflows it
STEEP_FIT = ["fit", "--curves", "c.csv", "--responses", "steep_y.csv", "--filter", "ridge",
             "--cn", "0.01", "--alpha", "0.1", "--out", "steep.json"]
STEEP_X_CSV = "0.0,0.5,1.0\n-1.5e308,-1.5e308,1.5e308\n"


# (argv after the input files are written, exit code); each input overflows a
# float somewhere, or underflows s_hat, and only the cn_rule one is a valid config
OVERFLOW_CASES = [
    (["fit", "--curves", "c.csv", "--responses", "big_y.csv", "--filter", "ridge",
      "--cn", "0.01", "--alpha", "0.1", "--out", "out.json"], 2),
    (["fit", "--curves", "big_c.csv", "--responses", "y.csv", "--filter", "ridge",
      "--cn", "0.01", "--alpha", "0.1", "--out", "out.json"], 2),
    # every gain of 1e-160 curves is below 1.5e-154, so s_hat = sqrt(sum g^2)
    # underflows to zero and would give zero-width intervals
    (["fit", "--curves", "tiny_c.csv", "--responses", "y.csv", "--filter", "ridge",
      "--cn", "0", "--alpha", "0.1", "--out", "out.json"], 2),
    (["fit", "--curves", "tiny_c.csv", "--responses", "y.csv", "--filter", "tikhonov",
      "--cn", "0", "--alpha", "0.1", "--out", "out.json"], 2),
    # grid points whose span, and so every weight, overflows
    (["fit", "--curves", "wide_c.csv", "--responses", "y.csv", "--filter", "ridge",
      "--cn", "0.01", "--alpha", "0.1", "--out", "out.json"], 2),
    (["simulate", "population", "--config",
      dict(POPULATION_CONFIG, rho={"kind": "finite", "coeffs": [1e308, 1e308]}),
      "--out", "out.json"], 2),
    (["simulate", "norm-divergence", "--config",
      dict(NORM_DIVERGENCE_CONFIG, cn_rule={"kind": "rank-power", "exponent": 1e308}),
      "--out", "out.json"], 0),
    (["simulate", "coverage", "--config", base_coverage_config(noise_sd=1e308),
      "--out", "out.json"], 2),
    (["simulate", "fixed-x", "--config",
      base_coverage_config(noise_sd=0.1, x={"kind": "power", "beta": -1e308}),
      "--out", "out.json"], 2),
    # a finite predictor whose squared coordinates overflow
    (["predict", "--fit", "fit.json", "--x", "big_x.csv", "--level", "0.9",
      "--normalizer", "t_hat"], 2),
    # a predictor whose point prediction overflows, with no interval and on either pivot
    (["predict", "--fit", "steep.json", "--x", "steep_x.csv"], 2),
    (["predict", "--fit", "steep.json", "--x", "steep_x.csv", "--level", "0.9"], 2),
    (["predict", "--fit", "steep.json", "--x", "steep_x.csv", "--level", "0.9",
      "--normalizer", "t_hat"], 2),
    (["simulate", "fixed-x", "--config",
      {"decay": {"kind": "power", "a": 1.0}, "rho": {"kind": "finite", "coeffs": [1.0, 0.5]},
       "noise_sd": 0.3, "L": 4, "grid_points": 21, "filter": {"kind": "truncation", "cn": 0.2},
       "x": HUGE_X, "n": 30, "level": 0.9, "replicates": 3, "seed": 1},
      "--out", "out.json"], 2),
    (["simulate", "population", "--config",
      dict(POPULATION_CONFIG, L=4, filter={"kind": "ridge", "alpha": 0.01}, k_grid=[1, 2],
           x=HUGE_X),
      "--out", "out.json"], 2),
]


@pytest.mark.parametrize("argv, code", OVERFLOW_CASES, ids=[
    "fit-huge-responses", "fit-huge-curves", "fit-ridge-tiny-curves", "fit-tikhonov-tiny-curves",
    "fit-huge-grid-span", "population-huge-rho",
    "norm-divergence-huge-cn-exponent", "coverage-huge-noise", "fixed-x-huge-power-x",
    "predict-t_hat-huge-x", "predict-point-overflows", "predict-s_hat-point-overflows",
    "predict-t_hat-point-overflows", "fixed-x-huge-x", "population-huge-x"])
def test_overflow_ends_in_one_error_line_or_a_finite_report(tmp_path, capsys, monkeypatch,
                                                            argv, code):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text(THREE_POINT_CURVES)
    (tmp_path / "big_c.csv").write_text(_scaled_curves(1e200))
    (tmp_path / "tiny_c.csv").write_text(_scaled_curves(1e-160))
    (tmp_path / "wide_c.csv").write_text("-1.7e308,1.7e308\n1,2\n3,4\n5,6\n7,8\n")
    (tmp_path / "big_x.csv").write_text(HUGE_X_CSV)
    (tmp_path / "y.csv").write_text("1 2 3 4\n")
    (tmp_path / "big_y.csv").write_text("1e300 2e300 -3e300 4e300\n")
    (tmp_path / "steep_y.csv").write_text("1e3 2e3 3e3 4e3\n")
    (tmp_path / "steep_x.csv").write_text(STEEP_X_CSV)
    if argv[0] == "predict":
        assert run(RIDGE_FIT) == 0
        assert run(STEEP_FIT) == 0
        capsys.readouterr()
    argv = list(argv)
    if "--config" in argv:
        at = argv.index("--config") + 1
        (tmp_path / "cfg.json").write_text(json.dumps(argv[at]))
        argv[at] = "cfg.json"
    # a numpy warning would reach stderr beside the error line; make it fail here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(argv) == code
    err = capsys.readouterr().err.splitlines()
    out = tmp_path / "out.json"
    if code:
        assert len(err) == 1 and err[0].startswith("error: validation: ")
        assert not out.exists()
        if "steep.json" in argv:
            assert err[0] == ("error: validation: point prediction overflows: "
                              "the predictor x is too large")
    else:
        assert err == []
        json.loads(out.read_text(), parse_constant=_refuse_constant)


@pytest.mark.parametrize("interval", [[], ["--level", "0.9"]], ids=["point", "s_hat"])
def test_huge_predictor_keeps_a_finite_point_and_s_hat_output(tmp_path, capsys, monkeypatch,
                                                              interval):
    # only t_hat squares the coordinates of x, so only it refuses a 1e200 curve
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text(THREE_POINT_CURVES)
    (tmp_path / "y.csv").write_text("1 2 3 4\n")
    (tmp_path / "big_x.csv").write_text(HUGE_X_CSV)
    assert run(RIDGE_FIT) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["predict", "--fit", "fit.json", "--x", "big_x.csv", *interval]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    values = [float(v) for v in captured.out.strip().split(",")]
    assert len(values) == 1 + 2 * bool(interval) and np.all(np.isfinite(values))


# (argv, input files beside c.csv and y.csv, the message of the one error line):
# each check has one owner (Grid, CurveMatrix, fit, norm_divergence_demo,
# CoeffRule), and a file reader adds only the file's name to its message
FIT_ARGS = ["--filter", "ridge", "--cn", "0.01", "--alpha", "0.1", "--out", "out.json"]
NAN_CURVE = "0.0,0.5,1.0\n1.0,nan,-0.3\n"
REFUSAL_LINES = [
    (["fit", "--curves", "c.csv", "--responses", "y3.csv", *FIT_ARGS], {"y3.csv": "1 2 3\n"},
     "got 3 responses for 4 curves"),
    (["fit", "--curves", "g.csv", "--responses", "y.csv", *FIT_ARGS],
     {"g.csv": "0.0\n1.0\n2.0\n"}, "g.csv: a grid needs at least 2 points"),
    (["fit", "--curves", "g.csv", "--responses", "y.csv", *FIT_ARGS],
     {"g.csv": "1.0,0.5,0.0\n1.0,0.2,-0.3\n"}, "g.csv: grid points must be strictly increasing"),
    (["fit", "--curves", "g.csv", "--responses", "y.csv", *FIT_ARGS],
     {"g.csv": "0.0,0.5,inf\n1.0,0.2,-0.3\n"}, "g.csv: grid points and weights must be finite"),
    (["fit", "--curves", "nan.csv", "--responses", "y.csv", *FIT_ARGS],
     {"nan.csv": NAN_CURVE}, "nan.csv: curve values must be finite"),
    (["predict", "--fit", "fit.json", "--x", "x.csv"], {"x.csv": NAN_CURVE},
     "x.csv: curve values must be finite"),
    (["simulate", "norm-divergence", "--config", "cfg.json", "--out", "out.json"],
     {"cfg.json": dict(NORM_DIVERGENCE_CONFIG, n_grid=[])},
     "n_grid must be strictly increasing with >= 2 entries"),
    (["simulate", "norm-divergence", "--config", "cfg.json", "--out", "out.json"],
     {"cfg.json": dict(NORM_DIVERGENCE_CONFIG, n_grid=[0, 5])},
     "need at least 2 observations to fit"),
    (["simulate", "norm-divergence", "--config", "cfg.json", "--out", "out.json"],
     {"cfg.json": dict(NORM_DIVERGENCE_FIXED_CONFIG, n_grid=[0, 5])},
     "need at least 2 observations to fit"),
    (["simulate", "population", "--config", "cfg.json", "--out", "out.json"],
     {"cfg.json": dict(POPULATION_CONFIG, L=2, k_grid=[1],
                       rho={"kind": "finite", "coeffs": [1.0, 0.5, 0.25, 7.0]})},
     "rho: at most L=2 coefficients supported, got 4"),
    # a grid_points fault reads as the CSV grid row above, without a file name
    *[(["simulate", "population", "--config", "cfg.json", "--out", "out.json"],
       {"cfg.json": dict(POPULATION_CONFIG, grid_points=points)}, "a grid needs at least 2 points")
      for points in (1, 0, -3)],
    # a refusal of the filter names it once
    (["simulate", "coverage", "--config", "cfg.json", "--out", "out.json"],
     {"cfg.json": dict(COVERAGE_CONFIG, filter={"kind": "ridge", "cn": 0.05})},
     "filter: ridge requires alpha > 0"),
    (["simulate", "coverage", "--config", "cfg.json", "--out", "out.json"],
     {"cfg.json": dict(COVERAGE_CONFIG, filter={"kind": "bogus", "cn": 0.05})},
     "filter: unknown filter kind 'bogus'"),
    (["simulate", "coverage", "--config", "cfg.json", "--out", "out.json"],
     {"cfg.json": dict(COVERAGE_CONFIG, filter={"kind": "ridge", "cn": 0.05, "alpha": "x"})},
     "filter.alpha must be a finite number, got 'x'"),
]


@pytest.mark.parametrize("argv, files, message", REFUSAL_LINES, ids=[
    "fit-3-responses-for-4-curves", "csv-one-point-grid", "csv-decreasing-grid",
    "csv-infinite-grid-point", "csv-nan-curve", "predict-nan-x", "norm-divergence-empty-n_grid",
    "norm-divergence-rank-power-n_grid-0", "norm-divergence-fixed-n_grid-0",
    "population-rho-longer-than-L", "grid_points-1", "grid_points-0", "grid_points-negative",
    "ridge-without-alpha", "unknown-filter-kind", "string-filter-alpha"])
def test_refusal_is_one_line_from_the_check_owner(tmp_path, capsys, monkeypatch, argv, files,
                                                  message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c.csv").write_text(THREE_POINT_CURVES)
    (tmp_path / "y.csv").write_text("1 2 3 4\n")
    for name, content in files.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    if argv[0] == "predict":
        assert run(RIDGE_FIT) == 0
        capsys.readouterr()
    # a numpy warning would reach stderr beside the error line; make it fail here
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.splitlines() == [f"error: validation: {message}"]
    assert captured.out == ""
    assert not (tmp_path / "out.json").exists() and not (tmp_path / "out.csv").exists()


class TestEmptyCurveFile:
    def test_empty_predictor_file_prints_one_line(self, tmp_path, capsys):
        curves, responses = tmp_path / "c.csv", tmp_path / "y.csv"
        curves.write_text(TOY_CURVES)
        responses.write_text(TOY_RESPONSES)
        fit_path = tmp_path / "fit.json"
        assert run(["fit", "--curves", curves, "--responses", responses,
                    "--filter", "truncation", "--cn", "0.1", "--no-center",
                    "--out", fit_path]) == 0
        capsys.readouterr()
        empty = tmp_path / "x.csv"
        empty.write_text("")
        # a warning would reach stderr beside the error line; make it fail here
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(["predict", "--fit", fit_path, "--x", empty])
        assert_validation_exit(code, capsys)


class TestFitPredictRoundTrip:
    def test_cli_round_trip_matches_library(self, tmp_path, capsys):
        from funreg.estimator import fit as fit_fn, predict as predict_fn
        from funreg.filters import FilterSpec
        from funreg.hilbert import load_curves_csv, save_curves_csv, Curve, make_trapezoid_grid

        g = make_trapezoid_grid(0.0, 1.0, 9)
        rng = np.random.default_rng(17)
        sample = [Curve(g, rng.standard_normal(9)) for _ in range(14)]
        y = rng.standard_normal(14)
        curves_path = tmp_path / "c.csv"
        save_curves_csv(curves_path, sample)
        resp_path = tmp_path / "y.csv"
        resp_path.write_text("\n".join(repr(float(v)) for v in y) + "\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--curves", curves_path, "--responses", resp_path,
                    "--filter", "ridge", "--alpha", "0.05", "--cn", "0.001",
                    "--no-center", "--out", out]) == 0
        capsys.readouterr()

        x_path = tmp_path / "x.csv"
        save_curves_csv(x_path, [sample[3]])
        assert run(["predict", "--fit", out, "--x", x_path]) == 0
        printed = float(capsys.readouterr().out.strip())

        loaded = load_curves_csv(curves_path)
        ft = fit_fn(loaded, y, FilterSpec("ridge", 0.001, alpha=0.05), center=False)
        assert printed == pytest.approx(predict_fn(ft, loaded[3]), abs=1e-12)


class TestOneParserPerProcess:
    """``main`` parses with one cached parser; no call's defaults or state
    reach the next."""

    @pytest.fixture
    def calls(self, tmp_path):
        from funreg.hilbert import Curve, make_trapezoid_grid, save_curves_csv

        g = make_trapezoid_grid(0.0, 1.0, 9)
        rng = np.random.default_rng(5)
        save_curves_csv(tmp_path / "c.csv", [Curve(g, rng.standard_normal(9)) for _ in range(14)])
        (tmp_path / "y.csv").write_text("\n".join(repr(float(v)) for v in rng.standard_normal(14)))
        save_curves_csv(tmp_path / "x.csv", [Curve(g, rng.standard_normal(9))])
        data = ["--curves", tmp_path / "c.csv", "--responses", tmp_path / "y.csv",
                "--filter", "ridge", "--alpha", "0.05", "--cn", "0.001"]
        on_fit = ["--fit", tmp_path / "centered.json", "--x", tmp_path / "x.csv"]
        first_predict = ["predict", *on_fit, "--level", "0.9", "--normalizer", "t_hat"]
        return [
            ["fit", *data, "--out", tmp_path / "centered.json"],
            ["fit", *data, "--no-center", "--out", tmp_path / "uncentered.json"],
            first_predict,
            ["predict", "--fit", tmp_path / "uncentered.json", "--x", tmp_path / "x.csv"],
            ["predict", *on_fit, "--level", "0.9", "--normalizer", "z_hat"],
            ["fit", "--help"],
            first_predict,
        ]

    @staticmethod
    def outcome(argv, capsys):
        """(exit code, stdout, stderr) of one call, usage exits included."""
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_the_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_no_call_leaks_into_the_next(self, calls, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        # both fit files exist before the first predict in either order,
        # and each fit rewrites its file with the same bytes
        for argv in calls[:2]:
            assert run(argv) == 0
        capsys.readouterr()
        forward = [self.outcome(argv, capsys) for argv in calls]
        backward = [self.outcome(argv, capsys) for argv in reversed(calls)][::-1]
        assert forward == backward
        assert [code for code, _, _ in forward] == [0, 0, 0, 0, 2, 0, 0]
        assert forward[0][1].startswith("d_n=")
        assert forward[0][1] != forward[1][1]
        assert len(forward[2][1].split(",")) == 3
        assert len(forward[3][1].split(",")) == 1
        err = forward[4][2].splitlines()
        assert len(err) == 1 and err[0].startswith("error: validation: argument --normalizer")
        assert forward[5][1].startswith("usage: funreg fit")
        assert forward[6] == forward[2]
        # a parser built afresh for each call gives the same outcomes
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(self.outcome(argv, capsys))
        assert fresh == forward

    def test_help_reads_the_terminal_width_when_asked(self, capsys, monkeypatch):
        cli.build_parser()
        widths = []
        for columns in ("200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = self.outcome(["fit", "--help"], capsys)
            assert code == 0
            widths.append(max(len(line) for line in out.splitlines()))
        assert widths[1] < widths[0]


# ---------------------------------------------------------------------------
# malformed input files

# Every input file the CLI reads, named by its option; a --config file is
# named by its experiment.
INPUT_FILES = ["curves", "responses", "x", "fit",
               *(f"config-{kind}" for kind in simlab.EXPERIMENTS)]

# Every byte but an ASCII digit. Inserted or put in place of a byte, it
# cannot lengthen a run of digits, and a deletion that would join two runs
# deletes nothing; so no count in a file (n, replicates, grid_points, a
# row's length) can grow, and no mutated run takes longer than the valid one.
DIGITS = b"0123456789"
NON_DIGITS = [b for b in range(256) if b not in DIGITS]

EDITS = st.lists(
    st.tuples(st.sampled_from(["delete", "insert", "replace"]), st.integers(0, 2**16),
              st.sampled_from(NON_DIGITS)),
    min_size=1, max_size=4,
)


def mutate(data: bytes, edits) -> bytes:
    """``data`` after each (operation, position, byte) edit in turn; the
    position is taken modulo the length of the data at that edit."""
    buf = bytearray(data)
    for op, pos, byte in edits:
        if op == "insert":
            buf.insert(pos % (len(buf) + 1), byte)
            continue
        i = pos % len(buf)
        if op == "replace":
            buf[i] = byte
        elif not (buf[i] not in DIGITS and 0 < i < len(buf) - 1
                  and buf[i - 1] in DIGITS and buf[i + 1] in DIGITS):
            del buf[i]
    return bytes(buf)


def test_mutate_never_lengthens_a_run_of_digits():
    assert mutate(b"12,34", [("delete", 2, 0)]) == b"12,34"
    assert mutate(b"12,34", [("delete", 1, 0), ("delete", 1, 0)]) == b"1,34"
    assert mutate(b"12,34", [("delete", 1, 0), ("delete", 2, 0)]) == b"1,4"
    assert mutate(b"12", [("insert", 1, ord("e")), ("replace", 7, 0xFF)]) == b"1\xff2"


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """A small valid file of each kind in INPUT_FILES, by name."""
    from funreg.estimator import fit, save_fit
    from funreg.filters import FilterSpec
    from funreg.hilbert import CurveMatrix, load_curves_csv, make_trapezoid_grid, save_curves_csv

    root = tmp_path_factory.mktemp("valid_inputs")
    files = {name: root / f"{name}.{'csv' if name in ('curves', 'responses', 'x') else 'json'}"
             for name in INPUT_FILES}
    g = make_trapezoid_grid(0.0, 1.0, 7)
    rng = np.random.default_rng(23)
    values = rng.standard_normal((12, 7))
    save_curves_csv(files["curves"], CurveMatrix(g, values))
    y = values @ np.linspace(1.0, -1.0, 7) / 7 + 0.3 * rng.standard_normal(12)
    files["responses"].write_text("\n".join(repr(float(v)) for v in y) + "\n")
    save_curves_csv(files["x"], CurveMatrix(g, rng.standard_normal((1, 7))))
    save_fit(files["fit"], fit(load_curves_csv(files["curves"]), y, FilterSpec("truncation", 0.05)))
    coverage = base_coverage_config(noise_sd=0.5, n=15, replicates=2)
    model = {key: coverage[key] for key in ("decay", "rho", "noise_sd", "xi", "L", "grid_points")}
    configs = {
        "coverage": coverage,
        "fixed-x": dict(coverage, x={"kind": "basis", "index": 1}),
        "norm-divergence": dict(model, L=6, filter={"kind": "truncation"}, n_grid=[10, 20],
                                cn_rule={"kind": "rank-power", "exponent": 0.3},
                                replicates=2, seed=3),
        "population": dict(model, L=6, filter={"kind": "ridge", "alpha": 0.01}, k_grid=[1, 3],
                           x={"kind": "basis", "index": 2}),
    }
    for kind, cfg in configs.items():
        files[f"config-{kind}"].write_text(json.dumps(cfg, indent=2))
    return files


def reading_argv(files, name, out):
    """The command that reads the file ``name`` of ``files``; a fit or a
    report is written to ``out``."""
    if name in ("curves", "responses"):
        return ["fit", "--curves", files["curves"], "--responses", files["responses"],
                "--filter", "truncation", "--cn", "0.05", "--out", out]
    if name in ("x", "fit"):
        return ["predict", "--fit", files["fit"], "--x", files["x"],
                "--level", "0.9", "--normalizer", "t_hat"]
    return ["simulate", name.removeprefix("config-"), "--config", files[name], "--out", out]


@pytest.mark.parametrize("name", INPUT_FILES)
@settings(max_examples=50, deadline=None, derandomize=True)
@example(edits=[("insert", 0, 0xFF)])  # not UTF-8
@given(edits=EDITS)
def test_malformed_input_file_ends_in_one_error_line(valid_inputs, name, edits):
    """Whatever its bytes, an input file gives a result, or one error line
    and no output; never a traceback."""
    files = dict(valid_inputs)
    mutated = files[name].with_name(f"mutated-{files[name].name}")
    mutated.write_bytes(mutate(files[name].read_bytes(), edits))
    files[name] = mutated
    out, err = io.StringIO(), io.StringIO()
    # a numpy warning would reach stderr beside the error line; make it fail here
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = run(reading_argv(files, name, mutated.with_name("out.json")))
    err = err.getvalue()
    assert code in (0, 2, 3, 4)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        assert out.getvalue() == ""
