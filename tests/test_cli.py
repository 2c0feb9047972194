import csv
import json
import os
import warnings

import numpy as np
import pytest

from funreg import cli, simlab
from funreg.cli import main

# grid points (0, 2) give trapezoid weights (1, 1), matching the
# unit-weight arithmetic of the worked fit example
TOY_CURVES = "0.0,2.0\n2.0,0.0\n0.0,1.0\n"
TOY_RESPONSES = "2.0\n1.0\n"


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

    def test_one_column_predictor_exits_2(self, toy_fit_path, tmp_path, capsys):
        fit_path, _ = toy_fit_path
        capsys.readouterr()
        x = tmp_path / "x1.csv"
        x.write_text("0.0\n1.0\n")
        code = run(["predict", "--fit", fit_path, "--x", x])
        assert_validation_exit(code, capsys)

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

    @pytest.mark.parametrize("edit", [
        {"n": 0},
        {"n": -3},
        {"sigma_hat": -1.0},
        # n = 3 > d_n = 2 needs a noise scale, n = 2 = d_n must not have one
        {"sigma_hat": None},
        {"n": 2},
    ], ids=["n=0", "n=-3", "negative-sigma", "null-sigma", "sigma-without-dof"])
    def test_out_of_range_fields(self, toy_inputs, tmp_path, capsys, edit):
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
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(dict(payload, **edit)))
        capsys.readouterr()
        code = run(["predict", "--fit", path, "--x", x_path, "--level", "0.9"])
        assert_validation_exit(code, capsys)

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
        real_pool = simlab.ThreadPoolExecutor

        def recording_pool(max_workers):
            pools.append(max_workers)
            return real_pool(max_workers=max_workers)

        monkeypatch.setattr(simlab, "ThreadPoolExecutor", recording_pool)
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

    @pytest.mark.parametrize("command", ["variance-bound", "condition-u"])
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

    def test_variance_bound_rows(self, tmp_path):
        cfg = {
            "decay": {"kind": "power", "a": 0.5},
            "rho": {"kind": "power", "exponent": 1.0},
            "x_squared": {"kind": "power", "beta": 2.0},
            "k_grid": [5, 10, 20],
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "vb.json"
        assert run(["simulate", "variance-bound", "--config", cfg_path,
                    "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["k_grid"] == [5, 10, 20]
        assert all(b >= a for a, b in zip(report["values"], report["values"][1:]))
        lines = (tmp_path / "vb.csv").read_text().strip().splitlines()
        assert lines[0] == "k,value,reference"
        assert len(lines) == 4

    def test_condition_u_rows(self, tmp_path):
        cfg = {
            "decay": {"kind": "power", "a": 1.0},
            "rho": {"kind": "finite", "coeffs": [1.0, 0.5, 0.25]},
            "L": 10,
            "grid_points": 21,
            "J": 10,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "cu.json"
        assert run(["simulate", "condition-u", "--config", cfg_path,
                    "--out", out]) == 0
        report = json.loads(out.read_text())
        assert report["convergent"]
        assert report["partial_sums"][-1] == pytest.approx(1.3125)


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
VARIANCE_BOUND_CONFIG = {
    "decay": {"kind": "power", "a": 0.5},
    "rho": {"kind": "power", "exponent": 1.0},
    "x_squared": {"kind": "power", "beta": 2.0},
    "k_grid": [5, 10],
}
CONDITION_U_CONFIG = {
    "decay": {"kind": "power", "a": 1.0},
    "rho": {"kind": "finite", "coeffs": [1.0, 0.5]},
    "L": 10,
    "grid_points": 21,
    "J": 10,
}
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
    ("variance-bound", VARIANCE_BOUND_CONFIG, "x_squared", {"kind": "power", "beta": "two"}),
    ("variance-bound", VARIANCE_BOUND_CONFIG, "x_squared", {"kind": "power"}),
    ("condition-u", CONDITION_U_CONFIG, "J", "ten"),
    ("coverage", COVERAGE_CONFIG, "level", 1.5),
    ("fixed-x", FIXED_X_CONFIG, "level", 1.5),
    ("fixed-x", FIXED_X_CONFIG, "level", 0),
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
    ("variance-bound", VARIANCE_BOUND_CONFIG, 0, "k,value,reference"),
    ("condition-u", CONDITION_U_CONFIG, 0, "j,partial_sum"),
]


@pytest.mark.parametrize("command, cfg, code, header", ROWS_CSV_HEADERS)
def test_rows_csv_header_is_pinned(tmp_path, command, cfg, code, header):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "r.json"
    assert run(["simulate", command, "--config", cfg_path, "--out", out]) == code
    with open(tmp_path / "r.csv", newline="") as fh:
        assert fh.readline() == header + "\r\n"


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
    @pytest.mark.parametrize(
        "command,base,key,bad", MALFORMED_CONFIGS,
        ids=[f"{c}-{k}-{i}" for i, (c, _, k, _) in enumerate(MALFORMED_CONFIGS)],
    )
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
