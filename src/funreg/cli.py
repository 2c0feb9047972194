"""Command-line front end: fit, predict, and the simulation experiments.

Exit codes: 0 success, 2 validation problem, 3 degenerate mathematics
(empty retained spectrum, zero normalizer, exhausted degrees of
freedom), 4 every replicate of an experiment failed. Errors print one
machine-parsable line `error: <kind>: <message>` on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from . import simlab
from .errors import DegenerateFitError, FunregError, ValidationError
from .estimator import fit, load_fit, prediction_interval, predict, save_fit
from .filters import FilterSpec, filter_from_config, validate_filter_fragment
from .hilbert import load_curves_csv
from .simlab import (
    SpectralModel,
    model_from_config,
    power_squared_coeffs,
    rank_power_cn_rule,
)

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_ALL_FAILED = 4


class _AllReplicatesFailed(FunregError):
    pass


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: top-level JSON object expected")
    return payload


def _open_out(path, newline=None):
    try:
        return open(path, "w", newline=newline, encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _write_json(path, payload: dict) -> None:
    with _open_out(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_rows_csv(path, fieldnames, rows) -> None:
    with _open_out(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def _csv_path(out_path) -> Path:
    out = Path(out_path)
    return out.with_suffix(".csv") if out.suffix != ".csv" else out.with_suffix(".rows.csv")


def _load_responses(path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            cells = [c for line in fh for c in line.replace(",", " ").split()]
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    try:
        values = [float(c) for c in cells]
    except ValueError as exc:
        raise ValidationError(f"{path}: non-numeric response ({exc})") from None
    if not values:
        raise ValidationError(f"{path}: no responses found")
    return np.asarray(values)


def _load_curves(path):
    try:
        return load_curves_csv(path)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


def _filter_from_args(args) -> FilterSpec:
    return FilterSpec(
        kind=args.filter,
        cn=args.cn,
        alpha=args.alpha,
        p=args.p,
        variant=args.variant,
    )


def _require_keys(cfg: dict, required: set, optional: set, where: str) -> None:
    missing = required - set(cfg)
    if missing:
        raise ValidationError(f"{where}: missing config keys {sorted(missing)}")
    unknown = set(cfg) - required - optional
    if unknown:
        raise ValidationError(f"{where}: unknown config keys {sorted(unknown)}")


def _seed_from(cfg: dict) -> int:
    seed = cfg["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError("seed must be a nonnegative integer")
    return seed


# ---------------------------------------------------------------------------
# commands


def cmd_fit(args) -> int:
    curves = _load_curves(args.curves)
    responses = _load_responses(args.responses)
    if responses.size != len(curves):
        raise ValidationError(
            f"{responses.size} responses for {len(curves)} curves"
        )
    result = fit(curves, responses, _filter_from_args(args), center=args.center)
    save_fit(args.out, result)
    print(
        f"d_n={result.d_n} s_hat={result.s_hat!r} sigma_hat={result.sigma_hat!r}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    ft = load_fit(args.fit)
    curves = _load_curves(args.x)
    if len(curves) != 1:
        raise ValidationError(f"{args.x}: expected exactly one curve row")
    x = curves[0]
    if args.level is None:
        print(repr(predict(ft, x)))
        return EXIT_OK
    interval = prediction_interval(ft, x, args.level, args.normalizer)
    print(f"{interval.center!r},{interval.lo!r},{interval.hi!r}")
    return EXIT_OK


_COMMON_SIM_KEYS = {"decay", "rho", "noise_sd", "xi", "L", "grid_points"}


def _x_curve_from_config(model: SpectralModel, cfg) -> object:
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValidationError("x config must be an object with a 'kind'")
    kind = cfg["kind"]
    if kind == "basis":
        simlab._reject_unknown(cfg, {"kind", "index"}, "x")
        index = int(cfg.get("index", 1))
        if not 1 <= index <= model.L:
            raise ValidationError(f"x basis index must be in [1, {model.L}]")
        return model.basis_curves[index - 1]
    if kind == "coeffs":
        simlab._reject_unknown(cfg, {"kind", "values"}, "x")
        return model.curve_from_coeffs(cfg.get("values", []))
    if kind == "power":
        simlab._reject_unknown(cfg, {"kind", "beta"}, "x")
        if "beta" not in cfg:
            raise ValidationError("power x config needs 'beta'")
        coeffs = np.sqrt(power_squared_coeffs(float(cfg["beta"]), model.L))
        return model.curve_from_coeffs(coeffs)
    raise ValidationError(f"unknown x kind {kind!r}")


def _cn_rule_from_config(model: SpectralModel, cfg):
    if not isinstance(cfg, dict) or "kind" not in cfg:
        raise ValidationError("cn_rule config must be an object with a 'kind'")
    if cfg["kind"] == "fixed":
        simlab._reject_unknown(cfg, {"kind", "value"}, "cn_rule")
        value = float(cfg["value"])
        return lambda n: value
    if cfg["kind"] == "rank-power":
        simlab._reject_unknown(cfg, {"kind", "exponent"}, "cn_rule")
        return rank_power_cn_rule(model, float(cfg.get("exponent", 1 / 3)))
    raise ValidationError(f"unknown cn_rule kind {cfg['kind']!r}")


def _coverage_like(args, fixed_x: bool) -> int:
    cfg = _read_json(args.config)
    required = {"decay", "rho", "filter", "n", "level", "replicates", "seed"}
    if fixed_x:
        required = required | {"x"}
    _require_keys(cfg, required, _COMMON_SIM_KEYS, "config")
    validate_filter_fragment(cfg["filter"])
    model = model_from_config(cfg)
    filt = filter_from_config(cfg["filter"])
    seed = _seed_from(cfg)
    kwargs = dict(
        n=int(cfg["n"]),
        cn=filt.cn,
        filt=filt,
        level=float(cfg["level"]),
        replicates=int(cfg["replicates"]),
        seed=seed,
        threads=args.threads,
    )
    if fixed_x:
        x = _x_curve_from_config(model, cfg["x"])
        report = simlab.fixed_x_experiment(model, x, **kwargs)
        fields = ["replicate", "failed", "hit", "center", "half_width",
                  "std_error", "bias", "d_n", "t_hat", "error"]
    else:
        report = simlab.coverage_experiment(model, **kwargs)
        fields = ["replicate", "failed", "hit", "center", "half_width",
                  "std_error", "bias", "d_n", "error"]
    _write_json(args.out, report.to_dict())
    _write_rows_csv(_csv_path(args.out), fields, report.rows)
    if report.n_failed == report.replicates:
        raise _AllReplicatesFailed(
            f"all {report.replicates} replicates failed; see {args.out}"
        )
    return EXIT_OK


def cmd_simulate_coverage(args) -> int:
    return _coverage_like(args, fixed_x=False)


def cmd_simulate_fixed_x(args) -> int:
    return _coverage_like(args, fixed_x=True)


def cmd_simulate_norm_divergence(args) -> int:
    cfg = _read_json(args.config)
    _require_keys(
        cfg,
        {"decay", "rho", "filter", "n_grid", "cn_rule", "replicates", "seed"},
        _COMMON_SIM_KEYS,
        "config",
    )
    validate_filter_fragment(cfg["filter"], need_cn=False)
    if not isinstance(cfg["n_grid"], list) or not cfg["n_grid"]:
        raise ValidationError("n_grid must be a nonempty list")
    model = model_from_config(cfg)
    rule = _cn_rule_from_config(model, cfg["cn_rule"])
    # placeholder threshold; the rule supplies the real value per n
    filt = filter_from_config(cfg["filter"], cn=float(rule(int(cfg["n_grid"][0]))))
    report = simlab.norm_divergence_demo(
        model,
        cfg["n_grid"],
        rule,
        filt,
        replicates=int(cfg["replicates"]),
        seed=_seed_from(cfg),
        threads=args.threads,
    )
    _write_json(args.out, report.to_dict())
    _write_rows_csv(
        _csv_path(args.out),
        ["n", "cn", "mean_norm_error", "mean_normalized", "mean_d_n", "n_failed"],
        report.rows,
    )
    if all(row["n_failed"] == report.replicates for row in report.rows):
        raise _AllReplicatesFailed("all replicates failed at every sample size")
    return EXIT_OK


def cmd_simulate_variance_bound(args) -> int:
    cfg = _read_json(args.config)
    _require_keys(cfg, {"decay", "rho", "x_squared", "k_grid"}, _COMMON_SIM_KEYS, "config")
    model = model_from_config(cfg)
    xcfg = cfg["x_squared"]
    if not isinstance(xcfg, dict):
        raise ValidationError("x_squared config must be an object")
    if xcfg.get("kind") == "power":
        simlab._reject_unknown(xcfg, {"kind", "beta"}, "x_squared")
        report = simlab.variance_lower_bound(model, cfg["k_grid"], beta=float(xcfg["beta"]))
    elif xcfg.get("kind") == "values":
        simlab._reject_unknown(xcfg, {"kind", "values"}, "x_squared")
        report = simlab.variance_lower_bound(model, cfg["k_grid"], x_squared=xcfg["values"])
    else:
        raise ValidationError("x_squared kind must be 'power' or 'values'")
    _write_json(args.out, report.to_dict())
    _write_rows_csv(
        _csv_path(args.out),
        ["k", "value", "reference"],
        [
            {"k": k, "value": v, "reference": r}
            for k, v, r in zip(report.k_grid, report.values, report.reference)
        ],
    )
    return EXIT_OK


def cmd_simulate_condition_u(args) -> int:
    cfg = _read_json(args.config)
    _require_keys(cfg, {"decay", "rho", "J"}, _COMMON_SIM_KEYS, "config")
    model = model_from_config(cfg)
    report = simlab.condition_u_diagnostic(model, int(cfg["J"]))
    _write_json(args.out, report.to_dict())
    _write_rows_csv(
        _csv_path(args.out),
        ["j", "partial_sum"],
        [
            {"j": j + 1, "partial_sum": float(s)}
            for j, s in enumerate(report.partial_sums)
        ],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="funreg",
        description="Functional linear regression with spectral regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a coefficient curve from CSV data")
    p_fit.add_argument("--curves", required=True, help="curve matrix CSV")
    p_fit.add_argument("--responses", required=True, help="one response per curve")
    p_fit.add_argument(
        "--filter",
        required=True,
        choices=["truncation", "ridge", "tikhonov", "generalized"],
    )
    p_fit.add_argument("--cn", required=True, type=float, help="spectral threshold")
    p_fit.add_argument("--alpha", type=float, default=None)
    p_fit.add_argument("--p", type=int, default=None)
    p_fit.add_argument("--variant", choices=["A", "B"], default=None)
    p_fit.add_argument(
        "--no-center",
        dest="center",
        action="store_false",
        help="skip empirical mean centering (already-centered data)",
    )
    p_fit.add_argument("--out", required=True, help="output fit JSON path")
    p_fit.set_defaults(func=cmd_fit, center=True)

    p_pred = sub.add_parser("predict", help="predict from a stored fit")
    p_pred.add_argument("--fit", required=True, help="fit JSON from `funreg fit`")
    p_pred.add_argument("--x", required=True, help="curve matrix CSV with one curve")
    p_pred.add_argument("--level", type=float, default=None)
    p_pred.add_argument(
        "--normalizer", choices=["s_hat", "t_hat"], default="s_hat"
    )
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo experiment")
    sim_sub = p_sim.add_subparsers(dest="experiment", required=True)
    for name, handler in (
        ("coverage", cmd_simulate_coverage),
        ("fixed-x", cmd_simulate_fixed_x),
        ("norm-divergence", cmd_simulate_norm_divergence),
        ("variance-bound", cmd_simulate_variance_bound),
        ("condition-u", cmd_simulate_condition_u),
    ):
        p = sim_sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="report JSON path")
        p.add_argument("--threads", type=int, default=1)
        p.set_defaults(func=handler)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: validation: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except DegenerateFitError as exc:
        print(f"error: degenerate: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except _AllReplicatesFailed as exc:
        print(f"error: all-replicates-failed: {exc}", file=sys.stderr)
        return EXIT_ALL_FAILED


if __name__ == "__main__":
    sys.exit(main())
