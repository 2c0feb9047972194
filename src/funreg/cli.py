"""Command-line front end: fit, predict, and the simulation experiments.

Exit codes: 0 success, 2 validation problem, 3 degenerate mathematics
(empty retained spectrum, zero normalizer, exhausted degrees of
freedom), 4 every replicate of an experiment failed. Errors print one
machine-parsable line `error: <kind>: <message>` on stderr; a bad
command line (unknown option, missing option, a value of the wrong type
or outside its choices) is `error: validation: <argparse's message>`.

Experiment configs are JSON objects read through ``funreg.config``: each
command names its required and optional top-level keys, and every field
must have its exact JSON type (an integer field such as ``n`` or
``replicates`` takes a JSON integer, never 2.7, 2.0 or "2"; a number
field takes an integer or a float but not a boolean; a flag such as
``normalize`` takes a JSON boolean). Any other value exits 2.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import config, simlab
from .errors import DegenerateFitError, FunregError, ValidationError
from .estimator import fit, load_fit, prediction_interval, predict, save_fit
from .filters import FilterSpec, filter_from_config
from .hilbert import load_curves_csv
from .simlab import cn_rule_from_config, model_from_config, x_from_config

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


def _write_rows_csv(path, rows) -> None:
    """One CSV line per row dict; the header is the first row's keys."""
    fieldnames = list(rows[0])
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    with fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def _csv_path(out_path) -> Path:
    out = Path(out_path)
    return out.with_suffix(".csv") if out.suffix != ".csv" else out.with_suffix(".rows.csv")


def _load_responses(path) -> np.ndarray:
    try:
        with open(path, encoding="utf-8") as fh:
            cells = [c for line in fh for c in line.replace(",", " ").split()]
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if not cells:
        raise ValidationError(f"{path}: no responses found")
    # the curve file's number grammar, so a literal such as 1_0 is rejected
    try:
        return np.loadtxt(cells, comments=None, ndmin=1)
    except ValueError as exc:
        # loadtxt's "at row r" counts cells, not lines of the file
        reason = str(exc).split(" at row ")[0]
        raise ValidationError(f"{path}: non-numeric response ({reason})") from None


def _filter_from_args(args) -> FilterSpec:
    return FilterSpec(
        kind=args.filter,
        cn=args.cn,
        alpha=args.alpha,
        p=args.p,
        variant=args.variant,
    )


# ---------------------------------------------------------------------------
# commands


def cmd_fit(args) -> int:
    curves = load_curves_csv(args.curves)
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
    curves = load_curves_csv(args.x)
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


def _coverage_like(args, fixed_x: bool) -> int:
    required = {"decay", "rho", "filter", "n", "level", "replicates", "seed"}
    if fixed_x:
        required = required | {"x"}
    cfg = config.section(config.read_json(args.config), "config", required, _COMMON_SIM_KEYS)
    model = model_from_config(cfg)
    filt = filter_from_config(cfg["filter"])
    kwargs = dict(
        n=config.value(cfg, "n", "config", int),
        cn=filt.cn,
        filt=filt,
        level=config.value(cfg, "level", "config", float),
        replicates=config.value(cfg, "replicates", "config", int),
        seed=config.value(cfg, "seed", "config", int),
        threads=args.threads,
    )
    if fixed_x:
        x = x_from_config(model, cfg["x"])
        report = simlab.fixed_x_experiment(model, x, **kwargs)
    else:
        report = simlab.coverage_experiment(model, **kwargs)
    config.write_json(args.out, report.to_dict())
    _write_rows_csv(_csv_path(args.out), report.rows)
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
    cfg = config.section(
        config.read_json(args.config),
        "config",
        {"decay", "rho", "filter", "n_grid", "cn_rule", "replicates", "seed"},
        _COMMON_SIM_KEYS,
    )
    n_grid = config.numbers(cfg, "n_grid", "config", int)
    if not n_grid:
        raise ValidationError("n_grid must be a nonempty list")
    model = model_from_config(cfg)
    rule = cn_rule_from_config(model, cfg["cn_rule"])
    # placeholder threshold; the rule supplies the real value per n
    filt = filter_from_config(cfg["filter"], cn=rule(n_grid[0]))
    report = simlab.norm_divergence_demo(
        model,
        n_grid,
        rule,
        filt,
        replicates=config.value(cfg, "replicates", "config", int),
        seed=config.value(cfg, "seed", "config", int),
        threads=args.threads,
    )
    config.write_json(args.out, report.to_dict())
    _write_rows_csv(_csv_path(args.out), report.rows)
    if all(row["n_failed"] == report.replicates for row in report.rows):
        raise _AllReplicatesFailed("all replicates failed at every sample size")
    return EXIT_OK


def cmd_simulate_variance_bound(args) -> int:
    cfg = config.section(
        config.read_json(args.config), "config", {"decay", "rho", "x_squared", "k_grid"},
        _COMMON_SIM_KEYS,
    )
    model = model_from_config(cfg)
    k_grid = config.numbers(cfg, "k_grid", "config", int)
    xcfg = cfg["x_squared"]
    kinds = {"power": (("beta",), ()), "values": (("values",), ())}
    if config.kind(xcfg, "x_squared", kinds) == "power":
        beta = config.value(xcfg, "beta", "x_squared", float)
        report = simlab.variance_lower_bound(model, k_grid, beta=beta)
    else:
        x_squared = config.numbers(xcfg, "values", "x_squared", float)
        report = simlab.variance_lower_bound(model, k_grid, x_squared=x_squared)
    config.write_json(args.out, report.to_dict())
    _write_rows_csv(
        _csv_path(args.out),
        [
            {"k": k, "value": v, "reference": r}
            for k, v, r in zip(report.k_grid, report.values, report.reference)
        ],
    )
    return EXIT_OK


def cmd_simulate_condition_u(args) -> int:
    cfg = config.section(
        config.read_json(args.config), "config", {"decay", "rho", "J"}, _COMMON_SIM_KEYS
    )
    model = model_from_config(cfg)
    report = simlab.condition_u_diagnostic(model, config.value(cfg, "J", "config", int))
    config.write_json(args.out, report.to_dict())
    _write_rows_csv(
        _csv_path(args.out),
        [
            {"j": j + 1, "partial_sum": float(s)}
            for j, s in enumerate(report.partial_sums)
        ],
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one ``error: validation:`` line, exit 2.

    ``add_subparsers`` builds its subparsers with this class too.
    """

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: validation: {' '.join(message.split())}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    # only the Monte Carlo experiments have replicates to spread over threads
    for name, handler, monte_carlo in (
        ("coverage", cmd_simulate_coverage, True),
        ("fixed-x", cmd_simulate_fixed_x, True),
        ("norm-divergence", cmd_simulate_norm_divergence, True),
        ("variance-bound", cmd_simulate_variance_bound, False),
        ("condition-u", cmd_simulate_condition_u, False),
    ):
        p = sim_sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="report JSON path")
        if monte_carlo:
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
