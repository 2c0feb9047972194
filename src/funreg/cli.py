"""Command-line front end: fit, predict, and the simulation experiments.

Exit codes: 0 success, 2 validation problem, 3 degenerate mathematics
(empty retained spectrum, zero normalizer, exhausted degrees of
freedom), 4 every replicate of an experiment failed. Errors print one
machine-parsable line `error: <kind>: <message>` on stderr; a bad
command line (unknown option, missing option, a value of the wrong type
or outside its choices) is `error: validation: <argparse's message>`.
The choices of ``--filter`` and ``--variant`` are ``filters.KINDS`` and
``filters.VARIANTS``, and those of ``--normalizer`` are
``estimator.NORMALIZERS``, the lists the library checks against.

``main`` may be called many times in one process: it parses with one
parser, which ``build_parser`` builds on first use and then returns
again. Parsing leaves the parser as it was and every default is
immutable, so the same argv gives the same namespace whatever ran
before it; help is formatted only when asked for, so it still reads
``COLUMNS`` at that time.

``funreg simulate`` runs one of the experiments of ``simlab.EXPERIMENTS``:
``coverage`` and ``fixed-x`` (interval coverage for a random new predictor
under the s_hat pivot, and at a fixed x under the t_hat pivot),
``norm-divergence`` (the norm error over a grid of sample sizes) and
``population`` (the deterministic population block at each rank of a grid;
it has no replicates, so it takes no ``--threads``). ``--threads`` spreads
the replicates over worker threads, but each replicate's linear algebra
also runs on the BLAS library's own threads: more than one worker pays
only when BLAS runs one thread (``OPENBLAS_NUM_THREADS=1`` for OpenBLAS),
and otherwise it can halve the replicates per second.

Experiment configs are JSON objects that ``simlab.experiment_from_config``
reads through ``funreg.config``: ``simlab.EXPERIMENTS`` names each
experiment's required and optional top-level keys besides the model's,
and every field must have its exact JSON type (an integer field such as
``n`` or ``replicates`` takes a JSON integer, never 2.7, 2.0 or "2"; a
number field takes an integer or a float but not a boolean; a flag such
as ``normalize`` takes a JSON boolean). Any other value exits 2.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import config, simlab
from .errors import DegenerateFitError, ValidationError
from .estimator import NORMALIZERS, fit, load_fit, prediction_interval, predict, save_fit
from .filters import KINDS, VARIANTS, FilterSpec
from .hilbert import load_curves_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DEGENERATE = 3
EXIT_ALL_FAILED = 4


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
    import csv  # loaded here: only simulate writes rows

    fieldnames = list(rows[0])
    with config.open_text(path, "w") as fh:
        writer = csv.writer(fh)
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row[name]) for name in fieldnames])


def _csv_path(out_path) -> Path:
    out = Path(out_path)
    return out.with_suffix(".csv") if out.suffix != ".csv" else out.with_suffix(".rows.csv")


def _load_responses(path) -> np.ndarray:
    with config.open_text(path) as fh:
        cells = [c for line in fh for c in line.replace(",", " ").split()]
    if not cells:
        raise ValidationError(f"{path}: no responses found")
    # the curve file's number grammar, so a literal such as 1_0 is rejected
    try:
        return np.loadtxt(cells, comments=None, ndmin=1)
    except ValueError as exc:
        # loadtxt's "at row r" counts cells, not lines of the file
        reason = str(exc).split(" at row ")[0]
        raise ValidationError(f"{path}: non-numeric response ({reason})") from None


# ---------------------------------------------------------------------------
# commands


def cmd_fit(args) -> int:
    curves = load_curves_csv(args.curves)
    responses = _load_responses(args.responses)
    spec = FilterSpec(args.filter, args.cn, alpha=args.alpha, p=args.p, variant=args.variant)
    result = fit(curves, responses, spec, center=args.center)
    save_fit(args.out, result)
    print(
        f"d_n={result.d_n} s_hat={result.s_hat!r} sigma_hat={result.sigma_hat!r}"
    )
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.level is None and args.normalizer is not None:
        raise ValidationError("--normalizer needs --level: a point prediction has no normalizer")
    ft = load_fit(args.fit)
    curves = load_curves_csv(args.x)
    if len(curves) != 1:
        raise ValidationError(f"{args.x}: expected exactly one curve row")
    x = curves[0]
    if args.level is None:
        print(repr(predict(ft, x)))
        return EXIT_OK
    interval = prediction_interval(ft, x, args.level, args.normalizer or "s_hat")
    print(f"{interval.center!r},{interval.lo!r},{interval.hi!r}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    report = simlab.experiment_from_config(
        args.experiment, config.read_json(args.config), args.threads
    )
    config.write_json(args.out, report.to_dict())
    _write_rows_csv(_csv_path(args.out), report.rows)
    if report.all_failed:
        print(
            f"error: all-replicates-failed: all {report.attempted} replicates failed;"
            f" see {args.out}",
            file=sys.stderr,
        )
        return EXIT_ALL_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one ``error: validation:`` line, exit 2.

    ``add_subparsers`` builds its subparsers with this class too.
    """

    def error(self, message):
        self.exit(EXIT_VALIDATION, f"error: validation: {' '.join(message.split())}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call; every later call
    returns the same parser, which callers must not change."""
    parser = _Parser(
        prog="funreg",
        description="Functional linear regression with spectral regularization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit a coefficient curve from CSV data")
    p_fit.add_argument("--curves", required=True, help="curve matrix CSV")
    p_fit.add_argument("--responses", required=True, help="one response per curve")
    p_fit.add_argument("--filter", required=True, choices=KINDS)
    p_fit.add_argument("--cn", required=True, type=float, help="spectral threshold")
    p_fit.add_argument("--alpha", type=float, default=None)
    p_fit.add_argument("--p", type=int, default=None)
    p_fit.add_argument("--variant", choices=VARIANTS, default=None)
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
    p_pred.add_argument("--normalizer", choices=NORMALIZERS,
                        help="interval pivot (default s_hat); needs --level")
    p_pred.set_defaults(func=cmd_predict)

    p_sim = sub.add_parser("simulate", help="run a simulation experiment")
    sim_sub = p_sim.add_subparsers(dest="experiment", required=True)
    for name, (keys, _, _) in simlab.EXPERIMENTS.items():
        p = sim_sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help="report JSON path")
        # only the Monte Carlo experiments have replicates to spread over threads
        if "replicates" in keys:
            p.add_argument(
                "--threads", type=int,
                help="worker threads for the replicates (default 1); more than 1 pays only "
                "when BLAS runs one thread (e.g. OPENBLAS_NUM_THREADS=1), and can halve "
                "throughput otherwise",
            )
        p.set_defaults(func=cmd_simulate, threads=1)

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


if __name__ == "__main__":
    sys.exit(main())
