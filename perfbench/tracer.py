"""Span tracing installed from outside the package.

``Tracer.install`` replaces each traced public function with a timing
wrapper in every ``funreg`` module namespace that holds it, which is
where callers look it up at call time (``simlab.fit``,
``estimator.eigendecompose``, ``cli.load_curves_csv`` ...). Construction
of ``Curve`` is counted by wrapping ``Curve.__post_init__``. Spans are
kept in memory as ``[name, start, end, parent, unit]`` and written when
the run ends; ``Tracer.remove`` puts every original back.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
from time import perf_counter

# (module, attribute, span name). Every span's ``.ms`` is self time, so the
# spans whose self time is mostly glue carry ``.self`` in their metric name.
TRACED = (
    ("simlab", "coverage_experiment", "simlab.experiment"),
    ("simlab", "fixed_x_experiment", "simlab.experiment"),
    ("simlab", "generate_dataset", "simlab.generate_dataset"),
    ("hilbert", "load_curves_csv", "hilbert.load_curves_csv"),
    ("covariance", "empirical_covariance", "covariance.empirical_covariance"),
    ("covariance", "cross_covariance", "covariance.cross_covariance"),
    ("covariance", "eigendecompose", "covariance.eigendecompose"),
    ("filters", "filter_values", "filters.filter_values"),
    ("estimator", "fit", "estimator.fit"),
    ("estimator", "regularized_inverse", "estimator.regularized_inverse"),
    ("estimator", "t_hat", "estimator.t_hat"),
    ("estimator", "prediction_interval", "estimator.prediction_interval"),
    ("estimator", "save_fit", "estimator.save_fit"),
    ("estimator", "load_fit", "estimator.load_fit"),
    ("cli", "main", "cli"),
)

METRIC_PREFIX = {
    "simlab.experiment": "simlab.experiment.self",
    "estimator.fit": "estimator.fit.self",
    "cli.fit": "cli.fit.self",
    "cli.predict": "cli.predict.self",
}

SPAN_NAMES = tuple(dict.fromkeys(
    name for _, _, name in TRACED if name != "cli"
)) + ("cli.fit", "cli.predict")


class Tracer:
    def __init__(self, unit_spans: set[str]):
        self.unit_spans = unit_spans
        self.spans: list[list] = []
        self.curves_built = 0
        self.d_n: list[int] = []
        self.vectors_built: list[int] = []
        self._stack: list[int] = []
        self._unit = -1
        self._restore: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name
            if name == "cli":
                argv = args[0] if args else kwargs.get("argv")
                span_name = f"cli.{argv[0]}" if argv else "cli.main"
            if span_name in tracer.unit_spans:
                tracer._unit += 1
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [span_name, perf_counter(), 0.0, parent, tracer._unit]
            tracer.spans.append(record)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                record[2] = perf_counter()
            if span_name == "estimator.fit":
                tracer.d_n.append(int(out.d_n))
            elif span_name == "covariance.eigendecompose":
                tracer.vectors_built.append(_vectors_built(out))
            return out

        return wrapper

    def install(self) -> None:
        modules = {k: v for k, v in sys.modules.items() if k == "funreg" or k.startswith("funreg.")}
        for mod_name, attr, name in TRACED:
            # a function a later version drops or renames reports 0 calls
            original = getattr(modules.get(f"funreg.{mod_name}"), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, key, original))
                        setattr(mod, key, wrapper)
        curve = modules["funreg.hilbert"].Curve
        post_init = curve.__post_init__
        tracer = self

        def counted(obj):
            tracer.curves_built += 1
            return post_init(obj)

        self._restore.append((curve, "__post_init__", post_init))
        curve.__post_init__ = counted

    def remove(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, list[float]]:
        """Self time in seconds of every span, grouped by span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[float]] = {}
        for (name, start, end, _, _), c in zip(self.spans, child):
            out.setdefault(name, []).append(end - start - c)
        return out

    def layer_metrics(self, units: int) -> dict[str, tuple[float, str]]:
        """``<prefix>.ms`` (median self ms per call), ``.calls`` and
        ``.unit_ms`` (calls and summed self ms per unit of work)."""
        selfs = self.self_times()
        out = {}
        for name in SPAN_NAMES:
            times = selfs.get(name, [])
            prefix = METRIC_PREFIX.get(name, name)
            out[f"{prefix}.ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms")
            out[f"{prefix}.calls"] = (len(times) / units, "count")
            out[f"{prefix}.unit_ms"] = (sum(times) * 1e3 / units, "ms")
        built = sum(self.vectors_built)
        out["hilbert.curves_built"] = (self.curves_built / units, "count")
        out["covariance.eigenvectors_built"] = (
            built / len(self.vectors_built) if self.vectors_built else 0.0, "count")
        out["covariance.retained_vectors"] = (
            statistics.fmean(self.d_n) if self.d_n else 0.0, "count")
        out["covariance.retained_share"] = (sum(self.d_n) / built if built else 0.0, "ratio")
        return out

    def write(self, path, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**extra, "fields": ["name", "start_s", "end_s", "parent", "unit"],
                       "spans": self.spans}, fh)


def _vectors_built(decomposition) -> int:
    vectors = getattr(decomposition, "eigenvectors", None)
    if vectors is None:
        vectors = getattr(decomposition, "eigenvalues", ())
    return len(vectors)
