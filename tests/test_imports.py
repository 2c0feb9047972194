"""Modules of the package use only each other's public names, only
``config`` calls ``open``, and the package imports and runs every command
without scipy, pytest or hypothesis, its test-only dependencies."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import funreg
from funreg import cli
from funreg.hilbert import CurveMatrix, make_trapezoid_grid, save_curves_csv

PACKAGE = Path(funreg.__file__).parent


def private_uses(source: str) -> list[str]:
    """``from .mod import _name`` and ``mod._name`` on a sibling module."""
    tree = ast.parse(source)
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif alias.name.startswith("_"):
                    found.append(f"from .{node.module} import {alias.name}")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in siblings
            and node.attr.startswith("_")
            and not node.attr.endswith("__")
        ):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_detector_flags_both_forms():
    source = (
        "from . import simlab\n"
        "from .covariance import _gaps, spectral_gaps\n"
        "simlab._check()\n"
    )
    assert private_uses(source) == ["from .covariance import _gaps", "simlab._check"]
    assert private_uses("from . import simlab\nsimlab.__name__\nx._y\n") == []


def test_no_module_uses_a_private_name_of_another():
    offenders = {
        path.name: uses
        for path in sorted(PACKAGE.glob("*.py"))
        if (uses := private_uses(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def unused_imports(source: str) -> list[str]:
    """Names bound by a module-level import that the module never reads;
    ``from __future__`` imports are exempt."""
    tree = ast.parse(source)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in imported if name not in read]


def test_unused_import_detector():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from .hilbert import Curve, norm as norm_of, trapezoid_weights\n"
        "def f(c: Curve):\n"
        "    return np.sqrt(norm_of(c))\n"
    )
    assert unused_imports(source) == ["os", "trapezoid_weights"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


def test_no_module_has_an_unused_import():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
        and (names := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def open_calls(source: str) -> list[str]:
    """Calls of the builtin ``open``: bare, or as ``builtins.open`` or ``io.open``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id == "open") or (
            isinstance(func, ast.Attribute)
            and func.attr == "open"
            and isinstance(func.value, ast.Name)
            and func.value.id in ("builtins", "io")
        ):
            found.append((node.lineno, ast.unparse(func)))
    return [f"line {line}: {call}" for line, call in sorted(found)]


def test_open_detector_flags_every_form():
    source = (
        "import builtins, io\n"
        "with open(path) as fh:\n"
        "    pass\n"
        "builtins.open(path, 'w')\n"
        "io.open(path)\n"
        "config.open_text(path)\n"
        "fh.open()\n"
        "reopen(path)\n"
    )
    assert open_calls(source) == ["line 2: open", "line 4: builtins.open", "line 5: io.open"]
    assert open_calls("opened = 1\nwith config.open_text(p, 'w') as fh:\n    pass\n") == []


def test_only_config_opens_files():
    offenders = {
        path.name: calls
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py"
        and (calls := open_calls(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
    assert open_calls((PACKAGE / "config.py").read_text(encoding="utf-8"))


def test_import_does_not_load_scipy_stats():
    # scipy.special alone is about 0.3 s of a cold start (it loads
    # numpy.f2py, numpy.testing and numpy.ma); funreg.normal gives the
    # normal quantile (a Cephes ndtri port) and distribution function
    # (math.erfc) instead
    code = ("import sys, funreg, funreg.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


# The test-only dependencies (see pyproject.toml's test extra); an install
# without extras has none of them.
TEST_EXTRAS = ("scipy", "pytest", "hypothesis")

# Runs funreg.cli.main on each argv of sys.argv[1] (a JSON list) in the
# working directory, with every import of a TEST_EXTRAS package made to
# fail, and prints the exit codes, the standard output and error, and the
# modules of those packages that were loaded.
BLOCKED_RUN = """
import contextlib, io, json, sys

BLOCKED = %r

class BlockTestExtras:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] in BLOCKED:
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockTestExtras())
from funreg import cli

runs = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    runs.append([code, out.getvalue(), err.getvalue()])
loaded = sorted(m for m in sys.modules if m.split(".")[0] in BLOCKED)
print(json.dumps({"runs": runs, "loaded": loaded}))
""" % (TEST_EXTRAS,)


def scipy_free_inputs(root: Path) -> list[tuple[list[str], int]]:
    """Inputs under ``root`` for fit, predict (point, s_hat, t_hat), each
    simulate kind, and one refusal per exit code, with the argv of each
    command and the exit code it must give; the commands write their
    outputs to the working directory."""
    rng = np.random.default_rng(11)
    g = make_trapezoid_grid(0.0, 1.0, 9)
    values = rng.standard_normal((40, 9))
    save_curves_csv(root / "curves.csv", CurveMatrix(g, values))
    responses = values @ np.linspace(1.0, -1.0, 9) / 9 + 0.3 * rng.standard_normal(40)
    (root / "responses.csv").write_text("\n".join(repr(float(y)) for y in responses) + "\n")
    save_curves_csv(root / "x.csv", CurveMatrix(g, rng.standard_normal((1, 9))))
    model = {
        "decay": {"kind": "geometric", "r": 0.5},
        "rho": {"kind": "finite", "coeffs": [1.0, 0.4]},
        "noise_sd": 0.5,
        "xi": "gaussian",
        "L": 2,
        "grid_points": 21,
    }
    coverage = dict(model, filter={"kind": "truncation", "cn": 0.05}, n=25, level=0.95,
                    replicates=6, seed=7)
    configs = {
        "coverage": ("coverage", coverage, 0),
        "fixed_x": ("fixed-x", dict(coverage, x={"kind": "basis", "index": 1}), 0),
        "norm_divergence": ("norm-divergence", dict(
            model, L=10, filter={"kind": "truncation"}, n_grid=[20, 40],
            cn_rule={"kind": "rank-power", "exponent": 0.3}, replicates=2, seed=3), 0),
        "population": ("population", dict(
            model, L=10, filter={"kind": "ridge", "alpha": 0.01}, k_grid=[1, 3, 5],
            x={"kind": "basis", "index": 2}), 0),
        # a zero fixed x is refused before any replicate, with no report
        "zero_x": ("fixed-x", dict(coverage, x={"kind": "coeffs", "values": [0.0, 0.0]}), 3),
        # cn below both eigenvalues of a two-curve sample leaves no residual
        # degrees of freedom, so every replicate fails
        "saturated": ("coverage", dict(coverage, n=2, replicates=2,
                                       filter={"kind": "truncation", "cn": 1e-8}), 4),
    }
    fit = ["fit", "--curves", str(root / "curves.csv"), "--responses",
           str(root / "responses.csv"), "--filter", "truncation", "--cn", "0.05", "--out", "fit.json"]
    predict = ["predict", "--fit", "fit.json", "--x", str(root / "x.csv")]
    commands = [
        (fit, 0),
        (predict, 0),
        (predict + ["--level", "0.9", "--normalizer", "s_hat"], 0),
        (predict + ["--level", "0.9", "--normalizer", "t_hat"], 0),
        (predict + ["--level", "2.0"], 2),
    ]
    for name, (kind, cfg, code) in configs.items():
        (root / f"{name}_config.json").write_text(json.dumps(cfg))
        commands.append((["simulate", kind, "--config", str(root / f"{name}_config.json"),
                          "--out", f"{name}.json"], code))
    return commands


def test_cli_runs_with_scipy_unimportable(tmp_path, monkeypatch, capsys):
    inputs = scipy_free_inputs(tmp_path)
    commands = [argv for argv, _ in inputs]
    blocked, normal = tmp_path / "blocked", tmp_path / "normal"
    blocked.mkdir()
    normal.mkdir()
    out = subprocess.run(
        [sys.executable, "-c", BLOCKED_RUN, json.dumps(commands)],
        cwd=blocked,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    result = json.loads(out.stdout)
    assert result["loaded"] == []

    monkeypatch.chdir(normal)
    expected = []
    for argv in commands:
        code = cli.main(argv)
        captured = capsys.readouterr()
        expected.append([code, captured.out, captured.err])
    assert result["runs"] == expected
    assert [code for code, _, _ in expected] == [code for _, code in inputs]
    # a success writes nothing to stderr, and a refusal one line of its kind
    kinds = {2: "validation", 3: "degenerate", 4: "all-replicates-failed"}
    for code, _, err in expected:
        if code:
            assert err.startswith(f"error: {kinds[code]}: ") and err.count("\n") == 1, err
        else:
            assert err == ""
    files = sorted(p.name for p in normal.iterdir())
    assert files == [
        "coverage.csv", "coverage.json", "fit.json", "fixed_x.csv", "fixed_x.json",
        "norm_divergence.csv", "norm_divergence.json", "population.csv", "population.json",
        "saturated.csv", "saturated.json",
    ]
    assert sorted(p.name for p in blocked.iterdir()) == files
    for name in files:
        assert (blocked / name).read_bytes() == (normal / name).read_bytes(), name
