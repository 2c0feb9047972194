"""Modules of the package use only each other's public names, only
``config`` calls ``open`` or names a fault of decoding an input file, the
package raises one exception type per kind of CLI error line and each
refusal message from one site, every source and test file is Python 3.10
grammar, and the package imports and runs every command without scipy,
pytest or hypothesis, its test-only dependencies.

The one-raise-site guard keys each raise by its text, so one rule raised
in two wordings passes it; ``test_simlab.py::test_one_wording_per_refusal_rule``
is the check for that case, running each shared rule through every caller."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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


def test_every_file_parses_as_python_3_10():
    """pyproject.toml supports Python 3.10, which the tests here do not run
    on. Parsing with ``feature_version=(3, 10)`` catches grammar that only
    3.11 accepts, such as ``except*``; it does not catch a call of a library
    function or module that only 3.11 has."""
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    root = Path(__file__).resolve().parent.parent
    paths = sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")])
    assert len(paths) > 10
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


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


# The faults of reading an input file that ``config`` turns into a refusal:
# a file that is not UTF-8, and JSON nested deeper than the decoder recurses.
READ_FAULTS = ("UnicodeDecodeError", "RecursionError")


def read_fault_names(source: str) -> list[str]:
    """Each mention of one of READ_FAULTS, bare or as an attribute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = node.id if isinstance(node, ast.Name) else (
            node.attr if isinstance(node, ast.Attribute) else None)
        if name in READ_FAULTS:
            found.append((node.lineno, ast.unparse(node)))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_read_fault_detector_flags_every_form():
    source = (
        "try:\n"
        "    pass\n"
        "except (ValueError, UnicodeDecodeError):\n"
        "    pass\n"
        "except builtins.RecursionError as exc:\n"
        "    raise ValidationError(f'{exc}')\n"
        "UnicodeError, RecursionErrors, 'RecursionError'\n"
    )
    assert read_fault_names(source) == [
        "line 3: UnicodeDecodeError", "line 5: builtins.RecursionError"]


def test_only_config_names_a_read_fault():
    """A file that cannot be decoded or is nested too deeply reads one way
    for every input file: ``config`` alone names those faults."""
    offenders = {
        path.name: names
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "config.py"
        and (names := read_fault_names(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}
    named = read_fault_names((PACKAGE / "config.py").read_text(encoding="utf-8"))
    assert {name.split(": ")[1] for name in named} == set(READ_FAULTS)


# The exception types of errors.py, and those of them the package raises:
# one per kind of the CLI's ``error: <kind>:`` line, validation and degenerate.
ERROR_TYPES = ["FunregError", "ValidationError", "DegenerateFitError"]
RAISED_TYPES = ("ValidationError", "DegenerateFitError")


def raises(source: str) -> list[tuple[int, ast.expr, bool]]:
    """Each ``raise`` statement with an exception, in line order: its line,
    the exception, and whether that is a call of one of RAISED_TYPES. A bare
    ``raise`` re-raises what was caught and is left out."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc
            own = (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                   and exc.func.id in RAISED_TYPES)
            found.append((node.lineno, exc, own))
    return sorted(found, key=lambda raised: raised[0])


def foreign_raises(source: str) -> list[str]:
    """``raise`` statements that raise anything but a call of one of RAISED_TYPES."""
    return [f"line {line}: {ast.unparse(exc)}" for line, exc, own in raises(source) if not own]


def test_raise_detector_flags_every_other_type():
    source = (
        "try:\n"
        "    pass\n"
        "except ValidationError as exc:\n"
        "    raise type(exc)(f'{where}: {exc}') from None\n"
        "raise GridMismatchError('curves live on different grids')\n"
        "raise errors.ValidationError('dotted')\n"
        "raise ValueError\n"
    )
    assert foreign_raises(source) == [
        "line 4: type(exc)(f'{where}: {exc}')",
        "line 5: GridMismatchError('curves live on different grids')",
        "line 6: errors.ValidationError('dotted')",
        "line 7: ValueError",
    ]
    assert foreign_raises(
        "raise ValidationError('a')\nraise DegenerateFitError('b') from None\nraise\n"
    ) == []


def test_one_exception_type_per_error_kind():
    tree = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] == ERROR_TYPES
    offenders = {
        path.name: raises
        for path in sorted(PACKAGE.glob("*.py"))
        if (raises := foreign_raises(path.read_text(encoding="utf-8")))
    }
    assert offenders == {}


def message_key(call: ast.Call) -> str | None:
    """The message of a raise of one of RAISED_TYPES, with each f-string field
    masked as ``{}``; None unless it is one string literal or f-string."""
    if len(call.args) != 1 or call.keywords:
        return None
    msg = call.args[0]
    if isinstance(msg, ast.Constant) and isinstance(msg.value, str):
        return msg.value
    if isinstance(msg, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}"
                       for part in msg.values)
    return None


def shared_refusals(sources: dict[str, str]) -> dict[str, list[str]]:
    """The refusals of ``sources`` (file name to source) that break the rule
    of one raise site per message, each with its ``file:line`` sites: a
    message raised from two sites or more, and a message that is not a
    string literal or an f-string, keyed by its raise."""
    sites = {}
    for name, source in sources.items():
        for line, exc, own in raises(source):
            if own:
                key = message_key(exc)
                if key is None:
                    key = f"not a literal message: {ast.unparse(exc)}"
                sites.setdefault(key, []).append(f"{name}:{line}")
    return {key: where for key, where in sites.items()
            if len(where) > 1 or key.startswith("not a literal message: ")}


def test_shared_refusal_detector():
    first = (
        "raise ValidationError('empty sample')\n"
        "raise ValidationError(f'{where} config must be an object')\n"
        "raise DegenerateFitError(message)\n"
        "raise ValidationError(f'got {level}')\n"
    )
    second = (
        "raise DegenerateFitError('empty sample')\n"
        "raise ValidationError(f'{section} config must be an object')\n"
        "raise ValueError('empty sample')\n"
        "raise\n"
    )
    assert shared_refusals({"a.py": first, "b.py": second}) == {
        "empty sample": ["a.py:1", "b.py:1"],
        "{} config must be an object": ["a.py:2", "b.py:2"],
        "not a literal message: DegenerateFitError(message)": ["a.py:3"],
    }
    # one site per message passes; joined literals are one message
    assert shared_refusals({"a.py": (
        "raise ValidationError('got a')\n"
        "raise ValidationError(f'got {n}' f' of {m}')\n"
        "raise DegenerateFitError('got ' 'b')\n"
    )}) == {}


def test_one_raise_site_per_refusal():
    """Each refusal message has one raise site. A raise is keyed by its text,
    so this cannot see one rule in two wordings:
    ``test_simlab.py::test_one_wording_per_refusal_rule`` checks that."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert shared_refusals(sources) == {}


def cold_start_modules() -> set[str]:
    """The modules a fresh interpreter holds after ``import funreg, funreg.cli``."""
    code = "import sys, funreg, funreg.cli; print(*sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    return set(out.stdout.split())


def test_import_does_not_load_scipy_stats():
    # scipy.special alone is about 0.3 s of a cold start (it loads
    # numpy.f2py, numpy.testing and numpy.ma); funreg.normal gives the
    # normal quantile (a Cephes ndtri port) and distribution function
    # (math.erfc) instead
    assert sorted(m for m in cold_start_modules() if m == "scipy" or m.startswith("scipy.")) == []


def test_import_does_not_load_the_pool_or_the_csv_writer():
    # a serial run uses no thread pool, and fit, predict and the lab loop
    # write no CSV: the functions that do import concurrent.futures (which
    # loads logging and queue) and csv themselves
    loaded = cold_start_modules() & {"concurrent.futures", "logging", "queue", "csv"}
    assert sorted(loaded) == []


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
    simulate kind, one refusal per exit code and the two input files that
    cannot be read (a responses file that is not UTF-8 and a config nested
    too deeply), with the argv of each command and the exit code it must
    give; the commands write their outputs to the working directory."""
    rng = np.random.default_rng(11)
    g = make_trapezoid_grid(0.0, 1.0, 9)
    values = rng.standard_normal((40, 9))
    save_curves_csv(root / "curves.csv", CurveMatrix(g, values))
    responses = values @ np.linspace(1.0, -1.0, 9) / 9 + 0.3 * rng.standard_normal(40)
    (root / "responses.csv").write_text("\n".join(repr(float(y)) for y in responses) + "\n")
    (root / "undecodable.csv").write_bytes(b"0.5\n\xff\n1.5\n")
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
        # fit with --responses holding a byte that is not UTF-8
        ([*fit[:4], str(root / "undecodable.csv"), *fit[5:]], 2),
    ]
    for name, (kind, cfg, code) in configs.items():
        (root / f"{name}_config.json").write_text(json.dumps(cfg))
        commands.append((["simulate", kind, "--config", str(root / f"{name}_config.json"),
                          "--out", f"{name}.json"], code))
    # nested deeper than the JSON decoder recurses
    (root / "deep_config.json").write_text("[" * 1100 + "]" * 1100)
    commands.append((["simulate", "population", "--config", str(root / "deep_config.json"),
                      "--out", "deep.json"], 2))
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
