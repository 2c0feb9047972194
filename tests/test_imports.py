"""Modules of the package use only each other's public names."""

import ast
import subprocess
import sys
from pathlib import Path

import funreg

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


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone is most of a cold start, and scipy.linalg adds
    # 0.05-0.10 s more; the package needs only scipy.special
    code = ("import sys, funreg, funreg.cli; "
            "print([m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules])")
    out = subprocess.run(
        [sys.executable, "-c", code],
        cwd=PACKAGE.parent,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
