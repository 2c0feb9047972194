"""Typed reader for JSON config objects, the JSON file pair and ``open_text``.

Every field is read with its exact JSON type. An integer field needs a
JSON integer, so 2.7, 2.0, "2" and true are all rejected. A number field
takes a finite integer or float but not a boolean, and is returned as a
float. A flag needs a JSON boolean, a string field a JSON string and a
list field a JSON list. An optional field given as null reads as absent
when its default is None. An ``array`` field is a JSON list of numbers,
or of lists of numbers, and takes no string or boolean entry either.
Objects are read by ``section`` (no missing and no unknown keys) and
``kind`` (the same, per value of the ``kind`` key). Every failure is a
``ValidationError`` that names the offending field.

``open_text`` holds the package's calls of ``open``: every file read or
written goes through it, so a path that fails reads ``cannot read|write
{path}: <reason>``, as does a file read that is not UTF-8; ``read_json``
reads JSON nested too deeply to decode as ``invalid JSON``.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager, suppress
from itertools import chain

import numpy as np

from .errors import ValidationError

_REQUIRED = object()

_NOUNS = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string", list: "a list"}


def _check_object(cfg, where: str) -> None:
    if not isinstance(cfg, dict):
        raise ValidationError(f"{where} config must be an object")


def section(cfg, where: str, required=(), optional=()) -> dict:
    """Check that ``cfg`` is an object with every required key and no
    key outside ``required`` and ``optional``; return it."""
    _check_object(cfg, where)
    missing = set(required) - set(cfg)
    if missing:
        raise ValidationError(f"{where}: missing config keys {sorted(missing)}")
    unknown = set(cfg) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"{where}: unknown config keys {sorted(unknown)}")
    return cfg


def kind(cfg, where: str, kinds: dict) -> str:
    """Dispatch on the string ``kind`` key of an object.

    ``kinds`` maps each accepted kind to its (required, optional) keys
    besides ``kind``; the object is checked against that kind's keys and
    the kind is returned.
    """
    _check_object(cfg, where)
    name = value(cfg, "kind", where, str)
    if name not in kinds:
        raise ValidationError(f"unknown {where} kind {name!r}")
    required, optional = kinds[name]
    section(cfg, where, ("kind", *required), optional)
    return name


def _typed(raw, what: str, typ: type):
    accepted = (int, float) if typ is float else typ
    ok = isinstance(raw, accepted) and (typ is bool or not isinstance(raw, bool))
    if ok and typ is float:
        try:
            raw = float(raw)
        except OverflowError:
            ok = False
        ok = ok and math.isfinite(raw)
    if not ok:
        raise ValidationError(f"{what} must be {_NOUNS[typ]}, got {raw!r}")
    return raw


def value(cfg: dict, key: str, where: str, typ: type, default=_REQUIRED):
    """The field ``cfg[key]`` as ``typ`` (int, float, bool, str or list).

    An absent key gives ``default``; without one the key is required.
    """
    if key not in cfg or (cfg[key] is None and default is None):
        if default is _REQUIRED:
            raise ValidationError(f"{where}: missing config key {key!r}")
        return default
    return _typed(cfg[key], f"{where}.{key}", typ)


def numbers(cfg: dict, key: str, where: str, typ: type, default=_REQUIRED) -> list:
    """The field ``cfg[key]`` as a JSON list of ``typ`` values."""
    items = value(cfg, key, where, list, default)
    return [_typed(item, f"{where}.{key}[{i}]", typ) for i, item in enumerate(items)]


def array(cfg: dict, key: str, where: str, rows: bool = False) -> np.ndarray:
    """The field ``cfg[key]`` as a read-only float array: a JSON list of
    numbers, or with ``rows`` a list of such lists.

    The entries are checked in one pass over their types rather than one
    ``numbers`` call each, as a fit file holds thousands of them.
    """
    items = value(cfg, key, where, list)
    if rows and not all(type(row) is list for row in items):
        raise ValidationError(f"{where}.{key} must be a list of lists")
    flat = list(chain.from_iterable(items)) if rows else items
    if not set(map(type, flat)) <= {int, float}:
        bad = next(x for x in flat if type(x) not in (int, float))
        raise ValidationError(f"{where}.{key} must hold JSON numbers only, got {bad!r}")
    try:
        arr = np.array(items, dtype=float)
    except (OverflowError, ValueError) as exc:
        raise ValidationError(f"{where}.{key} is not a numeric array ({exc})") from None
    arr.flags.writeable = False
    return arr


@contextmanager
def naming(where):
    """Prefix ``where: ``, a file or field read, to a ValidationError raised in the block."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


@contextmanager
def open_text(path, mode: str = "r"):
    """``path`` as UTF-8 text to read ("r") or write ("w", with no newline
    translation, as csv needs); an OSError in the block, or a
    UnicodeDecodeError as the block reads the file, is a ValidationError.
    The latter names the fault of decoding the whole file once more, at a
    byte offset in the file, not in the chunk of a reader that reads in chunks."""
    verb = "read" if mode == "r" else "write"
    try:
        try:
            with open(path, mode, encoding="utf-8", newline=None if mode == "r" else "") as fh:
                yield fh
        except UnicodeDecodeError:
            with suppress(OSError), open(path, "rb") as fh:
                fh.read().decode("utf-8")
            raise
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot {verb} {path}: {exc}") from None


def read_json(path) -> dict:
    """Load a JSON file whose top level is an object."""
    try:
        with open_text(path) as fh:
            payload = json.load(fh)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: top-level JSON object expected")
    return payload


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with a trailing newline."""
    with open_text(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
