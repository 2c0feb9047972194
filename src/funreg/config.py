"""Typed reader for JSON config objects, and the JSON file pair.

Every field is read with its exact JSON type. An integer field needs a
JSON integer, so 2.7, 2.0, "2" and true are all rejected. A number field
takes a finite integer or float but not a boolean, and is returned as a
float. A flag needs a JSON boolean, a string field a JSON string and a
list field a JSON list. An optional field given as null reads as absent
when its default is None.
Objects are read by ``section`` (no missing and no unknown keys) and
``kind`` (the same, per value of the ``kind`` key). Every failure is a
``ValidationError`` that names the offending field.
"""

from __future__ import annotations

import json
import math

from .errors import ValidationError

_REQUIRED = object()

_NOUNS = {int: "an integer", float: "a finite number", bool: "a boolean", str: "a string", list: "a list"}


def section(cfg, where: str, required=(), optional=()) -> dict:
    """Check that ``cfg`` is an object with every required key and no
    key outside ``required`` and ``optional``; return it."""
    if not isinstance(cfg, dict):
        raise ValidationError(f"{where} config must be an object")
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
    if not isinstance(cfg, dict):
        raise ValidationError(f"{where} config must be an object")
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


def read_json(path) -> dict:
    """Load a JSON file whose top level is an object."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: top-level JSON object expected")
    return payload


def write_json(path, payload: dict) -> None:
    """Write ``payload`` as indented JSON with a trailing newline."""
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None
    with fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
