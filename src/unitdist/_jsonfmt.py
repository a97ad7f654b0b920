"""Deterministic JSON emission with fixed 17-significant-digit floats.

The stdlib json module formats floats with repr(), whose digit count varies
by value.  Artifacts here must be byte-identical across runs, so floats are
always written with 17 significant digits (enough for an exact float64
round trip).  Non-finite floats become null.

json_number and json_index check every number read from an artifact, in the
solutions reader and the Graph, Drawing and IncidenceStructure constructors:
a string or boolean is neither a number nor an index; numbers are finite.
"""

from __future__ import annotations

import json
import math
from operator import index

_INDENT = 2


def json_number(value) -> float:
    """A finite number as a float; TypeError, ValueError or OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {number}")
    return number


def json_index(value) -> int:
    """A parsed JSON integer; TypeError for a float, string or boolean."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got bool")
    # index(), unlike int(), rejects a float instead of truncating it
    return index(value)


def format_float(value: float) -> str:
    if not math.isfinite(value):
        return "null"
    text = format(float(value), ".17g")
    if "." not in text and "e" not in text:
        text += ".0"
    return text


def dumps(obj) -> str:
    """Serialize dicts/lists/scalars; dict keys keep insertion order."""
    pieces: list[str] = []
    _emit(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def _emit(obj, level: int, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad = " " * (_INDENT * (level + 1))
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key).__name__}")
            out.append(pad + json.dumps(key) + ": ")
            _emit(value, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(" " * (_INDENT * level) + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        pad = " " * (_INDENT * (level + 1))
        out.append("[\n")
        for i, value in enumerate(obj):
            out.append(pad)
            _emit(value, level + 1, out)
            out.append(",\n" if i < len(obj) - 1 else "\n")
        out.append(" " * (_INDENT * level) + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
