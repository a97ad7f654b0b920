"""Deterministic JSON emission with fixed 17-significant-digit floats.

dumps(obj) is json.dumps(obj, indent=2) followed by a newline, except for
floats.  The stdlib json module formats floats with repr(), whose digit
count varies by value.  Artifacts here must be byte-identical across runs,
so floats are always written with 17 significant digits (enough for an
exact float64 round trip).  Non-finite floats become null.

json_number and json_index check every number read from an artifact, in the
solutions reader and the Graph, Drawing and IncidenceStructure constructors
(the last two through json_points): a string or boolean is neither a number
nor an index; numbers are finite.
"""

from __future__ import annotations

import json
import math
from operator import index


def json_number(value) -> float:
    """A finite number as a float; TypeError, ValueError or OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"expected a number, got {type(value).__name__}")
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {number}")
    return number


def json_points(points) -> tuple[tuple[float, float], ...]:
    """Each (x, y) pair as a pair of finite floats, as json_number gives them.

    An exact float with x - x == 0.0, which inf and nan fail, is already
    json_number's result and passes unchanged; anything else goes through it.
    """
    return tuple((x if type(x) is float and x - x == 0.0 else json_number(x),
                  y if type(y) is float and y - y == 0.0 else json_number(y))
                 for x, y in points)


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
    """Serialize dicts, lists, tuples and scalars, keeping dict key order."""
    out: list[str] = []
    _emit(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _emit(obj, newline: str, out: list[str]) -> None:
    """Append obj's JSON text to out.  newline is a line break plus the
    indent of obj's first line, which its closing bracket shares."""
    if isinstance(obj, float):
        out.append(format_float(obj))
    elif isinstance(obj, int) and not isinstance(obj, bool):
        out.append(str(obj))
    elif obj is None or isinstance(obj, (bool, str)):
        out.append(json.dumps(obj))
    elif isinstance(obj, (dict, list, tuple)):
        brackets = "{}" if isinstance(obj, dict) else "[]"
        inner = newline + "  "
        separator = brackets[0] + inner
        for item in obj:
            out.append(separator)
            if brackets == "{}":    # item is a key
                if not isinstance(item, str):
                    raise TypeError(f"JSON object keys must be str, got {type(item).__name__}")
                out.append(json.dumps(item) + ": ")
                item = obj[item]
            _emit(item, inner, out)
            separator = "," + inner
        # the first item opened the bracket; an empty one is written whole
        out.append(newline + brackets[1] if obj else brackets)
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
