"""JSON schemas for matrices and small numeric artifacts.

A complex matrix is stored as ``{"rows": r, "cols": c, "re": [...], "im":
[...]}`` with entries flattened in row-major order.  The CLI reads and
writes its matrices through this schema, except the density matrices of a
trajectory, which :class:`~susygate.filter_fit.Trajectory` stores as d² real
Hermitian coordinates.  Every input file is read through
:func:`read_input`, so an error in a file's content names the file.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import NonFiniteError


def matrix_to_json(a: np.ndarray) -> dict:
    """Encode a (possibly complex) 2-D array into the matrix schema."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    rows, cols = a.shape
    flat = a.reshape(-1)
    return {"rows": rows, "cols": cols, "re": flat.real.tolist(), "im": flat.imag.tolist()}


def float_array(values, name: str) -> np.ndarray:
    """A JSON number, or a (nested) list of them, as a finite float array.
    NumPy would read a string such as "1.5" or a boolean as a number, and
    null as NaN; each of these, and NaN or ±inf (JSON's ``NaN``,
    ``Infinity``, an overflowing 1e400 or an integer too large for a
    double), raises ValueError naming ``name``."""
    items = values if type(values) is list else [values]
    while items and all(type(v) is list for v in items):
        items = [x for v in items for x in v]
    if not {str, bool}.isdisjoint(map(type, items)):
        raise ValueError(f"{name}: a string or a boolean where a number belongs")
    try:
        array = np.asarray(values, dtype=float)
    except OverflowError:  # an integer too large for a double
        array = np.array(np.inf)
    if not np.isfinite(array).all():
        raise ValueError(f"{name}: null, NaN or an infinite number where a finite one belongs")
    return array


def scalar(obj: dict, key: str, kind: type[int] | type[float]) -> int | float:
    """``obj[key]`` as an int or a finite float.  An int takes only a JSON
    integer, a float also takes one; a string or a boolean, which ``int`` and
    ``float`` would convert, a NaN or ±inf float, or for a float an integer
    too large for a double raises ValueError naming ``key``."""
    value = obj[key]
    if type(value) not in ((int,) if kind is int else (int, float)):
        raise ValueError(f"{key}: {value!r} is not {'an integer' if kind is int else 'a number'}")
    try:
        number = kind(value)
    except OverflowError:  # an integer too large for a double
        number = math.inf
    if kind is float and not math.isfinite(number):
        raise ValueError(f"{key}: {value!r} is not a finite number")
    return number


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the matrix schema back into a complex ndarray."""
    try:
        rows, cols = scalar(obj, "rows", int), scalar(obj, "cols", int)
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a matrix object: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ValueError(
            f"entry count {len(re)}/{len(im)} does not match {rows}x{cols}"
        )
    re, im = float_array(re, "re"), float_array(im, "im")
    # part by part: re + 1j * im would turn a -0.0 into +0.0
    a = np.empty(rows * cols, dtype=complex)
    a.real, a.imag = re, im
    return a.reshape(rows, cols)


def save_json(path: str | Path, obj) -> None:
    """Write ``obj`` as compact, sorted-key JSON; NaN or ±inf anywhere raises
    :class:`NonFiniteError` and leaves ``path`` unwritten."""
    try:
        text = json.dumps(obj, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"{Path(path).name}: {exc}") from exc
    Path(path).write_text(text + "\n")


class LineError(ValueError):
    """A content error on line ``line`` of an input file."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line


def read_input(path: str | Path, decode):
    """``decode`` applied to the bytes of the file at ``path``.  An error in
    their content (a ``UnicodeDecodeError`` is a ``ValueError``) becomes a
    ValueError that names the file, and the line for a :class:`LineError`."""
    data = Path(path).read_bytes()
    try:
        return decode(data)
    except LineError as exc:
        raise ValueError(f"{path}:{exc.line}: {exc}") from exc
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def parse_json(data: str | bytes):
    try:
        return json.loads(data)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValueError("JSON nested too deeply") from exc


def load_json(path: str | Path):
    return read_input(path, parse_json)
