"""JSON schemas for matrices and small numeric artifacts.

A complex matrix is stored as ``{"rows": r, "cols": c, "re": [...], "im":
[...]}`` with entries flattened in row-major order.  Every CLI subcommand
reads and writes matrices through this schema.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import NonFiniteError


def matrix_to_json(a: np.ndarray) -> dict:
    """Encode a (possibly complex) 2-D array into the matrix schema."""
    a = np.atleast_2d(np.asarray(a, dtype=complex))
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {a.shape}")
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    """Decode the matrix schema back into a complex ndarray."""
    try:
        rows, cols = int(obj["rows"]), int(obj["cols"])
        re, im = obj["re"], obj["im"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a matrix object: {exc}") from exc
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    if len(re) != rows * cols or len(im) != rows * cols:
        raise ValueError(
            f"entry count {len(re)}/{len(im)} does not match {rows}x{cols}"
        )
    re, im = np.asarray(re, dtype=float), np.asarray(im, dtype=float)
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise ValueError("matrix entries must be finite")
    return (re + 1j * im).reshape(rows, cols)


def save_json(path: str | Path, obj) -> None:
    """Write ``obj`` as JSON; NaN or ±inf anywhere raises
    :class:`NonFiniteError` and leaves ``path`` unwritten."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NonFiniteError(f"{Path(path).name}: {exc}") from exc
    Path(path).write_text(text + "\n")


def parse_json(data: str | bytes, source):
    try:
        return json.loads(data)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{source}: invalid JSON ({exc})") from exc


def load_json(path: str | Path):
    return parse_json(Path(path).read_text(), path)
