"""JSON schemas for matrices and small numeric artifacts.

A complex matrix is stored as ``{"rows": r, "cols": c, "re": [...], "im":
[...]}`` with entries flattened in row-major order.  Every CLI subcommand
reads and writes matrices through this schema.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


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
    a = np.asarray(re, dtype=float) + 1j * np.asarray(im, dtype=float)
    return a.reshape(rows, cols)


def save_json(path: str | Path, obj) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path: str | Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
