"""Deterministic JSON/CSV serialization for matrices and scan tables.

The output rule: every float is written with a fixed number of significant
digits (17 in JSON, 12 in CSV), so identical inputs always produce
byte-identical files and JSON matrices round-trip exactly through text.
JSON and CSV take the same values: Python or numpy scalars and bools,
strings, and (in JSON) None, dicts, lists, tuples and arrays, so builders
hand numpy values over as they are.  Complex arrays (matrices, jump vectors,
rates) are written by one helper as their ``re`` and ``im`` parts
(_complex_parts), and a matrix passes the number rule of models
(matrix_entries) and lists one label per row (_labels).
"""

from __future__ import annotations

import json
import os
from typing import Any, Iterable, Sequence

import numpy as np

from .errors import ParameterError
from .models import _check_finite_scalar, _count, _labels, _numbers, matrix_entries

JSON_SIG_DIGITS = 17
CSV_SIG_DIGITS = 12


def format_json_float(x: float) -> str:
    """Render a float with 17 significant digits (exact decimal round trip)."""
    x = _check_finite_scalar("serialized value", x)
    if x == int(x) and abs(x) < 1e16:
        # keep a trailing ".0" so the value parses back as a float
        return f"{x:.1f}"
    return f"{x:.{JSON_SIG_DIGITS}g}"


def format_csv_float(x: float) -> str:
    return f"{_check_finite_scalar('serialized value', x):.{CSV_SIG_DIGITS}g}"


def dumps_json(obj: Any) -> str:
    """Serialize dicts/lists/scalars with fixed float formatting.

    Dict key order is preserved, so callers control the output layout.
    Python and numpy scalars, bools, tuples and arrays are taken as they are.
    """
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_json_float(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(str(k))}: {dumps_json(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return dumps_json(obj.tolist())
    raise ParameterError(f"cannot serialize object of type {type(obj).__name__}")


def write_json(path: str, obj: Any) -> None:
    text = dumps_json(obj)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")


def read_json(path: str) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _complex_parts(values) -> dict:
    """{"re": ..., "im": ...} of an array: the one way complex values are written."""
    return {"re": np.real(values), "im": np.imag(values)}


def matrix_payload(entries, labels: Sequence[str]) -> dict:
    """Square matrix as {dim, labels, re, im} with row-major entries; the entries pass
    matrix_entries and the labels _labels, each ParameterError naming ``matrix payload``."""
    m = matrix_entries(entries, "matrix payload")
    return {"dim": m.shape[0], "labels": _labels("matrix payload", labels, m.shape[0]),
            **_complex_parts(m)}


def matrix_from_payload(payload: dict,
                        source: str = "matrix payload") -> tuple[np.ndarray, tuple[str, ...]]:
    """Inverse of :func:`matrix_payload`, bit for bit (signed zeros included); ``dim``, the
    ``re`` and ``im`` entries and the labels pass the gates of models (_count, _numbers,
    _labels), and every error names ``source``."""
    try:  # a payload that is no JSON object raises TypeError here too
        dim = _count(f"{source} dim", payload["dim"])
        labels = _labels(source, tuple(payload["labels"]), dim)
        re, im = _numbers(f"{source} re", payload["re"]), _numbers(f"{source} im", payload["im"])
    except (KeyError, TypeError) as exc:
        raise ParameterError(f"{source}: malformed matrix payload: {exc}") from exc
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise ParameterError(
            f"{source} shape mismatch: dim={dim}, re{re.shape}, im{im.shape}")
    m = np.empty((dim, dim), dtype=complex)
    m.real, m.imag = re, im  # re + 1j * im would drop the sign of a -0.0
    return m, labels


def write_matrix(path: str, entries, labels: Sequence[str]) -> None:
    write_json(path, matrix_payload(entries, labels))


def read_matrix(path: str) -> tuple[np.ndarray, tuple[str, ...]]:
    return matrix_from_payload(read_json(path), path)


def _format_cell(v: Any) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v)).lower()
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format_csv_float(v)


def write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence[Any]],
              comments: Sequence[str] = ()) -> None:
    """Write a CSV table with optional '#' comment lines above the header."""
    lines = [f"# {c}" for c in comments]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    """Read back a CSV written by :func:`write_csv` (comments skipped)."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ParameterError(f"empty CSV file: {path}")
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


def ensure_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
