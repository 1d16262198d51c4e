"""Family files and report emission.

Families are stored as JSON: ``operators[j][i]`` is the d_k x d_k matrix
the j-th map assigns to the i-th basis vector, every complex entry a
``[re, im]`` pair.  Floats are written in Python's shortest round-trip
form, so load(save(F)) reproduces F bit for bit.  Report numerics use 17
significant digits for the same reason.  All writes go through a
temporary file plus rename.
"""

from __future__ import annotations

import json
import os
import tempfile
from datetime import datetime, timezone

import numpy as np

from .errors import ParseError, ValidationError
from .family import HSFrameFamily
from .projection import ConvergenceRecord

__all__ = [
    "FORMAT_VERSION",
    "CONVERGENCE_COLUMNS",
    "family_to_document",
    "family_from_document",
    "save_family",
    "load_family",
    "format_sig",
    "write_convergence_csv",
    "write_json_report",
    "utc_timestamp",
]

FORMAT_VERSION = 1

CONVERGENCE_COLUMNS = (
    "experiment",
    "timestamp",
    "seed",
    "n",
    "m_n",
    "r_n",
    "err_plain",
    "err_oversampled",
    "crit2",
    "crit3",
    "strong_residual",
)


def utc_timestamp() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def format_sig(x: float) -> str:
    """17 significant digits: enough for exact double round-trip."""
    return f"{x:.17g}"


def _atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".hsframe-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def family_to_document(family: HSFrameFamily) -> dict:
    operators = [
        [
            [[[float(z.real), float(z.imag)] for z in row] for row in image]
            for image in m.images
        ]
        for m in family.maps
    ]
    return {
        "format_version": FORMAT_VERSION,
        "dim_h": family.dim_h,
        "dim_k": family.dim_k,
        "count": family.count,
        "scalar": "complex128",
        "operators": operators,
    }


def family_from_document(doc) -> HSFrameFamily:
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    for key in ("format_version", "dim_h", "dim_k", "count", "scalar", "operators"):
        if key not in doc:
            raise ParseError(f"missing key {key!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {doc['format_version']!r}")
    if doc["scalar"] != "complex128":
        raise ParseError(f"unsupported scalar type {doc['scalar']!r}")
    dim_h, dim_k, count = doc["dim_h"], doc["dim_k"], doc["count"]
    for name, value in (("dim_h", dim_h), ("dim_k", dim_k), ("count", count)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    operators = doc["operators"]
    if not isinstance(operators, list) or len(operators) != count:
        raise ValidationError(
            f"operators must list {count} maps, got "
            f"{len(operators) if isinstance(operators, list) else type(operators).__name__}"
        )
    maps = []
    for j, op in enumerate(operators):
        try:
            arr = np.asarray(op, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"operators[{j}] is not numeric: {exc}") from exc
        if arr.shape != (dim_h, dim_k, dim_k, 2):
            raise ValidationError(
                f"operators[{j}] has shape {arr.shape}, "
                f"expected ({dim_h}, {dim_k}, {dim_k}, 2)"
            )
        # assemble via real/imag views so signed zeros survive the round trip
        images = np.empty(arr.shape[:-1], dtype=np.complex128)
        images.real = arr[..., 0]
        images.imag = arr[..., 1]
        maps.append(images)
    return HSFrameFamily(maps)


def save_family(family: HSFrameFamily, path: str) -> None:
    _atomic_write_text(path, json.dumps(family_to_document(family), indent=1) + "\n")


def load_family(path: str) -> HSFrameFamily:
    with open(path, "r") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    try:
        return family_from_document(doc)
    except (ParseError, ValidationError) as exc:
        exc.args = (f"{path}: {exc.args[0]}",) + exc.args[1:]
        raise


def write_convergence_csv(
    path: str,
    records: list[ConvergenceRecord],
    experiment: str,
    seed,
    timestamp: str | None = None,
) -> None:
    ts = timestamp if timestamp is not None else utc_timestamp()
    lines = [",".join(CONVERGENCE_COLUMNS)]
    for r in records:
        lines.append(
            ",".join(
                [
                    experiment,
                    ts,
                    str(seed),
                    str(r.n),
                    str(r.m_n),
                    str(r.r_n),
                    format_sig(r.err_plain),
                    format_sig(r.err_oversampled),
                    format_sig(r.crit2),
                    format_sig(r.crit3),
                    format_sig(r.strong_residual),
                ]
            )
        )
    _atomic_write_text(path, "\n".join(lines) + "\n")


def write_json_report(path: str, doc: dict) -> None:
    _atomic_write_text(path, json.dumps(doc, indent=1) + "\n")
