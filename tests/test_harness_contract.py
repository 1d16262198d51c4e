"""The benchmark harness (perfbench/layers.py) wraps hsframe functions by
name and reads ``ConvergenceRecord.flagged`` and the cached
``HSFrameFamily.synthesis_matrix``.  Read its name table without running it,
so that a rename fails here and not only in a benchmark run."""

import ast
import dataclasses
import functools
import importlib
from pathlib import Path

from hsframe import ConvergenceRecord, HSFrameFamily

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _public_table() -> dict:
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PUBLIC" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PUBLIC table in {LAYERS}")


def test_every_wrapped_name_resolves():
    table = _public_table()
    assert table
    missing = [
        f"{module}.{name}"
        for module, names in table.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"hsframe.{module}"), name, None))
    ]
    assert missing == []


def test_read_attributes_exist():
    assert "flagged" in {f.name for f in dataclasses.fields(ConvergenceRecord)}
    prop = HSFrameFamily.__dict__["synthesis_matrix"]
    assert isinstance(prop, functools.cached_property)
