"""The names and result fields that the benchmark's tracer reads.

`perfbench/tracing.py` wraps each (module, function) of its `TARGETS` by
name and its hooks read fields of the returned values, so deleting or
renaming one of them breaks `perfbench/run.py --trace 1` with an
`AttributeError`.  The tracer is read with `ast`, not imported.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from trank.asymptotics import TermBreakdown
from trank.mockforms import VerificationReport
from trank.units import KloostermanValue

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets() -> tuple:
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def test_every_traced_function_resolves():
    targets = _targets()
    assert targets
    for module, function in targets:
        assert callable(getattr(importlib.import_module(f"trank.{module}"), function)), \
            (module, function)


def test_result_fields_read_by_the_hooks():
    read = {
        KloostermanValue: {"terms", "k"},
        TermBreakdown: {"mordell_contributions", "dropped_terms"},
        VerificationReport: {"trials", "case"},
    }
    for cls, names in read.items():
        assert names <= {f.name for f in dataclasses.fields(cls)}, cls.__name__
