"""The names, result fields and command lines that the benchmark uses.

`perfbench/tracing.py` wraps each (module, function) of its `TARGETS` by
name and its hooks read fields of the returned values, so deleting or
renaming one of them breaks `perfbench/run.py --trace 1` with an
`AttributeError`.  The tracer is read with `ast`, not imported.
`perfbench/workloads.py` builds the `trank` argv of every request, so
dropping an option it sends makes each such request exit 2.
"""

import ast
import dataclasses
import importlib
from pathlib import Path

from trank.asymptotics import TermBreakdown
from trank.cli import _build_parser
from trank.mockforms import VerificationReport
from trank.units import KloostermanValue

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


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


def test_every_workload_argv_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    argvs = []
    for name, rounds in workloads.WORKLOADS.items():
        source = rounds(1, [])
        for _ in range(workloads.MIN_ROUNDS[name]):
            argvs += [op.argv for op in source.round()]
    assert len(argvs) == 39
    for argv in argvs:
        _build_parser().parse_args(argv)  # an unknown option exits 2
