"""The benchmark's outside-in tracer still finds every library name it wraps.

`bench/spans.py` swaps each (module, name) pair in its TRACE_POINTS table,
and `OracleSpec.solution_mask`, for a wrapper that records a span while a
traced run (`bench/run.py --trace 1`) is in progress. A library change that
renames or deletes one of those names breaks the traced run with an
AttributeError; entering and leaving the tracer here catches that in the
library's own suite.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from xorsat_reduce import grover, solvers
from xorsat_reduce.instances import Clause, Instance, Literal

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_trace_point():
    spans = load_spans()
    points = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in spans.TRACE_POINTS]
    mask = grover.OracleSpec.__dict__["solution_mask"]
    tracer = spans.Tracer()
    with tracer.installed():
        for owner, attr, original in points:
            assert getattr(owner, attr).__wrapped__ is original, f"{owner.__name__}.{attr}"
        traced_mask = grover.OracleSpec.__dict__["solution_mask"]
        assert traced_mask is not mask and traced_mask.func.__wrapped__ is mask.func
        chain = Instance(3, (Clause((Literal(0), Literal(1), Literal(2)), 1),))
        assert solvers.count_enumerate(chain) == 3
    for owner, attr, original in points:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    assert grover.OracleSpec.__dict__["solution_mask"] is mask
    # count_enumerate -> reduce_instance -> gf2.standard_form, each nested in its caller.
    names = [tracer.names[span[0]] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["solvers.scan", "reduction.reduce", "gf2.standard_form"]
    assert parents == [-1, 0, 1]
