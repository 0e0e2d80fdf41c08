"""The benchmark's tracer and checker still find every library name they read.

`bench/spans.py` swaps each (module, name) pair in its TRACE_POINTS table,
and `OracleSpec.solution_mask`, for a wrapper that records a span while a
traced run (`bench/run.py --trace 1`) is in progress. A library change that
renames or deletes one of those names breaks the traced run with an
AttributeError; entering and leaving the tracer here catches that in the
library's own suite. `bench/checks.py` expands Grover's measured index
from the reduction's dense `kernel` and `offset`; its expansion must stay
the library's, or every checked `grover_known` op fails.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from xorsat_reduce import grover, solvers, sweeps
from xorsat_reduce.instances import Clause, Instance, Literal, gen_locked_random
from xorsat_reduce.reduction import Reduction, expand_index, reduce_instance

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench("spans")


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
    # count_enumerate -> reduce_instance, nested in its caller; the scan never builds the walk's form.
    names = [tracer.names[span[0]] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["solvers.scan", "reduction.reduce"]
    assert parents == [-1, 0]


def test_kernel_sweep_spans_time_generation_and_the_packed_rank():
    """A kernel sample generates, builds the packed parity system and ranks it, each under the sweep."""
    spans = load_spans()
    tracer = spans.Tracer()
    with tracer.installed():
        rows, _ = sweeps.kernel_sweep(sweeps.SweepConfig("occ1in3", (12,), 1.0, samples=1, threads=1))
    assert [row["kind"] for row in rows] == ["sample"]
    names = [tracer.names[span[0]] for span in tracer.spans]
    parents = [span[3] for span in tracer.spans]
    assert names == ["sweeps.kernel_sweep", "instances.gen", "reduction.build_linear_system", "gf2.rank"]
    assert parents == [-1, 0, 0, 0]


def test_checker_expands_indices_like_the_library():
    checks = load_bench("checks")
    corpus = [Instance(1, (Clause((Literal(0),), 1),)), Instance(4, ()),
              Instance(3, (Clause((Literal(0), Literal(1), Literal(2)), 3),))]
    corpus += [gen_locked_random(n, -(-2 * n // 3), 3, 1, seed=n) for n in (12, 25, 40)]
    for inst in corpus:
        red = reduce_instance(inst)
        assert isinstance(red, Reduction)
        k = red.free_count
        for index in sorted({0, 1, 5, (1 << k) // 3, (1 << k) - 1} & set(range(1 << k))):
            got, want = checks._expand_index(red, index), expand_index(red, index)
            assert got.dtype == want.dtype == np.uint8 and np.array_equal(got, want), (inst.n, index)
