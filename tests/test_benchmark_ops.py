"""One pass of each benchmark workload through its correctness gates.

The benchmark under ``perfbench/`` calls the library with its own argument
lists; running a pass here makes a library change that breaks those calls
fail the test suite too.  That covers the three workloads listed in
``BENCHMARK.json`` and the unlisted ``sweep``, the only one that calls
``minimize_modulus`` and the ``zeta3_mode="disk"`` oracle.  The benchmark's
modules are imported from ``perfbench/`` itself.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("name", ["certify", "analysis", "casework", "sweep"])
def test_benchmark_pass(name):
    workload = WORKLOADS[name]
    tracer = tracing.NullTracer()
    for inp in workload.make_pass(np.random.default_rng(1)):
        workload.op(inp, tracer)
