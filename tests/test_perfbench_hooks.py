"""The benchmark's hooks into the library.

perfbench/workloads.py wraps layer functions in spans by (module,
attribute), and perfbench/kernels.py builds its per-node cases from the
graph's node kinds and the relaxation state. A library refactor that
renames either, or changes the layout of what the cases read, breaks
`perfbench/run.py --trace 1` only at benchmark time; these tests catch it
here. The benchmark's files are imported, never changed.
"""

import importlib
import os
import sys

import pytest

import arelax.harness  # noqa: F401  (workloads.Arelax reads the loaded modules)

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
BENCH_MODULES = ("workloads", "kernels", "stats", "calib", "spans")


@pytest.fixture(scope="module")
def bench():
    """(workloads module, its Arelax view of the loaded library); the
    benchmark's top-level module names leave sys.modules afterwards."""
    shadowed = {m: sys.modules.pop(m) for m in BENCH_MODULES if m in sys.modules}
    sys.path.insert(0, BENCH)
    try:
        workloads = importlib.import_module("workloads")
        yield workloads, workloads.Arelax()
    finally:
        sys.path.remove(BENCH)
        for m in BENCH_MODULES:
            sys.modules.pop(m, None)
        sys.modules.update(shadowed)


def test_every_span_target_exists(bench):
    workloads, ar = bench
    for module, attr, span in workloads.span_targets(ar):
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


@pytest.mark.parametrize("model", ["mlp4", "cnn"])
def test_kernel_cases_build(bench, model):
    workloads, ar = bench
    cases = workloads.kernels.cases(ar, model)
    kinds = {c.kernel for c in cases}
    assert {"matmul", "outer"} <= kinds
    if model == "cnn":
        assert {"conv2d", "im2col", "col2im", "maxpool2d_scatter"} <= kinds
    # the cases read the library's saved record (the conv columns through
    # RelaxState.cols_bar, the argmax maps through pool_idx) and call its
    # kernels: run each once, so a layout change that breaks them fails here
    for c in cases:
        c.fn()
