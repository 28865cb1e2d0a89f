"""The benchmark's trace sites resolve.

`perfbench/run.py --trace 1` wraps balmod functions by module and name
(`ldpc._balancing_index_arr`, `bec.check_interval_sets`,
`IntervalSet.intersect`, ...).  A refactor that drops or renames one of them
would otherwise fail only in a traced benchmark run.  This reads perfbench/
and changes nothing there.
"""

import importlib.util
import inspect
from pathlib import Path

from balmod import bec, ldpc, words

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_site_wraps_and_unwraps():
    run, tracing = load("run"), load("tracing")
    tracer = tracing.Tracer()
    try:
        run.wrap_balmod(tracer)
        sites = list(tracer._undo)
        assert sites
        for owner, attr, _ in sites:
            wrapped = inspect.getattr_static(owner, attr)
            assert getattr(getattr(wrapped, "__func__", wrapped), "__perfbench_traced__", False)
    finally:
        tracer.uninstall()
    for owner, attr, original in sites:
        assert inspect.getattr_static(owner, attr) is original
    assert ldpc._balancing_index_arr is bec._balancing_index_arr is words.find_balancing_index
