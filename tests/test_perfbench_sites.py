"""The benchmark's trace sites resolve, and its workloads still run.

`perfbench/run.py --trace 1` wraps balmod functions by module and name
(`ldpc._balancing_index_arr`, `bec.check_interval_sets`,
`IntervalSet.intersect`, ...), and `perfbench/workloads.py` calls balmod's
public functions with the argument types it was written against.  A
refactor that drops or renames one of them, or changes what it accepts or
returns, would otherwise fail only in a benchmark run.  This reads
perfbench/ and changes nothing there.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from balmod import bec, ldpc, words

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up by name
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


@pytest.mark.parametrize("name", ["bsc-280", "bsc-1120", "bec-256", "ber-10k"])
def test_workload_trials_pass_and_match_the_runner(name):
    # the first crosscheck_trials trials of seed 1, as a benchmark run checks them
    wl = load("workloads").WORKLOADS[name]
    wl.setup()
    outcomes = [wl.trial(1, k) for k in range(wl.crosscheck_trials)]
    assert [o.problems for o in outcomes] == [[]] * len(outcomes)
    assert wl.crosscheck(1, [o.record for o in outcomes]) == []
