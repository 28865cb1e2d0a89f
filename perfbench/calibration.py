"""Host-speed reference for the end-to-end timings.

On a shared host the same code runs up to ~1.5x slower for tens of seconds
at a time while CPU time still equals wall time: other tenants take shared
resources such as caches and memory bandwidth, not our time slices.  Every
run therefore times a fixed reference kernel between blocks of trials and
scales each block's timings by kernel time / nominal kernel time, i.e.
reports them at the speed of a host that runs the kernel in its nominal
time.

Contention slows memory-bound array passes, small-call Python loops and
scalar loops by different factors, so each workload's kernel imitates the
mix of its own trial.  Set-up time is scaled the same way, in two parts:
its imports by the `imports` kernel, its code construction and warm-up
trial by the workload's kernel (setup_at_nominal).  The kernels never call
balmod: a change to balmod does not move them.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

_rng = np.random.default_rng(20120904)
_SORTED = np.sort(_rng.standard_normal(10_000))
_SMALL = _rng.integers(0, 2, 4096).astype(np.int8)
_IDX = _rng.integers(0, 4096, (3000, 7))
_MODULE = "".join(
    f"def f{i}(a, b=1, *c, **d):\n"
    f"    x = [a + b * j for j in range(10)]\n"
    f"    return {{'k': x, 'v': (a, b, c, d)}}\n"
    f"class C{i}:\n"
    f"    def m(self, y):\n"
    f"        return y * {i}\n"
    for i in range(400))


def _loo(t: np.ndarray) -> np.ndarray:
    pre = np.empty_like(t)
    pre[..., 0] = 1.0
    np.cumprod(t[..., :-1], axis=-1, out=pre[..., 1:])
    suf = np.empty_like(t)
    suf[..., -1] = 1.0
    suf[..., :-1] = np.cumprod(t[..., :0:-1], axis=-1)[..., ::-1]
    return pre * suf


class ArrayPasses:
    """Elementwise tanh / leave-one-out product / arctanh passes and a
    gather over a (shifts, checks, 7) array, as the batch shift scorer does."""

    def __init__(self, shifts: int, checks: int):
        self.m = _rng.standard_normal((shifts, checks, 7))
        self.perm = _rng.permutation(checks * 7)

    def __call__(self) -> None:
        m = self.m
        shifts, checks, b = m.shape
        t = np.tanh(0.5 * m)
        rc = 2.0 * np.arctanh(np.clip(_loo(t), -0.999999, 0.999999))
        m = rc.reshape(shifts, -1)[:, self.perm].reshape(shifts, checks, b)
        np.prod(np.tanh(0.5 * m), axis=2).sum()


def small_calls(count: int) -> None:
    """Python loop of numpy calls on 7-element slices, as BP's and the
    erasure decoder's per-check loops do."""
    acc = 0
    for row in _IDX[:count]:
        vals = _SMALL[row]
        if np.all(vals != -1):
            acc ^= int(np.sum(vals) % 2)


def interval_ops(count: int) -> None:
    """Pure-Python merges of sorted (lo, hi) tuples, as the inversion-set
    bookkeeping does."""
    a = tuple((i, i + 3) for i in range(0, 60, 5))
    b = tuple((i, i + 4) for i in range(1, 60, 7))
    for _ in range(count):
        out, i, j = [], 0, 0
        while i < len(a) and j < len(b):
            lo, hi = max(a[i][0], b[j][0]), min(a[i][1], b[j][1])
            if lo < hi:
                out.append((lo, hi))
            if a[i][1] <= b[j][1]:
                i += 1
            else:
                j += 1
        sum(hi - lo for lo, hi in out)


def scalar_loop() -> None:
    """Sort 10 000 values and walk them with numpy scalar arithmetic, as the
    genie threshold scan does."""
    asc = np.sort(_SORTED[::-1])
    best = None
    for j in range(1, asc.size):
        if asc[j - 1] < asc[j]:
            v = 0.5 * (asc[j - 1] + asc[j])
            if best is None or v < best[0]:
                best = (v, j)


def compile_module() -> None:
    """Compile and execute a synthetic module of 400 functions and 400
    classes, as an import does."""
    exec(compile(_MODULE, "<reference>", "exec"), {})


class Kernel:
    """Weighted sum of the parts above, with its nominal time in seconds
    (its median time on the 2-vCPU KVM guest where the benchmark was
    defined; it only fixes the scale of the reported units)."""

    def __init__(self, nominal_s: float, *parts, reps: int = 3):
        self.nominal_s = nominal_s
        self.parts = parts
        self.reps = reps

    def __call__(self) -> None:
        for part in self.parts:
            part()

    def scale(self) -> float:
        """Median kernel time over its nominal time: 1.3 means the host runs
        1.3x slower than nominal right now."""
        times = []
        for _ in range(self.reps):
            t0 = perf_counter()
            self()
            times.append(perf_counter() - t0)
        return statistics.median(times) / self.nominal_s


# Built on first use, so a workload allocates only its own kernel's arrays.
KERNELS = {
    "scorer-280": lambda: Kernel(0.029, ArrayPasses(280, 160), lambda: small_calls(1000)),
    # 10 MB arrays, timed once per measurement to keep the overhead near 10%
    "scorer-1120": lambda: Kernel(0.082, ArrayPasses(280, 640), reps=1),
    "peeling": lambda: Kernel(0.024, lambda: small_calls(1500),
                              lambda: interval_ops(200)),
    "threshold-scan": lambda: Kernel(0.008, scalar_loop),
    "imports": lambda: Kernel(0.084, compile_module),
}


def setup_at_nominal(import_s: float, rest_s: float, kernel: Kernel) -> float:
    """Set-up time at nominal host speed, from its two parts timed in this
    process just before: imports scaled by the `imports` kernel, code
    construction and warm-up by the workload's own kernel.  Timed in the
    same process, the kernels see the host state the set-up saw; see
    "Set-up time" in README.md."""
    return import_s / KERNELS["imports"]().scale() + rest_s / kernel.scale()
