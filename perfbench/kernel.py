"""Fixed calibration work, timed next to every measured region.

On a shared machine the speed of a core drifts by tens of percent over
seconds to minutes.  Running this kernel just before a timed region, in
the same thread, measures that drift, and the region's time is scaled by
``SECONDS / kernel time``.  The kernel imports nothing, so a fresh
interpreter can run it before importing tracekit without paying part of
tracekit's import.
"""

import gc
import time

# the kernel's time on an idle core of the 2-core x86-64 machine the
# first results came from; scaled times are seconds at that speed
SECONDS = 0.002


def kernel() -> int:
    """Integer arithmetic, tuple keys, dicts, lists and a sort: the
    interpreter features tracekit leans on."""
    acc = 0
    table = {}
    rows = []
    for i in range(3000):
        acc += (i * 7919) % 1009 // (i % 5 + 1)
        table[(i, i % 13)] = [i] * 3
        rows.append((i % 17, -i))
    rows.sort()
    return acc + len(table)


def timed_kernel() -> float:
    """The kernel's time.  The collector is paused meanwhile: a collection
    set off by the kernel's allocations would traverse the whole heap and
    time the heap, not the core.  The kernel frees what it allocates, so
    it leaves the collector's counts as it found them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
