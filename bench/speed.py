"""Host-speed correction for the end-to-end times.

The benchmark runs on cores shared with other tenants.  Their load changes
how fast this process runs, by up to 1.9x between whole runs on a 2-vCPU
cloud host, and it slows every op alike.  Neither the wall clock nor the
process's CPU time sees the difference: both read the same.  So a fixed
reference kernel is timed between chunks of ops, and each op's time is
scaled by ``REF_S`` over the kernel's time around it.  The reported times
are those of a host on which the kernel takes ``REF_S``.

The kernel is written here and shares no code with tmlab, so a change to
tmlab moves the corrected times as much as the raw ones.  It runs with the
garbage collector off, so the heap tmlab leaves behind does not change its
time.  The raw times are kept in the run's report.
"""

from __future__ import annotations

import gc
import time

REF_S = 1e-3
CHUNK_S = 0.02  # op time between two kernel runs
_BIG = (1 << 30000) // 7


def kernel():
    """Float arithmetic, list and dict traffic, and two squarings of a
    30000-bit integer (without them the kernel tracks the big-integer
    rates work less well)."""
    acc, vals, table = 0.0, [], {}
    for i in range(800):
        x = (i * 0.37) % 1.0
        y = (x * x + 0.5) ** 0.5
        vals.append(y)
        table[i & 255] = y
        acc += y - x
    b = _BIG
    for _ in range(2):
        b = (b * b) >> 30000
    return acc + len(vals) + (b & 1)


def kernel_seconds():
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Speed:
    """The kernel's times, in order; ``factor`` runs it once more."""

    def __init__(self):
        self.kernel_s = [kernel_seconds()]

    def factor(self):
        """REF_S over the mean kernel time before and after the chunk of
        work that just ended."""
        self.kernel_s.append(kernel_seconds())
        return REF_S / (0.5 * (self.kernel_s[-2] + self.kernel_s[-1]))
