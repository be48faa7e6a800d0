"""A fixed reference kernel that gauges how fast the machine runs right now.

A shared virtual machine can change speed by tens of percent within minutes
(other tenants, host frequency changes); on a 2-vCPU VM a fixed pure-Python
loop's 10-second medians spread 18% between windows. The benchmark times this
kernel before each command of a pass and after the last one, and reports the
pass's timings multiplied by `REFERENCE_S / mean kernel time in the pass`:
seconds at the speed at which the kernel takes `REFERENCE_S`. The kernel is
the same code on every commit, so the factor rescales the machine, never the
program. Raw timings stay in the report.

The kernel mixes the kinds of work the package does: string formatting and
dict updates in a Python loop (CSV writing, grouping), and small numpy calls
in a Python loop (forward-backward, per-event label building).
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's median time on a 2-vCPU Intel Xeon VM, so that reference
# seconds read close to wall seconds there
REFERENCE_S = 0.033

_TRANSITION = np.array([[0.95, 0.05], [0.1, 0.9]])
_EMISSION = np.array([0.4, 0.7])


def kernel() -> float:
    counts: dict[str, float] = {}
    for i in range(9_600):
        line = f"2024-01-{i % 28 + 1:02d}T{i % 24:02d}:{i % 60:02d},{i * 0.001:.6f}"
        key = line[:10]
        counts[key] = counts.get(key, 0.0) + len(line)
    alpha = np.ones(2)
    for _ in range(2_400):
        alpha = (alpha @ _TRANSITION) * _EMISSION
        alpha /= alpha.sum()
    return sum(counts.values()) + float(alpha[0])


def time_kernel() -> float:
    """Wall time of one run of the kernel, in seconds."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
