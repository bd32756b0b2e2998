"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared cores whose speed changes by up to 1.7x within
seconds, so raw wall time moves by a quarter from one run to the next.  The
parent process therefore times a fixed NumPy kernel, independent of csrk,
just before and after each child process, and a timing is reported in units
of that kernel, scaled by the kernel's time on the reference machine (2-vCPU
Intel Xeon VM, Python 3.11, NumPy 2.4): seconds at reference speed.

Two kernels track the two ways the workloads spend time: ``dispatch``
repeats small-array operations, like 4096-path Monte Carlo chunks, and
``bandwidth`` streams 8 MB arrays, like the 1M-row enumeration slices.
"""

import statistics
import time

import numpy as np

_SMALL = np.linspace(0.0, 1.0, 4096)
_LARGE = np.linspace(0.0, 1.0, 1 << 20)


def _dispatch():
    y = np.zeros_like(_SMALL)
    t0 = time.perf_counter()
    for _ in range(300):
        y = y * 0.5 + 0.25 * _SMALL
        np.where(_SMALL < 0.3, -y, y)
    return time.perf_counter() - t0


def _bandwidth():
    y = np.zeros_like(_LARGE)
    t0 = time.perf_counter()
    for _ in range(4):
        y = y * 0.5 + 0.25 * _LARGE
        np.concatenate([y, _LARGE])
    return time.perf_counter() - t0


KERNELS = {"dispatch": _dispatch, "bandwidth": _bandwidth}
# median kernel time on the reference machine; never re-measured, so that
# timings stay comparable between commits
REFERENCE_S = {"dispatch": 0.004, "bandwidth": 0.020}


def _sample(kind, n=4):
    return [KERNELS[kind]() for _ in range(n)]


def around(kinds, fn):
    """Call ``fn`` between timings of each kernel in ``kinds``.

    Returns fn's result and, per kernel, the median of its timings before
    and after the call.
    """
    before = {k: _sample(k) for k in kinds}
    result = fn()
    return result, {k: statistics.median(before[k] + _sample(k)) for k in kinds}


def at_reference(seconds, cal, kind):
    """A timing taken next to kernel time ``cal[kind]``, at reference speed."""
    return seconds / cal[kind] * REFERENCE_S[kind]
