"""Host speed: a fixed mix of interpreter and numpy work that never calls collapselab.

On a shared virtual machine the speed of the CPU drifts by 30% and more
over tens of seconds, as other tenants load the same physical cores; the
reference box's process CPU time drifted as much as its wall time, so the
drift is not descheduling that a CPU clock would leave out. run.py runs
this kernel between set-ups and between executions, and multiplies the
wall times of each phase (set-up, timed loop) by REFERENCE_S over the
mean of the kernel's times around that phase, so that the drift that
both see cancels. REFERENCE_S is the
kernel's mean time on the reference box (2-vCPU Intel Xeon VM,
Python 3.11, numpy 2.4), so that there the rescaled times stay close to
wall seconds.

The mix follows what the workloads spend their time on: the interpreter
(CSV parsing, EM bookkeeping), many small numpy calls (EM steps) and
blocked broadcast-difference distance kernels (the neighbor module). It
runs on one thread, as the timed executions do.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.25
_ROUNDS = 12

_rng = np.random.default_rng(12345)
_LINES = [",".join(repr(float(v)) for v in row) + ",real" for row in _rng.standard_normal((3000, 2))]
_SMALL = _rng.standard_normal((1000, 4))
_QUERIES = _rng.standard_normal((200, 2))
_REFS = _rng.standard_normal((1000, 2))


def _interpreter() -> float:
    total = 0.0
    for line in _LINES:
        cells = line.split(",")
        total += sum(float(c) for c in cells[:-1]) if cells[-1] == "real" else 0.0
    return total


def _small_numpy() -> float:
    total = 0.0
    for _ in range(100):
        centred = _SMALL - _SMALL.mean(axis=0)
        total += float(np.exp(-0.5 * (centred * centred).sum(axis=1)).sum())
    return total


def _distances() -> float:
    diff = _QUERIES[:, None, :] - _REFS[None, :, :]
    return float(np.einsum("ijk,ijk->ij", diff, diff).min(axis=1).sum())


def kernel_s() -> float:
    """Wall seconds of one pass over the fixed mix."""
    start = time.perf_counter()
    for _ in range(_ROUNDS):
        _interpreter()
        _small_numpy()
        _distances()
    return time.perf_counter() - start
