"""A fixed reference computation that measures how fast the box runs now.

The benchmark's host is shared, and its speed changes by a third or more in
phases that last from seconds to minutes.  Every process slows alike in a
slow phase, and a median over one run cannot remove a phase that covers the
run.  The runner therefore times this loop right before and after every
repetition, in the parent process and on the CPU its children run on, and
reports times scaled to the speed at which the loop takes ``NOMINAL_S``
(see ``README.md``).

The loop does the kinds of work the workloads do, in fixed shares: Python
bytecode, numpy calls on small arrays, and single-threaded dense linear
algebra.  It never calls diffnet, so a change to the package cannot move it.
"""
from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.14      # the loop's time on a 2-vCPU Xeon VM in a fast phase

_rng = np.random.default_rng(20140501)
_SMALL = _rng.standard_normal((40, 4))
_MIX = _rng.standard_normal((40, 40)) / 40.0
_MASK = _MIX > 0.0
_DENSE = _rng.standard_normal((120, 120))


def _python(n: int = 400000) -> int:
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1000003
    return acc


def _small_arrays(n: int = 1500) -> float:
    w = np.zeros_like(_SMALL)
    h = np.zeros_like(_SMALL)
    b = np.full(_MIX.shape, 0.5)
    for _ in range(n):
        resid = (_SMALL * _SMALL).sum(axis=1) - (_SMALL * w).sum(axis=1)
        update = _SMALL * resid[:, None]
        h = 0.9 * h + 0.1 * update
        active = _MASK & ((h @ h.T) > 0.0)
        b = np.where(active, 0.9 * b + 0.1, b)
        w = _MIX.T @ (w + 0.01 * update)
    return float(b.sum() + w.sum())


def _dense(n: int = 6) -> float:
    total = 0.0
    for _ in range(n):
        total += float(np.abs(np.linalg.eigvals(_DENSE)).max())
        total += float(np.linalg.inv(_DENSE + 120.0 * np.eye(120)).trace())
    return total


def reference_s() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _python()
    _small_arrays()
    _dense()
    return time.perf_counter() - t0
