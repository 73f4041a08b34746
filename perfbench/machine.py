"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the same single-threaded work can take twice as long
from one minute to the next, and the process cannot see why: the time
shows up as its own CPU time, not as steal. Every workload therefore
runs short samples of :func:`reference_task` between pieces of its own
work, and reports the times of its CPU-bound work at the reference
speed, ``raw / slowdown``, where ``slowdown`` is the run's mean
reference time over :data:`REFERENCE_S`. The task is the benchmark's own
code, so a change to the program under test never moves it; it only
follows the machine.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: Seconds one :func:`reference_task` takes at the reference speed. The
#: value is arbitrary, since it cancels in every comparison; it was set
#: near the task's median on a 2-vCPU Xeon VM so adjusted numbers read
#: close to raw ones there.
REFERENCE_S = 0.002
#: Reference tasks per sample.
TASKS_PER_SAMPLE = 20
_STEPS = 400


def reference_task() -> float:
    """Small-array NumPy calls in an interpreted loop, as a cell step is."""
    a = np.linspace(0.1, 1.0, 8)
    b = np.full(8, 0.5)
    total = 0.0
    for i in range(_STEPS):
        c = np.minimum(a * b + 0.25, 1.0)
        total += float(np.maximum(c - 0.1, 0.0).sum()) + (i * i) % 7
    return total


class MachineSpeed:
    """Reference samples taken through one run."""

    def __init__(self) -> None:
        self.samples_s: List[float] = []

    def sample(self) -> None:
        """Time :data:`TASKS_PER_SAMPLE` reference tasks, per task."""
        t0 = time.perf_counter()
        for _ in range(TASKS_PER_SAMPLE):
            reference_task()
        self.samples_s.append((time.perf_counter() - t0) / TASKS_PER_SAMPLE)

    def slowdown(self) -> float:
        """Mean reference time over :data:`REFERENCE_S`; above 1 is slower."""
        return statistics.fmean(self.samples_s) / REFERENCE_S
