"""Reference tasks that convert wall time to a fixed host speed.

The host this benchmark runs on is shared: over tens of seconds its speed
swings by 20 to 40 % for interpreter-bound code, and less for numpy-bound
code, as other tenants come and go.  Medians within one run cannot remove a
swing that lasts the whole run.  So each timed op is paired with a fixed
reference task that the benchmark itself owns, timed right before and right
after the op, and the op's time is rescaled to the speed at which the task
takes its nominal time:

    op seconds at reference speed = op wall seconds * NOMINAL_S / mean(task before, task after)

Each workload uses the task that does the same kind of work as its ops, so
the two slow down together: ``numpy_task`` (ufuncs over a 65,536-sample
array) for design-scan and ``python_task`` (formatting and parsing floats in
the interpreter) for the CLI workloads.  The tasks never call the program,
so a change to the program cannot move them.  The nominal times are those tasks' typical times on the
2-vCPU host of the README's reference figures; they only set the scale.
"""

from __future__ import annotations

import gc
from time import perf_counter
from typing import Callable

import numpy as np

_X = np.linspace(-3.0, 3.0, 65_536)


def python_task() -> float:
    """Write 6,000 floats as one CSV line and parse them back."""
    xs = [i * 1.000123 for i in range(6_000)]
    line = ",".join(repr(x) for x in xs)
    return sum(float(v) for v in line.split(","))


def numpy_task() -> float:
    """Elementwise exp, sin, powers and sqrt over a 65,536-sample array, twice."""
    acc = 0.0
    for _ in range(2):
        y = np.exp(-_X * _X) * np.sin(3.0 * _X) ** 2 + _X**4
        acc += float(np.sum(np.sqrt(np.abs(y) + 1.0)))
    return acc


NOMINAL_S: dict[Callable[[], float], float] = {
    python_task: 0.0085,
    numpy_task: 0.0130,
}


def time_task(task: Callable[[], float]) -> float:
    """Wall seconds of one run of ``task``, with the garbage collector off.

    With collection off, the task's time does not depend on how many objects
    the program left on the heap.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        task()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()
