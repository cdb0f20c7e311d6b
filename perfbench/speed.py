"""Machine speed from fixed reference work, for scaling wall times.

The benchmark was built on a 2-core shared Xeon VM whose speed drifts by a
third within a minute (the same call measured 57 to 109 ms in 6-second
blocks), far more than any bound a regression check could use.  CPU time
drifts the same way, so it is no remedy.  Instead the benchmark times fixed
reference work that never changes with the program next to each of its
timed steps, and scales the step's wall time by the reference's nominal
time over the reference's time around that step.  A reported time is
therefore the wall time the step would take on a machine where the
reference takes its nominal time; the raw wall times are printed beside
the result.

Two references: ``kernel`` (interpreter bytecode and numpy calls on small
and mid-sized arrays, the same kind of work as the program's hot loops)
after every in-process op, and ``reference_spawn`` (a fresh interpreter
importing numpy and a fixed set of standard modules, the same kind of work
as a cold start) after every spawned process.  On that VM over 90 s, cold
CLI runs varied by 0.167 (coefficient of variation of 4-run blocks);
divided by the reference spawn, by 0.059; by the kernel, by 0.139.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
from time import perf_counter

import numpy as np

# The reference machine: the typical speed of the 2-core shared Xeon VM the
# benchmark was built on.
KERNEL_NOMINAL_S = 1.65e-3  # kernel time on the reference machine
SPAWN_NOMINAL_S = 0.185     # reference_spawn time on the reference machine
REFERENCE_IMPORTS = ("import numpy, argparse, csv, decimal, json, "
                     "email.parser, unittest, xml.dom.minidom")

_SMALL = np.linspace(0.0, 1.0, 64)
_LARGE = np.linspace(0.0, 1.0, 4000)


def kernel() -> float:
    """The fixed reference work; returns a value so none of it is idle."""
    s = 0.0
    for i in range(100):
        b = np.sqrt(np.maximum(_SMALL * (i * 0.01) - 0.3, 0.0))
        if np.any(b > 2.0):
            s += 1.0
        s += float(b @ _SMALL) + math.cos(i * 0.1)
    buf = np.empty_like(_LARGE)
    for i in range(20):
        np.multiply(_LARGE, i * 0.01, out=buf)
        buf -= 0.3
        np.maximum(buf, 0.0, out=buf)
        s += float(np.sqrt(buf, out=buf).sum())
    for i in range(1000):
        d = {"k": i, "v": [i, i + 1]}
        s += d["v"][1] % 7
    return s


def reference_spawn(env: dict, cwd: str):
    """One reference interpreter start, run like the timed spawns."""
    subprocess.run([sys.executable, "-c", REFERENCE_IMPORTS], env=env,
                   cwd=cwd, check=True, capture_output=True, timeout=60)


class Speedometer:
    """Reference timings taken between the timed steps of one phase.

    Call ``tick`` before the first step and after every step, so step
    ``i`` lies between ticks ``i`` and ``i + 1``.  Each step is scaled by
    the median of the ``window`` ticks on either side of it, which follows
    the drift over a few seconds; over a single kernel tick, milliseconds
    long, the speed swings too much to follow it closer.
    """

    def __init__(self, reference, nominal_s: float, reps: int, window: int):
        self.reference = reference
        self.nominal_s = nominal_s
        self.reps = reps
        self.window = window
        self.ticks: list[float] = []
        reference()                     # first call pays for lazy set-up

    def tick(self):
        """Time ``reps`` reference runs and keep their median."""
        runs = []
        for _ in range(self.reps):
            start = perf_counter()
            self.reference()
            runs.append(perf_counter() - start)
        self.ticks.append(statistics.median(runs))

    def scale(self, seconds: list[float]) -> list[float]:
        """Each step's wall time at the reference machine's speed."""
        w = self.window
        return [s * self.nominal_s
                / statistics.median(self.ticks[max(0, i + 1 - w):i + 1 + w])
                for i, s in enumerate(seconds)]
