"""Host-speed reference for the untraced runs.

The benchmark shares a few cores with other tenants. Their load switches the
speed of the same code between full and about half, for a fraction of a
second to minutes at a time, so the wall time of a unit of work tells more
about the neighbours than about the program. The untraced run therefore
pins itself to one core and runs a Sampler there: a thread that times a
small fixed reference computation every SAMPLE_PERIOD_S, in the middle of
the program's work. A unit's time without the samples inside it, over the
mean of those samples, times REFERENCE_S, is its time in reference seconds:
the time it would take on a host where a sample takes REFERENCE_S. It moves
with the program's cost and much less with the host's load.

The computation uses only numpy, never the package, so a change to the
package cannot move it. Like the package's hot paths it is a Python loop
over small numpy matrix products.
"""

from __future__ import annotations

import bisect
import statistics
import threading
import time

import numpy as np

# Mean time of one reference sample on a 2-vCPU Xeon host at 2.0 GHz with
# little other load (python 3.11, numpy 2.4); a constant scale only.
REFERENCE_S = 0.85e-3
SAMPLE_PERIOD_S = 0.025


def reference_sample() -> float:
    """Run the reference computation once; its wall time in seconds."""
    t0 = time.perf_counter()
    m = np.eye(2)
    for _ in range(400):
        m = m @ np.array([[1.0, 1e-3], [0.0, 1.0]])
    elapsed = time.perf_counter() - t0
    if not abs(m[0, 1] - 0.4) <= 1e-9:
        raise RuntimeError("reference computation gave a wrong result")
    return elapsed


class Sampler:
    """A thread taking a reference sample every SAMPLE_PERIOD_S; `samples`
    holds (start, seconds) pairs in time order."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(SAMPLE_PERIOD_S):
            t0 = time.perf_counter()
            self.samples.append((t0, reference_sample()))

    def __enter__(self) -> Sampler:
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def reference_seconds(block: tuple[float, float], samples: list[tuple[float, float]],
                      average=statistics.fmean) -> float:
    """The time of a block of work from t0 to t1 in reference seconds: its
    wall time less the samples taken inside it, scaled by their average. A
    block too short to hold a sample takes the sample nearest to it."""
    t0, t1 = block
    starts = [s for s, _ in samples]
    inside = [d for _, d in samples[bisect.bisect_left(starts, t0):bisect.bisect_left(starts, t1)]]
    if inside:
        return (t1 - t0 - sum(inside)) * REFERENCE_S / average(inside)
    mid = 0.5 * (t0 + t1)
    i = bisect.bisect_left(starts, mid)
    near = min(samples[max(0, i - 1):i + 1], key=lambda s: abs(s[0] - mid))
    return (t1 - t0) * REFERENCE_S / near[1]
