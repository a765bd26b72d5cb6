"""Machine-speed reference for the end-to-end timings.

On a shared host the speed of the same code drifts by a fifth or more
over tens of seconds, more than any bound worth setting, while the ratio
of two kinds of work timed side by side holds steady.  So while a run
measures, it also times a fixed piece of reference work every
INTERVAL_S or so (between fit calls, and after each set-up probe), and
reports each end-to-end time scaled to reference speed:

    reported = measured * REFERENCE_S / (reference time measured nearby)

that is, the time the work would take on a machine where the reference
work takes exactly REFERENCE_S.  "Nearby" is the reference sample
nearest in time (smoothed over its neighbours) for the run's fits and
rounds, and the median of the samples a set-up probe takes right after
its set-up.  The reference work uses numpy only, never unifit, so no
change to the package can move it.  It does what the fits do: batched
curve evaluation on 48 rows, at 101 and at 1001 points, with Python
bookkeeping between the numpy calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Time of one reference_work() call at reference speed, in seconds.
REFERENCE_S = 0.02
#: Least time between the end of one reference sample and the next.
INTERVAL_S = 0.25

_GRIDS = (
    (np.linspace(1e-3, 1.0 - 1e-3, 101), 110),  # (grid, search steps)
    (np.linspace(1e-3, 1.0 - 1e-3, 1001), 17),
)


def reference_work() -> float:
    """A fixed batched shape search; returns a value that depends on all
    of it, so none of it can be skipped."""
    checksum = 0.0
    for xs, steps in _GRIDS:
        logx, log1mx = np.log(xs), np.log1p(-xs)
        target = np.exp(1.5 * logx + 2.0 * log1mx)
        rows = np.linspace(0.5, 3.0, 96).reshape(48, 2)
        for _ in range(steps):
            residual = np.exp(rows[:, :1] * logx + rows[:, 1:] * log1mx) - target
            loss = np.sqrt(np.mean(residual * residual, axis=1))
            order = np.argsort(loss)
            best = rows[order[:24]]
            centre = best.mean(axis=0)
            rows = np.clip(np.vstack([best, centre + 0.5 * (centre - rows[order[24:]])]), 0.1, 5.0)
            checksum += float(loss[order[0]])
    return checksum


class Reference:
    """Timed calls of reference_work, in the order they were made."""

    def __init__(self) -> None:
        reference_work()  # warm-up, not recorded
        self.samples: list[float] = []  # seconds each call took
        self.times: list[float] = []  # perf_counter at the middle of each call
        self._last = time.perf_counter()

    def sample(self) -> float:
        t0 = time.perf_counter()
        reference_work()
        self._last = time.perf_counter()
        self.samples.append(self._last - t0)
        self.times.append((t0 + self._last) / 2)
        return self.samples[-1]

    def due(self) -> bool:
        return time.perf_counter() - self._last >= INTERVAL_S

    def scaled(self, start: float, end: float) -> float:
        """Seconds at reference speed of the work done from ``start`` to
        ``end`` (perf_counter readings).  Each moment is scaled by the
        sample nearest to it in time, smoothed as the median of that sample
        and its two neighbours."""
        times = np.asarray(self.times)
        values = np.asarray(self.samples)
        if values.size >= 3:
            neighbours = np.stack([np.r_[values[:1], values[:-1]], values, np.r_[values[1:], values[-1:]]])
            values = np.median(neighbours, axis=0)
        edges = np.r_[-np.inf, (times[1:] + times[:-1]) / 2, np.inf]
        overlap = np.clip(np.minimum(end, edges[1:]) - np.maximum(start, edges[:-1]), 0.0, None)
        return float(np.sum(overlap * REFERENCE_S / values))


def scale(samples) -> float:
    """Factor from measured time to time at reference speed, for work
    done while the reference work took ``samples`` seconds."""
    return REFERENCE_S / statistics.median(samples)
