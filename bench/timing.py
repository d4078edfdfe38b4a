"""Program-time clock with interleaved reference slices.

The machine this benchmark runs on is shared, and its speed drifts by tens of
percent between runs.  The clock runs a reference slice (``reference.py``)
about every ``INTERVAL_S`` seconds of program time, from a one-shot
``SIGALRM`` timer, so slices fall inside long problems too.  Slice time is
left out of the program clock, and every timed interval is rescaled by the
speed of the slices around it:

    normalized = program seconds * NOMINAL_SLICE_S / median(nearby slices)

so that all times are seconds at the nominal machine speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import reference

INTERVAL_S = 0.5  # program seconds between two reference slices
WINDOW_S = 1.5  # slices this far around an interval rate its speed


class Clock:
    def __init__(self) -> None:
        self.excluded = 0.0  # wall seconds spent in slices so far
        self.positions: list[float] = []  # program time of each slice
        self.durations: list[float] = []  # wall seconds of each slice
        self.in_slice = False
        self._armed = False
        self._old_handler = None

    def now(self) -> float:
        """Program time: wall time minus the time spent in slices."""
        return time.perf_counter() - self.excluded

    def run_slice(self) -> None:
        self.in_slice = True
        try:
            start = time.perf_counter()
            seconds = reference.run_slice()
            self.positions.append(start - self.excluded)
            self.durations.append(seconds)
            self.excluded += time.perf_counter() - start
        finally:
            self.in_slice = False

    def _on_alarm(self, signum, frame) -> None:
        self.run_slice()
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def start(self) -> None:
        """Run a slice now, then one every INTERVAL_S program seconds."""
        self._old_handler = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        self.run_slice()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def stop(self) -> None:
        """Disarm the timer and close the timeline with a last slice."""
        self._armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.run_slice()

    def factor(self, a: float, b: float) -> float:
        """Nominal seconds per program second over the interval [a, b]."""
        lo = bisect.bisect_left(self.positions, a - WINDOW_S)
        hi = bisect.bisect_right(self.positions, b + WINDOW_S)
        near = self.durations[lo:hi]
        if len(near) < 2:  # fewer slices than expected: take the nearest two
            i = min(bisect.bisect_left(self.positions, a), len(self.positions) - 1)
            near = self.durations[max(0, i - 1) : i + 1]
        return reference.NOMINAL_SLICE_S / statistics.median(near)

    def normalize(self, a: float, b: float) -> float:
        return (b - a) * self.factor(a, b)

    def run_factor(self) -> float:
        """Nominal seconds per program second over all slices so far."""
        return reference.NOMINAL_SLICE_S / statistics.median(self.durations)
