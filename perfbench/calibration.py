"""Host-speed reference for the end-to-end timings.

On a shared host the CPU runs the same code up to ~2x slower, in
stretches from a fraction of a second to minutes, which moves every
timing of a run together.  A fixed calibration kernel (plain Python
plus small numpy operations, the simulator's own mix) is therefore
timed between short laps of the measured work, and each lap's host
times are divided by its *slowness*: the mean of the calibration times
at its two ends over ``CAL_REFERENCE_S``.  A change to the simulator
moves scaled timings exactly as it moves raw ones, while a slow stretch
of the host moves a lap and its calibrations together and cancels.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np

#: Calibration-kernel time [s] on the reference host (2-CPU x86-64,
#: Python 3.11, numpy 2.4); scaled timings read as if measured there.
CAL_REFERENCE_S = 0.005


def _kernel() -> float:
    acc = 0
    slots: dict[int, tuple[int, float]] = {}
    for i in range(12000):
        slots[i & 255] = (i, i * 0.5)
        acc += i * i
    a = np.arange(2048.0)
    for _ in range(150):
        a = np.sqrt(a * 1.0000001 + 1.0)
    return acc + float(a[0]) + len(slots)


def calibrate(_payload=None) -> float:
    """Seconds the calibration kernel takes in this process right now.

    Takes (and ignores) one argument so that worker pools can run it.
    """
    t0 = perf_counter()
    _kernel()
    return perf_counter() - t0


class ScaledClock:
    """Collects host times in laps and scales each lap by its slowness.

    Measured code reports each timed call with :meth:`add` and calls
    :meth:`tick` between calls; once ``LAP_S`` of timed work has piled
    up, the lap closes with a calibration.  :meth:`lap` closes the last
    one.  With ``probe=None`` nothing is calibrated and the scaled
    times equal the raw ones.

    Attributes:
        raw: Per kind, the raw seconds of every timed call.
        scaled: Per kind, the same calls' seconds divided by their
            lap's slowness.
    """

    #: Timed work per lap [s]: short enough to follow the host's speed
    #: changes, long enough that calibration costs ~10% of a run.
    LAP_S = 0.03

    def __init__(self, probe=calibrate) -> None:
        self._probe = probe
        self._cal = probe() if probe is not None else CAL_REFERENCE_S
        self._pending: list[tuple[str, float]] = []
        self._pending_s = 0.0
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)
        self.slowness: list[float] = []

    def add(self, kind: str, seconds: float, counts: bool = True) -> None:
        """Record one timed call; ``counts=False`` for a sub-interval of
        time already recorded (a batch inside an ``op``)."""
        self._pending.append((kind, seconds))
        if counts:
            self._pending_s += seconds

    def tick(self) -> None:
        """Close the lap if enough timed work has piled up."""
        if self._pending_s >= self.LAP_S:
            self.lap()

    def lap(self) -> None:
        """Calibrate and scale every call recorded since the last lap."""
        if not self._pending:
            return
        cal = self._probe() if self._probe is not None else CAL_REFERENCE_S
        slowness = (self._cal + cal) / (2.0 * CAL_REFERENCE_S)
        self._cal = cal
        self.slowness.append(slowness)
        for kind, seconds in self._pending:
            self.raw[kind].append(seconds)
            self.scaled[kind].append(seconds / slowness)
        self._pending.clear()
        self._pending_s = 0.0
