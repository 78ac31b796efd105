"""Metrics registry: counters, gauges and histograms.

The registry is a flat namespace of named instruments, created on first
use (``registry.counter("tcam.searches").inc()``).  Instruments are
deliberately minimal -- the simulator is single-threaded, so there is no
locking -- and :meth:`MetricsRegistry.snapshot` renders everything to one
plain dict for the sinks.

Naming convention (see DESIGN.md): dotted, ``<subsystem>.<quantity>`` --
``tcam.searches``, ``tcam.batch_size``, ``tcam.path.kernel``, ``rk4.batch_size``,
``mc.row_decisions``, ``energy.<component>``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from typing import Any

from ..errors import ReproError


class Counter:
    """Monotonically increasing value (counts or accumulated joules)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if not amount >= 0.0:  # also catches NaN
            raise ReproError(f"counter increment must be non-negative, got {amount}")
        self.value += amount


class Gauge:
    """Last-write-wins value (cache size, occupancy...)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge."""
        self.value = float(value)


#: Samples a histogram retains for quantile readout before it starts
#: thinning.  Below the cap quantiles are exact; above it the histogram
#: keeps every ``stride``-th sample (stride doubles each time the buffer
#: fills), which is deterministic -- identical observation sequences
#: always retain identical samples -- but approximate.
HISTOGRAM_SAMPLE_CAP = 65536


class Histogram:
    """Streaming summary of observed values with quantile readout.

    Tracks count/sum/min/max/mean exactly, plus a retained-sample buffer
    for :meth:`quantile` (``p50/p95/p99`` in :meth:`MetricsRegistry.
    snapshot`).  Retention is capped at :data:`HISTOGRAM_SAMPLE_CAP`;
    past the cap every other retained sample is dropped and the keep
    stride doubles, so memory stays bounded and the kept set is a pure
    function of the observation sequence (never of wall-clock or worker
    scheduling).
    """

    __slots__ = ("name", "count", "total", "min", "max", "samples", "stride")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.samples: list[float] = []
        self.stride = 1

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        if self.count % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) > HISTOGRAM_SAMPLE_CAP:
                self._thin()
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def _thin(self) -> None:
        """Halve the retained buffer and double the keep stride."""
        self.samples = self.samples[::2]
        self.stride *= 2

    @property
    def mean(self) -> float:
        """Sample mean (0.0 with no samples)."""
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Value at percentile ``q`` (0-100) over the retained samples.

        Exact (linear interpolation, ``numpy.percentile`` semantics)
        while the histogram has retained every observation; a
        deterministic approximation once thinning has engaged.

        Raises:
            ReproError: outside [0, 100] or with no samples.
        """
        if not 0.0 <= q <= 100.0:
            raise ReproError(f"percentile must be in [0, 100], got {q}")
        if not self.samples:
            raise ReproError(f"histogram {self.name!r} has no samples")
        rank = (len(self.samples) - 1) * (q / 100.0)
        lo = math.floor(rank)
        hi = math.ceil(rank)
        ordered = sorted(self.samples)
        return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)

    def quantiles(self, qs: Iterable[float] = (50.0, 95.0, 99.0)) -> dict[str, float]:
        """``{"p50": ..., ...}`` readout for several percentiles at once."""
        return {f"p{q:g}": self.quantile(q) for q in qs}

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's summary into this one.

        Retained samples concatenate in merge order (the parallel layer
        merges chunk registries in chunk order, so below the sample cap
        the merged buffer equals the serial run's); the merged buffer is
        re-thinned if the union overflows the cap.
        """
        self.count += other.count
        self.total += other.total
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max
        self.samples.extend(other.samples)
        self.stride = max(self.stride, other.stride)
        while len(self.samples) > HISTOGRAM_SAMPLE_CAP:
            self._thin()


class MetricsRegistry:
    """Create-on-first-use namespace of instruments.

    A name is bound to one instrument kind for the registry's lifetime;
    asking for the same name as a different kind raises.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def _get(self, name: str, kind: type) -> Any:
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = kind(name)
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise ReproError(
                f"metric {name!r} is a {type(instrument).__name__}, "
                f"not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get(name, Histogram)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another registry into this one, instrument by instrument.

        Used by the parallel execution layer to merge worker-side
        registries back into the parent's: counters and histogram
        summaries add, gauges keep the merged-in (most recent) value.
        Instruments are visited in the other registry's insertion order,
        so merging chunk registries in chunk order reproduces the
        instrument creation order a serial run would have produced.

        Raises:
            ReproError: when a name is bound to different instrument
                kinds in the two registries.
        """
        for name, instrument in other._instruments.items():
            if isinstance(instrument, Counter):
                self.counter(name).inc(instrument.value)
            elif isinstance(instrument, Gauge):
                self.gauge(name).set(instrument.value)
            else:
                self.histogram(name).merge(instrument)

    def __len__(self) -> int:
        return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict render of every instrument, sorted by name.

        Counters and gauges map to their value; histograms to a
        ``{count, sum, min, max, mean, p50, p95, p99}`` sub-dict
        (min/max and the percentiles are ``None`` when empty).
        """
        out: dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if isinstance(instrument, Histogram):
                empty = instrument.count == 0
                out[name] = {
                    "count": instrument.count,
                    "sum": instrument.total,
                    "min": instrument.min if not empty else None,
                    "max": instrument.max if not empty else None,
                    "mean": instrument.mean,
                    "p50": instrument.quantile(50.0) if not empty else None,
                    "p95": instrument.quantile(95.0) if not empty else None,
                    "p99": instrument.quantile(99.0) if not empty else None,
                }
            else:
                out[name] = instrument.value
        return out
