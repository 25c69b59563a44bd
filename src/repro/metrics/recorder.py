"""Throughput and latency recorders.

These are the measurement instruments of both the *experiments* (client
side: achieved throughput, request latency) and the *protocol itself*
(RBFT's monitoring module keeps one windowed counter per protocol
instance — the ``nbreqs_i`` of §IV-C — and per-client latency averages).
"""

from __future__ import annotations

import heapq
import math
from array import array
from collections import deque
from itertools import chain, islice
from typing import Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.sim.engine import Simulator

__all__ = [
    "WindowedCounter",
    "ThroughputMeter",
    "LatencyRecorder",
    "TimeSeries",
    "summarize",
    "window_percentile",
]

#: Doubles per float block (4 KiB).  ``new_block()`` copies one zeroed
#: template; blocks are never resized (docs/simulator.md, "Performance").
BLOCK = 512
new_block = array("d", bytes(8 * BLOCK)).__copy__


class WindowedCounter:
    """A counter read-and-reset once per monitoring period (§IV-C)."""

    __slots__ = ("count", "total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0

    def add(self, n: int = 1) -> None:
        self.count += n
        self.total += n

    def take(self) -> int:
        """Return the current window's count and reset it."""
        count, self.count = self.count, 0
        return count


class ThroughputMeter:
    """Counts events and reports rates over arbitrary intervals."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.count = 0
        self._marks: List[Tuple[float, int]] = [(sim.now, 0)]

    def add(self, n: int = 1) -> None:
        self.count += n

    def mark(self) -> None:
        """Record a checkpoint for interval queries."""
        self._marks.append((self.sim.now, self.count))

    def rate_since(self, t0: float) -> float:
        """Average events/second from virtual time ``t0`` to now."""
        elapsed = self.sim.now - t0
        if elapsed <= 0:
            return 0.0
        count0 = 0
        for time, count in self._marks:
            if time <= t0:
                count0 = count
            else:
                break
        return (self.count - count0) / elapsed

    def total_rate(self) -> float:
        start = self._marks[0][0]
        return self.rate_since(start)


class LatencyRecorder:
    """Streaming mean plus a bounded sample window for percentiles.

    The mean is exact over *every* recorded sample (a running
    count/total, accumulated in arrival order exactly as ``sum()`` over
    the full list would); percentiles are computed over the most recent
    ``window`` samples, so memory stays constant however long the run.
    Any run that completes fewer than ``window`` requests per client —
    all the short-horizon seeds — sees byte-identical percentiles too.

    The window is a ring of doubles in float blocks (slot ``count %
    window``): 8 bytes a sample, not a boxed float plus a deque slot.
    :attr:`samples` iterates it oldest first, and a percentile selects
    only the order statistics it interpolates (:func:`window_percentile`).
    """

    DEFAULT_WINDOW = 65536

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be positive")
        self.window = window
        self._blocks: List[array] = []
        self.count = 0
        self.total = 0.0

    def record(self, latency: float) -> None:
        block, offset = divmod(self.count % self.window, BLOCK)
        if block == len(self._blocks):
            self._blocks.append(new_block())
        self._blocks[block][offset] = latency
        self.count += 1
        self.total += latency

    @property
    def samples(self) -> Iterator[float]:
        """A one-pass iterator over the window, oldest first."""
        start = self.count % self.window if self.count > self.window else 0
        return chain(
            islice(chain.from_iterable(self._blocks), start, min(self.count, self.window)),
            islice(chain.from_iterable(self._blocks), start),
        )

    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        return window_percentile((self,), p)

    def median(self) -> float:
        return self.percentile(0.5)

    def __len__(self) -> int:
        """Samples ever recorded (not just the retained window)."""
        return self.count


def window_percentile(recorders: Sequence[LatencyRecorder], p: float) -> float:
    """The ``p``-quantile of the recorders' merged windows (0.0 if empty).

    Interpolates the order statistics around rank ``(n - 1) * p`` as
    indexing ``sorted()`` would, but selects just those two with
    ``heapq`` from the shorter side: no sorted copy of every sample.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("percentile %r outside [0, 1]" % (p,))
    n = sum(min(recorder.count, recorder.window) for recorder in recorders)
    if not n:
        return 0.0
    rank = (n - 1) * p
    low, high = int(math.floor(rank)), int(math.ceil(rank))
    samples = chain.from_iterable(recorder.samples for recorder in recorders)
    if high < n - low:
        smallest = heapq.nsmallest(high + 1, samples)
        below, above = smallest[low], smallest[high]
    else:
        largest = heapq.nlargest(n - low, samples)
        below, above = largest[-1], largest[n - 1 - high]
    if low == high:
        return below
    frac = rank - low
    return below * (1 - frac) + above * frac


class TimeSeries:
    """(time, value) pairs, e.g. per-request latency traces (Fig. 12).

    ``maxlen`` optionally bounds retention to the most recent points
    (long-horizon gauges); figure series keep the default — unbounded —
    because the plots need the full history, in a plain list: an empty
    deque is 760 bytes and every node holds one series per instance.
    """

    __slots__ = ("name", "points")

    def __init__(self, name: str = "", maxlen: Optional[int] = None):
        self.name = name
        self.points: Union[List[Tuple[float, float]], Deque[Tuple[float, float]]] = (
            [] if maxlen is None else deque(maxlen=maxlen)
        )

    def append(self, time: float, value: float) -> None:
        self.points.append((time, value))

    def times(self) -> List[float]:
        return [t for t, _ in self.points]

    def values(self) -> List[float]:
        return [v for _, v in self.points]

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Mean/min/max/stdev of a sample set (empty-safe)."""
    if not samples:
        return {"mean": 0.0, "min": 0.0, "max": 0.0, "stdev": 0.0, "n": 0}
    n = len(samples)
    mean = sum(samples) / n
    var = sum((x - mean) ** 2 for x in samples) / n
    return {
        "mean": mean,
        "min": min(samples),
        "max": max(samples),
        "stdev": math.sqrt(var),
        "n": n,
    }
