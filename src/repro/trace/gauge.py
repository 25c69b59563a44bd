"""High-water-mark tracking for the ``pbft.log-size`` gauge.

The checkpoint garbage collector (``OrderingInstance._collect_garbage``
and its node-level counterparts) emits one :data:`~repro.trace.events.
K_LOG_SIZE` event per collection with the current size of every
per-sequence structure.  :class:`LogSizeWatch` is a tracer sink that
retains only the *peak* value per (emitter, field) — O(emitters), not
O(events) — which is exactly what a bounded-memory assertion needs on a
long-horizon soak run.

Peaks observed mid-run miss whatever grew after the last emission, so
:func:`collect_final` folds in a direct end-of-run inspection of every
node (and every RBFT engine) exposing a ``log_sizes()`` method.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping

from .events import K_LOG_SIZE, TraceEvent

__all__ = ["LogSizeWatch", "collect_final"]


class LogSizeWatch:
    """Tracer sink keeping per-emitter peak gauge values only."""

    __slots__ = ("peaks", "observed")

    def __init__(self) -> None:
        #: emitter name -> field -> maximum value seen.
        self.peaks: Dict[str, Dict[str, int]] = {}
        self.observed = 0

    def append(self, event: TraceEvent) -> None:
        if event.kind != K_LOG_SIZE:
            return
        self.observe(event.name, event.data)

    def observe(self, name: str, sizes: Mapping[str, int]) -> None:
        """Fold one gauge reading into the per-emitter peaks."""
        self.observed += 1
        peaks = self.peaks.setdefault(name, {})
        for field, value in sizes.items():
            if isinstance(value, int) and value > peaks.get(field, -1):
                peaks[field] = value

    def peak(self, field: str = "total") -> int:
        """The largest ``field`` value any emitter ever reported."""
        return max(
            (peaks.get(field, 0) for peaks in self.peaks.values()),
            default=0,
        )

    def __len__(self) -> int:
        return len(self.peaks)

    def __repr__(self) -> str:
        return "LogSizeWatch(emitters=%d, peak_total=%d)" % (
            len(self.peaks),
            self.peak(),
        )


def collect_final(watch: LogSizeWatch, nodes: Iterable) -> None:
    """Fold every node's end-of-run ``log_sizes()`` into ``watch``.

    Gauge emissions happen at collection points (stable checkpoints,
    monitor ticks); the state reached *after* the last one still counts
    toward the high-water mark.  RBFT nodes additionally expose their
    f+1 engines individually.
    """
    for node in nodes:
        log_sizes = getattr(node, "log_sizes", None)
        if log_sizes is None:
            continue
        watch.observe(node.name, log_sizes())
        engines = getattr(node, "engines", None)
        if engines:
            for engine in engines:
                watch.observe(engine.trace_name, engine.log_sizes())
