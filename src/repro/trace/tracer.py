"""The tracer and its sinks.

Design rules, in priority order:

1. **Zero cost when disabled.**  Instrumented hot paths (the sim run
   loop, ``Core.submit``, NIC reservations) guard every emission with::

       tracer = self.sim.tracer
       if tracer is not None and tracer.enabled:
           tracer.emit(...)

   so a run without tracing pays two attribute loads and an ``is None``
   test per site — no event objects, no kwargs dicts, no sink calls.
   ``Simulator.tracer`` defaults to ``None``.

2. **One emission API.**  ``emit(t, kind, name, **data)`` builds a
   :class:`~repro.trace.events.TraceEvent` and hands it to the sink.
   Sinks are anything with ``append``; three are provided:

   * :class:`ListSink` — unbounded in-memory retention (profiling runs);
   * :class:`RingBufferSink` — keep only the last N events (long runs
     where only the tail matters, e.g. post-mortem of a livelock);
   * :class:`JsonlStreamSink` — stream each event to a file object as
     one JSON line, retaining nothing in memory.

3. **Round-trippable.**  :func:`export_jsonl` / :func:`load_jsonl`
   serialize any event iterable losslessly, so traces can be archived
   as CI artifacts and re-profiled offline.
"""

from __future__ import annotations

import io
import json
from collections import deque
from typing import IO, Iterable, Iterator, List, Optional, Union

from .events import TraceEvent

__all__ = [
    "Tracer",
    "ListSink",
    "RingBufferSink",
    "JsonlStreamSink",
    "export_jsonl",
    "load_jsonl",
]


class ListSink:
    """Retain every event in memory, in emission order."""

    __slots__ = ("events",)

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def append(self, event: TraceEvent) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


class RingBufferSink:
    """Retain only the most recent ``capacity`` events."""

    __slots__ = ("events", "dropped")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("ring buffer capacity must be positive")
        self.events: deque = deque(maxlen=capacity)
        self.dropped = 0

    def append(self, event: TraceEvent) -> None:
        if len(self.events) == self.events.maxlen:
            self.dropped += 1
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)


class JsonlStreamSink:
    """Write each event to ``stream`` as one JSON line; retain nothing."""

    __slots__ = ("stream", "written")

    def __init__(self, stream: IO[str]):
        self.stream = stream
        self.written = 0

    def append(self, event: TraceEvent) -> None:
        self.stream.write(json.dumps(event.to_dict(), separators=(",", ":")))
        self.stream.write("\n")
        self.written += 1

    def __len__(self) -> int:
        return self.written

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())  # streamed away; use load_jsonl on the file


class Tracer:
    """Structured event collection behind a single ``enabled`` switch.

    ``kinds`` optionally restricts collection to a set of event kinds —
    high-volume traces (every NIC reservation, every kernel dispatch)
    can then be filtered out at the source instead of post-hoc, which
    keeps long profiling runs within memory.
    """

    __slots__ = ("sink", "enabled", "kinds", "emitted")

    def __init__(self, sink=None, enabled: bool = True, kinds: Optional[frozenset] = None):
        self.sink = sink if sink is not None else ListSink()
        self.enabled = enabled
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.emitted = 0

    def emit(self, t: float, kind: str, name: str, **data) -> None:
        """Record one event (no-op while disabled)."""
        if not self.enabled:
            return
        if self.kinds is not None and kind not in self.kinds:
            return
        self.emitted += 1
        self.sink.append(TraceEvent(t, kind, name, data))

    def events(self) -> List[TraceEvent]:
        """The retained events (empty for streaming sinks)."""
        return list(self.sink)

    def __repr__(self) -> str:
        return "Tracer(enabled=%r, emitted=%d)" % (self.enabled, self.emitted)


def export_jsonl(
    events: Iterable[TraceEvent], target: Union[str, IO[str]]
) -> int:
    """Write ``events`` to a path or file object as JSON lines."""
    if isinstance(target, (str, bytes)):
        with io.open(target, "w", encoding="utf-8") as fileobj:
            return export_jsonl(events, fileobj)
    n = 0
    for event in events:
        target.write(json.dumps(event.to_dict(), separators=(",", ":")))
        target.write("\n")
        n += 1
    return n


def load_jsonl(source: Union[str, IO[str]]) -> List[TraceEvent]:
    """Read JSON-lines trace data from a path or file object."""
    if isinstance(source, (str, bytes)):
        with io.open(source, "r", encoding="utf-8") as fileobj:
            return load_jsonl(fileobj)
    events = []
    for line in source:
        line = line.strip()
        if line:
            events.append(TraceEvent.from_dict(json.loads(line)))
    return events
