"""Discrete-event simulation kernel.

The kernel is deliberately small and fast: a binary-heap event queue, a
virtual clock, cancellable timer handles, and generator-based processes in
the style of SimPy.  Protocol actors in this repository are mostly
callback-driven (they schedule work on :class:`repro.sim.resources.Core`
objects), while load generators and attack scripts are written as
generator processes.

Determinism — the ``(time, seq, ...)`` ordering contract
--------------------------------------------------------
Every heap entry starts with ``(time, seq)`` where ``seq`` is drawn from
a single monotonically increasing counter shared by *all* scheduling
entry points (:meth:`Simulator.call_at`, :meth:`Simulator.call_soon`,
:meth:`Simulator.call_anon`, event triggering, ``Timeout``).  The heap
therefore yields entries ordered by time first and, within one
timestamp, by **schedule order** — strict FIFO among ties, regardless of
whether the entry is a :class:`Handle`, an :class:`Event` or an
anonymous fast-path callable.  Two runs with the same seed replay the
exact same schedule, and callers may rely on same-timestamp callbacks
firing in the order they were scheduled.  The sequence number is unique,
so tuple comparison never reaches the heterogeneous third element.
A job waiting on a busy :class:`~repro.sim.resources.Core` is pushed
when the job ahead of it completes, but under the ``(time, seq)`` drawn
at *submit*: a fresh ``seq`` would sort it behind same-time entries
scheduled in between, which it precedes.  The job ahead has a smaller
key, so the entry is queued before it can be the minimum and pops
exactly where one queued at submit would.  Anything that re-orders
same-timestamp entries (including the batched clock update below) must
preserve this contract; ``tests/sim/test_engine.py`` pins it for both
loops, ``tests/sim/test_core_backlog.py`` for a core's backlog.

Performance: every heap entry has one shape, ``(time, seq, fn, arg)``,
and is dispatched as ``fn(arg)``.  A :class:`Handle` is queued as
``(time, seq, Handle._fire, handle)``, an :class:`Event` (``Timeout``
included) as ``(time, seq, Event._process, event)``.  The *anonymous
fast path* — schedulers that never cancel: core completions, channel
deliveries, process resumption — queues the callback itself with its
single argument, so a one-argument job carries no args tuple; any other
arity is packed once as ``(time, seq, _apply, (fn, args))``.  The fast
path skips the Handle allocation, its ``__init__`` frame and the
cancelled/done bookkeeping, which together dominate per-event cost in
saturated runs; the single shape leaves the untraced loop one call,
``entry[2](entry[3])``, with no branch on the entry kind.

Batched event execution: saturated protocol runs cluster many entries on
one timestamp (a broadcast's fan-out, a core draining its backlog).  The
untraced run loop exploits this by keeping the current batch timestamp
in a local and touching ``self.now`` and the ``until`` limit check only
when the popped entry's time *changes* — same-timestamp entries drain
back-to-back with one clock update per batch.  Entries scheduled from
inside a batch at the current time carry higher sequence numbers, so
they join the tail of the same batch; ordering is identical to the
per-entry loop.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, Generator, List, Optional

__all__ = ["Event", "Timeout", "Process", "Handle", "Simulator"]


def _apply(packed: tuple) -> None:
    """Heap-entry trampoline for a callback of any arity but one."""
    fn, args = packed
    fn(*args)


#: Trampoline -> function of its argument naming the callback it runs,
#: for the traced loop; ``repro.sim.resources`` adds ``Core._complete``.
_LOOK_THROUGH: dict = {_apply: lambda packed: packed[0]}


class Handle:
    """A cancellable reference to a scheduled callback."""

    __slots__ = ("_sim", "time", "fn", "args", "cancelled", "done")

    def __init__(self, sim: "Simulator", time: float, fn: Callable, args: tuple):
        self._sim = sim
        self.time = time
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.done = False

    def cancel(self) -> None:
        """Prevent the callback from firing.  Safe to call multiple times."""
        self.cancelled = True

    @property
    def active(self) -> bool:
        return not self.cancelled and not self.done

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.done = True
        self.fn(*self.args)


class Event:
    """A one-shot occurrence other actors can wait on.

    An event is *triggered* exactly once, with :meth:`succeed`.
    Callbacks registered before triggering fire when the event is
    processed; callbacks registered afterwards fire immediately.
    """

    __slots__ = ("sim", "callbacks", "triggered", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.triggered = False
        self.value: Any = None

    def succeed(self, value: Any = None) -> "Event":
        if self.triggered:
            raise RuntimeError("event already triggered")
        self.triggered = True
        self.value = value
        # Pushed here, not through a helper: triggering is a hot path.
        sim = self.sim
        sim._seq = seq = sim._seq + 1
        heapq.heappush(sim._heap, (sim.now, seq, Event._process, self))
        return self

    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: run immediately, preserving causal order.
            fn(self)
        else:
            self.callbacks.append(fn)

    def _process(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for fn in callbacks:
                fn(self)


class Timeout(Event):
    """An event that succeeds after a fixed virtual-time delay."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError("negative timeout delay: %r" % delay)
        # Event.__init__ and the heap push, inlined: load generators
        # create one Timeout per request, making this a hot path.
        self.sim = sim
        self.callbacks = []
        self.triggered = True
        self.value = value
        sim._seq = seq = sim._seq + 1
        heapq.heappush(sim._heap, (sim.now + delay, seq, Event._process, self))


class Process(Event):
    """A generator coroutine driven by the events it yields.

    The wrapped generator yields :class:`Event` objects; the process
    resumes when each yielded event triggers.  The process itself is an
    event that succeeds with the generator's return value, so processes
    can wait on each other.
    """

    __slots__ = ("_gen", "name")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = ""):
        super().__init__(sim)
        self._gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        # Start on the next queue drain, at the current time.  Anonymous
        # fast path: a process start is never cancelled.
        sim.call_soon(self._resume, None)

    def _on_event(self, event: Event) -> None:
        self._resume(event.value)

    def _resume(self, value: Any) -> None:
        if self.triggered:
            return
        try:
            target = self._gen.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        if not isinstance(target, Event):
            raise TypeError(
                "process %r yielded %r; processes must yield Event objects"
                % (self.name, target)
            )
        # Event.add_callback, inlined: one resume per yielded event
        # makes the extra frame measurable.
        callbacks = target.callbacks
        if callbacks is None:
            # Already processed: fire immediately, preserving causal order.
            self._on_event(target)
        else:
            callbacks.append(self._on_event)


class Simulator:
    """The event loop: a virtual clock plus a time-ordered callback heap."""

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[tuple] = []
        self._seq = 0
        self._running = False
        #: total queue items dispatched over the simulator's lifetime
        #: (includes cancelled handles popped off the heap).
        self.dispatched = 0
        #: optional :class:`repro.trace.Tracer`; None (the default) keeps
        #: every instrumented call site on its no-allocation fast path.
        self.tracer = None

    # ------------------------------------------------------------- scheduling
    def call_at(self, time: float, fn: Callable, *args: Any) -> Handle:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise ValueError(
                "cannot schedule in the past: %r < now=%r" % (time, self.now)
            )
        handle = Handle(self, time, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, (time, self._seq, Handle._fire, handle))
        return handle

    def call_after(self, delay: float, fn: Callable, *args: Any) -> Handle:
        """Schedule ``fn(*args)`` after a relative delay."""
        return self.call_at(self.now + delay, fn, *args)

    def call_soon(self, fn: Callable, *args: Any) -> None:
        """Anonymous fast path: run ``fn(*args)`` on the next queue drain.

        Unlike :meth:`call_after` this allocates no :class:`Handle`, so
        the callback cannot be cancelled.  FIFO order with everything
        else scheduled at the current time is preserved (the shared
        sequence number breaks the tie).
        """
        self.call_anon(self.now, fn, args)

    def call_anon(self, time: float, fn: Callable, args: tuple) -> None:
        """Anonymous fast path at an absolute time, for hot schedulers.

        The caller guarantees ``time >= now`` (e.g. a core completion or
        a channel delivery horizon); the past-scheduling check, the
        Handle allocation and cancellation support are all skipped.
        """
        self._seq += 1
        if len(args) == 1:
            heapq.heappush(self._heap, (time, self._seq, fn, args[0]))
        else:
            heapq.heappush(self._heap, (time, self._seq, _apply, (fn, args)))

    # -------------------------------------------------------------- factories
    def event(self) -> Event:
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        return Timeout(self, delay, value)

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    # ------------------------------------------------------------------- loop
    def run(self, until: Optional[float] = None) -> None:
        """Drain the queue until empty or until the clock passes ``until``.

        When ``until`` is given the clock is left exactly at ``until`` even
        if the queue drained early, so successive ``run`` calls compose.
        """
        if self._running:
            raise RuntimeError("simulator is already running")
        self._running = True
        # Hoisted once: attach a tracer *before* run() (re-checking the
        # attribute per dispatch would tax every untraced run).
        tracer = self.tracer
        tracing = tracer is not None and tracer.enabled
        # Bind the heap and the heap primitives to locals: the loop body
        # is small enough that global/attribute lookups are measurable.
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        limit = until if until is not None else float("inf")
        count = self.dispatched
        # Everything alive now — the static deployment: channels, NICs,
        # engines — outlives the loop, so full collections need not
        # re-traverse it on every pass; unfrozen again on the way out so
        # nothing stays exempt across runs in a long-lived process.
        gc.freeze()
        try:
            if tracing:
                while heap:
                    entry = pop(heap)
                    time = entry[0]
                    if time > limit:
                        push(heap, entry)
                        break
                    self.now = time
                    count += 1
                    # Name the callback itself, never the trampoline.
                    fn, arg = entry[2], entry[3]
                    if fn is Event._process:
                        tracer.emit(time, "sim.dispatch", type(arg).__name__)
                    elif fn is Handle._fire:
                        target = arg.fn
                        tracer.emit(
                            time,
                            "sim.dispatch",
                            getattr(target, "__qualname__", repr(target)),
                            cancelled=arg.cancelled,
                        )
                    else:
                        look = _LOOK_THROUGH.get(fn)
                        target = fn if look is None else look(arg)
                        tracer.emit(
                            time,
                            "sim.dispatch",
                            getattr(target, "__qualname__", repr(target)),
                        )
                    fn(arg)
            else:
                # The hot loop: pop once (no peek-then-pop double heap
                # traversal); a popped entry beyond the limit is pushed
                # back, which happens at most once per run() call.
                #
                # Batched clock update: `now` starts at a sentinel below
                # any schedulable time, so the first popped entry always
                # takes the time-change branch (limit check + clock
                # store).  Subsequent entries at the same timestamp skip
                # both — they are the tail of the current batch.
                now = float("-inf")
                while heap:
                    entry = pop(heap)
                    time = entry[0]
                    if time != now:
                        if time > limit:
                            push(heap, entry)
                            break
                        self.now = now = time
                    count += 1
                    entry[2](entry[3])
        finally:
            gc.unfreeze()
            self._running = False
            self.dispatched = count
        if until is not None and self.now < until:
            self.now = until

    def peek(self) -> Optional[float]:
        """Return the time of the next pending item, or None."""
        return self._heap[0][0] if self._heap else None

    def __repr__(self) -> str:
        return "Simulator(now=%g, pending=%d)" % (self.now, len(self._heap))
