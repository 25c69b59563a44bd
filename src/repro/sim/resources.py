"""CPU model: cores as non-preemptive FIFO servers.

The RBFT paper pins every module (Verification, Propagation, Dispatch &
Monitoring, Execution) and every replica process to a distinct core of an
8-core machine.  What matters for throughput is that each of those is a
*serial* resource: work queues up behind it.  A :class:`Core` models
exactly that — jobs are executed in submission order, each occupying the
core for its cost, with completion callbacks fired on the simulator
clock.

The implementation is analytic rather than process-based: a core keeps a
``busy_until`` horizon, so submitting a job to an idle core is O(log n)
in the event heap, one behind another an amortised O(1) append to the
core's backlog, and no generator machinery is involved.  This keeps
saturated runs (tens of thousands of requests per simulated second) fast.
"""

from __future__ import annotations

from array import array
from heapq import heappush
from typing import Any, Callable, List, Optional

from .engine import _LOOK_THROUGH, Simulator, _apply

__all__ = ["Core", "CoreSet"]

_DONES, _SEQS = array("d"), array("q")  # empty backlog containers


class Core:
    """A single CPU core: a non-preemptive FIFO work queue.

    ``submit(cost, fn, *args)`` runs ``fn(*args)`` once the core has
    finished everything submitted before it plus ``cost`` seconds of work.

    A job behind another is *held* (``_fn``/``_arg``) behind the one heap
    entry ``(done, seq, Core._complete, core)``, or waits in a backlog of
    ``done``/``seq`` words and ``fn``/``arg`` references, read from
    ``_head`` and released once drained.  ``_complete`` re-arms the next
    job under its submit-time ``(done, seq)``, then runs the held one.
    """

    __slots__ = ("sim", "name", "busy_until", "busy_time", "jobs", "_started_at",
                 "_fn", "_arg", "_dones", "_seqs", "_calls", "_head")

    def __init__(self, sim: Simulator, name: str = "core"):
        self.sim = sim
        self.name = name
        self.busy_until = 0.0
        self.busy_time = 0.0  # cumulative seconds of work executed
        self.jobs = 0
        self._started_at = sim.now
        self._fn = self._arg = self._dones = self._seqs = self._calls = None
        self._head = 0

    def submit(self, cost: float, fn: Optional[Callable] = None, *args: Any):
        """Charge ``cost`` seconds of work; call ``fn`` at completion.

        Returns the virtual completion time.
        """
        if cost < 0:
            raise ValueError("negative job cost: %r" % cost)
        sim = self.sim
        now = sim.now
        busy_until = self.busy_until
        idle = busy_until <= now
        start = now if idle else busy_until
        done = start + cost
        self.busy_until = done
        self.busy_time += cost
        self.jobs += 1
        tracer = sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                now,
                "core.job",
                self.name,
                cost=cost,
                start=start,
                done=done,
                job=getattr(fn, "__qualname__", None) if fn is not None else None,
            )
        if fn is not None:
            # Completions are never cancelled: anonymous fast path,
            # inlined (``done >= now`` always holds, the past-check is
            # redundant, and the extra call frame is measurable here).
            # The usual single argument is queued bare, with no tuple.
            sim._seq = seq = sim._seq + 1
            if len(args) == 1:
                arg = args[0]
            else:
                fn, arg = _apply, (fn, args)
            if idle:
                heappush(sim._heap, (done, seq, fn, arg))
            elif self._fn is None:
                self._fn, self._arg = fn, arg
                heappush(sim._heap, (done, seq, Core._complete, self))
            else:
                if self._dones is None:  # copying beats array(typecode)
                    self._dones, self._seqs, self._calls = _DONES.__copy__(), _SEQS.__copy__(), []
                self._dones.append(done)
                self._seqs.append(seq)
                self._calls += fn, arg
        return done

    def _complete(self) -> None:
        """Heap trampoline of the held job: re-arm the next, then run it."""
        fn, arg, dones = self._fn, self._arg, self._dones
        if dones is None:
            self._fn = self._arg = None
        else:
            head = self._head
            calls = self._calls
            heappush(self.sim._heap, (dones[head], self._seqs[head], Core._complete, self))
            slot = 2 * head
            self._fn, self._arg = calls[slot], calls[slot + 1]
            calls[slot] = calls[slot + 1] = None  # release the job's references
            head += 1
            if head == len(dones):
                self._dones = self._seqs = self._calls = None
                head = 0
            elif head >= 64 and 8 * head >= len(dones):  # ≤ 1/8 slack, O(1) amortised
                del dones[:head], self._seqs[:head], calls[:2 * head]
                head = 0
            self._head = head
        fn(arg)

    def charge(self, cost: float) -> float:
        """Charge work with no completion callback (e.g. dropped messages)."""
        return self.submit(cost, None)

    @property
    def queue_delay(self) -> float:
        """Seconds a job submitted now would wait before starting."""
        backlog = self.busy_until - self.sim.now
        return backlog if backlog > 0 else 0.0

    def utilization(self) -> float:
        """Fraction of elapsed simulated time this core spent busy."""
        elapsed = self.sim.now - self._started_at
        if elapsed <= 0:
            return 0.0
        busy = min(self.busy_time, elapsed)
        return busy / elapsed

    def __repr__(self) -> str:
        return "Core(%s, busy_until=%g, jobs=%d)" % (
            self.name,
            self.busy_until,
            self.jobs,
        )


_LOOK_THROUGH[Core._complete] = lambda core: core._arg[0] if core._fn is _apply else core._fn


class CoreSet:
    """The cores of one physical machine.

    Modules/replicas are *pinned*: callers allocate a dedicated core per
    actor (mirroring the paper's deployment).  ``allocate`` hands out
    cores round-robin and raises once the socket is oversubscribed, which
    catches configuration errors such as running f=3 RBFT on 8 cores.
    """

    def __init__(self, sim: Simulator, count: int, name: str = "node"):
        if count < 1:
            raise ValueError("a machine needs at least one core")
        self.sim = sim
        self.name = name
        self.cores: List[Core] = [
            Core(sim, "%s/cpu%d" % (name, i)) for i in range(count)
        ]
        self._next = 0

    def allocate(self, label: str = "") -> Core:
        """Hand out the next unallocated core; error when exhausted."""
        if self._next >= len(self.cores):
            raise RuntimeError(
                "machine %s has only %d cores; cannot pin %r"
                % (self.name, len(self.cores), label or "actor")
            )
        core = self.cores[self._next]
        self._next += 1
        if label:
            core.name = "%s/%s" % (self.name, label)
        return core

    @property
    def allocated(self) -> int:
        return self._next

    @property
    def available(self) -> int:
        return len(self.cores) - self._next

