"""Equivalence pack: a busy core's backlog waits on the core, not the heap.

``Core`` queues a job submitted to an idle core on the kernel heap, and
holds every job submitted behind another on the core itself, behind one
trampoline entry per busy core.  The contract is that the kernel cannot
tell: ``_ReferenceCore`` below pushes every job onto the heap as its own
``(done, seq, fn, arg)`` entry, and random schedules — several cores,
zero and colliding costs, ``charge()`` calls, submits made from inside
completions, ``call_anon``/``call_at``/``Timeout`` entries at colliding
times, bursts deep enough to compact a backlog — must dispatch the same
``(now, callback, arg)`` sequence, count the same ``sim.dispatched`` and,
on the traced loop, emit the same records, ``sim.dispatch`` names
included.
"""

from heapq import heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Core, Simulator
from repro.sim.engine import _apply
from repro.trace import ListSink, Tracer

CORES = 3


class _ReferenceCore(Core):
    """The all-on-heap core: every job is its own kernel heap entry."""

    __slots__ = ()

    def submit(self, cost, fn=None, *args):
        if cost < 0:
            raise ValueError("negative job cost: %r" % cost)
        sim = self.sim
        now = sim.now
        start = now if now > self.busy_until else self.busy_until
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
            sim._seq = seq = sim._seq + 1
            if len(args) == 1:
                heappush(sim._heap, (done, seq, fn, args[0]))
            else:
                heappush(sim._heap, (done, seq, _apply, (fn, args)))
        return done


def _trampolines(sim, core):
    return sum(1 for e in sim._heap if e[2] is Core._complete and e[3] is core)


class _Run:
    """Plays one schedule on a fresh simulator with one core class."""

    def __init__(self, core_cls, traced):
        self.sim = sim = Simulator()
        self.sink = ListSink()
        if traced:
            sim.tracer = Tracer(sink=self.sink, enabled=True)
        self.cores = [core_cls(sim, "cpu%d" % i) for i in range(CORES)]
        self.checked = core_cls is Core
        self.log = []
        self.labels = 0

    # Job callbacks, one per arity, so trace names tell them apart.
    def job0(self):
        self._fired("job0", None)

    def job1(self, action):
        self._fired("job1", action)

    def job2(self, action, label):
        self._fired("job2", (action, label))

    def timer(self, label):
        self._fired("timer", label)

    def _fired(self, callback, arg):
        self.log.append((self.sim.now, callback, arg))
        if self.checked:
            # A core holds a job exactly when its trampoline is queued:
            # the next job is re-armed before the held one runs.
            for core in self.cores:
                assert _trampolines(self.sim, core) == (core._fn is not None)
        action = arg[0] if callback == "job2" else arg
        if callback != "timer" and action is not None:
            for child in action[4]:
                self.play(child)

    def play(self, action):
        sim, kind = self.sim, action[0]
        self.labels += 1
        label = self.labels
        if kind == "job" or kind == "burst":
            core, cost, arity = self.cores[action[1]], action[2], action[3]
            for _ in range(action[5] if kind == "burst" else 1):
                self._submit(core, cost, arity, action, label)
        elif kind == "charge":
            self.cores[action[1]].charge(action[2])
        elif kind == "anon":
            sim.call_anon(sim.now + action[1], self.timer, (label,))
        elif kind == "at":
            sim.call_at(sim.now + action[1], self.timer, label)
        else:
            sim.timeout(action[1]).add_callback(lambda _, label=label: self.timer(label))

    def _submit(self, core, cost, arity, action, label):
        sim = self.sim
        idle = core.busy_until <= sim.now
        if arity == 0:
            core.submit(cost, self.job0)
        elif arity == 1:
            core.submit(cost, self.job1, action)
        else:
            core.submit(cost, self.job2, action, label)
        if self.checked:
            # Idle: queued on the heap under the job's own callback.
            # Busy: held on the core, never a heap entry of its own.
            direct = [
                e for e in sim._heap
                if e[1] == sim._seq and e[2] is not Core._complete
            ]
            assert bool(direct) == idle

    def result(self, schedule):
        for at, action in schedule:
            self.sim.call_at(at, self.play, action)
        self.sim.run()
        trace = [(e.t, e.kind, e.name, e.data) for e in self.sink.events]
        return self.log, self.sim.dispatched, self.sim._seq, trace


costs = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
delays = st.sampled_from([0.0, 0.25, 0.5, 1.0])
cores = st.integers(0, CORES - 1)
arities = st.integers(0, 2)
leaves = st.one_of(
    st.tuples(st.just("job"), cores, costs, arities, st.just(())),
    st.tuples(st.just("charge"), cores, costs),
    st.tuples(st.just("anon"), delays),
    st.tuples(st.just("at"), delays),
    st.tuples(st.just("timeout"), delays),
)
actions = st.recursive(
    leaves,
    lambda inner: st.tuples(
        st.just("job"), cores, costs, arities, st.lists(inner, max_size=3).map(tuple)
    ),
    max_leaves=12,
)
bursts = st.tuples(
    st.just("burst"), cores, costs, arities, st.just(()), st.integers(2, 160)
)
schedules = st.lists(
    st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0]), st.one_of(actions, bursts)),
    max_size=24,
)


@pytest.mark.parametrize("traced", [False, True], ids=["batched", "traced"])
@given(schedule=schedules)
@settings(max_examples=150, deadline=None)
def test_backlog_on_core_dispatches_as_all_on_heap(traced, schedule):
    expected = _Run(_ReferenceCore, traced).result(schedule)
    assert _Run(Core, traced).result(schedule) == expected


@pytest.mark.parametrize("traced", [False, True], ids=["batched", "traced"])
def test_deep_backlog_compacts_in_order(traced):
    # 1,000 jobs behind one: the backlog compacts many times over, while
    # timers collide with completions and completions submit more work.
    schedule = [
        (0.0, ("burst", 0, 0.25, 1, (("job", 0, 0.0, 2, ()), ("at", 0.0)), 1000)),
        (0.5, ("burst", 1, 0.25, 2, (), 300)),
        (10.0, ("at", 0.25)),
        (10.0, ("burst", 0, 0.0, 0, (), 200)),
    ]
    expected = _Run(_ReferenceCore, traced).result(schedule)
    assert _Run(Core, traced).result(schedule) == expected


def test_job_submitted_as_the_core_frees_is_queued_directly():
    # busy_until == now is idle: the job goes on the heap as itself.
    sim = Simulator()
    core = Core(sim, "c")
    fired = []
    core.submit(1.0, fired.append, "a")
    sim.run(until=1.0)
    assert fired == ["a"] and core.busy_until == sim.now
    core.submit(0.5, fired.append, "b")
    assert sim._heap == [(1.5, sim._seq, fired.append, "b")]
    assert core._fn is None
