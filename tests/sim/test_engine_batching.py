"""Batched-execution tests for the kernel run loop.

The untraced run loop drains same-timestamp entries as one batch (one
clock store, one limit check per distinct timestamp).  These tests pin
the behaviours that batching must not change: the ``(time, seq, ...)``
tie-break contract (on the batched *and* the traced per-entry loop),
cancellation of entries already conceptually inside the current batch,
and zero-delay rescheduling.
"""

import pytest

from repro.net.network import LinkProfile, Network
from repro.net.nic import NIC
from repro.sim import Core, Simulator
from repro.trace import ListSink, Tracer


def _run_interleaving(traced):
    """One mixed workload; return the observed (label, now) firing log."""
    sim = Simulator()
    if traced:
        sim.tracer = Tracer(sink=ListSink(), enabled=True)
    log = []

    def fire(label):
        log.append((label, sim.now))

    # Two timestamp groups, scheduled out of order on purpose: within a
    # group, firing order must be scheduling (seq) order regardless of
    # scheduling API; across groups, time order wins.
    sim.call_at(2.0, fire, "late-0")
    sim.call_at(1.0, fire, "tie-0")
    sim.call_anon(1.0, fire, ("tie-1",))
    sim.call_at(2.0, fire, "late-1")
    sim.call_at(1.0, fire, "tie-2")

    # Entries *added from inside* the t=1.0 batch: same-time additions
    # get fresh (higher) sequence numbers, so they run after the already
    # queued t=1.0 entries but still at time 1.0, before the t=2.0 batch.
    def spawner():
        sim.call_soon(fire, "soon")
        sim.call_at(1.0, fire, "same-time")

    sim.call_at(1.0, spawner)
    sim.run()
    return log


@pytest.mark.parametrize("traced", [False, True], ids=["batched", "traced"])
def test_time_seq_contract_holds_on_both_loops(traced):
    assert _run_interleaving(traced) == [
        ("tie-0", 1.0),
        ("tie-1", 1.0),
        ("tie-2", 1.0),
        ("soon", 1.0),
        ("same-time", 1.0),
        ("late-0", 2.0),
        ("late-1", 2.0),
    ]


def test_traced_and_batched_loops_agree():
    assert _run_interleaving(False) == _run_interleaving(True)


class _Msg:
    """Minimal message stand-in for a channel delivery."""

    def __init__(self, label):
        self.label = label

    def wire_size(self):
        return 64


def fire(log, label):
    log.append(label)


class _Fire0:
    """A labelled zero-argument callback: its bound ``run``."""

    def __init__(self, log, label):
        self.log, self.label = log, label

    def run(self):
        self.log.append(self.label)


class _Sink:
    def __init__(self, log):
        self.log = log

    def deliver(self, msg):
        self.log.append(msg.label)


def _run_every_kind(traced):
    """Every heap-entry kind queued at one timestamp, in a known order.

    Returns the firing log and the traced ``sim.dispatch`` records as
    ``(name, data)`` pairs (empty when untraced).
    """
    sim = Simulator()
    sink = ListSink()
    if traced:
        sim.tracer = Tracer(sink=sink, enabled=True)
    log = []
    core = Core(sim, "cpu")
    # Unconstrained NICs and a zero-latency link: a send delivers now.
    channel = Network(sim).connect(
        "a", "b", NIC(sim, "a", float("inf")), NIC(sim, "b", float("inf")),
        _Sink(log).deliver,
        LinkProfile(latency=0.0, jitter=0.0, tcp_overhead=0.0),
    )

    def schedule_every_kind():
        now = sim.now
        sim.call_at(now, fire, log, "handle")
        sim.call_at(now, fire, log, "cancelled").cancel()
        event = sim.event()
        event.add_callback(lambda _: log.append("event"))
        event.succeed()
        sim.timeout(0.0).add_callback(lambda _: log.append("timeout"))
        sim.call_soon(_Fire0(log, "soon-0").run)
        sim.call_soon(log.append, "soon-1")
        sim.call_soon(fire, log, "soon-2")
        sim.call_anon(now, _Fire0(log, "anon-0").run, ())
        sim.call_anon(now, log.append, ("anon-1",))
        sim.call_anon(now, fire, (log, "anon-2"))
        core.submit(0.0, _Fire0(log, "core-0").run)
        core.submit(0.0, log.append, "core-1")
        core.submit(0.0, fire, log, "core-2")
        channel.send(_Msg("delivery"))

    sim.call_at(2.0, fire, log, "late")
    sim.call_at(1.0, fire, log, "queued-before")
    sim.call_at(1.0, schedule_every_kind)
    sim.run()
    dispatches = [
        (event.name, event.data) for event in sink if event.kind == "sim.dispatch"
    ]
    return log, dispatches


@pytest.mark.parametrize("traced", [False, True], ids=["batched", "traced"])
def test_every_entry_kind_ties_fifo_by_seq(traced):
    log, _ = _run_every_kind(traced)
    assert log == [
        "queued-before",
        "handle",
        "event",
        "timeout",
        "soon-0", "soon-1", "soon-2",
        "anon-0", "anon-1", "anon-2",
        "core-0", "core-1", "core-2",
        "delivery",
        "late",
    ]


def test_traced_loop_names_every_entry_kind():
    # Handles name their callback and carry ``cancelled``; events their
    # class; anonymous entries the callback itself, whatever its arity.
    _, dispatches = _run_every_kind(True)
    live, cancelled = {"cancelled": False}, {"cancelled": True}
    arities = [("_Fire0.run", {}), ("list.append", {}), ("fire", {})]
    assert dispatches == [
        ("fire", live),
        ("_run_every_kind.<locals>.schedule_every_kind", live),
        ("fire", live),
        ("fire", cancelled),
        ("Event", {}),
        ("Timeout", {}),
        *arities,  # call_soon
        *arities,  # call_anon
        *arities,  # Core.submit
        ("_Sink.deliver", {}),
        ("fire", live),
    ]


def test_traced_loop_names_a_held_core_job():
    # Jobs behind another wait on the core behind its one trampoline
    # entry; the record names each job's callback, never Core._complete.
    sim = Simulator()
    sink = ListSink()
    sim.tracer = Tracer(sink=sink, enabled=True)
    log = []
    core = Core(sim, "cpu")
    core.submit(1.0, log.append, "direct")
    core.submit(1.0, _Fire0(log, "held").run)
    core.submit(1.0, fire, log, "backlog")
    sim.run()
    assert log == ["direct", "held", "backlog"]
    assert [e.name for e in sink if e.kind == "sim.dispatch"] == [
        "list.append", "_Fire0.run", "fire",
    ]


def test_cancel_within_current_batch_prevents_firing():
    """Cancelling a later same-timestamp handle from an earlier one works.

    When the victim's heap entry is drained as part of the batch the loop
    is already executing, the cancel must still win — the Handle checks
    its flag at fire time, not at pop time.
    """
    sim = Simulator()
    fired = []
    handles = {}

    sim.call_at(1.0, lambda: handles["victim"].cancel())
    handles["victim"] = sim.call_at(1.0, fired.append, "victim")
    sim.call_at(1.0, fired.append, "survivor")
    sim.run()
    assert fired == ["survivor"]
    assert not handles["victim"].active


def test_zero_delay_reschedule_lands_in_same_batch():
    """A callback re-arming itself at ``now`` fires again without the
    clock moving — the batch extends to the new entry."""
    sim = Simulator()
    times = []

    def rearm():
        times.append(sim.now)
        if len(times) < 3:
            sim.call_after(0.0, rearm)

    sim.call_at(1.0, rearm)
    sim.call_at(2.0, times.append, None)
    sim.run()
    assert times == [1.0, 1.0, 1.0, None]


def test_call_soon_from_batch_runs_before_clock_advances():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: sim.call_soon(seen.append, sim.now))
    sim.call_at(1.0 + 1e-9, seen.append, "next")
    sim.run()
    # call_soon's callback observed now == 1.0, i.e. it ran inside the
    # t=1.0 batch, before the marginally later entry.
    assert seen == [1.0, "next"]


def test_run_until_splits_a_batch_boundary_exactly():
    """Entries at exactly ``until`` fire; the first beyond it is pushed
    back untouched and the clock parks at ``until``."""
    sim = Simulator()
    fired = []
    sim.call_at(1.0, fired.append, "at-limit-0")
    sim.call_at(1.0, fired.append, "at-limit-1")
    sim.call_at(1.5, fired.append, "beyond")
    sim.run(until=1.0)
    assert fired == ["at-limit-0", "at-limit-1"]
    assert sim.now == 1.0
    sim.run()
    assert fired == ["at-limit-0", "at-limit-1", "beyond"]
