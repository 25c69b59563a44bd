"""Batched-execution tests for the kernel run loop.

The untraced run loop drains same-timestamp entries as one batch (one
clock store, one limit check per distinct timestamp).  These tests pin
the behaviours that batching must not change: the ``(time, seq, ...)``
tie-break contract (on the batched *and* the traced per-entry loop),
cancellation of entries already conceptually inside the current batch,
and zero-delay rescheduling.
"""

import pytest

from repro.sim import Simulator
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
