"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_after_fires_in_order():
    sim = Simulator()
    fired = []
    sim.call_after(2.0, fired.append, "b")
    sim.call_after(1.0, fired.append, "a")
    sim.call_after(3.0, fired.append, "c")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_callbacks_fire_fifo():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.call_after(1.0, fired.append, i)
    sim.run()
    assert fired == list(range(10))


def test_cannot_schedule_in_past():
    sim = Simulator()
    sim.call_after(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.call_at(0.5, lambda: None)


def test_handle_cancel_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.call_after(1.0, fired.append, "x")
    handle.cancel()
    sim.run()
    assert fired == []
    assert not handle.active


def test_handle_active_transitions_across_firing():
    sim = Simulator()
    handle = sim.call_after(1.0, lambda: None)
    assert handle.active
    sim.run()
    assert handle.done
    assert not handle.active


def test_handle_cancel_is_idempotent_and_safe_after_fire():
    sim = Simulator()
    fired = []
    early = sim.call_after(1.0, fired.append, "early")
    late = sim.call_after(2.0, fired.append, "late")
    late.cancel()
    late.cancel()  # repeat cancels are allowed
    sim.run()
    assert fired == ["early"]
    early.cancel()  # cancelling after the callback ran is a no-op
    assert not early.active
    assert early.done


def test_handle_cancel_mid_run_prevents_pending_callback():
    """A callback can cancel a later handle while the loop is draining."""
    sim = Simulator()
    fired = []
    victim = sim.call_after(2.0, fired.append, "victim")
    sim.call_after(1.0, victim.cancel)
    sim.run()
    assert fired == []
    assert not victim.active


def test_cancelled_handle_can_be_rescheduled_fresh():
    """Refire pattern: cancel the old handle, schedule a new one."""
    sim = Simulator()
    fired = []
    old = sim.call_after(1.0, fired.append, "x")
    old.cancel()
    renewed = sim.call_after(3.0, fired.append, "x")
    sim.run()
    assert fired == ["x"]
    assert sim.now == 3.0
    assert renewed.done and not old.done


def test_run_until_stops_clock_exactly():
    sim = Simulator()
    fired = []
    sim.call_after(5.0, fired.append, "late")
    sim.run(until=2.0)
    assert sim.now == 2.0
    assert fired == []
    sim.run()
    assert fired == ["late"]


def test_run_until_advances_clock_when_queue_empty():
    sim = Simulator()
    sim.run(until=7.5)
    assert sim.now == 7.5


def test_nested_scheduling():
    sim = Simulator()
    times = []

    def outer():
        times.append(sim.now)
        sim.call_after(1.0, inner)

    def inner():
        times.append(sim.now)

    sim.call_after(1.0, outer)
    sim.run()
    assert times == [1.0, 2.0]


def test_event_succeed_runs_callbacks():
    sim = Simulator()
    got = []
    event = sim.event()
    event.add_callback(lambda e: got.append(e.value))
    sim.call_after(1.0, event.succeed, 42)
    sim.run()
    assert got == [42]


def test_event_double_trigger_raises():
    sim = Simulator()
    event = sim.event()
    event.succeed(1)
    with pytest.raises(RuntimeError):
        event.succeed(2)


def test_callback_added_after_processing_fires_immediately():
    sim = Simulator()
    event = sim.event()
    event.succeed("v")
    sim.run()
    got = []
    event.add_callback(lambda e: got.append(e.value))
    assert got == ["v"]


def test_timeout_value():
    sim = Simulator()
    got = []
    timeout = sim.timeout(3.0, "done")
    timeout.add_callback(lambda e: got.append((sim.now, e.value)))
    sim.run()
    assert got == [(3.0, "done")]


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_process_waits_on_timeouts():
    sim = Simulator()
    trace = []

    def proc():
        trace.append(sim.now)
        yield sim.timeout(1.5)
        trace.append(sim.now)
        yield sim.timeout(2.5)
        trace.append(sim.now)

    sim.process(proc())
    sim.run()
    assert trace == [0.0, 1.5, 4.0]


def test_process_return_value_propagates():
    sim = Simulator()

    def child():
        yield sim.timeout(1.0)
        return "result"

    results = []

    def parent():
        value = yield sim.process(child())
        results.append(value)

    sim.process(parent())
    sim.run()
    assert results == ["result"]


def test_process_yield_non_event_raises():
    sim = Simulator()

    def bad():
        yield 42

    sim.process(bad())
    with pytest.raises(TypeError):
        sim.run()


def test_peek_returns_next_time():
    sim = Simulator()
    assert sim.peek() is None
    sim.call_after(4.0, lambda: None)
    sim.call_after(2.0, lambda: None)
    assert sim.peek() == 2.0


def test_determinism_same_schedule_twice():
    def build_and_run():
        sim = Simulator()
        trace = []

        def proc(name, delay):
            for _ in range(3):
                yield sim.timeout(delay)
                trace.append((name, sim.now))

        sim.process(proc("a", 1.0))
        sim.process(proc("b", 0.7))
        sim.run()
        return trace

    assert build_and_run() == build_and_run()


# ------------------------------------------------------- run(until) composition
def test_run_until_event_exactly_at_limit_fires():
    sim = Simulator()
    fired = []
    sim.call_after(2.0, fired.append, "on-limit")
    sim.call_after(2.0 + 1e-9, fired.append, "past-limit")
    sim.run(until=2.0)
    assert fired == ["on-limit"]
    assert sim.now == 2.0


def test_run_until_segments_compose():
    sim = Simulator()
    fired = []
    for t in (0.5, 1.5, 2.5, 3.5):
        sim.call_at(t, fired.append, t)
    sim.run(until=1.0)
    assert fired == [0.5] and sim.now == 1.0
    sim.run(until=2.0)
    assert fired == [0.5, 1.5] and sim.now == 2.0
    # A run over an empty stretch still lands exactly on its limit...
    sim.run(until=2.2)
    assert fired == [0.5, 1.5] and sim.now == 2.2
    # ...and the remaining events are neither lost nor re-fired.
    sim.run()
    assert fired == [0.5, 1.5, 2.5, 3.5] and sim.now == 3.5


def test_run_until_pushed_back_entry_survives_for_next_run():
    # The hot loop pops the first beyond-limit entry and pushes it back;
    # a subsequent run() must still dispatch it exactly once.
    sim = Simulator()
    fired = []
    sim.call_after(1.0, fired.append, "x")
    sim.run(until=0.25)
    sim.run(until=0.5)  # pops + pushes back "x" again
    assert fired == []
    sim.run(until=1.0)
    assert fired == ["x"]


# ----------------------------------------------------- anonymous fast path
def test_call_soon_runs_fifo_with_handles_at_same_time():
    # Ties at equal times break by scheduling sequence, regardless of
    # whether the entry is a Handle or an anonymous fast-path callback.
    sim = Simulator()
    order = []

    def kickoff():
        sim.call_after(0.0, order.append, "handle-1")
        sim.call_soon(order.append, "anon-1")
        sim.call_after(0.0, order.append, "handle-2")
        sim.call_soon(order.append, "anon-2")

    sim.call_soon(kickoff)
    sim.run()
    assert order == ["handle-1", "anon-1", "handle-2", "anon-2"]


def test_call_anon_orders_by_time_then_sequence():
    sim = Simulator()
    order = []
    sim.call_anon(2.0, order.append, ("late",))
    sim.call_anon(1.0, order.append, ("early-1",))
    sim.call_anon(1.0, order.append, ("early-2",))
    sim.call_at(1.0, order.append, "handle-last")
    sim.run()
    assert order == ["early-1", "early-2", "handle-last", "late"]


def test_call_soon_counts_in_dispatched_and_peek():
    sim = Simulator()
    sim.call_soon(lambda: None)
    assert sim.peek() == 0.0
    before = sim.dispatched
    sim.run()
    assert sim.dispatched == before + 1


def test_handle_cancel_between_run_segments():
    # Cancellation must keep working alongside the fast-path entries:
    # cancelled handles are popped and skipped, anonymous entries fire.
    sim = Simulator()
    fired = []
    handle = sim.call_after(1.0, fired.append, "cancelled")
    sim.call_anon(1.0, fired.append, ("kept",))
    sim.run(until=0.5)
    handle.cancel()
    sim.run()
    assert fired == ["kept"]


def test_run_freezes_the_deployment_and_always_unfreezes():
    import gc

    assert gc.get_freeze_count() == 0
    sim = Simulator()
    seen = []
    sim.call_after(1.0, lambda: seen.append(gc.get_freeze_count()))
    sim.run()
    # Inside the loop what existed at entry is exempt from collection...
    assert seen[0] > 0
    # ...and nothing stays exempt afterwards, even when a callback raised.
    assert gc.get_freeze_count() == 0

    def boom():
        raise RuntimeError("boom")

    sim.call_after(1.0, boom)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    assert gc.get_freeze_count() == 0
    sim.run(until=5.0)  # and the simulator is usable again
    assert sim.now == 5.0
