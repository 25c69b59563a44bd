"""Unit tests for the CPU core model."""

import pytest

from repro.sim import Core, CoreSet, Simulator


def test_idle_core_runs_job_after_cost():
    sim = Simulator()
    core = Core(sim, "c")
    done = []
    core.submit(2.0, lambda: done.append(sim.now))
    sim.run()
    assert done == [2.0]


def test_jobs_queue_fifo():
    sim = Simulator()
    core = Core(sim, "c")
    done = []
    core.submit(1.0, done.append, "a")
    core.submit(1.0, done.append, "b")
    core.submit(0.5, done.append, "c")
    sim.run()
    assert done == ["a", "b", "c"]
    assert sim.now == 2.5


def test_core_becomes_idle_between_bursts():
    sim = Simulator()
    core = Core(sim, "c")
    done = []
    core.submit(1.0, done.append, None)
    # Second burst submitted at t=5, well after the first completes.
    sim.call_after(5.0, core.submit, 1.0, lambda: done.append(sim.now))
    sim.run()
    assert sim.now == 6.0


def test_charge_accumulates_without_callback():
    sim = Simulator()
    core = Core(sim, "c")
    assert core.charge(3.0) == 3.0
    assert core.charge(1.0) == 4.0
    assert core.busy_until == 4.0
    assert core.jobs == 2


def test_queue_delay():
    sim = Simulator()
    core = Core(sim, "c")
    assert core.queue_delay == 0.0
    core.charge(2.0)
    assert core.queue_delay == 2.0


def test_negative_cost_rejected():
    sim = Simulator()
    core = Core(sim, "c")
    with pytest.raises(ValueError):
        core.submit(-0.1)


def test_utilization_tracks_busy_fraction():
    sim = Simulator()
    core = Core(sim, "c")
    core.charge(2.0)
    sim.run(until=4.0)
    assert core.utilization() == pytest.approx(0.5)


def test_zero_cost_jobs_preserve_order():
    sim = Simulator()
    core = Core(sim, "c")
    done = []
    core.submit(0.0, done.append, 1)
    core.submit(0.0, done.append, 2)
    sim.run()
    assert done == [1, 2]


def test_queued_job_memory_budget():
    """What one job waiting in a core's backlog costs the host.

    A saturated core (worst-attack-1's Verification module) holds a deep
    backlog.  With the callback bound once, a queued job read 184 traced
    bytes as a heap entry whose single argument travelled in a
    ``(arg,)`` tuple, 136 once it was queued bare, and ≈ 33 since it
    waits on the core (two machine words, two references); the ceiling
    sits well below a heap entry.
    """
    import tracemalloc

    jobs = 10_000
    sim = Simulator()
    core = Core(sim, "c")
    done = []
    callback = done.append  # bound once, like RBFTNode's stage callbacks
    payloads = [object() for _ in range(jobs)]
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for payload in payloads:
            core.submit(1e-6, callback, payload)
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (after - before) / jobs <= 64
    sim.run()
    assert done == payloads


def test_saturated_core_holds_one_heap_entry():
    sim = Simulator()
    core = Core(sim, "c")
    done = []
    core.charge(1.0)  # busy: every job below waits behind another
    for job in range(10_000):
        core.submit(1e-6, done.append, job)
    assert len(sim._heap) == 1
    sim.run()
    assert done == list(range(10_000))


def test_drained_core_releases_its_backlog():
    # An idle core costs nothing: the backlog containers go once drained.
    sim = Simulator()
    core = Core(sim, "c")
    done = []
    for job in range(200):
        core.submit(1e-6, done.append, job)
    assert core._calls is not None
    sim.run()
    assert len(done) == 200
    assert (core._fn, core._arg) == (None, None)
    assert core._dones is None and core._seqs is None and core._calls is None


def test_coreset_allocates_distinct_cores():
    sim = Simulator()
    cores = CoreSet(sim, 4, "node0")
    a = cores.allocate("verification")
    b = cores.allocate("propagation")
    assert a is not b
    assert cores.allocated == 2
    assert cores.available == 2


def test_coreset_exhaustion_raises():
    sim = Simulator()
    cores = CoreSet(sim, 2, "node0")
    cores.allocate()
    cores.allocate()
    with pytest.raises(RuntimeError):
        cores.allocate("one too many")


def test_coreset_requires_positive_count():
    sim = Simulator()
    with pytest.raises(ValueError):
        CoreSet(sim, 0)
