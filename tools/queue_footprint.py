#!/usr/bin/env python
"""What one queued kernel entry costs the host, in traced bytes.

A saturated core (worst-attack-1's Verification module, §VI-C) holds its
backlog on the core, behind one heap entry, and every message on the
wire is one more heap entry until it is delivered, so bytes per entry
set the peak RSS of a run that builds a backlog; so do the floats a
client keeps per request.  Five shapes are measured with tracemalloc,
each over ``JOBS`` entries left allocated:

* ``core_job_prebound`` — ``Core.submit(cost, fn, arg)`` with ``fn``
  bound once, as ``RBFTNode`` binds its stage callbacks;
* ``core_job_bound_per_call`` — the same with a bound method built at
  every submit (what a ``self._stage`` expression costs when the
  method is not pre-bound);
* ``channel_delivery`` — ``Channel.send`` of a pre-built message,
  delivery still pending;
* ``latency_sample`` — one ``LatencyRecorder.record`` of a fresh float,
  window not yet full (open-loop clients keep one sample per completed
  request);
* ``outstanding_send`` — one ``SendTimes.issue``, never answered (one
  per request in flight, ≈ 9 250 at the end of worst-attack-1).

``core_backlog_heap_entries`` is the structural witness: the kernel
heap's length once ``JOBS`` jobs wait on one busy core.

Ungated — CI's ``ledger-selftest`` job prints and uploads the record per
push (docs/simulator.md, "Memory per queued job").

Usage: ``python tools/queue_footprint.py [JOBS]`` (default 100000);
prints one JSON record, then the host fingerprint.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import tracemalloc

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))


class _Stage:
    """Stand-in for a node module: one completion method."""

    def after(self, item) -> None:
        pass


class _Msg:
    def wire_size(self) -> int:
        return 64


def _bytes_per_entry(jobs: int, queue) -> float:
    """Traced bytes ``queue()`` leaves allocated, per queued entry."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        queued = queue()  # kept alive: its heap holds the entries
        after, _ = tracemalloc.get_traced_memory()
        del queued
    finally:
        tracemalloc.stop()
    return round((after - before) / jobs, 1)


def measure(jobs: int) -> dict:
    from repro.clients.openloop import SendTimes
    from repro.metrics import LatencyRecorder
    from repro.net.network import Network
    from repro.net.nic import NIC
    from repro.sim import Core, Simulator

    items = [object() for _ in range(jobs)]
    stage = _Stage()

    def prebound():
        core, after = Core(Simulator()), stage.after
        for item in items:
            core.submit(1e-6, after, item)
        return core

    def bound_per_call():
        core = Core(Simulator())
        for item in items:
            core.submit(1e-6, stage.after, item)
        return core

    def backlog_heap_entries():
        core, after = Core(Simulator()), stage.after
        core.charge(1.0)  # busy: every job waits behind another
        for item in items:
            core.submit(1e-6, after, item)
        return len(core.sim._heap)

    msgs = [_Msg() for _ in range(jobs)]

    def deliveries():
        sim = Simulator()
        nics = NIC(sim, "a", 125e6), NIC(sim, "b", 125e6)
        channel = Network(sim).connect("a", "b", *nics, stage.after)
        for msg in msgs:
            channel.send(msg)
        return channel

    def latency_samples():
        recorder = LatencyRecorder(window=jobs)
        for index in range(jobs):
            recorder.record(index * 1e-6)
        return recorder

    def outstanding_sends():
        sent = SendTimes()
        for index in range(jobs):
            sent.issue(index * 1e-6)
        return sent

    return {
        "jobs": jobs,
        "core_job_prebound_b": _bytes_per_entry(jobs, prebound),
        "core_job_bound_per_call_b": _bytes_per_entry(jobs, bound_per_call),
        "channel_delivery_b": _bytes_per_entry(jobs, deliveries),
        "core_backlog_heap_entries": backlog_heap_entries(),
        "latency_sample_b": _bytes_per_entry(jobs, latency_samples),
        "outstanding_send_b": _bytes_per_entry(jobs, outstanding_sends),
    }


def main(argv) -> int:
    jobs = int(argv[0]) if argv else 100_000
    print(json.dumps(measure(jobs)))
    print(json.dumps({
        "host": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
