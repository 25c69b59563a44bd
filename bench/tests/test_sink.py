"""The aggregating sink against a ListSink on the same short run."""

from collections import Counter

from repro.trace import ListSink, Tracer

from drive import drive
from sink import AggregatingSink
from spans import Spans
from workloads import WORKLOADS

DURATION = 0.05


def _traced(sink):
    scenario = WORKLOADS["fig7_n4"].scenario(3).with_(
        duration=DURATION, warmup=0.01
    )

    def attach(deployment, _faulty):
        deployment.sim.tracer = Tracer(sink=sink)

    return drive(scenario, Spans("test"), attach=attach)


def test_sink_matches_a_retained_trace():
    retained = ListSink()
    record = _traced(retained)
    folded = AggregatingSink()
    assert _traced(folded)["events"] == record["events"]  # same run twice

    events = retained.events
    kinds = Counter(event.kind for event in events)
    jobs = [e for e in events if e.kind == "core.job"]
    delivered = [e for e in events if e.kind == "chan.deliver"]
    phases = Counter(e.data["phase"] for e in events if e.kind == "pbft.phase")
    summary = folded.summary(DURATION, record["completed"])

    assert summary["trace.events"] == len(events) > 10_000
    assert summary["sim.core_jobs"] == len(jobs) == kinds["core.job"]
    assert summary["net.msgs"] == len(delivered)
    assert summary["net.bytes"] == sum(e.data["size"] for e in delivered)
    assert summary["net.drops"] == kinds["chan.drop"] == 0
    assert summary["core.stage_events"] == kinds["node.stage"]
    assert summary["protocols.pbft.phase_pre_prepare"] == phases["pre-prepare"] > 0
    assert summary["protocols.pbft.phase_ordered"] == phases["ordered"]
    assert summary["core.queue_wait_s"] == sum(e.data["start"] - e.t for e in jobs)

    by_core = Counter()
    for event in jobs:
        by_core[event.name] += event.data["cost"]
    assert summary["core.util_max"] == max(by_core.values()) / DURATION
    verification = sum(
        busy for core, busy in by_core.items() if core.endswith("/verification")
    )
    assert abs(summary["core.verification_busy_s"] - verification) < 1e-12
    replicas = sum(busy for core, busy in by_core.items() if "/replica-" in core)
    assert abs(summary["core.replica_busy_s"] - replicas) < 1e-12
    busy_roles = sum(
        value for key, value in summary.items() if key.endswith("_busy_s")
    )
    assert abs(busy_roles - sum(by_core.values())) < 1e-9  # no core left out


def test_sink_forwards_only_subscribed_kinds():
    forwarded = ListSink()
    sink = AggregatingSink(forward=forwarded, forward_kinds={"pbft.phase"})
    _traced(sink)
    assert len(forwarded) == sum(sink.phases.values()) > 0
    assert {event.kind for event in forwarded} == {"pbft.phase"}
