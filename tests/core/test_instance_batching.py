"""Cross-instance certificate batching (the batched pacing tier).

Above the pacing threshold (``f > pacing_f_threshold``), a node's
backup ordering instances stop broadcasting PRE-PREPARE / PREPARE /
COMMIT one message at a time: a shared :class:`CertificateCoalescer`
folds a short window of them into one :class:`InstanceBatchMsg`
envelope under one authenticator, and the receiver dispatches the
whole envelope as a single core task.  The master instance stays
exact.  These tests pin

* the configuration surface (knobs, tiers, validation, the registry's
  Scenario-path defaults),
* the envelope's wire/cost model and per-instance grouping,
* that forced batching at f ≤ 3 reproduces the unbatched outcomes —
  the batched path is an event-count optimisation, not a protocol
  change — and
* the monitor's per-instance progress summaries on the batched path.
"""

import pytest

from repro.common.batching import CertificateCoalescer, group_by_instance
from repro.core import RBFTConfig
from repro.core.messages import InstanceBatchMsg
from repro.core.node import BatchingInstanceTransport, InstanceTransport
from repro.crypto import CryptoCostModel
from repro.crypto.costmodel import MAC_SIZE, MESSAGE_HEADER_SIZE
from repro.crypto.primitives import MacAuthenticator
from repro.experiments import deploy
from repro.protocols import registry
from repro.protocols.pbft.engine import InstanceConfig, OrderingInstance
from repro.protocols.pbft.messages import Commit, PrePrepare, Prepare
from repro.sim import Core, Simulator
from tests.protocols.test_engine_unit import request


def small_config(f=1, **overrides):
    defaults = dict(f=f, batch_size=8, batch_delay=1e-3, monitoring_period=0.1)
    defaults.update(overrides)
    return RBFTConfig(**defaults)


def drive(dep, count, gap=1e-4):
    for i in range(count):
        client = dep.clients[i % len(dep.clients)]
        dep.sim.call_after(i * gap, lambda c=client: c.send_request())


# ------------------------------------------------------------------ config
def test_batching_activates_above_the_pacing_threshold():
    assert not RBFTConfig(f=1).batching_active
    assert not RBFTConfig(f=3, cores_per_machine=8).batching_active
    assert RBFTConfig(f=4, cores_per_machine=9).batching_active
    assert RBFTConfig(f=2, pacing_f_threshold=1).batching_active
    assert RBFTConfig(f=1, pacing_f_threshold=0).batching_active


def test_pacing_tiers():
    """Two tiers, one selector: batched exactly when f is above the
    threshold, exact otherwise."""
    for threshold in range(5):
        for f in range(1, 6):
            config = RBFTConfig(
                f=f, pacing_f_threshold=threshold, cores_per_machine=10
            )
            assert config.batching_active == (f > threshold)


def test_knob_validation():
    with pytest.raises(ValueError, match="pacing_f_threshold"):
        RBFTConfig(f=1, pacing_f_threshold=-1)
    with pytest.raises(ValueError, match="instance_batch_window"):
        RBFTConfig(f=1, instance_batch_window=-1.0)
    with pytest.raises(ValueError, match="instance_batch_limit"):
        RBFTConfig(f=1, instance_batch_limit=1)
    with pytest.raises(ValueError, match="backup_batch_delay"):
        RBFTConfig(f=1, backup_batch_delay=0.0)


def test_batching_conflicts_with_best_backup_promotion():
    with pytest.raises(ValueError, match="promote_best_backup"):
        RBFTConfig(f=1, pacing_f_threshold=0, promote_best_backup=True)
    # The exact path still allows promotion.
    RBFTConfig(f=1, promote_best_backup=True)


def test_registry_applies_the_pacing_knobs_on_the_scenario_path():
    """The Scenario path resolves configs through the registry; the
    pacing threshold must come from the config knob, not a hard-coded
    rule, and the batched tier paces the master at the registry's
    delay."""
    from repro.experiments.scale import SMOKE

    factory = registry.get("rbft").config_factory
    small = factory(3, SMOKE)
    assert small.batch_delay == pytest.approx(1e-3)
    assert not small.batching_active
    large = factory(5, SMOKE)
    assert large.batch_delay == pytest.approx(registry.PACED_BATCH_DELAY)
    assert large.batching_active


def test_backup_instance_config_paces_only_on_the_batched_tier():
    exact = small_config(f=1)
    assert exact.backup_instance_config() == exact.instance_config()
    batched = small_config(f=1, pacing_f_threshold=0)
    backup = batched.backup_instance_config()
    assert backup.batch_delay == pytest.approx(batched.backup_batch_delay)
    assert batched.instance_config().batch_delay == pytest.approx(1e-3)


# ---------------------------------------------------------------- envelope
def _cert(sender, instance, seq):
    auth = MacAuthenticator.for_signer(sender)
    return Prepare(sender, instance, 0, seq, ("digest", seq), auth)


def test_envelope_wire_size_shares_one_authenticator():
    certs = [_cert("node1", 1, s) for s in (1, 2)] + [_cert("node1", 2, 1)]
    envelope = InstanceBatchMsg(
        "node1", certs, MacAuthenticator.for_signer("node1")
    )
    inner = sum(c.wire_size() - 4 * MAC_SIZE for c in certs)
    assert envelope.wire_size() == MESSAGE_HEADER_SIZE + 4 * MAC_SIZE + inner
    # Cheaper than three full messages on the wire.
    assert envelope.wire_size() < sum(c.wire_size() for c in certs)


def test_envelope_groups_runs_per_instance_once():
    auth = MacAuthenticator.for_signer("node1")
    msgs = [
        _cert("node1", 2, 1),
        _cert("node1", 1, 1),
        Commit("node1", 1, 0, 1, ("digest", 1), auth),
    ]
    envelope = InstanceBatchMsg("node1", msgs, auth)
    runs = envelope.runs()
    assert [instance for instance, _ in runs] == [1, 2]
    assert runs[0][1] == [msgs[1], msgs[2]]  # arrival order kept
    assert envelope.runs() is runs  # memoised for the n-1 receivers
    assert group_by_instance(msgs) == runs


def test_coalescer_flushes_on_window_and_size():
    sim = Simulator()
    flushed = []
    coalescer = CertificateCoalescer(sim, 3, 1e-3, flushed.append)
    coalescer.add("a")
    coalescer.add("b")
    sim.run(until=0.01)
    assert flushed == [["a", "b"]]  # window expired
    for item in ("c", "d", "e"):
        coalescer.add(item)
    assert flushed[-1] == ["c", "d", "e"]  # size-triggered, no timer wait


# ------------------------------------------- envelope ≡ per-message, engine
class _Outbox:
    def __init__(self):
        self.sent = []

    def broadcast(self, msg):
        self.sent.append((type(msg).__name__, msg.view, msg.seq))


def _engine():
    sim = Simulator()
    outbox, ordered, invalid = _Outbox(), [], []
    engine = OrderingInstance(
        sim, Core(sim, "core"), outbox, InstanceConfig(f=1),
        CryptoCostModel(), replica="node2", instance=1,
        on_ordered=lambda seq, items: ordered.append((seq, items)),
        primary_offset=0,
    )
    engine.on_invalid = invalid.append
    return sim, engine, outbox, ordered, invalid


def _certificate_run():
    """What node1 and node3 would envelope to node2 for two batches,
    plus one message with a corrupt inner authenticator and one COMMIT
    from the next view."""
    valid = MacAuthenticator.for_signer
    run = []
    for seq in (1, 2):
        run.append(PrePrepare(
            "node0", 1, 0, seq, (request(seq),), ("digest", seq), 64,
            valid("node0"),
        ))
        for sender in ("node1", "node3"):
            run.append(Prepare(sender, 1, 0, seq, ("digest", seq), valid(sender)))
        for sender in ("node0", "node1"):
            run.append(Commit(sender, 1, 0, seq, ("digest", seq), valid(sender)))
    run.insert(3, Prepare(
        "node3", 1, 0, 1, ("digest", 1), MacAuthenticator.corrupt("node3")
    ))
    run.insert(6, Commit("node3", 1, 1, 3, ("digest", 3), valid("node3")))
    return run


def _state(engine, outbox, ordered, invalid):
    return {
        "ordered": list(ordered),
        "sent": list(outbox.sent),
        "invalid": list(invalid),
        "future": [(type(m).__name__, m.view, m.seq) for m in engine._future],
        "sizes": engine.log_sizes(),
        "view": engine.view,
    }


def test_dispatch_batch_matches_receiving_one_message_at_a_time():
    run = _certificate_run()
    sim_a, enveloped, *rest_a = _engine()
    enveloped.dispatch_batch(run)
    sim_a.run()
    sim_b, single, *rest_b = _engine()
    for msg in run:
        single.receive(msg)
    sim_b.run()
    state = _state(enveloped, *rest_a)
    assert state == _state(single, *rest_b)
    # The corrupt inner authenticator was reported once and only that
    # message was lost: node3's valid PREPARE still counted.
    assert state["invalid"] == ["node3"]
    assert [seq for seq, _ in state["ordered"]] == [1, 2]
    # The next-view COMMIT waits in the future buffer ...
    assert state["future"] == [("Commit", 1, 3)]
    # ... and is replayed on view entry, on both paths alike.
    for engine in (enveloped, single):
        engine._install_view(1, announce=False)
    assert _state(enveloped, *rest_a) == _state(single, *rest_b)
    assert enveloped._future == []
    assert (
        enveloped.log_sizes()["commit_votes"]
        == state["sizes"]["commit_votes"] + 1
    )


# ------------------------------------------------- batched deployment runs
def test_batched_transport_wiring_and_master_exactness():
    dep = deploy("rbft", small_config(f=1, pacing_f_threshold=0), n_clients=2)
    node = dep.nodes[0]
    assert isinstance(node.engines[0].transport, InstanceTransport)
    assert isinstance(node.engines[1].transport, BatchingInstanceTransport)
    assert "cert_coalescer" in node.log_sizes()
    exact = deploy("rbft", small_config(f=1), n_clients=2)
    assert all(
        isinstance(e.transport, InstanceTransport)
        for e in exact.nodes[0].engines
    )
    assert "cert_coalescer" not in exact.nodes[0].log_sizes()


@pytest.mark.parametrize("f", [1, 2, 3])
def test_forced_batching_reproduces_unbatched_outcomes(f):
    """The batched path is a pure event-count optimisation: at any f the
    set of executed requests, the per-client completions and the
    per-instance ordered totals match the exact path (timing shifts —
    coalescing reorders jitter draws — so only robust outcomes can be
    compared)."""
    results = {}
    for threshold in (3, 0):
        dep = deploy(
            "rbft", small_config(f=f, pacing_f_threshold=threshold),
            n_clients=4,
            seed=11,
        )
        drive(dep, 40)
        dep.sim.run(until=1.5)
        results[threshold] = {
            "executed": [n.executed_count for n in dep.nodes],
            "completed": [c.completed for c in dep.clients],
            "ordered": [
                [e.ordered_items for e in n.engines] for n in dep.nodes
            ],
            "instance_changes": [n.instance_changes for n in dep.nodes],
        }
    assert results[0] == results[3]
    assert results[0]["executed"] == [40] * (3 * f + 1)
    assert results[0]["instance_changes"] == [0] * (3 * f + 1)


def test_batched_run_sends_envelopes_and_summarises_backups():
    dep = deploy("rbft", small_config(f=1, pacing_f_threshold=0), n_clients=4)
    drive(dep, 40)
    dep.sim.run(until=1.5)
    node = dep.nodes[0]
    coalescer = node._cert_coalescer
    assert coalescer.flushed_items > 0
    assert coalescer.flushed_batches < coalescer.flushed_items
    # Backup progress is summarised per instance; the Δ counters saw
    # every ordered batch on both instances.
    assert node.monitor.progress[1][2] == 40
    assert all(e.ordered_items == 40 for e in node.engines)
    # The propagation memos were garbage-collected at master execution.
    sizes = node.log_sizes()
    assert sizes["propagated"] == 0
    assert sizes["ready_ids"] == 0
    assert sizes["propagate_votes"] == 0
    assert sizes["given_at"] == 0


def test_note_progress_accumulates_per_instance():
    from repro.core.monitoring import InstanceMonitor

    monitor = InstanceMonitor(Simulator(), small_config(f=1), lambda r: None)
    monitor.note_progress(1, 0, 3, 8)
    monitor.note_progress(1, 0, 2, 4)  # out-of-order completion
    monitor.note_progress(1, 0, 5, 8)
    assert monitor.progress[1] == (0, 5, 20)
    monitor.note_progress(1, 1, 1, 2)  # new view resets the seq frontier
    assert monitor.progress[1] == (1, 1, 22)
