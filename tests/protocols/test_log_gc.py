"""Checkpoint garbage collection keeps protocol logs bounded.

The property under test (the collector's analytical bound, scaled down
so a short run orders many multiples of it): with checkpoint GC running,
no per-sequence structure ever holds more than
``watermark_window + checkpoint_interval`` entries, no matter how many
batches the run orders.  Without GC every structure grows with the
number of ordered sequences instead, so a run ordering ~250 sequences
against a bound of 40 fails loudly on any leak.
"""

import pytest

from repro.clients import LoadGenerator, static_profile
from repro.common import Request
from repro.core import RBFTConfig
from repro.core.messages import PropagateMsg
from repro.crypto import MacAuthenticator, Signature
from repro.crypto.primitives import Digest
from repro.experiments import deploy
from repro.protocols.aardvark import AardvarkConfig
from repro.protocols.base import NodeConfig
from repro.protocols.pbft import engine as engine_module
from repro.protocols.pbft.engine import InstanceConfig
from repro.protocols.pbft.messages import Commit, PrePrepare, Prepare
from repro.protocols.prime import PrimeConfig
from repro.protocols.spinning import SpinningConfig
from repro.trace import K_LOG_SIZE, LogSizeWatch, Tracer, collect_final
from tests.protocols.test_engine_unit import make_group, request, submit_all
from tests.protocols import test_slot_certificates as slot_certificates

#: tiny windows so ~250 ordered sequences dwarf the bound.
INTERVAL = 8
WINDOW = 32
BOUND = WINDOW + INTERVAL

#: structures the bound covers (each indexed by sequence number or view).
BOUNDED_FIELDS = (
    "log",
    "prepare_votes",
    "commit_votes",
    "checkpoint_votes",
    "vc_votes",
    "waiting_guard",
)


def _small_instance(**overrides):
    return InstanceConfig(
        f=1, batch_size=4, checkpoint_interval=INTERVAL,
        watermark_window=WINDOW, **overrides,
    )


def _deployment(protocol):
    if protocol == "rbft":
        config = RBFTConfig(
            batch_size=4, checkpoint_interval=INTERVAL,
            watermark_window=WINDOW,
        )
    elif protocol == "aardvark":
        config = AardvarkConfig(instance=_small_instance())
    elif protocol == "spinning":
        config = SpinningConfig(instance=_small_instance(
            auto_advance_view=True, multicast_auth=True,
        ))
    else:
        config = NodeConfig(instance=_small_instance())
    return deploy(protocol, config, n_clients=6)


def _run_watched(dep, rate=2000.0, duration=0.5):
    watch = LogSizeWatch()
    dep.sim.tracer = Tracer(sink=watch, kinds=frozenset({K_LOG_SIZE}))
    generator = LoadGenerator(
        dep.sim, dep.clients, static_profile(rate, duration),
        dep.rng.stream("load"),
    )
    generator.start()
    dep.sim.run(until=duration + 0.3)
    collect_final(watch, dep.nodes)
    return watch, generator


@pytest.mark.parametrize("protocol", ["rbft", "aardvark", "spinning", "pbft"])
def test_per_sequence_structures_stay_bounded(protocol):
    dep = _deployment(protocol)
    watch, generator = _run_watched(dep)
    assert generator.total_completed() > 200  # the run genuinely ordered
    assert watch.observed > 0  # the gauge genuinely fired
    for emitter, peaks in watch.peaks.items():
        for field in BOUNDED_FIELDS:
            assert peaks.get(field, 0) <= BOUND, (
                "%s: %s peaked at %d > %d (watermark_window + "
                "checkpoint_interval) — per-sequence state is leaking"
                % (emitter, field, peaks.get(field, 0), BOUND)
            )


def test_prime_log_peak_is_horizon_independent():
    # Prime has no PBFT watermarks; its collector is bounded by the
    # pre-ordering frontiers instead.  Doubling the horizon must not
    # move the peak: a leak scales it with the number of ordered
    # batches, roughly doubling it here.
    peaks = {}
    for duration in (0.3, 0.6):
        dep = deploy("prime", PrimeConfig(), n_clients=6)
        watch, generator = _run_watched(dep, rate=1500.0, duration=duration)
        assert generator.total_completed() > 0
        peaks[duration] = watch.peak("total")
    assert peaks[0.6] <= 1.5 * peaks[0.3] + 25


def test_stabilize_discards_checkpoint_and_viewchange_votes():
    # Satellite of the GC change: QuorumTracker.discard/prune must leave
    # no checkpoint votes at or below the stable low watermark and no
    # view-change votes for unreachable (<= current) views.
    sim, fabric, engines, ordered = make_group(checkpoint_interval=4)
    submit_all(engines, [request(i) for i in range(64)])
    sim.run(until=0.5)
    for engine in engines:
        assert engine.low_watermark >= 12
        retained = engine._checkpoint_votes._masks
        assert all(seq > engine.low_watermark for seq, _ in retained)
        assert all(view > engine.view for view in engine._vc_votes)


def test_replayed_votes_below_the_stable_checkpoint_are_not_stored():
    # A Byzantine replica replays a window of its old PREPARE/COMMIT
    # votes — and invents some — for sequence numbers the group has
    # already garbage-collected.  Their slots are gone and a pre-prepare
    # at or below the floor is refused, so the votes can never matter;
    # storing them would re-seed per-sequence state until the next GC.
    sim, fabric, engines, ordered = make_group(checkpoint_interval=4)
    submit_all(engines, [request(i) for i in range(64)])
    sim.run(until=0.5)
    victim = engines[1]
    floor = victim.low_watermark
    assert floor >= 12
    replayed = [
        msg for msg in fabric.log
        if msg.sender == "node3"
        and msg.__class__ in (Prepare, Commit)
        and msg.seq <= floor
    ]
    assert len(replayed) >= 2 * floor  # a genuine window of old votes
    auth = MacAuthenticator("node3")
    forged = [
        cls("node3", 0, victim.view, seq, Digest(("forged", seq)), auth)
        for seq in range(1, floor + 1)
        for cls in (Prepare, Commit)
    ]
    before = victim.log_sizes()
    history = list(ordered[1])
    for msg in replayed + forged:
        victim.receive(msg)
    victim.dispatch_batch(replayed + forged)  # and once more, enveloped
    sim.run(until=0.6)
    assert victim.log_sizes() == before
    assert ordered[1] == history
    # A vote just above the floor is still stored (and collected later).
    victim.receive(
        Commit("node3", 0, victim.view, floor + 1, Digest("live"), auth)
    )
    sim.run(until=0.7)
    assert victim.log_sizes()["commit_votes"] == before["commit_votes"] + 1


def test_far_future_votes_from_one_sender_are_not_stored():
    # The other end of the window: one Byzantine replica votes for 10^4
    # sequence numbers past ``low_watermark + watermark_window`` with
    # fresh digests.  No pre-prepare is admissible there, so the votes
    # can never matter — and checkpoint GC (which sweeps at or below the
    # floor only) would never reclaim the stray slots they allocate.
    sim, fabric, engines, ordered = make_group(
        checkpoint_interval=4, watermark_window=16
    )
    submit_all(engines, [request(i) for i in range(64)])
    sim.run(until=0.5)
    victim = engines[1]
    ceiling = victim.low_watermark + 16
    auth = MacAuthenticator("node3")
    flood = [
        cls("node3", 0, victim.view, seq, Digest(("flood", seq)), auth)
        for seq in range(ceiling + 1, ceiling + 1 + 5000)
        for cls in (Prepare, Commit)
    ]
    before = victim.log_sizes()
    for msg in flood[: len(flood) // 2]:
        victim.receive(msg)
    victim.dispatch_batch(flood[len(flood) // 2:])  # the rest, enveloped
    sim.run(until=0.6)
    assert victim.log_sizes() == before
    # A vote at the top of the window is still stored.
    victim.receive(
        Commit("node3", 0, victim.view, ceiling, Digest("live"), auth)
    )
    sim.run(until=0.7)
    assert victim.log_sizes()["commit_votes"] == before["commit_votes"] + 1


def test_fresh_digest_flood_inside_the_window_allocates_one_stray_per_seq():
    # Inside the admission window a vote for a digest no slot is bound to
    # allocates a stray record, reclaimed only at the next checkpoint.
    # One Byzantine replica inventing 10^4 digests across the window may
    # allocate one per sequence number — an honest replica votes one
    # digest per (view, seq) — while votes onto the bound slot still
    # count, so an honest proposal at one of those seqs commits.
    sim, fabric, engines, ordered = make_group(
        checkpoint_interval=4, watermark_window=16
    )
    submit_all(engines, [request(i) for i in range(64)])
    sim.run(until=0.5)
    victim = engines[1]
    floor = victim.low_watermark
    assert victim.next_exec == floor + 1  # nothing above the floor yet
    auth = MacAuthenticator("node3")
    flood = [
        Prepare("node3", 0, victim.view, floor + 1 + k % 16,
                Digest(("flood", k)), auth)
        for k in range(10_000)
    ]
    before = victim.log_sizes()
    for msg in flood[:5000]:
        victim.receive(msg)
    victim.dispatch_batch(  # the rest, enveloped
        flood[5000:], "node3", victim._senders.bit("node3")
    )
    sim.run(until=0.6)
    assert victim.log_sizes()["prepare_votes"] <= before["prepare_votes"] + 16
    # The group's next proposal lands on the first flooded seq: node3's
    # own honest PREPARE/COMMIT there go to the bound slot and count.
    submit_all(engines, [request(64)])
    sim.run(until=0.7)
    assert ordered[1][-1] == (floor + 1, (request(64).request_id,))
    # The next checkpoint sweeps the strays and their ownership index.
    submit_all(engines, [request(i) for i in range(65, 80)])
    sim.run(until=0.8)
    assert victim.low_watermark >= floor + 4
    for index in (victim._stray, victim._stray_owners):
        assert all(key[1] > victim.low_watermark for key in index)


def test_future_view_flood_from_one_sender_leaves_room_for_honest_traffic():
    # The future-view buffer holds 4 096 messages per engine.  One
    # Byzantine replica sending 10^4 PREPAREs for views ahead used to
    # fill it alone, after which the honest next-view PRE-PREPARE was
    # dropped; each of the n senders now gets an equal share.
    sim, fabric, engines, ordered = make_group()
    victim = engines[2]
    capacity = victim.FUTURE_CAPACITY
    auth = MacAuthenticator("node3")
    flood = [
        Prepare("node3", 0, 5 + k, 1, Digest(("flood", k)), auth)
        for k in range(10_000)
    ]
    for msg in flood[:5000]:
        victim.receive(msg)
    victim.dispatch_batch(flood[5000:])  # the rest, enveloped
    sim.run(until=0.1)
    assert victim.log_sizes()["future"] == capacity // 4
    # The view-1 primary's PRE-PREPARE arrives before the victim has
    # installed view 1: buffered, and replayed once it has.
    item = request(0)
    victim.receive(PrePrepare(
        "node1", 0, 1, 1, (item,), Digest("next"), 100,
        MacAuthenticator("node1"),
    ))
    sim.run(until=0.2)
    assert victim.log_sizes()["future"] == capacity // 4 + 1
    victim._install_view(1, announce=False)
    sim.run(until=0.3)
    assert victim.log[1].digest == Digest("next")
    assert any(
        msg.__class__ is Prepare and msg.sender == "node2" and msg.view == 1
        for msg in fabric.log
    )
    # The flooder's share stays held (views 5..) and stays bounded.
    assert victim.log_sizes()["future"] == capacity // 4


def _client_request(rid, signature_valid):
    return Request(
        "client0", rid, 8, Signature("client0", valid=signature_valid),
        MacAuthenticator.for_signer("client0"),
    )


def _propagate(sender, request):
    return PropagateMsg(sender, request, MacAuthenticator.for_signer(sender))


def test_invalid_signature_propagate_flood_leaves_no_votes():
    # One replica PROPAGATEs 10^4 never-sent request ids whose client
    # signatures do not verify.  Each vote is counted before the check,
    # and keys otherwise leave the table only when their request is
    # ordered, which these never are.
    dep = deploy("rbft", RBFTConfig(), n_clients=1)
    victim = dep.nodes[1]
    for rid in range(1, 10_001):
        victim.on_network_message(_propagate("node3", _client_request(rid, False)))
    dep.sim.run(until=0.6)
    assert not victim._sig_inflight  # every body was checked
    assert victim.log_sizes()["propagate_votes"] == 0
    # The real traffic after the flood is untouched.
    client = dep.clients[0]
    client.send_request()
    dep.sim.run(until=1.0)
    assert client.completed == 1
    assert all(node.log_sizes()["propagate_votes"] == 0 for node in dep.nodes)


def test_forged_propagate_flood_closes_the_senders_nic():
    # A correct replica checks a body before echoing it, so each forged
    # PROPAGATE proves its sender faulty (§V).  10^4 fresh ids, one per
    # 20 us over the wire: once the flood threshold is crossed the
    # victim closes the sender's NIC, and the rest of the flood is
    # dropped in hardware instead of costing a signature check each.
    dep = deploy("rbft", RBFTConfig(), n_clients=1)
    sender, victim = dep.cluster.machines[3], dep.nodes[1]
    for rid in range(1, 10_001):
        msg = _propagate("node3", _client_request(rid, False))
        dep.sim.call_at(rid * 20e-6, sender.send_to_node, victim.name, msg)
    dep.sim.run(until=0.5)
    assert victim.nics_closed >= 1
    assert victim.machine.peer_nics["node3"].closed
    # Only the checks queued before the NIC closed are charged.
    assert victim.verification_core.jobs < 1_000
    assert victim.log_sizes()["propagate_votes"] == 0


def test_honest_propagates_are_never_counted_as_invalid():
    dep = deploy("rbft", RBFTConfig(), n_clients=4)
    for i in range(40):
        dep.sim.call_at(i * 1e-3, dep.clients[i % 4].send_request)
    dep.sim.run(until=0.5)
    assert all(node.executed_count == 40 for node in dep.nodes)
    assert all(not node._invalid_times for node in dep.nodes)
    assert all(node.nics_closed == 0 for node in dep.nodes)


def test_tampered_propagate_keeps_the_honest_vote():
    # A Byzantine replica races an invalid-signature copy of a real
    # request against an honest PROPAGATE of it: the honest vote lands
    # while the forged body is being checked (so the honest copy is not
    # checked itself), and a second forged copy arrives after it.  The
    # failing checks must not erase the honest vote: the victim hears
    # the body only from the client, and with the other replicas muted
    # that vote plus its own is its whole f + 1 quorum.
    dep = deploy("rbft", RBFTConfig(), n_clients=1)
    victim = dep.nodes[2]
    for node in dep.nodes:
        node.propagate_silent = node is not victim
    real = _client_request(1, True)
    victim.on_network_message(_propagate("node3", _client_request(1, False)))
    victim.on_network_message(_propagate("node1", real))
    dep.sim.run(until=0.01)
    victim.on_network_message(_propagate("node3", _client_request(1, False)))
    dep.sim.run(until=0.02)
    assert not victim._sig_inflight
    assert victim._propagate_votes.complete(real.request_id)
    assert victim.executed_count == 0
    client = dep.clients[0]
    client.send_request(targets=[victim.name])
    dep.sim.run(until=0.5)
    assert victim.executed_count == 1
    assert client.completed == 1


def test_admission_floor_follows_weak_checkpoint_fast_forward():
    # Regression pin for the admission window: after a weak-checkpoint
    # state transfer the execution frontier sits *above*
    # ``low_watermark + 1``, so the accept interval is
    # ``max(low_watermark, next_exec - 1) < seq <= low_watermark +
    # watermark_window`` — a pre-prepare for an already-executed
    # sequence below the frontier must not re-enter the log.
    sim, fabric, engines, _ = make_group(
        checkpoint_interval=4, watermark_window=16
    )
    backup = engines[1]
    backup._catch_up(8)  # weak certificate: state-transfer to seq 8
    assert backup.next_exec == 9
    assert backup.low_watermark == 0  # no stable checkpoint yet

    def preprepare(seq):
        return PrePrepare(
            "node0", 0, 0, seq, (request(seq),), Digest("d%d" % seq), 100,
            MacAuthenticator("node0"),
        )

    for seq in (5, 8):  # at or below the executed frontier: rejected
        backup.receive(preprepare(seq))
    for seq in (9, 16):  # inside the window: admitted
        backup.receive(preprepare(seq))
    backup.receive(preprepare(17))  # beyond low_watermark + window
    sim.run(until=0.05)
    assert 5 not in backup.log
    assert 8 not in backup.log
    assert 9 in backup.log
    assert 16 in backup.log
    assert 17 not in backup.log


def test_hostile_schedules_leave_the_shared_empties_empty():
    # An engine's fault-path containers start as one shared read-only
    # empty and are allocated at their first write.  After the stray-vote
    # and future-view floods above, a guard that holds pre-prepares back,
    # a view change and a displaced log binding, every write went to the
    # engines' own containers.
    test_fresh_digest_flood_inside_the_window_allocates_one_stray_per_seq()
    test_future_view_flood_from_one_sender_leaves_room_for_honest_traffic()
    sim, fabric, engines, _ = make_group(checkpoint_interval=4)
    ready = set()
    engines[1].guard = lambda items: all(x.request_id in ready for x in items)
    submit_all(engines, [request(i) for i in range(8)])
    sim.run(until=0.05)
    assert engines[1].log_sizes()["waiting_guard"] == 2
    for engine in engines:
        engine.start_view_change()
    ready.update(request(i).request_id for i in range(16))
    submit_all(engines, [request(i) for i in range(8, 16)])
    engines[1].recheck_guards()
    sim.run(until=0.5)
    assert [engine.view for engine in engines] == [1, 1, 1, 1]
    assert {engine.next_exec for engine in engines} == {7}  # node1 caught up
    assert all(e._vc_votes is not engine_module._NO_ENTRIES for e in engines)
    _, displaced, _, _ = slot_certificates.make_engine(1, False)
    for which in (0, 1):  # a second binding at seq 1 displaces the first
        displaced._accept_preprepare(PrePrepare(
            "node0", 0, 0, 1, slot_certificates.items_for(1, which),
            slot_certificates.digest_for(1, which), 100, MacAuthenticator("node0"),
        ))
    assert displaced.log_sizes()["prepare_votes"] == 2
    assert len(engine_module._NO_ENTRIES) == 0
    assert engine_module._NO_ITEMS == ()
