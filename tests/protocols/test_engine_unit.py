"""Direct unit tests of OrderingInstance with an in-memory transport.

These bypass the network entirely: four engines share a loopback fabric
with optional per-link suppression, so every corner of the three-phase
state machine can be driven deterministically.
"""


from repro.common.types import Request
from repro.crypto import CryptoCostModel, MacAuthenticator, Signature
from repro.protocols.pbft.engine import InstanceConfig, OrderingInstance
from repro.sim import Core, Simulator


class LoopbackFabric:
    """Delivers broadcasts between engines with a tiny fixed delay."""

    def __init__(self, sim, delay=1e-5):
        self.sim = sim
        self.delay = delay
        self.engines = {}
        self.cut = set()  # (src, dst) pairs whose messages are dropped
        self.log = []

    def transport_for(self, name):
        fabric = self

        class _Transport:
            def broadcast(self, msg):
                fabric.log.append(msg)
                for dst, engine in fabric.engines.items():
                    if dst == name or (name, dst) in fabric.cut:
                        continue
                    fabric.sim.call_after(fabric.delay, engine.receive, msg)

            def send(self, dst, msg):
                if (name, dst) not in fabric.cut:
                    fabric.sim.call_after(
                        fabric.delay, fabric.engines[dst].receive, msg
                    )

        return _Transport()


def make_group(f=1, sim=None, **config_overrides):
    sim = sim or Simulator()
    fabric = LoopbackFabric(sim)
    config = InstanceConfig(
        f=f, batch_size=4, batch_delay=1e-4, **config_overrides
    )
    costs = CryptoCostModel()
    ordered = {i: [] for i in range(config.n)}
    engines = []
    for i in range(config.n):
        name = "node%d" % i

        def on_ordered(seq, items, _i=i):
            ordered[_i].append((seq, tuple(item.request_id for item in items)))

        engine = OrderingInstance(
            sim,
            Core(sim, name),
            fabric.transport_for(name),
            config,
            costs,
            replica=name,
            on_ordered=on_ordered,
            primary_offset=0,
        )
        engines.append(engine)
        fabric.engines[name] = engine
    return sim, fabric, engines, ordered


def request(rid, client="c0"):
    return Request(
        client=client,
        rid=rid,
        payload_size=8,
        signature=Signature(client),
        authenticator=MacAuthenticator(client),
    )


def submit_all(engines, requests):
    for engine in engines:
        for req in requests:
            engine.submit(req)


def test_basic_ordering_all_replicas_agree():
    sim, fabric, engines, ordered = make_group()
    submit_all(engines, [request(i) for i in range(8)])
    sim.run(until=0.2)
    assert all(len(seq) == 2 for seq in ordered.values())  # 8 reqs / batch 4
    assert len(set(map(tuple, ordered.values()))) == 1


def test_primary_is_offset_rotation():
    sim, fabric, engines, _ = make_group()
    assert engines[0].is_primary
    assert engines[0].primary_index(0) == 0
    assert engines[0].primary_index(1) == 1
    assert engines[0].primary_index(4) == 0


def test_primary_offset_shifts_rotation():
    sim = Simulator()
    fabric = LoopbackFabric(sim)
    config = InstanceConfig(f=1)
    engine = OrderingInstance(
        sim,
        Core(sim, "x"),
        fabric.transport_for("node2"),
        config,
        CryptoCostModel(),
        replica="node2",
        instance=1,
    )
    # RBFT: primary of instance k in view v is node (v + k) mod n.
    assert engine.primary_index(0) == 1
    assert engine.primary_index(3) == 0


def test_duplicate_submissions_are_ordered_once():
    sim, fabric, engines, ordered = make_group()
    reqs = [request(i) for i in range(4)]
    submit_all(engines, reqs)
    submit_all(engines, reqs)  # duplicates
    sim.run(until=0.2)
    all_ids = [rid for _, batch in ordered[1] for rid in batch]
    assert sorted(all_ids) == sorted(r.request_id for r in reqs)


def test_ordering_is_sequential_even_with_out_of_order_commits():
    sim, fabric, engines, ordered = make_group()
    submit_all(engines, [request(i) for i in range(16)])
    sim.run(until=0.3)
    for node_ordered in ordered.values():
        seqs = [seq for seq, _ in node_ordered]
        assert seqs == sorted(seqs)
        assert seqs[0] == 1


def test_guard_defers_preprepare_until_satisfied():
    sim = Simulator()
    ready = set()
    fabric = LoopbackFabric(sim)
    config = InstanceConfig(f=1, batch_size=2, batch_delay=1e-4)
    costs = CryptoCostModel()
    ordered = []
    engines = []
    for i in range(4):
        name = "node%d" % i
        engine = OrderingInstance(
            sim,
            Core(sim, name),
            fabric.transport_for(name),
            config,
            costs,
            replica=name,
            on_ordered=lambda seq, items: ordered.append(seq),
            guard=(lambda items: all(x.request_id in ready for x in items))
            if i != 0
            else None,
        )
        engines.append(engine)
        fabric.engines[name] = engine
    reqs = [request(1), request(2)]
    submit_all(engines, reqs)
    sim.run(until=0.05)
    assert ordered == []  # backups refuse to prepare: guard unsatisfied
    for req in reqs:
        ready.add(req.request_id)
    for engine in engines:
        engine.recheck_guards()
    sim.run(until=0.2)
    assert ordered  # guard satisfied: ordering completes


def test_silent_replica_sends_nothing():
    sim, fabric, engines, ordered = make_group()
    engines[3].silent = True
    before = len(fabric.log)
    submit_all(engines, [request(i) for i in range(4)])
    sim.run(until=0.2)
    assert all(msg.sender != "node3" for msg in fabric.log[before:])
    assert len(ordered[0]) == 1  # the other 3 = 2f+1 still suffice


def test_two_silent_replicas_block_f1_group():
    sim, fabric, engines, ordered = make_group()
    engines[2].silent = True
    engines[3].silent = True
    submit_all(engines, [request(i) for i in range(4)])
    sim.run(until=0.3)
    assert all(len(o) == 0 for o in ordered.values())  # quorum impossible


def test_checkpoint_gc_keeps_log_bounded():
    sim, fabric, engines, ordered = make_group(checkpoint_interval=4)
    submit_all(engines, [request(i) for i in range(64)])
    sim.run(until=0.5)
    for engine in engines:
        assert engine.low_watermark >= 12
        assert len(engine.log) <= 8


def test_watermark_rejects_far_future_seq():
    sim, fabric, engines, _ = make_group(watermark_window=2)
    from repro.crypto.primitives import Digest
    from repro.protocols.pbft.messages import PrePrepare

    msg = PrePrepare(
        "node0", 0, 0, 99, (request(1),), Digest("x"), 100,
        MacAuthenticator("node0"),
    )
    engines[1].receive(msg)
    sim.run(until=0.05)
    assert 99 not in engines[1].log


def test_view_change_quorum_required():
    sim, fabric, engines, _ = make_group()
    engines[1].start_view_change()
    engines[2].start_view_change()
    sim.run(until=0.1)
    # Only 2 votes (< 2f+1): nobody installs view 1... but the f+1 join
    # rule makes the remaining correct replicas join, completing it.
    assert all(engine.view == 1 for engine in engines)


def test_single_view_change_vote_goes_nowhere():
    sim, fabric, engines, _ = make_group()
    engines[1].start_view_change()
    sim.run(until=0.1)
    # One vote is below the f+1 join threshold: view 0 stands elsewhere.
    assert engines[0].view == 0
    assert engines[2].view == 0


def test_view_change_reproposes_prepared_batch():
    sim, fabric, engines, ordered = make_group()
    # Cut node3 off so commits stall at 2 votes (prepared, uncommitted).
    for dst in ("node0", "node1", "node2"):
        fabric.cut.add(("node3", dst))
    fabric.cut.add(("node0", "node3"))
    submit_all(engines[:3], [request(i) for i in range(4)])
    sim.run(until=0.05)
    committed_before = sum(len(o) for o in ordered.values())
    # Heal the network and change views; the prepared batch must survive.
    fabric.cut.clear()
    for engine in engines:
        engine.start_view_change()
    sim.run(until=0.3)
    assert sum(len(o) for o in ordered.values()) >= committed_before
    ids = {rid for _, batch in ordered[1] for rid in batch}
    assert ids == {("c0", i) for i in range(4)}


def test_no_two_batches_committed_at_same_seq():
    """Safety invariant across a view change."""
    sim, fabric, engines, ordered = make_group()
    submit_all(engines, [request(i) for i in range(12)])
    sim.call_after(0.01, lambda: [e.start_view_change() for e in engines])
    submit_all(engines, [request(i + 100) for i in range(12)])
    sim.run(until=0.5)
    per_seq = {}
    for node, node_ordered in ordered.items():
        for seq, batch in node_ordered:
            if seq in per_seq:
                assert per_seq[seq] == batch, "divergence at seq %d" % seq
            else:
                per_seq[seq] = batch


def test_auto_advance_rotates_every_batch():
    sim, fabric, engines, ordered = make_group(auto_advance_view=True)
    submit_all(engines, [request(i) for i in range(12)])
    sim.run(until=0.3)
    assert all(engine.view >= 3 for engine in engines)
    assert all(len(o) >= 3 for o in ordered.values())
    seqs = [seq for seq, _ in ordered[0]]
    assert seqs == sorted(seqs)


def test_primary_selector_override():
    sim, fabric, engines, ordered = make_group()
    for engine in engines:
        engine.primary_selector = lambda view: 2  # node2 is always primary
    assert engines[2].is_primary
    assert not engines[0].is_primary
    submit_all(engines, [request(i) for i in range(4)])
    sim.run(until=0.2)
    assert len(ordered[0]) == 1


def test_primary_name_is_cached_per_view():
    sim, fabric, engines, _ = make_group()
    engine = engines[1]
    assert engine.primary_name() == "node0"
    assert engine.primary_name() is engine.primary_name()  # one string per view
    assert engine.primary_name(2) == "node2"
    assert engine.primary_name() == "node0"  # an explicit view re-keys it
    engine.view = 3
    assert engine.primary_name() == "node3"
    assert engine.primary_name(5) == "node1"


def test_primary_name_cache_is_bypassed_under_a_mutable_selector():
    # Spinning's selector consults a blacklist that changes *within* a
    # view; a cached name would keep pointing at the ousted primary.
    sim, fabric, engines, _ = make_group()
    engine = engines[1]
    assert engine.primary_name() == "node0"  # warm the per-view cache
    blacklist = set()
    engine.primary_selector = lambda view: next(
        i for i in range(view, view + 4) if i % 4 not in blacklist
    ) % 4
    assert engine.primary_name() == "node0"
    blacklist.add(0)
    assert engine.primary_name() == "node1"  # same view, new answer
    assert engine.is_primary  # is_primary takes the same bypass
    blacklist.add(1)
    assert engine.primary_name() == "node2"
    assert engine.primary_name(3) == "node3"
    engine.primary_selector = None
    assert engine.primary_name() == "node0"  # round-robin again


def test_invalid_authenticator_reported_and_dropped():
    sim, fabric, engines, ordered = make_group()
    reported = []
    engines[1].on_invalid = reported.append
    from repro.crypto.primitives import Digest
    from repro.protocols.pbft.messages import Prepare

    bogus = Prepare(
        "node3", 0, 0, 1, Digest("x"), MacAuthenticator.corrupt("node3")
    )
    engines[1].receive(bogus)
    sim.run(until=0.05)
    assert reported == ["node3"]


def test_delayed_preprepare_dropped_after_view_change():
    sim, fabric, engines, ordered = make_group()
    engines[0].preprepare_delay_fn = lambda msg: 0.05
    submit_all(engines, [request(i) for i in range(4)])
    sim.call_after(0.01, lambda: [e.start_view_change() for e in engines])
    sim.run(until=0.5)
    # The delayed view-0 pre-prepare must not be emitted into view 1;
    # the requests are re-proposed by the new primary instead.
    ids = {rid for _, batch in ordered[1] for rid in batch}
    assert ids == {("c0", i) for i in range(4)}


def test_backlog_counts_unordered_requests():
    sim, fabric, engines, _ = make_group()
    engines[1].submit(request(1))
    assert engines[1].backlog() == 1
