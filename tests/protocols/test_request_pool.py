"""One shared ``RequestPool`` ≡ one private pool per engine.

RBFT's f + 1 local replicas pool the same requests, so the node stores
``request_id -> item`` once with one pending bit and one ordered bit per
instance.  The property: f + 1 engines sharing a pool and f + 1 engines
each with a private one (the layout PBFT, Aardvark and Spinning run, and
the parent commit's per-engine ``pending`` dict and ``_ordered_ids`` set
in all but name) see the same world after every step of a random
schedule — submit, duplicate submit, ordering (also of requests not yet
pooled), checkpoint GC, weak-checkpoint catch-up, view change with
re-proposal, lost-leadership re-pool — and every engine's counters equal
a recount of its bit in its pool.  The fake environment is the one of
``test_slot_certificates.py``: a simulator, a core and a recording
transport, no network.

One difference is documented in ``RequestPool`` and excluded here by
construction: an instance that *re-joins* a request another local
replica still holds keeps the request's place in line (the order the
node first saw it) instead of going to the back.  A duplicate or re-pool
step that would re-join is skipped; the node layer never produces one
(``ready_ids`` / ``executed_ids`` stop a second dispatch).

Validated against pool mutants, each of which fails this file: pending
bit not cleared on order; pending key deleted while another instance
still awaits the request; forgetting an ordered id clears every
instance's mark; ``submit`` ignoring the ordered mark; re-pool counting
an already pooled request twice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.quorum import SenderUniverse
from repro.crypto import CryptoCostModel, MacAuthenticator
from repro.crypto.primitives import Digest
from repro.protocols.pbft import (
    Commit,
    InstanceConfig,
    NewView,
    OrderingInstance,
    PrePrepare,
    Prepare,
    RequestPool,
    ViewChange,
)
from repro.sim import Core, Simulator
from tests.protocols.test_engine_unit import request

INDEX = 1  # the node under test: primary of instance k in views 1 - k + j·n
NAME = "node%d" % INDEX
WINDOW = 8


def auth(sender):
    return MacAuthenticator.for_signer(sender)


class World:
    """The f + 1 local replicas of one node, pool shared or private."""

    def __init__(self, f, shared):
        self.sim = Simulator()
        self.sent = []
        self.ordered = [[] for _ in range(f + 1)]
        config = InstanceConfig(
            f=f, batch_size=2, batch_delay=1e-4,
            watermark_window=WINDOW, checkpoint_interval=1000,
        )
        pool = RequestPool() if shared else None
        senders = SenderUniverse()
        self.engines = [
            OrderingInstance(
                self.sim, Core(self.sim, "replica-%d" % k), self, config,
                CryptoCostModel(), replica=NAME, instance=k,
                on_ordered=lambda seq, items, k=k: self.ordered[k].append(
                    (seq, tuple(item.request_id for item in items))
                ),
                primary_offset=k, senders=senders, pool=pool,
            )
            for k in range(f + 1)
        ]

    def broadcast(self, msg):  # the engines' transport
        record = [msg.__class__.__name__, msg.instance]
        for field in ("view", "new_view", "seq", "digest"):
            if hasattr(msg, field):
                record.append(getattr(msg, field))
        if msg.__class__ is PrePrepare:
            record.append(tuple(item.request_id for item in msg.items))
        self.sent.append(tuple(record))

    def snapshot(self):
        self.sim.run()  # batch timers and queued broadcasts
        return {
            "sent": list(self.sent),
            "ordered": [list(history) for history in self.ordered],
            "engines": [
                (
                    e.view, e.active, e.low_watermark, e.next_exec,
                    e.seq_assigned, e.backlog(), e.log_sizes(),
                    {
                        seq: (s.view, s.digest, s.prepared, s.committed)
                        for seq, s in e.log.items()
                    },
                    [item.request_id for item in e._pooled_unordered()],
                )
                for e in self.engines
            ],
        }

    def check_counters(self):
        """Each engine's counts are a recount of its bit; no dead keys."""
        every_bit = 0
        for engine in self.engines:
            every_bit |= engine._pool_bit
        for engine in self.engines:
            bit = engine._pool_bit
            pending = [e[1] for e in engine._pending.values()]
            ordered = list(engine._ordered.values())
            assert engine.backlog() == sum(1 for m in pending if m & bit)
            sizes = engine.log_sizes()
            assert sizes["pending"] == engine.backlog()
            assert sizes["ordered_ids"] == sum(1 for m in ordered if m & bit)
            for mask in pending + ordered:
                assert mask and not mask & ~every_bit
            for request_id, (item, _) in engine._pending.items():
                assert item.request_id == request_id


class Pair:
    """Both worlds, fed the same inputs (derived from the shared one)."""

    def __init__(self, f):
        self.n = 3 * f + 1
        self.shared, self.private = World(f, True), World(f, False)
        self.known = []  # every item ever handed in or ordered ahead
        self.fresh = 0

    def both(self, action):
        for world in (self.shared, self.private):
            action(world)

    def new_item(self):
        self.fresh += 1
        item = request(self.fresh)
        self.known.append(item)
        return item

    def rejoins(self, item):
        """Would handing ``item`` in add an instance to a key others hold?"""
        pool = self.shared.engines[0]  # any of them: it is shared
        entry = pool._pending.get(item.request_id)
        if entry is None:
            return False
        ordered = pool._ordered.get(item.request_id, 0)
        return any(
            not (entry[1] | ordered) & engine._pool_bit
            for engine in self.shared.engines
        )

    # ------------------------------------------------------------- steps
    def hand_in(self, item):  # the node's dispatch: every local replica
        self.both(lambda w: [e.submit(item) for e in w.engines])

    def submit(self):
        self.hand_in(self.new_item())

    def duplicate(self, pick):
        if not self.known:
            return
        item = self.known[pick % len(self.known)]
        if not self.rejoins(item):
            self.hand_in(item)

    def repool(self, k, pick):
        # ``_flush_batch`` on an engine that is no longer (or never was)
        # the active primary puts the batch back, ordered or not; on the
        # primary it is proposed, minus what the instance has ordered.
        if not self.known:
            return
        item = self.known[pick % len(self.known)]
        engine = self.shared.engines[k]
        entry = engine._pending.get(item.request_id)
        if entry is None or entry[1] & engine._pool_bit:
            self.both(lambda w: w.engines[k]._flush_batch([item]))

    def preprepare(self, k, take, ahead):
        engine = self.shared.engines[k]
        primary = engine.primary_name()
        if primary == NAME or not engine.active:
            return
        seq = max([engine.next_exec - 1, engine.low_watermark, *engine.log]) + 1
        if seq > engine.low_watermark + WINDOW:
            return
        if ahead:  # the remote primary is ahead of this node's dispatch
            items = tuple(self.new_item() for _ in range(take))
        else:
            live = {
                item.request_id
                for slot in engine.log.values() for item in slot.items
            }
            items = tuple(
                item for item in engine._pooled_unordered()
                if item.request_id not in live
            )[:take]
        if not items:
            return
        ids = tuple(item.request_id for item in items)
        msg = PrePrepare(
            primary, k, engine.view, seq, items,
            Digest(("batch", k, seq, ids)), 100, auth(primary),
        )
        self.both(lambda w: w.engines[k]._dispatch(msg))

    def votes(self, k, commit):
        engine = self.shared.engines[k]
        others = ["node%d" % i for i in range(self.n) if i != INDEX]
        for seq in sorted(engine.log):
            slot = engine.log[seq]
            if slot.committed or slot.view != engine.view:
                continue
            run = [
                Prepare(sender, k, slot.view, seq, slot.digest, auth(sender))
                for sender in others
            ]
            if commit:
                run += [
                    Commit(sender, k, slot.view, seq, slot.digest, auth(sender))
                    for sender in others
                ]
            self.both(lambda w: w.engines[k].dispatch_batch(run))

    def checkpoint(self, k):
        seq = self.shared.engines[k].next_exec - 1
        self.both(lambda w: w.engines[k]._stabilize(seq))

    def catch_up(self, k, jump):
        seq = self.shared.engines[k].next_exec - 1 + jump
        self.both(lambda w: w.engines[k]._catch_up(seq))

    def view_change(self, k):
        engine = self.shared.engines[k]
        new_view = engine.view + 1
        prepared = {
            seq: (slot.digest, slot.items)
            for seq, slot in engine.log.items()
            if slot.prepared and not slot.committed
        }
        primary = "node%d" % engine.primary_index(new_view)
        if primary == NAME:  # 2f + 1 VIEW-CHANGEs make it install and announce
            msgs = [
                ViewChange(
                    "node%d" % i, k, new_view, engine.low_watermark,
                    prepared, auth("node%d" % i),
                )
                for i in range(self.n) if i != INDEX
            ]
        else:
            msgs = [NewView(primary, k, new_view, prepared, auth(primary))]
        for msg in msgs:
            self.both(lambda w: w.engines[k]._dispatch(msg))

    # --------------------------------------------------------- the property
    def run(self, schedule):
        for step in schedule:
            getattr(self, step[0])(*step[1:])
            assert self.shared.snapshot() == self.private.snapshot(), step
            self.both(World.check_counters)
        return self


def steps(f):
    k = st.integers(0, f)
    pick = st.integers(0, 50)
    return st.lists(
        st.one_of(
            st.tuples(st.just("submit")),
            st.tuples(st.just("submit")),
            st.tuples(st.just("duplicate"), pick),
            st.tuples(st.just("repool"), k, pick),
            st.tuples(st.just("preprepare"), k, st.integers(1, 2), st.booleans()),
            st.tuples(st.just("votes"), k, st.booleans()),
            st.tuples(st.just("checkpoint"), k),
            st.tuples(st.just("catch_up"), k, st.integers(1, 2)),
            st.tuples(st.just("view_change"), k),
        ),
        min_size=1, max_size=40,
    )


@given(schedule=steps(1))
@settings(max_examples=200, deadline=None)
def test_shared_pool_matches_private_pools_at_f1(schedule):
    Pair(1).run(schedule)


@given(schedule=steps(2))
@settings(max_examples=60, deadline=None)
def test_shared_pool_matches_private_pools_at_f2(schedule):
    Pair(2).run(schedule)


def test_each_instance_orders_and_forgets_on_its_own():
    # The deterministic spine: two requests handed to both instances;
    # instance 0 (backup in view 0) orders both and collects them,
    # instance 1 (primary in view 0) proposes them but has no votes yet.
    pair = Pair(1).run([
        ("submit",), ("submit",),
        ("preprepare", 0, 2, False), ("votes", 0, True),
    ])
    first, second = pair.shared.engines
    pool_pending, pool_ordered = first._pending, first._ordered
    assert second._pending is pool_pending and second._ordered is pool_ordered
    assert (first.backlog(), second.backlog()) == (0, 2)
    assert [e[1] for e in pool_pending.values()] == [2, 2]  # instance 1 only
    assert list(pool_ordered.values()) == [1, 1]  # instance 0 only
    assert pair.shared.ordered[0] and not pair.shared.ordered[1]
    pair.run([("duplicate", 0)])  # ordered at 0, pooled at 1: a no-op
    assert (first.backlog(), second.backlog()) == (0, 2)
    pair.run([("checkpoint", 0)])  # instance 0 forgets; instance 1 unmoved
    assert not pool_ordered and len(pool_pending) == 2
    pair.run([("votes", 1, True)])  # instance 1 orders its own proposal
    assert not pool_pending and list(pool_ordered.values()) == [2, 2]
    # (one batch per request there: each step runs the batch timer out)
    assert [rid for _, batch in pair.shared.ordered[1] for rid in batch] == (
        list(pair.shared.ordered[0][0][1])
    )
    # A third request ordered by both, collected by instance 1 alone:
    # instance 0's mark survives, so a late duplicate re-pools at 1 only.
    pair.run([
        ("submit",), ("preprepare", 0, 1, False), ("votes", 0, True),
        ("votes", 1, True), ("checkpoint", 1),
    ])
    assert list(pool_ordered.values()) == [1]
    pair.run([("duplicate", 2)])
    assert (first.backlog(), second.backlog()) == (0, 1)


def test_new_primary_reproposes_what_it_still_pools_not_what_it_ordered():
    # Instance 0's view change makes this node its primary: it must
    # propose the request it still pools and skip the one it ordered,
    # although instance 1 still holds both.
    pair = Pair(1).run([
        ("submit",), ("submit",), ("submit",),
        ("preprepare", 0, 1, False), ("votes", 0, True),
        ("view_change", 0),
    ])
    engine = pair.shared.engines[0]
    assert engine.is_primary and engine.view == 1
    proposals = [
        record for record in pair.shared.sent
        if record[0] == "PrePrepare" and record[1] == 0
    ]
    ordered_ids = pair.shared.ordered[0][0][1]
    proposed = [rid for record in proposals for rid in record[-1]]
    assert len(proposed) == 2 and not set(proposed) & set(ordered_ids)


def test_private_pool_is_made_when_none_is_passed():
    world = World(1, shared=False)
    first, second = world.engines
    assert first._pending is not second._pending
    assert first._ordered is not second._ordered
    # ... and the per-size cost memos are shared through the pool only.
    assert first._batch_send_costs is not second._batch_send_costs
    shared = World(1, shared=True)
    assert shared.engines[0]._batch_send_costs is shared.engines[1]._batch_send_costs


@pytest.mark.parametrize("shared", [True, False])
def test_ordering_a_request_before_it_is_pooled_blocks_the_late_submit(shared):
    world = World(1, shared)
    engine = world.engines[0]
    item = request(7)
    msg = PrePrepare(
        "node0", 0, 0, 1, (item,), Digest("ahead"), 100, auth("node0")
    )
    engine._dispatch(msg)
    others = ["node0", "node2", "node3"]
    engine.dispatch_batch(
        [Prepare(s, 0, 0, 1, msg.digest, auth(s)) for s in others]
        + [Commit(s, 0, 0, 1, msg.digest, auth(s)) for s in others]
    )
    world.sim.run()
    assert world.ordered[0] == [(1, (item.request_id,))]
    for engine in world.engines:
        engine.submit(item)
    assert [e.backlog() for e in world.engines] == [0, 1]
    world.check_counters()
