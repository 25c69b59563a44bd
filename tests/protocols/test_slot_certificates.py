"""Slot-resident certificates ≡ the reference tracker model.

``OrderingInstance`` keeps PREPARE/COMMIT votes on the log slot they
certify, with the votes for any other ``(view, digest)`` at the same
sequence number in a stray map.  The model below is the vote path the
engine had before — two reference :class:`QuorumTracker` instances keyed
by ``(view, seq, digest)`` beside a plain log — and the property is that
both see the same world after every step of a random schedule:
duplicates, votes ahead of their pre-prepare, two digests at one
sequence number, votes for a superseded and for a future view, one
sender voting a second fresh digest, garbage collection at a watermark, view changes with re-proposals and
Spinning-style view rotation that keeps the log, at the
f = 1, f = 33 and f = 49 thresholds, delivered one message at a time or
as an envelope run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.quorum import QuorumTracker, SenderUniverse
from repro.crypto import CryptoCostModel, MacAuthenticator
from repro.crypto.primitives import Digest
from repro.protocols.pbft.engine import InstanceConfig, OrderingInstance
from repro.protocols.pbft.messages import Commit, PrePrepare, Prepare
from repro.sim import Core, Simulator
from tests.protocols.test_engine_unit import request

WINDOW = 2
SEQS = range(1, WINDOW + 2)  # few, so steps collide; the last is beyond
#                              the window until a GC moves it
INDEX = 2  # the replica under test; primary of views 2, 2 + n, ...
SIZES = ("log", "prepare_votes", "commit_votes", "future")


def items_for(seq, which):
    return (request(10 * seq + which),)


_DIGESTS = {}  # token -> the one shared Digest object per (seq, which)


def digest_for(seq, which, copy=False):
    # ``copy`` builds an equal-but-not-identical digest, so the slot's
    # identity shortcut and its equality fallback are both exercised.
    token = ("d", seq, which)
    if copy:
        return Digest(token)
    return _DIGESTS.setdefault(token, Digest(token))


class Reference:
    """The tracker-keyed vote path, reduced to what votes can observe."""

    def __init__(self, f):
        self.f, self.n = f, 3 * f + 1
        self.name = "node%d" % INDEX
        self.view, self.active, self.vc_voted_for = 0, True, 0
        self.low, self.next_exec = 0, 1
        self.log = {}  # seq -> [view, digest, items, prepared, committed]
        self.prepares = QuorumTracker(2 * f)
        self.commits = QuorumTracker(2 * f + 1)
        self.owners = {}  # (view, seq) -> senders that allocated a key
        self.future, self.ordered, self.sent = [], [], []

    def primary(self, view):
        return "node%d" % (view % self.n)

    def admits_vote(self, msg):
        # Below the floor the slot is collected for good.  Above the
        # window no pre-prepare can open one, so only a vote for the
        # binding of a slot that is already there (a new view reproposed
        # it) is kept: nothing is allocated for it.
        if msg.seq <= self.low + WINDOW:
            return msg.seq > self.low
        entry = self.log.get(msg.seq)
        return entry is not None and (entry[0], entry[1]) == (msg.view, msg.digest)

    def allocates(self, msg):
        # A vote for the slot's binding, or onto a key that already holds
        # votes, counts.  A vote that would open a fresh key is kept only
        # if its sender has not opened one at this (view, seq) before.
        entry = self.log.get(msg.seq)
        if entry is not None and (entry[0], entry[1]) == (msg.view, msg.digest):
            return True
        key = (msg.view, msg.seq, msg.digest)
        if self.prepares.count(key) or self.commits.count(key):
            return True
        owners = self.owners.setdefault((msg.view, msg.seq), set())
        if msg.sender in owners:
            return False
        owners.add(msg.sender)
        return True

    def dispatch(self, msg):
        {PrePrepare: self.on_preprepare, Prepare: self.on_prepare,
         Commit: self.on_commit}[msg.__class__](msg)

    def on_preprepare(self, msg):
        if msg.view > self.view:
            self.future.append(msg)
            return
        if (
            msg.view != self.view
            or not self.active
            or msg.sender != self.primary(msg.view)
            or msg.sender == self.name
        ):
            return
        floor = max(self.low, self.next_exec - 1)
        if not floor < msg.seq <= self.low + WINDOW:
            return
        existing = self.log.get(msg.seq)
        if existing is not None and (existing[4] or existing[0] >= msg.view):
            return
        self.accept(msg)

    def accept(self, msg):
        if msg.view != self.view or not self.active:
            return
        self.log[msg.seq] = [msg.view, msg.digest, msg.items, False, False]
        key = (msg.view, msg.seq, msg.digest)
        self.sent.append(("Prepare",) + key)
        if self.prepares.add(key, self.name) or self.prepares.complete(key):
            self.mark_prepared(*key)

    def on_prepare(self, msg):
        if msg.view > self.view:
            self.future.append(msg)
            return
        if msg.view != self.view or not self.active or not self.admits_vote(msg):
            return
        if msg.sender == self.primary(msg.view) or not self.allocates(msg):
            return
        key = (msg.view, msg.seq, msg.digest)
        if self.prepares.add(key, msg.sender):
            self.mark_prepared(*key)

    def mark_prepared(self, view, seq, digest):
        entry = self.log.get(seq)
        if entry is None or entry[1] != digest or entry[3]:
            return
        entry[3] = True
        self.sent.append(("Commit", view, seq, digest))
        self.commits.add((view, seq, digest), self.name)
        self.maybe_commit(view, seq, digest)

    def on_commit(self, msg):
        if msg.view > self.view:
            self.future.append(msg)
            return
        if msg.view != self.view or not self.active or not self.admits_vote(msg):
            return
        if not self.allocates(msg):
            return
        self.commits.add((msg.view, msg.seq, msg.digest), msg.sender)
        self.maybe_commit(msg.view, msg.seq, msg.digest)

    def maybe_commit(self, view, seq, digest):
        entry = self.log.get(seq)
        if entry is None or entry[4] or not entry[3] or entry[1] != digest:
            return
        if not self.commits.complete((view, seq, digest)):
            return
        entry[4] = True
        while True:
            entry = self.log.get(self.next_exec)
            if entry is None or not entry[4]:
                break
            self.ordered.append(
                (self.next_exec, tuple(i.request_id for i in entry[2]))
            )
            self.next_exec += 1

    def drop(self, seq):
        entry = self.log.pop(seq)
        self.prepares.discard((entry[0], seq, entry[1]))
        self.commits.discard((entry[0], seq, entry[1]))

    def stabilize(self, seq):
        if seq <= self.low:
            return
        self.low = seq
        self.next_exec = max(self.next_exec, seq + 1)
        for old in [s for s in self.log if s <= seq]:
            self.drop(old)
        self.prepares.prune(lambda key: key[1] <= seq)
        self.commits.prune(lambda key: key[1] <= seq)
        self.owners = {k: v for k, v in self.owners.items() if k[1] > seq}

    def start_view_change(self):
        if self.vc_voted_for < self.view + 1:
            self.vc_voted_for = self.view + 1
            self.active = False

    def rotate_view(self):
        # Spinning's per-batch rotation: the view moves, the log stays.
        self.view += 1
        self.vc_voted_for = max(self.vc_voted_for, self.view)
        self.replay_future()

    def install_view(self, view, repropose):
        self.view, self.active = view, True
        self.vc_voted_for = max(self.vc_voted_for, view)
        for seq in [s for s, entry in self.log.items() if not entry[4]]:
            self.drop(seq)
        for seq in sorted(repropose):
            digest, items = repropose[seq]
            if seq <= self.low or seq < self.next_exec:
                continue
            if seq in self.log and self.log[seq][4]:
                continue
            self.accept(PrePrepare(
                self.primary(view), 0, view, seq, items, digest, 100, None
            ))
        self.replay_future()

    def replay_future(self):
        ready = [m for m in self.future if m.view <= self.view]
        self.future = [m for m in self.future if m.view > self.view]
        for msg in ready:
            self.dispatch(msg)

    def snapshot(self):
        return {
            "view": self.view,
            "active": self.active,
            "low": self.low,
            "next_exec": self.next_exec,
            "log": {
                seq: (e[0], e[1], e[3], e[4]) for seq, e in self.log.items()
            },
            "ordered": list(self.ordered),
            "sent": list(self.sent),
            "sizes": (
                len(self.log), len(self.prepares), len(self.commits),
                len(self.future),
            ),
        }


class Recorder:
    def __init__(self):
        self.sent = []

    def broadcast(self, msg):
        if msg.__class__ in (Prepare, Commit):
            self.sent.append(
                (msg.__class__.__name__, msg.view, msg.seq, msg.digest)
            )


def make_engine(f, shared_universe):
    sim = Simulator()
    ordered = []
    transport = Recorder()
    engine = OrderingInstance(
        sim,
        Core(sim, "core"),
        transport,
        InstanceConfig(
            f=f, watermark_window=WINDOW, checkpoint_interval=1000
        ),
        CryptoCostModel(),
        replica="node%d" % INDEX,
        on_ordered=lambda seq, items: ordered.append(
            (seq, tuple(item.request_id for item in items))
        ),
        primary_offset=0,
        senders=SenderUniverse() if shared_universe else None,
    )
    return sim, engine, transport, ordered


def engine_snapshot(sim, engine, transport, ordered):
    sim.run()  # flush the queued PREPARE/COMMIT broadcasts
    sizes = engine.log_sizes()
    return {
        "view": engine.view,
        "active": engine.active,
        "low": engine.low_watermark,
        "next_exec": engine.next_exec,
        "log": {
            seq: (s.view, s.digest, s.prepared, s.committed)
            for seq, s in engine.log.items()
        },
        "ordered": list(ordered),
        "sent": list(transport.sent),
        "sizes": tuple(sizes[name] for name in SIZES),
    }


def vote_counts(f):
    return sorted({1, 2, f, 2 * f - 1, 2 * f, 2 * f + 1} - {0})


def steps(f):
    n = 3 * f + 1
    view_delta = st.sampled_from([-1, 0, 0, 0, 0, 0, 1])
    seq = st.sampled_from(list(SEQS))
    which = st.integers(0, 1)
    copy = st.booleans()
    return st.lists(
        st.one_of(
            st.tuples(st.just("pre-prepare"), view_delta, seq, which, copy),
            st.tuples(
                st.just("votes"), st.sampled_from([Prepare, Commit]),
                view_delta, seq, which, copy,
                st.integers(0, n - 1), st.sampled_from(vote_counts(f)),
                st.booleans(),
            ),
            st.tuples(st.just("gc"), seq),
            st.tuples(st.just("view-change"), st.integers(0, 2)),
            st.tuples(st.just("start-view-change")),
            st.tuples(st.just("rotate-view")),
        ),
        min_size=1, max_size=40,
    )


def run_schedule(f, schedule, shared_universe):
    n = 3 * f + 1
    model = Reference(f)
    sim, engine, transport, ordered = make_engine(f, shared_universe)
    for step in schedule:
        kind = step[0]
        if kind == "pre-prepare":
            _, delta, seq, which, copy = step
            view = max(model.view + delta, 0)
            sender = model.primary(view)
            msg = PrePrepare(
                sender, 0, view, seq, items_for(seq, which),
                digest_for(seq, which, copy), 100,
                MacAuthenticator.for_signer(sender),
            )
            model.dispatch(msg)
            engine._dispatch(msg)
        elif kind == "votes":
            _, cls, delta, seq, which, copy, start, count, enveloped = step
            view = max(model.view + delta, 0)
            digest = digest_for(seq, which, copy)
            run = [
                cls(
                    "node%d" % ((start + k) % n), 0, view, seq, digest,
                    MacAuthenticator.for_signer("node%d" % ((start + k) % n)),
                )
                for k in range(count)
            ]
            for msg in run:
                model.dispatch(msg)
            if enveloped:
                engine.dispatch_batch(run)
            else:
                for msg in run:
                    engine._dispatch(msg)
        elif kind == "gc":
            model.stabilize(step[1])
            engine._stabilize(step[1])
        elif kind == "view-change":
            repropose = {}
            if step[1] >= 1:  # what this replica's VIEW-CHANGE reports
                repropose = {
                    seq: (entry[1], entry[2])
                    for seq, entry in model.log.items() if entry[3]
                }
            if step[1] == 2:  # plus a certificate prepared elsewhere
                seq = model.low + 1
                repropose.setdefault(
                    seq, (digest_for(seq, 1), items_for(seq, 1))
                )
            view = model.view + 1
            model.install_view(view, repropose)
            engine._install_view(view, announce=False, repropose=repropose)
        elif kind == "start-view-change":
            model.start_view_change()
            engine.start_view_change()
        else:
            model.rotate_view()
            engine._advance_view_after_batch(0)
        assert engine_snapshot(sim, engine, transport, ordered) == (
            model.snapshot()
        ), step
    return model


@pytest.mark.parametrize("shared_universe", [False, True])
@given(schedule=steps(1))
@settings(max_examples=300, deadline=None)
def test_slot_store_matches_reference_at_f1(shared_universe, schedule):
    run_schedule(1, schedule, shared_universe)


@pytest.mark.parametrize("f", [33, 49])
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_slot_store_matches_reference_at_large_thresholds(f, data):
    run_schedule(f, data.draw(steps(f)), shared_universe=True)


def test_thresholds_fire_exactly_at_2f_and_2f_plus_1():
    # The deterministic spine of the property: own vote + 2f - 2 PREPAREs
    # do not prepare, one more does; own + 2f - 1 COMMITs do not commit,
    # one more does — at both large-n rungs.  Senders start past the
    # primary (node0) and the replica under test.
    first = INDEX + 1
    for f in (33, 49):
        schedule = [
            ("pre-prepare", 0, 1, 0, False),
            ("votes", Prepare, 0, 1, 0, False, first, 2 * f - 2, True),
        ]
        model = run_schedule(f, schedule, True)
        assert model.log[1][3] is False
        schedule.append(
            ("votes", Prepare, 0, 1, 0, True, first + 2 * f - 2, 1, False)
        )
        model = run_schedule(f, schedule, True)
        assert model.log[1][3] is True and model.log[1][4] is False
        schedule.append(
            ("votes", Commit, 0, 1, 0, False, first, 2 * f - 1, True)
        )
        assert run_schedule(f, schedule, True).ordered == []
        schedule.append(
            ("votes", Commit, 0, 1, 0, True, first + 2 * f - 1, 1, True)
        )
        assert [s for s, _ in run_schedule(f, schedule, True).ordered] == [1]


def test_votes_racing_their_preprepare_move_onto_the_slot():
    schedule = [
        ("votes", Prepare, 0, 1, 0, False, 3, 1, True),
        ("votes", Prepare, 0, 1, 0, True, 1, 1, False),
        ("votes", Commit, 0, 1, 0, False, 0, 2, True),
        ("pre-prepare", 0, 1, 0, True),  # own PREPARE + COMMIT complete it
    ]
    model = run_schedule(1, schedule, False)
    assert [seq for seq, _ in model.ordered] == [1]
    assert model.snapshot()["sizes"] == (1, 1, 1, 0)  # one key, not two


def test_equivocating_digest_stays_off_the_slot():
    schedule = [
        ("pre-prepare", 0, 1, 0, False),
        ("votes", Prepare, 0, 1, 1, False, 1, 3, True),  # 2f+1 for the other
        ("votes", Commit, 0, 1, 1, False, 0, 4, True),
        ("pre-prepare", 0, 1, 1, False),  # same view: refused
    ]
    model = run_schedule(1, schedule, True)
    assert model.log[1][1:] == [digest_for(1, 0), items_for(1, 0), False, False]
    assert model.snapshot()["sizes"] == (1, 2, 1, 0)


def test_one_sender_opens_one_stray_key_per_view_and_seq():
    schedule = [
        ("votes", Prepare, 0, 1, 0, False, 3, 1, True),  # node3 opens d0
        ("votes", Prepare, 0, 1, 1, False, 3, 1, False),  # and d1: refused
        ("votes", Commit, 0, 1, 1, False, 3, 1, True),  # refused as COMMIT too
    ]
    assert run_schedule(1, schedule, True).snapshot()["sizes"] == (0, 1, 0, 0)
    schedule += [
        ("votes", Prepare, 0, 1, 1, False, 1, 1, False),  # node1 opens d1
        ("votes", Commit, 0, 1, 1, False, 3, 1, True),  # node3 onto it: counts
    ]
    assert run_schedule(1, schedule, True).snapshot()["sizes"] == (0, 2, 1, 0)
    # Votes for the binding always count; the checkpoint collects every
    # key at or below it, and the rule holds per sequence number.
    schedule += [
        ("pre-prepare", 0, 1, 1, False),
        ("votes", Prepare, 0, 1, 1, False, 3, 1, False),
        ("gc", 1),
        ("votes", Prepare, 0, 2, 0, False, 3, 1, False),
        ("votes", Prepare, 0, 2, 1, False, 3, 1, False),
    ]
    model = run_schedule(1, schedule, True)
    assert model.snapshot()["sizes"] == (0, 1, 0, 0)


def test_displaced_binding_keeps_its_votes_countable_until_gc():
    schedule = [
        ("pre-prepare", 0, 1, 0, False),  # view 0, own PREPARE on the slot
        ("rotate-view",),
        ("pre-prepare", 0, 1, 1, False),  # view 1 displaces the binding
    ]
    model = run_schedule(1, schedule, False)
    assert model.log[1][0] == 1
    assert model.snapshot()["sizes"] == (1, 2, 0, 0)
    model = run_schedule(1, schedule + [("gc", 1)], False)
    assert model.snapshot()["sizes"] == (0, 0, 0, 0)


def test_newer_view_votes_certify_an_older_slot_with_the_same_digest():
    # The batch digest does not cover the view, so after a rotation that
    # kept the log, a quorum of new-view PREPAREs marks the old slot
    # prepared while counting on its own (view, seq, digest) key — one
    # vote at a time, so a miscounted key shows up immediately.
    schedule = [
        ("pre-prepare", 0, 1, 0, False),
        ("rotate-view",),
        ("votes", Prepare, 0, 1, 0, False, 3, 1, True),
        ("votes", Prepare, 0, 1, 0, True, 0, 1, False),
        ("votes", Commit, 0, 1, 0, False, 3, 1, True),
        ("votes", Commit, 0, 1, 0, True, 0, 1, True),
    ]
    model = run_schedule(1, schedule[:3], False)
    assert model.log[1][3] is False
    model = run_schedule(1, schedule[:5], False)
    assert model.log[1][0] == 0 and model.log[1][3] is True
    assert model.sent[-1] == ("Commit", 1, 1, digest_for(1, 0))
    assert model.ordered == []
    model = run_schedule(1, schedule, False)
    assert [seq for seq, _ in model.ordered] == [1]


def test_rebinding_a_displaced_key_keeps_its_votes_not_its_flags():
    # Only reachable through the guard queue (pre-prepares accepted
    # without the same-view refusal): B, A, B again at one sequence
    # number.  B's quorum is remembered, its prepared flag is not — the
    # second binding re-derives it and re-announces the COMMIT, exactly
    # as a fresh log entry over a completed tracker key did.
    sim, engine, transport, ordered = make_engine(1, False)

    def preprepare(which):
        return PrePrepare(
            "node0", 0, 0, 1, items_for(1, which), digest_for(1, which), 100,
            MacAuthenticator.for_signer("node0"),
        )

    engine._dispatch(Prepare(
        "node3", 0, 0, 1, digest_for(1, 1), MacAuthenticator.for_signer("node3")
    ))
    engine._accept_preprepare(preprepare(1))
    assert engine.log[1].prepared
    engine._accept_preprepare(preprepare(0))
    assert not engine.log[1].prepared
    assert engine.log_sizes()["prepare_votes"] == 2
    engine._accept_preprepare(preprepare(1))
    assert engine.log[1].prepared and not engine._stray[
        (0, 1, digest_for(1, 0))
    ].committed
    sim.run()
    assert [kind for kind, *_ in transport.sent] == [
        "Prepare", "Commit", "Prepare", "Prepare", "Commit",
    ]
