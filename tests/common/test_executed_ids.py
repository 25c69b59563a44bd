"""``ExecutedIds`` against the pair of stores it replaced.

As a set the class must be indistinguishable from ``set`` through every
operator the nodes and the invariant checkers use — for every rid a
client (or a Byzantine one) can send — while storing O(clients) ints,
not O(requests) tuples.  As a reply cache it must be indistinguishable
from a ``client -> last reply written`` dict, whatever the order of
executions and replies.
"""

import random
from collections import namedtuple

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common import Reply
from repro.common.executed import ExecutedIds

CLIENTS = ["c0", "c1", "pop#7", "pop#8"]
#: dense small rids (in order, out of order, duplicated, gaps that close
#: and gaps that never do when 1 is not drawn) beside the hostile ones.
RIDS = st.one_of(
    st.integers(1, 12),
    st.sampled_from([0, -1, -(2 ** 62), 2 ** 62, 2 ** 62 + 1, 10 ** 6]),
)
STEPS = st.lists(st.tuples(st.sampled_from(CLIENTS), RIDS), max_size=60)
OTHER = st.sets(st.tuples(st.sampled_from(CLIENTS + ["stranger"]), RIDS), max_size=8)


def assert_same(executed, model, other):
    assert len(executed) == len(model)
    assert sorted(executed) == sorted(model)  # iteration, no duplicates
    assert executed == model and model == executed
    assert not executed != model
    for probe in other | model:
        assert (probe in executed) == (probe in model)
    for peer in (other, ExecutedIds(other)):
        assert (executed == peer) == (model == other)
        assert executed - peer == model - other
        assert peer - executed == other - model
        assert executed ^ peer == model ^ other
        assert executed & peer == model & other


@settings(max_examples=200, deadline=None)
@given(steps=STEPS, other=OTHER)
@example(steps=[("c0", 3), ("c0", 2), ("c0", 1), ("c0", 1)], other=set())
@example(steps=[("c0", 2), ("c0", 3), ("c0", 5)], other={("c0", 1)})  # never filled
@example(steps=[("pop#7", 31337), ("pop#8", 31338)], other={("pop#7", 31338)})
@example(steps=[("c0", 0), ("c0", -1), ("c0", 1), ("c0", 2 ** 62)], other=set())
def test_behaves_as_the_tuple_set_after_every_step(steps, other):
    executed, model = ExecutedIds(), set()
    assert_same(executed, model, other)
    for request_id in steps:
        fresh = request_id not in model
        assert executed.add(request_id) is fresh  # test-and-add in one call
        model.add(request_id)
        assert_same(executed, model, other)
    assert ExecutedIds(steps) == model


#: what ``reply_for`` reads off a request: its client and rid.
Probe = namedtuple("Probe", "client rid")

#: a reply names its rid by role: the client's newest or oldest executed
#: rid (an older reply written after a newer add), or any drawn rid.
REPLY_STEPS = st.tuples(
    st.just("reply"),
    st.sampled_from(CLIENTS),
    st.one_of(st.sampled_from(["newest", "oldest"]), RIDS),
    st.sampled_from(["ok", "diverged"]),  # a replica's own, differing result
)
TABLE_STEPS = st.lists(
    st.one_of(st.tuples(st.just("add"), st.sampled_from(CLIENTS), RIDS),
              REPLY_STEPS),
    max_size=60,
)


def assert_same_replies(executed, replies, probes):
    view = executed.replies()
    assert len(view) == len(replies)
    assert sorted(view) == sorted(replies)  # iteration, no duplicates
    assert view == replies
    for client in CLIENTS + ["stranger"]:
        assert (client in view) == (client in replies)
        assert view.get(client) is replies.get(client)
        if client not in replies:
            with pytest.raises(KeyError):
                view[client]
    for client, rid in probes:
        last = replies.get(client)
        expected = last if last is not None and last.rid == rid else None
        assert executed.reply_for(Probe(client, rid)) is expected


@settings(max_examples=300, deadline=None)
@given(steps=TABLE_STEPS, other=OTHER)
# a population identity: its one rid, then the reply standing for it
@example(steps=[("add", "pop#7", 31337), ("reply", "pop#7", "newest", "ok")],
         other={("pop#7", 31337)})
# resampled: a second rid arrives after the first was answered
@example(steps=[("add", "pop#7", 31337), ("reply", "pop#7", "newest", "ok"),
                ("add", "pop#7", 40000), ("reply", "pop#7", "oldest", "ok")],
         other=set())
# the older rid's reply is written after the newer rid executed
@example(steps=[("add", "c0", 5), ("add", "c0", 9),
                ("reply", "c0", "newest", "ok"),
                ("reply", "c0", "oldest", "ok")], other=set())
# the gap closes under a reply that stands for a rid ahead of it
@example(steps=[("add", "c0", 2), ("reply", "c0", "newest", "ok"),
                ("add", "c0", 1), ("reply", "c0", "newest", "diverged")],
         other={("c0", 2)})
@example(steps=[("add", "c0", 2 ** 62), ("reply", "c0", "newest", "ok"),
                ("add", "c0", 0), ("add", "c0", 2 ** 62),
                ("reply", "c0", -1, "ok")], other=set())
def test_behaves_as_the_set_and_reply_dict_after_every_step(steps, other):
    executed, model, replies = ExecutedIds(), set(), {}
    added = {}  # client -> rids in add order, to name "newest"/"oldest"
    probes = set()
    for step in steps:
        if step[0] == "add":
            _, client, rid = step
            fresh = (client, rid) not in model
            assert executed.add((client, rid)) is fresh
            model.add((client, rid))
            added.setdefault(client, []).append(rid)
        else:
            _, client, rid, result = step
            if rid in ("newest", "oldest"):
                history = added.get(client) or [1]
                rid = history[-1] if rid == "newest" else history[0]
            reply = Reply(client, rid, result)
            executed.record_reply(reply)
            replies[client] = reply
        probes |= {(client, rid), (client, rid + 1)}
        assert_same(executed, model, other)
        assert_same_replies(executed, replies, probes | other)


def test_a_population_identity_costs_one_entry_once_answered():
    # The reply carries the identity's one rid: it replaces the int.
    executed = ExecutedIds()
    executed.add(("pop#7", 31337))
    reply = Reply("pop#7", 31337, "ok")
    executed.record_reply(reply)
    assert executed._ahead == {"pop#7": reply} and not executed._replies
    assert ("pop#7", 31337) in executed and executed.stored_entries() == 1
    # A sequential client's reply sits beside its watermark.
    executed.add(("c0", 1))
    executed.record_reply(Reply("c0", 1, "ok"))
    assert executed._high == {"c0": 1} and list(executed._replies) == ["c0"]


def test_plain_set_operands_reflect_onto_the_class():
    # The checkers write ``ordered_set - node.executed_ids``: a built-in
    # set on the left must defer to the class, and yield a plain set.
    executed = ExecutedIds([("c0", 1), ("c0", 2), ("c1", 9)])
    skipped = {("c0", 2), ("c0", 3)} - executed
    assert skipped == {("c0", 3)} and type(skipped) is set
    assert type(executed ^ {("c0", 1)}) is set
    assert {("c0", 1), ("c0", 2), ("c1", 9)} == executed
    assert {("c0", 1)} != executed


def test_in_order_clients_store_a_watermark_not_their_history():
    # 12 clients × 20 000 rids, each delivered within a few positions of
    # its turn (the reordering a batching pipeline produces).
    rng = random.Random(7)
    executed = ExecutedIds()
    for client in range(12):
        rids = list(range(1, 20_001))
        for i in range(0, len(rids) - 4, 4):
            window = rids[i:i + 4]
            rng.shuffle(window)
            rids[i:i + 4] = window
        for rid in rids:
            executed.add(("client%d" % client, rid))
    assert len(executed) == 12 * 20_000
    assert executed.stored_entries() == 12
    assert ("client3", 20_000) in executed and ("client3", 20_001) not in executed
    # Mid-stream — one rid of each client held back — a gap costs what
    # is ahead of it, nothing more.
    lagging = ExecutedIds(
        ("client%d" % client, rid)
        for client in range(12)
        for rid in range(1, 20_001)
        if rid != 19_998
    )
    assert lagging.stored_entries() == 12 * 3


def test_single_shot_identities_store_one_int_each():
    # ClientPopulation identities carry population-wide rids and mostly
    # send once: no watermark can form, and no per-identity set may.
    executed = ExecutedIds(("pop#%d" % i, 1000 + i) for i in range(10_000))
    assert len(executed) == executed.stored_entries() == 10_000
    assert not any(type(ahead) is set for ahead in executed._ahead.values())
    assert not executed._high
    assert ("pop#42", 1042) in executed and ("pop#42", 1043) not in executed


def test_retained_memory_per_executed_request():
    """What a drained 5 000-request run leaves behind on n = 4, per request.

    Everything allocated during the run and still alive once it has
    drained, divided by the requests executed: ≈ 0.86 MB of deployment
    state that does not depend on run length (engine logs inside their
    checkpoint window, the tables of the per-request memos) plus
    whatever is kept per executed request.  With a set of ``(client,
    rid)`` tuples per node that read 650 B here (four 32 768-slot set
    tables, a tuple and a rid int per request); with per-client
    watermarks, 178 B — the fixed part alone.  The ceiling sits between
    the two with ≈ 1 MB to spare either way: the memo tables resize at
    hash-seed-dependent moments, which moves the fixed part by tens of
    kilobytes from process to process.
    """
    import gc
    import tracemalloc

    from repro.core import RBFTConfig
    from repro.experiments import deploy

    requests, gap = 5000, 1e-4
    dep = deploy(
        "rbft",
        RBFTConfig(f=1, batch_size=8, batch_delay=1e-3, monitoring_period=0.1),
        n_clients=12,
    )
    for i in range(requests):
        client = dep.clients[i % len(dep.clients)]
        dep.sim.call_at(i * gap, client.send_request)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        dep.sim.run(until=requests * gap + 0.2)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for node in dep.nodes:
        assert node.executed_count == len(node.executed_ids) == requests
        assert node.executed_ids.stored_entries() == 12
    assert (after - before) / requests <= 400
