"""Send-time bookkeeping (``SendTimes``) under both client kinds.

Open-loop clients and populations keep the send time of every
unanswered request in fixed float blocks; these tests pin what the
``Dict[int, float]`` they replaced gave for free — stale, duplicate and
unknown rids are ignored and ``outstanding`` is exact — plus the bound
the blocks add: memory stays O(outstanding) whatever the completion
order, so one lost request cannot pin every later block.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clients import ClientPopulation, OpenLoopClient
from repro.clients.openloop import SendTimes
from repro.common import Cluster, ClusterConfig, Reply
from repro.crypto import Mac
from repro.metrics.recorder import BLOCK
from repro.protocols.base import ReplyMsg
from repro.sim import Simulator


@pytest.fixture(params=["open-loop", "population"])
def client(request):
    cluster = Cluster(Simulator(), ClusterConfig(f=1))
    if request.param == "open-loop":
        return OpenLoopClient(cluster, "client0")
    return ClientPopulation(cluster, size=1000)


def reply(client, rid, node):
    """One valid REPLY for ``rid`` from ``node<node>``, handed straight in."""
    identity = client.name if isinstance(client, OpenLoopClient) else client.name + "#7"
    sender = "node%d" % node
    client._on_message(ReplyMsg(Reply(identity, rid, "ok"), Mac(sender), sender))


def answer(client, rid):
    """f + 1 = 2 matching replies: completes ``rid`` if it is open."""
    reply(client, rid, 0)
    reply(client, rid, 1)


def held(client):
    sent = client._sent
    return len(sent._blocks), dict(sent._stragglers)


def test_one_lost_request_pins_no_blocks(client):
    lost = client.send_request().rid
    for _ in range(10_000):
        answer(client, client.send_request().rid)
        blocks, stragglers = held(client)
        assert blocks <= 2 and set(stragglers) <= {lost}
    assert held(client)[1] == {lost: 0.0}
    assert client.outstanding == 1 and client.completed == 10_000
    answer(client, lost)  # a straggler still completes, once
    assert client.outstanding == 0 and client.completed == 10_001
    assert held(client) == (1, {})


def test_stale_duplicate_and_unknown_rids_are_ignored(client):
    rids = [client.send_request().rid for _ in range(3 * BLOCK + 100)]
    for rid in rids[:-1]:
        answer(client, rid)
    assert client.outstanding == 1 and client.completed == len(rids) - 1
    assert held(client) == (1, {})  # three full blocks released
    reply(client, rids[-1], 0)
    reply(client, rids[-1], 0)  # a duplicate vote is no quorum
    for rid in (
        rids[0],  # late: in a released block
        rids[-2],  # late: in a kept block
        0, -1, -BLOCK,  # below the first rid
        rids[-1] + 1,  # never issued, inside the newest block
        rids[-1] + 10 * BLOCK,  # never issued, beyond it
    ):
        answer(client, rid)
    assert client.outstanding == 1 and client.completed == len(rids) - 1
    assert client.latencies.count == len(rids) - 1
    reply(client, rids[-1], 1)
    assert client.outstanding == 0 and client.completed == len(rids)


def test_outstanding_is_exact_in_any_completion_order(client):
    rng = random.Random(5)
    open_rids = []
    for step in range(6 * BLOCK):
        open_rids.append(client.send_request().rid)
        if rng.random() < 0.7:
            answer(client, open_rids.pop(rng.randrange(len(open_rids))))
        assert client.outstanding == len(open_rids)
        assert client.completed == client.sent - len(open_rids)
    rng.shuffle(open_rids)
    while open_rids:
        answer(client, open_rids.pop())
        assert client.outstanding == len(open_rids)
    assert held(client) == (0, {})  # 6 full blocks, all answered


@settings(max_examples=60, deadline=None)
@given(
    sends=st.integers(min_value=1, max_value=8 * BLOCK),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    answered=st.floats(min_value=0.0, max_value=1.0),
)
def test_send_times_match_a_dict_and_stay_o_outstanding(sends, seed, answered):
    rng = random.Random(seed)
    times, reference = SendTimes(), {}
    for index in range(sends):
        now = index * 1e-4
        rid = times.issue(now)
        assert rid == index + 1
        reference[rid] = now
        while reference and rng.random() < answered:
            done = rng.choice(list(reference))
            assert times.get(done) == reference.pop(done)
            times.answer(done)
            assert times.get(done) is None
        assert times.outstanding == len(reference)
        # Every block but the newest holds over 1/8 of its rids open.
        assert (len(times._blocks) - 1) * (BLOCK // 8 + 1) <= times.outstanding
    for rid in range(-1, sends + 2):
        assert times.get(rid) == reference.get(rid)
