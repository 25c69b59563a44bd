"""The replica front: steps 1 and 6 of §IV-B, one pack for every node class.

Each protocol runs the checks §III gives it (RBFT, PBFT and Aardvark
MAC then signature, Spinning the MAC only, Prime the signature only) and
answers a retransmission of an executed request its own way.  These
cases pin today's behaviour per protocol.
"""

import pytest

from repro.common import Reply
from repro.crypto import Mac
from repro.experiments import SMOKE
from repro.protocols import registry
from repro.protocols.base import ClientRequestMsg, ReplicaFront

PROTOCOLS = ("rbft", "pbft", "aardvark", "spinning", "prime")
CHECKS_MAC = {"rbft", "pbft", "aardvark", "spinning"}
CHECKS_SIGNATURE = {"rbft", "pbft", "aardvark", "prime"}


def build(protocol):
    dep = registry.get(protocol).build(1, SMOKE, n_clients=1)
    client = dep.clients[0]
    replies = []
    deliver = client.port.handler

    def spy(msg):
        replies.append(msg)
        deliver(msg)

    client.port.handler = spy
    return dep, client, replies


def all_nodes(dep):
    return [node.name for node in dep.nodes]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_front_callbacks_are_bound_once(protocol):
    # A queued core job holds its callback: one bound method per node,
    # not one per job (see test_queued_job_memory_budget).
    node = build(protocol)[0].nodes[0]
    for name in ReplicaFront._STAGE_CALLBACKS:
        assert getattr(node, name) is getattr(node, name), name


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_invalid_mac_is_counted_but_never_blacklists(protocol):
    dep, client, _ = build(protocol)
    client.send_request(mac_invalid_for=all_nodes(dep))
    dep.sim.run(until=0.2)
    checked = protocol in CHECKS_MAC
    for node in dep.nodes:
        assert not node.blacklist.banned(client.name)
        assert node.invalid_requests == (1 if checked else 0)
        assert node.executed_count == (0 if checked else 1)
    client.send_request()
    dep.sim.run(until=0.4)
    assert client.completed == (1 if checked else 2)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_invalid_signature_blacklists_the_client(protocol):
    dep, client, _ = build(protocol)
    client.send_request(signature_valid=False)
    dep.sim.run(until=0.2)
    checked = protocol in CHECKS_SIGNATURE
    for node in dep.nodes:
        assert node.blacklist.banned(client.name) == checked
        assert node.invalid_requests == (1 if checked else 0)
        assert node.executed_count == (0 if checked else 1)
    # A banned client's later requests are dropped before any check.
    client.send_request()
    dep.sim.run(until=0.4)
    assert client.completed == (0 if checked else 2)
    assert all(node.invalid_requests == (1 if checked else 0) for node in dep.nodes)


#: what a retransmission of the last executed request gets.  Spinning
#: has no executed test in its front: the copy goes back to ordering,
#: whose ordered-id memo drops it (S_timeout is armed all the same).
RETRANSMISSION = {
    "rbft": "answered from the reply cache",
    "pbft": "answered from the reply cache",
    "aardvark": "answered from the reply cache",
    "spinning": "handed to ordering, neither re-ordered, re-executed nor answered",
    "prime": "dropped",
}


def ordered_items(node):
    """Items each ordering engine ordered (Prime orders coverage vectors)."""
    if hasattr(node, "engines"):
        return [engine.ordered_items for engine in node.engines]
    return [node.engine.ordered_items] if hasattr(node, "engine") else []


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_retransmission_of_an_executed_request(protocol):
    dep, client, replies = build(protocol)
    first = client.send_request()
    dep.sim.run(until=0.2)
    assert client.completed == 1
    assert sorted(msg.sender for msg in replies) == sorted(all_nodes(dep))
    ordered = [ordered_items(node) for node in dep.nodes]
    verified = []
    for node in dep.nodes:
        node._on_request_verified = verified.append

    client.port.broadcast(ClientRequestMsg(first))
    dep.sim.run(until=0.4)
    assert all(node.executed_count == 1 for node in dep.nodes)
    resent = replies[len(dep.nodes):]
    outcome = RETRANSMISSION[protocol]
    if outcome == "answered from the reply cache":
        # One record per client, and the same Reply object in every
        # correct replica's cache.
        shared = dep.nodes[0].reply_cache[client.name]
        assert shared == Reply(client.name, first.rid, "ok", 8)
        for node in dep.nodes:
            assert node.reply_cache.keys() == {client.name}
            assert node.reply_cache[client.name] is shared
        assert sorted(msg.sender for msg in resent) == sorted(all_nodes(dep))
        for msg in resent:
            assert msg.reply is shared and msg.mac == Mac(msg.sender)
    else:
        assert resent == []
    if outcome == "dropped":
        assert all(len(node.reply_cache) == 0 for node in dep.nodes)
    assert len(verified) == (len(dep.nodes) if outcome.startswith("handed") else 0)
    assert [ordered_items(node) for node in dep.nodes] == ordered


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_request_a_thousand_rids_old_does_not_reexecute(protocol):
    dep, client, replies = build(protocol)
    first = client.send_request()
    for i in range(1, 1001):
        dep.sim.call_after(i * 1e-4, client.send_request)
    dep.sim.run(until=0.5)
    assert client.completed == 1001
    for node in dep.nodes:
        # The per-client watermark has long absorbed rid 1.
        assert first.request_id in node.executed_ids
        assert node.executed_ids.stored_entries() == 1
    answered = len(replies)

    client.port.broadcast(ClientRequestMsg(first))
    dep.sim.run(until=0.7)
    assert len(replies) == answered  # only the last reply is ever re-sent
    for node in dep.nodes:
        assert node.executed_count == len(node.executed_ids) == 1001
