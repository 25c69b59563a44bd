"""Unit tests for open-loop clients."""


from repro.clients import OpenLoopClient
from repro.common import Cluster, ClusterConfig, Reply
from repro.crypto import Mac
from repro.protocols.base import ReplyMsg
from repro.sim import Simulator


def build(f=1, **client_kwargs):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(f=f))
    client = OpenLoopClient(cluster, "client0", **client_kwargs)
    return sim, cluster, client


def reply_from(cluster, node_index, client, rid, result="ok"):
    machine = cluster.machines[node_index]
    machine.send_to_client(
        client.name,
        ReplyMsg(
            Reply(client.name, rid, result), Mac(machine.name), machine.name
        ),
    )


def test_request_ids_are_sequential():
    sim, cluster, client = build()
    first = client.send_request()
    second = client.send_request()
    assert first.rid == 1
    assert second.rid == 2
    assert client.sent == 2


def test_completion_requires_f_plus_one_matching_replies():
    sim, cluster, client = build()
    request = client.send_request()
    reply_from(cluster, 0, client, request.rid)
    sim.run(until=0.1)
    assert client.completed == 0  # one reply is not enough
    reply_from(cluster, 1, client, request.rid)
    sim.run(until=0.2)
    assert client.completed == 1
    assert len(client.latencies) == 1


def test_duplicate_replies_from_same_node_do_not_count():
    sim, cluster, client = build()
    request = client.send_request()
    reply_from(cluster, 0, client, request.rid)
    reply_from(cluster, 0, client, request.rid)
    sim.run(until=0.1)
    assert client.completed == 0


def test_mismatched_results_do_not_combine():
    sim, cluster, client = build()
    request = client.send_request()
    reply_from(cluster, 0, client, request.rid, result="a")
    reply_from(cluster, 1, client, request.rid, result="b")
    sim.run(until=0.1)
    assert client.completed == 0
    # A second vote for one of the results completes it.
    reply_from(cluster, 2, client, request.rid, result="a")
    sim.run(until=0.2)
    assert client.completed == 1


def test_invalid_reply_mac_ignored():
    sim, cluster, client = build()
    request = client.send_request()
    machine = cluster.machines[0]
    machine.send_to_client(
        client.name,
        ReplyMsg(
            Reply(client.name, request.rid, "ok"),
            Mac(machine.name, valid=False),
            machine.name,
        ),
    )
    reply_from(cluster, 1, client, request.rid)
    sim.run(until=0.1)
    assert client.completed == 0


def test_replies_for_unknown_rid_ignored():
    sim, cluster, client = build()
    reply_from(cluster, 0, client, 42)
    reply_from(cluster, 1, client, 42)
    sim.run(until=0.1)
    assert client.completed == 0


def test_targets_restrict_recipients():
    sim, cluster, client = build()
    got = {name: [] for name in cluster.node_names()}
    for machine in cluster.machines:
        machine.handler = got[machine.name].append
    client.send_request(targets=["node1", "node2"])
    sim.run(until=0.1)
    assert len(got["node1"]) == 1 and len(got["node2"]) == 1
    assert len(got["node0"]) == 0 and len(got["node3"]) == 0


def test_fault_knobs_shape_the_request():
    sim, cluster, client = build()
    request = client.send_request(
        signature_valid=False, mac_invalid_for=["node0"], exec_cost=1e-3,
        payload_size=512,
    )
    assert not request.signature.valid
    assert not request.authenticator.valid_for("node0")
    assert request.authenticator.valid_for("node1")
    assert request.exec_cost == 1e-3
    assert request.payload_size == 512


def test_outstanding_tracks_incomplete_requests():
    sim, cluster, client = build()
    request = client.send_request()
    assert client.outstanding == 1
    reply_from(cluster, 0, client, request.rid)
    reply_from(cluster, 1, client, request.rid)
    sim.run(until=0.1)
    assert client.outstanding == 0
