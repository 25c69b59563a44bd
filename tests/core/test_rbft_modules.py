"""Fine-grained tests of the RBFT node's module pipeline."""


from repro.core import RBFTConfig
from repro.core.messages import PropagateMsg
from repro.crypto import MacAuthenticator
from repro.experiments import deploy


def small(**overrides):
    defaults = dict(f=1, batch_size=4, batch_delay=5e-4, monitoring_period=0.1)
    defaults.update(overrides)
    return deploy("rbft", RBFTConfig(**defaults), n_clients=2)


def test_each_module_has_its_own_core():
    dep = small()
    node = dep.nodes[0]
    cores = {
        id(node.verification_core),
        id(node.propagation_core),
        id(node.dispatch_core),
        id(node.execution_core),
    } | {id(engine.core) for engine in node.engines}
    assert len(cores) == 4 + len(node.engines)


def test_request_ready_needs_f_plus_one_propagates():
    dep = small()
    node = dep.nodes[0]
    request = dep.clients[0].send_request(targets=[])  # sent nowhere
    msg = PropagateMsg("node1", request, MacAuthenticator("node1"))
    node.on_network_message(msg)
    dep.sim.run(until=0.05)
    # One PROPAGATE (plus our own echo once verified) reaches f+1 = 2:
    # the request becomes ready, orders, and executes — at which point
    # checkpoint GC drops the ready-set memo and only the durable
    # executed_ids anchor remains.
    assert request.request_id in node.executed_ids
    assert request.request_id not in node.ready_ids  # pruned post-exec


def test_propagate_from_single_faulty_node_is_not_enough_alone():
    """A single PROPAGATE with an invalid MAC is dropped outright."""
    dep = small()
    node = dep.nodes[0]
    request = dep.clients[0].send_request(targets=[])
    msg = PropagateMsg("node1", request, MacAuthenticator.corrupt("node1"))
    node.on_network_message(msg)
    dep.sim.run(until=0.05)
    assert request.request_id not in node.ready_ids
    assert request.request_id not in node._propagated


def test_signature_checked_once_per_request():
    """The client copy and the PROPAGATE copies share one signature check."""
    dep = small()
    node = dep.nodes[1]
    busy_before = node.verification_core.busy_time
    dep.clients[0].send_request()
    dep.sim.run(until=0.3)
    busy = node.verification_core.busy_time - busy_before
    one_sig = node.costs.sig_verify(200)
    # MAC + one signature, far less than two signatures.
    assert busy < 1.6 * one_sig


def test_executed_request_resends_cached_reply():
    dep = small()
    client = dep.clients[0]
    request = client.send_request()
    dep.sim.run(until=0.3)
    assert client.completed == 1
    executed = [node.executed_count for node in dep.nodes]
    # Retransmit: nodes answer from the reply cache without re-execution.
    from repro.protocols.base import ClientRequestMsg

    client.port.broadcast(ClientRequestMsg(request))
    dep.sim.run(until=0.6)
    assert [node.executed_count for node in dep.nodes] == executed


def test_blacklisted_client_cannot_even_reach_propagation():
    dep = small()
    node = dep.nodes[0]
    client = dep.clients[0]
    client.send_request(signature_valid=False)
    dep.sim.run(until=0.3)
    assert node.blacklist.banned(client.name)
    propagated_before = len(node._propagated)
    client.send_request()
    dep.sim.run(until=0.6)
    assert len(node._propagated) == propagated_before


def test_request_store_garbage_collected_after_execution():
    dep = small()
    for _ in range(8):
        dep.clients[0].send_request()
    dep.sim.run(until=0.5)
    for node in dep.nodes:
        assert node.executed_count == 8
        assert len(node.request_store) == 0


def test_latency_measured_from_dispatch_to_ordering():
    dep = small()
    node = dep.nodes[1]
    samples = []
    original = node.monitor.record_latency
    node.monitor.record_latency = lambda k, c, lat: (
        samples.append((k, lat)), original(k, c, lat),
    )
    dep.clients[0].send_request()
    dep.sim.run(until=0.3)
    # One latency sample per instance, all small and positive.
    instances = sorted(k for k, _ in samples)
    assert instances == [0, 1]
    assert all(0 < lat < 50e-3 for _, lat in samples)


def test_instance_change_vote_is_once_per_cpi():
    dep = small()
    node = dep.nodes[0]
    node.vote_instance_change("test")
    node.vote_instance_change("test")  # idempotent at the same cpi
    dep.sim.run(until=0.1)
    # Only one INSTANCE-CHANGE went out (visible via the vote tracker).
    assert node._ic_votes.count((0, 0)) <= 1 or node.cpi >= 1


def test_stale_instance_change_discarded():
    from repro.core.messages import InstanceChangeMsg

    dep = small()
    node = dep.nodes[0]
    node.cpi = 5
    msg = InstanceChangeMsg("node1", 2, MacAuthenticator("node1"))
    node.on_network_message(msg)
    dep.sim.run(until=0.05)
    assert node._ic_votes.count((2, 0)) == 0  # "discarded" (§IV-D)


def test_udp_rbft_with_loss_still_completes():
    """Failure injection: UDP transport with 0.5 % message loss."""
    from repro.net.network import LinkProfile

    config = RBFTConfig(f=1, batch_size=4, batch_delay=5e-4)
    dep = deploy(
        "rbft-udp", config, n_clients=2, link=LinkProfile(udp_loss=0.005)
    )
    for i in range(30):
        dep.sim.call_after(i * 1e-3, dep.clients[i % 2].send_request)
    dep.sim.run(until=1.0)
    # Loss can delay individual quorums but the redundancy rides it out.
    total = sum(client.completed for client in dep.clients)
    assert total >= 28
