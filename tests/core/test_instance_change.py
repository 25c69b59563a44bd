"""Protocol-level tests of the instance change mechanism (§IV-D)."""


from repro.core import RBFTConfig
from repro.core.messages import InstanceChangeMsg
from repro.crypto import MacAuthenticator
from repro.experiments import deploy


def small(**overrides):
    defaults = dict(f=1, batch_size=4, batch_delay=5e-4, monitoring_period=0.1)
    defaults.update(overrides)
    return deploy("rbft", RBFTConfig(**defaults), n_clients=2)


def inject(node, sender, cpi, preferred=0):
    node.on_network_message(
        InstanceChangeMsg(sender, cpi, MacAuthenticator(sender), preferred)
    )


def test_two_f_plus_one_matching_votes_perform_the_change():
    dep = small()
    node = dep.nodes[0]
    inject(node, "node1", 0)
    inject(node, "node2", 0)
    dep.sim.run(until=0.1)
    # f+1 = 2 votes triggered the join rule; with our own vote that is
    # 2f+1 and the change completes.
    assert node.cpi == 1
    assert all(engine._vc_voted_for >= 1 for engine in node.engines)


def test_f_votes_are_not_enough_to_join():
    dep = small()
    node = dep.nodes[0]
    inject(node, "node1", 0)  # f = 1 vote: could be the faulty node
    dep.sim.run(until=0.1)
    assert node.cpi == 0
    assert node._voted_choice == {}


def test_own_observation_joins_immediately():
    dep = small()
    node = dep.nodes[0]
    node.monitor._trigger("latency-lambda")  # breach observed locally
    dep.sim.run(until=0.05)
    inject(node, "node1", 0)
    dep.sim.run(until=0.1)
    # breach + one external vote -> our vote + node1 = 2... still below
    # 2f+1, so no change yet; but we did vote.
    assert 0 in node._voted_choice
    inject(node, "node2", 0)
    dep.sim.run(until=0.2)
    assert node.cpi == 1


def test_change_rotates_primaries_consistently():
    dep = small()
    for node in dep.nodes:
        node.vote_instance_change("test")
    dep.sim.run(until=0.5)
    for node in dep.nodes:
        assert node.cpi == 1
        # New primaries: instance k -> node (1 + k) mod n.
        assert node.engines[0].primary_name() == "node1"
        assert node.engines[1].primary_name() == "node2"


def test_at_most_one_primary_per_node_after_changes():
    dep = small()
    for round_ in range(3):
        for node in dep.nodes:
            node.vote_instance_change("round-%d" % round_)
        dep.sim.run(until=0.3 * (round_ + 1))
    for node in dep.nodes:
        assert sum(engine.is_primary for engine in node.engines) <= 1


def test_ordering_continues_across_repeated_changes():
    dep = small()
    for i in range(12):
        dep.sim.call_after(i * 2e-3, dep.clients[i % 2].send_request)
    dep.sim.call_after(0.01, lambda: [n.vote_instance_change("a") for n in dep.nodes])
    dep.sim.call_after(0.30, lambda: [n.vote_instance_change("b") for n in dep.nodes])
    dep.sim.run(until=1.0)
    assert all(node.cpi == 2 for node in dep.nodes)
    assert all(node.executed_count == 12 for node in dep.nodes)
    assert sum(c.completed for c in dep.clients) == 12


def test_votes_for_future_cpi_accumulate():
    dep = small()
    node = dep.nodes[0]
    inject(node, "node1", 3)
    inject(node, "node2", 3)
    inject(node, "node3", 3)
    dep.sim.run(until=0.1)
    # 2f+1 votes for cpi 3 advance us straight past it.
    assert node.cpi == 4


def test_invalid_instance_change_counts_toward_flooding():
    dep = small(flood_threshold=4, flood_window=1.0)
    node = dep.nodes[0]
    for _ in range(6):
        node.on_network_message(
            InstanceChangeMsg("node3", 0, MacAuthenticator.corrupt("node3"))
        )
    dep.sim.run(until=0.1)
    assert node.cpi == 0  # none of them counted as votes
    assert node.machine.peer_nics["node3"].closed
