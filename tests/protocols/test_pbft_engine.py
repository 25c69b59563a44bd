"""Integration tests of the three-phase ordering engine via BftNode."""



from tests.helpers import build_pbft


def drive(sim, clients, count, gap=1e-4, **send_kwargs):
    """Send ``count`` requests round-robin with fixed spacing."""
    for i in range(count):
        client = clients[i % len(clients)]
        sim.call_after(i * gap, client.send_request, **send_kwargs)


def test_single_request_is_ordered_and_replied():
    sim, cluster, nodes, clients = build_pbft()
    clients[0].send_request()
    sim.run(until=0.5)
    assert clients[0].completed == 1
    assert clients[0].latencies.mean() > 0
    # Every correct node executed it.
    assert all(node.executed_count == 1 for node in nodes)


def test_many_requests_all_complete():
    sim, cluster, nodes, clients = build_pbft()
    drive(sim, clients, 100)
    sim.run(until=1.0)
    assert sum(c.completed for c in clients) == 100
    assert all(node.executed_count == 100 for node in nodes)


def test_nodes_agree_on_order():
    sim, cluster, nodes, clients = build_pbft(clients=4)
    orders = {node.name: [] for node in nodes}
    for node in nodes:
        original = node._on_ordered

        def spy(seq, items, _orig=original, _name=node.name):
            orders[_name].append([item.request_id for item in items])
            _orig(seq, items)

        node.engine.on_ordered = spy
    drive(sim, clients, 60)
    sim.run(until=1.0)
    sequences = list(orders.values())
    assert all(seq == sequences[0] for seq in sequences)
    assert sum(len(batch) for batch in sequences[0]) == 60


def test_batching_groups_requests():
    sim, cluster, nodes, clients = build_pbft(batch_size=10, batch_delay=0.5)
    drive(sim, clients, 30, gap=1e-5)
    sim.run(until=1.0)
    primary = nodes[0]
    assert primary.engine.ordered_batches <= 6  # ~3 full batches, not 30


def test_duplicate_request_not_executed_twice():
    sim, cluster, nodes, clients = build_pbft()
    client = clients[0]
    request = client.send_request()
    sim.run(until=0.3)
    assert nodes[0].executed_count == 1
    # Replay the exact same request (e.g. a retransmission).
    from repro.protocols.base import ClientRequestMsg

    client.port.broadcast(ClientRequestMsg(request))
    sim.run(until=0.6)
    assert all(node.executed_count == 1 for node in nodes)


def test_invalid_mac_is_dropped_without_blacklist():
    sim, cluster, nodes, clients = build_pbft()
    client = clients[0]
    client.send_request(mac_invalid_for=[n.name for n in nodes])
    sim.run(until=0.3)
    assert client.completed == 0
    assert all(not node.blacklist.banned(client.name) for node in nodes)
    assert all(node.invalid_requests == 1 for node in nodes)
    # The client is still allowed to send correct requests.
    client.send_request()
    sim.run(until=0.6)
    assert client.completed == 1


def test_request_verifiable_by_only_some_nodes():
    # MAC invalid for the primary only: others propagate nothing in plain
    # PBFT, so the request stalls (no PROPAGATE phase in the baseline).
    sim, cluster, nodes, clients = build_pbft()
    clients[0].send_request(mac_invalid_for=["node0"])
    sim.run(until=0.3)
    assert nodes[0].invalid_requests == 1


def test_view_change_replaces_primary_and_recovers():
    sim, cluster, nodes, clients = build_pbft()
    drive(sim, clients, 10)
    sim.run(until=0.3)
    executed_before = nodes[1].executed_count
    assert executed_before == 10
    # All replicas vote the primary out.
    for node in nodes:
        sim.call_after(0.0, node.engine.start_view_change)
    sim.run(until=0.6)
    assert all(node.engine.view == 1 for node in nodes)
    assert nodes[1].is_primary  # view 1 -> node1
    drive(sim, clients, 10)
    sim.run(until=1.2)
    assert all(node.executed_count == 20 for node in nodes)


def test_view_change_preserves_in_flight_requests():
    sim, cluster, nodes, clients = build_pbft(batch_size=4, batch_delay=5e-4)
    # Submit requests, then immediately trigger a view change so some are
    # still in flight; they must still execute exactly once in view >= 1.
    drive(sim, clients, 20, gap=2e-5)
    sim.call_after(3e-4, lambda: [n.engine.start_view_change() for n in nodes])
    sim.run(until=2.0)
    assert all(node.executed_count == 20 for node in nodes)
    assert sum(c.completed for c in clients) == 20


def test_two_view_changes_in_a_row():
    sim, cluster, nodes, clients = build_pbft()
    for node in nodes:
        sim.call_after(0.0, node.engine.start_view_change)
    sim.run(until=0.3)
    for node in nodes:
        sim.call_after(0.0, node.engine.start_view_change)
    sim.run(until=0.6)
    assert all(node.engine.view == 2 for node in nodes)
    clients[0].send_request()
    sim.run(until=1.0)
    assert clients[0].completed == 1


def test_checkpoint_advances_watermark_and_gc():
    sim, cluster, nodes, clients = build_pbft(
        batch_size=1, batch_delay=1e-4, checkpoint_interval=8
    )
    drive(sim, clients, 40)
    sim.run(until=1.5)
    for node in nodes:
        assert node.engine.low_watermark >= 8
        assert all(seq > node.engine.low_watermark for seq in node.engine.log)


def test_f2_cluster_orders_requests():
    sim, cluster, nodes, clients = build_pbft(f=2)
    assert len(nodes) == 7
    drive(sim, clients, 30)
    sim.run(until=1.0)
    assert all(node.executed_count == 30 for node in nodes)


def test_silent_faulty_replicas_do_not_block_progress():
    sim, cluster, nodes, clients = build_pbft()
    nodes[3].engine.silent = True  # one faulty node (f=1)
    drive(sim, clients, 30)
    sim.run(until=1.0)
    correct = nodes[:3]
    assert all(node.executed_count == 30 for node in correct)


def test_silent_primary_stalls_without_view_change():
    sim, cluster, nodes, clients = build_pbft()
    nodes[0].engine.silent = True
    drive(sim, clients, 10)
    sim.run(until=0.5)
    assert all(node.executed_count == 0 for node in nodes[1:])
    # The recovery mechanism (view change) unblocks the system.
    for node in nodes[1:]:
        node.engine.start_view_change()
    sim.run(until=1.5)
    assert all(node.executed_count == 10 for node in nodes[1:])
