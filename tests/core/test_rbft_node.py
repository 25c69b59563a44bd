"""Integration tests of the RBFT node pipeline."""

import pytest

from repro.clients import LoadGenerator, static_profile
from repro.core import RBFTConfig
from repro.experiments import deploy


def small_config(f=1, **overrides):
    defaults = dict(
        f=f,
        batch_size=8,
        batch_delay=1e-3,
        monitoring_period=0.1,
    )
    defaults.update(overrides)
    return RBFTConfig(**defaults)


def drive(dep, count, gap=1e-4, **kwargs):
    for i in range(count):
        client = dep.clients[i % len(dep.clients)]
        dep.sim.call_after(i * gap, lambda c=client: c.send_request(**kwargs))


def test_single_request_executes_and_replies():
    dep = deploy("rbft", small_config(), n_clients=2)
    dep.clients[0].send_request()
    dep.sim.run(until=0.5)
    assert dep.clients[0].completed == 1
    assert all(node.executed_count == 1 for node in dep.nodes)


def test_stage_callbacks_are_bound_once():
    # A queued core job holds its callback: one bound method per node,
    # not one per job (see test_queued_job_memory_budget).
    from repro.protocols.base import ReplicaFront

    node = deploy("rbft", small_config(), n_clients=1).nodes[0]
    # The request front's callbacks (verification and execution) too.
    assert set(ReplicaFront._STAGE_CALLBACKS) <= set(node._STAGE_CALLBACKS)
    for name in node._STAGE_CALLBACKS:
        assert getattr(node, name) is getattr(node, name), name


def test_all_instances_order_every_request():
    dep = deploy("rbft", small_config(), n_clients=4)
    drive(dep, 40)
    dep.sim.run(until=1.0)
    for node in dep.nodes:
        for engine in node.engines:
            assert engine.ordered_items == 40


def test_only_master_instance_triggers_execution():
    dep = deploy("rbft", small_config(), n_clients=2)
    drive(dep, 10)
    dep.sim.run(until=1.0)
    assert all(node.executed_count == 10 for node in dep.nodes)
    # Requests were ordered twice (two instances) but executed once each.
    assert dep.clients[0].completed + dep.clients[1].completed == 10


def test_at_most_one_primary_per_node():
    for f in (1, 2):
        dep = deploy("rbft", small_config(f=f))
        for node in dep.nodes:
            primaries = [engine.is_primary for engine in node.engines]
            assert sum(primaries) <= 1


def test_f_plus_one_instances_run():
    dep = deploy("rbft", small_config(f=2))
    assert all(len(node.engines) == 3 for node in dep.nodes)
    assert len(dep.nodes) == 7


def test_identifier_ordering_not_full_requests():
    dep = deploy("rbft", small_config())
    assert all(
        not engine.config.full_payload
        for node in dep.nodes
        for engine in node.engines
    )


def test_request_needs_f_plus_one_propagates():
    """A request sent only to the master primary's node is still executed
    everywhere (the PROPAGATE phase disseminates it), and ordering waits
    for f+1 PROPAGATEs."""
    dep = deploy("rbft", small_config(), n_clients=1)
    dep.clients[0].send_request(targets=["node0"])
    dep.sim.run(until=0.5)
    assert all(node.executed_count == 1 for node in dep.nodes)


def test_monitoring_counts_per_instance_throughput():
    dep = deploy("rbft", small_config(monitoring_period=0.05), n_clients=4)
    gen = LoadGenerator(
        dep.sim,
        dep.clients,
        static_profile(2000, 0.5),
        dep.rng.stream("load"),
    )
    gen.start()
    dep.sim.run(until=0.5)
    node = dep.nodes[0]
    # Both instances show comparable throughput (Fig. 9 fault-free shape).
    master, backup = node.monitor.last_rates
    assert master > 500
    assert backup > 500
    assert abs(master - backup) / max(master, backup) < 0.25


def test_fault_free_run_has_no_instance_change():
    dep = deploy("rbft", small_config(monitoring_period=0.05), n_clients=4)
    gen = LoadGenerator(
        dep.sim, dep.clients, static_profile(2000, 0.5), dep.rng.stream("load")
    )
    gen.start()
    dep.sim.run(until=0.6)
    assert all(node.instance_changes == 0 for node in dep.nodes)
    assert gen.total_completed() >= 0.98 * gen.total_sent()


def test_instance_change_rotates_all_primaries():
    dep = deploy("rbft", small_config(), n_clients=2)
    drive(dep, 5)
    dep.sim.run(until=0.3)
    for node in dep.nodes:
        node.vote_instance_change("test")
    dep.sim.run(until=1.0)
    assert all(node.cpi == 1 for node in dep.nodes)
    for node in dep.nodes:
        assert all(engine.view == 1 for engine in node.engines)
        assert sum(engine.is_primary for engine in node.engines) <= 1
    # The system still works after the rotation.
    drive(dep, 5)
    dep.sim.run(until=2.0)
    assert all(node.executed_count == 10 for node in dep.nodes)


def test_slow_master_primary_detected_by_delta():
    """A master primary ordering well below the backups is evicted."""
    dep = deploy(
        "rbft",
        small_config(monitoring_period=0.1, delta=0.9, min_monitor_requests=10),
        n_clients=4,
    )
    # node0 hosts the master primary; it paces ordering far below the
    # backups (a constant per-batch delay would only add latency, since
    # batches pipeline).
    from repro.faults import BatchPacer

    pacer = BatchPacer(dep.sim, lambda: 300.0)
    dep.nodes[0].engines[0].preprepare_delay_fn = lambda msg: pacer.delay_for(
        len(msg.items)
    )
    gen = LoadGenerator(
        dep.sim, dep.clients, static_profile(3000, 1.5), dep.rng.stream("load")
    )
    gen.start()
    dep.sim.run(until=1.5)
    assert all(node.instance_changes >= 1 for node in dep.nodes[1:])
    reasons = [r for _, r in dep.nodes[1].monitor.triggers]
    assert "throughput-delta" in reasons


def test_lambda_latency_violation_triggers_instance_change():
    dep = deploy(
        "rbft", small_config(lambda_max=20e-3, monitoring_period=0.1), n_clients=2
    )
    dep.nodes[0].engines[0].preprepare_delay_fn = lambda msg: 100e-3
    dep.clients[0].send_request()
    dep.sim.run(until=1.0)
    assert any(
        reason == "latency-lambda"
        for node in dep.nodes
        for _, reason in node.monitor.triggers
    )
    assert all(node.instance_changes >= 1 for node in dep.nodes)


def test_flooding_node_gets_its_nic_closed():
    from repro.core.messages import FloodMsg

    dep = deploy("rbft", small_config(flood_threshold=16, flood_window=1.0))
    attacker = dep.cluster.machines[3]
    victim = dep.nodes[0]

    def flood():
        for _ in range(40):
            attacker.send_to_node("node0", FloodMsg("node3", 9000))

    dep.sim.call_after(0.01, flood)
    dep.sim.run(until=1.0)
    assert victim.nics_closed >= 1
    assert victim.machine.peer_nics["node3"].closed


def test_closed_nic_stops_charging_the_victim():
    from repro.core.messages import FloodMsg

    dep = deploy("rbft", small_config(flood_threshold=8, flood_window=1.0))
    attacker = dep.cluster.machines[3]
    victim = dep.nodes[0]
    for _ in range(20):
        attacker.send_to_node("node0", FloodMsg("node3", 9000))
    dep.sim.run(until=0.5)
    busy_after_close = victim.propagation_core.busy_time
    # Flood again: the NIC is closed, the victim pays nothing.
    for _ in range(200):
        attacker.send_to_node("node0", FloodMsg("node3", 9000))
    dep.sim.run(until=1.0)
    assert victim.propagation_core.busy_time == pytest.approx(busy_after_close)


def test_udp_deployment_works():
    dep = deploy("rbft-udp", small_config(), n_clients=2)
    drive(dep, 10)
    dep.sim.run(until=0.5)
    assert all(node.executed_count == 10 for node in dep.nodes)


def test_replica_with_a_different_result_keeps_its_own_reply():
    from repro.common import NullService

    class Diverging(NullService):
        def apply(self, request):
            return ("diverged", self.result_size)

    dep = deploy("rbft", small_config(), n_clients=1)
    odd = dep.nodes[3]
    odd.service = Diverging()
    client = dep.clients[0]
    client.send_request()
    dep.sim.run(until=0.3)
    assert client.completed == 1  # f + 1 matching replies still agree
    correct = [node.reply_cache[client.name] for node in dep.nodes[:3]]
    assert all(reply is correct[0] for reply in correct)
    own = odd.reply_cache[client.name]
    assert own.result == "diverged" and correct[0].result == "ok"
    assert own.request_id == correct[0].request_id


def replay_an_old_request(sim, nodes, client, until):
    """Execute 1 001 requests, then retransmit the first to every node.

    By then the per-client watermark has long absorbed rid 1 — the
    dedup must hold from the watermark exactly as it did from the set.
    """
    from repro.protocols.base import ClientRequestMsg

    first = client.send_request()
    for i in range(1, 1001):
        sim.call_after(i * 1e-4, client.send_request)
    sim.run(until=until)
    assert client.completed == 1001
    assert all(node.executed_count == 1001 for node in nodes)
    for node in nodes:
        assert first.request_id in node.executed_ids
        assert node.executed_ids.stored_entries() == 1
    client.port.broadcast(ClientRequestMsg(first))
    return first


def test_old_request_and_straggling_propagate_do_not_reexecute():
    from repro.core.messages import PropagateMsg
    from repro.crypto import MacAuthenticator

    dep = deploy("rbft", small_config(), n_clients=1)
    first = replay_an_old_request(dep.sim, dep.nodes, dep.clients[0], until=0.5)
    # ... and a faulty peer re-PROPAGATEs it to everyone for good measure.
    straggler = dep.nodes[3]
    straggler.machine.broadcast_to_nodes(
        PropagateMsg(straggler.name, first, MacAuthenticator.for_signer(straggler.name))
    )
    dep.sim.run(until=1.0)
    assert dep.clients[0].completed == 1001
    for node in dep.nodes:
        assert node.executed_count == 1001
        assert len(node.executed_ids) == 1001
        # Nothing was re-seeded: no vote, no verified body, no dispatch.
        assert first.request_id not in node._propagate_votes.keys()
        assert first.request_id not in node.ready_ids
        assert first.request_id not in node._propagated
        assert first.request_id not in node.request_store
        assert not node._sig_inflight
        assert all(engine.ordered_items == 1001 for engine in node.engines)


def test_f2_deployment_executes_requests():
    dep = deploy("rbft", small_config(f=2), n_clients=4)
    drive(dep, 20)
    dep.sim.run(until=1.0)
    assert all(node.executed_count == 20 for node in dep.nodes)


def test_f4_deployment_on_bigger_machines():
    """Beyond the paper's f<=2: 13 nodes, 5 instances, 16-core machines."""
    config = RBFTConfig(
        f=4, cores_per_machine=16, batch_size=8, batch_delay=1e-3,
        monitoring_period=0.1,
    )
    dep = deploy("rbft", config, n_clients=4)
    assert len(dep.nodes) == 13
    assert all(len(node.engines) == 5 for node in dep.nodes)
    drive(dep, 12)
    dep.sim.run(until=1.0)
    assert all(node.executed_count == 12 for node in dep.nodes)
