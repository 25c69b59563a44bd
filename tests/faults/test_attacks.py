"""Mechanism tests for the attack installers.

These verify that each installer wires the right malicious behaviour —
the quantitative effects are covered by the benchmark harness.
"""

import pytest

from repro.experiments import QUICK, make_deployment
from repro.faults import (
    install_aardvark_attack,
    install_prime_attack,
    install_rbft_worst_attack_1,
    install_rbft_worst_attack_2,
    install_spinning_attack,
    install_unfair_primary,
)


def test_prime_attack_installs_period_override_and_heavy_client():
    dep = make_deployment("prime", 8, QUICK)
    heavy = install_prime_attack(dep, heavy_rate=100.0)
    assert dep.nodes[0].ordering_period_fn is not None
    # The malicious period tracks the (inflatable) acceptable delay.
    dep.nodes[0].batch_exec_estimate = 0.5
    assert dep.nodes[0].ordering_period_fn() >= 0.85 * 0.5
    dep.sim.run(until=0.1)
    assert heavy.client.sent >= 5
    heavy.stop()


def test_prime_heavy_requests_carry_heavy_exec_cost():
    dep = make_deployment("prime", 8, QUICK)
    heavy = install_prime_attack(dep, heavy_rate=100.0, heavy_exec_cost=1e-3)
    dep.sim.run(until=0.05)
    request = heavy.client.send_request(exec_cost=1e-3)
    assert request.exec_cost == 1e-3
    heavy.stop()


def test_aardvark_attack_paces_only_after_activation():
    dep = make_deployment("aardvark", 8, QUICK)
    install_aardvark_attack(dep, activate_after=0.5)
    engine = dep.nodes[0].engine

    class FakeMsg:
        items = (1, 2, 3)

    assert engine.preprepare_delay_fn(FakeMsg()) == 0.0  # before activation
    dep.sim.run(until=0.6)
    dep.nodes[0].history.append(1000.0)
    first = engine.preprepare_delay_fn(FakeMsg())
    second = engine.preprepare_delay_fn(FakeMsg())
    assert second > first  # pacing horizon advances


def test_spinning_attack_delay_just_below_stimeout():
    dep = make_deployment("spinning", 8, QUICK)
    delay = install_spinning_attack(dep)
    s_timeout = dep.nodes[0].sconfig.s_timeout
    assert 0.5 * s_timeout < delay < s_timeout

    class FakeMsg:
        items = (1,)

    assert dep.nodes[0].engine.preprepare_delay_fn(FakeMsg()) == delay


def test_worst1_silences_master_replicas_only():
    dep = make_deployment("rbft", 8, QUICK)
    handle = install_rbft_worst_attack_1(dep)
    assert len(handle.faulty_nodes) == 1
    faulty = handle.faulty_nodes[0]
    assert faulty.name == "node3"  # not hosting any primary
    assert faulty.engines[0].silent  # master replica mute
    assert not faulty.engines[1].silent  # backup replica participates
    assert handle.client_send_kwargs == {"mac_invalid_for": ["node0"]}
    assert handle.flooders and all(f._running for f in handle.flooders)


def test_worst1_client_reuses_one_corrupted_tag():
    # Every worst-attack-1 request carries the same corruption, so the
    # client builds its tag once instead of once per request.
    dep = make_deployment("rbft", 8, QUICK)
    handle = install_rbft_worst_attack_1(dep)
    client = dep.clients[0]
    requests = [
        client.send_request(**handle.client_send_kwargs) for _ in range(3)
    ]
    tag = requests[0].authenticator
    assert all(request.authenticator is tag for request in requests)
    assert not tag.valid_for("node0") and tag.valid_for("node1")
    assert client.send_request(mac_invalid_for=["node1"]).authenticator != tag
    assert client.send_request().authenticator.valid_for("node0")


def test_worst1_f2_picks_non_primary_hosts():
    dep = make_deployment("rbft", 8, QUICK, f=2)
    handle = install_rbft_worst_attack_1(dep)
    names = {node.name for node in handle.faulty_nodes}
    assert names == {"node5", "node6"}  # primaries live on nodes 0..2


def test_worst2_leader_is_master_primary_host():
    dep = make_deployment("rbft", 8, QUICK)
    handle = install_rbft_worst_attack_2(dep)
    leader = handle.faulty_nodes[0]
    assert leader.name == "node0"
    assert leader.engines[0].preprepare_delay_fn is not None
    assert leader.engines[1].silent  # its backup replica is mute
    assert handle.pacer is not None
    assert handle.junk_clients


def test_worst2_f2_avoids_backup_primary_hosts():
    dep = make_deployment("rbft", 8, QUICK, f=2)
    handle = install_rbft_worst_attack_2(dep)
    names = [node.name for node in handle.faulty_nodes]
    assert names[0] == "node0"
    assert set(names[1:]).isdisjoint({"node1", "node2"})


def test_worst2_pacer_targets_delta_ratio():
    dep = make_deployment("rbft", 8, QUICK)
    handle = install_rbft_worst_attack_2(dep, margin=0.01)
    leader = handle.faulty_nodes[0]
    leader.monitor.last_rates = [0.0, 1000.0]
    target = handle.pacer.target_rate_fn()
    assert target == pytest.approx((leader.config.delta + 0.01) * 1000.0)


def test_unfair_primary_delays_only_the_victim():
    dep = make_deployment("rbft", 8, QUICK, n_clients=2)
    counter = install_unfair_primary(
        dep, "client0", lambda i: 5e-3 if i >= 2 else 0.0
    )
    for _ in range(4):
        dep.clients[0].send_request()
        dep.clients[1].send_request()
    dep.sim.run(until=0.5)
    assert counter["n"] == 4  # schedule consulted once per victim request
    # Both clients still complete everything (delay, not censorship).
    assert dep.clients[0].completed == 4
    assert dep.clients[1].completed == 4
    # The victim's later requests are visibly slower.
    v = dep.clients[0].latencies.samples
    o = dep.clients[1].latencies.samples
    assert max(v) > max(o) + 3e-3
