"""Tests for flooding attackers and the NIC-closing defence."""


from repro.core import RBFTConfig
from repro.experiments import deploy
from repro.faults import MAX_FLOOD_SIZE, Flooder


def build(flood_threshold=32, flood_window=0.5):
    config = RBFTConfig(
        f=1, flood_threshold=flood_threshold, flood_window=flood_window,
        nic_close_duration=1.0,
    )
    return deploy("rbft", config, n_clients=1)


def test_flooder_sends_to_all_victims():
    dep = build()
    flooder = Flooder(dep.cluster.machines[3], ["node0", "node1"], rate=1000)
    flooder.start()
    dep.sim.run(until=0.1)
    assert flooder.sent >= 150  # ~100 per victim


def test_flood_above_threshold_closes_nic():
    dep = build(flood_threshold=16)
    flooder = Flooder(dep.cluster.machines[3], ["node0"], rate=2000)
    flooder.start()
    dep.sim.run(until=0.2)
    assert dep.nodes[0].nics_closed >= 1
    assert dep.nodes[0].machine.peer_nics["node3"].closed


def test_flood_below_threshold_keeps_nic_open():
    dep = build(flood_threshold=1000, flood_window=0.1)
    flooder = Flooder(dep.cluster.machines[3], ["node0"], rate=100)
    flooder.start()
    dep.sim.run(until=0.3)
    assert dep.nodes[0].nics_closed == 0
    assert not dep.nodes[0].machine.peer_nics["node3"].closed


def test_nic_reopens_after_close_duration():
    dep = build(flood_threshold=8)
    flooder = Flooder(dep.cluster.machines[3], ["node0"], rate=5000)
    flooder.start()
    dep.sim.run(until=0.05)
    assert dep.nodes[0].machine.peer_nics["node3"].closed
    flooder.stop()
    dep.sim.run(until=2.0)  # nic_close_duration = 1.0
    assert not dep.nodes[0].machine.peer_nics["node3"].closed


def test_flood_costs_victim_cpu_until_closed():
    dep = build(flood_threshold=10_000)  # never closes
    victim = dep.nodes[0]
    busy_before = victim.propagation_core.busy_time
    flooder = Flooder(dep.cluster.machines[3], ["node0"], rate=2000)
    flooder.start()
    dep.sim.run(until=0.5)
    assert victim.propagation_core.busy_time > busy_before


def test_flood_messages_are_maximal_size():
    assert MAX_FLOOD_SIZE >= 9000
    from repro.core.messages import FloodMsg

    assert FloodMsg("node3", MAX_FLOOD_SIZE).wire_size() == MAX_FLOOD_SIZE


def test_stopped_flooder_goes_quiet():
    dep = build()
    flooder = Flooder(dep.cluster.machines[3], ["node0"], rate=1000)
    flooder.start()
    dep.sim.run(until=0.05)
    sent = flooder.sent
    flooder.stop()
    dep.sim.run(until=0.5)
    assert flooder.sent <= sent + 1  # at most the in-flight iteration
