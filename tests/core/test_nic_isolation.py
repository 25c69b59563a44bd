"""NIC separation (§V): client floods must not touch replica traffic.

Aardvark and RBFT dedicate one NIC to client traffic and one NIC per
other node.  A client-side flood can saturate the client NIC — delaying
other clients — but node-to-node bandwidth, and therefore the ordering
pipeline for already-admitted requests, is untouched.
"""


from repro.core import RBFTConfig
from repro.experiments import deploy


def test_client_flood_does_not_touch_peer_nics():
    dep = deploy("rbft", RBFTConfig(f=1, batch_size=4, batch_delay=5e-4), n_clients=2)
    node = dep.nodes[0]
    flooder, victim_client = dep.clients

    peer_rx_before = {
        peer: nic.bytes_rx for peer, nic in node.machine.peer_nics.items()
    }
    # The "client" floods node0 with large junk requests.
    for _ in range(200):
        flooder.send_request(
            payload_size=8000, mac_invalid_for=["node0"], targets=["node0"]
        )
    dep.sim.run(until=0.2)
    # The client NIC absorbed it all...
    assert node.machine.client_nic.bytes_rx > 200 * 8000
    # ...while the flood itself put nothing on the replica-facing NICs
    # (PROPAGATE traffic for real requests is the only growth allowed).
    for peer, before in peer_rx_before.items():
        grown = node.machine.peer_nics[peer].bytes_rx - before
        assert grown < 100_000  # no 1.6 MB of junk leaked across


def test_real_traffic_flows_while_client_nic_is_hammered():
    dep = deploy("rbft", RBFTConfig(f=1, batch_size=4, batch_delay=5e-4), n_clients=2)
    flooder, victim_client = dep.clients

    def flood():
        for _ in range(50):
            flooder.send_request(
                payload_size=8000,
                mac_invalid_for=["node0", "node1", "node2", "node3"],
            )
        dep.sim.call_after(5e-3, flood)

    flood()
    for i in range(10):
        dep.sim.call_after(i * 5e-3, victim_client.send_request)
    dep.sim.run(until=1.0)
    # The victim's requests complete despite the sustained junk stream.
    assert victim_client.completed == 10
