"""Tests for closed-loop clients."""


from repro.clients.closedloop import ClosedLoopClient
from repro.core import RBFTConfig
from repro.experiments import deploy


def build(think_time=0.0, n=2):
    config = RBFTConfig(f=1, batch_size=4, batch_delay=2e-4)
    dep = deploy("rbft", config, n_clients=0)
    clients = [
        ClosedLoopClient(dep.cluster, "client%d" % i, think_time=think_time)
        for i in range(n)
    ]
    return dep, clients


def test_one_outstanding_request_at_a_time():
    dep, clients = build()
    client = clients[0]
    client.start()
    samples = []

    def sample():
        samples.append(client.outstanding)
        dep.sim.call_after(1e-3, sample)

    dep.sim.call_after(1e-3, sample)
    dep.sim.run(until=0.1)
    assert client.completed > 10
    assert all(outstanding <= 1 for outstanding in samples)


def test_think_time_paces_the_loop():
    dep, clients = build(think_time=10e-3)
    client = clients[0]
    client.start()
    dep.sim.run(until=0.5)
    # Roughly one request per (latency + think time) ~= 11-12 ms.
    assert 25 <= client.completed <= 60


def test_stop_ends_the_loop():
    dep, clients = build()
    client = clients[0]
    client.start()
    dep.sim.run(until=0.05)
    client.stop()
    done = client.completed
    dep.sim.run(until=0.3)
    assert client.sent <= done + 1


def test_closed_loop_rate_tracks_service_latency():
    """The defining property: slower service => slower arrivals."""
    results = {}
    for delay in (0.0, 5e-3):
        dep, clients = build()
        if delay:
            # The master primary delays every batch: latency rises.
            dep.nodes[0].engines[0].preprepare_delay_fn = lambda msg: delay
        for client in clients:
            client.start()
        dep.sim.run(until=0.5)
        results[delay] = sum(client.completed for client in clients)
    assert results[5e-3] < 0.5 * results[0.0]


def test_closed_loop_blinds_rbft_monitoring():
    """§I: backup instances are never faster than the master in a closed
    loop, so the Δ ratio cannot expose a delaying master primary."""
    config = RBFTConfig(f=1, batch_size=4, batch_delay=2e-4,
                        monitoring_period=0.1, min_monitor_requests=5)
    dep = deploy("rbft", config, n_clients=0)
    clients = [
        ClosedLoopClient(dep.cluster, "client%d" % i) for i in range(4)
    ]
    # A malicious master primary delays every batch by 5 ms — an attack
    # the open-loop monitoring catches easily (see the Δ tests).
    dep.nodes[0].engines[0].preprepare_delay_fn = lambda msg: 5e-3
    for client in clients:
        client.start()
    dep.sim.run(until=1.5)
    observer = dep.nodes[1]
    # Throughput is crushed ...
    assert sum(c.completed for c in clients) < 1500
    # ... yet the monitoring never saw a ratio violation: the arrival
    # process itself was throttled, so the backups starved equally.
    assert observer.instance_changes == 0
    reasons = [r for _, r in observer.monitor.triggers]
    assert "throughput-delta" not in reasons
