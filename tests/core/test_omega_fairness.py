"""The Ω fairness check, end to end (§IV-C).

Fig. 12's experiment deliberately disables Ω (the paper "sets a high
value for Ω") and lets Λ make the catch.  Here we do the opposite: Λ is
loose, and the unfair master primary is caught because the victim's
average latency on the *master* instance exceeds its average on the
*backup* instance by more than Ω — the backup orders the same requests
through a different (fair) primary, so it provides the reference.
"""


from repro.core import RBFTConfig
from repro.experiments import deploy
from repro.faults import install_unfair_primary


def run(omega, delay=4e-3, requests=400):
    config = RBFTConfig(
        f=1,
        batch_size=4,
        batch_delay=2e-4,
        monitoring_period=0.2,
        lambda_max=10.0,  # Λ out of the picture
        omega=omega,
    )
    dep = deploy("rbft", config, n_clients=2, payload=1024)
    install_unfair_primary(dep, "client0", lambda i: delay)
    sim = dep.sim

    def client_loop(client):
        for _ in range(requests):
            client.send_request()
            yield sim.timeout(1.5e-3)

    for client in dep.clients:
        sim.process(client_loop(client))
    sim.run(until=requests * 1.5e-3 + 0.3)
    return dep


def test_omega_catches_per_client_master_backup_gap():
    dep = run(omega=1e-3)
    reasons = {r for node in dep.nodes for _, r in node.monitor.triggers}
    assert "latency-omega" in reasons
    assert all(node.instance_changes >= 1 for node in dep.nodes)


def test_loose_omega_lets_the_unfairness_stand():
    dep = run(omega=1.0)
    reasons = {r for node in dep.nodes for _, r in node.monitor.triggers}
    assert "latency-omega" not in reasons
    assert all(node.instance_changes == 0 for node in dep.nodes)


def test_fair_primary_never_trips_omega():
    config = RBFTConfig(
        f=1, batch_size=4, batch_delay=2e-4, monitoring_period=0.2,
        lambda_max=10.0, omega=1e-3,
    )
    dep = deploy("rbft", config, n_clients=2, payload=1024)
    sim = dep.sim

    def client_loop(client):
        for _ in range(300):
            client.send_request()
            yield sim.timeout(1.5e-3)

    for client in dep.clients:
        sim.process(client_loop(client))
    sim.run(until=0.8)
    reasons = {r for node in dep.nodes for _, r in node.monitor.triggers}
    assert "latency-omega" not in reasons
