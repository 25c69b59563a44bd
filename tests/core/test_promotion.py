"""Tests for best-backup master promotion (§IV-A future work)."""


from repro.clients import LoadGenerator, static_profile
from repro.core import RBFTConfig
from repro.experiments import deploy
from repro.faults import BatchPacer


def build(promote=True, **overrides):
    defaults = dict(
        f=1,
        batch_size=8,
        batch_delay=1e-3,
        monitoring_period=0.1,
        delta=0.9,
        min_monitor_requests=10,
        promote_best_backup=promote,
    )
    defaults.update(overrides)
    return deploy("rbft", RBFTConfig(**defaults), n_clients=4)


def throttle_master(dep, rate=300.0):
    pacer = BatchPacer(dep.sim, lambda: rate)
    dep.nodes[0].engines[0].preprepare_delay_fn = lambda msg: pacer.delay_for(
        len(msg.items)
    )


def load(dep, rate=3000.0, duration=1.5):
    generator = LoadGenerator(
        dep.sim, dep.clients, static_profile(rate, duration), dep.rng.stream("load")
    )
    generator.start()
    return generator


def test_promotion_switches_master_to_fastest_backup():
    dep = build(promote=True)
    throttle_master(dep)
    generator = load(dep)
    dep.sim.run(until=1.5)
    # The slow master was replaced by the backup instance (instance 1).
    assert all(node.instance_changes >= 1 for node in dep.nodes)
    assert all(node.master_instance == 1 for node in dep.nodes)
    assert all(node.monitor.master == 1 for node in dep.nodes)
    # Execution keeps flowing after the switch.
    assert generator.total_completed() >= 0.9 * generator.total_sent()


def test_without_promotion_master_stays_instance_zero():
    dep = build(promote=False)
    throttle_master(dep)
    load(dep)
    dep.sim.run(until=1.5)
    assert all(node.instance_changes >= 1 for node in dep.nodes)
    assert all(node.master_instance == 0 for node in dep.nodes)


def test_promotion_preserves_executed_set():
    dep = build(promote=True)
    throttle_master(dep)
    generator = load(dep, rate=2000.0, duration=1.0)
    dep.sim.run(until=2.0)
    sent = generator.total_sent()
    # Nothing is lost or duplicated across the switch.
    for node in dep.nodes:
        assert node.executed_count == len(node.executed_ids)
        assert node.executed_count == sent
    assert generator.total_completed() == sent


def test_promotion_replays_new_masters_backlog():
    """Requests ordered by the backup but not yet by the throttled master
    must execute right after the switch, not be dropped."""
    dep = build(promote=True)
    throttle_master(dep, rate=100.0)  # severe throttle: big backlog gap
    generator = load(dep, rate=2000.0, duration=0.8)
    dep.sim.run(until=2.5)
    assert all(node.master_instance == 1 for node in dep.nodes)
    assert generator.total_completed() == generator.total_sent()


def test_nodes_agree_on_new_master():
    dep = build(promote=True)
    throttle_master(dep)
    load(dep)
    dep.sim.run(until=1.5)
    masters = {node.master_instance for node in dep.nodes}
    assert len(masters) == 1


def test_fault_free_promotion_never_fires():
    dep = build(promote=True)
    generator = load(dep, rate=2000.0, duration=1.0)
    dep.sim.run(until=1.2)
    assert all(node.instance_changes == 0 for node in dep.nodes)
    assert all(node.master_instance == 0 for node in dep.nodes)
    assert generator.total_completed() >= 0.98 * generator.total_sent()
