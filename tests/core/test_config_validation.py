"""RBFTConfig validation."""

import pytest

from repro.core import RBFTConfig
from repro.experiments import deploy
from repro.protocols.base import NodeConfig
from repro.protocols.pbft.engine import InstanceConfig


def test_defaults_are_valid():
    config = RBFTConfig()
    assert config.n == 4
    assert config.instances == 2
    assert config.master == 0


def test_f_zero_rejected():
    with pytest.raises(ValueError, match="f >= 1"):
        RBFTConfig(f=0)


def test_delta_bounds():
    with pytest.raises(ValueError, match="Δ"):
        RBFTConfig(delta=0.0)
    with pytest.raises(ValueError, match="Δ"):
        RBFTConfig(delta=1.5)
    RBFTConfig(delta=1.0)  # inclusive upper bound is fine


def test_latency_thresholds_must_be_positive():
    with pytest.raises(ValueError):
        RBFTConfig(lambda_max=0.0)
    with pytest.raises(ValueError):
        RBFTConfig(omega=-1.0)


def test_monitoring_period_positive():
    with pytest.raises(ValueError):
        RBFTConfig(monitoring_period=0.0)


def test_batch_size_positive():
    with pytest.raises(ValueError):
        RBFTConfig(batch_size=0)


#: knobs whose bad values used to surface mid-run, if at all: a zero
#: checkpoint interval divided by zero at the first executed batch, a
#: zero watermark window completed nothing without an error, and a
#: negative batch delay was caught only by the batcher at build time.
BROKEN_KNOBS = [
    ("batch_size", 0),
    ("batch_delay", -1.0),
    ("checkpoint_interval", 0),
    ("watermark_window", 0),
]


@pytest.mark.parametrize("config", [RBFTConfig, InstanceConfig])
@pytest.mark.parametrize("knob, value", BROKEN_KNOBS)
def test_knobs_that_break_a_run_are_rejected_at_construction(config, knob, value):
    with pytest.raises(ValueError, match=knob):
        config(**{knob: value})


SMALLEST_ACCEPTED = [
    ("batch_size", 1),
    ("batch_delay", 0.0),
    ("checkpoint_interval", 1),
    ("watermark_window", 1),
]


@pytest.mark.parametrize("knob, value", SMALLEST_ACCEPTED)
def test_smallest_accepted_knob_completes_requests(knob, value):
    InstanceConfig(**{knob: value})  # accepted by both configs
    dep = deploy("rbft", RBFTConfig(**{knob: value}), n_clients=2)
    for client in dep.clients:
        client.send_request()
    dep.sim.run(until=0.05)
    assert sum(client.completed for client in dep.clients) == 2


#: one batch per sequence number and room for one above the low
#: watermark: the second request's batch is above the window until the
#: first one's checkpoint stabilises.
FULL_WINDOW = dict(batch_size=1, watermark_window=1, checkpoint_interval=1)


@pytest.mark.parametrize("protocol, config", [
    ("rbft", RBFTConfig(**FULL_WINDOW)),
    ("pbft", NodeConfig(instance=InstanceConfig(**FULL_WINDOW))),
])
def test_a_batch_above_the_window_waits_for_the_window_to_move(protocol, config):
    # A primary used to propose it anyway; backups dropped the
    # pre-prepare and nothing re-sent it, so the second client stalled.
    dep = deploy(protocol, config, n_clients=2)
    for index, client in enumerate(dep.clients):
        dep.sim.call_at(index * 1e-4, client.send_request)
    dep.sim.run(until=0.1)
    assert [client.completed for client in dep.clients] == [1, 1]
    assert all(node.executed_count == 2 for node in dep.nodes)


def test_core_budget_enforced():
    # f=3 needs 4 + 4 = 8 cores: exactly fits the 8-core default.
    RBFTConfig(f=3)
    # f=4 needs 9: rejected on the paper's hardware.
    with pytest.raises(ValueError, match="cores"):
        RBFTConfig(f=4)
    # ...but allowed on a bigger simulated machine.
    RBFTConfig(f=4, cores_per_machine=16)


def test_instance_config_inherits_choices():
    config = RBFTConfig(f=2, batch_size=32, order_full_requests=True)
    instance = config.instance_config()
    assert instance.f == 2
    assert instance.batch_size == 32
    assert instance.full_payload
    assert not instance.auto_advance_view
