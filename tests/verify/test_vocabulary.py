"""Unit tests of the fault vocabulary, plans and the interceptor."""

import random

import pytest

from repro.core import RBFTConfig
from repro.experiments import SMOKE, make_deployment
from repro.experiments import deploy
from repro.verify import NetworkInterceptor, Rule, fault, install_plan
from repro.verify.vocabulary import FAULT_KINDS, FaultSpec


def build(seed=1):
    config = RBFTConfig(
        f=1, batch_size=8, batch_delay=1e-3, monitoring_period=0.1,
        min_monitor_requests=10, flood_threshold=32,
    )
    return deploy("rbft", config, n_clients=6, seed=seed)


def test_unknown_fault_kind_is_rejected():
    with pytest.raises(ValueError):
        fault("meteor-strike")


def test_fault_spec_round_trips_through_dict():
    spec = fault("crash", node=2, at=0.3, until=0.9)
    assert FaultSpec.from_dict(spec.to_dict()) == spec


def test_every_vocabulary_kind_installs():
    for kind in FAULT_KINDS:
        handle = install_plan(build(), (fault(kind),))
        assert handle is not None, kind


def test_expect_complete_reflects_the_fault_model():
    # In-model Byzantine faults keep the completion claim ...
    assert install_plan(build(), ()).expect_complete
    assert install_plan(build(), (fault("silent-replicas"),)).expect_complete
    assert install_plan(build(), (fault("junk-clients"),)).expect_complete
    # ... network faults legitimately stall in-flight requests ...
    assert not install_plan(build(), (fault("crash"),)).expect_complete
    assert not install_plan(build(), (fault("partition"),)).expect_complete
    # ... and so does corrupting more than f nodes.
    both = (fault("rbft-worst1"), fault("rbft-worst2"))
    handle = install_plan(build(), both)
    assert len(handle.faulty) > 1
    assert not handle.expect_complete


def test_installers_classify_faulty_nodes():
    handle = install_plan(build(), (fault("silent-replicas", node=2),))
    assert handle.faulty == {"node2"}
    handle = install_plan(build(), (fault("throttled-master"),))
    assert handle.faulty == {"node0"}
    handle = install_plan(build(), (fault("junk-clients"),))
    assert handle.faulty == set()


# --------------------------------------------------------------- interceptor
def test_rule_endpoint_matching():
    rule = Rule("drop", src=frozenset({"a"}), dst=None)
    assert rule.matches_endpoints("a", "x")
    assert not rule.matches_endpoints("b", "x")
    wildcard = Rule("drop")
    assert wildcard.matches_endpoints("anything", "at-all")


def test_isolate_and_partition_expand_to_drop_rules():
    dep = build()
    interceptor = NetworkInterceptor(dep, rng=random.Random(0))
    interceptor.isolate("node3", start=0.1, until=0.9)
    assert len(interceptor.rules) == 2
    interceptor.partition([["node0", "node1"], ["node2", "node3"]])
    assert len(interceptor.rules) == 4  # + one drop per crossing direction
    assert all(channel.intercept is not None for channel in interceptor.channels)
    interceptor.uninstall()
    assert all(channel.intercept is None for channel in interceptor.channels)


def test_isolated_node_is_cut_off_for_the_window():
    dep = build()
    interceptor = NetworkInterceptor(dep).isolate("node3", until=10.0)
    victim = next(
        c for c in interceptor.channels if c.src == "node0" and c.dst == "node3"
    )
    outbound = next(
        c for c in interceptor.channels if c.src == "node3" and c.dst == "node0"
    )
    before = (victim.delivered, interceptor.dropped)
    # Drive the hook directly: messages in either direction vanish.
    victim.intercept(victim, _Probe())
    outbound.intercept(outbound, _Probe())
    dep.sim.run(until=1.0)
    assert victim.delivered == before[0]
    assert interceptor.dropped == before[1] + 2


def test_rules_expire_outside_their_window():
    dep = build()
    interceptor = NetworkInterceptor(dep).isolate("node3", start=5.0, until=6.0)
    channel = next(
        c for c in interceptor.channels if c.src == "node0" and c.dst == "node3"
    )
    channel.intercept(channel, _Probe())  # t=0: before the window
    dep.sim.run(until=1.0)
    assert interceptor.dropped == 0
    assert channel.delivered == 1


def test_delay_rule_defers_delivery():
    dep = build()
    interceptor = NetworkInterceptor(dep).delay(0.25, src="node0", dst="node1")
    channel = next(
        c for c in interceptor.channels if c.src == "node0" and c.dst == "node1"
    )
    channel.intercept(channel, _Probe())
    dep.sim.run(until=0.2)
    assert channel.delivered == 0  # still in flight
    dep.sim.run(until=1.0)
    assert channel.delivered == 1
    assert interceptor.delayed == 1


def test_duplicate_rule_delivers_twice():
    dep = build()
    interceptor = NetworkInterceptor(dep).duplicate(src="node0", dst="node1")
    channel = next(
        c for c in interceptor.channels if c.src == "node0" and c.dst == "node1"
    )
    channel.intercept(channel, _Probe())
    dep.sim.run(until=1.0)
    assert channel.delivered == 2
    assert interceptor.duplicated == 1


@pytest.mark.parametrize("protocol", ["spinning", "rbft-udp"])
def test_isolate_covers_udp_multicast(protocol):
    # Spinning's node broadcasts and every UDP client broadcast go out
    # as one multicast transmission; the hook must still see each copy.
    dep = make_deployment(protocol, f=1, scale=SMOKE, n_clients=2)
    interceptor = NetworkInterceptor(dep).isolate("node1")
    for client in dep.clients:
        client.send_request()
    dep.sim.run(until=0.05)
    into_node1 = [c for c in interceptor.channels if c.dst == "node1"]
    assert sum(c.delivered for c in into_node1) == 0
    assert interceptor.dropped > 0


class _Probe:
    """Minimal message stand-in for driving the hook directly."""

    sender = "node0"

    def wire_size(self):
        return 64
