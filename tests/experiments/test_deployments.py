"""Tests for the deployment assembly (:func:`repro.experiments.deploy`)."""

import pytest

from repro.clients import ClientPopulation, LoadGenerator, build_profile
from repro.core import RBFTConfig
from repro.experiments import SMOKE, deploy
from repro.net.topology import named
from repro.protocols import registry
from repro.protocols.base import NodeConfig
from repro.protocols.prime import PrimeConfig
from repro.protocols.spinning import SpinningConfig


def test_rbft_deployment_shape():
    dep = deploy("rbft", RBFTConfig(f=1), n_clients=3)
    assert len(dep.nodes) == 4
    assert len(dep.clients) == 3
    assert all(len(node.engines) == 2 for node in dep.nodes)
    assert dep.cluster.config.tcp


def test_rbft_udp_deployment():
    dep = deploy("rbft-udp", RBFTConfig(f=1))
    assert not dep.cluster.config.tcp


def test_spinning_uses_udp_shared_nic():
    dep = deploy("spinning", SpinningConfig())
    assert not dep.cluster.config.tcp
    assert not dep.cluster.config.separate_nics


def test_aardvark_and_pbft_use_tcp_separate_nics():
    aardvark = registry.get("aardvark").config_factory(1, SMOKE)
    for dep in (deploy("aardvark", aardvark), deploy("pbft", NodeConfig())):
        assert dep.cluster.config.tcp
        assert dep.cluster.config.separate_nics


def test_prime_deployment():
    dep = deploy("prime", PrimeConfig(), n_clients=2)
    assert len(dep.nodes) == 4
    assert dep.nodes[0].is_primary


def test_deployment_helpers():
    dep = deploy("pbft", NodeConfig(), n_clients=2)
    assert dep.node(1).name == "node1"
    assert dep.total_executed() == 0
    assert dep.total_completed() == 0


def test_seed_controls_rng():
    def first(seed):
        return deploy("pbft", NodeConfig(), seed=seed).rng.stream("x").random()

    assert first(1) == first(1) != first(2)


def test_clients_have_requested_payload():
    dep = deploy("rbft", RBFTConfig(f=1), n_clients=1, payload=2048)
    request = dep.clients[0].send_request()
    assert request.payload_size == 2048


@pytest.mark.parametrize("protocol", registry.names())
def test_cluster_size_follows_the_config(protocol):
    # Every variant reads f from its own config, so an f = 2 config
    # stands up 7 machines whatever field holds it.
    dep = deploy(protocol, registry.get(protocol).config_factory(2, SMOKE))
    assert dep.cluster.config.f == 2
    assert len(dep.nodes) == 7


# ------------------------------------- one assembly ≡ the five old builders
def _population(cluster, payload):
    return ClientPopulation(cluster, 1000, payload_size=payload)


_CLIENTS = ["client0", "client1", "client2", "client3"]
_LAN = (1, True, True, 8, None)

#: (protocol, deploy extras, node class, ClusterConfig (f, tcp,
#: separate_nics, cores_per_node, topology), client names,
#: (sim.dispatched, completed) after a 0.05 s seeded drive) — recorded
#: from the per-protocol ``build_*`` builders this assembly replaced.
EQUIVALENCE = [
    ("rbft", {}, "RBFTNode", _LAN, _CLIENTS, (14949, 190)),
    ("rbft-udp", {}, "RBFTNode", (1, False, True, 8, None), _CLIENTS, (14951, 190)),
    ("rbft-full-order", {}, "RBFTNode", _LAN, _CLIENTS, (14949, 190)),
    ("aardvark", {}, "AardvarkNode", _LAN, _CLIENTS, (6370, 190)),
    ("aardvark-no-vc", {}, "AardvarkNode", _LAN, _CLIENTS, (6370, 190)),
    ("spinning", {}, "SpinningNode", (1, False, False, 8, None), _CLIENTS, (5506, 190)),
    ("prime", {}, "PrimeNode", _LAN, _CLIENTS, (5604, 153)),
    ("pbft", {}, "BftNode", _LAN, _CLIENTS, (6366, 190)),
    ("rbft", {"topology": "wan3"}, "RBFTNode", (1, True, True, 8, "wan3"),
     _CLIENTS, (263, 0)),
    ("rbft", {"clients_factory": _population}, "RBFTNode", _LAN, [], (14949, 190)),
]


def test_equivalence_covers_every_registered_variant():
    assert {row[0] for row in EQUIVALENCE} == set(registry.names())


@pytest.mark.parametrize(
    "protocol, extras, node_class, cluster, clients, drive",
    EQUIVALENCE,
    ids=["-".join([row[0], *row[1]]) for row in EQUIVALENCE],
)
def test_deploy_matches_the_per_protocol_builders(
    protocol, extras, node_class, cluster, clients, drive
):
    kwargs = dict(extras)
    if "topology" in kwargs:
        kwargs["topology"] = named(kwargs["topology"])
    config = registry.get(protocol).config_factory(1, SMOKE)
    dep = deploy(protocol, config, n_clients=4, seed=3, **kwargs)
    assert type(dep.nodes[0]).__name__ == node_class
    c = dep.cluster.config
    assert (c.f, c.tcp, c.separate_nics, c.cores_per_node) == cluster[:4]
    assert c.topology == (named(cluster[4]) if cluster[4] else None)
    assert [client.name for client in dep.clients] == clients
    assert dep.rng.stream("load").random() == 0.4999279135881901
    generator = LoadGenerator(
        dep.sim,
        dep.population if dep.population is not None else dep.clients,
        build_profile("static", 4000.0, 0.05),
        dep.rng.stream("load"),
    )
    generator.start()
    dep.sim.run(until=0.05)
    assert (dep.sim.dispatched, generator.total_completed()) == drive

