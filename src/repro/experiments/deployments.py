"""Deployment assembly: one call stands up any registered protocol.

:func:`deploy` is the entry point both the test suite and the benchmark
harness use, so every experiment runs against identically wired
hardware: the protocol registry says which node class and cluster
settings a variant needs, and nothing here branches on the protocol.

Clients attach in one of two ways: ``n_clients`` explodes that many
:class:`~repro.clients.openloop.OpenLoopClient` objects (the classic
path — every pre-existing seeded run), or a ``clients_factory`` builds
a single :class:`~repro.clients.population.ClientPopulation` carrying a
declared population of any size behind one port.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.clients import ClientPopulation, OpenLoopClient
from repro.common import Cluster, ClusterConfig, NullService, Service
from repro.net.network import LinkProfile
from repro.net.topology import Topology
from repro.protocols import registry as protocol_registry
from repro.sim import RngTree, Simulator

__all__ = ["Deployment", "deploy"]


@dataclass
class Deployment:
    """A running cluster plus its client population."""

    sim: Simulator
    cluster: Cluster
    nodes: list
    clients: List[OpenLoopClient]
    rng: RngTree
    #: set when clients aggregate into one population event source;
    #: ``clients`` is empty in that case.
    population: Optional[ClientPopulation] = None

    def node(self, index: int):
        return self.nodes[index]

    def client_units(self) -> list:
        """The load-bearing client objects: the population, or the pool."""
        return [self.population] if self.population is not None else self.clients

    def total_executed(self) -> int:
        """Executed requests as counted by node0 (a correct node)."""
        return self.nodes[0].executed_count

    def total_completed(self) -> int:
        return sum(unit.completed for unit in self.client_units())


def deploy(
    protocol: str,
    config,
    *,
    n_clients: int = 10,
    payload: int = 8,
    service_factory: Callable[[], Service] = NullService,
    seed: int = 0,
    link: Optional[LinkProfile] = None,
    topology: Optional[Topology] = None,
    clients_factory: Optional[Callable[[Cluster, int], ClientPopulation]] = None,
) -> Deployment:
    """Stand up ``config``'s cluster for the registered variant ``protocol``.

    The registry entry supplies the node class and the cluster settings
    (``f``, transport, NICs, cores); every variant is then wired the
    same way, in one order: simulator, cluster, one node per machine,
    clients, the seeded :class:`~repro.sim.RngTree`.
    """
    spec = protocol_registry.get(protocol)
    sim = Simulator()
    settings = dict(spec.cluster(config), seed=seed, topology=topology)
    if link is not None:
        settings["link"] = link
    cluster = Cluster(sim, ClusterConfig(**settings))
    nodes = [
        spec.node_factory(machine, config, service_factory())
        for machine in cluster.machines
    ]
    clients, population = [], None
    if clients_factory is not None:
        population = clients_factory(cluster, payload)
    else:
        clients = [
            OpenLoopClient(cluster, "client%d" % i, payload_size=payload)
            for i in range(n_clients)
        ]
    return Deployment(sim, cluster, nodes, clients, RngTree(seed), population)
