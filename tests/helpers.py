"""Shared builders for protocol-level tests, and the short ``PIN`` scale."""

from __future__ import annotations

from repro.common import Cluster, ClusterConfig, NullService
from repro.clients import OpenLoopClient
from repro.experiments import ScenarioScale
from repro.protocols.base import BftNode, NodeConfig
from repro.protocols.pbft.engine import InstanceConfig
from repro.sim import Simulator

#: A scale shorter than SMOKE on which figure paths are pinned: the
#: values in test_scenario.py were recorded from the hand-built
#: assemblies that preceded run(), so a drift in its assembly shows.
PIN = ScenarioScale(
    name="pin", duration=0.12, warmup=0.04, probe_duration=0.06,
    sizes=(8,), rate_points=2, monitoring_period=0.02,
    aardvark_grace=0.35, aardvark_period=0.05,
)


def build_pbft(
    f=1,
    clients=2,
    payload=8,
    batch_size=8,
    batch_delay=1e-3,
    exec_cost=20e-6,
    checkpoint_interval=64,
    seed=1,
    node_cls=BftNode,
    node_config=None,
    cluster_config=None,
):
    """A wired 3f+1-node cluster of ``node_cls`` plus open-loop clients."""
    sim = Simulator()
    cluster = Cluster(
        sim, cluster_config or ClusterConfig(f=f, seed=seed)
    )
    config = node_config or NodeConfig(
        instance=InstanceConfig(
            f=f,
            batch_size=batch_size,
            batch_delay=batch_delay,
            checkpoint_interval=checkpoint_interval,
        )
    )
    nodes = [
        node_cls(machine, config, NullService(exec_cost=exec_cost))
        for machine in cluster.machines
    ]
    ports = [
        OpenLoopClient(cluster, "client%d" % i, payload_size=payload)
        for i in range(clients)
    ]
    return sim, cluster, nodes, ports
