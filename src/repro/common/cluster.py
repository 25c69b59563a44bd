"""Physical cluster wiring: machines, NICs, channels, client ports.

This mirrors the paper's testbed (§V, §VI-A): ``n = 3f + 1`` machines,
each with eight cores and — when ``separate_nics`` is on, as in Aardvark
and RBFT — one NIC per other node plus one NIC for all client traffic.
Protocols attach an actor to each machine by setting its handler; load
generators attach :class:`ClientPort` objects.

Every protocol harness in :mod:`repro.protocols` and :mod:`repro.core`
builds on this module, so the fault-free and under-attack runs of all
four protocols share identical hardware assumptions.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional

from repro.net.message import Message
from repro.net.network import GIGABIT_BPS, LAN, Channel, LinkProfile, Network
from repro.net.nic import NIC
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.resources import CoreSet
from repro.sim.rng import RngTree

from .quorum import SenderUniverse

__all__ = ["ClusterConfig", "Machine", "ClientPort", "Cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Hardware and transport parameters of a deployment."""

    f: int = 1
    cores_per_node: int = 8
    nic_bandwidth: float = GIGABIT_BPS
    link: LinkProfile = LAN
    tcp: bool = True
    separate_nics: bool = True
    seed: int = 0
    #: optional geo-distributed layout (see :mod:`repro.net.topology`):
    #: regions place machines/clients round-robin by index and channels
    #: take the region-pair profile instead of ``link``.  ``None`` (the
    #: default) wires the flat LAN exactly as before.
    topology: Optional[Topology] = None

    @property
    def n(self) -> int:
        """Number of nodes: 3f + 1, the lower bound (§II)."""
        return 3 * self.f + 1

    def with_(self, **changes) -> "ClusterConfig":
        return replace(self, **changes)


class Machine:
    """One physical node: cores plus its NICs.

    The protocol stack running on the machine registers a single
    ``handler``; the cluster routes every delivered message through it.
    """

    def __init__(self, cluster: "Cluster", index: int):
        config = cluster.config
        self.cluster = cluster
        self.index = index
        self.name = "node%d" % index
        sim = cluster.sim
        self.cores = CoreSet(sim, config.cores_per_node, self.name)
        # Region placement (None on a flat LAN): the region supplies the
        # machine's NIC bandwidth and names its location.
        topology = config.topology
        if topology is None:
            self.region_index: Optional[int] = None
            self.region: Optional[str] = None
            self._nic_bandwidth = config.nic_bandwidth
        else:
            self.region_index = topology.node_region_index(index)
            region = topology.regions[self.region_index]
            self.region = region.name
            self._nic_bandwidth = region.nic_bandwidth
        self.client_nic = NIC(sim, self.name + "/nic-clients", self._nic_bandwidth)
        self.peer_nics: Dict[str, NIC] = {}
        self._shared_nic: Optional[NIC] = None
        if not config.separate_nics:
            self._shared_nic = NIC(
                sim, self.name + "/nic-shared", self._nic_bandwidth
            )
            self.client_nic = self._shared_nic
        self._handler: Optional[Callable[[Message], None]] = None
        self._inbound: List[Channel] = []
        self.dropped_unrouted = 0
        self.channels_to_nodes: Dict[str, Channel] = {}
        self.channels_to_clients: Dict[str, Channel] = {}
        # The node topology is fixed once the cluster is wired, so the
        # broadcast fan-out list is materialised once on first use.
        self._broadcast_channels: Optional[List[Channel]] = None
        self._udp_multicast = self._shared_nic is not None and not config.tcp

    def nic_for_peer(self, peer: str) -> NIC:
        if self._shared_nic is not None:
            return self._shared_nic
        nic = self.peer_nics.get(peer)
        if nic is None:
            nic = NIC(
                self.cluster.sim,
                "%s/nic-%s" % (self.name, peer),
                self._nic_bandwidth,
            )
            self.peer_nics[peer] = nic
        return nic

    # ------------------------------------------------------------- messaging
    @property
    def handler(self) -> Optional[Callable[[Message], None]]:
        return self._handler

    @handler.setter
    def handler(self, fn: Optional[Callable[[Message], None]]) -> None:
        # Inbound channels deliver straight into the handler, skipping
        # the ``deliver`` indirection on every message; channels fall
        # back to ``deliver`` (which counts unrouted drops) while no
        # handler is attached.
        self._handler = fn
        target = self.deliver if fn is None else fn
        for channel in self._inbound:
            channel.handler = target

    def _register_inbound(self, channel: Channel) -> None:
        self._inbound.append(channel)
        if self._handler is not None:
            channel.handler = self._handler

    def deliver(self, msg: Message) -> None:
        if self._handler is None:
            self.dropped_unrouted += 1
        else:
            self._handler(msg)

    def send_to_node(self, dst: str, msg: Message) -> None:
        self.channels_to_nodes[dst].send(msg)

    def broadcast_to_nodes(self, msg: Message) -> None:
        """Send ``msg`` to every *other* node.

        With a shared NIC under UDP this is a true multicast (one
        transmission); with separate per-peer NICs the copies go out in
        parallel on independent links (one batched fan-out: the wire
        size is computed once for all of them).
        """
        channels = self._broadcast_channels
        if channels is None:
            channels = self._broadcast_channels = list(
                self.channels_to_nodes.values()
            )
        if self._udp_multicast:
            Network.multicast(channels, msg)
        else:
            Network.broadcast(channels, msg)

    def channel_to_client(self, client: str) -> Optional[Channel]:
        """Resolve the downlink for ``client``, aliasing population ids.

        Population identities ("pop0#42") share their owner port's
        channel.  The owner is resolved directly — *not* memoised per
        identity: a diurnal population samples up to a million distinct
        identities, and caching one dict entry per reply recipient once
        grew ``channels_to_clients`` without bound (the dict must stay
        O(#ports); the regression test pins this).  ``rewire`` replaces
        the channels, so no alias can outlive a topology change either.
        """
        channel = self.channels_to_clients.get(client)
        if channel is None and "#" in client:
            channel = self.channels_to_clients.get(client.partition("#")[0])
        return channel

    def send_to_client(self, client: str, msg: Message) -> None:
        channel = self.channel_to_client(client)
        if channel is None:
            raise KeyError(client)
        channel.send(msg)

    def __repr__(self) -> str:
        return "Machine(%s)" % self.name


class ClientPort:
    """A client's attachment point: one NIC plus channels to every node."""

    def __init__(
        self,
        cluster: "Cluster",
        name: str,
        region_index: Optional[int] = None,
    ):
        self.cluster = cluster
        self.name = name
        topology = cluster.config.topology
        if topology is None or region_index is None:
            self.region_index: Optional[int] = None
            self.region: Optional[str] = None
            nic_bandwidth = cluster.config.nic_bandwidth
        else:
            self.region_index = region_index
            region = topology.regions[region_index]
            self.region = region.name
            nic_bandwidth = region.nic_bandwidth
        self.nic = NIC(cluster.sim, name + "/nic", nic_bandwidth)
        self._handler: Optional[Callable[[Message], None]] = None
        self._inbound: List[Channel] = []
        self.channels_to_nodes: Dict[str, Channel] = {}
        self.dropped_unrouted = 0
        self._broadcast_channels: Optional[List[Channel]] = None

    @property
    def handler(self) -> Optional[Callable[[Message], None]]:
        return self._handler

    @handler.setter
    def handler(self, fn: Optional[Callable[[Message], None]]) -> None:
        self._handler = fn
        target = self.deliver if fn is None else fn
        for channel in self._inbound:
            channel.handler = target

    def _register_inbound(self, channel: Channel) -> None:
        self._inbound.append(channel)
        if self._handler is not None:
            channel.handler = self._handler

    def deliver(self, msg: Message) -> None:
        if self._handler is None:
            self.dropped_unrouted += 1
        else:
            self._handler(msg)

    def send_to_node(self, dst: str, msg: Message) -> None:
        self.channels_to_nodes[dst].send(msg)

    def broadcast(self, msg: Message) -> None:
        """Send to every node (single multicast transmission under UDP)."""
        channels = self._broadcast_channels
        if channels is None:
            channels = self._broadcast_channels = list(
                self.channels_to_nodes.values()
            )
        if not self.cluster.config.tcp:
            Network.multicast(channels, msg)
        else:
            Network.broadcast(channels, msg)


class Cluster:
    """n machines plus any number of client ports, fully wired."""

    def __init__(self, sim: Simulator, config: ClusterConfig = ClusterConfig()):
        self.sim = sim
        self.config = config
        self.rng = RngTree(config.seed)
        self.network = Network(sim, self.rng.stream("network"))
        #: one sender → bit interning shared by every vote tracker of
        #: this deployment (see :class:`repro.common.quorum.SenderUniverse`).
        self.senders = SenderUniverse()
        self._pair_profiles = (
            None if config.topology is None else config.topology.pair_profiles()
        )
        self.machines: List[Machine] = [Machine(self, i) for i in range(config.n)]
        self.clients: Dict[str, ClientPort] = {}
        self._wire_nodes()

    def _link_between(self, src_region, dst_region) -> LinkProfile:
        """The profile for a channel between two placed endpoints."""
        if self._pair_profiles is None or src_region is None or dst_region is None:
            return self.config.link
        return self._pair_profiles[src_region][dst_region]

    def _wire_nodes(self) -> None:
        """Create the n × (n-1) node-to-node channels."""
        for src in self.machines:
            for dst in self.machines:
                if src is dst:
                    continue
                channel = self.network.connect(
                    src.name,
                    dst.name,
                    src.nic_for_peer(dst.name),
                    dst.nic_for_peer(src.name),
                    dst.deliver,
                    profile=self._link_between(src.region_index, dst.region_index),
                    tcp=self.config.tcp,
                )
                src.channels_to_nodes[dst.name] = channel
                dst._register_inbound(channel)

    # --------------------------------------------------------------- helpers
    @property
    def f(self) -> int:
        return self.config.f

    @property
    def n(self) -> int:
        return self.config.n

    def machine(self, name: str) -> Machine:
        return self.machines[int(name.replace("node", ""))]

    def node_names(self) -> List[str]:
        return [machine.name for machine in self.machines]

    def add_client(self, name: str) -> ClientPort:
        if name in self.clients:
            raise ValueError("client %r already attached" % name)
        if "#" in name:
            # "#" separates a population name from its identity index
            # ("pop0#42"); a literal port under such a name would
            # shadow the alias resolution in ``channel_to_client``.
            raise ValueError("client name %r may not contain '#'" % name)
        region_index = None
        if self.config.topology is not None:
            region_index = self.config.topology.client_region_index(
                len(self.clients)
            )
        port = ClientPort(self, name, region_index=region_index)
        self._wire_client(port)
        self.clients[name] = port
        return port

    def _wire_client(self, port: ClientPort) -> None:
        """Create the 2 × n channels between one client port and the nodes."""
        name = port.name
        for machine in self.machines:
            up = self.network.connect(
                name,
                machine.name,
                port.nic,
                machine.client_nic,
                machine.deliver,
                profile=self._link_between(port.region_index, machine.region_index),
                tcp=self.config.tcp,
            )
            port.channels_to_nodes[machine.name] = up
            machine._register_inbound(up)
            down = self.network.connect(
                machine.name,
                name,
                machine.client_nic,
                port.nic,
                port.deliver,
                profile=self._link_between(machine.region_index, port.region_index),
                tcp=self.config.tcp,
            )
            machine.channels_to_clients[name] = down
            port._register_inbound(down)

    # ------------------------------------------------------------- rewiring
    def rewire(self, topology: Optional[Topology]) -> None:
        """Re-bind every channel to a new topology's link profiles.

        Channel profile scalars are hoisted into slots at construction,
        so rebinding means **new** Channel objects for every node pair
        and client attachment.  Everything that cached the old objects
        must be invalidated here — the lazily materialised broadcast
        fan-out lists (``_broadcast_channels``), the per-destination
        channel dicts and the ``_inbound`` registration lists — or a
        later ``broadcast_to_nodes`` would keep sending on the stale,
        disconnected channels of the previous wiring (the bug this
        method's regression test pins).

        NIC objects survive (their queues carry history); only their
        bandwidth is updated when the new region says so.  ``rewire``
        draws no randomness, so it never perturbs the RNG stream.
        """
        self.config = self.config.with_(topology=topology)
        self._pair_profiles = (
            None if topology is None else topology.pair_profiles()
        )
        for machine in self.machines:
            if topology is None:
                machine.region_index = None
                machine.region = None
                machine._nic_bandwidth = self.config.nic_bandwidth
            else:
                machine.region_index = topology.node_region_index(machine.index)
                region = topology.regions[machine.region_index]
                machine.region = region.name
                machine._nic_bandwidth = region.nic_bandwidth
            machine.client_nic.bandwidth = machine._nic_bandwidth
            for nic in machine.peer_nics.values():
                nic.bandwidth = machine._nic_bandwidth
            if machine._shared_nic is not None:
                machine._shared_nic.bandwidth = machine._nic_bandwidth
            # Cache invalidation: drop every reference to the old
            # Channel objects before re-wiring.
            machine.channels_to_nodes.clear()
            machine.channels_to_clients.clear()
            machine._inbound.clear()
            machine._broadcast_channels = None
        for index, port in enumerate(self.clients.values()):
            if topology is None:
                port.region_index = None
                port.region = None
                port.nic.bandwidth = self.config.nic_bandwidth
            else:
                port.region_index = topology.client_region_index(index)
                region = topology.regions[port.region_index]
                port.region = region.name
                port.nic.bandwidth = region.nic_bandwidth
            port.channels_to_nodes.clear()
            port._inbound.clear()
            port._broadcast_channels = None
        self.network.channels.clear()
        self._wire_nodes()
        for port in self.clients.values():
            self._wire_client(port)
