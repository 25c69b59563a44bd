"""Shared node machinery for the single-instance baseline protocols.

A :class:`BftNode` is one physical machine running one replica of a
PBFT-family protocol (Aardvark, Spinning, or plain PBFT).  It owns three
pinned cores, mirroring the multi-threaded implementations the paper
compares against:

* a **verification core** authenticating client requests,
* a **protocol core** running the three-phase ordering engine,
* an **execution core** applying ordered requests and emitting replies.

Subclasses configure how client requests are authenticated (MACs only
for Spinning, MAC-then-signature for Aardvark) and add their robustness
mechanisms on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Tuple

from repro.common.cluster import Machine
from repro.common.executed import ExecutedIds
from repro.common.statemachine import Service
from repro.common.types import Reply, Request
from repro.crypto.blacklist import ClientBlacklist
from repro.crypto.costmodel import MAC_SIZE, MESSAGE_HEADER_SIZE, CryptoCostModel
from repro.crypto.primitives import Mac
from repro.net.message import Message

from .pbft.engine import InstanceConfig, OrderingInstance
from .pbft.messages import OrderingMessage

__all__ = ["ClientRequestMsg", "ReplyMsg", "NodeConfig", "ClientReplies", "BftNode"]


class ClientRequestMsg(Message):
    """A REQUEST on the wire (client → node)."""

    __slots__ = ("request",)

    def __init__(self, request: Request):
        self.sender = request.client
        self.request = request

    def wire_size(self) -> int:
        return self.request.wire_size()


class ReplyMsg(Message):
    """A REPLY on the wire (node → client), MAC-authenticated (step 6)."""

    __slots__ = ("reply", "mac")

    def __init__(self, reply: Reply, mac: Mac, sender: str):
        self.sender = sender
        self.reply = reply
        self.mac = mac

    def wire_size(self) -> int:
        return MESSAGE_HEADER_SIZE + self.reply.result_size + MAC_SIZE


@dataclass(frozen=True)
class NodeConfig:
    """Configuration shared by the baseline protocol nodes."""

    instance: InstanceConfig = field(default_factory=InstanceConfig)
    verify_request_signature: bool = True  # Aardvark hybrid; Spinning: False
    mac_only_requests: bool = False  # Spinning: requests carry MACs only
    costs: CryptoCostModel = field(default_factory=CryptoCostModel)

    @property
    def f(self) -> int:
        return self.instance.f

    @property
    def n(self) -> int:
        return self.instance.n


class ClientReplies:
    """Replies to clients from the node's one per-client table.

    ``executed_ids`` (:class:`ExecutedIds`) holds both what executed and
    each client's last reply, so a retransmission of the last request is
    answered from it.  The host class provides ``executed_ids``,
    ``machine``, ``name`` and ``_reply_mac``.
    """

    @property
    def reply_cache(self) -> Mapping[str, Reply]:
        """Read-only ``client -> last reply`` view of ``executed_ids``."""
        return self.executed_ids.replies()

    def _reply(self, reply: Reply) -> None:
        """Record ``reply`` as its client's last, then send it."""
        self.executed_ids.record_reply(reply)
        self._send_reply(reply)

    def _send_reply(self, reply: Reply) -> None:
        channel = self.machine.channel_to_client(reply.client)
        if channel is not None:
            channel.send(ReplyMsg(reply, self._reply_mac, self.name))

    def _resend_reply(self, request: Request) -> None:
        reply = self.executed_ids.reply_for(request)
        if reply is not None:
            self._send_reply(reply)


class BftNode(ClientReplies):
    """One machine running one replica (baseline protocols)."""

    def __init__(self, machine: Machine, config: NodeConfig, service: Service):
        self.machine = machine
        self.config = config
        self.costs = config.costs
        self.service = service
        self.name = machine.name
        sim = machine.cluster.sim
        self.sim = sim

        self.verification_core = machine.cores.allocate("verification")
        self.protocol_core = machine.cores.allocate("protocol")
        self.execution_core = machine.cores.allocate("execution")

        self.engine = OrderingInstance(
            sim,
            self.protocol_core,
            transport=self,
            config=config.instance,
            costs=self.costs,
            replica=self.name,
            instance=0,
            on_ordered=self._on_ordered,
            on_view_entered=self._on_view_entered,
            primary_offset=0,
            senders=machine.cluster.senders,
        )
        self.blacklist = ClientBlacklist()
        #: executed ids and each client's last reply, one table.
        self.executed_ids = ExecutedIds()
        self._reply_mac = Mac(self.name)
        self.executed_count = 0
        self.invalid_requests = 0
        machine.handler = self.on_network_message

    # ------------------------------------------------------- engine transport
    def broadcast(self, msg: OrderingMessage) -> None:
        self.machine.broadcast_to_nodes(msg)

    def send(self, replica: str, msg: OrderingMessage) -> None:
        self.machine.send_to_node(replica, msg)

    # ------------------------------------------------------------- routing
    def on_network_message(self, msg: Message) -> None:
        if isinstance(msg, ClientRequestMsg):
            self._receive_request(msg.request)
        elif isinstance(msg, OrderingMessage):
            self.engine.receive(msg)
        else:
            self.on_other_message(msg)

    def on_other_message(self, msg: Message) -> None:
        """Hook for protocol-specific extra messages (default: ignore)."""

    def _on_view_entered(self, view: int) -> None:
        """Hook: a new view was installed (default: no reaction)."""

    # ------------------------------------------------- request verification
    def _receive_request(self, request: Request) -> None:
        """Step 1: MAC check, then (per-protocol) signature check."""
        if self.blacklist.banned(request.client):
            return
        mac_cost = self.costs.authenticator_verify(request.wire_size())
        if self.config.mac_only_requests:
            self.verification_core.submit(mac_cost, self._after_mac_only, request)
            return
        self.verification_core.submit(mac_cost, self._after_mac, request)

    def _after_mac_only(self, request: Request) -> None:
        if not request.authenticator.valid_for(self.name):
            self.invalid_requests += 1
            return
        self.on_request_verified(request)

    def _after_mac(self, request: Request) -> None:
        if not request.authenticator.valid_for(self.name):
            self.invalid_requests += 1
            return
        if request.request_id in self.executed_ids:
            self._resend_reply(request)
            return
        if self.config.verify_request_signature:
            sig_cost = self.costs.sig_verify(request.wire_size())
            self.verification_core.submit(sig_cost, self._after_signature, request)
        else:
            self.on_request_verified(request)

    def _after_signature(self, request: Request) -> None:
        if not request.signature.valid:
            # Invalid signature behind a valid MAC: blacklist the client.
            self.blacklist.ban(request.client)
            self.invalid_requests += 1
            return
        self.on_request_verified(request)

    def on_request_verified(self, request: Request) -> None:
        """A fully authenticated request enters the ordering pipeline."""
        self.engine.submit(request)

    # ------------------------------------------------------------ execution
    def _on_ordered(self, seq: int, items: Tuple) -> None:
        newly_executed = self.executed_ids.add
        for request in items:
            if not newly_executed(request.request_id):
                continue
            cost = self.service.exec_cost(request) + self.costs.mac_gen(
                MESSAGE_HEADER_SIZE
            )
            self.execution_core.submit(cost, self._execute_one, request)

    def _execute_one(self, request: Request) -> None:
        result, result_size = self.service.apply(request)
        self.executed_count += 1
        self._reply(request.reply(result, result_size))
        self.on_executed(request)

    def on_executed(self, request: Request) -> None:
        """Hook: monitoring counters etc."""

    # ----------------------------------------------------------- inspection
    @property
    def is_primary(self) -> bool:
        return self.engine.is_primary

    def log_sizes(self) -> Dict[str, int]:
        """The engine's protocol-log sizes plus the executed-request count
        (the dedup state behind it is O(clients), see ``ExecutedIds``)."""
        sizes = dict(self.engine.log_sizes())
        sizes["executed_ids"] = len(self.executed_ids)
        return sizes

    def __repr__(self) -> str:
        return "%s(%s, view=%d)" % (type(self).__name__, self.name, self.engine.view)
