"""Shared replica machinery: the request front and the baseline node.

:class:`ReplicaFront` is what every replica class does the same way:
authenticate client requests, execute what is ordered and reply.

A :class:`BftNode` is one physical machine running one replica of a
PBFT-family protocol (Aardvark, Spinning, or plain PBFT).  It owns three
pinned cores, mirroring the multi-threaded implementations the paper
compares against:

* a **verification core** authenticating client requests,
* a **protocol core** running the three-phase ordering engine,
* an **execution core** applying ordered requests and emitting replies.

Subclasses pick the request checks (MACs only for Spinning,
MAC-then-signature for Aardvark) and add their robustness mechanisms on
top.
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

__all__ = ["ClientRequestMsg", "ReplyMsg", "NodeConfig", "InstanceTransport",
           "ReplicaFront", "BftNode"]


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


class InstanceTransport:
    """Adapter between an ordering instance and the machine's NICs."""

    __slots__ = ("machine",)

    def __init__(self, machine: Machine):
        self.machine = machine

    def broadcast(self, msg: OrderingMessage) -> None:
        self.machine.broadcast_to_nodes(msg)

    def send(self, replica: str, msg: OrderingMessage) -> None:
        self.machine.send_to_node(replica, msg)


@dataclass(frozen=True)
class NodeConfig:
    """Configuration shared by the baseline protocol nodes."""

    instance: InstanceConfig = field(default_factory=InstanceConfig)
    costs: CryptoCostModel = field(default_factory=CryptoCostModel)

    @property
    def f(self) -> int:
        return self.instance.f

    @property
    def n(self) -> int:
        return self.instance.n


class ReplicaFront:
    """Steps 1 and 6 of §IV-B, shared by every replica class.

    Step 1 authenticates a client REQUEST on the verification core: an
    invalid MAC is counted, an invalid signature behind a valid MAC also
    blacklists the client, and a retransmission of an executed request
    is answered with the client's last reply.  A verified request goes
    to the subclass's ``_on_request_verified``.  Step 6 executes what
    was ordered on the execution core and replies with a MAC.  The
    protocols differ only in the class constants below (§III).  The
    subclass allocates ``verification_core`` and ``execution_core``.
    """

    #: step 1's checks: both for RBFT, PBFT and Aardvark, the MAC only
    #: for Spinning, the signature only for Prime.
    CHECKS_MAC = True
    CHECKS_SIGNATURE = True
    #: Prime answers no retransmission, so it records no replies.
    RECORDS_REPLIES = True
    #: emit ``node.stage`` trace events (RBFT's pipeline view).
    TRACES_STAGES = False

    #: completion callbacks handed to the cores.  Each is bound once per
    #: node: a bound method built at the submit site would live as long
    #: as its job waits in a core's backlog.
    _STAGE_CALLBACKS: Tuple[str, ...] = (
        "_after_request_mac", "_after_request_signature", "_execute_one",
    )

    def __init__(self, machine: Machine, config, service: Service, rx_overhead: float):
        for name in self._STAGE_CALLBACKS:
            setattr(self, name, getattr(self, name))
        self.machine = machine
        self.config = config
        self.costs = config.costs
        self.service = service
        self.name = machine.name
        self.index = machine.index
        self.sim = machine.cluster.sim
        self.blacklist = ClientBlacklist()
        #: executed ids and each client's last reply, one table.
        self.executed_ids = ExecutedIds()
        self.executed_count = 0
        self.invalid_requests = 0
        self._reply_mac = Mac(self.name)
        #: host overhead charged with the first check of every message.
        self._rx_overhead = rx_overhead
        # The cost model is pure, so per-size results memoise.
        self._auth_rx_costs: Dict[int, float] = {}
        self._sig_verify_costs: Dict[int, float] = {}
        self._exec_reply_cost = self.costs.mac_gen(MESSAGE_HEADER_SIZE)

    def _auth_rx_cost(self, nbytes: int) -> float:
        cost = self._auth_rx_costs.get(nbytes)
        if cost is None:
            cost = self.costs.authenticator_verify(nbytes) + self._rx_overhead
            self._auth_rx_costs[nbytes] = cost
        return cost

    def _sig_verify_cost(self, nbytes: int) -> float:
        cost = self._sig_verify_costs.get(nbytes)
        if cost is None:
            cost = self._sig_verify_costs[nbytes] = self.costs.sig_verify(nbytes)
        return cost

    # ------------------------------------------------------------ step 1
    def _receive_request(self, request: Request) -> None:
        if self.blacklist.banned(request.client):
            return
        tracer = self.sim.tracer
        if self.TRACES_STAGES and tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "node.stage", self.name,
                stage="verification.mac", client=request.client,
            )
        if self.CHECKS_MAC:
            cost = self._auth_rx_cost(request.wire_size())
            self.verification_core.submit(cost, self._after_request_mac, request)
        else:
            cost = self._sig_verify_cost(request.wire_size()) + self._rx_overhead
            self.verification_core.submit(cost, self._after_request_signature, request)

    def _after_request_mac(self, request: Request) -> None:
        if not request.authenticator.valid_for(self.name):
            self.invalid_requests += 1
        elif not self.CHECKS_SIGNATURE:
            # Spinning orders what its MAC admits, retransmissions too;
            # ordering and the executed test drop a duplicate unanswered.
            self._on_request_verified(request)
        elif request.request_id in self.executed_ids:
            self._resend_reply(request)
        elif self._signature_check_wanted(request):
            cost = self._sig_verify_cost(request.wire_size())
            self.verification_core.submit(cost, self._after_request_signature, request)

    def _signature_check_wanted(self, request: Request) -> bool:
        """Hook between the MAC and the signature check (default: always)."""
        return True

    def _after_request_signature(self, request: Request) -> None:
        if not request.signature.valid:
            # Invalid signature behind a valid MAC: blacklist the client.
            self.blacklist.ban(request.client)
            self.invalid_requests += 1
        elif not self.CHECKS_MAC and request.request_id in self.executed_ids:
            # The signature was the only check: the executed test follows.
            self._resend_reply(request)
        else:
            self._on_request_verified(request)

    # ------------------------------------------------------------ step 6
    def _execute(self, request: Request) -> float:
        """Queue ``request`` on the execution core unless it executed
        already; return the cost charged (0.0 for a duplicate)."""
        if not self.executed_ids.add(request.request_id):
            return 0.0
        cost = self.service.exec_cost(request) + self._exec_reply_cost
        self.execution_core.submit(cost, self._execute_one, request)
        return cost

    def _execute_one(self, request: Request) -> None:
        result, result_size = self.service.apply(request)
        self.executed_count += 1
        tracer = self.sim.tracer
        if self.TRACES_STAGES and tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "node.stage", self.name,
                stage="execution", client=request.client,
                rid=request.rid,
            )
        reply = request.reply(result, result_size)
        if self.RECORDS_REPLIES:
            self.executed_ids.record_reply(reply)
        self._send_reply(reply)

    @property
    def reply_cache(self) -> Mapping[str, Reply]:
        """Read-only ``client -> last reply`` view of ``executed_ids``."""
        return self.executed_ids.replies()

    def _send_reply(self, reply: Reply) -> None:
        channel = self.machine.channel_to_client(reply.client)
        if channel is not None:
            channel.send(ReplyMsg(reply, self._reply_mac, self.name))

    def _resend_reply(self, request: Request) -> None:
        reply = self.executed_ids.reply_for(request)
        if reply is not None:
            self._send_reply(reply)


class BftNode(ReplicaFront):
    """One machine running one replica (baseline protocols)."""

    def __init__(self, machine: Machine, config: NodeConfig, service: Service):
        super().__init__(machine, config, service, 0.0)
        sim = self.sim

        self.verification_core = machine.cores.allocate("verification")
        self.protocol_core = machine.cores.allocate("protocol")
        self.execution_core = machine.cores.allocate("execution")

        self.engine = OrderingInstance(
            sim,
            self.protocol_core,
            transport=InstanceTransport(machine),
            config=config.instance,
            costs=self.costs,
            replica=self.name,
            instance=0,
            on_ordered=self._on_ordered,
            on_view_entered=self._on_view_entered,
            primary_offset=0,
            senders=machine.cluster.senders,
        )
        machine.handler = self.on_network_message

    # ------------------------------------------------------------- routing
    def on_network_message(self, msg: Message) -> None:
        if isinstance(msg, ClientRequestMsg):
            self._receive_request(msg.request)
        elif isinstance(msg, OrderingMessage):
            self.engine.receive(msg)

    def _on_view_entered(self, view: int) -> None:
        """Hook: a new view was installed (default: no reaction)."""

    def _on_request_verified(self, request: Request) -> None:
        self.engine.submit(request)

    def _on_ordered(self, seq: int, items: Tuple) -> None:
        for request in items:
            self._execute(request)

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
