"""Prime: pre-ordering plus periodic, monitored ordering (§III-A).

Pipeline reproduced from Amir et al. (DSN 2008) as the RBFT paper
describes it:

1. clients send signed requests to the replicas;
2. replicas exchange them: the designated *originator* of a client
   bundles its requests into a signed PO-REQUEST; the others acknowledge
   with signed PO-ACKs; a bundle is **pre-ordered** once 2f acks join it;
3. the primary periodically (whether or not there is traffic) sends a
   signed ordering message carrying a cumulative coverage vector;
4. replicas run an echo/ready agreement on each ordering message and
   execute newly covered bundles in deterministic order;
5. replicas monitor the network (ping/pong RTT) and the time needed to
   execute a batch, and compute the maximal acceptable delay between
   ordering messages as ``rtt + batch_exec + K_lat``; a primary slower
   than that is suspected and replaced.

The vulnerability (Fig. 1): the acceptable delay is derived from
*measurements an attacker can inflate* — a colluding client submits
heavy (1 ms) requests, the measured batch execution time grows, and the
malicious primary can stretch its ordering period to just below the
suspicion threshold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.batching import Batcher
from repro.common.cluster import Machine
from repro.common.quorum import VectorQuorumTracker
from repro.common.statemachine import Service
from repro.common.types import Request
from repro.crypto.costmodel import CryptoCostModel
from repro.crypto.primitives import Digest, Signature
from repro.net.message import Message
from repro.protocols.base import ClientRequestMsg, ReplicaFront

from .messages import (
    PoAck,
    PoRequest,
    PrimeEcho,
    PrimeMessage,
    PrimeOrder,
    PrimePing,
    PrimePong,
    PrimeReady,
    PrimeSuspect,
)

__all__ = ["PrimeConfig", "PrimeNode"]


@dataclass(frozen=True)
class PrimeConfig:
    """Prime tuning knobs."""

    f: int = 1
    costs: CryptoCostModel = field(default_factory=CryptoCostModel)
    po_batch_size: int = 3  # requests per PO-REQUEST bundle
    po_batch_delay: float = 1e-3
    ordering_period: float = 10e-3  # the primary's periodic send interval
    window: int = 144  # max new requests covered per ordering message
    k_lat: float = 15e-3  # the developer-set variability constant
    ping_period: float = 100e-3
    suspect_check_period: float = 5e-3
    po_fallback_timeout: float = 0.5  # re-originate orphaned requests
    rx_overhead: float = 1.5e-6

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError("Prime needs f >= 1 (got f=%d)" % self.f)

    @property
    def n(self) -> int:
        return 3 * self.f + 1


class PrimeNode(ReplicaFront):
    """One Prime replica (four pinned cores, mirroring its thread pools)."""

    CHECKS_MAC = False  # requests are signed only
    RECORDS_REPLIES = False  # and no retransmission is answered

    def __init__(self, machine: Machine, config: PrimeConfig, service: Service):
        super().__init__(machine, config, service, config.rx_overhead)
        sim = self.sim

        self.verification_core = machine.cores.allocate("verification")
        self.preorder_core = machine.cores.allocate("preorder")
        self.ordering_core = machine.cores.allocate("ordering")
        self.execution_core = machine.cores.allocate("execution")

        self.view = 0
        self.seq = 0
        self._bundle_counter = 0
        self.bundles: Dict[Tuple[str, int], Tuple] = {}
        senders = machine.cluster.senders
        self._ack_votes = VectorQuorumTracker(2 * config.f, senders)
        self.aru: Dict[str, int] = {"node%d" % i: 0 for i in range(config.n)}
        self.covered: Dict[str, int] = dict(self.aru)
        self._echo_votes = VectorQuorumTracker(2 * config.f, senders)
        self._ready_votes = VectorQuorumTracker(2 * config.f + 1, senders)
        self._order_log: Dict[int, PrimeOrder] = {}
        self._echoed: set = set()
        self._readied: set = set()
        self._next_order_exec = 1
        self._ordered_vectors: Dict[int, Dict[str, int]] = {}
        self._held_orders: List[PrimeOrder] = []
        self._orphan_watch: Dict = {}  # request_id -> (request, seen_at)

        # Monitoring state (§III-A) ---------------------------------------
        self.rtt_estimate = 0.5e-3
        self.batch_exec_estimate = 0.0
        self._pings_in_flight: Dict[int, float] = {}
        self._ping_nonce = 0
        self._last_order_seen = sim.now
        self._suspect_votes = VectorQuorumTracker(2 * config.f + 1, senders)
        self.suspicions_voted = 0
        self.view_changes = 0

        #: attack hook — a malicious primary overrides its sending period.
        self.ordering_period_fn: Optional[Callable[[], float]] = None
        #: a silent faulty replica neither acks nor echoes.
        self.silent = False

        self._po_batcher: Batcher = Batcher(
            sim, config.po_batch_size, config.po_batch_delay, self._flush_bundle
        )
        machine.handler = self.on_network_message
        self._schedule_order_tick()
        sim.call_after(config.ping_period, self._ping_tick)
        sim.call_after(config.suspect_check_period, self._suspect_tick)

    # --------------------------------------------------------------- routing
    def on_network_message(self, msg: Message) -> None:
        if isinstance(msg, ClientRequestMsg):
            self._receive_request(msg.request)
        elif isinstance(msg, PrimeMessage):
            self._receive_signed(msg)

    def _receive_signed(self, msg: PrimeMessage) -> None:
        core = self._core_for(msg)
        cost = self.costs.sig_verify(msg.wire_size()) + self.config.rx_overhead
        core.submit(cost, self._dispatch_signed, msg)

    def _core_for(self, msg: PrimeMessage):
        if isinstance(msg, (PoRequest, PoAck)):
            return self.preorder_core
        return self.ordering_core

    def _dispatch_signed(self, msg: PrimeMessage) -> None:
        if not msg.signature.valid:
            return
        if isinstance(msg, PoRequest):
            self._on_po_request(msg)
        elif isinstance(msg, PoAck):
            self._on_po_ack(msg)
        elif isinstance(msg, PrimeOrder):
            self._on_order(msg)
        elif isinstance(msg, PrimeEcho):
            self._on_echo(msg)
        elif isinstance(msg, PrimeReady):
            self._on_ready(msg)
        elif isinstance(msg, PrimePing):
            self._on_ping(msg)
        elif isinstance(msg, PrimePong):
            self._on_pong(msg)
        elif isinstance(msg, PrimeSuspect):
            self._on_suspect(msg)

    # ------------------------------------------------------ client requests
    def originator_of(self, client: str) -> str:
        # crc32 rather than hash(): stable across interpreter runs.
        import zlib

        return "node%d" % (zlib.crc32(client.encode()) % self.config.n)

    def _on_request_verified(self, request: Request) -> None:
        if self.originator_of(request.client) == self.name and not self.silent:
            self._po_batcher.add(request)
        else:
            # Remember it: if its originator never disseminates it (a
            # faulty replica), any replica may re-originate it.
            self._orphan_watch[request.request_id] = (request, self.sim.now)

    # ---------------------------------------------------------- pre-ordering
    def _flush_bundle(self, requests: List[Request]) -> None:
        self._bundle_counter += 1
        bundle_id = self._bundle_counter
        msg = PoRequest(self.name, bundle_id, tuple(requests), Signature(self.name))
        self.bundles[(self.name, bundle_id)] = msg.requests
        cost = self.costs.sig_gen(msg.wire_size())
        self.preorder_core.submit(cost, self._emit_po_request, msg)

    def _emit_po_request(self, msg: PoRequest) -> None:
        self.machine.broadcast_to_nodes(msg)

    def _on_po_request(self, msg: PoRequest) -> None:
        key = (msg.sender, msg.bundle_id)
        # Bundles at or below the covered frontier were executed and
        # garbage-collected; a late duplicate must not re-enter the store.
        if msg.bundle_id <= self.covered.get(msg.sender, 0):
            return
        if key in self.bundles:
            return
        self.bundles[key] = msg.requests
        for request in msg.requests:
            # Bundled by someone: no longer an orphan candidate.
            self._orphan_watch.pop(request.request_id, None)
        if not self.silent:
            ack = PoAck(self.name, msg.sender, msg.bundle_id, Signature(self.name))
            cost = self.costs.sig_gen(ack.wire_size())
            self.preorder_core.submit(cost, self.machine.broadcast_to_nodes, ack)
            self._register_ack(key, self.name)
        self._advance_aru(msg.sender)
        self._recheck_held_orders()

    def _on_po_ack(self, msg: PoAck) -> None:
        self._register_ack((msg.originator, msg.bundle_id), msg.sender)

    def _register_ack(self, key: Tuple[str, int], sender: str) -> None:
        if self._ack_votes.add(key, sender):
            self._advance_aru(key[0])

    def _advance_aru(self, originator: str) -> None:
        """Move the contiguous pre-ordered frontier for ``originator``."""
        frontier = self.aru[originator]
        while True:
            key = (originator, frontier + 1)
            if key in self.bundles and self._ack_votes.complete(key):
                frontier += 1
            else:
                break
        if frontier != self.aru[originator]:
            self.aru[originator] = frontier
            self._recheck_held_orders()

    def preordered_backlog(self) -> int:
        """Bundles pre-ordered locally but not yet covered by the order."""
        return sum(
            max(0, self.aru[node] - self.covered[node]) for node in self.aru
        )

    # ----------------------------------------------------- periodic ordering
    @property
    def is_primary(self) -> bool:
        return self.view % self.config.n == self.index

    def primary_name(self, view: Optional[int] = None) -> str:
        view = self.view if view is None else view
        return "node%d" % (view % self.config.n)

    def _schedule_order_tick(self) -> None:
        period = (
            self.ordering_period_fn()
            if self.ordering_period_fn is not None
            else self.config.ordering_period
        )
        self.sim.call_after(period, self._order_tick)

    def _order_tick(self) -> None:
        self._schedule_order_tick()
        if not self.is_primary or self.silent:
            return
        vector = self._capped_vector()
        self.seq += 1
        msg = PrimeOrder(self.name, self.view, self.seq, vector, Signature(self.name))
        cost = self.costs.sig_gen(msg.wire_size())
        self.ordering_core.submit(cost, self._emit_order, msg)

    def _emit_order(self, msg: PrimeOrder) -> None:
        self.machine.broadcast_to_nodes(msg)
        self._on_order(msg)  # the primary processes its own ordering message

    def _capped_vector(self) -> Dict[str, int]:
        """Snapshot of the primary's ARU, limited to ``window`` new requests."""
        vector = dict(self.covered)
        budget = self.config.window
        progress = True
        while budget > 0 and progress:
            progress = False
            for node in sorted(self.aru):
                if budget <= 0:
                    break
                nxt = vector[node] + 1
                if nxt <= self.aru[node]:
                    requests = self.bundles.get((node, nxt), ())
                    vector[node] = nxt
                    budget -= max(1, len(requests))
                    progress = True
        return vector

    # --------------------------------------------------------- echo / ready
    def _order_digest(self, msg: PrimeOrder) -> Digest:
        return Digest(
            ("prime-order", msg.view, msg.seq, tuple(sorted(msg.vector.items())))
        )

    def _on_order(self, msg: PrimeOrder) -> None:
        if msg.view != self.view or msg.sender != self.primary_name(msg.view):
            return
        self._last_order_seen = self.sim.now
        if msg.seq < self._next_order_exec or msg.seq in self._order_log:
            return
        self._order_log[msg.seq] = msg
        self._try_echo(msg)

    def _covers(self, vector: Dict[str, int]) -> bool:
        return all(self.aru.get(node, 0) >= upto for node, upto in vector.items())

    def _try_echo(self, msg: PrimeOrder) -> None:
        if not self._covers(msg.vector):
            self._held_orders.append(msg)
            return
        digest = self._order_digest(msg)
        key = (msg.view, msg.seq, digest)
        if self.silent or key in self._echoed:
            return
        self._echoed.add(key)
        if msg.sender != self.name:
            echo = PrimeEcho(self.name, msg.view, msg.seq, digest, Signature(self.name))
            cost = self.costs.sig_gen(echo.wire_size())
            self.ordering_core.submit(cost, self.machine.broadcast_to_nodes, echo)
            if self._echo_votes.add(key, self.name):
                self._send_ready(msg.view, msg.seq, digest)
        elif self._echo_votes.complete(key):
            self._send_ready(msg.view, msg.seq, digest)

    def _recheck_held_orders(self) -> None:
        if not self._held_orders:
            return
        held, self._held_orders = self._held_orders, []
        for msg in held:
            if msg.view == self.view:
                self._try_echo(msg)
        self._try_execute()

    def _on_echo(self, msg: PrimeEcho) -> None:
        if msg.view != self.view:
            return
        key = (msg.view, msg.seq, msg.digest)
        if self._echo_votes.add(key, msg.sender):
            self._send_ready(msg.view, msg.seq, msg.digest)
        elif self._echo_votes.complete(key) and key in self._echoed:
            pass  # ready already triggered via our own echo path

    def _send_ready(self, view: int, seq: int, digest: Digest) -> None:
        key = (view, seq, digest)
        if self.silent or key in self._readied:
            return
        order = self._order_log.get(seq)
        if order is None or self._order_digest(order) != digest:
            return
        self._readied.add(key)
        ready = PrimeReady(self.name, view, seq, digest, Signature(self.name))
        cost = self.costs.sig_gen(ready.wire_size())
        self.ordering_core.submit(cost, self.machine.broadcast_to_nodes, ready)
        if self._ready_votes.add(key, self.name):
            self._mark_ordered(seq)

    def _on_ready(self, msg: PrimeReady) -> None:
        if msg.view != self.view:
            return
        key = (msg.view, msg.seq, msg.digest)
        if self._ready_votes.add(key, msg.sender):
            self._mark_ordered(msg.seq)
        order = self._order_log.get(msg.seq)
        if (
            order is not None
            and self._ready_votes.complete(key)
            and msg.seq not in self._ordered_vectors
            and self._order_digest(order) == key[2]
        ):
            self._mark_ordered(msg.seq)

    def _mark_ordered(self, seq: int) -> None:
        order = self._order_log.get(seq)
        if order is None or seq in self._ordered_vectors:
            return
        self._ordered_vectors[seq] = order.vector
        self._try_execute()

    # -------------------------------------------------------------- execute
    def _try_execute(self) -> None:
        progressed = False
        while True:
            vector = self._ordered_vectors.get(self._next_order_exec)
            if vector is None or not self._covers(vector):
                break
            self._next_order_exec += 1
            self._execute_coverage(vector)
            progressed = True
        if progressed:
            self._collect_garbage()

    def _collect_garbage(self) -> None:
        """Drop ordering and pre-ordering state behind the executed frontiers.

        Ordering messages below ``_next_order_exec`` were executed (their
        coverage is folded into ``covered``), and bundles at or below the
        per-originator ``covered`` frontier can never be read again: the
        coverage vectors, the ARU advance, and the capped-vector budget
        all start strictly above it.  Late votes for pruned keys re-seed
        a quorum at worst; completion then finds no ``_order_log`` entry
        and sends nothing.
        """
        frontier = self._next_order_exec
        for seq in [s for s in self._order_log if s < frontier]:
            del self._order_log[seq]
        for seq in [s for s in self._ordered_vectors if s < frontier]:
            del self._ordered_vectors[seq]
        self._echo_votes.prune(lambda key: key[1] < frontier)
        self._ready_votes.prune(lambda key: key[1] < frontier)
        self._echoed = {key for key in self._echoed if key[1] >= frontier}
        self._readied = {key for key in self._readied if key[1] >= frontier}
        covered = self.covered
        self.bundles = {
            key: requests
            for key, requests in self.bundles.items()
            if key[1] > covered.get(key[0], 0)
        }
        self._ack_votes.prune(lambda key: key[1] <= covered.get(key[0], 0))

    def _execute_coverage(self, vector: Dict[str, int]) -> None:
        batch_cost = 0.0
        for node in sorted(vector):
            upto = vector[node]
            while self.covered[node] < upto:
                self.covered[node] += 1
                requests = self.bundles.get((node, self.covered[node]), ())
                for request in requests:
                    batch_cost += self._execute(request)
        if batch_cost > 0:
            # EWMA of batch execution time — the measurement the Prime
            # attack inflates with heavy requests.
            alpha = 0.2
            self.batch_exec_estimate = (
                (1 - alpha) * self.batch_exec_estimate + alpha * batch_cost
            )

    # ------------------------------------------------------------ monitoring
    def acceptable_order_delay(self) -> float:
        """Max delay before suspecting the primary (§III-A).

        "This delay is computed as a function of three parameters: the
        round-trip time between replicas, the time needed to execute a
        batch of requests, and a constant that accounts for the
        variability of the network latency."
        """
        return self.rtt_estimate + self.batch_exec_estimate + self.config.k_lat

    def _ping_tick(self) -> None:
        self.sim.call_after(self.config.ping_period, self._ping_tick)
        if self.silent:
            return
        self._ping_nonce += 1
        nonce = self._ping_nonce
        self._pings_in_flight[nonce] = self.sim.now
        ping = PrimePing(self.name, nonce, Signature(self.name))
        cost = self.costs.sig_gen(ping.wire_size())
        self.ordering_core.submit(cost, self.machine.broadcast_to_nodes, ping)

    def _on_ping(self, msg: PrimePing) -> None:
        if self.silent:
            return
        pong = PrimePong(self.name, msg.nonce, Signature(self.name))
        cost = self.costs.sig_gen(pong.wire_size())
        self.ordering_core.submit(
            cost, self.machine.send_to_node, msg.sender, pong
        )

    def _on_pong(self, msg: PrimePong) -> None:
        sent = self._pings_in_flight.pop(msg.nonce, None)
        if sent is None:
            return
        sample = self.sim.now - sent
        alpha = 0.2
        self.rtt_estimate = (1 - alpha) * self.rtt_estimate + alpha * sample

    def _suspect_tick(self) -> None:
        self.sim.call_after(self.config.suspect_check_period, self._suspect_tick)
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "pbft.log-size", self.name,
                **self.log_sizes(),
            )
        if self.silent:
            return
        self._rescue_orphans()
        if self.is_primary:
            return
        starving = self.preordered_backlog() > 0
        overdue = self.sim.now - self._last_order_seen > self.acceptable_order_delay()
        if starving and overdue:
            self._vote_suspect()

    def _rescue_orphans(self) -> None:
        """Re-originate requests whose designated originator went quiet."""
        if not self._orphan_watch:
            return
        now = self.sim.now
        timeout = self.config.po_fallback_timeout
        rescued = []
        for request_id, (request, seen_at) in self._orphan_watch.items():
            if request_id in self.executed_ids:
                rescued.append(request_id)
            elif now - seen_at > timeout:
                rescued.append(request_id)
                self._po_batcher.add(request)
        for request_id in rescued:
            del self._orphan_watch[request_id]

    def _vote_suspect(self) -> None:
        self.suspicions_voted += 1
        msg = PrimeSuspect(self.name, self.view, Signature(self.name))
        cost = self.costs.sig_gen(msg.wire_size())
        self.ordering_core.submit(cost, self.machine.broadcast_to_nodes, msg)
        if self._suspect_votes.add(self.view, self.name):
            self._install_view(self.view + 1)

    def _on_suspect(self, msg: PrimeSuspect) -> None:
        if msg.view != self.view:
            return
        if self._suspect_votes.add(msg.view, msg.sender):
            self._install_view(msg.view + 1)

    def _install_view(self, new_view: int) -> None:
        if new_view <= self.view:
            return
        self.view = new_view
        self.view_changes += 1
        self._last_order_seen = self.sim.now
        # Ordering state restarts in the new view; coverage is cumulative
        # so nothing ordered is lost and nothing pending is dropped.
        self._order_log.clear()
        self._held_orders = []
        self._ordered_vectors.clear()
        self.seq = 0
        self._next_order_exec = 1
        # Echo/ready/suspect votes for superseded views are dead state:
        # every handler rejects messages whose view is not the current one.
        self._echo_votes.prune(lambda key: key[0] < new_view)
        self._ready_votes.prune(lambda key: key[0] < new_view)
        self._echoed = {key for key in self._echoed if key[0] >= new_view}
        self._readied = {key for key in self._readied if key[0] >= new_view}
        self._suspect_votes.prune(lambda view: view < new_view)

    def log_sizes(self) -> Dict[str, int]:
        """Sizes of the pre-ordering and ordering stores (``total`` = sum).

        ``executed_ids`` (the count of distinct executed requests) and
        the monitoring estimators are excluded from ``total``: the
        former is durable service state held as one watermark per client
        (``ExecutedIds``), the latter are O(1).
        """
        total = (
            len(self.bundles)
            + len(self._ack_votes)
            + len(self._order_log)
            + len(self._ordered_vectors)
            + len(self._echo_votes)
            + len(self._ready_votes)
            + len(self._echoed)
            + len(self._readied)
            + len(self._held_orders)
            + len(self._orphan_watch)
        )
        return {
            "total": total,
            "bundles": len(self.bundles),
            "ack_votes": len(self._ack_votes),
            "order_log": len(self._order_log),
            "ordered_vectors": len(self._ordered_vectors),
            "echo_votes": len(self._echo_votes),
            "ready_votes": len(self._ready_votes),
            "held_orders": len(self._held_orders),
            "orphan_watch": len(self._orphan_watch),
            "executed_ids": len(self.executed_ids),
        }

    def __repr__(self) -> str:
        return "PrimeNode(%s, view=%d, executed=%d)" % (
            self.name,
            self.view,
            self.executed_count,
        )
