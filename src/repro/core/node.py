"""The RBFT node: f+1 protocol instances behind a module pipeline (§IV, §V).

Architecture per Fig. 6 of the paper — each module is pinned to its own
core, and each protocol-instance replica to another:

* **Verification** authenticates client REQUESTs (MAC, then signature;
  invalid signatures blacklist the client);
* **Propagation** disseminates verified requests with PROPAGATE and
  collects f+1 matching PROPAGATEs before releasing a request;
* **Dispatch & Monitoring** hands request *identifiers* to the f+1 local
  replicas, measures per-instance throughput and per-client latency, and
  drives the instance-change protocol;
* **Execution** applies requests ordered by the *master* instance and
  replies to clients;
* one :class:`~repro.protocols.pbft.engine.OrderingInstance` per
  protocol instance, with primaries placed so at most one runs per node.

Flooding defence (§V): messages that fail verification are counted per
sender, and a peer exceeding the threshold has its NIC closed for a
configurable period.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.common.batching import CertificateCoalescer
from repro.common.cluster import Machine
from repro.common.quorum import (
    VectorQuorumTracker,
    quorum_size,
    weak_quorum_size,
)
from repro.common.statemachine import Service
from repro.common.types import Request
from repro.crypto.primitives import MacAuthenticator
from repro.net.message import Message
from repro.protocols.base import ClientRequestMsg, InstanceTransport, ReplicaFront
from repro.protocols.pbft.engine import OrderingInstance, RequestPool
from repro.protocols.pbft.messages import OrderingMessage

from .config import RBFTConfig
from .messages import FloodMsg, InstanceBatchMsg, InstanceChangeMsg, PropagateMsg
from .monitoring import InstanceMonitor

__all__ = ["RBFTNode", "InstanceTransport", "BatchingInstanceTransport"]


class BatchingInstanceTransport:
    """Backup-instance transport that coalesces certificate broadcasts.

    Above the pacing threshold, each backup instance's broadcasts are
    buffered in the node's shared :class:`CertificateCoalescer` instead
    of hitting the NICs one by one; the coalescer flushes a short window
    of them as one :class:`InstanceBatchMsg` envelope.  The engine has
    already charged its per-message send cost on its own core by the
    time ``broadcast`` runs, so buffering costs nothing extra and the
    master's module cores never see backup traffic.  Point-to-point
    sends (view-change retransmissions) are rare and stay exact.
    """

    __slots__ = ("machine", "coalescer")

    def __init__(self, machine: Machine, coalescer: CertificateCoalescer):
        self.machine = machine
        self.coalescer = coalescer

    def broadcast(self, msg: OrderingMessage) -> None:
        self.coalescer.add(msg)

    def send(self, replica: str, msg: OrderingMessage) -> None:
        self.machine.send_to_node(replica, msg)


class RBFTNode(ReplicaFront):
    """One physical machine of an RBFT deployment."""

    TRACES_STAGES = True

    _STAGE_CALLBACKS = ReplicaFront._STAGE_CALLBACKS + (
        "_on_propagate",
        "_dispatch_envelope",
        "_on_instance_change",
        "_note_invalid",
        "_emit_propagate",
        "_after_propagate_signature",
        "_dispatch_ready",
    )

    def __init__(self, machine: Machine, config: RBFTConfig, service: Service):
        super().__init__(machine, config, service, config.rx_overhead)
        sim = self.sim

        # Module cores (Fig. 6) -------------------------------------------
        self.verification_core = machine.cores.allocate("verification")
        self.propagation_core = machine.cores.allocate("propagation")
        self.dispatch_core = machine.cores.allocate("dispatch")
        self.execution_core = machine.cores.allocate("execution")

        # f+1 protocol instances ------------------------------------------
        # Above the pacing threshold the backup instances' certificate
        # broadcasts are coalesced into per-window envelopes; the master
        # instance always keeps the exact per-message transport.
        self._batching = config.batching_active
        self._cert_coalescer: Optional[CertificateCoalescer] = (
            CertificateCoalescer(
                sim,
                config.instance_batch_limit,
                config.instance_batch_window,
                self._flush_cert_batch,
            )
            if self._batching
            else None
        )
        self.engines: List[OrderingInstance] = []
        instance_config = config.instance_config()
        backup_config = config.backup_instance_config()
        senders = machine.cluster.senders
        # What the f + 1 local replicas share, built once: the request
        # pool, the (stateless) transports, the guard and the handler
        # every ordered-batch callback binds its instance id to.
        pool = RequestPool()
        transport = InstanceTransport(machine)
        backup_transport = transport
        if self._cert_coalescer is not None:
            backup_transport = BatchingInstanceTransport(machine, self._cert_coalescer)
        guard = self._propagation_guard
        on_ordered = (
            self._on_instance_ordered_batched if self._batching else self._on_instance_ordered
        )
        for k in range(config.instances):
            core = machine.cores.allocate("replica-%d" % k)
            master = k == config.master
            engine = OrderingInstance(
                sim,
                core,
                transport=transport if master else backup_transport,
                config=instance_config if master else backup_config,
                costs=self.costs,
                replica=self.name,
                instance=k,
                on_ordered=partial(on_ordered, k),
                guard=guard,
                primary_offset=k,
                senders=senders,
                pool=pool,
            )
            engine.on_invalid = self._note_invalid
            self.engines.append(engine)

        # Propagation state ------------------------------------------------
        self._propagated: set = set()
        self._sig_inflight: set = set()  # dedup of queued signature checks
        self._propagate_votes = VectorQuorumTracker(
            weak_quorum_size(config.f), senders
        )
        self._vote_keys = self._propagate_votes.keys()
        self.request_store: Dict[Tuple[str, int], Request] = {}
        self._given_at: Dict[Tuple[str, int], float] = {}
        self.ready_ids = self._given_at.keys()
        self._ordered_by: Dict[Tuple[str, int], int] = {}

        # Monitoring & instance change (§IV-C, §IV-D) -----------------------
        self.monitor = InstanceMonitor(
            sim, config, self._on_monitor_trigger, name=self.name
        )
        self.master_instance = config.master
        self.cpi = 0
        self._voted_choice: Dict[int, int] = {}  # cpi -> preferred master
        self._ic_votes = VectorQuorumTracker(quorum_size(config.f), senders)
        self.instance_changes = 0
        # Best-backup promotion (§IV-A future work) keeps each instance's
        # delivery history so the new master's backlog can be replayed.
        self._instance_history: Optional[List[List[Tuple]]] = (
            [[] for _ in range(config.instances)]
            if config.promote_best_backup
            else None
        )

        # Flooding defence (§V) ----------------------------------------------
        self._invalid_times: Dict[str, Deque[float]] = {}
        self.nics_closed = 0

        #: attack hook — a faulty node that "does not participate in the
        #: PROPAGATE phase" (worst-attack-2) never emits PROPAGATEs.
        self.propagate_silent = False

        # Hoisted out of the per-PROPAGATE routing path: the header MAC
        # cost is payload-independent, so it is a constant per node.
        self._propagate_rx_cost = (
            self.costs.mac_verify(32) + self.config.rx_overhead
        )
        # Remaining hot-path state: the cost model is pure, so per-size
        # results memoise; the valid-for-everyone authenticator is
        # immutable, so one interned instance signs every outbound
        # message; routing is pre-bound per message class.
        self._auth = MacAuthenticator.for_signer(self.name)
        self._propagate_tx_costs: Dict[int, float] = {}
        self._routes: Dict[type, Callable[[Message], None]] = {
            ClientRequestMsg: self._route_request,
            PropagateMsg: self._route_propagate,
            InstanceChangeMsg: self._route_instance_change,
            InstanceBatchMsg: self._route_instance_batch,
            FloodMsg: self._route_flood,
        }

        machine.handler = self.on_network_message
        sim.call_after(config.monitoring_period, self._monitor_tick)

    # -------------------------------------------------------------- instances
    @property
    def master_engine(self) -> OrderingInstance:
        return self.engines[self.master_instance]

    # ----------------------------------------------------------------- routing
    def on_network_message(self, msg: Message) -> None:
        routes = self._routes
        handler = routes.get(msg.__class__)
        if handler is None:
            # First sight of this exact class: one of the many
            # OrderingMessage leaves, or traffic this node ignores.  The
            # binding is cached for every later message of the class.
            if isinstance(msg, OrderingMessage):
                handler = self._route_ordering
            else:
                handler = self._route_ignore
            routes[msg.__class__] = handler
        handler(msg)

    def _route_request(self, msg: Message) -> None:
        self._receive_request(msg.request)

    def _route_propagate(self, msg: Message) -> None:
        # The MAC covers the request digest, so the Propagation module
        # only checks the small header here.  For a first-sight request
        # the full payload is hashed exactly once — on the Verification
        # core, inside the signature check (the same hash serves both).
        self.propagation_core.submit(self._propagate_rx_cost, self._on_propagate, msg)

    def _route_ordering(self, msg: Message) -> None:
        if 0 <= msg.instance < len(self.engines):
            self.engines[msg.instance].receive(msg)

    def _route_instance_batch(self, msg: Message) -> None:
        # One envelope, one outer authenticator, ONE core task: the
        # aggregated receive cost (summed per-instance run costs, memoised
        # on the immutable envelope — every receiver of a deployment
        # shares one config) is charged on the first enveloped instance's
        # core, so the module cores and the master's replica core never
        # see backup traffic.
        if not msg.authenticator.valid_for(self.name):
            self._note_invalid(msg.sender)
            return
        engines = self.engines
        runs = msg.runs()
        first = runs[0][0]
        if not 0 <= first < len(engines):
            return
        cost = msg._rx_cost
        if cost is None:
            cost = sum(
                engines[instance].batch_rx_cost(run)
                for instance, run in runs
                if 0 <= instance < len(engines)
            )
            msg._rx_cost = cost
        engines[first].core.submit(cost, self._dispatch_envelope, msg)

    def _dispatch_envelope(self, msg: InstanceBatchMsg) -> None:
        # One sender per envelope: its vote bit in the sender universe
        # the engines share is resolved once, here.
        bit = self.machine.cluster.senders.bit(msg.sender)
        OrderingInstance.dispatch_envelope(self.engines, msg.runs(), msg.sender, bit)

    def _flush_cert_batch(self, batch: List[OrderingMessage]) -> None:
        """Coalescer flush: one window of backup certificates, one send."""
        if len(batch) == 1:
            # A lone message needs no envelope — ship it exactly as the
            # unbatched path would.
            self.machine.broadcast_to_nodes(batch[0])
        else:
            self.machine.broadcast_to_nodes(
                InstanceBatchMsg(self.name, batch, self._auth)
            )

    def _route_instance_change(self, msg: Message) -> None:
        cost = self._auth_rx_cost(msg.wire_size())
        self.dispatch_core.submit(cost, self._on_instance_change, msg)

    def _route_flood(self, msg: Message) -> None:
        # Junk traffic: pay the MAC check, then count the sender.
        cost = self._auth_rx_cost(msg.wire_size())
        self.propagation_core.submit(cost, self._note_invalid, msg.sender)

    def _route_ignore(self, msg: Message) -> None:
        pass

    # -------------------------------------------------- Verification module
    def _signature_check_wanted(self, request: Request) -> bool:
        request_id = request.request_id
        if request_id in self._propagated:
            return False  # already verified via a PROPAGATE
        if request_id in self._sig_inflight:
            return False  # a signature check for this request is already queued
        self._sig_inflight.add(request_id)
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "node.stage", self.name,
                stage="verification.sig", client=request.client,
            )
        return True

    def _after_request_signature(self, request: Request) -> None:
        self._sig_inflight.discard(request.request_id)
        super()._after_request_signature(request)

    # --------------------------------------------------- Propagation module
    def _on_request_verified(self, request: Request) -> None:
        """A verified body (client copy or PROPAGATE): propagate it."""
        request_id = request.request_id
        if request_id in self._propagated:
            return
        self._propagated.add(request_id)
        self.request_store.setdefault(request_id, request)
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "node.stage", self.name,
                stage="propagation", client=request.client,
            )
        if self.propagate_silent:
            self._register_propagate(request_id, self.name)
        else:
            # TCP point-to-point PROPAGATEs: one MAC pass per recipient.
            msg = PropagateMsg(self.name, request, self._auth)
            size = msg.wire_size()
            cost = self._propagate_tx_costs.get(size)
            if cost is None:
                cost = (self.config.n - 1) * self.costs.mac_gen(size)
                self._propagate_tx_costs[size] = cost
            self.propagation_core.submit(cost, self._emit_propagate, msg)
        # The quorum may already be complete if f+1 PROPAGATEs beat the
        # signature check; the body is stored now, so dispatch can proceed.
        if self._propagate_votes.complete(request_id):
            self._maybe_dispatch(request_id)

    def _emit_propagate(self, msg: PropagateMsg) -> None:
        self.machine.broadcast_to_nodes(msg)
        self._register_propagate(msg.request.request_id, self.name)

    def _on_propagate(self, msg: PropagateMsg) -> None:
        if not msg.authenticator.valid_for(self.name):
            self._note_invalid(msg.sender)
            return
        request = msg.request
        request_id = request.request_id
        if (
            not self._register_propagate(request_id, msg.sender)
            or request_id in self._propagated
        ):
            return
        # First sight of this request: the Verification module checks the
        # client signature before this node echoes the PROPAGATE (§IV-B
        # step 2); the in-flight set dedups against the direct client copy.
        if request_id in self._sig_inflight:
            return
        self._sig_inflight.add(request_id)
        cost = self._sig_verify_cost(request.wire_size())
        self.verification_core.submit(cost, self._after_propagate_signature, msg)

    def _after_propagate_signature(self, msg: PropagateMsg) -> None:
        request = msg.request
        request_id = request.request_id
        self._sig_inflight.discard(request_id)
        if not request.signature.valid:
            # A correct replica checks a body before echoing it, so a
            # forged PROPAGATE proves its sender faulty (§V).
            self._note_invalid(msg.sender)
            # Votes are counted before this check and keys leave only at
            # ordering, so a lone vote on a body-less key is the failing
            # sender's own: drop it, or every fresh id forged by one
            # replica would stay in the table forever.
            if (
                self._propagate_votes.count(request_id) == 1
                and request_id not in self.request_store
            ):
                self._propagate_votes.discard(request_id)
            return
        self._on_request_verified(request)

    def _register_propagate(self, request_id, sender: str) -> bool:
        """Count one PROPAGATE; False iff the request already executed.

        Executed implies the quorum completed and was garbage-collected
        (or is about to be); a straggling PROPAGATE must not seed a
        fresh quorum that could re-dispatch the request.  Only a fresh
        key needs the question: a request executes only after its quorum
        completed, and a vote on a complete key is a no-op.
        """
        if request_id not in self._vote_keys and request_id in self.executed_ids:
            return False
        if self._propagate_votes.add(request_id, sender):
            self._maybe_dispatch(request_id)
        return True

    def _maybe_dispatch(self, request_id) -> None:
        """Dispatch once f+1 PROPAGATEs *and* the request body are in."""
        if request_id in self.ready_ids:
            return
        if request_id in self.request_store:
            self.dispatch_core.submit(
                self.config.rx_overhead, self._dispatch_ready, request_id
            )

    # ------------------------------------------- Dispatch & Monitoring module
    def _dispatch_ready(self, request_id) -> None:
        """f+1 PROPAGATEs collected: give the request to the replicas."""
        if request_id in self.ready_ids:
            return
        request = self.request_store.get(request_id)
        if request is None:
            return
        self._given_at[request_id] = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "node.stage", self.name,
                stage="dispatch", client=request.client,
            )
        if self.config.order_full_requests:
            item = request  # ablation: instances carry whole requests
        else:
            item = request.identifier()
        for engine in self.engines:
            engine.submit(item)
            engine.recheck_guards()

    def _propagation_guard(self, items: Tuple) -> bool:
        """A replica pre-prepares only requests backed by f+1 PROPAGATEs.

        Executed requests passed the guard once already (dispatch implied
        a complete PROPAGATE quorum), so they still qualify after their
        ``ready_ids`` entry is garbage-collected.
        """
        ready = self.ready_ids
        for item in items:
            request_id = item.request_id
            if request_id not in ready and request_id not in self.executed_ids:
                return False
        return True

    def _on_instance_ordered(self, instance: int, seq: int, items: Tuple) -> None:
        self.monitor.count_ordered(instance, len(items))
        if self._instance_history is not None:
            self._instance_history[instance].append(items)
        now = self.sim.now
        master = instance == self.master_instance
        for item in items:
            request_id = item.request_id
            given = self._given_at.get(request_id)
            if given is not None:
                latency = now - given
                self.monitor.record_latency(instance, item.client, latency)
                if master:
                    self.monitor.check_request_latency(item.client, latency)
            seen = self._ordered_by.get(request_id, 0) + 1
            if seen >= len(self.engines):
                # Every instance has ordered this request, so none of the
                # propagation-stage memos can be consulted usefully again:
                # re-entry is blocked by ``executed_ids`` (the durable
                # per-client watermarks) at every path that matters.
                self._ordered_by.pop(request_id, None)
                self._given_at.pop(request_id, None)
                self._propagated.discard(request_id)
                self._propagate_votes.discard(request_id)
            else:
                self._ordered_by[request_id] = seen
        if master:
            self._execute_items(items)

    def _on_instance_ordered_batched(self, instance: int, seq: int, items: Tuple) -> None:
        """Ordered-batch bookkeeping above the pacing threshold.

        The master instance stays exact: per-request latency feeds the
        Λ/Ω checks and execution proceeds as usual.  Backup instances are
        summarised — the monitor's exact ``nbreqs`` counters (the Δ test
        input) still tick per batch, but the per-request latency samples
        and the all-instances-ordered memo GC are replaced by a
        constant-size per-view progress summary.  Propagation memos are
        garbage-collected at master execution instead: the propagation
        guard accepts executed ids, so a backup ordering after the master
        still passes its pre-prepare guard.
        """
        monitor = self.monitor
        monitor.count_ordered(instance, len(items))
        monitor.note_progress(
            instance, self.engines[instance].view, seq, len(items)
        )
        if instance != self.master_instance:
            return
        now = self.sim.now
        given_at = self._given_at
        for item in items:
            request_id = item.request_id
            given = given_at.pop(request_id, None)
            if given is not None:
                latency = now - given
                monitor.record_latency(instance, item.client, latency)
                monitor.check_request_latency(item.client, latency)
            self._propagated.discard(request_id)
            self._propagate_votes.discard(request_id)
        self._execute_items(items)

    def _monitor_tick(self) -> None:
        self.sim.call_after(self.config.monitoring_period, self._monitor_tick)
        self.monitor.tick()
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "pbft.log-size", self.name,
                **self.log_sizes(),
            )

    # ------------------------------------------------------ Execution module
    def _execute_items(self, items: Tuple) -> None:
        store = self.request_store
        for item in items:
            # No body: executed earlier (the store empties at execution);
            # a never-stored body is unreachable: f+1 PROPAGATEs imply we
            # hold it.
            request = store.get(item.request_id)
            if request is not None:
                self._execute(request)

    def _execute_one(self, request: Request) -> None:
        super()._execute_one(request)
        self.request_store.pop(request.request_id, None)

    # ------------------------------------------------ Instance change (§IV-D)
    def _on_monitor_trigger(self, reason: str) -> None:
        self.vote_instance_change(reason)

    def _preferred_master(self) -> int:
        """Best-backup promotion: pick the fastest instance we measured."""
        if not self.config.promote_best_backup:
            return self.master_instance
        rates = self.monitor.last_rates
        # Stability tie-break: keep the current master unless a backup is
        # strictly faster.
        best = max(
            range(len(rates)),
            key=lambda k: (rates[k], k == self.master_instance, -k),
        )
        return best if rates[best] > 0 else self.master_instance

    def vote_instance_change(self, reason: str = "", choice: Optional[int] = None) -> None:
        """Send INSTANCE-CHANGE for the current cpi.

        One vote per round, except that a node adopts another choice of
        new master once f+1 nodes (hence a correct one) back it — this is
        how promotion votes converge when measurements differ slightly.
        """
        if choice is None:
            choice = self._preferred_master()
        if self._voted_choice.get(self.cpi) == choice:
            return
        if self.cpi in self._voted_choice and choice != self._voted_choice[self.cpi]:
            # Re-vote only as an adoption of a better-supported choice.
            if self._ic_votes.count((self.cpi, choice)) <= self.config.f:
                return
        self._voted_choice[self.cpi] = choice
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "node.ic-vote", self.name,
                reason=reason, cpi=self.cpi, choice=choice,
            )
        msg = InstanceChangeMsg(
            self.name, self.cpi, self._auth, preferred_master=choice
        )
        cost = self.costs.authenticator_gen(msg.wire_size(), self.config.n - 1)
        self.dispatch_core.submit(cost, self.machine.broadcast_to_nodes, msg)
        if self._ic_votes.add((self.cpi, choice), self.name):
            self._perform_instance_change(self.cpi, choice)

    def _on_instance_change(self, msg: InstanceChangeMsg) -> None:
        if not msg.authenticator.valid_for(self.name):
            self._note_invalid(msg.sender)
            return
        if msg.cpi < self.cpi:
            return  # stale vote for a previous round (§IV-D)
        key = (msg.cpi, msg.preferred_master)
        completed = self._ic_votes.add(key, msg.sender)
        if completed:
            self._perform_instance_change(msg.cpi, msg.preferred_master)
            return
        # Join the vote only if this node also observes a violation, or
        # f+1 others (hence at least one correct node) already voted.
        support = self._ic_votes.count(key)
        if msg.cpi not in self._voted_choice and (
            self.monitor.observes_breach() or support > self.config.f
        ):
            choice = msg.preferred_master if support > self.config.f else None
            # "join-breach": this node's own monitor also saw a violation;
            # "join-support": it trusts the f+1 (≥1 correct) votes instead.
            reason = "join-breach" if self.monitor.observes_breach() else "join-support"
            self.vote_instance_change(reason, choice=choice)
        elif support > self.config.f and self._voted_choice.get(msg.cpi) != msg.preferred_master:
            self.vote_instance_change("adopt", choice=msg.preferred_master)

    def _perform_instance_change(self, cpi: int, new_master: int) -> None:
        """2f+1 matching INSTANCE-CHANGEs: rotate every primary at once.

        In promotion mode the agreed ``new_master`` instance takes over
        execution; its delivery backlog is replayed so no request ordered
        by the new master but not by the old one is lost.
        """
        if cpi < self.cpi:
            return
        self.cpi = cpi + 1
        self.instance_changes += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "node.instance-change", self.name,
                cpi=cpi, master=new_master,
            )
        if (
            self.config.promote_best_backup
            and new_master != self.master_instance
            and 0 <= new_master < len(self.engines)
        ):
            self.master_instance = new_master
            self.monitor.master = new_master
            if self._instance_history is not None:
                for items in self._instance_history[new_master]:
                    self._execute_items(items)
        # Votes and choices for completed rounds are dead state: every
        # read path rejects ``cpi < self.cpi`` first.
        self._ic_votes.prune(lambda key: key[0] < self.cpi)
        for stale in [c for c in self._voted_choice if c < self.cpi]:
            del self._voted_choice[stale]
        if self._instance_history is not None:
            # Replaying a fully executed batch is a no-op, so only batches
            # with at least one unexecuted request need to be retained for
            # future promotions.
            executed = self.executed_ids
            self._instance_history = [
                [
                    batch
                    for batch in history
                    if any(item.request_id not in executed for item in batch)
                ]
                for history in self._instance_history
            ]
        self.monitor.reset_after_change()
        for engine in self.engines:
            engine.start_view_change(engine.view + 1)

    # ------------------------------------------------- flooding defence (§V)
    def _note_invalid(self, sender: str) -> None:
        if not sender.startswith("node"):
            return  # client floods arrive on the shared client NIC
        nic = self.machine.peer_nics.get(sender)
        if nic is None:
            return
        window = self._invalid_times.setdefault(sender, deque())
        now = self.sim.now
        window.append(now)
        horizon = now - self.config.flood_window
        while window and window[0] < horizon:
            window.popleft()
        if len(window) >= self.config.flood_threshold:
            nic.close(self.config.nic_close_duration)
            self.nics_closed += 1
            window.clear()

    # -------------------------------------------------------------- inspection
    def log_sizes(self) -> Dict[str, int]:
        """Per-request memo sizes plus the largest engine protocol log.

        ``total`` is the worst per-instance protocol-log size across the
        f+1 local engines (the quantity the checkpoint garbage collector
        bounds); the remaining fields size the node's own propagation and
        instance-change state.  ``request_store`` empties itself at
        execution; ``executed_ids`` reports how many distinct requests
        have executed — the replay-dedup state itself is one watermark
        per client (:class:`~repro.common.executed.ExecutedIds`), so it
        needs no collector.
        """
        history = 0
        if self._instance_history is not None:
            history = sum(len(h) for h in self._instance_history)
        sizes = {
            "total": max(e.log_sizes()["total"] for e in self.engines),
            "propagated": len(self._propagated),
            "ready_ids": len(self.ready_ids),
            "propagate_votes": len(self._propagate_votes),
            "ordered_by": len(self._ordered_by),
            "given_at": len(self._given_at),
            "request_store": len(self.request_store),
            "ic_votes": len(self._ic_votes),
            "instance_history": history,
            "executed_ids": len(self.executed_ids),
        }
        if self._cert_coalescer is not None:
            # Only on the batched path: the key must not appear in exact
            # runs, whose traced log-size emissions are pinned by the
            # replay digests.
            sizes["cert_coalescer"] = self._cert_coalescer.pending
        return sizes

    def __repr__(self) -> str:
        return "RBFTNode(%s, cpi=%d, executed=%d)" % (
            self.name,
            self.cpi,
            self.executed_count,
        )
