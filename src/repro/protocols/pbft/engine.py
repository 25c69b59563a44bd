"""The three-phase ordering engine (PRE-PREPARE / PREPARE / COMMIT).

This is the consensus core every protocol in the repository runs:

* **Aardvark** runs one engine per node with full-request batches and
  monitoring-driven regular view changes;
* **Spinning** runs one engine per node in *auto-advance* mode, where the
  view (and therefore the primary) rotates after every ordered batch;
* **RBFT** runs f+1 engines per node (one per protocol instance), with
  identifier batches, a PROPAGATE guard, and view changes driven only by
  the instance-change mechanism (§IV-A: "a protocol instance does not
  proceed to a view change by its own").

The engine is an actor: all CPU work (authenticating and verifying
messages) is charged to the single core it is pinned on, so a saturated
instance queues exactly like the paper's per-replica processes.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.batching import Batcher
from repro.common.quorum import SenderUniverse, VectorQuorumTracker
from repro.crypto.costmodel import DIGEST_SIZE, CryptoCostModel
from repro.crypto.primitives import Digest, MacAuthenticator
from repro.sim.engine import Simulator
from repro.sim.resources import Core

from .messages import (
    Checkpoint,
    Commit,
    NewView,
    OrderingMessage,
    PrePrepare,
    Prepare,
    ViewChange,
    batch_payload_size,
)

__all__ = ["InstanceConfig", "OrderingInstance", "RequestPool"]

#: what an engine's fault-path containers hold until their first write:
#: shared and read-only, so a write site that forgot to allocate raises.
_NO_ENTRIES = MappingProxyType({})
_NO_ITEMS = ()


@dataclass(frozen=True)
class InstanceConfig:
    """Tuning knobs of one ordering instance."""

    f: int = 1
    batch_size: int = 64
    batch_delay: float = 1e-3
    checkpoint_interval: int = 128
    watermark_window: int = 1024  # batches admissible above the low watermark
    rx_overhead: float = 1.5e-6  # per-message handling cost (syscalls etc.)
    full_payload: bool = True  # order full requests (False: identifiers)
    auto_advance_view: bool = False  # Spinning: rotate primary per batch
    #: UDP-multicast deployments authenticate the single transmitted
    #: packet with one digest-based authenticator instead of one full
    #: MAC pass per recipient (Spinning, §VI-B).
    multicast_auth: bool = False

    def __post_init__(self) -> None:
        if self.f < 1:
            raise ValueError("an ordering instance needs f >= 1 (got f=%d)" % self.f)
        # Values that break a run rather than slow it: an empty batch, a
        # negative delay, no checkpoint, no admissible sequence number.
        for knob, floor in (("batch_size", 1), ("batch_delay", 0),
                            ("checkpoint_interval", 1), ("watermark_window", 1)):
            value = getattr(self, knob)
            if value < floor:
                raise ValueError("%s must be at least %s, got %r" % (knob, floor, value))

    @property
    def n(self) -> int:
        return 3 * self.f + 1

    @property
    def prepare_quorum(self) -> int:
        return 2 * self.f

    @property
    def commit_quorum(self) -> int:
        return 2 * self.f + 1

    @property
    def vc_quorum(self) -> int:
        return 2 * self.f + 1


class _Slot:
    """Per-sequence-number log record carrying its own certificates.

    Bound to the ``(view, digest)`` of the pre-prepare that opened it;
    ``prepares``/``commits`` are the sender bitmasks of the votes for
    exactly that binding, complemented (negative) once their quorum has
    fired — the :class:`VectorQuorumTracker` encoding.  Votes for any
    other ``(view, digest)`` at the same sequence number wait in the
    same shape, ``items`` still ``None``, in ``OrderingInstance._stray``.
    """

    __slots__ = ("view", "digest", "items", "prepares", "commits", "prepared", "committed")

    def __init__(self, view: int, digest: Digest):
        self.view = view
        self.digest = digest
        self.items: Optional[Tuple] = None  # set when a pre-prepare binds it
        self.prepares = self.commits = 0
        self.prepared = self.committed = False


def _tally(mask: int, bit: int, quorum: int) -> int:
    """OR ``bit`` into a vote mask; complement it once ``quorum`` is met."""
    if mask < 0:
        return mask  # already fired
    mask |= bit
    return ~mask if mask.bit_count() >= quorum else mask


class RequestPool:
    """What the f + 1 local replicas of one node hold in common, once.

    The node hands every request to all of its instances, so their pools
    hold the same ids: ``pending`` maps ``request_id`` to ``[item,
    mask]`` and ``ordered`` maps it to ``mask``, where bit ``1 <<
    instance`` says that instance still awaits (has ordered) the request.
    A key lives while any instance's bit is set.  Each engine reads and
    writes only its own bit and keeps its own counts, so per-instance
    behaviour is that of a private dict and set — except that a new
    primary re-proposes in the order requests reached the *node*.  The
    per-size cost memos are pure in ``(costs, config)`` and shared the
    same way.  An engine built without a pool makes a private one.
    """

    __slots__ = ("pending", "ordered", "_size_costs")

    def __init__(self) -> None:
        self.pending: Dict = {}
        self.ordered: Dict = {}
        self._size_costs: Dict = {}

    def size_costs(self, costs: CryptoCostModel, config: InstanceConfig):
        """The (PRE-PREPARE receive, batch send) cost-by-payload memos."""
        return self._size_costs.setdefault((costs, config), ({}, {}))


def _ignore(*args) -> None:
    """Default ``on_ordered`` / ``on_view_entered``: nobody listens."""


class OrderingInstance:
    """One replica of one protocol instance.

    Slotted: a deployment holds n·(f + 1) of these, and behaviour is
    customised through the declared hooks only.

    Fault-path state is built on first write.  ``_stray``,
    ``_stray_owners``, ``_vc_votes`` and ``_future_held`` start as one
    shared read-only empty mapping, ``_waiting_guard``, ``_future`` and
    ``_held`` as ``()``: a fault-free run never writes them, and at
    n = 100 the 3 400 engines would otherwise hold seven empty
    containers each.  Every read path reads the empty as it is; a write
    site that forgot to allocate raises instead of polluting the shared
    object.  ``batcher`` is built on first need, since only a primary
    fills one.
    """

    __slots__ = (
        "sim", "core", "transport", "config", "costs", "replica", "index",
        "instance", "on_ordered", "guard", "on_view_entered", "primary_offset",
        "view", "active", "seq_assigned", "low_watermark", "next_exec", "log",
        "_pending", "_ordered", "_pool_bit", "_pending_count", "_ordered_count",
        "_stray", "_stray_owners", "_prepare_quorum", "_commit_quorum", "_senders",
        "_own_bit", "_checkpoint_votes", "_vc_votes", "_vc_voted_for", "pending_view",
        "_waiting_guard", "_future", "_future_held", "_held", "_batcher",
        "primary_selector", "preprepare_delay_fn", "submit_delay_fn", "silent",
        "on_invalid", "ordered_batches", "ordered_items", "view_changes",
        "_auth", "_cert_send_cost", "_small_rx_cost",
        "_preprepare_rx_costs", "_batch_send_costs", "_primary_name_view",
        "_primary_name",
    )

    #: buffered future-view messages per engine; each of the n senders
    #: may hold an equal share of it.
    FUTURE_CAPACITY = 4096

    def __init__(
        self,
        sim: Simulator,
        core: Core,
        transport,
        config: InstanceConfig,
        costs: CryptoCostModel,
        replica: str,
        instance: int = 0,
        on_ordered: Optional[Callable[[int, Tuple], None]] = None,
        guard: Optional[Callable[[Tuple], bool]] = None,
        on_view_entered: Optional[Callable[[int], None]] = None,
        primary_offset: Optional[int] = None,
        senders: Optional[SenderUniverse] = None,
        pool: Optional[RequestPool] = None,
    ):
        self.sim = sim
        self.core = core
        self.transport = transport
        self.config = config
        self.costs = costs
        self.replica = replica  # e.g. "node2"
        self.index = int(replica.replace("node", ""))
        self.instance = instance
        self.on_ordered = on_ordered or _ignore
        self.guard = guard
        self.on_view_entered = on_view_entered or _ignore
        # RBFT places primaries so at most one runs per node (§IV-A).
        self.primary_offset = instance if primary_offset is None else primary_offset

        self.view = 0
        self.active = True
        self.seq_assigned = 0
        self.low_watermark = 0
        self.next_exec = 1
        self.log: Dict[int, _Slot] = {}
        # Requests awaiting ordering and ordered ids: this instance's bit
        # in the node's pool (see ``RequestPool``), counted here.
        if pool is None:
            pool = RequestPool()
        self._pending = pool.pending
        self._ordered = pool.ordered
        self._pool_bit = 1 << instance
        self._pending_count = 0
        self._ordered_count = 0
        # PREPARE/COMMIT votes live on the log slot they certify (see
        # ``_Slot``); ``_stray`` holds those for any other (view, seq,
        # digest), and ``_stray_owners`` the mask of senders that
        # allocated one at each (view, seq).  Sender bits come from the
        # cluster-wide universe when there is one: interned once per
        # deployment, not per engine.  Fault-path state: see the class
        # docstring.
        self._stray: Dict[Tuple[int, int, Digest], _Slot] = _NO_ENTRIES
        self._stray_owners: Dict[Tuple[int, int], int] = _NO_ENTRIES
        self._prepare_quorum = config.prepare_quorum
        self._commit_quorum = config.commit_quorum
        self._senders = SenderUniverse() if senders is None else senders
        self._own_bit = self._senders.bit(replica)
        self._checkpoint_votes = VectorQuorumTracker(config.commit_quorum, self._senders)
        self._vc_votes: Dict[int, Dict[str, ViewChange]] = _NO_ENTRIES
        self._vc_voted_for = 0
        self.pending_view: Optional[int] = None
        self._waiting_guard: List[PrePrepare] = _NO_ITEMS
        self._future: List[OrderingMessage] = _NO_ITEMS  # messages from views ahead
        self._future_held: Dict[str, int] = _NO_ENTRIES  # sender -> how many of them
        self._held: List[Tuple] = _NO_ITEMS  # own batches above the window
        self._batcher: Optional[Batcher] = None  # see ``batcher``

        #: optional override of the view→primary mapping (Spinning skips
        #: blacklisted replicas in its rotation).
        self.primary_selector: Optional[Callable[[int], int]] = None

        # Attack hooks ----------------------------------------------------
        #: extra delay a malicious primary inserts before each PRE-PREPARE;
        #: receives the outgoing message (for rate pacing by batch size).
        self.preprepare_delay_fn: Optional[Callable[[PrePrepare], float]] = None
        #: extra delay before ``submit`` pools an item (an unfair primary
        #: starving one client, §VI-C-3); receives the item.
        self.submit_delay_fn: Optional[Callable[[object], float]] = None
        #: a silent faulty replica sends nothing at all (worst-attack-1).
        self.silent = False
        #: called with the sender id when a message fails verification
        #: (the node uses this to detect and isolate flooding peers).
        self.on_invalid: Optional[Callable[[str], None]] = None

        # Counters ---------------------------------------------------------
        self.ordered_batches = 0
        self.ordered_items = 0
        self.view_changes = 0

        # Hot-path constants (cf. RBFTNode._propagate_rx_cost): the cost
        # model is pure and the authenticator immutable, so everything
        # that does not depend on the message is computed once here and
        # per-size results are memoised in the node's pool.
        self._auth = MacAuthenticator.for_signer(replica)
        self._cert_send_cost = costs.authenticator_gen(DIGEST_SIZE, config.n - 1)
        self._small_rx_cost = (
            costs.authenticator_verify(DIGEST_SIZE) + config.rx_overhead
        )
        self._preprepare_rx_costs, self._batch_send_costs = pool.size_costs(
            costs, config
        )
        self._primary_name_view = -1
        self._primary_name = ""

    # ------------------------------------------------------------ identity
    @property
    def trace_name(self) -> str:
        """Trace identity, e.g. "node2/i1": built on read, as only tracing reads it."""
        return "%s/i%d" % (self.replica, self.instance)

    @property
    def batcher(self) -> Batcher:
        """The request batcher, built on first need: only a primary fills one."""
        if self._batcher is None:
            self._batcher = Batcher(self.sim, self.config.batch_size,
                                    self.config.batch_delay, self._flush_batch)
        return self._batcher

    def primary_index(self, view: Optional[int] = None) -> int:
        view = self.view if view is None else view
        if self.primary_selector is not None:
            return self.primary_selector(view)
        return (view + self.primary_offset) % self.config.n

    def primary_name(self, view: Optional[int] = None) -> str:
        # Asked once per PREPARE and (via ``is_primary``) once per pooled
        # item, so the round-robin case is cached per view.  A custom
        # selector (Spinning consults a mutable blacklist) never is.
        view = self.view if view is None else view
        if self.primary_selector is not None:
            return "node%d" % self.primary_selector(view)
        if view != self._primary_name_view:
            self._primary_name_view = view
            self._primary_name = "node%d" % ((view + self.primary_offset) % self.config.n)
        return self._primary_name

    @property
    def is_primary(self) -> bool:
        return self.primary_name() == self.replica

    # ------------------------------------------------------------- ingress
    def submit(self, item, delayed: bool = False) -> None:
        """Hand a verified request (or identifier) to this replica.

        Every replica pools the item; the current primary additionally
        feeds its batcher.  ``delayed`` marks the re-entry after the
        delay ``submit_delay_fn`` asked for.
        """
        if self.submit_delay_fn is not None and not delayed:
            delay = self.submit_delay_fn(item)
            if delay > 0:
                self.sim.call_after(delay, self.submit, item, True)
                return
        request_id = item.request_id
        bit = self._pool_bit
        ordered = self._ordered
        if request_id in ordered and ordered[request_id] & bit:
            return
        entry = self._pending.get(request_id)
        if entry is None:
            self._pending[request_id] = [item, bit]
        elif entry[1] & bit:
            return
        else:
            entry[1] |= bit
        self._pending_count += 1
        if self.is_primary and self.active and not self.silent:
            (self._batcher or self.batcher).add(item)

    def recheck_guards(self) -> None:
        """Re-test buffered pre-prepares whose guard previously failed."""
        if not self._waiting_guard or self.guard is None:
            return
        waiting, self._waiting_guard = self._waiting_guard, []
        for msg in waiting:
            if self.guard(msg.items):
                self._accept_preprepare(msg)
            else:
                self._waiting_guard.append(msg)

    # ----------------------------------------------------------- batching
    def _flush_batch(self, items: List) -> None:
        if not self.is_primary or not self.active or self.silent:
            bit = self._pool_bit
            for item in items:  # lost leadership while batching: re-pool
                entry = self._pending.setdefault(item.request_id, [item, 0])
                if not entry[1] & bit:
                    entry[1] |= bit
                    self._pending_count += 1
            return
        seen = set()
        unique = []
        ordered, bit = self._ordered, self._pool_bit
        for item in items:
            request_id = item.request_id
            if ordered.get(request_id, 0) & bit or request_id in seen:
                continue
            seen.add(request_id)
            unique.append(item)
        items = tuple(unique)
        if not items:
            return
        if self.config.auto_advance_view:
            # Spinning: one batch per leadership turn, then rotate.
            self.batcher.pause()
        seq = self.seq_assigned + 1
        if seq > self.low_watermark + self.config.watermark_window:
            # Backups drop a pre-prepare above the high watermark and
            # nothing re-sends it: hold the batch until a stable
            # checkpoint moves the window (``_stabilize``).
            if self._held is _NO_ITEMS:
                self._held = []
            self._held.append(items)
            return
        self.seq_assigned = seq
        digest = self._batch_digest(seq, items)
        payload = batch_payload_size(items, self.config.full_payload)
        msg = PrePrepare(
            self.replica,
            self.instance,
            self.view,
            seq,
            items,
            digest,
            payload,
            self._auth,
        )
        # PBFT-lineage implementations MAC the whole ordering message once
        # per recipient (no digest shortcut) — this is what makes ordering
        # full requests expensive and identifier ordering cheap (§VI-B).
        # Multicast deployments hash the single packet once instead.
        cost = self._batch_send_costs.get(payload)
        if cost is None:
            if self.config.multicast_auth:
                cost = self.costs.authenticator_gen(payload, self.config.n - 1)
            else:
                cost = (self.config.n - 1) * self.costs.mac_gen(payload)
            self._batch_send_costs[payload] = cost
        delay = self.preprepare_delay_fn(msg) if self.preprepare_delay_fn else 0.0
        self.core.submit(cost, self._send_preprepare, msg, delay)

    def _send_preprepare(self, msg: PrePrepare, delay: float) -> None:
        if delay > 0:
            self.sim.call_after(delay, self._emit_preprepare, msg)
        else:
            self._emit_preprepare(msg)

    def _emit_preprepare(self, msg: PrePrepare) -> None:
        if msg.view != self.view or not self.active:
            return  # a view change overtook the delayed send
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "pbft.phase", self.trace_name,
                phase="pre-prepare", seq=msg.seq, view=msg.view,
                items=len(msg.items),
            )
        self.transport.broadcast(msg)
        self._record_preprepare(msg)

    def _batch_digest(self, seq: int, items: Tuple) -> Digest:
        return Digest(
            ("batch", self.instance, seq, tuple(item.request_id for item in items))
        )

    # ------------------------------------------------------------- receive
    def receive(self, msg: OrderingMessage) -> None:
        """Entry point from the node's router: charge CPU, then dispatch."""
        cls = msg.__class__
        if cls is PrePrepare:
            payload = msg.payload_size
            cost = self._preprepare_rx_costs.get(payload)
            if cost is None:
                if self.config.multicast_auth:
                    cost = self.costs.authenticator_verify(payload)
                else:
                    cost = self.costs.mac_verify(payload)
                cost = cost + self.config.rx_overhead
                self._preprepare_rx_costs[payload] = cost
        elif cls is ViewChange or cls is NewView:
            cost = self.costs.sig_verify(msg.wire_size()) + self.config.rx_overhead
        else:
            # Prepare / Commit / Checkpoint: fixed-size digest payloads.
            cost = self._small_rx_cost
        self.core.submit(cost, self._dispatch, msg)

    def batch_rx_cost(self, messages: List[OrderingMessage]) -> float:
        """CPU cost of receiving a coalesced certificate run.

        One authenticator pass over the summed payload — the run shares
        a single MAC vector inside its envelope — plus the per-message
        handling overhead.  The node layer sums the per-instance run
        costs of an envelope and charges them as one task.
        """
        payload = sum(
            msg.payload_size if msg.__class__ is PrePrepare else DIGEST_SIZE
            for msg in messages
        )
        return (
            self.costs.authenticator_verify(payload)
            + self.config.rx_overhead * len(messages)
        )

    def dispatch_batch(self, messages, sender=None, bit=None) -> None:
        """Handle one coalesced run; the caller has charged the CPU cost."""
        self.dispatch_envelope((self,), ((0, messages),), sender, bit)

    @staticmethod
    def dispatch_envelope(engines, runs, sender=None, bit=None) -> None:
        """Handle the per-instance ``runs`` of one certificate envelope.

        Per-message protocol semantics are unchanged; PREPARE/COMMIT
        with a valid inner authenticator — all but a handful — skip
        :meth:`_dispatch` and go straight to their handlers.  An
        envelope has one ``sender``: its receiver resolves that sender's
        ``bit`` in the ``SenderUniverse`` the engines share once, and an
        inner message naming another sender resolves its own.
        """
        for instance, run in runs:
            if not 0 <= instance < len(engines):
                continue
            engine = engines[instance]
            for msg in run:
                cls = msg.__class__
                auth = msg.authenticator
                if (cls is Prepare or cls is Commit) and (
                    auth.invalid_for is None or auth.valid_for(engine.replica)
                ):
                    handler = engine._on_prepare if cls is Prepare else engine._on_commit
                    handler(msg, bit if msg.sender is sender else None)
                else:
                    engine._dispatch(msg)

    def _dispatch(self, msg: OrderingMessage) -> None:
        if not msg.authenticator.valid_for(self.replica):
            if self.on_invalid is not None:
                self.on_invalid(msg.sender)
            return  # verification failed: the CPU cost is already paid
        handler = self._HANDLERS.get(msg.__class__)
        if handler is not None:
            handler(self, msg)

    # ------------------------------------------------------- future buffer
    def _buffer_future(self, msg) -> None:
        """Hold messages from views we have not reached yet.

        Replicas advance views at slightly different times (notably under
        Spinning's per-batch rotation); without buffering, a lagging
        replica would drop the next view's PRE-PREPARE and deadlock.
        """
        held = self._future_held.get(msg.sender, 0)
        if (
            held < self.FUTURE_CAPACITY // self.config.n
            and len(self._future) < self.FUTURE_CAPACITY
        ):
            if self._future is _NO_ITEMS:
                self._future, self._future_held = [], {}
            self._future_held[msg.sender] = held + 1
            self._future.append(msg)

    def _replay_future(self) -> None:
        if not self._future:
            return
        ready = [m for m in self._future if m.view <= self.view]
        if not ready:
            return
        self._future = [m for m in self._future if m.view > self.view]
        for msg in ready:
            self._future_held[msg.sender] -= 1
        for msg in ready:
            self._dispatch(msg)

    # --------------------------------------------------------- pre-prepare
    def _on_preprepare(self, msg: PrePrepare) -> None:
        if msg.view > self.view:
            self._buffer_future(msg)
            return
        if (
            msg.view != self.view
            or not self.active
            or msg.sender != self.primary_name(msg.view)
            or msg.sender == self.replica
        ):
            return
        floor = self.low_watermark
        if self.next_exec - 1 > floor:
            # After a weak-checkpoint state transfer (``_catch_up``) the
            # execution frontier can sit above ``low_watermark + 1``; a
            # pre-prepare for an already-executed sequence number below it
            # must not re-enter the log (it would never drain and would
            # trigger redundant PREPARE/COMMIT traffic).
            floor = self.next_exec - 1
        if not (floor < msg.seq <= self.low_watermark + self.config.watermark_window):
            return
        existing = self.log.get(msg.seq)
        if existing is not None and (existing.committed or existing.view >= msg.view):
            return
        if self.guard is not None and not self.guard(msg.items):
            if self._waiting_guard is _NO_ITEMS:
                self._waiting_guard = []
            self._waiting_guard.append(msg)
            return
        self._accept_preprepare(msg)

    def _accept_preprepare(self, msg: PrePrepare) -> None:
        if msg.view != self.view or not self.active:
            return
        slot = self._record_preprepare(msg)
        if not self.silent:
            prepare = Prepare(
                self.replica,
                self.instance,
                msg.view,
                msg.seq,
                msg.digest,
                self._auth,
            )
            self.core.submit(self._cert_send_cost, self.transport.broadcast, prepare)
            slot.prepares = _tally(slot.prepares, self._own_bit, self._prepare_quorum)
        if slot.prepares < 0:
            self._mark_prepared(slot, slot, msg.seq, msg.view)

    def _record_preprepare(self, msg: PrePrepare) -> _Slot:
        """Bind the log slot of ``msg.seq`` to this pre-prepare (also the
        primary's own bookkeeping for the batch it just proposed).

        Votes that raced the pre-prepare move in from ``_stray``; a
        displaced binding's votes move out to it, countable until the
        next checkpoint like any other dead key.
        """
        seq = msg.seq
        old = self.log.get(seq)
        if old is not None and (old.prepares or old.commits):
            if self._stray is _NO_ENTRIES:
                self._stray = {}
            self._stray[(old.view, seq, old.digest)] = old
        slot = self._stray.pop((msg.view, seq, msg.digest), None) if self._stray else None
        if slot is None:
            slot = _Slot(msg.view, msg.digest)
        slot.items = msg.items
        slot.prepared = slot.committed = False
        self.log[seq] = slot
        return slot

    def _stray_votes(self, view: int, seq: int, digest: Digest, bit: int) -> Optional[_Slot]:
        """The vote record of a key the slot at ``seq`` is not bound to.

        ``None`` above the admission window: no pre-prepare is admissible
        there, so the record could never matter, and checkpoint GC (which
        sweeps at or below the floor) would never reclaim it — one
        Byzantine sender's far-future votes must cost no memory.

        ``None`` too when the record is new and the sender (``bit``)
        already allocated one at ``(view, seq)``: an honest replica votes
        one digest per (view, seq), so strays per sequence number stay
        within n − 1 plus one displaced binding, however many fresh
        digests one Byzantine replica invents inside the window.
        """
        if seq > self.low_watermark + self.config.watermark_window:
            return None
        key = (view, seq, digest)
        votes = self._stray.get(key)
        if votes is None:
            owners = self._stray_owners.get((view, seq), 0)
            if owners & bit:
                return None
            if self._stray_owners is _NO_ENTRIES:
                self._stray_owners = {}
            if self._stray is _NO_ENTRIES:
                self._stray = {}
            self._stray_owners[(view, seq)] = owners | bit
            votes = self._stray[key] = _Slot(view, digest)
        return votes

    # --------------------------------------------------------------- prepare
    def _on_prepare(self, msg: Prepare, bit: Optional[int] = None) -> None:
        view = msg.view
        if view != self.view:
            if view > self.view:
                self._buffer_future(msg)
            return
        seq = msg.seq
        # At or below the stable checkpoint the slot is gone for good:
        # a vote there could only re-seed garbage-collected state.
        if not self.active or seq <= self.low_watermark:
            return
        primary = self._primary_name
        if view != self._primary_name_view or self.primary_selector is not None:
            primary = self.primary_name(view)
        if msg.sender == primary:
            return  # the primary's pre-prepare is its prepare
        digest = msg.digest
        entry = votes = self.log.get(seq)
        if entry is None or entry.view != view or (
            entry.digest is not digest and entry.digest != digest
        ):
            bit = bit or self._senders.bit(msg.sender)
            votes = self._stray_votes(view, seq, digest, bit)
            if votes is None:
                return
        mask = votes.prepares
        if mask < 0:
            return  # quorum already fired
        merged = mask | (bit or self._senders.bit(msg.sender))
        if merged.bit_count() < self._prepare_quorum:
            votes.prepares = merged
            return
        votes.prepares = ~merged
        self._mark_prepared(entry, votes, seq, view)

    def _mark_prepared(self, entry: Optional[_Slot], votes: _Slot, seq: int, view: int) -> None:
        """The prepare quorum of ``votes`` fired; ``entry`` is the log
        slot at ``seq`` (``votes`` itself unless the key is a stray)."""
        if entry is None or entry.prepared or (
            entry is not votes and entry.digest != votes.digest
        ):
            return
        entry.prepared = True
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "pbft.phase", self.trace_name,
                phase="prepared", seq=seq, view=view,
            )
        if not self.silent:
            commit = Commit(
                self.replica, self.instance, view, seq, votes.digest, self._auth,
            )
            self.core.submit(self._cert_send_cost, self.transport.broadcast, commit)
            votes.commits = _tally(votes.commits, self._own_bit, self._commit_quorum)
        self._maybe_commit(entry, votes, seq, view)

    # ---------------------------------------------------------------- commit
    def _on_commit(self, msg: Commit, bit: Optional[int] = None) -> None:
        view = msg.view
        if view != self.view:
            if view > self.view:
                self._buffer_future(msg)
            return
        seq = msg.seq
        if not self.active or seq <= self.low_watermark:
            return  # see _on_prepare
        digest = msg.digest
        entry = votes = self.log.get(seq)
        if entry is None or entry.view != view or (
            entry.digest is not digest and entry.digest != digest
        ):
            bit = bit or self._senders.bit(msg.sender)
            votes = self._stray_votes(view, seq, digest, bit)
            if votes is None:
                return
        mask = votes.commits
        if mask < 0:
            # Quorum already fired — and was acted on the moment it
            # could be: on firing if the slot was prepared, else from
            # ``_mark_prepared``.
            return
        mask |= bit or self._senders.bit(msg.sender)
        if mask.bit_count() < self._commit_quorum:
            votes.commits = mask
            return
        votes.commits = ~mask
        self._maybe_commit(entry, votes, seq, view)

    def _maybe_commit(self, entry: Optional[_Slot], votes: _Slot, seq: int, view: int) -> None:
        if (
            entry is None
            or votes.commits >= 0
            or entry.committed
            or not entry.prepared
            or (entry is not votes and entry.digest != votes.digest)
        ):
            return
        entry.committed = True
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "pbft.phase", self.trace_name,
                phase="committed", seq=seq, view=view,
                digest=repr(votes.digest.token),
            )
        self._drain_ordered()

    def _drain_ordered(self) -> None:
        """Deliver committed batches in sequence order."""
        while True:
            entry = self.log.get(self.next_exec)
            if entry is None or not entry.committed:
                break
            seq = self.next_exec
            self.next_exec += 1
            self.ordered_batches += 1
            self.ordered_items += len(entry.items)
            tracer = self.sim.tracer
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    self.sim.now, "pbft.phase", self.trace_name,
                    phase="ordered", seq=seq, items=len(entry.items),
                    rids=tuple(item.request_id for item in entry.items),
                )
            ordered, pending, bit = self._ordered, self._pending, self._pool_bit
            for item in entry.items:
                request_id = item.request_id
                mask = ordered.get(request_id, 0)
                if not mask & bit:
                    ordered[request_id] = mask | bit
                    self._ordered_count += 1
                pooled = pending.get(request_id)
                if pooled is not None:
                    mask = pooled[1]
                    if mask == bit:
                        del pending[request_id]
                        self._pending_count -= 1
                    elif mask & bit:
                        pooled[1] = mask ^ bit
                        self._pending_count -= 1
            self.on_ordered(seq, entry.items)
            if self.config.auto_advance_view:
                self._advance_view_after_batch(seq)
            if seq % self.config.checkpoint_interval == 0:
                self._emit_checkpoint(seq)

    # ----------------------------------------------------------- checkpoints
    def _emit_checkpoint(self, seq: int) -> None:
        digest = Digest(("ckpt", self.instance, seq))
        key = (seq, digest)
        if not self.silent:
            msg = Checkpoint(self.replica, self.instance, seq, digest, self._auth)
            self.core.submit(self._cert_send_cost, self.transport.broadcast, msg)
            if self._checkpoint_votes.add(key, self.replica):
                self._stabilize(seq)

    def _on_checkpoint(self, msg: Checkpoint) -> None:
        if msg.seq <= self.low_watermark:
            # Already stable: a completed quorum here would only reach a
            # no-op ``_stabilize``, and the weak-certificate catch-up
            # needs ``seq >= next_exec + checkpoint_interval`` which a
            # sub-watermark sequence can never satisfy.  Dropping the
            # vote keeps stragglers from re-seeding pruned tracker keys.
            return
        key = (msg.seq, msg.digest)
        if self._checkpoint_votes.add(key, msg.sender):
            self._stabilize(msg.seq)
            return
        # Weak certificate: f+1 matching checkpoints contain at least one
        # correct replica, proving the state at ``seq`` is committed.  A
        # replica that has fallen a full interval behind state-transfers
        # up to it rather than waiting for batches that may never re-run
        # (e.g. when a silent faulty replica leaves the checkpoint quorum
        # one vote short of 2f+1 without the laggard's own vote).
        if (
            not self._checkpoint_votes.complete(key)
            and self._checkpoint_votes.count(key) > self.config.f
            and msg.seq >= self.next_exec + self.config.checkpoint_interval
        ):
            self._catch_up(msg.seq)

    def _catch_up(self, seq: int) -> None:
        """State transfer: adopt the service state up to ``seq``."""
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "pbft.state-transfer", self.trace_name,
                src=self.next_exec, dst=seq + 1, via="weak-checkpoint",
            )
        self.next_exec = seq + 1
        self.seq_assigned = max(self.seq_assigned, seq)
        self._forget_through(seq)
        self._drain_ordered()

    def _stabilize(self, seq: int) -> None:
        if seq <= self.low_watermark:
            return
        self.low_watermark = seq
        if self.next_exec <= seq:
            # State transfer: 2f+1 replicas are past this checkpoint, so
            # fast-forward rather than wait for garbage-collected batches.
            tracer = self.sim.tracer
            if tracer is not None and tracer.enabled:
                tracer.emit(
                    self.sim.now, "pbft.state-transfer", self.trace_name,
                    src=self.next_exec, dst=seq + 1, via="stable-checkpoint",
                )
            self.next_exec = seq + 1
        self._forget_through(seq)
        self._collect_garbage(seq)
        if self._held:
            held, self._held = self._held, _NO_ITEMS
            for items in held:
                self._flush_batch(items)

    def _forget_through(self, seq: int) -> None:
        """Drop the log slots at or below ``seq`` and this instance's
        ordered mark on their requests."""
        ordered, bit = self._ordered, self._pool_bit
        for old_seq in [s for s in self.log if s <= seq]:
            for item in self.log.pop(old_seq).items:
                mask = ordered.get(item.request_id, 0)
                if mask & bit:
                    if mask == bit:
                        del ordered[item.request_id]
                    else:
                        ordered[item.request_id] = mask ^ bit
                    self._ordered_count -= 1

    def _collect_garbage(self, seq: int) -> None:
        """Drop every piece of per-sequence state at or below the stable
        checkpoint ``seq`` (PBFT's log garbage collection, OSDI '99 §4.3).

        The popped log slots above take the votes for their own (view,
        digest) with them; stray vote keys — conflicting digests,
        superseded views, sequences this replica never logged — and their
        ownership masks would otherwise accumulate forever.  View-change
        votes for views at or below the current one are unreadable (every
        read path requires ``new_view > self.view``) and are dropped too.
        """
        for index in (self._stray, self._stray_owners):
            for key in [key for key in index if key[1] <= seq]:
                del index[key]
        self._checkpoint_votes.prune(lambda key: key[0] <= seq)
        for stale in [v for v in self._vc_votes if v <= self.view]:
            del self._vc_votes[stale]
        if self._waiting_guard:
            self._waiting_guard = [
                msg for msg in self._waiting_guard if msg.seq > seq
            ]
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "pbft.log-size", self.trace_name,
                **self.log_sizes(),
            )

    # ---------------------------------------------------------- view change
    def start_view_change(self, new_view: Optional[int] = None) -> None:
        """Vote to replace the primary.

        For RBFT instances this is invoked only by the node's instance
        change mechanism; for Aardvark it is the regular/monitoring view
        change; for Spinning it implements the merge operation.
        """
        new_view = self.view + 1 if new_view is None else new_view
        if new_view <= self.view or self._vc_voted_for >= new_view or self.silent:
            return
        self._vc_voted_for = new_view
        self.active = False
        self.batcher.pause()
        # Report every prepared certificate above the stable checkpoint —
        # including locally committed ones.  A batch committed anywhere has
        # prepared certificates at 2f+1 nodes, so any view-change quorum
        # contains at least one and the new primary must re-propose it at
        # the same sequence number (PBFT's safety-across-views argument).
        prepared = {
            seq: (entry.digest, entry.items)
            for seq, entry in self.log.items()
            if entry.prepared
        }
        msg = ViewChange(
            self.replica,
            self.instance,
            new_view,
            self.low_watermark,
            prepared,
            self._auth,
        )
        cost = self.costs.sig_gen(msg.wire_size())
        self.core.submit(cost, self.transport.broadcast, msg)
        self._register_vc(msg)

    def _on_view_change(self, msg: ViewChange) -> None:
        if msg.new_view <= self.view:
            return
        self._register_vc(msg)

    def _register_vc(self, msg: ViewChange) -> None:
        if self._vc_votes is _NO_ENTRIES:
            self._vc_votes = {}
        votes = self._vc_votes.setdefault(msg.new_view, {})
        votes[msg.sender] = msg
        # Join a view change once f+1 others demand it (PBFT liveness rule).
        if (
            len(votes) > self.config.f
            and self._vc_voted_for < msg.new_view
            and msg.new_view > self.view
        ):
            self.start_view_change(msg.new_view)
            votes = self._vc_votes.setdefault(msg.new_view, votes)
        if len(votes) >= self.config.vc_quorum:
            if self.primary_index(msg.new_view) == self.index:
                self._install_view(msg.new_view, announce=True)

    def _on_new_view(self, msg: NewView) -> None:
        if msg.new_view <= self.view:
            return
        if msg.sender != "node%d" % self.primary_index(msg.new_view):
            return
        self._install_view(msg.new_view, announce=False, repropose=msg.repropose)

    def _install_view(
        self,
        new_view: int,
        announce: bool,
        repropose: Optional[Dict[int, Tuple[Digest, Tuple]]] = None,
    ) -> None:
        if new_view <= self.view:
            return
        if announce:
            # New primary: merge prepared certificates from the quorum.
            repropose = {}
            for vc in self._vc_votes.get(new_view, {}).values():
                for seq, cert in vc.prepared.items():
                    if seq > self.low_watermark:
                        repropose.setdefault(seq, cert)
            msg = NewView(
                self.replica,
                self.instance,
                new_view,
                repropose,
                self._auth,
            )
            cost = self.costs.sig_gen(msg.wire_size())
            self.core.submit(cost, self.transport.broadcast, msg)
        self.view = new_view
        self.view_changes += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "pbft.view-change", self.trace_name,
                view=new_view,
            )
        self.pending_view = None
        self.active = True
        self._vc_voted_for = max(self._vc_voted_for, new_view)
        for stale in [v for v in self._vc_votes if v <= new_view]:
            del self._vc_votes[stale]
        self._waiting_guard = _NO_ITEMS
        # Drop uncommitted batches from superseded views: anything without
        # a prepared certificate in the new-view proof is dead, and its
        # requests are still pooled for re-proposal.  The new primary then
        # reuses those sequence numbers, so execution never stalls on them.
        for seq in [s for s, entry in self.log.items() if not entry.committed]:
            del self.log[seq]
        if repropose:
            self._adopt_reproposals(new_view, repropose, announce)
        if self.is_primary:
            self._become_primary()
        else:
            self.batcher.pause()
        self._replay_future()
        self.on_view_entered(new_view)

    def _adopt_reproposals(
        self, view: int, repropose: Dict[int, Tuple[Digest, Tuple]], as_primary: bool
    ) -> None:
        """Re-run the agreement for prepared-but-uncommitted batches."""
        for seq in sorted(repropose):
            digest, items = repropose[seq]
            if seq <= self.low_watermark or seq < self.next_exec:
                continue
            self.seq_assigned = max(self.seq_assigned, seq)
            existing = self.log.get(seq)
            if existing is not None and existing.committed:
                continue
            msg = PrePrepare(
                "node%d" % self.primary_index(view),
                self.instance,
                view,
                seq,
                items,
                digest,
                batch_payload_size(items, self.config.full_payload),
                self._auth,
            )
            if as_primary:
                self._record_preprepare(msg)
            else:
                self._accept_preprepare(msg)

    def _become_primary(self) -> None:
        # Continue after the last live sequence number; superseded batches
        # were dropped at view installation, so their numbers are reused.
        # Held batches go too: their items are still pooled, re-fed below.
        self._held = _NO_ITEMS
        self.seq_assigned = max(
            self.low_watermark, self.next_exec - 1, *(list(self.log) or [0])
        )
        if self.config.auto_advance_view:
            # One batch per leadership turn: feeding more than a batch is
            # wasted work (and O(backlog) per rotation under saturation).
            budget = self.config.batch_size
            for item in self._pooled_unordered():
                if budget == 0:
                    break
                self.batcher.add(item)
                budget -= 1
            self.batcher.resume()
            return
        self.batcher.resume()
        for item in list(self._pooled_unordered()):
            self.batcher.add(item)

    def _pooled_unordered(self):
        """This instance's pending items it has not ordered, oldest first."""
        ordered, bit = self._ordered, self._pool_bit
        for item, mask in self._pending.values():
            if mask & bit and not ordered.get(item.request_id, 0) & bit:
                yield item

    def _advance_view_after_batch(self, seq: int) -> None:
        """Spinning: the primary rotates after every ordered batch."""
        new_view = self.view + 1
        self.view = new_view
        self._vc_voted_for = max(self._vc_voted_for, new_view)
        if self._vc_votes:
            # Views roll over every batch here, so merge votes for
            # superseded views would pile up fast; same dead-state rule
            # as ``_install_view``.
            for stale in [v for v in self._vc_votes if v <= new_view]:
                del self._vc_votes[stale]
        if self.is_primary:
            self._become_primary()
        else:
            self.batcher.pause()
        self._replay_future()
        self.on_view_entered(new_view)

    # ------------------------------------------------------------ inspection
    def backlog(self) -> int:
        """Verified-but-unordered requests at this replica."""
        return self._pending_count

    def log_sizes(self) -> Dict[str, int]:
        """Sizes of every per-sequence structure, plus their sum (``total``).

        ``total`` is the "protocol log" the checkpoint garbage collector
        bounds: everything indexed by sequence number or view.  ``pending``
        (offered-load backlog) and ``ordered_ids`` (bounded by
        ``watermark_window * batch_size`` once GC runs) are reported
        alongside but excluded from ``total`` — they scale with load and
        batch size, not with the horizon.
        """
        # Distinct (view, seq, digest) keys holding a vote, wherever kept.
        records = list(self.log.values()) + list(self._stray.values())
        prepare_votes = sum(1 for r in records if r.prepares)
        commit_votes = sum(1 for r in records if r.commits)
        total = (
            len(self.log)
            + prepare_votes
            + commit_votes
            + len(self._checkpoint_votes)
            + len(self._vc_votes)
            + len(self._waiting_guard)
            + len(self._future)
        )
        return {
            "total": total,
            "log": len(self.log),
            "prepare_votes": prepare_votes,
            "commit_votes": commit_votes,
            "checkpoint_votes": len(self._checkpoint_votes),
            "vc_votes": len(self._vc_votes),
            "waiting_guard": len(self._waiting_guard),
            "future": len(self._future),
            "pending": self._pending_count,
            "ordered_ids": self._ordered_count,
        }

    _HANDLERS = {
        PrePrepare: _on_preprepare,
        Prepare: _on_prepare,
        Commit: _on_commit,
        Checkpoint: _on_checkpoint,
        ViewChange: _on_view_change,
        NewView: _on_new_view,
    }

    def __repr__(self) -> str:
        return "OrderingInstance(%s/i%d, view=%d, next=%d)" % (
            self.replica,
            self.instance,
            self.view,
            self.next_exec,
        )
