"""Online safety invariants over a live RBFT deployment.

The checkers here encode the properties that must survive *anything*
inside the fault model (≤ f Byzantine nodes, arbitrary network faults):

* **ordered-batch agreement** — no two correct replicas of the same
  protocol instance deliver different batches at the same sequence
  number;
* **commit-certificate validity** — no two correct replicas commit
  different digests at the same ``(instance, view, seq)``;
* **execution consistency** — no correct node executes a request twice,
  all correct nodes execute in the same relative order, and (absent
  state transfer) none of them skips a master-ordered request;
* **monitoring consistency** — a node votes INSTANCE-CHANGE on its own
  initiative only while its :class:`InstanceMonitor` observes a breach.

The :class:`InvariantSuite` is a **trace sink**: it plugs into the
zero-cost tracing layer (``sim.tracer``) with a kind filter, so the
checkers see exactly the protocol-level events they subscribe to while
the run itself is not perturbed — checkers only read live state, never
mutate it.  Every observed event also feeds a running SHA-256, the
**invariant digest**, which is the replay fingerprint: two runs that
made identical protocol-visible steps have identical digests.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.trace.events import (
    K_IC_VOTE,
    K_PHASE,
    K_STAGE,
    K_STATE_TRANSFER,
    TraceEvent,
)
from repro.trace.tracer import Tracer

__all__ = [
    "Violation",
    "Checker",
    "OrderedBatchAgreement",
    "CommitCertificate",
    "ExecutionConsistency",
    "MonitoringConsistency",
    "InvariantSuite",
    "default_checkers",
]

#: stop accumulating after this many violations — a genuinely broken
#: engine violates on every batch and would otherwise flood memory.
MAX_VIOLATIONS = 256


@dataclass
class Violation:
    """One invariant breach, tied to the trace event that exposed it."""

    invariant: str
    message: str
    t: float
    event: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "invariant": self.invariant,
            "message": self.message,
            "t": self.t,
        }
        if self.event is not None:
            record["event"] = self.event
        return record


def _split_engine_name(name: str) -> Tuple[str, int]:
    """``"node2/i1"`` → ``("node2", 1)``."""
    node, _, instance = name.partition("/i")
    return node, int(instance)


class Checker:
    """Base class: subscribe to trace kinds, observe, report."""

    name = "checker"
    kinds: FrozenSet[str] = frozenset()

    def bind(self, suite: "InvariantSuite") -> None:
        self.suite = suite

    def on_event(self, event: TraceEvent) -> None:  # pragma: no cover
        pass

    def finalize(self) -> None:
        pass

    def report(self, message: str, event: Optional[TraceEvent] = None,
               invariant: Optional[str] = None) -> None:
        self.suite.record(invariant or self.name, message, event)


class OrderedBatchAgreement(Checker):
    """Correct replicas of one instance deliver the same batch per seq."""

    name = "order-agreement"
    kinds = frozenset({K_PHASE})

    def __init__(self) -> None:
        self._seen: Dict[Tuple[int, int], Tuple[Tuple, str]] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.data.get("phase") != "ordered":
            return
        rids = event.data.get("rids")
        if rids is None:
            return  # an emitter without batch identity: nothing to compare
        node, instance = _split_engine_name(event.name)
        if not self.suite.is_correct(node):
            return
        key = (instance, event.data["seq"])
        batch = tuple(rids)
        prev = self._seen.get(key)
        if prev is None:
            self._seen[key] = (batch, node)
        elif prev[0] != batch:
            self.report(
                "instance %d seq %d: %s delivered %r but %s delivered %r"
                % (instance, key[1], prev[1], prev[0], node, batch),
                event,
            )


class CommitCertificate(Checker):
    """No two committed digests at the same ``(instance, view, seq)``."""

    name = "commit-certificate"
    kinds = frozenset({K_PHASE})

    def __init__(self) -> None:
        self._seen: Dict[Tuple[int, int, int], Tuple[str, str]] = {}

    def on_event(self, event: TraceEvent) -> None:
        if event.data.get("phase") != "committed":
            return
        digest = event.data.get("digest")
        if digest is None:
            return
        node, instance = _split_engine_name(event.name)
        if not self.suite.is_correct(node):
            return
        key = (instance, event.data["view"], event.data["seq"])
        prev = self._seen.get(key)
        if prev is None:
            self._seen[key] = (digest, node)
        elif prev[0] != digest:
            self.report(
                "instance %d (view %d, seq %d): %s committed %s but %s "
                "committed %s"
                % (instance, key[1], key[2], prev[1], prev[0], node, digest),
                event,
            )


class ExecutionConsistency(Checker):
    """No duplicate/skipped execution; agreement on the executed order.

    Online, per execution event: a node must never execute the same
    request twice, and all correct nodes must execute in the same
    *relative* order (gaps are legal — state transfer past a stable
    checkpoint skips batches wholesale — but reordering never is).  The
    relative-order check assigns each request a canonical position the
    first time any correct node executes it; a node whose executions are
    not monotone in canonical position disagrees with some peer about
    the order.

    At finalize, against live node state: ``executed_count`` must not
    exceed the executed-id set (a duplicate ``service.apply``), and —
    when the episode expects completion and no state transfer happened —
    the executed sets must be equal across correct nodes and cover
    everything the master instance delivered.
    """

    name = "execution"
    kinds = frozenset({K_STAGE, K_PHASE, K_STATE_TRANSFER})

    def __init__(self) -> None:
        self._canon: Dict[Tuple, int] = {}  # request_id -> canonical position
        self._executed: Dict[str, set] = {}  # node -> executed request_ids
        self._last_pos: Dict[str, int] = {}  # node -> last canonical position
        self._master_ordered: Dict[str, set] = {}  # node -> master-delivered
        self.state_transfers = 0

    def on_event(self, event: TraceEvent) -> None:
        if event.kind == K_STATE_TRANSFER:
            self.state_transfers += 1
            return
        if event.kind == K_PHASE:
            if event.data.get("phase") != "ordered":
                return
            rids = event.data.get("rids")
            if rids is None:
                return
            node, instance = _split_engine_name(event.name)
            # Track what the *master* instance delivered to the execution
            # module (instance 0 unless best-backup promotion moved it —
            # the suite skips the coverage check in that case).
            if instance == 0 and self.suite.is_correct(node):
                self._master_ordered.setdefault(node, set()).update(
                    tuple(rid) if isinstance(rid, list) else rid for rid in rids
                )
            return
        if event.data.get("stage") != "execution":
            return
        rid = event.data.get("rid")
        if rid is None:
            return
        node = event.name
        if not self.suite.is_correct(node):
            return
        request_id = (event.data["client"], rid)
        executed = self._executed.setdefault(node, set())
        if request_id in executed:
            self.report(
                "%s executed %r twice" % (node, (request_id,)),
                event, invariant="exec-duplicate",
            )
            return
        executed.add(request_id)
        pos = self._canon.setdefault(request_id, len(self._canon))
        last = self._last_pos.get(node, -1)
        if pos < last:
            self.report(
                "%s executed %r out of order relative to a peer "
                "(canonical position %d after %d)"
                % (node, (request_id,), pos, last),
                event, invariant="exec-order",
            )
        else:
            self._last_pos[node] = pos

    def finalize(self) -> None:
        suite = self.suite
        nodes = [n for n in suite.deployment.nodes if suite.is_correct(n.name)]
        for node in nodes:
            if node.executed_count > len(node.executed_ids):
                self.report(
                    "%s applied %d executions over %d distinct requests"
                    % (node.name, node.executed_count, len(node.executed_ids)),
                    invariant="exec-duplicate",
                )
        if self.state_transfers or not suite.expect_complete:
            return
        promotion = any(n.master_instance != 0 for n in suite.deployment.nodes)
        for node in nodes[1:]:
            baseline = nodes[0].executed_ids
            if node.executed_ids != baseline:
                diff = node.executed_ids ^ baseline
                self.report(
                    "%s and %s disagree on the executed set (%d requests "
                    "differ, e.g. %r)"
                    % (node.name, nodes[0].name, len(diff),
                       sorted(diff)[:3]),
                    invariant="exec-agreement",
                )
        if promotion:
            return
        for node in nodes:
            skipped = self._master_ordered.get(node.name, set()) - node.executed_ids
            if skipped:
                self.report(
                    "%s skipped %d master-ordered requests (e.g. %r)"
                    % (node.name, len(skipped), sorted(skipped)[:3]),
                    invariant="exec-skip",
                )


class MonitoringConsistency(Checker):
    """Self-initiated INSTANCE-CHANGE votes require an observed breach.

    A vote is self-initiated unless the node is merely following an
    established f+1 quorum ("join-support") or adopting its choice of
    master ("adopt") — those are the liveness rules of §IV-D and carry
    another correct node's observation.  Everything else (Δ/Λ/Ω monitor
    triggers, "join-breach") asserts a local observation, checked here
    against the live monitor at the instant the vote is emitted.
    """

    name = "monitor-consistency"
    kinds = frozenset({K_IC_VOTE})

    QUORUM_REASONS = frozenset({"join-support", "adopt"})

    def on_event(self, event: TraceEvent) -> None:
        if event.data.get("reason") in self.QUORUM_REASONS:
            return
        node = event.name
        if not self.suite.is_correct(node):
            return
        monitor = self.suite.nodes[node].monitor
        if not monitor.observes_breach():
            self.report(
                "%s voted INSTANCE-CHANGE (%r) without an observed "
                "monitoring breach"
                % (node, event.data.get("reason")),
                event,
            )


def default_checkers() -> List[Checker]:
    return [
        OrderedBatchAgreement(),
        CommitCertificate(),
        ExecutionConsistency(),
        MonitoringConsistency(),
    ]


@dataclass
class _SuiteState:
    violations: List[Violation] = field(default_factory=list)
    dropped_violations: int = 0


class InvariantSuite:
    """A tracing sink that runs the online checkers over a deployment.

    Usage::

        suite = InvariantSuite().attach(deployment, faulty={"node3"})
        deployment.sim.run(until=2.0)
        violations = suite.finalize()
        print(suite.digest())
    """

    def __init__(self, checkers: Optional[List[Checker]] = None,
                 expect_complete: bool = True):
        self.checkers = checkers if checkers is not None else default_checkers()
        self.expect_complete = expect_complete
        self.deployment = None
        self.nodes: Dict[str, Any] = {}
        self.faulty: FrozenSet[str] = frozenset()
        self.events_seen = 0
        self._state = _SuiteState()
        self._hash = hashlib.sha256()
        self._finalized = False
        self._by_kind: Dict[str, List[Checker]] = {}
        for checker in self.checkers:
            checker.bind(self)
            for kind in checker.kinds:
                self._by_kind.setdefault(kind, []).append(checker)

    # ----------------------------------------------------------- wiring
    def attach(self, deployment, faulty: Iterable[str] = (),
               expect_complete: Optional[bool] = None) -> "InvariantSuite":
        """Install this suite as the deployment's tracer sink."""
        self.deployment = deployment
        self.faulty = frozenset(faulty)
        self.nodes = {node.name: node for node in deployment.nodes}
        if expect_complete is not None:
            self.expect_complete = expect_complete
        deployment.sim.tracer = Tracer(
            sink=self, kinds=frozenset(self._by_kind)
        )
        return self

    def is_correct(self, node_name: str) -> bool:
        return node_name not in self.faulty

    # ------------------------------------------------------------- sink
    def append(self, event: TraceEvent) -> None:
        """Sink protocol: called by the tracer for every subscribed event."""
        self.events_seen += 1
        self._hash.update(
            ("%r|%s|%s|%r" % (event.t, event.kind, event.name,
                              sorted(event.data.items()))).encode()
        )
        for checker in self._by_kind.get(event.kind, ()):
            checker.on_event(event)

    # ---------------------------------------------------------- results
    @property
    def violations(self) -> List[Violation]:
        return self._state.violations

    def record(self, invariant: str, message: str,
               event: Optional[TraceEvent] = None) -> None:
        if len(self._state.violations) >= MAX_VIOLATIONS:
            self._state.dropped_violations += 1
            return
        t = event.t if event is not None else (
            self.deployment.sim.now if self.deployment is not None else 0.0
        )
        self._state.violations.append(Violation(
            invariant, message, t,
            event.to_dict() if event is not None else None,
        ))

    def finalize(self, summary: Optional[Dict[str, Any]] = None) -> List[Violation]:
        """Run end-of-episode checks; fold ``summary`` into the digest."""
        if not self._finalized:
            self._finalized = True
            for checker in self.checkers:
                checker.finalize()
            if summary:
                self._hash.update(repr(sorted(summary.items())).encode())
        return self._state.violations

    def digest(self) -> str:
        """The invariant digest: a fingerprint of every observed event."""
        return self._hash.hexdigest()

    def __repr__(self) -> str:
        return "InvariantSuite(events=%d, violations=%d)" % (
            self.events_seen, len(self._state.violations)
        )
