"""Unit tests of the invariant checkers over synthetic trace events."""

from types import SimpleNamespace

import pytest

from repro.common.executed import ExecutedIds
from repro.trace import TraceEvent
from repro.trace.events import K_IC_VOTE, K_PHASE, K_STAGE, K_STATE_TRANSFER
from repro.verify import InvariantSuite
from repro.verify.invariants import MAX_VIOLATIONS


class StubMonitor:
    def __init__(self, breach):
        self.breach = breach

    def observes_breach(self):
        return self.breach


class StubNode:
    def __init__(self, name, executed_ids=(), executed_count=None,
                 master_instance=0, monitor=None, ids_type=set):
        self.name = name
        self.executed_ids = ids_type(executed_ids)
        self.executed_count = (
            executed_count if executed_count is not None
            else len(self.executed_ids)
        )
        self.master_instance = master_instance
        self.monitor = monitor or StubMonitor(False)


def make_suite(nodes=(), faulty=(), expect_complete=True):
    """A suite wired to stub nodes, bypassing a real deployment."""
    suite = InvariantSuite(expect_complete=expect_complete)
    suite.faulty = frozenset(faulty)
    suite.nodes = {node.name: node for node in nodes}
    suite.deployment = SimpleNamespace(
        nodes=list(nodes), sim=SimpleNamespace(now=0.0)
    )
    return suite


def ordered(t, engine, seq, rids, view=0):
    return TraceEvent(t, K_PHASE, engine,
                      {"phase": "ordered", "seq": seq, "view": view,
                       "rids": tuple(rids)})


def committed(t, engine, seq, digest, view=0):
    return TraceEvent(t, K_PHASE, engine,
                      {"phase": "committed", "seq": seq, "view": view,
                       "digest": digest})


def executed(t, node, client, rid):
    return TraceEvent(t, K_STAGE, node,
                      {"stage": "execution", "client": client, "rid": rid})


def ic_vote(t, node, reason):
    return TraceEvent(t, K_IC_VOTE, node,
                      {"reason": reason, "cpi": 1, "choice": 1})


# --------------------------------------------------- ordered-batch agreement
def test_matching_batches_are_no_violation():
    suite = make_suite()
    suite.append(ordered(0.1, "node0/i0", 1, [("c0", 1)]))
    suite.append(ordered(0.2, "node1/i0", 1, [("c0", 1)]))
    assert suite.finalize() == []


def test_diverging_batches_violate_agreement():
    suite = make_suite()
    suite.append(ordered(0.1, "node0/i0", 1, [("c0", 1)]))
    suite.append(ordered(0.2, "node1/i0", 1, [("c0", 2)]))
    names = {v.invariant for v in suite.violations}
    assert "order-agreement" in names
    # The violation points at the trace event that exposed it.
    bad = next(v for v in suite.violations if v.invariant == "order-agreement")
    assert bad.event["kind"] == K_PHASE
    assert bad.t == 0.2


def test_instances_are_compared_separately():
    suite = make_suite()
    suite.append(ordered(0.1, "node0/i0", 1, [("c0", 1)]))
    suite.append(ordered(0.2, "node0/i1", 1, [("c0", 2)]))  # other instance
    assert suite.violations == []


def test_faulty_nodes_do_not_count():
    suite = make_suite(faulty={"node3"})
    suite.append(ordered(0.1, "node0/i0", 1, [("c0", 1)]))
    suite.append(ordered(0.2, "node3/i0", 1, [("c0", 2)]))
    assert suite.violations == []


# ------------------------------------------------------- commit certificates
def test_conflicting_commit_digests_violate():
    suite = make_suite()
    suite.append(committed(0.1, "node0/i0", 5, "aa"))
    suite.append(committed(0.2, "node1/i0", 5, "bb"))
    assert {v.invariant for v in suite.violations} == {"commit-certificate"}


def test_same_digest_or_other_view_is_fine():
    suite = make_suite()
    suite.append(committed(0.1, "node0/i0", 5, "aa"))
    suite.append(committed(0.2, "node1/i0", 5, "aa"))
    suite.append(committed(0.3, "node2/i0", 5, "bb", view=1))  # new view
    assert suite.violations == []


# ----------------------------------------------------- execution consistency
def test_duplicate_execution_is_caught_online():
    suite = make_suite()
    suite.append(executed(0.1, "node0", "c0", 1))
    suite.append(executed(0.2, "node0", "c0", 1))
    assert {v.invariant for v in suite.violations} == {"exec-duplicate"}


def test_cross_node_reordering_is_caught():
    suite = make_suite()
    suite.append(executed(0.1, "node0", "c0", 1))
    suite.append(executed(0.2, "node0", "c0", 2))
    suite.append(executed(0.3, "node1", "c0", 2))
    suite.append(executed(0.4, "node1", "c0", 1))  # swapped vs node0
    assert {v.invariant for v in suite.violations} == {"exec-order"}


def test_finalize_flags_skipped_master_requests():
    nodes = [
        StubNode("node0", executed_ids=[("c0", 1), ("c0", 2)]),
        StubNode("node1", executed_ids=[("c0", 1), ("c0", 2)]),
    ]
    suite = make_suite(nodes)
    suite.append(ordered(0.1, "node0/i0", 1, [("c0", 1), ("c0", 2), ("c0", 3)]))
    suite.append(ordered(0.1, "node1/i0", 1, [("c0", 1), ("c0", 2), ("c0", 3)]))
    violations = {v.invariant for v in suite.finalize()}
    assert "exec-skip" in violations


def test_finalize_flags_executed_set_divergence():
    nodes = [
        StubNode("node0", executed_ids=[("c0", 1)]),
        StubNode("node1", executed_ids=[("c0", 2)]),
    ]
    suite = make_suite(nodes)
    violations = {v.invariant for v in suite.finalize()}
    assert "exec-agreement" in violations


@pytest.mark.parametrize("ids_type", [set, ExecutedIds])
def test_executed_set_agreement_ignores_order_and_names_what_differs(ids_type):
    # Both the plain sets the stubs use and the nodes' ExecutedIds go
    # through the same operators, with the same report text.
    ids = [("c0", 1), ("c0", 2), ("c1", 1), ("c1", 7)]
    nodes = [
        StubNode("node0", executed_ids=ids, ids_type=ids_type),
        StubNode("node1", executed_ids=reversed(ids), ids_type=ids_type),
    ]
    suite = make_suite(nodes)
    suite.append(ordered(0.1, "node0/i0", 1, ids))
    suite.append(ordered(0.1, "node1/i0", 1, ids))
    assert suite.finalize() == []

    nodes = [
        StubNode("node0", executed_ids=ids, ids_type=ids_type),
        StubNode("node1", executed_ids=ids[1:] + [("c1", 2)], ids_type=ids_type),
    ]
    suite = make_suite(nodes)
    suite.append(ordered(0.1, "node1/i0", 1, ids))
    messages = {v.invariant: v.message for v in suite.finalize()}
    assert messages == {
        "exec-agreement":
            "node1 and node0 disagree on the executed set (2 requests "
            "differ, e.g. [('c0', 1), ('c1', 2)])",
        "exec-skip":
            "node1 skipped 1 master-ordered requests (e.g. [('c0', 1)])",
    }


def test_state_transfer_waives_completeness_but_not_duplicates():
    nodes = [
        StubNode("node0", executed_ids=[("c0", 1)], executed_count=2),
        StubNode("node1", executed_ids=[("c0", 2)]),
    ]
    suite = make_suite(nodes)
    suite.append(TraceEvent(0.1, K_STATE_TRANSFER, "node0/i0",
                            {"src": 1, "dst": 9, "via": "stable-checkpoint"}))
    violations = {v.invariant for v in suite.finalize()}
    # Divergent sets are excused by the transfer; the duplicate is not.
    assert "exec-agreement" not in violations
    assert "exec-duplicate" in violations


def test_incomplete_episodes_skip_set_comparisons():
    nodes = [
        StubNode("node0", executed_ids=[("c0", 1)]),
        StubNode("node1", executed_ids=[]),  # stalled behind a partition
    ]
    suite = make_suite(nodes, expect_complete=False)
    assert suite.finalize() == []


# ---------------------------------------------------- monitoring consistency
def test_self_initiated_vote_without_breach_violates():
    nodes = [StubNode("node0", monitor=StubMonitor(False))]
    suite = make_suite(nodes)
    suite.append(ic_vote(0.1, "node0", "throughput-delta"))
    assert {v.invariant for v in suite.violations} == {"monitor-consistency"}


def test_vote_with_observed_breach_is_fine():
    nodes = [StubNode("node0", monitor=StubMonitor(True))]
    suite = make_suite(nodes)
    suite.append(ic_vote(0.1, "node0", "latency-lambda"))
    assert suite.violations == []


def test_quorum_following_votes_are_exempt():
    nodes = [StubNode("node0", monitor=StubMonitor(False))]
    suite = make_suite(nodes)
    suite.append(ic_vote(0.1, "node0", "join-support"))
    suite.append(ic_vote(0.2, "node0", "adopt"))
    assert suite.violations == []


# ------------------------------------------------------------ suite plumbing
def test_digest_is_deterministic_and_event_sensitive():
    def digest_of(events):
        suite = make_suite()
        for event in events:
            suite.append(event)
        suite.finalize()
        return suite.digest()

    events = [ordered(0.1, "node0/i0", 1, [("c0", 1)]),
              committed(0.2, "node0/i0", 1, "aa")]
    assert digest_of(events) == digest_of(events)
    assert digest_of(events) != digest_of(events[:1])


def test_violations_cap_at_max():
    suite = make_suite()
    for i in range(MAX_VIOLATIONS + 50):
        suite.append(executed(0.1 * i, "node0", "c0", 7))  # all duplicates
    assert len(suite.violations) == MAX_VIOLATIONS
    assert suite._state.dropped_violations == 49  # first event is legal
