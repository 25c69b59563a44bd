"""VectorQuorumTracker vs the reference QuorumTracker.

The vectorised tracker (shared sender universe, completed keys stored
as negative masks) must be observably indistinguishable from the
per-tracker-bitmask reference: same firings, same counts, same
completion reports, for any interleaving of votes.  These tests pin
that equivalence with randomized cross-checks plus the exact threshold
edges the large-n deployments sit on (f = 33 and f = 100).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common import (
    QuorumTracker,
    SenderUniverse,
    VectorQuorumTracker,
    quorum_size,
    weak_quorum_size,
)


def _pair(threshold, universe=None):
    return (
        QuorumTracker(threshold),
        VectorQuorumTracker(threshold, universe or SenderUniverse()),
    )


def test_invalid_threshold():
    with pytest.raises(ValueError):
        VectorQuorumTracker(0, SenderUniverse())


def test_threshold_one_fires_immediately():
    _, tracker = _pair(1)
    assert tracker.add("k", "a")
    assert not tracker.add("k", "a")
    assert tracker.complete("k")
    assert tracker.count("k") == 1


def test_completed_key_reports_threshold_count():
    _, tracker = _pair(2)
    tracker.add("k", "a")
    assert tracker.add("k", "b")
    assert tracker.count("k") == 2
    assert not tracker.add("k", "c")  # late votes: no second firing
    assert tracker.count("k") == 2


def test_discard_and_prune_forget_completed_keys():
    _, tracker = _pair(2)
    tracker.add(("seq", 1), "a")
    tracker.add(("seq", 1), "b")
    tracker.add(("seq", 9), "a")
    assert tracker.complete(("seq", 1))
    assert len(tracker) == 2
    tracker.discard(("seq", 1))
    assert not tracker.complete(("seq", 1))
    assert tracker.count(("seq", 1)) == 0
    assert tracker.prune(lambda key: key[1] < 10) == 1
    assert len(tracker) == 0


def test_keys_is_a_live_view_of_voted_keys():
    # RBFTNode holds this view for the life of the node, so it must
    # follow completion, discard and prune without being re-fetched.
    _, tracker = _pair(2)
    keys = tracker.keys()
    assert ("seq", 1) not in keys
    tracker.add(("seq", 1), "a")
    assert ("seq", 1) in keys  # in progress
    tracker.add(("seq", 1), "b")
    tracker.add(("seq", 9), "a")
    assert ("seq", 1) in keys and len(keys) == 2  # complete
    tracker.discard(("seq", 1))
    assert ("seq", 1) not in keys
    tracker.prune(lambda key: True)
    assert not keys


def test_shared_universe_keeps_trackers_independent():
    universe = SenderUniverse()
    prepare = VectorQuorumTracker(2, universe)
    commit = VectorQuorumTracker(3, universe)
    prepare.add("k", "a")
    assert prepare.add("k", "b")
    commit.add("k", "a")
    commit.add("k", "b")
    assert not commit.complete("k")
    assert commit.add("k", "c")
    # one interning for both trackers
    assert len(universe) == 3


@pytest.mark.parametrize("f", [33, 100])
def test_large_n_threshold_edges(f):
    """2f+1 and f+1 quorums fire on exactly the threshold-th sender."""
    n = 3 * f + 1
    names = ["node%d" % i for i in range(n)]
    universe = SenderUniverse()
    for threshold in (quorum_size(f), weak_quorum_size(f)):
        tracker = VectorQuorumTracker(threshold, universe)
        for i, name in enumerate(names):
            fired = tracker.add("cert", name)
            assert fired == (i == threshold - 1)
            assert tracker.complete("cert") == (i >= threshold - 1)
        assert tracker.count("cert") == threshold


@settings(max_examples=200, deadline=None)
@given(
    votes=st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 25)), max_size=80
    ),
    threshold=st.integers(1, 6),
)
def test_property_matches_reference_tracker(votes, threshold):
    """Both trackers agree on every firing, count and completion."""
    reference, vector = _pair(threshold)
    for key, sender_id in votes:
        sender = "s%d" % sender_id
        assert vector.add(key, sender) == reference.add(key, sender)
        assert vector.count(key) == reference.count(key)
        assert vector.complete(key) == reference.complete(key)
    for key in set(k for k, _ in votes):
        assert vector.count(key) == reference.count(key)
        assert vector.complete(key) == reference.complete(key)
    assert len(vector) <= len(reference) + len(votes)  # both bounded


@settings(max_examples=100, deadline=None)
@given(
    votes=st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 25)), max_size=80
    ),
    threshold=st.integers(1, 6),
    cutoff=st.integers(0, 4),
)
def test_property_prune_matches_reference(votes, threshold, cutoff):
    """Pruning below a watermark leaves identical observable state."""
    reference, vector = _pair(threshold)
    for key, sender_id in votes:
        sender = "s%d" % sender_id
        reference.add(key, sender)
        vector.add(key, sender)
    reference.prune(lambda key: key < cutoff)
    vector.prune(lambda key: key < cutoff)
    for key in range(5):
        assert vector.count(key) == reference.count(key)
        assert vector.complete(key) == reference.complete(key)


@settings(max_examples=50, deadline=None)
@given(
    sender_ids=st.lists(st.integers(0, 400), min_size=1, max_size=300),
    f=st.sampled_from([33, 100]),
)
def test_property_large_n_random_sender_sets(sender_ids, f):
    """Randomized sender sets at large n: firing iff distinct >= 2f+1."""
    threshold = quorum_size(f)
    reference, vector = _pair(threshold)
    fired_reference = fired_vector = False
    for sender_id in sender_ids:
        sender = "node%d" % sender_id
        fired_reference |= reference.add("k", sender)
        fired_vector |= vector.add("k", sender)
    assert fired_vector == fired_reference
    distinct = len(set(sender_ids))
    assert fired_vector == (distinct >= threshold)
    expected = min(distinct, threshold)
    assert vector.count("k") == reference.count("k") == expected
