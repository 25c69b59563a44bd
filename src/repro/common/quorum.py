"""Quorum collection.

Every phase of every protocol here is "collect k matching messages from
distinct senders, then act once":  2f PREPAREs, 2f+1 COMMITs, f+1
PROPAGATEs, 2f+1 INSTANCE-CHANGEs, f+1 matching replies at the client.
:class:`QuorumTracker` implements exactly that pattern, keyed by an
arbitrary hashable (sequence number, digest, whatever the phase matches
on), counting each sender once, and reporting the threshold crossing
exactly once.

Representation: votes are stored as **bitmasks**.  Each distinct sender
name is lazily assigned one bit (senders are replicas and clients, a
small closed population), and each key holds a single int that ORs the
bits of its voters.  A vote is then one dict lookup, one OR and one
``int.bit_count()`` — no per-key set allocation, no per-sender hashing
into a set — which is measurably cheaper in saturated runs where every
message touches a tracker.  The observable API (dedup per sender,
exactly-once threshold crossing, counts, pruning) is unchanged.
"""

from __future__ import annotations

from typing import Dict, Hashable, Set

__all__ = [
    "QuorumTracker",
    "SenderUniverse",
    "VectorQuorumTracker",
    "quorum_size",
    "weak_quorum_size",
]


def quorum_size(f: int) -> int:
    """2f + 1: a majority of correct nodes among 3f + 1."""
    return 2 * f + 1


def weak_quorum_size(f: int) -> int:
    """f + 1: at least one correct node."""
    return f + 1


class QuorumTracker:
    """Counts distinct senders per key; fires once per key at threshold."""

    def __init__(self, threshold: int):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        #: lazily assigned sender -> bit (1 << insertion index).
        self._bits: Dict[str, int] = {}
        #: key -> OR of its voters' bits.
        self._masks: Dict[Hashable, int] = {}
        self._complete: Set[Hashable] = set()

    def add(self, key: Hashable, sender: str) -> bool:
        """Record a vote.  Return True iff this vote *completes* the quorum.

        Duplicate votes from the same sender are ignored; votes arriving
        after completion return False (the action already fired).
        """
        if key in self._complete:
            return False
        bits = self._bits
        bit = bits.get(sender)
        if bit is None:
            bits[sender] = bit = 1 << len(bits)
        masks = self._masks
        mask = masks.get(key)
        if mask is None:
            masks[key] = bit
            if self.threshold <= 1:
                self._complete.add(key)
                return True
            return False
        merged = mask | bit
        if merged == mask:
            return False  # duplicate vote
        masks[key] = merged
        if merged.bit_count() >= self.threshold:
            self._complete.add(key)
            return True
        return False

    def count(self, key: Hashable) -> int:
        if key in self._complete:
            return self.threshold
        return self._masks.get(key, 0).bit_count()

    def complete(self, key: Hashable) -> bool:
        return key in self._complete

    def discard(self, key: Hashable) -> None:
        """Forget a key entirely (e.g. after checkpoint garbage collection)."""
        self._masks.pop(key, None)
        self._complete.discard(key)

    def prune(self, predicate) -> int:
        """Discard every key for which ``predicate(key)`` is true.

        The checkpoint garbage collector uses this to drop all vote state
        below the advancing low watermark in one pass; returns how many
        keys were forgotten.
        """
        stale = set(key for key in self._masks if predicate(key))
        stale.update(key for key in self._complete if predicate(key))
        for key in stale:
            self._masks.pop(key, None)
            self._complete.discard(key)
        return len(stale)

    def __len__(self) -> int:
        # Completed keys usually still hold their vote mask, so take the
        # union rather than the sum.
        return len(self._masks.keys() | self._complete)


class SenderUniverse:
    """Sender → bit interning shared by every tracker of a deployment.

    :class:`QuorumTracker` interns senders per tracker, which is fine at
    f = 1 (each tracker holds a handful of names) but wasteful at
    n = 100–300: every node runs several trackers per instance, and
    each would rebuild its own n-entry sender dict.  One universe per
    cluster assigns each distinct sender name a bit exactly once; all
    :class:`VectorQuorumTracker`\\ s share it.  Bit *positions* never
    affect results — quorum semantics only read ``bit_count()`` — so
    swapping per-tracker interning for a shared universe leaves every
    seeded run byte-identical.
    """

    __slots__ = ("_bits",)

    def __init__(self):
        self._bits: Dict[str, int] = {}

    def bit(self, sender: str) -> int:
        """The (stable) bit for ``sender``, assigned on first sight."""
        bits = self._bits
        bit = bits.get(sender)
        if bit is None:
            bits[sender] = bit = 1 << len(bits)
        return bit

    def __len__(self) -> int:
        return len(self._bits)


class VectorQuorumTracker:
    """Array-structured :class:`QuorumTracker` for large deployments.

    Same observable API and semantics as :class:`QuorumTracker` (the
    reference implementation, cross-checked by property tests), with two
    structural changes for n in the hundreds:

    * sender bits come from a shared :class:`SenderUniverse` instead of
      a per-tracker dict — O(total senders) interning per deployment
      instead of O(trackers × senders);
    * each key stores **one** int: an in-progress key holds the OR of
      its voters' bits, a completed key holds the bitwise complement
      (negative) of its final mask — no separate completion set, half
      the per-key bookkeeping on the hot path.
    """

    __slots__ = ("threshold", "_senders", "_masks")

    def __init__(self, threshold: int, senders: SenderUniverse):
        if threshold < 1:
            raise ValueError("threshold must be at least 1")
        self.threshold = threshold
        self._senders = senders
        #: key -> voters' OR (in progress) or ~OR (completed, negative).
        self._masks: Dict[Hashable, int] = {}

    def add(self, key: Hashable, sender: str) -> bool:
        """Record a vote; True iff this vote completes the quorum."""
        masks = self._masks
        mask = masks.get(key)
        if mask is not None and mask < 0:
            return False  # already complete: the action fired
        senders = self._senders._bits
        bit = senders.get(sender)
        if bit is None:
            senders[sender] = bit = 1 << len(senders)
        if mask is None:
            if self.threshold <= 1:
                masks[key] = ~bit
                return True
            masks[key] = bit
            return False
        merged = mask | bit
        if merged == mask:
            return False  # duplicate vote
        if merged.bit_count() >= self.threshold:
            masks[key] = ~merged
            return True
        masks[key] = merged
        return False

    def count(self, key: Hashable) -> int:
        mask = self._masks.get(key)
        if mask is None:
            return 0
        if mask < 0:
            return self.threshold
        return mask.bit_count()

    def complete(self, key: Hashable) -> bool:
        return self._masks.get(key, 0) < 0

    def keys(self):
        """Live view of the keys holding a vote, in progress or complete."""
        return self._masks.keys()

    def discard(self, key: Hashable) -> None:
        """Forget a key entirely (e.g. after checkpoint garbage collection)."""
        self._masks.pop(key, None)

    def prune(self, predicate) -> int:
        """Discard every key for which ``predicate(key)`` is true."""
        masks = self._masks
        stale = [key for key in masks if predicate(key)]
        for key in stale:
            del masks[key]
        return len(stale)

    def __len__(self) -> int:
        return len(self._masks)
