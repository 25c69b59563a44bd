"""Exactly-once execution state in O(clients), not O(requests).

PBFT-lineage replicas deduplicate executions with *per-client* state:
a correct client numbers its requests 1, 2, 3, …, so "everything up to
``h`` has executed" is one int.  :class:`ExecutedIds` is the set of
executed ``(client, rid)`` pairs stored that way — per client the
highest ``h`` with every rid in ``1..h`` executed, plus only the rids
executed *ahead* of the gap — with the membership of a plain ``set`` of
tuples for every input: rids that are ≤ 0, huge, repeated or never
contiguous simply stay in the ahead-set.
"""

from __future__ import annotations

from collections.abc import Set
from typing import Dict, Iterable, Iterator, Union

from .types import RequestId

__all__ = ["ExecutedIds"]


class ExecutedIds(Set):
    """The set of executed request ids, one watermark per client."""

    __slots__ = ("_high", "_ahead", "_count")

    #: ``-``, ``^``, ``&`` and ``|`` yield plain sets.
    _from_iterable = set

    def __init__(self, request_ids: Iterable[RequestId] = ()):
        #: client -> h >= 1: every rid in 1..h executed.
        self._high: Dict[str, int] = {}
        #: client -> rids executed outside 1..h+1: a bare int while there
        #: is one (a population identity's only, population-wide, rid),
        #: a set of two or more otherwise.
        self._ahead: Dict[str, Union[int, set]] = {}
        self._count = 0
        for request_id in request_ids:
            self.add(request_id)

    def __contains__(self, request_id) -> bool:
        client, rid = request_id
        if 0 < rid <= self._high.get(client, 0):
            return True
        ahead = self._ahead.get(client)
        if ahead is None:
            return False
        return rid in ahead if type(ahead) is set else rid == ahead

    def add(self, request_id: RequestId) -> bool:
        """Record an execution; True iff it was not recorded before."""
        client, rid = request_id
        high = self._high.get(client, 0)
        if 0 < rid <= high:
            return False
        ahead = self._ahead.get(client)
        if rid != high + 1:
            if ahead is None:
                self._ahead[client] = rid
            elif type(ahead) is set:
                if rid in ahead:
                    return False
                ahead.add(rid)
            elif rid == ahead:
                return False
            else:
                self._ahead[client] = {ahead, rid}
        elif ahead is None:
            self._high[client] = rid  # a correct client: the next in order
        else:
            # The gap closed: the watermark absorbs what ran ahead of it.
            if type(ahead) is not set:
                ahead = {ahead}
            while rid + 1 in ahead:
                rid += 1
                ahead.remove(rid)
            self._high[client] = rid
            if len(ahead) > 1:
                self._ahead[client] = ahead
            elif ahead:
                self._ahead[client] = ahead.pop()
            else:
                del self._ahead[client]
        self._count += 1
        return True

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RequestId]:
        for client, high in self._high.items():
            for rid in range(1, high + 1):
                yield (client, rid)
        for client, ahead in self._ahead.items():
            for rid in ahead if type(ahead) is set else (ahead,):
                yield (client, rid)

    def stored_entries(self) -> int:
        """Ints actually held — what memory scales with, unlike ``len``."""
        return len(self._high) + sum(
            len(ahead) if type(ahead) is set else 1
            for ahead in self._ahead.values()
        )
