"""Per-client replica state in O(clients), not O(requests).

PBFT-lineage replicas keep one piece of state per client: what has
executed (exactly-once execution) and the last reply, re-sent when the
client retransmits.  :class:`ExecutedIds` is that table.

As a set it holds the executed ``(client, rid)`` pairs: a correct
client numbers its requests 1, 2, 3, …, so "everything up to ``h`` has
executed" is one int.  Per client it stores the highest ``h`` with every
rid in ``1..h`` executed, plus only the rids executed *ahead* of the
gap — with the membership of a plain ``set`` of tuples for every input:
rids that are ≤ 0, huge, repeated or never contiguous simply stay in the
ahead-set.

Beside it, :meth:`ExecutedIds.record_reply` keeps each client's last
reply.  A population identity executes one rid, held ahead of an empty
watermark; once its reply is recorded, the reply (which carries that
rid) *is* the identity's entry, so it costs one dict entry, not two.
"""

from __future__ import annotations

from collections.abc import Mapping, Set
from typing import Dict, Iterable, Iterator, Optional, Union

from .types import Reply, RequestId

__all__ = ["ExecutedIds"]


class ExecutedIds(Set):
    """The set of executed request ids, one watermark per client, plus
    each client's last reply."""

    __slots__ = ("_high", "_ahead", "_replies", "_count")

    #: ``-``, ``^``, ``&`` and ``|`` yield plain sets.
    _from_iterable = set

    def __init__(self, request_ids: Iterable[RequestId] = ()):
        #: client -> h >= 1: every rid in 1..h executed.
        self._high: Dict[str, int] = {}
        #: client -> rids executed outside 1..h+1: a bare int while there
        #: is one (a population identity's only, population-wide, rid) —
        #: or the client's last ``Reply`` when that reply is for this
        #: rid — and a set of two or more otherwise.
        self._ahead: Dict[str, Union[int, Reply, set]] = {}
        #: client -> last reply, for the clients whose reply is not
        #: their ``_ahead`` entry.
        self._replies: Dict[str, Reply] = {}
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
        if type(ahead) is set:
            return rid in ahead
        if type(ahead) is Reply:
            return rid == ahead.rid
        return rid == ahead

    def add(self, request_id: RequestId) -> bool:
        """Record an execution; True iff it was not recorded before."""
        client, rid = request_id
        high = self._high.get(client, 0)
        if 0 < rid <= high:
            return False
        ahead = self._ahead.get(client)
        if type(ahead) is Reply:
            if rid == ahead.rid:
                return False
            # Every path below rewrites the entry: the reply moves out.
            self._replies[client] = ahead
            ahead = ahead.rid
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

    def record_reply(self, reply: Reply) -> None:
        """Make ``reply`` its client's last reply."""
        client = reply.client
        ahead = self._ahead.get(client)
        if ahead is None or type(ahead) is set:
            self._replies[client] = reply
            return
        ahead_rid = ahead.rid if type(ahead) is Reply else ahead
        if reply.rid == ahead_rid:
            self._ahead[client] = reply  # the reply stands for the rid
            self._replies.pop(client, None)
        else:
            self._ahead[client] = ahead_rid
            self._replies[client] = reply

    def _last_reply(self, client: str) -> Optional[Reply]:
        ahead = self._ahead.get(client)
        if type(ahead) is Reply:
            return ahead
        return self._replies.get(client)

    def reply_for(self, request) -> Optional[Reply]:
        """The reply to re-send for a duplicate of ``request``: the
        client's last reply if it answers this very rid, else None."""
        reply = self._last_reply(request.client)
        if reply is not None and reply.rid == request.rid:
            return reply
        return None

    def replies(self) -> "LastReplies":
        """A read-only ``client -> last reply`` view of the table."""
        return LastReplies(self)

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[RequestId]:
        for client, high in self._high.items():
            for rid in range(1, high + 1):
                yield (client, rid)
        for client, ahead in self._ahead.items():
            if type(ahead) is set:
                for rid in ahead:
                    yield (client, rid)
            else:
                yield (client, ahead.rid if type(ahead) is Reply else ahead)

    def stored_entries(self) -> int:
        """Executed rids actually held — what memory scales with, unlike
        ``len`` (a reply standing for a rid counts as that rid)."""
        return len(self._high) + sum(
            len(ahead) if type(ahead) is set else 1
            for ahead in self._ahead.values()
        )


class LastReplies(Mapping):
    """``client -> last reply`` of an :class:`ExecutedIds`; stores nothing."""

    __slots__ = ("_table",)

    def __init__(self, table: ExecutedIds):
        self._table = table

    def __getitem__(self, client: str) -> Reply:
        reply = self._table._last_reply(client)
        if reply is None:
            raise KeyError(client)
        return reply

    def __iter__(self) -> Iterator[str]:
        table = self._table
        for client, ahead in table._ahead.items():
            if type(ahead) is Reply:
                yield client
        yield from table._replies

    def __len__(self) -> int:
        table = self._table
        return len(table._replies) + sum(
            type(ahead) is Reply for ahead in table._ahead.values()
        )
