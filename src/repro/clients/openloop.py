"""Open-loop clients.

RBFT explicitly targets open-loop systems (§II): clients send requests
on their own schedule without waiting for replies.  A request completes
when f+1 valid matching REPLY messages from distinct nodes arrive
(§IV-B step 6).
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, FrozenSet, Iterable, Optional

from repro.common.cluster import Cluster
from repro.common.quorum import VectorQuorumTracker, weak_quorum_size
from repro.common.types import Request
from repro.crypto.primitives import MacAuthenticator, Signature
from repro.metrics.recorder import BLOCK, LatencyRecorder, new_block
from repro.net.message import Message
from repro.protocols.base import ClientRequestMsg, ReplyMsg

__all__ = ["OpenLoopClient", "SendTimes"]


class SendTimes:
    """Rids 1, 2, … and the send time of each one not yet answered.

    Times sit in float blocks keyed ``(rid - 1) // BLOCK``, NaN once
    answered.  A fully issued block with at most 1/8 of its rids open
    moves those to a straggler dict and is released, so memory stays
    O(outstanding) whatever the completion order.
    """

    __slots__ = ("_blocks", "_open", "_stragglers", "_next", "outstanding")

    def __init__(self) -> None:
        self._blocks: Dict[int, array] = {}
        self._open: Dict[int, int] = {}  # unanswered rids per block
        self._stragglers: Dict[int, float] = {}
        self._next = 1
        self.outstanding = 0

    def issue(self, now: float) -> int:
        """Allocate the next rid, sent at ``now``."""
        rid, self._next = self._next, self._next + 1
        key, offset = divmod(rid - 1, BLOCK)
        if not offset:
            self._blocks[key], self._open[key] = new_block(), 0
            self._release(key - 1)
        self._blocks[key][offset] = now
        self._open[key] += 1
        self.outstanding += 1
        return rid

    def get(self, rid: int) -> Optional[float]:
        """``rid``'s send time, or None unless issued and unanswered."""
        key, offset = divmod(rid - 1, BLOCK)
        block = self._blocks.get(key)
        if block is None or rid >= self._next:
            return self._stragglers.get(rid)
        return None if math.isnan(block[offset]) else block[offset]

    def answer(self, rid: int) -> None:
        """Forget ``rid``, for which :meth:`get` returned a time."""
        self.outstanding -= 1
        key, offset = divmod(rid - 1, BLOCK)
        block = self._blocks.get(key)
        if block is None:
            del self._stragglers[rid]
            return
        block[offset] = math.nan
        self._open[key] -= 1
        self._release(key)

    def _release(self, key: int) -> None:
        """Release block ``key`` if fully issued and at most 1/8 open."""
        if 8 * self._open.get(key, BLOCK) > BLOCK or (key + 1) * BLOCK >= self._next:
            return
        del self._open[key]
        first = key * BLOCK + 1
        for offset, sent in enumerate(self._blocks.pop(key)):
            if not math.isnan(sent):
                self._stragglers[first + offset] = sent


class OpenLoopClient:
    """One client identity attached to the cluster."""

    def __init__(
        self,
        cluster: Cluster,
        name: str,
        payload_size: int = 8,
        broadcast: bool = True,
    ):
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        self.payload_size = payload_size
        self.broadcast = broadcast
        self.port = cluster.add_client(name)
        self.port.handler = self._on_message

        self._sent = SendTimes()
        self._reply_votes = VectorQuorumTracker(
            weak_quorum_size(cluster.f), cluster.senders
        )
        self.latencies = LatencyRecorder()
        self.sent = 0
        self.completed = 0
        #: one corrupted tag per ``invalid_for`` set: worst-attack-1 sends
        #: every request with the same one.
        self._corrupt_tags: Dict[FrozenSet[str], MacAuthenticator] = {}

    # ---------------------------------------------------------------- send
    def send_request(
        self,
        exec_cost: Optional[float] = None,
        payload_size: Optional[int] = None,
        signature_valid: bool = True,
        mac_invalid_for: Optional[Iterable[str]] = None,
        targets: Optional[Iterable[str]] = None,
    ) -> Request:
        """Issue one request.

        The fault knobs model the colluding-client behaviours of §VI-C:
        ``signature_valid=False`` sends unfaithful requests that cost the
        nodes a signature verification and get the client blacklisted;
        ``mac_invalid_for`` corrupts the authenticator entry of selected
        nodes; ``targets`` restricts which nodes receive the request at
        all; ``exec_cost`` issues the heavy requests of the Prime attack.
        """
        rid = self._sent.issue(self.sim.now)
        request = Request(
            client=self.name,
            rid=rid,
            payload_size=payload_size if payload_size is not None else self.payload_size,
            signature=(
                Signature.for_signer(self.name)
                if signature_valid
                else Signature(self.name, valid=False)
            ),
            authenticator=(
                self._corrupt_tag(frozenset(mac_invalid_for))
                if mac_invalid_for
                else MacAuthenticator.for_signer(self.name)
            ),
            exec_cost=exec_cost,
            sent_at=self.sim.now,
        )
        self.sent += 1
        msg = ClientRequestMsg(request)
        if targets is None and self.broadcast:
            self.port.broadcast(msg)
        else:
            for dst in targets if targets is not None else []:
                self.port.send_to_node(dst, msg)
        return request

    def _corrupt_tag(self, invalid_for: FrozenSet[str]) -> MacAuthenticator:
        tag = self._corrupt_tags.get(invalid_for)
        if tag is None:
            tag = self._corrupt_tags[invalid_for] = MacAuthenticator(
                self.name, invalid_for=invalid_for
            )
        return tag

    # -------------------------------------------------------------- replies
    def _on_message(self, msg: Message) -> None:
        if not isinstance(msg, ReplyMsg):
            return
        reply = msg.reply
        if reply.client != self.name or not msg.mac.valid:
            return
        sent = self._sent.get(reply.rid)
        if sent is None:
            return
        if self._reply_votes.add((reply.rid, reply.result), msg.sender):
            self.completed += 1
            self.latencies.record(self.sim.now - sent)
            self._sent.answer(reply.rid)
            # Late replies for this rid short-circuit on ``_sent``
            # above, so the vote state is unreachable — drop it rather
            # than let it grow with every request ever completed.
            self._reply_votes.discard((reply.rid, reply.result))

    # ----------------------------------------------------------- inspection
    @property
    def outstanding(self) -> int:
        return self._sent.outstanding

    def __repr__(self) -> str:
        return "OpenLoopClient(%s, sent=%d, completed=%d)" % (
            self.name,
            self.sent,
            self.completed,
        )
