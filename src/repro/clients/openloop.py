"""Open-loop clients.

RBFT explicitly targets open-loop systems (§II): clients send requests
on their own schedule without waiting for replies.  A request completes
when f+1 valid matching REPLY messages from distinct nodes arrive
(§IV-B step 6).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional

from repro.common.cluster import Cluster
from repro.common.quorum import VectorQuorumTracker, weak_quorum_size
from repro.common.types import Request
from repro.crypto.primitives import MacAuthenticator, Signature
from repro.metrics.recorder import LatencyRecorder
from repro.net.message import Message
from repro.protocols.base import ClientRequestMsg, ReplyMsg

__all__ = ["OpenLoopClient"]


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

        self._next_rid = 0
        self._sent_at: Dict[int, float] = {}
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
        self._next_rid += 1
        rid = self._next_rid
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
        self._sent_at[rid] = self.sim.now
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
        sent = self._sent_at.get(reply.rid)
        if sent is None:
            return
        if self._reply_votes.add((reply.rid, reply.result), msg.sender):
            self.completed += 1
            self.latencies.record(self.sim.now - sent)
            del self._sent_at[reply.rid]
            # Late replies for this rid short-circuit on ``_sent_at``
            # above, so the vote state is unreachable — drop it rather
            # than let it grow with every request ever completed.
            self._reply_votes.discard((reply.rid, reply.result))

    # ----------------------------------------------------------- inspection
    @property
    def outstanding(self) -> int:
        return len(self._sent_at)

    def __repr__(self) -> str:
        return "OpenLoopClient(%s, sent=%d, completed=%d)" % (
            self.name,
            self.sent,
            self.completed,
        )
