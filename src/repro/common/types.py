"""Request and reply types shared by every protocol.

A client request (§IV-B step 1) carries the operation, a request id, the
client id, a **signature** (for non-repudiation when nodes forward it)
and a **MAC authenticator** (cheap first-line check).  Replicas order
either the full request or just its *identifier* — client id, request id
and digest — which is RBFT's optimisation (§IV-B step 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.crypto.costmodel import (
    DIGEST_SIZE,
    MAC_SIZE,
    MESSAGE_HEADER_SIZE,
    SIGNATURE_SIZE,
)
from repro.crypto.primitives import Digest, MacAuthenticator, Signature

__all__ = ["RequestId", "Request", "RequestIdentifier", "Reply"]

#: (client id, per-client sequence number) — globally unique.
RequestId = Tuple[str, int]

_set = object.__setattr__  # how a frozen record fills its derived slots


def _derived():
    """A slot that is not a constructor argument, nor part of ==/hash/repr."""
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Request:
    """A client request as it travels on the wire.

    One object rides every hop of every node's pipeline, so it is a flat
    record: no instance ``__dict__``, the id and wire size derived once
    at construction, the digest, identifier and reply memoised in slots
    on first use (every node and every protocol instance shares them).
    """

    client: str
    rid: int
    payload_size: int  # bytes of operation payload (8 B – 4 kB in §VI)
    signature: Signature
    authenticator: MacAuthenticator
    exec_cost: Optional[float] = None  # overrides the service's default
    sent_at: float = 0.0  # client-side send timestamp (virtual time)
    request_id: RequestId = _derived()
    _wire_size: int = _derived()
    _digest: Optional[Digest] = _derived()
    _identifier: Optional["RequestIdentifier"] = _derived()
    _reply: Optional["Reply"] = _derived()

    def __post_init__(self):
        _set(self, "request_id", (self.client, self.rid))
        _set(
            self,
            "_wire_size",
            MESSAGE_HEADER_SIZE
            + self.payload_size
            + SIGNATURE_SIZE
            + 4 * MAC_SIZE,  # authenticator sized for the f=1 common case
        )
        _set(self, "_digest", None)
        _set(self, "_identifier", None)
        _set(self, "_reply", None)

    def digest(self) -> Digest:
        digest = self._digest
        if digest is None:
            digest = Digest(("req", self.client, self.rid))
            _set(self, "_digest", digest)
        return digest

    def identifier(self) -> "RequestIdentifier":
        identifier = self._identifier
        if identifier is None:
            identifier = RequestIdentifier(self.client, self.rid, self.digest())
            _set(self, "_identifier", identifier)
        return identifier

    def reply(self, result: object, result_size: int) -> "Reply":
        """The reply carrying ``result``: one object for every replica.

        Each correct replica executes the request to an equal result, so
        the first ``Reply`` built is memoised and handed to the others;
        a replica that computes a different result gets its own.
        """
        reply = self._reply
        if reply is None:
            reply = Reply(self.client, self.rid, result, result_size)
            _set(self, "_reply", reply)
        elif reply.result != result or reply.result_size != result_size:
            return Reply(self.client, self.rid, result, result_size)
        return reply

    def wire_size(self) -> int:
        """Bytes on the wire: header + payload + signature + MAC array."""
        return self._wire_size


@dataclass(frozen=True, slots=True)
class RequestIdentifier:
    """What RBFT instances actually order: (client, rid, digest)."""

    client: str
    rid: int
    digest: Digest
    request_id: RequestId = _derived()

    #: wire footprint of one identifier inside an ordering message.
    WIRE_SIZE = 16 + DIGEST_SIZE

    def __post_init__(self):
        _set(self, "request_id", (self.client, self.rid))


@dataclass(frozen=True, slots=True)
class Reply:
    """The result of executing a request, sent node → client (step 6).

    Every node keeps the last one per client identity (in its
    ``ExecutedIds`` table), so nothing is stored beyond the fields: ``request_id`` is
    read off the hot path and built on demand.  It names no node — the
    sender travels on the ``ReplyMsg`` — so the replicas that computed
    the same result share one object (:meth:`Request.reply`).
    """

    client: str
    rid: int
    result: object
    result_size: int = 8

    @property
    def request_id(self) -> RequestId:
        return (self.client, self.rid)
