"""RBFT-specific wire messages (§IV-B, §IV-D)."""

from __future__ import annotations

from typing import Sequence

from repro.common.types import Request
from repro.crypto.costmodel import MAC_SIZE, MESSAGE_HEADER_SIZE
from repro.crypto.primitives import MacAuthenticator
from repro.net.message import Message

__all__ = ["PropagateMsg", "InstanceChangeMsg", "FloodMsg", "InstanceBatchMsg"]


class PropagateMsg(Message):
    """Step 2: a node forwards a verified client request to all nodes.

    Carries the full request (body and client signature), so f+1
    PROPAGATE messages guarantee every correct node can obtain it.
    """

    __slots__ = ("request", "authenticator", "_wire_size")

    def __init__(self, sender: str, request: Request, authenticator: MacAuthenticator):
        self.sender = sender
        self.request = request
        self.authenticator = authenticator
        self._wire_size = MESSAGE_HEADER_SIZE + request.wire_size() + 4 * MAC_SIZE

    def wire_size(self) -> int:
        return self._wire_size


class InstanceChangeMsg(Message):
    """§IV-D: a node's vote to replace every primary at once.

    ``preferred_master`` is used only in best-backup-promotion mode
    (§IV-A future work): the 2f+1 matching votes must then also agree on
    which instance becomes the new master.
    """

    __slots__ = ("cpi", "preferred_master", "authenticator")

    def __init__(
        self,
        sender: str,
        cpi: int,
        authenticator: MacAuthenticator,
        preferred_master: int = 0,
    ):
        super().__init__(sender)
        self.cpi = cpi
        self.preferred_master = preferred_master
        self.authenticator = authenticator

    def wire_size(self) -> int:
        return MESSAGE_HEADER_SIZE + 12 + 4 * MAC_SIZE


class InstanceBatchMsg(Message):
    """A certificate envelope across the f+1 ordering instances.

    Above the pacing threshold, the per-instance PRE-PREPARE / PREPARE /
    COMMIT streams between one (sender, receiver) pair carry no
    independent information — the instances order the same propagated
    requests under independent primaries — so a node coalesces a short
    window of them into one simulated message under one authenticator
    (the aggregation argument of Berger et al.; see
    docs/simulator.md "Redundant-instance batching").  The inner
    messages keep their own authenticators so per-instance dispatch
    still validates exactly as on the unbatched path; the *wire* cost
    models a single outer MAC vector plus the inner payloads without
    their per-message MAC vectors.
    """

    __slots__ = ("messages", "authenticator", "_wire_size", "_runs", "_rx_cost")

    def __init__(
        self,
        sender: str,
        messages: Sequence[Message],
        authenticator: MacAuthenticator,
    ):
        super().__init__(sender)
        self.messages = tuple(messages)
        self.authenticator = authenticator
        # One header + one outer MAC vector; each inner message sheds its
        # own MAC vector (its authenticator is checked, but not re-sent).
        self._wire_size = (
            MESSAGE_HEADER_SIZE
            + 4 * MAC_SIZE
            + sum(
                max(m.wire_size() - 4 * MAC_SIZE, 0) for m in self.messages
            )
        )
        self._runs = None
        self._rx_cost = None

    def wire_size(self) -> int:
        return self._wire_size

    def runs(self):
        """Per-instance runs of the payload, grouped once per envelope.

        A broadcast delivers the same (immutable) envelope to every
        peer, so the grouping — and the receive-cost memo the node
        layer stores in ``_rx_cost``, identical for every receiver of a
        deployment — is computed once and shared by all n-1 receivers.
        """
        runs = self._runs
        if runs is None:
            from repro.common.batching import group_by_instance

            runs = self._runs = group_by_instance(self.messages)
        return runs


class FloodMsg(Message):
    """An invalid maximal-size message used by flooding attackers (§VI-C).

    The receiver pays the bandwidth and a MAC verification before it can
    discard it — unless it has already closed the sender's NIC (§V).
    """

    __slots__ = ("size", "authenticator")

    def __init__(self, sender: str, size: int):
        super().__init__(sender)
        self.size = size
        self.authenticator = MacAuthenticator.corrupt(sender)

    def wire_size(self) -> int:
        return self.size
