"""Client populations: millions of users behind one event source.

Every :class:`~repro.clients.openloop.OpenLoopClient` is a simulator
object with its own port and 2n channels, which caps realistic client
counts at a few thousand.  A :class:`ClientPopulation` models a whole
*population* as a single superposed arrival process instead: one
cluster port carries the aggregate stream, and each request samples a
client *identity* on demand from the declared population size.  A
scenario can therefore declare 10^6 users at production request rates
while the simulator holds exactly one object.

Identities are virtual: request ``client`` ids take the form
``"<population>#<index>"`` with ``index < size``.  Everything the
protocol side does per client — signature blacklisting, per-client
fairness monitoring, reply caching — keys on that id and therefore
operates per sampled identity, exactly as it would with exploded
clients.  Reply routing resolves the owner prefix back to the
population's port (see ``Machine.channel_to_client``).

Determinism contract:

* request ids are globally unique across identities (a single counter),
  so reply-quorum tracking keyed ``(rid, result)`` needs no per-identity
  state;
* ``sampling="paced"`` assigns identities round-robin over the
  profile's active window — byte-identical identity sequence to a
  :class:`LoadGenerator` over ``size`` exploded clients;
* ``sampling="uniform"`` draws identities from a dedicated named RNG
  stream (``cluster.rng.stream("population")``), so enabling it never
  perturbs the arrival process or any other seeded stream.
"""

from __future__ import annotations

from collections.abc import Set
from typing import Iterable, Iterator, Optional

from repro.common.cluster import Cluster
from repro.common.quorum import VectorQuorumTracker, weak_quorum_size
from repro.common.types import Request
from repro.crypto.primitives import MacAuthenticator, Signature
from repro.metrics.recorder import LatencyRecorder
from repro.net.message import Message
from repro.protocols.base import ClientRequestMsg, ReplyMsg

from .openloop import SendTimes

__all__ = ["ClientPopulation"]


class IndexBitmap(Set):
    """A set of indices in ``range(size)``, stored as one bit each.

    ``size / 8`` bytes whatever the members, where a plain ``set`` of
    ints costs a hash slot plus an int object per member; membership,
    iteration (ascending) and comparison are those of that ``set``.
    """

    __slots__ = ("_bits", "_count")

    #: ``-``, ``^``, ``&`` and ``|`` yield plain sets.
    _from_iterable = set

    def __init__(self, size: int):
        self._bits = bytearray((size + 7) >> 3)
        self._count = 0

    def add(self, index: int) -> None:
        """Add ``index``, which must lie in ``range(size)``."""
        mask = 1 << (index & 7)
        bits = self._bits
        byte = bits[index >> 3]
        if not byte & mask:
            bits[index >> 3] = byte | mask
            self._count += 1

    def __contains__(self, index) -> bool:
        if not isinstance(index, int) or not 0 <= index < 8 * len(self._bits):
            return False
        return bool(self._bits[index >> 3] >> (index & 7) & 1)

    def __iter__(self) -> Iterator[int]:
        for position, byte in enumerate(self._bits):
            if byte:
                base = position << 3
                for bit in range(8):
                    if byte >> bit & 1:
                        yield base + bit

    def __len__(self) -> int:
        return self._count


class ClientPopulation:
    """A declared population of clients sharing one cluster port.

    Quacks like a single :class:`OpenLoopClient` for everything the
    harness aggregates over — ``sent``/``completed``/``latencies``/
    ``outstanding`` — so :class:`LoadGenerator` treats a population run
    as a one-client pool.
    """

    def __init__(
        self,
        cluster: Cluster,
        size: int,
        payload_size: int = 8,
        name: str = "pop0",
        sampling: str = "paced",
        broadcast: bool = True,
    ):
        if size < 1:
            raise ValueError("population size must be >= 1")
        if sampling not in ("paced", "uniform"):
            raise ValueError(
                "unknown sampling %r (expected 'paced' or 'uniform')" % (sampling,)
            )
        self.cluster = cluster
        self.sim = cluster.sim
        self.name = name
        self.size = size
        self.payload_size = payload_size
        self.sampling = sampling
        self.broadcast = broadcast
        self.port = cluster.add_client(name)
        self.port.handler = self._on_message
        #: dedicated identity-sampling stream; drawing from it never
        #: advances the "load"/"network" streams of existing runs.
        self._rng = cluster.rng.stream("population")

        self._sent = SendTimes()
        self._reply_votes = VectorQuorumTracker(
            weak_quorum_size(cluster.f), cluster.senders
        )
        self.latencies = LatencyRecorder()
        self.sent = 0
        self.completed = 0
        #: distinct identity indices that have issued at least one
        #: request — observability for fairness/blacklist assertions.
        self.identities_seen = IndexBitmap(size)

    # ---------------------------------------------------------------- send
    def send_request(
        self,
        index: Optional[int] = None,
        exec_cost: Optional[float] = None,
        payload_size: Optional[int] = None,
        signature_valid: bool = True,
        mac_invalid_for: Optional[Iterable[str]] = None,
        targets: Optional[Iterable[str]] = None,
    ) -> Request:
        """Issue one request as identity ``index`` (sampled when None).

        The fault knobs mirror :meth:`OpenLoopClient.send_request`; they
        apply to whichever identity the request is issued as, so nodes
        blacklist (and fairness-monitor) exactly that sampled id.
        """
        if index is None:
            index = self._rng.randrange(self.size)
        elif not 0 <= index < self.size:
            raise ValueError(
                "identity index %d outside population of %d" % (index, self.size)
            )
        identity = "%s#%d" % (self.name, index)
        rid = self._sent.issue(self.sim.now)
        request = Request(
            client=identity,
            rid=rid,
            payload_size=payload_size if payload_size is not None else self.payload_size,
            # Per-request tags, not ``for_signer``: an interned tag per
            # sampled identity would outlive the request (and the run).
            signature=Signature(identity, signature_valid),
            authenticator=MacAuthenticator(
                identity, frozenset(mac_invalid_for) if mac_invalid_for else None
            ),
            exec_cost=exec_cost,
            sent_at=self.sim.now,
        )
        self.sent += 1
        self.identities_seen.add(index)
        msg = ClientRequestMsg(request)
        if targets is None and self.broadcast:
            self.port.broadcast(msg)
        else:
            for dst in targets if targets is not None else []:
                self.port.send_to_node(dst, msg)
        return request

    # -------------------------------------------------------------- replies
    def _on_message(self, msg: Message) -> None:
        if not isinstance(msg, ReplyMsg):
            return
        reply = msg.reply
        if not msg.mac.valid or reply.client.partition("#")[0] != self.name:
            return
        sent = self._sent.get(reply.rid)
        if sent is None:
            return
        if self._reply_votes.add((reply.rid, reply.result), msg.sender):
            self.completed += 1
            self.latencies.record(self.sim.now - sent)
            self._sent.answer(reply.rid)
            # Late replies short-circuit on ``_sent`` above; drop the
            # vote state so it stays bounded over long runs.
            self._reply_votes.discard((reply.rid, reply.result))

    # ----------------------------------------------------------- inspection
    @property
    def outstanding(self) -> int:
        return self._sent.outstanding

    def __repr__(self) -> str:
        return "ClientPopulation(%s, size=%d, sent=%d, completed=%d)" % (
            self.name,
            self.size,
            self.sent,
            self.completed,
        )
