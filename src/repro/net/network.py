"""Point-to-point channels and the network fabric.

The testbed in the paper is a Gigabit switched LAN.  We model each
(sender NIC, receiver NIC) pair as a :class:`Channel` with

* transmission time on the sender NIC (``size / bandwidth``),
* a propagation latency with optional jitter,
* reception time on the receiver NIC,
* either **TCP** semantics — lossless and FIFO per channel, with a small
  per-message overhead for acknowledgements/flow control (this overhead
  is what makes the UDP variant of RBFT ~20 % faster in latency, §VI-B)
  — or **UDP** semantics — possible loss and reordering, no overhead.

Flooding protection: if the receiving NIC is closed (RBFT closes the NIC
of a flooding node, §V), traffic arriving while it is closed is dropped
in hardware at no cost to the receiver.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heappush
from typing import Callable, Iterable, Optional

from repro.sim.engine import Simulator

from .message import Message
from .nic import NIC

__all__ = ["LinkProfile", "Channel", "Network", "GIGABIT_BPS"]

#: 1 Gbit/s expressed in bytes per second.
GIGABIT_BPS = 125_000_000.0


@dataclass(frozen=True)
class LinkProfile:
    """Propagation characteristics of a link."""

    latency: float = 60e-6  # one-way LAN latency, seconds
    jitter: float = 10e-6  # uniform [0, jitter) added per message
    tcp_overhead: float = 45e-6  # extra per-message latency under TCP
    udp_loss: float = 0.0  # drop probability under UDP
    udp_duplicate: float = 0.0  # duplicate-delivery probability under UDP
    #: bottleneck link bandwidth in bytes/s; 0 (the default) means the
    #: link itself is unconstrained and only the NICs pace traffic.  A
    #: WAN topology sets this on cross-region profiles: each message
    #: pays ``size / bandwidth`` of serialisation on the shared pipe.
    bandwidth: float = 0.0


LAN = LinkProfile()


class Channel:
    """A unidirectional (sender NIC → receiver NIC) message pipe."""

    __slots__ = (
        "network",
        "src",
        "dst",
        "src_nic",
        "dst_nic",
        "profile",
        "tcp",
        "handler",
        "intercept",
        "_last_delivery",
        "delivered",
        "dropped",
        "duplicated",
        "_sim",
        "_rng",
        "_latency",
        "_jitter",
        "_tcp_overhead",
        "_udp_loss",
        "_udp_duplicate",
        "_bandwidth",
    )

    def __init__(
        self,
        network: "Network",
        src: str,
        dst: str,
        src_nic: NIC,
        dst_nic: NIC,
        handler: Callable[[Message], None],
        profile: LinkProfile = LAN,
        tcp: bool = True,
    ):
        self.network = network
        self.src = src
        self.dst = dst
        self.src_nic = src_nic
        self.dst_nic = dst_nic
        self.profile = profile
        self.tcp = tcp
        self.handler = handler
        #: optional fault-injection hook (see ``repro.verify.interceptor``):
        #: when set, ``send`` hands the message to it instead of the wire;
        #: the hook decides to drop, delay, duplicate or pass it through
        #: via ``send_direct``.  ``None`` (the default) costs one slot
        #: load per send.
        self.intercept = None
        self._last_delivery = 0.0
        self.delivered = 0
        self.dropped = 0
        self.duplicated = 0
        # Cached one level up from ``network`` — both are fixed for the
        # network's lifetime and this is the hottest path in the model.
        self._sim = network.sim
        self._rng = network.rng
        # The profile is frozen, so its scalars are hoisted into slots:
        # ``_deliver_from`` reads them per message.
        self._latency = profile.latency
        self._jitter = profile.jitter
        self._tcp_overhead = profile.tcp_overhead
        self._udp_loss = profile.udp_loss
        self._udp_duplicate = profile.udp_duplicate
        self._bandwidth = profile.bandwidth

    def send(self, msg: Message) -> None:
        """Transmit ``msg``; the receiver's handler fires on delivery."""
        hook = self.intercept
        if hook is not None:
            hook(self, msg)
            return
        size = msg.wire_size()
        self._deliver_from(msg, self.src_nic.reserve_tx(size), size)

    def send_direct(self, msg: Message) -> None:
        """Transmit bypassing the intercept hook (the hook's exit path)."""
        size = msg.wire_size()
        self._deliver_from(msg, self.src_nic.reserve_tx(size), size)

    def _deliver_from(self, msg: Message, tx_done: float, size: int) -> None:
        """Propagate a message whose transmission completes at ``tx_done``."""
        sim = self._sim
        arrival = tx_done + self._latency
        link_bw = self._bandwidth
        if link_bw:
            # Serialisation over the bottleneck WAN pipe; 0 (the LAN
            # default) skips the branch, keeping seeded runs identical.
            arrival += size / link_bw
        rng = self._rng
        jitter = self._jitter
        if jitter > 0:
            arrival += rng.random() * jitter
        tracer = sim.tracer
        tracing = tracer is not None and tracer.enabled
        tcp = self.tcp
        copies = 1
        if tcp:
            arrival += self._tcp_overhead
        else:
            if self._udp_loss > 0 and rng.random() < self._udp_loss:
                self.dropped += 1
                if tracing:
                    tracer.emit(
                        sim.now, "chan.drop", self.src,
                        dst=self.dst, size=size, reason="udp-loss",
                    )
                return
            # Drawn only when the knob is set, so existing seeded runs
            # replay byte-identically with the default profile.
            if self._udp_duplicate > 0 and rng.random() < self._udp_duplicate:
                copies = 2
                self.duplicated += 1
        dst_nic = self.dst_nic
        if arrival < dst_nic.closed_until:
            # The receiver closed this NIC: hardware drop, zero cost.
            dst_nic.note_dropped()
            self.dropped += 1
            if tracing:
                tracer.emit(
                    sim.now, "chan.drop", self.src,
                    dst=self.dst, size=size, reason="nic-closed",
                )
            return
        # ``copies`` is 2 when the switch duplicated a UDP datagram (no
        # exactly-once guarantee); each copy pays its own reception.
        for _ in range(copies):
            if tracing:
                deliver_at = dst_nic.reserve_rx(size, arrival)
            else:
                # reserve_rx inlined (sans trace emit): same arithmetic,
                # same accounting, one call frame less on the hot path.
                rx_free = dst_nic.rx_free_at
                start = arrival if arrival > rx_free else rx_free
                deliver_at = start + size / dst_nic.bandwidth
                dst_nic.rx_free_at = deliver_at
                dst_nic.bytes_rx += size
                dst_nic.msgs_rx += 1
            if tcp and deliver_at < self._last_delivery:
                deliver_at = self._last_delivery  # FIFO guarantee
            self._last_delivery = deliver_at
            self.delivered += 1
            if tracing:
                tracer.emit(
                    sim.now, "chan.deliver", self.src,
                    dst=self.dst, size=size, at=deliver_at,
                )
            # Deliveries are never cancelled: anonymous fast path, inlined.
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (deliver_at, seq, self.handler, msg))

    def _deliver_untraced(self, msg: Message, tx_done: float, size: int) -> None:
        """``_deliver_from`` specialised for the untraced case.

        :meth:`Network.broadcast`/:meth:`Network.multicast` hoist the
        tracer check once per fan-out and route every channel of an
        untraced batch here: same arithmetic, same RNG draw order, same
        NIC accounting as ``_deliver_from``, with the per-message tracer
        lookups and emit branches removed.
        """
        sim = self._sim
        arrival = tx_done + self._latency
        link_bw = self._bandwidth
        if link_bw:
            arrival += size / link_bw
        rng = self._rng
        jitter = self._jitter
        if jitter > 0:
            arrival += rng.random() * jitter
        tcp = self.tcp
        copies = 1
        if tcp:
            arrival += self._tcp_overhead
        else:
            if self._udp_loss > 0 and rng.random() < self._udp_loss:
                self.dropped += 1
                return
            if self._udp_duplicate > 0 and rng.random() < self._udp_duplicate:
                copies = 2
                self.duplicated += 1
        dst_nic = self.dst_nic
        if arrival < dst_nic.closed_until:
            # note_dropped inlined (its trace emit is dead here).
            dst_nic.dropped_while_closed += 1
            self.dropped += 1
            return
        bandwidth = dst_nic.bandwidth
        for _ in range(copies):
            rx_free = dst_nic.rx_free_at
            start = arrival if arrival > rx_free else rx_free
            deliver_at = start + size / bandwidth
            dst_nic.rx_free_at = deliver_at
            dst_nic.bytes_rx += size
            dst_nic.msgs_rx += 1
            if tcp and deliver_at < self._last_delivery:
                deliver_at = self._last_delivery  # FIFO guarantee
            self._last_delivery = deliver_at
            self.delivered += 1
            sim._seq = seq = sim._seq + 1
            heappush(sim._heap, (deliver_at, seq, self.handler, msg))

    def __repr__(self) -> str:
        return "Channel(%s->%s, %s)" % (self.src, self.dst, "tcp" if self.tcp else "udp")


class Network:
    """Factory and bookkeeping for channels.

    A single RNG stream drives jitter and loss across all channels so
    experiments replay deterministically from one seed.
    """

    def __init__(self, sim: Simulator, rng: Optional[random.Random] = None):
        self.sim = sim
        self.rng = rng or random.Random(0)
        self.channels = []

    def connect(
        self,
        src: str,
        dst: str,
        src_nic: NIC,
        dst_nic: NIC,
        handler: Callable[[Message], None],
        profile: LinkProfile = LAN,
        tcp: bool = True,
    ) -> Channel:
        channel = Channel(self, src, dst, src_nic, dst_nic, handler, profile, tcp)
        self.channels.append(channel)
        return channel

    @staticmethod
    def multicast(channels: Iterable[Channel], msg: Message) -> None:
        """Send ``msg`` on several channels sharing one sender NIC.

        Under UDP multicast (Spinning, §VI-B) the sender transmits the
        packet once; receivers each pay their own reception.  We charge
        the sender NIC once and fan the single transmission out.
        Channels carrying a fault-injection intercept hand the message
        to their hook, exactly as ``send`` would; the hook-free ones
        share the one transmission.
        """
        tx_done = None
        for channel in channels:
            hook = channel.intercept
            if hook is not None:
                hook(channel, msg)
                continue
            if tx_done is None:
                size = msg.wire_size()
                tx_done = channel.src_nic.reserve_tx(size)
                tracer = channel._sim.tracer
                tracing = tracer is not None and tracer.enabled
            if tracing:
                channel._deliver_from(msg, tx_done, size)
            else:
                channel._deliver_untraced(msg, tx_done, size)

    @staticmethod
    def broadcast(channels: Iterable[Channel], msg: Message) -> None:
        """Send ``msg`` on several channels with independent sender NICs.

        The unicast fan-out (TCP, or separate per-peer NICs): every
        channel pays its own transmission, but the wire size — a pure
        function of the message — is computed once for the whole batch.
        Channels carrying a fault-injection intercept hand the message
        to their hook, exactly as ``send`` would.  The tracer check is
        hoisted once per fan-out: the untraced batch inlines the
        ``reserve_tx`` arithmetic per channel (same accounting, same RNG
        draw order) and delivers through ``_deliver_untraced``.
        """
        size = None
        tracing = sim = None
        for channel in channels:
            hook = channel.intercept
            if hook is not None:
                hook(channel, msg)
                continue
            if size is None:
                size = msg.wire_size()
                sim = channel._sim
                tracer = sim.tracer
                tracing = tracer is not None and tracer.enabled
            if tracing:
                channel._deliver_from(msg, channel.src_nic.reserve_tx(size), size)
            else:
                # reserve_tx inlined (sans trace emit): one call frame
                # less per channel of the fan-out.
                nic = channel.src_nic
                now = sim.now
                free = nic.tx_free_at
                start = now if now > free else free
                tx_done = start + size / nic.bandwidth
                nic.tx_free_at = tx_done
                nic.bytes_tx += size
                nic.msgs_tx += 1
                channel._deliver_untraced(msg, tx_done, size)
