"""Network interface controllers.

Aardvark and RBFT both use *separate NICs*: one NIC for client traffic
and one NIC per other node (§V, Fig. 6).  This isolates client floods
from replica-to-replica traffic, and lets a node *close* the NIC of a
flooding peer "for a given time period" without penalising anyone else.

A NIC is modelled as two analytic FIFO servers, one per direction, each
with a configurable bandwidth.  Transmitting (or receiving) a message
occupies the corresponding direction for ``size / bandwidth`` seconds.
"""

from __future__ import annotations

from repro.sim.engine import Simulator

__all__ = ["NIC"]


class NIC:
    """One interface: tx/rx bandwidth queues plus a close switch."""

    __slots__ = (
        "sim",
        "name",
        "bandwidth",
        "tx_free_at",
        "rx_free_at",
        "bytes_tx",
        "bytes_rx",
        "msgs_tx",
        "msgs_rx",
        "closed_until",
        "dropped_while_closed",
    )

    def __init__(self, sim: Simulator, name: str, bandwidth_bytes_per_s: float):
        if bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth_bytes_per_s
        self.tx_free_at = 0.0
        self.rx_free_at = 0.0
        self.bytes_tx = 0
        self.bytes_rx = 0
        self.msgs_tx = 0
        self.msgs_rx = 0
        self.closed_until = 0.0
        self.dropped_while_closed = 0

    # -------------------------------------------------------------- transmit
    def reserve_tx(self, size: int) -> float:
        """Queue ``size`` bytes for transmission; return completion time."""
        sim = self.sim
        now = sim.now
        start = now if now > self.tx_free_at else self.tx_free_at
        done = start + size / self.bandwidth
        self.tx_free_at = done
        self.bytes_tx += size
        self.msgs_tx += 1
        tracer = sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(now, "nic.tx", self.name, size=size, done=done)
        return done

    def reserve_rx(self, size: int, arrival: float) -> float:
        """Queue ``size`` arriving bytes; return time fully received."""
        start = arrival if arrival > self.rx_free_at else self.rx_free_at
        done = start + size / self.bandwidth
        self.rx_free_at = done
        self.bytes_rx += size
        self.msgs_rx += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(arrival, "nic.rx", self.name, size=size, done=done)
        return done

    # ----------------------------------------------------------------- close
    def close(self, duration: float) -> None:
        """Disable this NIC for ``duration`` seconds (flooder isolation).

        While closed, arriving traffic is dropped in hardware: it costs
        the owner neither bandwidth accounting nor CPU, which is exactly
        the point of closing the NIC (§V).
        """
        reopen = self.sim.now + duration
        if reopen > self.closed_until:
            self.closed_until = reopen

    @property
    def closed(self) -> bool:
        return self.sim.now < self.closed_until

    def note_dropped(self) -> None:
        self.dropped_while_closed += 1
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(self.sim.now, "nic.drop", self.name)

    def __repr__(self) -> str:
        return "NIC(%s, tx=%dB, rx=%dB%s)" % (
            self.name,
            self.bytes_tx,
            self.bytes_rx,
            ", CLOSED" if self.closed else "",
        )
