"""Aardvark: PBFT hardened with regular primary changes (§III-B).

Mechanisms reproduced from Clement et al. (NSDI 2009) as described in
the RBFT paper:

* hybrid request authentication — MAC first, then signature; invalid
  signatures blacklist the client;
* **regular view changes** — "a primary replica is required to achieve
  at the beginning of a view a throughput at least equal to 90 % of the
  maximum throughput achieved by the primary replicas of the last N
  views.  After an initial grace period of 5 seconds where the required
  throughput is stable, the non-primary replicas periodically raise this
  required throughput by a factor of 0.01, until the primary replica
  fails to provide it";
* **heartbeat timer** — a view change is voted if the primary stops
  sending ordering messages while requests are pending;
* separate NICs (inherited from the cluster wiring).

The vulnerability the paper demonstrates (Fig. 2) follows directly from
this design: the required throughput is a function of *observed history*,
so under a dynamic load a malicious primary rides the low expectations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Optional

from repro.common.cluster import Machine
from repro.common.statemachine import Service
from repro.crypto.costmodel import CryptoCostModel

from ..base import BftNode, NodeConfig
from ..pbft.engine import InstanceConfig

__all__ = ["AardvarkConfig", "AardvarkNode"]


@dataclass(frozen=True)
class AardvarkConfig:
    """Aardvark-specific knobs on top of the shared node config."""

    instance: InstanceConfig = field(default_factory=InstanceConfig)
    costs: CryptoCostModel = field(default_factory=CryptoCostModel)
    grace_period: float = 5.0  # paper: 5 seconds
    requirement_period: float = 0.1  # how often the bar is raised / checked
    requirement_factor: float = 0.90  # paper: 90 % of the historical max
    requirement_raise: float = 0.01  # paper: +1 % per period
    heartbeat_timeout: float = 0.25  # no ordering while backlogged => VC
    history_views: Optional[int] = None  # default: N = 3f + 1

    def node_config(self) -> NodeConfig:
        return NodeConfig(instance=self.instance, costs=self.costs)


class AardvarkNode(BftNode):
    """One Aardvark replica with its throughput monitor."""

    def __init__(self, machine: Machine, config: AardvarkConfig, service: Service):
        super().__init__(machine, config.node_config(), service)
        self.aconfig = config
        history_len = config.history_views or self.config.n
        self.history: Deque[float] = deque(maxlen=history_len)

        self._view_started = self.sim.now
        self._ordered_total = 0
        self._ordered_at_view_start = 0
        self._ordered_at_last_period = 0
        # With no history yet (the very first view), the reference latches
        # onto the first observed per-period rate and stays fixed — the
        # requirement must not chase the live load, or a rising load would
        # raise its own bar (and the §III-B attack would be impossible).
        self._bootstrap_reference = 0.0
        self._raises = 0
        self._grace_until = self.sim.now + config.grace_period
        self._last_progress = self.sim.now
        self.view_change_votes_cast = 0
        self.sim.call_after(config.requirement_period, self._periodic_check)

    # ------------------------------------------------------------- counters
    def _on_ordered(self, seq, items) -> None:
        self._ordered_total += len(items)
        self._last_progress = self.sim.now
        super()._on_ordered(seq, items)

    def _on_view_entered(self, view: int) -> None:
        """Close the books on the finished view and reset expectations."""
        duration = self.sim.now - self._view_started
        if duration > 0:
            achieved = (self._ordered_total - self._ordered_at_view_start) / duration
            self.history.append(achieved)
        self._view_started = self.sim.now
        self._ordered_at_view_start = self._ordered_total
        self._ordered_at_last_period = self._ordered_total
        self._bootstrap_reference = 0.0
        self._raises = 0
        self._grace_until = self.sim.now + self.aconfig.grace_period
        self._last_progress = self.sim.now

    # ----------------------------------------------------------- requirement
    def required_throughput(self) -> float:
        """The bar the current primary must clear (§III-B).

        90 % of the best primary throughput over the last N views, raised
        1 % per period once the grace expires.  Only the very first view
        (empty history) is bootstrapped from the live per-period peak.
        The reliance on *history* is the weakness Fig. 2 exploits: a load
        spike meets expectations formed during the preceding lull.
        """
        if self.history:
            reference = max(self.history)
        else:
            reference = self._bootstrap_reference
        return (
            self.aconfig.requirement_factor
            * reference
            * (1.0 + self.aconfig.requirement_raise) ** self._raises
        )

    def _periodic_check(self) -> None:
        self.sim.call_after(self.aconfig.requirement_period, self._periodic_check)
        period = self.aconfig.requirement_period
        rate = (self._ordered_total - self._ordered_at_last_period) / period
        self._ordered_at_last_period = self._ordered_total
        if not self.history and self._bootstrap_reference == 0.0 and rate > 0:
            self._bootstrap_reference = rate  # latch once, never chase

        backlogged = self.engine.backlog() > 0
        if self.sim.now >= self._grace_until:
            required = self.required_throughput()
            self._raises += 1
            # Compare the throughput achieved since the view started (a
            # smooth average) — per-period samples are quantised by batch
            # boundaries and would evict honest-but-bursty primaries.
            if (
                not self.is_primary
                and backlogged
                and self.throughput_this_view < required
                and self.engine.active
            ):
                self._vote_view_change()
                return
        # Heartbeat: pending requests but no ordering progress at all.
        if (
            backlogged
            and self.engine.active
            and self.sim.now - self._last_progress > self.aconfig.heartbeat_timeout
            and not self.is_primary
        ):
            self._vote_view_change()

    def _vote_view_change(self) -> None:
        self.view_change_votes_cast += 1
        self.engine.start_view_change()

    # ------------------------------------------------------------ inspection
    @property
    def throughput_this_view(self) -> float:
        duration = self.sim.now - self._view_started
        if duration <= 0:
            return 0.0
        return (self._ordered_total - self._ordered_at_view_start) / duration
