"""Spinning: BFT with a rotating primary (§III-C).

Mechanisms reproduced from Veronese et al. (SRDS 2009) as described in
the RBFT paper:

* the primary changes **automatically after every ordered batch** — no
  message exchange needed (the engine's auto-advance mode);
* requests are MAC-authenticated only and sent by clients to all
  replicas over UDP multicast;
* a replica that holds a pending request starts a timer; if ``S_timeout``
  expires before the request is ordered, the current primary is
  **blacklisted** (at most f entries, oldest evicted), a merge operation
  replaces it, and ``S_timeout`` doubles;
* after a successful ordering, ``S_timeout`` resets to its initial value.

The weakness (Fig. 3): every time the malicious replica gets the
primary slot, it can delay its single batch by just under ``S_timeout``
(40 ms in the paper's experiments) without ever being blacklisted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.cluster import Machine
from repro.common.statemachine import Service
from repro.crypto.blacklist import BoundedBlacklist
from repro.crypto.costmodel import CryptoCostModel

from ..base import BftNode, NodeConfig
from ..pbft.engine import InstanceConfig

__all__ = ["SpinningConfig", "SpinningNode"]


@dataclass(frozen=True)
class SpinningConfig:
    """Spinning-specific knobs."""

    instance: InstanceConfig = field(
        default_factory=lambda: InstanceConfig(
            auto_advance_view=True, multicast_auth=True
        )
    )
    costs: CryptoCostModel = field(default_factory=CryptoCostModel)
    s_timeout: float = 40e-3  # the paper's S_timeout value

    def node_config(self) -> NodeConfig:
        if not self.instance.auto_advance_view:
            raise ValueError("Spinning requires auto_advance_view instances")
        return NodeConfig(instance=self.instance, costs=self.costs)


class SpinningNode(BftNode):
    """One Spinning replica."""

    CHECKS_SIGNATURE = False  # requests carry MACs only

    def __init__(self, machine: Machine, config: SpinningConfig, service: Service):
        super().__init__(machine, config.node_config(), service)
        self.sconfig = config
        self.replica_blacklist = BoundedBlacklist(self.config.f)
        self.current_timeout = config.s_timeout
        self.merges = 0
        self._timer = None
        self.engine.primary_selector = self._primary_for_view

    # ------------------------------------------------------------- rotation
    def _primary_for_view(self, view: int) -> int:
        """Round-robin over replicas, skipping blacklisted ones."""
        n = self.config.n
        for offset in range(n):
            candidate = (view + offset) % n
            if not self.replica_blacklist.banned("node%d" % candidate):
                return candidate
        return view % n  # unreachable: blacklist holds at most f < n entries

    # ---------------------------------------------------------- timer logic
    def _on_request_verified(self, request) -> None:
        super()._on_request_verified(request)
        if self._timer is None or not self._timer.active:
            self._timer = self.sim.call_after(self.current_timeout, self._expired)

    def _on_ordered(self, seq, items) -> None:
        # Successful ordering: reset S_timeout and re-arm for the backlog.
        self.current_timeout = self.sconfig.s_timeout
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        super()._on_ordered(seq, items)
        if self.engine.backlog() > 0:
            self._timer = self.sim.call_after(self.current_timeout, self._expired)

    def _expired(self) -> None:
        """S_timeout fired: blacklist the primary and merge."""
        if self.engine.backlog() == 0:
            return
        primary = self.engine.primary_name()
        if primary != self.name:
            self.replica_blacklist.ban(primary)
        self.merges += 1
        self.current_timeout *= 2  # doubled until a successful ordering
        self.engine.start_view_change()
        self._timer = self.sim.call_after(self.current_timeout, self._expired)
