"""Network fault injection by wrapping live channels.

Every :class:`~repro.net.network.Channel` carries an ``intercept`` hook
on its send path.  The :class:`NetworkInterceptor` installs itself on
all channels of a deployment and evaluates a small ordered rule list per
message: drop it, delay it, deliver it twice, or pass it through
untouched (``send_direct``).  Rules match on source/destination name
sets and a time window, which is enough to express crashes (isolate a
node), partitions (drop across the cut), and probabilistic link faults
(loss, duplication, extra latency).

Determinism: probabilistic rules draw from one dedicated ``Random``
stream, and rules are evaluated in insertion order — a replay with the
same seed and the same plan sees identical draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import FrozenSet, List, Optional

__all__ = ["Rule", "NetworkInterceptor"]

_FOREVER = float("inf")


@dataclass(frozen=True)
class Rule:
    """One fault-injection rule.

    ``action`` is ``"drop"``, ``"delay"`` or ``"duplicate"``; ``src`` /
    ``dst`` are name sets (``None`` matches anything); the rule is live
    in ``[start, until)``; ``p`` is the per-message match probability;
    ``extra`` the added latency for ``"delay"``.
    """

    action: str
    src: Optional[FrozenSet[str]] = None
    dst: Optional[FrozenSet[str]] = None
    start: float = 0.0
    until: float = _FOREVER
    p: float = 1.0
    extra: float = 0.0

    def matches_endpoints(self, src: str, dst: str) -> bool:
        if self.src is not None and src not in self.src:
            return False
        if self.dst is not None and dst not in self.dst:
            return False
        return True


class NetworkInterceptor:
    """Rule-driven drop/delay/duplicate injection on every channel."""

    def __init__(self, deployment, rng: Optional[random.Random] = None):
        self.sim = deployment.sim
        self.channels = list(deployment.cluster.network.channels)
        self.rng = rng if rng is not None else deployment.rng.stream("interceptor")
        self.rules: List[Rule] = []
        self.dropped = 0
        self.delayed = 0
        self.duplicated = 0
        self._installed = False

    # ----------------------------------------------------------- install
    def install(self) -> "NetworkInterceptor":
        if not self._installed:
            self._installed = True
            for channel in self.channels:
                channel.intercept = self._hook
        return self

    def uninstall(self) -> None:
        if self._installed:
            self._installed = False
            for channel in self.channels:
                channel.intercept = None

    # ------------------------------------------------------------- rules
    def drop(self, src=None, dst=None, p: float = 1.0,
             start: float = 0.0, until: float = _FOREVER) -> "NetworkInterceptor":
        self.rules.append(Rule(
            "drop", _names(src), _names(dst), start, until, p
        ))
        return self.install()

    def delay(self, extra: float, src=None, dst=None, p: float = 1.0,
              start: float = 0.0, until: float = _FOREVER) -> "NetworkInterceptor":
        self.rules.append(Rule(
            "delay", _names(src), _names(dst), start, until, p, extra
        ))
        return self.install()

    def duplicate(self, src=None, dst=None, p: float = 1.0,
                  start: float = 0.0, until: float = _FOREVER) -> "NetworkInterceptor":
        self.rules.append(Rule(
            "duplicate", _names(src), _names(dst), start, until, p
        ))
        return self.install()

    def isolate(self, node: str, start: float = 0.0,
                until: float = _FOREVER) -> "NetworkInterceptor":
        """Crash-as-isolation: nothing in, nothing out, for the window."""
        names = frozenset([node])
        self.rules.append(Rule("drop", names, None, start, until))
        self.rules.append(Rule("drop", None, names, start, until))
        return self.install()

    def partition(self, groups, start: float = 0.0,
                  until: float = _FOREVER) -> "NetworkInterceptor":
        """Drop everything crossing between the listed name groups."""
        groups = [frozenset(group) for group in groups]
        for i, left in enumerate(groups):
            for right in groups[i + 1:]:
                self.rules.append(Rule("drop", left, right, start, until))
                self.rules.append(Rule("drop", right, left, start, until))
        return self.install()

    # -------------------------------------------------------------- hook
    def _hook(self, channel, msg) -> None:
        now = self.sim.now
        extra = 0.0
        copies = 1
        for rule in self.rules:
            if not (rule.start <= now < rule.until):
                continue
            if not rule.matches_endpoints(channel.src, channel.dst):
                continue
            if rule.p < 1.0 and self.rng.random() >= rule.p:
                continue
            if rule.action == "drop":
                self.dropped += 1
                channel.dropped += 1
                return
            if rule.action == "delay":
                extra += rule.extra
            elif rule.action == "duplicate":
                copies += 1
        if extra > 0.0:
            self.delayed += copies
            for _ in range(copies):
                self.sim.call_after(extra, channel.send_direct, msg)
        else:
            for _ in range(copies):
                channel.send_direct(msg)
        if copies > 1:
            self.duplicated += copies - 1


def _names(spec) -> Optional[FrozenSet[str]]:
    if spec is None:
        return None
    if isinstance(spec, str):
        return frozenset([spec])
    return frozenset(spec)
