"""A trace sink that keeps counts and sums only.

A ledger workload emits ~5 M trace events; retaining them (``ListSink``)
would cost gigabytes and distort the run being observed.  This sink
folds each event into a handful of counters the moment it arrives and
forwards the kinds a chained sink subscribes to — the ledger chains
``repro.verify.InvariantSuite`` so one traced pass yields both the
per-layer counts and the safety verdict.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet

__all__ = ["AggregatingSink"]

#: RBFT pins each module and each replica process to its own core
#: (``node2/verification``, ``node2/replica-1``); the role is the part
#: after the slash with any replica index folded away.
CORE_ROLES = ("verification", "propagation", "dispatch", "execution", "replica")


def _core_role(core_name: str) -> str:
    role = core_name.rpartition("/")[2]
    return "replica" if role.startswith("replica") else role


class AggregatingSink:
    """Counts and sums per trace kind; optional forwarding to one sink."""

    def __init__(self, forward=None, forward_kinds: FrozenSet[str] = frozenset()):
        self.forward = forward
        self.forward_kinds = frozenset(forward_kinds)
        self.events = 0
        self.by_kind: Dict[str, int] = defaultdict(int)
        self.core_busy: Dict[str, float] = defaultdict(float)  # per core
        self.core_wait = 0.0
        self.stage_events = 0
        self.net_msgs = 0
        self.net_bytes = 0
        self.net_drops = 0
        self.phases: Dict[str, int] = defaultdict(int)
        self.preprepare_items = 0

    def append(self, event) -> None:
        self.events += 1
        kind = event.kind
        self.by_kind[kind] += 1
        data = event.data
        if kind == "core.job":
            self.core_busy[event.name] += data["cost"]
            self.core_wait += data["start"] - event.t
        elif kind == "chan.deliver":
            self.net_msgs += 1
            self.net_bytes += data["size"]
        elif kind == "chan.drop":
            self.net_drops += 1
        elif kind == "node.stage":
            self.stage_events += 1
        elif kind == "pbft.phase":
            phase = data["phase"]
            self.phases[phase] += 1
            if phase == "pre-prepare":
                self.preprepare_items += data["items"]
        if kind in self.forward_kinds:
            self.forward.append(event)

    def summary(self, duration: float, completed: int) -> Dict[str, float]:
        """The per-layer metrics this sink can state, by ledger name."""
        role_busy: Dict[str, float] = defaultdict(float)
        for core, busy in self.core_busy.items():
            role_busy[_core_role(core)] += busy
        preprepares = self.phases["pre-prepare"]
        per_req = 1.0 / completed if completed else 0.0
        metrics = {
            "trace.events": self.events,
            "sim.core_jobs": self.by_kind["core.job"],
            "net.msgs": self.net_msgs,
            "net.bytes": self.net_bytes,
            "net.drops": self.net_drops,
            "net.msgs_per_req": self.net_msgs * per_req,
            "net.bytes_per_req": self.net_bytes * per_req,
            "common.batch_items_mean": (
                self.preprepare_items / preprepares if preprepares else 0.0
            ),
            "protocols.pbft.phase_pre_prepare": preprepares,
            "protocols.pbft.phase_prepared": self.phases["prepared"],
            "protocols.pbft.phase_committed": self.phases["committed"],
            "protocols.pbft.phase_ordered": self.phases["ordered"],
            "protocols.pbft.view_changes": self.by_kind["pbft.view-change"],
            "protocols.pbft.state_transfers": self.by_kind["pbft.state-transfer"],
            "core.stage_events": self.stage_events,
            "core.queue_wait_s": self.core_wait,
            "core.util_max": (
                max(self.core_busy.values(), default=0.0) / duration
            ),
            "core.monitor_ticks": self.by_kind["monitor.tick"],
        }
        for role in CORE_ROLES:
            metrics["core.%s_busy_s" % role] = role_busy[role]
        return metrics

