"""The Dispatch & Monitoring module's measurement state (§IV-C).

Each node keeps, per protocol instance, a counter ``nbreqs_i`` of the
requests ordered by the local replica of that instance.  Periodically it
turns the counters into throughputs and compares the master against the
mean of the backups: a ratio below Δ is grounds for an instance change.

It also tracks per-request latency (against Λ) and per-client average
latency across instances (against Ω) so an unfair master primary that
starves individual clients is caught even when its throughput looks
healthy (§VI-C-3).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.recorder import TimeSeries, WindowedCounter
from repro.sim.engine import Simulator

from .config import RBFTConfig

__all__ = ["InstanceMonitor"]

#: an instance's latency accumulators before its window's first sample.
_NO_SAMPLES = MappingProxyType({})


class InstanceMonitor:
    """Per-node throughput and latency monitoring of the f+1 instances."""

    def __init__(
        self,
        sim: Simulator,
        config: RBFTConfig,
        on_trigger: Callable[[str], None],
        name: str = "monitor",
    ):
        self.sim = sim
        self.config = config
        self.on_trigger = on_trigger
        self.name = name
        #: which instance is currently the master (mutable: best-backup
        #: promotion re-points it at instance-change time).
        self.master = config.master
        instances = config.instances
        self.nbreqs: List[WindowedCounter] = [
            WindowedCounter() for _ in range(instances)
        ]
        #: throughput each instance achieved in the last window (Fig. 9/11).
        self.last_rates: List[float] = [0.0] * instances
        self.rate_series: List[TimeSeries] = [
            TimeSeries("instance-%d" % k) for k in range(instances)
        ]
        # per-window, per-instance, per-client latency accumulators,
        # allocated at the window's first sample (batched backups record none)
        self._lat_sum: List[Dict[str, float]] = [_NO_SAMPLES] * instances
        self._lat_count: List[Dict[str, int]] = [_NO_SAMPLES] * instances
        self.triggers: List[Tuple[float, str]] = []
        self._breach_at: Optional[float] = None
        self._delta_breaches = 0  # consecutive windows below Δ
        self._suppress_until = 0.0  # grace after an instance change
        #: per-instance progress summaries, maintained only on the
        #: instance-batched path: instance -> (view, highest ordered seq,
        #: cumulative items).  Constant-size per instance — the compact
        #: replacement for the per-request bookkeeping the batched path
        #: skips; the Δ test keeps using the exact ``nbreqs`` counters.
        self.progress: Dict[int, Tuple[int, int, int]] = {}

    # ------------------------------------------------------------ recording
    def count_ordered(self, instance: int, n: int) -> None:
        self.nbreqs[instance].add(n)

    def note_progress(self, instance: int, view: int, seq: int, items: int) -> None:
        """Fold one ordered batch into the instance's per-view summary."""
        prev = self.progress.get(instance)
        total = items if prev is None else prev[2] + items
        if prev is not None and prev[0] == view and prev[1] > seq:
            seq = prev[1]  # batches may complete out of sequence order
        self.progress[instance] = (view, seq, total)

    def record_latency(self, instance: int, client: str, latency: float) -> None:
        sums = self._lat_sum[instance]
        counts = self._lat_count[instance]
        if sums is _NO_SAMPLES:
            sums = self._lat_sum[instance] = {}
            counts = self._lat_count[instance] = {}
        sums[client] = sums.get(client, 0.0) + latency
        counts[client] = counts.get(client, 0) + 1

    # ---------------------------------------------------------- Λ / Ω checks
    def check_request_latency(self, client: str, latency: float) -> None:
        """Per-request check against Λ for master-ordered requests."""
        if latency > self.config.lambda_max:
            self._trigger("latency-lambda")
            return
        self._check_omega(client)

    def _check_omega(self, client: str) -> None:
        """Compare the client's mean latency on master vs the backups."""
        master = self.master
        count = self._lat_count[master].get(client, 0)
        if count == 0:
            return
        master_avg = self._lat_sum[master][client] / count
        backup_avgs = []
        for k in range(len(self.nbreqs)):
            if k == master:
                continue
            n = self._lat_count[k].get(client, 0)
            if n:
                backup_avgs.append(self._lat_sum[k][client] / n)
        if not backup_avgs:
            return
        backup_mean = sum(backup_avgs) / len(backup_avgs)
        if master_avg - backup_mean > self.config.omega:
            self._trigger("latency-omega")

    # -------------------------------------------------------------- the tick
    def tick(self) -> None:
        """Close the monitoring window: compute rates, run the Δ test."""
        period = self.config.monitoring_period
        for k, counter in enumerate(self.nbreqs):
            rate = counter.take() / period
            self.last_rates[k] = rate
            self.rate_series[k].append(self.sim.now, rate)
        for k in range(len(self.nbreqs)):
            self._lat_sum[k] = self._lat_count[k] = _NO_SAMPLES
        master = self.master
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "monitor.tick", self.name,
                rates=list(self.last_rates), master=master,
            )
        backups = [
            rate for k, rate in enumerate(self.last_rates) if k != master
        ]
        if not backups:
            return
        backup_mean = sum(backups) / len(backups)
        if backup_mean * period < self.config.min_monitor_requests:
            return  # too few requests in the window to judge the ratio
        if self.sim.now < self._suppress_until:
            return  # windows straddling an instance change are unreliable
        if self.last_rates[master] < self.config.delta * backup_mean:
            # Batch boundaries make single windows noisy at the percent
            # level; demand two consecutive breaches before accusing.
            self._delta_breaches += 1
            if self._delta_breaches >= 2:
                self._trigger("throughput-delta")
        else:
            self._delta_breaches = 0

    def reset_after_change(self) -> None:
        """An instance change completed: clear breach state and give the
        new configuration one clean window before judging it."""
        self._delta_breaches = 0
        self._breach_at = None
        self._suppress_until = self.sim.now + 2 * self.config.monitoring_period

    def _trigger(self, reason: str) -> None:
        self.triggers.append((self.sim.now, reason))
        self._breach_at = self.sim.now
        tracer = self.sim.tracer
        if tracer is not None and tracer.enabled:
            tracer.emit(
                self.sim.now, "monitor.trigger", self.name,
                reason=reason, master=self.master,
            )
        self.on_trigger(reason)

    def observes_breach(self) -> bool:
        """Did this node itself observe a violation recently?

        Used when deciding to join another node's INSTANCE-CHANGE vote
        ("it does so only if it also observes too much difference").
        """
        if self._breach_at is None:
            return False
        return self.sim.now - self._breach_at <= 2 * self.config.monitoring_period
