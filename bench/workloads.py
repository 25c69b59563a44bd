"""The four ledger workloads: frozen scenarios, one reason each.

Every workload is RBFT under a fixed offered rate (no capacity probe,
so the event count is a pure function of the seed) driven by simulated
open-loop traffic.  The scenario values are frozen: changing one
invalidates every recorded baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.clients import Workload, get_workload
from repro.experiments import QUICK, SMOKE, Scenario

__all__ = ["LedgerWorkload", "WORKLOADS", "window"]


@dataclass(frozen=True)
class LedgerWorkload:
    name: str
    why: str
    build: Callable[[int], Scenario]
    #: timed children of a full ledger run (after the warm set-up children).
    children: int
    #: evenly spaced arrivals instead of Poisson ones.  ``run()`` cannot
    #: ask for them, so a paced workload is timed through the decomposed
    #: drive.  Only the ladder needs it: its ~67 requests cost 0.14 host
    #: seconds each, and a Poisson count of 67 moves +-20 % with the
    #: seed — wall time, throughput and RSS would all inherit that.
    paced: bool = False

    @property
    def attacked(self) -> bool:
        return self.build(0).attack is not None

    def scenario(self, seed: int, smoke: bool = False) -> Scenario:
        scenario = self.build(seed)
        if smoke:
            # Self-test only: one tenth of the simulated window.
            duration, warmup = window(scenario)
            scenario = scenario.with_(
                duration=duration / 10, warmup=warmup / 10
            )
        return scenario


def window(scenario: Scenario) -> Tuple[float, float]:
    """(duration, warmup) of a scenario, by the rules ``run()`` applies."""
    scale = scenario.scale
    duration = scale.duration if scenario.duration is None else scenario.duration
    if scenario.warmup is not None:
        return duration, scenario.warmup
    whole_run = get_workload(scenario.workload.shape).whole_run
    return duration, 0.0 if whole_run else scale.warmup


def _static(rate: float, **kwargs) -> Workload:
    return Workload("static", rate=rate, population=False, **kwargs)


_ALL = (
    LedgerWorkload(
        "fig7_n4",
        "Fig. 7 fault-free point at 78 % of capacity, below the knee where "
        "latency is meaningful; the core (RBFT node pipeline) layer does "
        "most of the host work",
        lambda seed: Scenario(
            "rbft", f=1, payload=8, workload=_static(24000.0),
            seed=seed, scale=QUICK,
        ),
        children=5,
    ),
    LedgerWorkload(
        "worst1_n4",
        "Fig. 8 worst-attack-1 at 1.25 x capacity: flooded and MAC-corrupted "
        "junk must be rejected cheaply beside valid traffic, with deep "
        "queues; the fault-injected run",
        lambda seed: Scenario(
            "rbft", f=1, payload=8, workload=_static(38000.0),
            seed=seed, scale=QUICK, attack="rbft-worst1",
        ),
        children=3,
    ),
    LedgerWorkload(
        "ladder_n100",
        "n = 100 rung on the batched pacing tier: quadratic certificate "
        "traffic, so protocols.pbft, common quorum tracking and net "
        "broadcast dominate and clients/core nearly vanish",
        lambda seed: Scenario(
            "rbft", f=33, workload=_static(450.0, clients=4),
            seed=seed, scale=SMOKE, duration=0.15, warmup=0.05,
        ),
        children=3,
        paced=True,
    ),
    LedgerWorkload(
        "diurnal_1m",
        "the n = 4 pipeline fed by one ClientPopulation of 10^6 identities "
        "on a 24-level sinusoid: the clients layer's other path, and "
        "per-identity state that makes peak RSS the sensitive metric",
        lambda seed: Scenario(
            "rbft", workload=Workload("diurnal", rate=24000.0, clients=1_000_000),
            seed=seed, scale=SMOKE, duration=2.4,
        ),
        children=5,
    ),
)

WORKLOADS: Dict[str, LedgerWorkload] = {w.name: w for w in _ALL}
