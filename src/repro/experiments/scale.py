"""Experiment scaling.

Every benchmark runs at one of two scales:

* **QUICK** (default) — short simulated windows and a reduced request-size
  sweep, so the whole benchmark suite finishes in minutes;
* **FULL** (``RBFT_FULL=1``) — longer windows and the paper's full sweep,
  for lower-variance numbers.

Both scales exercise identical code paths; only durations, sweep density
and monitoring cadences change.

A third scale, **SMOKE**, is not selectable via the environment: it is
the fixed scale of the tier-1 scenario tests, the ``profile`` command
and the perf ledger's ``ladder_n100``/``diurnal_1m`` workloads, kept
deliberately tiny so every push pays seconds, not minutes, and kept
*stable* so seeded counts are comparable across commits.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

__all__ = ["ScenarioScale", "QUICK", "FULL", "SMOKE", "current_scale"]


@dataclass(frozen=True)
class ScenarioScale:
    """Durations and sweep densities for one benchmark run."""

    name: str
    duration: float  # simulated seconds per attack/throughput run
    warmup: float  # measurement starts after this much simulated time
    probe_duration: float  # capacity-probe run length
    sizes: Tuple[int, ...]  # request payload sizes swept (bytes)
    rate_points: int  # points on each latency/throughput curve
    monitoring_period: float  # RBFT monitoring window
    aardvark_grace: float  # Aardvark grace period (paper: 5 s)
    aardvark_period: float  # Aardvark requirement-raise period


QUICK = ScenarioScale(
    name="quick",
    duration=1.2,
    warmup=0.3,
    probe_duration=0.4,
    sizes=(8, 1024, 4096),
    rate_points=6,
    monitoring_period=0.15,
    aardvark_grace=0.35,
    aardvark_period=0.05,
)

SMOKE = ScenarioScale(
    name="smoke",
    duration=0.6,
    warmup=0.15,
    probe_duration=0.25,
    sizes=(8,),
    rate_points=3,
    monitoring_period=0.12,
    aardvark_grace=0.35,
    aardvark_period=0.05,
)

FULL = ScenarioScale(
    name="full",
    duration=4.0,
    warmup=0.8,
    probe_duration=0.8,
    sizes=(8, 512, 1024, 2048, 3072, 4096),
    rate_points=10,
    monitoring_period=0.25,
    aardvark_grace=0.8,
    aardvark_period=0.08,
)


def current_scale() -> ScenarioScale:
    """FULL when RBFT_FULL is set in the environment, QUICK otherwise."""
    return FULL if os.environ.get("RBFT_FULL") else QUICK
