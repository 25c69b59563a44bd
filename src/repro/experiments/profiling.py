"""Traced profiling runs: ``python -m repro.experiments profile <fig>``.

Each profiled figure re-runs a short version of the corresponding
scenario with a :class:`repro.trace.Tracer` attached to the simulator,
then renders the per-core utilization / bottleneck report from the
collected ``core.job`` spans.  This answers the question the paper's
§VI keeps asking — *which pinned core limits which protocol at which
request size* — directly from the reproduction, per run.
"""

from __future__ import annotations

import os
from typing import Optional

from repro.trace import (
    K_CORE_JOB,
    K_INSTANCE_CHANGE,
    K_MONITOR_TICK,
    K_MONITOR_TRIGGER,
    K_PHASE,
    K_STAGE,
    K_VIEW_CHANGE,
    Tracer,
    export_jsonl,
    format_profile_report,
)

from .scale import SMOKE, ScenarioScale
from .scenario import Scenario, run

__all__ = ["PROFILABLE", "PROFILE_KINDS", "profile_run", "profile_report"]

#: what the bottleneck report consumes; the very high-volume kinds
#: (per-message kernel dispatches and NIC reservations) are filtered at
#: the source so a saturating profile run stays within memory.
PROFILE_KINDS = frozenset({
    K_CORE_JOB,
    K_STAGE,
    K_MONITOR_TICK,
    K_MONITOR_TRIGGER,
    K_INSTANCE_CHANGE,
    K_PHASE,
    K_VIEW_CHANGE,
})

#: figure -> (protocol, attack, payload) of the profiled scenario.
PROFILABLE = {
    "fig7": ("rbft", None, 8),
    "fig8": ("rbft", "rbft-worst1", 8),
    "fig10": ("rbft", "rbft-worst2", 8),
}


def profile_run(
    fig: str,
    scale: Optional[ScenarioScale] = None,
    payload: Optional[int] = None,
    f: int = 1,
    seed: int = 0,
):
    """Run one figure's scenario with tracing on.

    Returns ``(tracer, deployment, duration)``; the trace covers the
    whole run including warm-up.  Defaults to the SMOKE scale — a short
    saturating window is all the bottleneck report needs.
    """
    try:
        protocol, attack, default_payload = PROFILABLE[fig]
    except KeyError:
        raise ValueError(
            "cannot profile %r; choose one of %s" % (fig, sorted(PROFILABLE))
        ) from None
    scale = scale or SMOKE
    traced = {}

    def trace(deployment, faulty_names):
        traced["tracer"] = deployment.sim.tracer = Tracer(kinds=PROFILE_KINDS)
        traced["deployment"] = deployment

    run(Scenario(
        protocol=protocol,
        payload=default_payload if payload is None else payload,
        attack=attack, f=f, seed=seed, scale=scale,
    ), attach=trace)
    return traced["tracer"], traced["deployment"], scale.duration


def profile_report(
    fig: str,
    scale: Optional[ScenarioScale] = None,
    payload: Optional[int] = None,
    f: int = 1,
    seed: int = 0,
    top: int = 16,
    trace_out: Optional[str] = None,
) -> str:
    """Profile ``fig`` and return the formatted per-core report.

    Raises ``ValueError`` before the run for a ``top`` below 1 or a
    ``trace_out`` whose directory does not exist.
    """
    if top < 1:
        raise ValueError("top must be >= 1, got %r" % (top,))
    if trace_out:
        directory = os.path.dirname(trace_out) or "."
        if not os.path.isdir(directory):
            raise ValueError("trace_out directory %r does not exist" % directory)
    tracer, deployment, duration = profile_run(
        fig, scale=scale, payload=payload, f=f, seed=seed
    )
    events = tracer.events()
    if trace_out:
        export_jsonl(events, trace_out)
    header = "profile %s — %d trace events over %.2f simulated s\n" % (
        fig,
        len(events),
        duration,
    )
    return header + format_profile_report(events, horizon=duration, top=top)
