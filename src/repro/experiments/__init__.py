"""Experiment harness: the runners and the table of the paper's figures.

What a scenario needs to run is imported eagerly; the figure table
(``FIGURES``) and the profiling harness resolve on first use, so running
a scenario does not pay for importing them.  What a change *costs* is
measured by the perf ledger under ``bench/`` (``BENCHMARK.json``), not
from here.
"""

from repro.clients import Workload

from .deployments import Deployment, deploy
from .runner import (
    PROTOCOL_VARIANTS,
    RunResult,
    attack_sweep,
    latency_throughput_curve,
    make_deployment,
    probe_capacity,
    relative_throughput,
    unfair_primary_run,
)
from .parallel import execute_specs, execute_tasks, resolve_jobs
from .scale import FULL, QUICK, SMOKE, ScenarioScale, current_scale
from .scenario import Scenario, run
from .stats import SweepResult, seed_sweep

__all__ = [
    "Scenario",
    "Workload",
    "run",
    "Deployment",
    "deploy",
    "PROTOCOL_VARIANTS",
    "RunResult",
    "attack_sweep",
    "latency_throughput_curve",
    "make_deployment",
    "probe_capacity",
    "relative_throughput",
    "unfair_primary_run",
    "FIGURES",
    "FULL",
    "QUICK",
    "SMOKE",
    "ScenarioScale",
    "current_scale",
    "profile_report",
    "profile_run",
    "execute_specs",
    "execute_tasks",
    "resolve_jobs",
    "SweepResult",
    "seed_sweep",
]

#: names resolved lazily (PEP 562): name -> defining submodule.
_LAZY = {
    "FIGURES": "figures",
    "profile_report": "profiling",
    "profile_run": "profiling",
}


def __getattr__(name):
    try:
        module_name = _LAZY[name]
    except KeyError:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name)
        ) from None
    import importlib

    value = getattr(importlib.import_module("." + module_name, __name__), name)
    globals()[name] = value  # cache: subsequent accesses skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
