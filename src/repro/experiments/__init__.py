"""Experiment harness: one runner per table/figure of the paper.

What a scenario needs to run is imported eagerly; the bench, smoke,
soak and profiling harnesses resolve on first use, so running a
scenario does not pay for importing them.
"""

from repro.clients import Workload

from .deployments import (
    Deployment,
    build_aardvark,
    build_pbft,
    build_prime,
    build_rbft,
    build_spinning,
)
from .runner import (
    PROTOCOL_VARIANTS,
    RunResult,
    attack_sweep,
    latency_throughput_curve,
    make_deployment,
    monitoring_view,
    probe_capacity,
    relative_throughput,
    run_dynamic,
    run_static,
    table1,
    unfair_primary_run,
)
from .meso import MesoConfig
from .parallel import RunSpec, execute_specs, execute_tasks, resolve_jobs
from .scale import FULL, QUICK, SMOKE, ScenarioScale, current_scale
from .scenario import Scenario, run
from .stats import SweepResult, seed_sweep

__all__ = [
    "Scenario",
    "Workload",
    "run",
    "Deployment",
    "build_aardvark",
    "build_pbft",
    "build_prime",
    "build_rbft",
    "build_spinning",
    "PROTOCOL_VARIANTS",
    "RunResult",
    "attack_sweep",
    "latency_throughput_curve",
    "make_deployment",
    "monitoring_view",
    "probe_capacity",
    "relative_throughput",
    "run_dynamic",
    "run_static",
    "table1",
    "unfair_primary_run",
    "FULL",
    "QUICK",
    "SMOKE",
    "ScenarioScale",
    "current_scale",
    "profile_report",
    "profile_run",
    "run_smoke",
    "check_bounds",
    "write_smoke",
    "run_soak",
    "check_soak",
    "write_soak",
    "run_kernel_bench",
    "check_regression",
    "write_kernel_bench",
    "run_protocol_bench",
    "write_protocol_bench",
    "run_scale_bench",
    "write_scale_bench",
    "run_workload_bench",
    "check_workload",
    "write_workload_bench",
    "MesoConfig",
    "run_meso_bench",
    "write_meso_bench",
    "RunSpec",
    "execute_specs",
    "execute_tasks",
    "resolve_jobs",
    "SweepResult",
    "seed_sweep",
]

#: harness names resolved lazily (PEP 562): name -> defining submodule.
_LAZY = {
    "check_regression": "kernelbench",
    "run_kernel_bench": "kernelbench",
    "write_kernel_bench": "kernelbench",
    "run_meso_bench": "mesobench",
    "write_meso_bench": "mesobench",
    "profile_report": "profiling",
    "profile_run": "profiling",
    "run_protocol_bench": "protocolbench",
    "write_protocol_bench": "protocolbench",
    "run_scale_bench": "scalebench",
    "write_scale_bench": "scalebench",
    "check_bounds": "smoke",
    "run_smoke": "smoke",
    "write_smoke": "smoke",
    "check_soak": "soak",
    "run_soak": "soak",
    "write_soak": "soak",
    "check_workload": "workloadbench",
    "run_workload_bench": "workloadbench",
    "write_workload_bench": "workloadbench",
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
