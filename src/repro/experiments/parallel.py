"""Process-parallel experiment fan-out.

The figure sweeps are embarrassingly parallel: every point is one
self-contained simulated run, fully determined by its picklable
:class:`~repro.experiments.scenario.Scenario`.  This module executes
those scenarios across a :class:`~concurrent.futures.ProcessPoolExecutor`,
merging the results back **in order** — a parallel sweep is
byte-identical to the serial one because each run is deterministic
given its scenario and the parent does exactly the same arithmetic on
the results either way.

Worker-count resolution (first match wins):

1. an explicit ``jobs=`` argument (the CLI's ``--jobs`` flag),
2. the ``REPRO_JOBS`` environment variable (``REPRO_JOBS=1`` forces the
   serial path — useful for debugging and for determinism tests),
3. ``os.cpu_count() - 1``, leaving one core for the parent.

Capacity probes are the one shared computation: a sweep of N attacked
runs needs each (protocol, payload, f, exec_cost, scale, seed) capacity
once, not N times.  The fan-out therefore runs a **probe pre-wave** for
the distinct capacities the scenarios will need, and shares the values
with the workers through :func:`repro.experiments.runner.probe_capacity`'s
persistent cache file (``REPRO_CAPACITY_CACHE``, inherited by every
worker): the parent seeds the file with everything it already knows,
probe results are merged in as they arrive, and the measured wave's
workers hit the file instead of re-probing.

If the pool cannot be set up or dies (sandboxed environments without
working ``fork``, for instance), the fan-out silently degrades to the
serial path — same results, just slower.
"""

from __future__ import annotations

import os
import tempfile
from functools import partial
from typing import Dict, Iterable, List, Optional, Tuple

from . import runner
from .scale import current_scale
from .scenario import Scenario

__all__ = ["resolve_jobs", "execute_specs", "execute_tasks"]


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Apply the jobs resolution order documented in the module doc."""
    if jobs is None:
        env = os.environ.get("REPRO_JOBS")
        if env:
            try:
                jobs = int(env)
            except ValueError:
                jobs = None
    if jobs is None:
        jobs = (os.cpu_count() or 2) - 1
    return max(1, jobs)


def _capacity_prewave(scenarios: List[Scenario]) -> Dict[Tuple, partial]:
    """Distinct probes the measured wave would otherwise repeat, each
    keyed exactly like :func:`~repro.experiments.runner.probe_capacity`."""
    probes: Dict[Tuple, partial] = {}
    for scenario in scenarios:
        if scenario.workload.rate is not None:
            continue
        scale = scenario.scale or current_scale()
        key = (
            scenario.protocol, scenario.payload, scenario.f,
            scenario.exec_cost, scale.name, scenario.seed,
        )
        if key in probes or key in runner._capacity_cache:
            continue
        probes[key] = partial(
            runner.probe_capacity, scenario.protocol, scenario.payload,
            scale, scenario.f, scenario.exec_cost, scenario.seed,
        )
    return probes


def _call_task(task):
    """Invoke one task.  Must stay module-level (picklable)."""
    return task()


def execute_tasks(tasks: Iterable, jobs: Optional[int] = None) -> List:
    """Generic fan-out: run picklable nullary callables, results in order.

    Both waves of :func:`execute_specs` and the explorer's episode
    batches run through here.  If no pool can be set up (or it dies),
    the tasks run serially in the parent with identical results.
    """
    tasks = list(tasks)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(tasks) <= 1:
        return [task() for task in tasks]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            return list(pool.map(_call_task, tasks))
    except (BrokenProcessPool, OSError, PermissionError):
        return [task() for task in tasks]


def execute_specs(
    scenarios: Iterable[Scenario], jobs: Optional[int] = None
) -> List:
    """Run every scenario; return their results in order."""
    scenarios = list(scenarios)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(scenarios) <= 1:
        return [scenario.run() for scenario in scenarios]

    cache_path = os.environ.get("REPRO_CAPACITY_CACHE")
    own_cache = not cache_path
    if own_cache:
        fd, cache_path = tempfile.mkstemp(
            prefix="rbft-capacity-", suffix=".json"
        )
        os.close(fd)
        os.environ["REPRO_CAPACITY_CACHE"] = cache_path
    try:
        runner._store_capacity_entries(
            cache_path, dict(runner._capacity_cache)
        )
        probes = _capacity_prewave(scenarios)
        # The probing worker already wrote the file; mirror each value
        # into the parent's in-memory cache too.
        runner._capacity_cache.update(
            zip(probes, execute_tasks(probes.values(), jobs))
        )
        return execute_tasks([scenario.run for scenario in scenarios], jobs)
    finally:
        if own_cache:
            os.environ.pop("REPRO_CAPACITY_CACHE", None)
            try:
                os.unlink(cache_path)
            except OSError:
                pass
