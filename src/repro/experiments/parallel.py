"""Process-parallel experiment fan-out.

The figure sweeps are embarrassingly parallel: every point is one
self-contained simulated run, fully determined by (protocol, payload,
rate, attack, f, seed, scale).  This module enumerates those points as
picklable :class:`RunSpec` values and executes them across a
:class:`~concurrent.futures.ProcessPoolExecutor`, merging the results
back **in spec order** — a parallel sweep is byte-identical to the
serial one because each run is deterministic given its spec and the
parent does exactly the same arithmetic on the results either way.

Worker-count resolution (first match wins):

1. an explicit ``jobs=`` argument (the CLI's ``--jobs`` flag),
2. the ``REPRO_JOBS`` environment variable (``REPRO_JOBS=1`` forces the
   serial path — useful for debugging and for determinism tests),
3. ``os.cpu_count() - 1``, leaving one core for the parent.

Capacity probes are the one shared computation: a sweep of N attacked
runs needs each (protocol, payload, f, exec_cost, scale, seed) capacity
once, not N times.  The fan-out therefore runs a **probe pre-wave** for
the distinct capacities the specs will need, and shares the values with
the workers through :func:`repro.experiments.runner.probe_capacity`'s
persistent cache file (``REPRO_CAPACITY_CACHE``): the parent seeds the
file with everything it already knows, probe results are merged in as
they arrive, and the measured wave's workers hit the file instead of
re-probing.

If the pool cannot be set up or dies (sandboxed environments without
working ``fork``, for instance), the fan-out silently degrades to the
serial path — same results, just slower.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.clients import Workload

from . import runner
from .scale import ScenarioScale, current_scale
from .scenario import Scenario, run as run_scenario

__all__ = ["RunSpec", "resolve_jobs", "execute_specs", "execute_tasks"]


@dataclass(frozen=True)
class RunSpec:
    """One point of a figure sweep, picklable and hashable.

    ``kind`` selects the runner:

    * ``"probe"`` — :func:`~repro.experiments.runner.probe_capacity`,
      returns the capacity in requests/second;
    * ``"static"`` — one saturating static-workload run (``rate=None``
      means "1.25 × probed capacity", as usual);
    * ``"dynamic"`` — one spike-workload run, §VI-A (``rate`` is the
      per-client rate, ``None`` probes);
    * ``"curve-point"`` — one fixed-rate latency/throughput measurement
      (fig 7), with explicit ``duration``/``warmup``.
    """

    kind: str
    protocol: str
    payload: int = 8
    rate: Optional[float] = None
    attack: Optional[str] = None
    f: int = 1
    seed: int = 0
    exec_cost: float = 20e-6
    scale: Optional[ScenarioScale] = None
    duration: Optional[float] = None
    warmup: Optional[float] = None


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


def _execute_spec(spec: RunSpec):
    """Run one spec to completion.  Must stay module-level (picklable)."""
    if spec.kind == "probe":
        return runner.probe_capacity(
            spec.protocol, spec.payload, spec.scale, spec.f,
            spec.exec_cost, spec.seed,
        )
    if spec.kind == "static":
        return run_scenario(Scenario(
            protocol=spec.protocol, payload=spec.payload,
            workload=Workload("static", rate=spec.rate, population=False),
            attack=spec.attack, f=spec.f, seed=spec.seed,
            exec_cost=spec.exec_cost, scale=spec.scale,
        ))
    if spec.kind == "dynamic":
        return run_scenario(Scenario(
            protocol=spec.protocol, payload=spec.payload,
            workload=Workload("spike", rate=spec.rate, population=False),
            attack=spec.attack, f=spec.f, seed=spec.seed,
            exec_cost=spec.exec_cost, scale=spec.scale,
        ))
    if spec.kind == "curve-point":
        # A curve point is a static run with a pinned rate and an
        # explicit (shorter) measurement window.
        return run_scenario(Scenario(
            protocol=spec.protocol, payload=spec.payload,
            workload=Workload("static", rate=spec.rate, population=False),
            f=spec.f, seed=spec.seed,
            exec_cost=spec.exec_cost, scale=spec.scale,
            duration=spec.duration, warmup=spec.warmup,
        ))
    raise ValueError("unknown spec kind %r" % spec.kind)


def _probe_key(spec: RunSpec) -> Tuple:
    scale = spec.scale or current_scale()
    return (
        spec.protocol, spec.payload, spec.f, spec.exec_cost,
        scale.name, spec.seed,
    )


def _capacity_prewave(specs: List[RunSpec]) -> List[RunSpec]:
    """Distinct probe specs the measured wave would otherwise repeat."""
    probes: List[RunSpec] = []
    seen = set()
    for spec in specs:
        if spec.kind not in ("static", "dynamic") or spec.rate is not None:
            continue
        probe = RunSpec(
            kind="probe", protocol=spec.protocol, payload=spec.payload,
            f=spec.f, seed=spec.seed, exec_cost=spec.exec_cost,
            scale=spec.scale,
        )
        key = _probe_key(probe)
        if key in seen or key in runner._capacity_cache:
            continue
        seen.add(key)
        probes.append(probe)
    return probes


def _worker_init(cache_path: str) -> None:
    # Mostly redundant under fork (the env is inherited) but makes the
    # sharing explicit and keeps spawn-based platforms working.
    os.environ["REPRO_CAPACITY_CACHE"] = cache_path


def _call_task(task):
    """Invoke one task.  Must stay module-level (picklable)."""
    return task()


def execute_tasks(tasks: Iterable, jobs: Optional[int] = None) -> List:
    """Generic fan-out: run picklable nullary callables, results in order.

    The simpler sibling of :func:`execute_specs` for workloads with no
    shared capacity cache — the explorer's episode batches, for one.
    Same degradation contract: if no pool can be set up (or it dies),
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
    specs: Iterable[RunSpec], jobs: Optional[int] = None
) -> List:
    """Execute all specs; return their results in spec order."""
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return [_execute_spec(spec) for spec in specs]

    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

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
        probes = _capacity_prewave(specs)
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(specs)),
            initializer=_worker_init,
            initargs=(cache_path,),
        ) as pool:
            if probes:
                for probe, capacity in zip(
                    probes, pool.map(_execute_spec, probes)
                ):
                    # The probing worker already wrote the file; mirror
                    # the value into the parent's in-memory cache too.
                    runner._capacity_cache[_probe_key(probe)] = capacity
            return list(pool.map(_execute_spec, specs))
    except (BrokenProcessPool, OSError, PermissionError):
        # No usable pool here (or it died mid-flight): degrade to the
        # serial path — identical results, just slower.
        return [_execute_spec(spec) for spec in specs]
    finally:
        if own_cache:
            os.environ.pop("REPRO_CAPACITY_CACHE", None)
            try:
                os.unlink(cache_path)
            except OSError:
                pass
