"""Tests for the process-parallel experiment fan-out."""

import json
import os
import subprocess
import sys

from repro.experiments import (
    Scenario,
    ScenarioScale,
    Workload,
    attack_sweep,
    latency_throughput_curve,
)
from repro.experiments.parallel import execute_specs, resolve_jobs
from repro.experiments.runner import _capacity_cache, _capacity_key_string

FAST = ScenarioScale(
    name="ptest",
    duration=0.2,
    warmup=0.05,
    probe_duration=0.1,
    sizes=(8,),
    rate_points=2,
    monitoring_period=0.05,
    aardvark_grace=0.1,
    aardvark_period=0.02,
)


def test_resolve_jobs_order(monkeypatch):
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(3) == 3
    assert resolve_jobs() == max(1, (os.cpu_count() or 2) - 1)
    monkeypatch.setenv("REPRO_JOBS", "5")
    assert resolve_jobs() == 5
    assert resolve_jobs(2) == 2  # explicit argument wins
    monkeypatch.setenv("REPRO_JOBS", "not-a-number")
    assert resolve_jobs() == max(1, (os.cpu_count() or 2) - 1)


def test_execute_specs_serial_matches_parallel_results(monkeypatch):
    monkeypatch.delenv("REPRO_CAPACITY_CACHE", raising=False)
    scenario = Scenario(
        protocol="pbft", payload=8, scale=FAST,
        workload=Workload("static", rate=2000.0, population=False),
    )
    _capacity_cache.clear()
    (serial,) = execute_specs([scenario], jobs=1)
    _capacity_cache.clear()
    two_serial, two_parallel = execute_specs([scenario, scenario], jobs=2)
    assert serial == two_serial == two_parallel


def test_attack_sweep_parallel_identical_to_serial(monkeypatch):
    """REPRO_JOBS=1 and REPRO_JOBS=2 must produce identical rows."""
    monkeypatch.delenv("REPRO_CAPACITY_CACHE", raising=False)
    monkeypatch.setenv("REPRO_JOBS", "1")
    _capacity_cache.clear()
    serial = attack_sweep("spinning", scale=FAST)
    monkeypatch.setenv("REPRO_JOBS", "2")
    _capacity_cache.clear()
    parallel = attack_sweep("spinning", scale=FAST)
    assert parallel == serial


def test_latency_curve_parallel_identical_to_serial(monkeypatch):
    monkeypatch.delenv("REPRO_CAPACITY_CACHE", raising=False)
    _capacity_cache.clear()
    serial = latency_throughput_curve("pbft", scale=FAST, jobs=1)
    # The probe is cached in the parent now; only the points fan out.
    parallel = latency_throughput_curve("pbft", scale=FAST, jobs=2)
    assert parallel == serial


_PROBE_SNIPPET = """
import sys
from repro.experiments import ScenarioScale
from repro.experiments.runner import probe_capacity

scale = ScenarioScale(
    name="ptest", duration=0.2, warmup=0.05, probe_duration=0.1,
    sizes=(8,), rate_points=2, monitoring_period=0.05,
    aardvark_grace=0.1, aardvark_period=0.02,
)
print(probe_capacity("pbft", 8, scale, seed=3))
"""


def _run_probe_subprocess(cache_path):
    env = dict(os.environ)
    env["REPRO_CAPACITY_CACHE"] = str(cache_path)
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run(
        [sys.executable, "-c", _PROBE_SNIPPET],
        capture_output=True, text=True, env=env, check=True,
    )
    return float(out.stdout.strip())


def test_persistent_capacity_cache_survives_fresh_process(tmp_path):
    cache_path = tmp_path / "capacity.json"
    first = _run_probe_subprocess(cache_path)
    assert first > 0

    key = _capacity_key_string(("pbft", 8, 1, 20e-6, "ptest", 3))
    data = json.loads(cache_path.read_text())
    assert data[key] == first

    # Plant a sentinel: if the fresh process returns it, the value came
    # from the persistent file, not from a silent re-probe.
    data[key] = 54321.0
    cache_path.write_text(json.dumps(data))
    assert _run_probe_subprocess(cache_path) == 54321.0
