"""Experiment runners — one function per table/figure of the paper.

Measurement conventions:

* **throughput** is the rate of requests *executed by a correct node*
  inside the measurement window (after warm-up) — the quantity the
  paper's monitoring also uses;
* **relative throughput** (Figs 1, 2, 3, 8, 10) is the ratio between an
  attacked run and a fault-free run with identical offered load and
  seed;
* **latency** is client-side: request send to f+1 matching replies.

Static loads saturate the system (offered = 1.25 × a probed capacity);
dynamic loads follow the paper's spike profile (§VI-A).
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.clients import Workload
from repro.common import NullService
from repro.core import RBFTConfig
from repro.faults import (
    install_aardvark_attack,
    install_prime_attack,
    install_rbft_worst_attack_1,
    install_rbft_worst_attack_2,
    install_spinning_attack,
)
from repro.net.network import LinkProfile
from repro.net.topology import Topology
from repro.protocols import registry as protocol_registry

from .deployments import Deployment, deploy
from .scale import ScenarioScale, current_scale
from .scenario import Scenario, run

__all__ = [
    "RunResult",
    "make_deployment",
    "probe_capacity",
    "relative_throughput",
    "attack_sweep",
    "latency_throughput_curve",
    "monitoring_view",
    "unfair_primary_run",
    "table1",
    "PROTOCOL_VARIANTS",
]

#: registered variant names, in registration order (see
#: :mod:`repro.protocols.registry`, the single source of truth).
PROTOCOL_VARIANTS = protocol_registry.names()

#: capacity cache: (protocol, payload, f, exec_cost, scale name, seed)
#: -> requests/second.  In-memory, per-process; when the
#: ``REPRO_CAPACITY_CACHE`` environment variable names a JSON file, the
#: cache is additionally persisted there so probe results survive
#: process boundaries (the parallel fan-out's worker pool, or explicit
#: reuse across CLI invocations).
_capacity_cache: Dict[Tuple, float] = {}


def _capacity_key_string(key: Tuple) -> str:
    """A stable JSON-file key for one cache tuple."""
    return json.dumps(list(key))


def _load_capacity_file(path: str) -> Dict[str, float]:
    try:
        with open(path, "r", encoding="utf-8") as fileobj:
            data = json.load(fileobj)
    except (OSError, ValueError):
        return {}
    return data if isinstance(data, dict) else {}


def _store_capacity_entries(path: str, entries: Dict[Tuple, float]) -> None:
    """Read-merge-write ``entries`` into the persistent cache file.

    The write is atomic (tempfile + ``os.replace``) so concurrent
    writers never leave a torn file.  Two probes racing on different
    keys can still drop one another's entry (last write wins); that
    only costs a redundant re-probe later, never a wrong value, because
    every entry is deterministic given its key.
    """
    data = _load_capacity_file(path)
    for key, value in entries.items():
        data[_capacity_key_string(key)] = value
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(prefix=".capacity-", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fileobj:
            json.dump(data, fileobj, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass


@dataclass
class RunResult:
    """What one simulated run measured."""

    protocol: str
    payload: int
    offered_rate: float
    executed_rate: float  # requests/s at a correct node, post-warmup
    completed: int  # client-side completions over the whole run
    completed_rate: float
    mean_latency: float  # seconds, client-side
    p99_latency: float
    instance_changes: int
    view_changes: int
    events: int  # simulator queue items dispatched over the run
    #: workload pack the run offered (see repro.clients.registry).
    workload: str
    #: declared client-population size (``Workload.clients`` or the
    #: pack's default).
    declared_clients: int


def make_deployment(
    protocol: str,
    payload: int = 8,
    scale: Optional[ScenarioScale] = None,
    f: int = 1,
    seed: int = 0,
    exec_cost: float = 20e-6,
    n_clients: int = 12,
    link: Optional[LinkProfile] = None,
    topology: Optional[Topology] = None,
    clients_factory: Optional[Callable] = None,
) -> Deployment:
    """Stand up one of the protocol variants on identical hardware.

    ``clients_factory`` (a ``(cluster, payload) -> ClientPopulation``
    callable) attaches an aggregated population instead of exploding
    ``n_clients`` objects — the Scenario layer passes it for workloads
    whose declared client count crosses the population threshold.
    """
    scale = scale or current_scale()
    spec = protocol_registry.get(protocol)

    def service():
        return NullService(exec_cost=exec_cost)

    return spec.build(
        f, scale, payload=payload, n_clients=n_clients,
        service_factory=service, seed=seed, link=link, topology=topology,
        clients_factory=clients_factory,
    )


def probe_capacity(
    protocol: str,
    payload: int = 8,
    scale: Optional[ScenarioScale] = None,
    f: int = 1,
    exec_cost: float = 20e-6,
    seed: int = 0,
) -> float:
    """Measure the fault-free saturation throughput (cached).

    The cache key includes the probe ``seed``: probing is a measurement
    of a seeded simulation, so two sweeps probing under different seeds
    must not share results.  Cached values are also read from / written
    to the ``REPRO_CAPACITY_CACHE`` file when that variable is set, so
    a fresh process (a pool worker, a re-run) skips the probe.
    """
    scale = scale or current_scale()
    key = (protocol, payload, f, exec_cost, scale.name, seed)
    cached = _capacity_cache.get(key)
    if cached is not None:
        return cached
    cache_path = os.environ.get("REPRO_CAPACITY_CACHE")
    if cache_path:
        persisted = _load_capacity_file(cache_path).get(
            _capacity_key_string(key)
        )
        if persisted is not None:
            _capacity_cache[key] = persisted
            return persisted

    def probe(rate: float) -> float:
        result = run(Scenario(
            protocol=protocol, payload=payload, f=f, seed=seed,
            exec_cost=exec_cost, scale=scale,
            workload=Workload("static", rate=rate),
            duration=scale.probe_duration, warmup=0.4 * scale.probe_duration,
        ))
        return max(result.executed_rate, 1.0)

    # Stage 1: coarse over-offering, capped so large payloads don't swamp
    # the client NICs before the protocol even sees the requests.
    wire = 176 + payload
    coarse_rate = min(90_000.0, 0.6 * 125_000_000.0 / wire)
    coarse = probe(coarse_rate)
    # Stage 2: saturate just past the knee, like the paper's static load.
    capacity = probe(1.4 * coarse)
    _capacity_cache[key] = capacity
    if cache_path:
        _store_capacity_entries(cache_path, {key: capacity})
    return capacity


ATTACK_INSTALLERS: Dict[str, Callable[[Deployment], object]] = {
    "prime": install_prime_attack,
    "aardvark": install_aardvark_attack,
    "spinning": install_spinning_attack,
    "rbft-worst1": install_rbft_worst_attack_1,
    "rbft-worst2": install_rbft_worst_attack_2,
}


def _attack_for(protocol: str, attack: Optional[str]) -> Optional[str]:
    if attack is None:
        return None
    if attack == "default":
        return protocol if protocol in ATTACK_INSTALLERS else None
    return attack


def _relative_pct(attacked: RunResult, fault_free: RunResult) -> float:
    """``attacked``'s executed rate as a percentage of ``fault_free``'s."""
    if fault_free.executed_rate <= 0:
        return 0.0
    return 100.0 * attacked.executed_rate / fault_free.executed_rate


def relative_throughput(
    protocol: str,
    payload: int = 8,
    dynamic: bool = False,
    scale: Optional[ScenarioScale] = None,
    attack: str = "default",
    f: int = 1,
    seed: int = 0,
    exec_cost: float = 20e-6,
) -> Tuple[float, RunResult, RunResult]:
    """Throughput under attack as a percentage of the fault-free run."""
    base = Scenario(
        protocol=protocol, payload=payload,
        workload=Workload("spike" if dynamic else "static"), scale=scale,
        f=f, seed=seed, exec_cost=exec_cost,
    )
    fault_free = run(base)
    attacked = run(base.with_(attack=attack))
    return _relative_pct(attacked, fault_free), fault_free, attacked


def _sweep_scenarios(
    protocol: str,
    scale: ScenarioScale,
    attack: str,
    f: int,
    exec_cost: float,
) -> List:
    """Four runs per request size, in the serial execution order: static
    then spike load, each fault-free then attacked."""
    return [
        Scenario(
            protocol=protocol, payload=size,
            workload=Workload(shape, population=False),
            attack=att, f=f, exec_cost=exec_cost, scale=scale,
        )
        for size in scale.sizes
        for shape in ("static", "spike")
        for att in (None, attack)
    ]


def _sweep_rows(scale: ScenarioScale, results: List[RunResult]) -> List[dict]:
    rows = []
    for index, size in enumerate(scale.sizes):
        static_ff, static_att, dyn_ff, dyn_att = results[
            4 * index : 4 * index + 4
        ]
        rows.append(
            {
                "size": size,
                "static_pct": _relative_pct(static_att, static_ff),
                "dynamic_pct": _relative_pct(dyn_att, dyn_ff),
            }
        )
    return rows


def attack_sweep(
    protocol: str,
    scale: Optional[ScenarioScale] = None,
    attack: str = "default",
    f: int = 1,
    exec_cost: float = 20e-6,
    jobs: Optional[int] = None,
) -> List[dict]:
    """Figs 1, 2, 3, 8, 10: relative throughput vs request size, for both
    the static and the dynamic load.

    The per-size runs are independent simulations; ``jobs`` (default:
    ``REPRO_JOBS`` or ``cpu_count() - 1``) fans them out across worker
    processes.  Results are merged in order, so the rows are
    byte-identical to a serial sweep.
    """
    from .parallel import execute_specs

    scale = scale or current_scale()
    scenarios = _sweep_scenarios(protocol, scale, attack, f, exec_cost)
    return _sweep_rows(scale, execute_specs(scenarios, jobs=jobs))


def latency_throughput_curve(
    protocol: str,
    payload: int = 8,
    scale: Optional[ScenarioScale] = None,
    f: int = 1,
    exec_cost: float = 20e-6,
    jobs: Optional[int] = None,
) -> List[dict]:
    """Fig 7: (achieved throughput, mean latency) as offered load rises.

    The capacity probe runs first (it anchors every point's rate); the
    points themselves fan out across ``jobs`` worker processes.
    """
    from .parallel import execute_specs

    scale = scale or current_scale()
    capacity = probe_capacity(protocol, payload, scale, f, exec_cost)
    duration = max(0.6, scale.duration / 2)
    rates = [
        (0.15 + (1.05 - 0.15) * i / max(1, scale.rate_points - 1)) * capacity
        for i in range(scale.rate_points)
    ]
    # A curve point is a static run with a pinned rate and an explicit
    # (shorter) measurement window.
    scenarios = [
        Scenario(
            protocol=protocol, payload=payload,
            workload=Workload("static", rate=rate, population=False),
            f=f, exec_cost=exec_cost, scale=scale,
            duration=duration, warmup=duration * 0.25,
        )
        for rate in rates
    ]
    return [
        {
            "offered": rate,
            "throughput": result.completed_rate,
            "latency_ms": result.mean_latency * 1e3,
        }
        for rate, result in zip(rates, execute_specs(scenarios, jobs=jobs))
    ]


def monitoring_view(
    worst_attack: int = 1,
    payload: int = 4096,
    scale: Optional[ScenarioScale] = None,
    f: int = 1,
) -> Dict[str, List[float]]:
    """Figs 9 and 11: per-node monitored throughput, master vs backups.

    Returns {node_name: [rate of instance 0, rate of instance 1, ...]}
    averaged over the post-warmup monitoring windows, for correct nodes.
    """
    scale = scale or current_scale()
    correct = []

    def keep_correct(deployment, faulty_names):
        # The paper omits the faulty node's (arbitrary) values.
        correct.extend(
            node for node in deployment.nodes if node.name not in faulty_names
        )

    run(Scenario(
        protocol="rbft", payload=payload, f=f, scale=scale,
        attack="rbft-worst1" if worst_attack == 1 else "rbft-worst2",
        workload=Workload("static", population=False),
    ), attach=keep_correct)
    view: Dict[str, List[float]] = {}
    for node in correct:
        rates = []
        for series in node.monitor.rate_series:
            samples = [r for t, r in series if t >= scale.warmup]
            rates.append(sum(samples) / len(samples) if samples else 0.0)
        view[node.name] = rates
    return view


def unfair_primary_run(
    lambda_max: float = 1.5e-3,
    payload: int = 4096,
    requests_per_client: int = 700,
    scale: Optional[ScenarioScale] = None,
) -> dict:
    """Fig 12: two clients; the master primary delays one of them.

    Phase 1 (first ~500 victim requests): fair.  Phase 2 (next ~500):
    the victim's requests are delayed so its latency rises but stays
    under Λ.  Then one request exceeds Λ and the nodes vote a protocol
    instance change; the new master primary is fair again.
    """
    from repro.faults import install_unfair_primary
    from repro.metrics import TimeSeries

    scale = scale or current_scale()
    config = RBFTConfig(
        f=1,
        batch_size=4,
        batch_delay=2e-4,
        monitoring_period=scale.monitoring_period,
        lambda_max=lambda_max,
    )
    deployment = deploy("rbft", config, n_clients=2, payload=payload)
    victim, other = deployment.clients[0], deployment.clients[1]

    def schedule(i: int) -> float:
        if i < 500:
            return 0.0
        if i < 1000:
            return 0.55e-3  # latency ~1.3 ms, still under Λ
        if i == 1000:
            return 1.1e-3  # one request beyond Λ = 1.5 ms
        return 0.0

    install_unfair_primary(deployment, victim.name, schedule)

    series = {victim.name: TimeSeries("attacked"), other.name: TimeSeries("other")}
    counters = {victim.name: 0, other.name: 0}

    for client in (victim, other):

        def record(latency, _client=client, _recorder=client.latencies):
            counters[_client.name] += 1
            series[_client.name].append(counters[_client.name], latency)
            _recorder.record(latency)

        # Re-route the latency recording to also keep per-request order.
        client.latencies = type(client.latencies)()
        client.latencies.record = record  # type: ignore[method-assign]

    sim = deployment.sim
    gap = 0.8e-3

    def run_client(client):
        for _ in range(requests_per_client + 400):
            client.send_request()
            yield sim.timeout(gap)

    sim.process(run_client(victim))
    sim.process(run_client(other))
    sim.run(until=(requests_per_client + 450) * gap)

    change_at = None
    for node in deployment.nodes:
        for t, reason in node.monitor.triggers:
            if reason == "latency-lambda":
                change_at = t if change_at is None else min(change_at, t)
    return {
        "series": series,
        "lambda_max": lambda_max,
        "instance_change_at": change_at,
        "instance_changes": deployment.nodes[1].instance_changes,
        "deployment": deployment,
    }


def table1(
    scale: Optional[ScenarioScale] = None, jobs: Optional[int] = None
) -> Dict[str, float]:
    """Table I: maximum throughput degradation of the three baselines.

    All three protocols' sweeps are enumerated up front and executed as
    one fan-out, so the pool sees the whole table's worth of runs.
    """
    from .parallel import execute_specs

    scale = scale or current_scale()
    protocols = ("prime", "aardvark", "spinning")
    scenarios = []
    for protocol in protocols:
        exec_cost = 1e-4 if protocol == "prime" else 20e-6
        scenarios.extend(
            _sweep_scenarios(protocol, scale, "default", 1, exec_cost)
        )
    results = execute_specs(scenarios, jobs=jobs)
    per_protocol = 4 * len(scale.sizes)
    degradations = {}
    for index, protocol in enumerate(protocols):
        rows = _sweep_rows(
            scale,
            results[index * per_protocol : (index + 1) * per_protocol],
        )
        worst = min(
            min(row["static_pct"], row["dynamic_pct"]) for row in rows
        )
        degradations[protocol] = 100.0 - worst
    return degradations
