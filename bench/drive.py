"""Drive a scenario from public pieces, one span per layer boundary.

``repro.experiments.run`` returns only ``RunResult`` scalars; the trace
and profile passes (and the median/tail latency and sent counts of the
end-to-end table) need the deployment and the load generator, so this
module re-assembles the same run from the public API —
``make_deployment`` -> attack installer -> ``LoadGenerator`` ->
``sim.run`` — and the correctness gate checks that it agrees with
``run()`` on every shared number.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.clients import (
    POPULATION_THRESHOLD,
    ClientPopulation,
    LoadGenerator,
    get_workload,
)
from repro.experiments import Scenario, make_deployment
from repro.faults import install_rbft_worst_attack_1

from spans import Spans
from workloads import window

__all__ = ["deploy", "drive", "tail_rung"]

#: the only attack a ledger workload arms (a public ``repro.faults`` name).
ATTACKS = {"rbft-worst1": install_rbft_worst_attack_1}

#: tail percentiles (in percent, so the rule is integer arithmetic),
#: highest first; a rung needs >= 10 samples beyond it.
TAIL_RUNGS = (99, 95, 90, 75)
TAIL_SAMPLES_BEYOND = 10


def tail_rung(samples: int) -> float:
    """The highest tail percentile with >= 10 samples beyond it.

    47 completions support p75 (11.75 beyond), 7 930 support p99; below
    40 samples no rung qualifies and the median is all there is.
    """
    for percent in TAIL_RUNGS:
        if samples * (100 - percent) >= 100 * TAIL_SAMPLES_BEYOND:
            return percent / 100.0
    return 0.5


def deploy(scenario: Scenario):
    """``make_deployment`` for a scenario, exactly as ``run()`` calls it.

    Returns ``(deployment, profile)``.  Ledger workloads carry explicit
    rates, so no capacity probe is involved.
    """
    workload = scenario.workload
    spec = get_workload(workload.shape)
    declared = (
        spec.default_clients(scenario.payload)
        if workload.clients is None
        else workload.clients
    )
    duration, _ = window(scenario)
    profile = spec.profile_factory(
        workload.rate, duration, scenario.payload, declared
    )
    aggregate = (
        declared >= POPULATION_THRESHOLD
        if workload.population is None
        else workload.population
    )
    clients_factory = None
    if aggregate:
        def clients_factory(cluster, payload):
            return ClientPopulation(
                cluster, declared, payload_size=payload,
                sampling=workload.sampling,
            )
    deployment = make_deployment(
        scenario.protocol, scenario.payload, scenario.scale, f=scenario.f,
        seed=scenario.seed, exec_cost=scenario.exec_cost,
        n_clients=0 if aggregate else declared,
        clients_factory=clients_factory,
    )
    return deployment, profile


def drive(
    scenario: Scenario,
    spans: Spans,
    attach: Optional[Callable] = None,
    paced: bool = False,
) -> Dict:
    """Run ``scenario`` piecewise; return its outcome record.

    ``attach(deployment, faulty_names)`` may install a tracer before the
    load starts; ``paced`` spaces arrivals evenly (see
    ``LedgerWorkload.paced``).  The returned record carries every number ``run()``
    reports (for the gate) plus what only the generator knows.
    """
    duration, warmup = window(scenario)
    with spans.span("experiments.make_deployment"):
        deployment, profile = deploy(scenario)
    sim = deployment.sim
    send_kwargs: dict = {}
    faulty: list = []
    with spans.span("faults.install"):
        if scenario.attack is not None:
            handle = ATTACKS[scenario.attack](deployment)
            send_kwargs = handle.client_send_kwargs
            faulty = list(handle.faulty_nodes)
    faulty_names = [node.name for node in faulty]
    if attach is not None:
        attach(deployment, faulty_names)
    observers = [n for n in deployment.nodes if n.name not in faulty_names]
    marks: dict = {}
    with spans.span("clients.start"):
        generator = LoadGenerator(
            sim,
            deployment.population
            if deployment.population is not None
            else deployment.clients,
            profile,
            deployment.rng.stream("load"),
            poisson=not paced,
            send_kwargs=send_kwargs,
        )
        generator.start()
        # The same warm-up marker event run() schedules, so the
        # dispatched-event count matches it exactly.
        sim.call_at(
            warmup,
            lambda: marks.__setitem__(
                "start", [node.executed_count for node in observers]
            ),
        )
    with spans.span("sim.run"):
        sim.run(until=duration)
    with spans.span("metrics.collect"):
        starts = marks.get("start", [0] * len(observers))
        executed = max(
            node.executed_count - start
            for node, start in zip(observers, starts)
        )
        sent = generator.total_sent()
        completed = generator.total_completed()
        tail = tail_rung(completed)
        population = deployment.population
        record = {
            "events": sim.dispatched,
            "completed": completed,
            "sent": sent,
            "executed_rate": executed / (duration - warmup),
            "mean_latency": generator.mean_latency(),
            "p50_latency": generator.latency_percentile(0.5),
            "p99_latency": generator.latency_percentile(0.99),
            "tail_percentile": tail,
            "tail_latency": generator.latency_percentile(tail),
            "failed_share": (sent - completed) / sent if sent else 1.0,
            "duration": duration,
            "faulty": faulty_names,
            "identities": (
                len(population.identities_seen)
                if population is not None
                else sum(1 for c in deployment.clients if c.sent)
            ),
            "instance_changes": max(n.instance_changes for n in observers),
            "invalid_requests": sum(
                n.invalid_requests for n in deployment.nodes
            ),
            "nics_closed": sum(n.nics_closed for n in deployment.nodes),
        }
    return record
