"""The stable experiment entry point: :class:`Scenario` + :func:`run`.

One frozen dataclass captures everything that determines a simulated
run — protocol variant, scale, attack, workload, seed, link profile —
and one function executes it:

    >>> from repro.experiments import Scenario, run
    >>> result = run(Scenario(protocol="rbft", attack="rbft-worst1"))
    >>> result.executed_rate  # doctest: +SKIP
    31519.3

What load to offer is a first-class value: ``workload`` takes a
:class:`~repro.clients.registry.Workload` (or a bare pack name such as
``"diurnal"``) resolved through the workload registry.  Packs that
declare large populations (the day-in-the-life workloads default to
10^6 clients) aggregate into a single
:class:`~repro.clients.population.ClientPopulation` event source;
small counts explode into real per-client objects exactly as before,
so every pre-existing seeded run is byte-identical.

A :class:`Scenario` is hashable and picklable, so it doubles as a cache
key and travels across the process-parallel fan-out unchanged.  Runs
are deterministic given the scenario: two calls with the same value
produce byte-identical :class:`~repro.experiments.runner.RunResult`\\ s
(and identical ``repro.verify`` invariant digests).

Every figure goes through :func:`run`: the sweeps of Figs 1–3, 8 and
10, the Fig. 7 curve points, the capacity probe, the Figs 9/11
monitoring view and the ``profile`` command.  The last two read state
beyond :class:`RunResult` through ``run(..., attach=hook)``.  Two runs
do not go through it, because a :class:`Scenario` cannot describe them
yet.  A verification episode (:mod:`repro.verify.episode`) sets its
own ``RBFTConfig``, loads ``clients[1:]`` and drains after the load.
Fig. 12 (``unfair_primary_run``) drives two closed-loop clients.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

from repro.clients import (
    POPULATION_THRESHOLD,
    ClientPopulation,
    LoadGenerator,
    Workload,
)
from repro.clients import registry as workload_registry
from repro.net.network import LinkProfile
from repro.net.topology import Topology

from .scale import ScenarioScale, current_scale

__all__ = ["Scenario", "run"]


@dataclass(frozen=True)
class Scenario:
    """One fully specified simulated run.

    ``workload`` names the traffic model: a registered pack name
    (``"static"``, ``"spike"``, ``"diurnal"``, ``"flash-crowd"``,
    ``"churn"``, ``"heavy-mix"``) or a full
    :class:`~repro.clients.registry.Workload` value carrying the
    offered rate and declared client count.  ``Workload(rate=None)``
    derives the rate from a capacity probe exactly like the paper's
    experiments: static loads offer 1.25 × the probed capacity, spike
    loads give each client capacity/12 (≈ 83 % of capacity from the ten
    steady clients).  Probes always measure the **flat LAN**, so
    topology scenarios must carry an explicit rate (enforced with a
    ``ValueError``).
    """

    protocol: str
    payload: int = 8
    attack: Optional[str] = None
    f: int = 1
    seed: int = 0
    exec_cost: float = 20e-6
    scale: Optional[ScenarioScale] = None
    link: Optional[LinkProfile] = None
    #: geo-distributed layout (see :mod:`repro.net.topology`); ``None``
    #: keeps the flat Gigabit LAN of the paper's testbed.
    topology: Optional[Topology] = None
    #: measurement-window overrides; None uses the scale's values
    #: (whole-run workloads — spike, diurnal, flash-crowd — always
    #: measure the whole run, as in §VI-A).
    duration: Optional[float] = None
    warmup: Optional[float] = None
    #: the traffic model (a pack name or a Workload value); ``None``
    #: means the default static workload.
    workload: Optional[Union[str, Workload]] = None

    def __post_init__(self):
        if self.payload < 0:
            raise ValueError("payload must be >= 0, got %r" % (self.payload,))
        duration, warmup = self.duration, self.warmup
        if duration is not None and duration <= 0:
            raise ValueError("duration must be > 0, got %r" % (duration,))
        if warmup is not None and warmup < 0:
            raise ValueError("warmup must be >= 0, got %r" % (warmup,))
        if duration is not None and warmup is not None:
            _check_window(duration, warmup)
        workload = self.workload
        if workload is None:
            workload = Workload()
        elif isinstance(workload, str):
            workload = Workload(shape=workload)
        object.__setattr__(self, "workload", workload)

    def with_(self, **changes) -> "Scenario":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def run(self):
        """Execute this scenario; see :func:`run`."""
        return run(self)


def _check_window(duration: float, warmup: float) -> None:
    """Reject a measurement window the warm-up cut would leave empty."""
    if warmup >= duration:
        raise ValueError(
            "warmup (%r) must be shorter than duration (%r)" % (warmup, duration)
        )


def _resolved_rate(
    scenario: Scenario, spec, scale: ScenarioScale
) -> float:
    from .runner import probe_capacity

    workload = scenario.workload
    if workload.rate is not None:
        return workload.rate
    if scenario.topology is not None:
        # A capacity probe always measures the flat LAN — silently using
        # it would size a WAN run against the wrong network entirely.
        raise ValueError(
            "rate=None cannot be probed for a topology scenario: capacity "
            "probes measure the flat LAN; pass an explicit Workload rate"
        )
    capacity = probe_capacity(
        scenario.protocol, scenario.payload, scale, scenario.f,
        scenario.exec_cost, scenario.seed,
    )
    return spec.probe_rate(capacity)


def run(scenario: Scenario, *, attach: Optional[Callable] = None):
    """Execute one scenario and return its :class:`RunResult`.

    ``attach(deployment, faulty_names)`` runs once the attack is
    installed and before the load starts: the one hook for installing a
    tracer or a watch, or for keeping the deployment to read after the
    run (Figs 9/11 read the per-node monitors).  A hook that schedules
    no simulator event leaves the result byte-identical.
    """
    from .runner import ATTACK_INSTALLERS, RunResult, _attack_for, make_deployment

    scale = scenario.scale or current_scale()
    workload = scenario.workload
    spec = workload_registry.get(workload.shape)
    duration = scale.duration if scenario.duration is None else scenario.duration
    if spec.whole_run:
        # "When the load is dynamic, we consider the average throughput
        # observed on the whole experiment" (§VI-A): no warm-up cut for
        # workloads whose shape spans the run.
        warmup = 0.0 if scenario.warmup is None else scenario.warmup
    else:
        warmup = scale.warmup if scenario.warmup is None else scenario.warmup
    # Before the capacity probe or the deployment: an empty window is a
    # usage error, not something to simulate first and divide by later.
    _check_window(duration, warmup)
    rate = _resolved_rate(scenario, spec, scale)
    declared = (
        spec.default_clients(scenario.payload)
        if workload.clients is None
        else workload.clients
    )
    profile = spec.profile_factory(rate, duration, scenario.payload, declared)

    aggregate = (
        declared >= POPULATION_THRESHOLD
        if workload.population is None
        else workload.population
    )
    clients_factory = None
    n_clients = declared
    if aggregate:
        sampling = workload.sampling

        def clients_factory(cluster, payload):
            return ClientPopulation(
                cluster, declared, payload_size=payload, sampling=sampling
            )

        n_clients = 0

    deployment = make_deployment(
        scenario.protocol, scenario.payload, scale, f=scenario.f,
        seed=scenario.seed, exec_cost=scenario.exec_cost,
        n_clients=n_clients, link=scenario.link, topology=scenario.topology,
        clients_factory=clients_factory,
    )
    sim = deployment.sim
    send_kwargs = {}
    faulty_nodes = None
    attack_name = _attack_for(scenario.protocol, scenario.attack)
    if attack_name is not None:
        handle = ATTACK_INSTALLERS[attack_name](deployment)
        send_kwargs = getattr(handle, "client_send_kwargs", {}) or {}
        faulty_nodes = getattr(handle, "faulty_nodes", None)
        if faulty_nodes is None and attack_name in (
            "prime", "aardvark", "spinning"
        ):
            faulty_nodes = [deployment.nodes[0]]
    faulty_names = [node.name for node in faulty_nodes or ()]
    if attach is not None:
        attach(deployment, faulty_names)
    observers = [n for n in deployment.nodes if n.name not in faulty_names]
    if not observers:
        raise RuntimeError("no correct node to observe")

    generator = LoadGenerator(
        sim,
        deployment.population
        if deployment.population is not None
        else deployment.clients,
        profile,
        deployment.rng.stream("load"),
        send_kwargs=send_kwargs,
    )
    generator.start()
    marks = {}
    sim.call_at(
        warmup,
        lambda: marks.__setitem__(
            "start", [node.executed_count for node in observers]
        ),
    )
    sim.run(until=duration)
    starts = marks.get("start", [0] * len(observers))
    # System throughput is what the up-to-date correct replicas executed;
    # an attack may deliberately impair one correct node (worst-attack-1
    # targets the master primary's node), and a lagging replica catches
    # up by state transfer rather than by re-executing history.
    executed = max(
        node.executed_count - start for node, start in zip(observers, starts)
    )
    completed = generator.total_completed()
    observer = max(observers, key=lambda node: node.executed_count)
    return RunResult(
        protocol=scenario.protocol,
        payload=scenario.payload,
        offered_rate=profile.mean_rate() if spec.whole_run else rate,
        executed_rate=executed / (duration - warmup),
        completed=completed,
        completed_rate=completed / duration,
        mean_latency=generator.mean_latency(),
        p99_latency=generator.latency_percentile(0.99),
        instance_changes=getattr(observer, "instance_changes", 0),
        view_changes=getattr(
            getattr(observer, "engine", None), "view_changes", 0
        ) or getattr(observer, "view_changes", 0),
        events=sim.dispatched,
        workload=workload.shape,
        declared_clients=declared,
    )
