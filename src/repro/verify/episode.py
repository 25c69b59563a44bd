"""One explorer episode: a seeded deployment, a fault plan, a verdict.

An :class:`EpisodeSpec` is fully self-contained — seed, load, protocol
knobs and the fault plan — so the episode is a pure function of it:
running the same spec twice (in this process, a worker process, or a
replay months later) produces byte-identical simulator schedules and
therefore an identical **invariant digest**.  That is what makes the
JSON artifact a faithful counterexample: ``check --replay`` re-runs the
spec and compares digests instead of trusting the recorded verdict.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.clients import LoadGenerator, build_profile
from repro.core import RBFTConfig
from repro.experiments.deployments import deploy

from .invariants import InvariantSuite
from .vocabulary import FaultSpec, install_plan

__all__ = ["EpisodeSpec", "EpisodeResult", "run_episode"]

#: Byzantine faults within the model may cost a few percent of
#: completions (§VI-C: ≤3 %); below this floor something is wrong.
COMPLETION_FLOOR = 0.95

#: The registry variants an episode can target.  The invariant suite and
#: the fault vocabulary read RBFT node state (per-instance engines, the
#: instance monitor, master promotion), so episodes are restricted to
#: the RBFT family; all three share :class:`RBFTNode` and
#: :class:`RBFTConfig`, differing only in transport/ordering knobs.
RBFT_FAMILY = ("rbft", "rbft-udp", "rbft-full-order")


@dataclass(frozen=True)
class EpisodeSpec:
    """Everything that determines one episode."""

    seed: int
    plan: Tuple[FaultSpec, ...] = ()
    duration: float = 1.0  # load window, simulated seconds
    drain: float = 1.0  # settle time after the load stops
    rate: float = 1500.0  # aggregate offered load, requests/second
    n_clients: int = 6
    f: int = 1
    batch_size: int = 8
    batch_delay: float = 1e-3
    monitoring_period: float = 0.1
    min_monitor_requests: int = 10
    flood_threshold: int = 32
    protocol: str = "rbft"  # a registry name from RBFT_FAMILY
    #: geo-distributed layout: a named topology pack from
    #: :data:`repro.net.topology.TOPOLOGY_PACKS` ("wan3", "wan5"), or
    #: "" for the flat LAN.  A pack *name* rather than a Topology value
    #: keeps the spec JSON-serialisable and replay artifacts readable.
    topology: str = ""
    #: traffic shape: a workload-registry pack name.  The classic
    #: constant-rate profile is the default; non-static packs let the
    #: adversary search under diurnal / flash-crowd / churn traffic.
    workload: str = "static"

    def __post_init__(self) -> None:
        # An episode that offers no load verifies nothing, yet would
        # report every invariant as holding.
        if self.duration <= 0:
            raise ValueError("duration must be > 0, got %r" % (self.duration,))
        if self.rate <= 0:
            raise ValueError("rate must be > 0, got %r" % (self.rate,))

    def to_dict(self) -> Dict[str, Any]:
        record = asdict(self)
        record["plan"] = [spec.to_dict() for spec in self.plan]
        # Artifact compatibility: episodes recorded before the protocol
        # field existed carry no "protocol" key, and regenerating them
        # must stay byte-identical — omit the default.
        if record["protocol"] == "rbft":
            del record["protocol"]
        if not record["topology"]:  # same rule for pre-WAN artifacts
            del record["topology"]
        if record["workload"] == "static":  # and pre-workload artifacts
            del record["workload"]
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "EpisodeSpec":
        record = dict(record)
        record["plan"] = tuple(
            FaultSpec.from_dict(spec) for spec in record.get("plan", ())
        )
        return cls(**record)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "EpisodeSpec":
        return cls.from_dict(json.loads(text))

    def without_fault(self, index: int) -> "EpisodeSpec":
        """A copy with one fault removed (the shrinker's move)."""
        plan = self.plan[:index] + self.plan[index + 1:]
        return replace(self, plan=plan)


@dataclass
class EpisodeResult:
    """The verdict of one episode run."""

    spec: EpisodeSpec
    digest: str
    violations: List[Dict[str, Any]] = field(default_factory=list)
    sent: int = 0
    completed: int = 0
    executed: Dict[str, int] = field(default_factory=dict)
    instance_changes: Dict[str, int] = field(default_factory=dict)
    events_seen: int = 0
    #: mean end-to-end latency over completed requests, seconds.  Kept
    #: out of :meth:`to_dict` (and so out of the replay artifacts): it is
    #: derived measurement for the adversary's reward, not part of the
    #: episode's identity.
    mean_latency: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def throughput(self) -> float:
        """Completed requests per simulated second of the load window."""
        return self.completed / self.spec.duration if self.spec.duration else 0.0

    def violated(self) -> frozenset:
        return frozenset(v["invariant"] for v in self.violations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.to_dict(),
            "digest": self.digest,
            "violations": self.violations,
            "summary": {
                "sent": self.sent,
                "completed": self.completed,
                "executed": self.executed,
                "instance_changes": self.instance_changes,
                "events_seen": self.events_seen,
            },
        }


def run_episode(
    spec: EpisodeSpec,
    mutate: Optional[Callable] = None,
) -> EpisodeResult:
    """Run one episode and check every invariant.

    ``mutate`` is a hook for mutation testing: it receives the freshly
    built deployment *before* faults install, so a test can deliberately
    break the engine (say, lower the commit quorum) and confirm the
    invariant layer catches the consequences.  It is not part of the
    spec and never serialized — replay artifacts always describe the
    stock engine.
    """
    if spec.protocol not in RBFT_FAMILY:
        raise ValueError(
            "episode protocol %r is not in the RBFT family %r"
            % (spec.protocol, RBFT_FAMILY)
        )
    config = RBFTConfig(
        f=spec.f,
        batch_size=spec.batch_size,
        batch_delay=spec.batch_delay,
        monitoring_period=spec.monitoring_period,
        min_monitor_requests=spec.min_monitor_requests,
        flood_threshold=spec.flood_threshold,
        order_full_requests=(spec.protocol == "rbft-full-order"),
    )
    topology = None
    if spec.topology:
        from repro.net.topology import named

        topology = named(spec.topology)
    deployment = deploy(
        spec.protocol, config, n_clients=spec.n_clients, seed=spec.seed,
        topology=topology,
    )
    if mutate is not None:
        mutate(deployment)
    handle = install_plan(deployment, spec.plan)
    suite = InvariantSuite().attach(
        deployment, faulty=handle.faulty,
        expect_complete=handle.expect_complete,
    )
    generator = LoadGenerator(
        deployment.sim,
        deployment.clients[1:],  # client0 is the designated misbehaver
        build_profile(
            spec.workload, spec.rate, spec.duration,
            clients=spec.n_clients - 1,
        ),
        deployment.rng.stream("load"),
        send_kwargs=handle.client_send_kwargs or None,
    )
    generator.start()
    deployment.sim.run(until=spec.duration + spec.drain)

    sent = generator.total_sent()
    completed = generator.total_completed()
    if handle.expect_complete and sent and completed < COMPLETION_FLOOR * sent:
        suite.record(
            "completion",
            "only %d of %d requests completed (< %d%% floor) although the "
            "plan contains no network faults"
            % (completed, sent, int(COMPLETION_FLOOR * 100)),
        )
    correct = [n for n in deployment.nodes if suite.is_correct(n.name)]
    summary = {
        "sent": sent,
        "completed": completed,
        "executed": tuple((n.name, n.executed_count) for n in correct),
        "instance_changes": tuple(
            (n.name, n.instance_changes) for n in correct
        ),
    }
    violations = suite.finalize(summary)
    return EpisodeResult(
        spec=spec,
        digest=suite.digest(),
        violations=[v.to_dict() for v in violations],
        sent=sent,
        completed=completed,
        executed={n.name: n.executed_count for n in correct},
        instance_changes={n.name: n.instance_changes for n in correct},
        events_seen=suite.events_seen,
        mean_latency=generator.mean_latency(),
    )
