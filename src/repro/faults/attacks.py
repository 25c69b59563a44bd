"""Attack orchestration — every adversary evaluated in the paper.

Each installer takes a :class:`~repro.experiments.deployments.Deployment`
and wires the malicious behaviour into it.  The adversaries are *smart*:
they monitor exactly what the correct replicas monitor and stay just
below the detection thresholds, which is the paper's core observation
about why Prime, Aardvark and Spinning are not actually robust.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from repro.clients import OpenLoopClient

# Annotation-only: a runtime import would close the cycle
# faults -> experiments -> runner -> faults and make `import
# repro.verify` (whose vocabulary pulls in repro.faults) order-dependent.
if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.deployments import Deployment

from .flooding import MAX_FLOOD_SIZE, Flooder
from .pacing import BatchPacer

__all__ = [
    "install_prime_attack",
    "install_aardvark_attack",
    "install_spinning_attack",
    "install_rbft_worst_attack_1",
    "install_rbft_worst_attack_2",
    "install_unfair_primary",
    "HeavyClient",
]


# --------------------------------------------------------------------- Prime
class HeavyClient:
    """The Prime attack's colluding client: heavy (1 ms) requests (§III-A)."""

    def __init__(
        self,
        deployment: Deployment,
        rate: float,
        exec_cost: float = 1e-3,
        name: str = "heavy-client",
    ):
        self.client = OpenLoopClient(deployment.cluster, name, payload_size=8)
        self.sim = deployment.sim
        self.rate = rate
        self.exec_cost = exec_cost
        self._running = False

    def start(self) -> None:
        self._running = True
        self.sim.process(self._run(), name="heavy-client")

    def stop(self) -> None:
        self._running = False

    def _run(self):
        gap = 1.0 / self.rate
        while self._running:
            self.client.send_request(exec_cost=self.exec_cost)
            yield self.sim.timeout(gap)


def install_prime_attack(
    deployment: Deployment,
    heavy_rate: float = 3000.0,
    heavy_exec_cost: float = 1e-3,
    margin: float = 0.85,
) -> HeavyClient:
    """§III-A: heavy requests inflate the monitored execution time; the
    malicious primary stretches its ordering period to just below the
    (inflated) acceptable delay."""
    primary = deployment.nodes[0]  # primary of view 0
    primary.ordering_period_fn = lambda: max(
        primary.config.ordering_period, margin * primary.acceptable_order_delay()
    )
    heavy = HeavyClient(deployment, heavy_rate, heavy_exec_cost)
    heavy.start()
    return heavy


# ------------------------------------------------------------------ Aardvark
def install_aardvark_attack(
    deployment: Deployment,
    margin: float = 1.02,
    activate_after: float = 0.35,
):
    """§III-B: whenever the faulty replica is primary, it orders at just
    above the *required* throughput — which tracks observed history, so
    low-load phases buy it a licence to throttle the spikes.

    The attack activates after ``activate_after`` seconds: the replicas'
    expectations must first form from normal operation (the paper's
    clusters were warm; a cold start has no expectations at all, which
    would let the attacker stall almost completely — an artifact, not
    the scenario the paper measures).
    """
    faulty = deployment.nodes[0]
    sim = deployment.sim
    heartbeat_floor = (
        faulty.config.instance.batch_size / (0.5 * faulty.aconfig.heartbeat_timeout)
    )

    def target_rate() -> float:
        return max(margin * faulty.required_throughput(), heartbeat_floor)

    pacer = BatchPacer(sim, target_rate)

    def delay(msg) -> float:
        if sim.now < activate_after:
            return 0.0
        return pacer.delay_for(len(msg.items))

    faulty.engine.preprepare_delay_fn = delay
    return pacer


# ------------------------------------------------------------------ Spinning
def install_spinning_attack(deployment: Deployment, delay: Optional[float] = None):
    """§III-C: the malicious primary delays its one batch per turn by a
    little less than S_timeout (the paper uses 40 ms)."""
    faulty = deployment.nodes[0]
    if delay is None:
        delay = 0.9 * faulty.sconfig.s_timeout
    faulty.engine.preprepare_delay_fn = lambda msg: delay
    return delay


# ------------------------------------------------------------- RBFT attacks
@dataclass
class RbftAttackHandle:
    """What an RBFT attack installed (for inspection by experiments)."""

    faulty_nodes: List
    flooders: List[Flooder] = field(default_factory=list)
    pacer: Optional[BatchPacer] = None
    client_send_kwargs: Dict = field(default_factory=dict)
    junk_clients: List = field(default_factory=list)


def install_rbft_worst_attack_1(
    deployment: Deployment,
    flood_rate: float = 500.0,
) -> RbftAttackHandle:
    """§VI-C-1 — the master primary is correct; f nodes and all clients
    collude to slow the master instance without triggering an instance
    change:

    (i)   clients' MAC authenticators are invalid for the master
          primary's node (``client_send_kwargs``, applied by the load
          generator);
    (ii)  the f faulty nodes flood that node with invalid PROPAGATEs of
          maximal size;
    (iii) the faulty replicas of the master instance flood the correct
          replicas with invalid messages of maximal size;
    (iv)  the faulty replicas do not take part in the protocol.

    The default flood rate stays below the victims' NIC-closing threshold:
    once a NIC closes, the flood is free for the victim *and* the faulty
    node's remaining useful traffic (its PROPAGATEs) disappears, which in
    this substrate relieves the correct nodes — a rational worst-case
    adversary keeps its links open.
    """
    f = deployment.cluster.f
    n = deployment.cluster.n
    master_primary_node = "node0"  # master instance, view 0
    # The f+1 primaries live on nodes 0..f; take faulty nodes from the rest.
    faulty = [deployment.nodes[n - 1 - i] for i in range(f)]
    flooders = []
    for node in faulty:
        # (iv) concerns "the faulty replicas of the master protocol
        # instance": only the master-instance replica goes silent; the
        # node keeps propagating (a mute propagator would *relieve* the
        # correct nodes, helping the system).
        node.engines[deployment.nodes[0].config.master].silent = True
        correct_names = [
            other.name for other in deployment.nodes if other not in faulty
        ]
        # (ii) flood the master primary's node; (iii) flood the correct
        # replicas of the master instance (same NICs, maximal-size junk).
        flooder = Flooder(node.machine, correct_names, MAX_FLOOD_SIZE, flood_rate)
        flooder.start()
        flooders.append(flooder)
    return RbftAttackHandle(
        faulty_nodes=faulty,
        flooders=flooders,
        client_send_kwargs={"mac_invalid_for": [master_primary_node]},  # (i)
    )


class _JunkClientStream:
    """Worst-attack-2 (i): invalid requests aimed at the correct nodes.

    The requests carry MACs the correct nodes cannot verify, so each one
    costs a verification-core MAC check and is then dropped — sustainable
    harassment that never triggers the signature blacklist.
    """

    def __init__(self, deployment: Deployment, targets: List[str], rate: float):
        self.client = OpenLoopClient(
            deployment.cluster, "junk-client", payload_size=8
        )
        self.sim = deployment.sim
        self.targets = targets
        self.rate = rate
        self._running = False

    def start(self) -> None:
        self._running = True
        self.sim.process(self._run(), name="junk-client")

    def stop(self) -> None:
        self._running = False

    def _run(self):
        gap = 1.0 / self.rate
        while self._running:
            self.client.send_request(
                mac_invalid_for=self.targets, targets=self.targets
            )
            yield self.sim.timeout(gap)


def install_rbft_worst_attack_2(
    deployment: Deployment,
    margin: float = 0.015,
    flood_rate: float = 500.0,
    junk_rate: float = 2000.0,
    propagate_silent: bool = False,
) -> RbftAttackHandle:
    """§VI-C-2 — the master primary is faulty and delays requests down to
    the limit ratio Δ while its accomplices degrade the backups:

    (i)   faulty clients send invalid requests to the correct nodes;
    (ii)  the f faulty nodes flood the correct nodes and do not take part
          in the PROPAGATE phase;
    (iii) the backup replicas on the faulty nodes flood and stay silent.

    The default flood rate stays below the victims' NIC-closing threshold:
    a faulty node that hosts the (delaying) master primary must keep its
    NICs open or the closure would cut its own ordering messages off and
    hand the system a trivially detected failure.

    Deviation from the paper's recipe: (ii) says the faulty nodes do not
    participate in PROPAGATE, but in this substrate a missing propagator
    *relieves* the correct nodes (they verify fewer duplicates), so the
    damage-maximising adversary keeps propagating.  Set
    ``propagate_silent=True`` to run the paper's literal recipe.
    """
    f = deployment.cluster.f
    n = deployment.cluster.n
    # node0 hosts the master primary (view 0); the remaining faulty nodes
    # are taken from the non-primary hosts (primaries live on nodes 0..f).
    faulty = [deployment.nodes[0]] + [
        deployment.nodes[n - 1 - i] for i in range(f - 1)
    ]
    leader = faulty[0]
    faulty_names = {node.name for node in faulty}
    correct_names = [
        node.name for node in deployment.nodes if node.name not in faulty_names
    ]
    flooders = []
    for node in faulty:
        node.propagate_silent = propagate_silent  # (ii), see docstring
        for engine in node.engines[1:]:
            engine.silent = True  # (iii) backup replicas opt out
        flooder = Flooder(node.machine, correct_names, MAX_FLOOD_SIZE, flood_rate)
        flooder.start()
        flooders.append(flooder)

    delta = leader.config.delta

    def target_rate() -> float:
        rates = leader.monitor.last_rates
        backups = rates[1:]
        backup_mean = sum(backups) / len(backups) if backups else 0.0
        if backup_mean <= 0:
            return 0.0  # no data yet: order at full speed
        return (delta + margin) * backup_mean

    pacer = BatchPacer(deployment.sim, target_rate)
    leader.engines[0].preprepare_delay_fn = lambda msg: pacer.delay_for(
        len(msg.items)
    )
    junk = _JunkClientStream(deployment, correct_names, junk_rate)  # (i)
    junk.start()
    return RbftAttackHandle(
        faulty_nodes=faulty,
        flooders=flooders,
        pacer=pacer,
        junk_clients=[junk],
    )


def install_unfair_primary(
    deployment: Deployment,
    victim: str,
    delay_schedule: Callable[[int], float],
):
    """§VI-C-3 — the master primary delays one client's requests.

    ``delay_schedule(i)`` returns the extra delay for the victim's i-th
    request (0-based) before the primary lets it into a batch.
    """
    counter = {"n": 0}

    def victim_delay(item) -> float:
        if item.client != victim:
            return 0.0
        counter["n"] += 1
        return delay_schedule(counter["n"] - 1)

    deployment.nodes[0].engines[0].submit_delay_fn = victim_delay
    return counter
