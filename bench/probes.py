"""Layer probes: one fixed-seed loop per layer, public API only.

Each probe isolates what one layer costs on the host, so a per-layer
claim ("the kernel got faster", "the vector tracker is cheaper") has a
number that no other layer moves.  A probe repeats its batch until it
has measured at least ``MIN_SECONDS`` of work and reports ops, seconds
and ops/s; inputs are a pure function of the fixed seeds below.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict

from repro.clients import Workload
from repro.common import QuorumTracker, SenderUniverse, VectorQuorumTracker
from repro.crypto import CryptoCostModel
from repro.experiments import SMOKE, Scenario, run
from repro.metrics import LatencyRecorder
from repro.net import GIGABIT_BPS, NIC, Message, Network
from repro.sim import Core, Simulator

__all__ = ["PROBES", "run_probes"]

MIN_SECONDS = 0.5
SEED = 1234


def _measure(batch: Callable[[], int]) -> Dict[str, float]:
    """Repeat ``batch`` (returns its op count) for >= MIN_SECONDS."""
    ops = 0
    start = time.perf_counter()
    while True:
        ops += batch()
        seconds = time.perf_counter() - start
        if seconds >= MIN_SECONDS:
            return {"ops": ops, "seconds": seconds, "ops_per_s": ops / seconds}


def _noop(*_args) -> None:
    pass


def storm() -> int:
    """The ``bench kernel`` event storm: timeouts, events, core jobs, churn."""
    sim = Simulator()
    rng = random.Random(SEED)
    cores = [Core(sim, "probe/cpu%d" % i) for i in range(4)]

    def worker(index):
        core = cores[index % len(cores)]
        while True:
            yield sim.timeout(rng.random() * 1e-4 + 2e-5)
            done = sim.event()
            core.submit(2e-6, done.succeed, None)
            yield done

    def churn():
        pending = []
        while True:
            yield sim.timeout(1.5e-4)
            for handle in pending[::2]:
                handle.cancel()
            pending = [
                sim.call_after(rng.random() * 1e-3, _noop) for _ in range(8)
            ]

    for index in range(24):
        sim.process(worker(index))
    sim.process(churn())
    sim.run(until=0.35)
    return sim.dispatched


def broadcast() -> int:
    """``Network.broadcast`` to 99 peers, deliveries drained by the kernel."""
    sim = Simulator()
    network = Network(sim, random.Random(SEED))
    channels = [
        network.connect(
            "node0", "node%d" % peer,
            NIC(sim, "node0->%d" % peer, GIGABIT_BPS),
            NIC(sim, "node%d<-0" % peer, GIGABIT_BPS),
            _noop,
        )
        for peer in range(1, 100)
    ]
    msg = Message("node0")
    rounds = 200
    for _ in range(rounds):
        Network.broadcast(channels, msg)
        sim.run(until=sim.now + 1e-3)
    return rounds * len(channels)


def crypto_costs() -> int:
    """The cost-model lookups an RBFT node makes per request."""
    model = CryptoCostModel()
    total = 0.0
    rounds = 20_000
    for size in range(rounds):
        nbytes = 184 + size % 4096
        total += model.authenticator_verify(nbytes)
        total += model.sig_verify(nbytes)
        total += model.authenticator_gen(nbytes, 4)
        total += model.mac_gen(nbytes)
        total += model.digest(nbytes)
    if total <= 0:  # consume the sums so the loop cannot be elided
        raise RuntimeError("cost model returned no cost")
    return 5 * rounds


def _quorum_adds(tracker, senders) -> int:
    keys = 4000 // len(senders) * 10
    for key in range(keys):
        for sender in senders:
            tracker.add((0, key, "digest"), sender)
    return keys * len(senders)


def quorum_n4() -> int:
    """Bitmask ``QuorumTracker``: 2f+1 = 3 of 4 senders per key."""
    return _quorum_adds(QuorumTracker(3), ["node%d" % i for i in range(4)])


def vquorum_n100() -> int:
    """``VectorQuorumTracker``: 2f+1 = 67 of 100 senders per key."""
    return _quorum_adds(
        VectorQuorumTracker(67, SenderUniverse()),
        ["node%d" % i for i in range(100)],
    )


def latency_records() -> int:
    """``LatencyRecorder.record`` plus one percentile per 10 000 records."""
    recorder = LatencyRecorder()
    rng = random.Random(SEED)
    rounds = 50_000
    for index in range(rounds):
        recorder.record(rng.random() * 1e-3)
        if index % 10_000 == 9_999:
            recorder.percentile(0.99)
    return rounds


def _protocol(name: str) -> Callable[[], int]:
    """One short fixed-rate n = 4 run of a baseline (non-RBFT) protocol."""
    scenario = Scenario(
        name, workload=Workload("static", rate=6000.0, population=False),
        seed=SEED, scale=SMOKE,
    )
    return lambda: run(scenario).events


#: ledger metric -> batch function.
PROBES: Dict[str, Callable[[], int]] = {
    "sim.storm_events_per_s": storm,
    "net.broadcast_msgs_per_s": broadcast,
    "crypto.cost_calls_per_s": crypto_costs,
    "common.quorum_adds_per_s_n4": quorum_n4,
    "common.vquorum_adds_per_s_n100": vquorum_n100,
    "metrics.records_per_s": latency_records,
    "protocols.pbft.events_per_s": _protocol("pbft"),
    "protocols.prime.events_per_s": _protocol("prime"),
    "protocols.aardvark.events_per_s": _protocol("aardvark"),
    "protocols.spinning.events_per_s": _protocol("spinning"),
}


def run_probes() -> Dict[str, Dict[str, float]]:
    return {name: _measure(batch) for name, batch in PROBES.items()}
