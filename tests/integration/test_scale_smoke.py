"""Large-n smoke tests: hundreds of replicas, fault-free, bounded state.

The topology/scale refactor exists so n = 100–300 replicas is practical;
these tests pin that claim across the protocol matrix at n ∈ {16, 64,
148}, with the paper's n = 4 testbed as the ladder's first rung.  Four
assertions per cell, all of which catch a distinct way a scale-out
regression would show up:

* **completion floor** — clients finish at least 40 % of the offered
  requests inside the short window (liveness at scale; a
  quorum-threshold bug at large f shows up here first — Prime's
  pre-ordering phase leaves the least headroom, ~48 % at n = 148);
* **bounded protocol logs** — the peak per-instance log size stays
  inside the checkpoint collector's analytical envelope
  (``watermark_window + checkpoint_interval``), so per-sequence state
  does not balloon with n;
* **no instance-change storms** — a fault-free run must never trigger
  the monitoring protocol, however large the cluster;
* **seeded identity** — the run's event and completion counts are pure
  functions of the seed, so they equal the recorded ``_PINS`` exactly:
  the byte-identity contract for the four baseline protocols and the
  large-n pacing tiers (the perf ledger's exact rows are all RBFT).  A
  change that means to alter seeded behaviour re-records the table and
  says so.

RBFT runs f+1 ordering instances per node — its certificate traffic is
a factor of n beyond the single-instance protocols.  Above the pacing
threshold its backup instances coalesce that traffic into per-sender
envelopes (``RBFTConfig.batching_active``), which is what lets the rbft
column climb the same n = 148 rung as its peers here.
"""

import pytest

from repro.experiments import SMOKE, Scenario, Workload, run
from repro.protocols.pbft.engine import InstanceConfig
from repro.trace import Tracer
from repro.trace.events import K_LOG_SIZE
from repro.trace.gauge import LogSizeWatch, collect_final

PROTOCOLS = ("rbft", "aardvark", "spinning", "prime", "pbft")

#: per-instance protocol-log envelope: watermark_window live sequences
#: plus one checkpoint_interval of ordered-but-uncollected ones
#: (docs/simulator.md, "Memory model & garbage collection").
_DEFAULTS = InstanceConfig()
LOG_BOUND = _DEFAULTS.watermark_window + _DEFAULTS.checkpoint_interval

#: (f, offered rps, measured duration, warmup) per cluster size.
_LOADS = {
    4: (1, 2000.0, 0.30, 0.05),
    16: (5, 1000.0, 0.20, 0.05),
    64: (21, 500.0, 0.06, 0.02),
    148: (49, 400.0, 0.08, 0.02),
}

#: n -> protocol -> (events, completed) at seed 5.
_PINS = {
    4: {
        "rbft": (56062, 628), "aardvark": (24522, 628),
        "spinning": (22658, 628), "prime": (22430, 604),
        "pbft": (24498, 628),
    },
    16: {
        "rbft": (147946, 207), "aardvark": (115638, 212),
        "spinning": (116007, 212), "prime": (138316, 204),
        "pbft": (115574, 212),
    },
    64: {
        "rbft": (338596, 28), "aardvark": (350773, 29),
        "spinning": (316659, 29), "prime": (314685, 23),
        "pbft": (350709, 29),
    },
    148: {
        "rbft": (1997595, 29), "aardvark": (2205852, 30),
        "spinning": (1765843, 30), "prime": (1420871, 15),
        "pbft": (2205704, 30),
    },
}


def _cases():
    for n, (f, rate, duration, warmup) in sorted(_LOADS.items()):
        for protocol in PROTOCOLS:
            marks = [pytest.mark.slow] if n > 16 else []
            yield pytest.param(
                protocol, f, rate, duration, warmup,
                id="%s-n%d" % (protocol, n), marks=marks,
            )


@pytest.mark.parametrize("protocol,f,rate,duration,warmup", _cases())
def test_fault_free_at_scale(protocol, f, rate, duration, warmup):
    watch = LogSizeWatch()
    nodes = []

    def watch_logs(deployment, faulty_names):
        # Source-filtered to the gauge kind: emissions never schedule
        # simulator events, so the seeded counts are unchanged.
        deployment.sim.tracer = Tracer(sink=watch, kinds={K_LOG_SIZE})
        nodes.extend(deployment.nodes)

    result = run(Scenario(
        protocol=protocol,
        f=f,
        workload=Workload("static", rate=rate, clients=4, population=False),
        seed=5,
        scale=SMOKE,
        duration=duration,
        warmup=warmup,
    ), attach=watch_logs)
    collect_final(watch, nodes)
    offered = rate * duration
    assert result.completed >= 0.4 * offered, (
        "only %d of ~%.0f requests completed at n=%d"
        % (result.completed, offered, 3 * f + 1)
    )
    assert watch.peak("total") <= LOG_BOUND, (
        "peak log %d above the %d-entry envelope at n=%d"
        % (watch.peak("total"), LOG_BOUND, 3 * f + 1)
    )
    assert result.instance_changes == 0, (
        "fault-free run triggered %d instance changes at n=%d"
        % (result.instance_changes, 3 * f + 1)
    )
    assert (result.events, result.completed) == _PINS[3 * f + 1][protocol]
