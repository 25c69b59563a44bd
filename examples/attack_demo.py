#!/usr/bin/env python3
"""Worst-attack-2 against RBFT, narrated.

The most interesting adversary in the paper: the master instance's
primary is Byzantine and colludes with faulty clients.  It delays
requests exactly down to the limit ratio Δ while the accomplices harass
the correct nodes, so the monitoring module sees a master instance that
is slow — but not *suspiciously* slow.

The demo runs the same static load twice (fault-free, then attacked) and
prints what every node's monitoring module measured, mirroring Figs 10
and 11 of the paper.

Run with:  python examples/attack_demo.py
"""

from repro.clients import LoadGenerator, static_profile
from repro.core import RBFTConfig
from repro.experiments import deploy
from repro.faults import install_rbft_worst_attack_2

RATE = 20_000.0
DURATION = 1.0


def run(attacked: bool) -> dict:
    config = RBFTConfig(f=1, monitoring_period=0.2)
    deployment = deploy("rbft", config, n_clients=10, payload=8)
    if attacked:
        install_rbft_worst_attack_2(deployment)
    generator = LoadGenerator(
        deployment.sim,
        deployment.clients,
        static_profile(RATE, DURATION),
        deployment.rng.stream("load"),
    )
    generator.start()
    deployment.sim.run(until=DURATION)
    observer = deployment.nodes[1]  # a correct node in both runs
    return {
        "executed": observer.executed_count,
        "rates": {
            node.name: list(node.monitor.last_rates)
            for node in deployment.nodes[1:]
        },
        "instance_changes": observer.instance_changes,
    }


def main() -> None:
    fault_free = run(attacked=False)
    attacked = run(attacked=True)

    print("Worst-attack-2 against RBFT (f=1, static load, 8 B requests)")
    print()
    print("  fault-free: %6d requests executed" % fault_free["executed"])
    print("  attacked:   %6d requests executed" % attacked["executed"])
    ratio = attacked["executed"] / fault_free["executed"]
    print("  relative throughput: %.1f %%  (paper: at least 97 %%)" % (100 * ratio))
    print()
    print("  monitoring view of the correct nodes under attack (kreq/s):")
    for name, rates in sorted(attacked["rates"].items()):
        print(
            "    %s: master=%.2f  backup=%.2f  ratio=%.3f"
            % (name, rates[0] / 1e3, rates[1] / 1e3,
               rates[0] / rates[1] if rates[1] else float("nan"))
        )
    print()
    if attacked["instance_changes"] == 0:
        print("  no instance change was triggered: the attacker hugged the")
        print("  Δ = 0.97 ratio (single-window dips are tolerated) — and that")
        print("  is precisely why its damage is bounded to a few percent.")
    else:
        print("  the attacker slipped below Δ and was evicted by a protocol")
        print("  instance change after %d round(s)." % attacked["instance_changes"])
    assert ratio > 0.9


if __name__ == "__main__":
    main()
