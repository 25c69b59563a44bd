#!/usr/bin/env python3
"""Best-backup promotion (§IV-A future work), demonstrated.

The paper: "An alternative could be to change the master instance to the
instance which provides the highest throughput."  This library implements
that alternative behind ``RBFTConfig(promote_best_backup=True)``.

The demo throttles the master instance's primary and shows the two
recovery styles side by side:

* classic RBFT: the instance change rotates every primary and the master
  *instance* stays instance 0;
* promotion: the nodes agree to crown the faster backup instance as the
  new master and replay its backlog.

Run with:  python examples/promotion_demo.py
"""

from repro.clients import LoadGenerator, static_profile
from repro.core import RBFTConfig
from repro.experiments import deploy
from repro.faults import BatchPacer

RATE = 3000.0
DURATION = 1.5


def run(promote: bool) -> dict:
    config = RBFTConfig(
        f=1,
        batch_size=8,
        monitoring_period=0.1,
        delta=0.9,
        min_monitor_requests=10,
        promote_best_backup=promote,
    )
    deployment = deploy("rbft", config, n_clients=4)
    # The master primary (node0) paces itself to a crawl.
    pacer = BatchPacer(deployment.sim, lambda: 300.0)
    deployment.nodes[0].engines[0].preprepare_delay_fn = (
        lambda msg: pacer.delay_for(len(msg.items))
    )
    generator = LoadGenerator(
        deployment.sim,
        deployment.clients,
        static_profile(RATE, DURATION),
        deployment.rng.stream("load"),
    )
    generator.start()
    deployment.sim.run(until=DURATION)
    observer = deployment.nodes[1]
    return {
        "completed": generator.total_completed(),
        "sent": generator.total_sent(),
        "instance_changes": observer.instance_changes,
        "master_instance": observer.master_instance,
        "master_primary": observer.master_engine.primary_name(),
    }


def main() -> None:
    classic = run(promote=False)
    promoted = run(promote=True)

    print("A throttled master primary, two recovery styles")
    print()
    for label, result in (("classic rotation", classic), ("promotion", promoted)):
        print(
            "  %-18s instance changes=%d, master instance=%d, "
            "master primary=%s, completed %d/%d"
            % (
                label,
                result["instance_changes"],
                result["master_instance"],
                result["master_primary"],
                result["completed"],
                result["sent"],
            )
        )
    print()
    print("Both styles evict the slow primary; promotion additionally moves")
    print("the master role onto the instance that was already proven fast.")
    assert classic["master_instance"] == 0
    assert promoted["master_instance"] == 1


if __name__ == "__main__":
    main()
