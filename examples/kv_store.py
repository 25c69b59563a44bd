#!/usr/bin/env python3
"""A replicated key-value store on top of RBFT.

The intro of the paper motivates BFT replication for coordination
services such as ZooKeeper; this example replicates a small key-value
store across the four nodes of an f=1 RBFT deployment and shows that
every node applies the same operations in the same order, even with a
Byzantine (silent) replica in the cluster.

Run with:  python examples/kv_store.py
"""

from repro.common import KeyValueService
from repro.core import RBFTConfig
from repro.experiments import deploy


def main() -> None:
    config = RBFTConfig(f=1, batch_size=4, batch_delay=5e-4)
    deployment = deploy(
        "rbft", config, n_clients=2, payload=128, service_factory=KeyValueService
    )
    sim = deployment.sim
    alice, bob = deployment.clients

    # One faulty node: its master-instance replica stops participating.
    deployment.nodes[3].engines[0].silent = True

    operations = [
        (alice, ("put", "color", "blue")),
        (bob, ("put", "animal", "tortoise")),
        (alice, ("put", "color", "green")),  # overwrite
        (bob, ("get", "color")),
        (alice, ("delete", "animal")),
        (bob, ("get", "animal")),
    ]

    def submit(client, op):
        request = client.send_request()
        # Register the concrete operation with every node's service.
        for node in deployment.nodes:
            node.service.register_op(request.request_id, op)

    for i, (client, op) in enumerate(operations):
        sim.call_after(i * 5e-3, submit, client, op)

    sim.run(until=0.5)

    print("Replicated key-value store over RBFT (one silent faulty replica)")
    print()
    for node in deployment.nodes:
        print("  %-6s store=%r executed=%d"
              % (node.name, node.service.store, node.executed_count))
    stores = [node.service.store for node in deployment.nodes]
    assert all(store == stores[0] for store in stores), "replica divergence!"
    assert stores[0] == {"color": "green"}
    print()
    print("  all replicas converged to %r" % stores[0])
    completed = alice.completed + bob.completed
    print("  %d/%d operations acknowledged with f+1 matching replies"
          % (completed, len(operations)))


if __name__ == "__main__":
    main()
