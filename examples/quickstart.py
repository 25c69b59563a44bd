#!/usr/bin/env python3
"""Quickstart: stand up an RBFT cluster and replicate some requests.

This is the smallest end-to-end use of the library's public API:

1. build a simulated 3f+1-node RBFT deployment (f=1: four machines,
   each running the Verification / Propagation / Dispatch & Monitoring /
   Execution pipeline plus f+1 protocol-instance replicas);
2. attach open-loop clients;
3. send requests and wait for f+1 matching replies;
4. inspect what the nodes and the monitoring module saw.

Run with:  python examples/quickstart.py
"""

from repro.core import RBFTConfig
from repro.experiments import deploy


def main() -> None:
    config = RBFTConfig(f=1, batch_size=16, batch_delay=1e-3)
    deployment = deploy("rbft", config, n_clients=3, payload=64)
    sim = deployment.sim

    # Open-loop clients: send on a schedule, never wait for replies.
    for i in range(60):
        client = deployment.clients[i % len(deployment.clients)]
        sim.call_after(i * 1e-3, client.send_request)

    sim.run(until=0.5)

    print("RBFT quickstart (f=%d, %d nodes, %d protocol instances per node)"
          % (config.f, config.n, config.instances))
    print()
    for client in deployment.clients:
        print("  %-8s sent=%2d completed=%2d mean latency=%.2f ms"
              % (client.name, client.sent, client.completed,
                 client.latencies.mean() * 1e3))
    print()
    for node in deployment.nodes:
        primary = ["instance %d" % k for k, engine in enumerate(node.engines)
                   if engine.is_primary]
        print("  %-6s executed=%2d ordered per instance=%s %s"
              % (node.name, node.executed_count,
                 [engine.ordered_items for engine in node.engines],
                 ("(primary of %s)" % ", ".join(primary)) if primary else ""))
    print()
    total = sum(client.completed for client in deployment.clients)
    print("  %d/%d requests completed with f+1 matching replies" % (total, 60))
    assert total == 60


if __name__ == "__main__":
    main()
