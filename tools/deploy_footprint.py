#!/usr/bin/env python
"""What standing up an RBFT deployment costs the host, versus n.

A simulated deployment holds n·(f + 1) ordering instances before the
first event, so ``make_deployment("rbft", f)`` is the memory floor of
every point on the versus-n ladder (ROADMAP item 1).  For each ``f`` a
fresh interpreter imports ``repro.experiments``, builds the deployment
the ladder workloads use (SMOKE scale, 4 clients) and reports seconds
and resident memory: ``ru_maxrss`` belongs to one process, so one
process per size.  A second fresh process per size builds it again
under ``tracemalloc`` for ``traced_mb``, the MiB the deployment holds:
exact from run to run, and kept out of the first process so the tracer
neither slows ``deploy_s`` nor inflates ``deploy_mb``.  Ungated — CI's
``ledger-selftest`` job prints and uploads the table per push.

Usage: ``python tools/deploy_footprint.py [F ...]`` (default 33 49 99);
prints one JSON record per size, then the host fingerprint.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
import sys
import time
import tracemalloc

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(f: int) -> dict:
    """Run in a fresh process: ``ru_maxrss`` only ever grows."""
    sys.path.insert(0, SRC)
    from repro.experiments import SMOKE, make_deployment

    imported = _rss_mb()
    start = time.perf_counter()
    deployment = make_deployment("rbft", f=f, scale=SMOKE, n_clients=4)
    seconds = time.perf_counter() - start
    deployed = _rss_mb()
    return {
        "f": f,
        "n": len(deployment.nodes),
        "engines": sum(len(node.engines) for node in deployment.nodes),
        "deploy_s": round(seconds, 3),
        "rss_imported_mb": round(imported, 2),
        "rss_deployed_mb": round(deployed, 2),
        "deploy_mb": round(deployed - imported, 2),
    }


def traced(f: int) -> float:
    """MiB ``tracemalloc`` holds for the deployment, in a fresh process."""
    sys.path.insert(0, SRC)
    from repro.experiments import SMOKE, make_deployment

    tracemalloc.start()
    deployment = make_deployment("rbft", f=f, scale=SMOKE, n_clients=4)
    size = tracemalloc.get_traced_memory()[0]
    del deployment  # alive until measured
    return round(size / 2**20, 2)


def _child(mode: str, f: int):
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), mode, str(f)],
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def main(argv) -> int:
    if argv[:1] == ["--one"]:
        print(json.dumps(measure(int(argv[1]))))
        return 0
    if argv[:1] == ["--traced"]:
        print(json.dumps(traced(int(argv[1]))))
        return 0
    for f in [int(arg) for arg in argv] or [33, 49, 99]:
        record = _child("--one", f)
        record["traced_mb"] = _child("--traced", f)
        print(json.dumps(record), flush=True)
    print(json.dumps({
        "host": platform.platform(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
