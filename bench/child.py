"""One measurement in a fresh process; prints one JSON record.

``run.py`` spawns this once per sample so that every wall time starts
from a cold interpreter heap and ``ru_maxrss`` belongs to exactly one
run.  Modes:

* ``setup``   — time ``import repro.experiments`` and ``make_deployment``;
* ``timed``   — time ``repro.experiments.run(scenario)``, tracing off
  (``--no-attack`` runs the fault-free twin instead); a paced workload
  is timed through the untraced drive, which ``run()`` cannot express;
* ``sim``     — the decomposed drive, tracing off: the numbers ``run()``
  does not return (median/tail latency, sent), plus the reference wall
  time for the tracing overheads;
* ``trace``   — the decomposed drive under the aggregating sink chained
  into ``InvariantSuite``;
* ``profile`` — the decomposed drive under cProfile, folded by package;
* ``probes``  — the layer probes.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))


def _timed(scenario, spans, paced) -> dict:
    if paced:
        return _sim(scenario, spans, paced)  # run() cannot pace arrivals
    from repro.experiments import run

    start = time.perf_counter()
    with spans.span("experiments.run"):
        result = run(scenario)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "events": result.events,
        "completed": result.completed,
        "executed_rate": result.executed_rate,
        "p99_latency": result.p99_latency,
        "mean_latency": result.mean_latency,
    }


def _sim(scenario, spans, paced) -> dict:
    from drive import drive

    start = time.perf_counter()
    record = drive(scenario, spans, paced=paced)
    record["wall_s"] = time.perf_counter() - start
    return record


def _trace(scenario, spans, paced) -> dict:
    from repro.trace import Tracer
    from repro.verify import InvariantSuite

    from drive import drive
    from sink import AggregatingSink

    state = {}

    def attach(deployment, faulty_names):
        # The window ends mid-flow (no drain), so replicas legitimately
        # differ by the requests still in flight: expect_complete=False
        # keeps every safety check and skips only the executed-set
        # equality that needs a drained system.
        suite = InvariantSuite(expect_complete=False).attach(
            deployment, faulty=faulty_names
        )
        subscribed = deployment.sim.tracer.kinds
        sink = AggregatingSink(forward=suite, forward_kinds=subscribed)
        deployment.sim.tracer = Tracer(sink=sink)
        state.update(suite=suite, sink=sink)

    start = time.perf_counter()
    record = drive(scenario, spans, attach=attach, paced=paced)
    record["wall_s"] = time.perf_counter() - start
    suite, sink = state["suite"], state["sink"]
    violations = suite.finalize(
        {"sent": record["sent"], "completed": record["completed"]}
    )
    record["violations"] = [v.to_dict() for v in violations]
    record["digest"] = suite.digest()
    record["trace"] = sink.summary(record["duration"], record["completed"])
    return record


def _profile(scenario, spans, paced) -> dict:
    import cProfile
    import pstats

    import repro

    from drive import drive
    from fold import fold

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    record = drive(scenario, spans, paced=paced)
    profiler.disable()
    wall = time.perf_counter() - start
    layers = fold(
        pstats.Stats(profiler).stats, os.path.dirname(repro.__file__)
    )
    return {"wall_s": wall, "events": record["events"], "layers": layers}


MODES = {"timed": _timed, "sim": _sim, "trace": _trace, "profile": _profile}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=sorted(MODES) + ["setup", "probes"])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--no-attack", action="store_true")
    args = parser.parse_args(argv)

    if args.mode == "probes":
        from probes import run_probes

        print(json.dumps({"mode": "probes", "probes": run_probes()}))
        return 0

    from spans import Spans

    spans = Spans("%s/%d/%s" % (args.workload, args.seed, args.mode))
    with spans.span("experiments.import") as imported:
        import repro.experiments  # noqa: F401  (the timed import)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    scenario = workload.scenario(args.seed, smoke=args.smoke)
    if args.no_attack:
        scenario = scenario.with_(attack=None)
    if args.mode == "setup":
        from drive import deploy

        with spans.span("experiments.make_deployment") as deployed:
            deploy(scenario)
        record = {
            "import_s": imported["end"] - imported["start"],
            "deploy_s": deployed["end"] - deployed["start"],
        }
        record["setup_s"] = record["import_s"] + record["deploy_s"]
    else:
        record = MODES[args.mode](scenario, spans, workload.paced)
    record["mode"] = args.mode
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["spans"] = spans.records
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
