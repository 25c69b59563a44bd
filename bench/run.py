"""The perf ledger: one command, four workloads, every metric by name.

Two ways in, one implementation:

``python3 bench/run.py [--seed 7] [--out bench/out] [--smoke]``
    the full ledger — every workload's end-to-end metrics from timed
    children, then its per-layer metrics from a traced pass, a cProfile
    pass and the layer probes; prints each metric with its unit, writes
    ``<out>/results.json`` and ``<out>/<workload>.spans.jsonl``, and
    exits non-zero if the correctness gate found a problem.

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    one workload, one half of the ledger (``--trace 0``: end-to-end,
    ``--trace 1``: per-layer), timed children repeated for ``S`` seconds;
    the last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}``.

Names, units, directions and bounds live in ``BENCHMARK.json`` only.
*Host* metrics say what the simulator costs to run; ``sim_*`` metrics
say what the modelled system did and are pure functions of the seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "child.py")
SCHEMA = "rbft-ledger/1"

#: a child that runs longer than this is hung, not slow (the slowest,
#: the worst1 traced pass, takes ~25 s on the reference host).
CHILD_TIMEOUT_S = 170
#: set-up children per run: each costs ~0.4 s (0.5 s at n = 100), and
#: set-up time is short enough that only a median of several is steady.
SETUP_CHILDREN = 5
MIN_TIMED_CHILDREN = 2


def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def host_fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 0,
    }


def spawn(mode: str, workload: Optional[str] = None, seed: int = 7,
          smoke: bool = False, no_attack: bool = False) -> dict:
    """Run one child to completion; return the record it printed."""
    cmd = [sys.executable, CHILD, mode, "--seed", str(seed)]
    if workload is not None:
        cmd += ["--workload", workload]
    if smoke:
        cmd.append("--smoke")
    if no_attack:
        cmd.append("--no-attack")
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError("child %s exited %d" % (" ".join(cmd[2:]), proc.returncode))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(samples: List[float]) -> dict:
    """Median, quartiles and count of a host metric's samples."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": statistics.median(samples), "q1": q1, "q3": q3,
        "n": len(samples), "samples": samples,
    }


# ------------------------------------------------------------------ the gate
#: what every execution of one scenario must agree on, bit for bit.
IDENTITY_FIELDS = ("events", "completed", "executed_rate", "p99_latency")


def gate(records: List[dict], violations: List[dict] = ()) -> List[str]:
    """Problems with one workload's records; empty when correct.

    ``records`` are all executions of the same scenario (timed ``run()``
    children, the untraced drive, the traced drive): the simulation is a
    pure function of the scenario, so any disagreement on an identity
    field means behaviour drifted between paths or runs.
    """
    problems = []
    reference = records[0]
    for record in records[1:]:
        for field in IDENTITY_FIELDS:
            if field in record and record[field] != reference[field]:
                problems.append(
                    "%s child disagrees with %s child on %s: %r != %r"
                    % (record["mode"], reference["mode"], field,
                       record[field], reference[field])
                )
    if reference["completed"] <= 0:
        problems.append("no request completed")
    for violation in violations:
        problems.append(
            "invariant %s violated: %s"
            % (violation["invariant"], violation["message"])
        )
    return problems


# ---------------------------------------------------------------- end to end
def measure_setup(name: str, seed: int, smoke: bool) -> List[dict]:
    return [spawn("setup", name, seed, smoke) for _ in range(SETUP_CHILDREN)]


def measure_end_to_end(workload, seed: int, smoke: bool,
                       children: Optional[int] = None,
                       seconds: Optional[float] = None) -> dict:
    """Set-up children (which also warm the page and bytecode caches),
    then timed children — ``children`` of them, or as many as fit in
    ``seconds`` (at least two) — then the untraced drive."""
    name = workload.name
    setups = measure_setup(name, seed, smoke)
    timed: List[dict] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        timed.append(spawn("timed", name, seed, smoke))
        now = time.perf_counter()
        if children is not None:
            if len(timed) >= children:
                break
        elif (len(timed) >= MIN_TIMED_CHILDREN
              and now - start + (now - began) > seconds):
            break
    # A paced workload is timed through the drive already; the others
    # need one drive for what run() does not return.
    drives = [] if workload.paced else [spawn("sim", name, seed, smoke)]
    sim = drives[0] if drives else timed[0]
    metrics = {
        "setup_s": summarize([r["setup_s"] for r in setups]),
        "wall_s": summarize([r["wall_s"] for r in timed]),
        "sim_req_per_wall_s": summarize(
            [r["completed"] / r["wall_s"] for r in timed]
        ),
        "peak_rss_mb": summarize([r["rss_mb"] for r in timed]),
        "sim_throughput_rps": {"value": sim["executed_rate"]},
        "sim_latency_p50_ms": {"value": sim["p50_latency"] * 1e3},
        "sim_latency_tail_ms": {
            "value": sim["tail_latency"] * 1e3,
            "percentile": sim["tail_percentile"],
            "samples_n": sim["completed"],
        },
        "completed_share": {"value": 1.0 - sim["failed_share"]},
    }
    return {
        "metrics": metrics, "setups": setups, "sim": sim,
        "children": setups + timed + drives,
        "problems": gate(timed + drives),
    }


# ----------------------------------------------------------------- per layer
def measure_per_layer(workload, seed: int, smoke: bool,
                      sim: dict, setups: List[dict], probes: dict) -> dict:
    """The traced pass, the cProfile pass and everything derived."""
    from fold import LAYERS

    name = workload.name
    trace = spawn("trace", name, seed, smoke)
    profile = spawn("profile", name, seed, smoke)
    metrics = dict(trace["trace"])
    layers = profile["layers"]
    total = sum(layer["self_s"] for layer in layers.values())
    for layer in LAYERS:
        entry = layers.get(layer, {"self_s": 0.0, "calls": 0})
        metrics[layer + ".self_s"] = entry["self_s"]
        metrics[layer + ".self_share"] = entry["self_s"] / total
        metrics[layer + ".calls"] = entry["calls"]
    metrics["other.self_share"] = 1.0 - sum(
        metrics[layer + ".self_share"] for layer in LAYERS
    )
    if workload.attacked:
        twin = spawn("timed", name, seed, smoke, no_attack=True)
        relative = 100.0 * sim["executed_rate"] / twin["executed_rate"]
    else:
        relative = 100.0  # a fault-free run is its own twin
    metrics.update({
        "sim.events": sim["events"],
        "sim.events_per_s": sim["events"] / sim["wall_s"],
        "core.instance_changes": trace["instance_changes"],
        "core.invalid_requests": trace["invalid_requests"],
        "core.nics_closed": trace["nics_closed"],
        "clients.sent": trace["sent"],
        "clients.completed": trace["completed"],
        "clients.identities": trace["identities"],
        "clients.failed_share": trace["failed_share"],
        "faults.rel_throughput_pct": relative,
        "trace.overhead_ratio": trace["wall_s"] / sim["wall_s"],
        "trace.profile_overhead_ratio": profile["wall_s"] / sim["wall_s"],
        "experiments.import_s": statistics.median(
            r["import_s"] for r in setups
        ),
        "experiments.deploy_s": statistics.median(
            r["deploy_s"] for r in setups
        ),
    })
    for probe, result in probes.items():
        metrics[probe] = result["ops_per_s"]
    return {
        "metrics": {key: {"value": value} for key, value in metrics.items()},
        "digest": trace["digest"],
        "children": [trace, profile],
        "problems": gate([sim, trace, profile], trace["violations"]),
    }


# ------------------------------------------------------------------- output
def with_units(metrics: Dict[str, dict], declared: List[dict]) -> Dict[str, dict]:
    """Attach BENCHMARK.json's units; the two name sets must coincide."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise RuntimeError(
            "metrics out of step with BENCHMARK.json: missing %s, undeclared %s"
            % (sorted(set(units) - set(metrics)), sorted(set(metrics) - set(units)))
        )
    return {
        name: dict(metrics[name], unit=units[name]) for name in units
    }


def print_metrics(title: str, metrics: Dict[str, dict]) -> None:
    print("== %s" % title)
    for name, metric in metrics.items():
        spread = ""
        if "q1" in metric:
            spread = "  [q1 %.6g, q3 %.6g, n %d]" % (
                metric["q1"], metric["q3"], metric["n"]
            )
        elif "percentile" in metric:
            spread = "  [p%g of %d samples]" % (
                100 * metric["percentile"], metric["samples_n"]
            )
        print("%-40s %14.6g %-8s%s" % (name, metric["value"], metric["unit"], spread))


def write_spans(out: str, name: str, records: List[dict]) -> None:
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s.spans.jsonl" % name)
    with open(path, "w", encoding="utf-8") as f:
        for record in records:
            for span in record.get("spans", ()):
                f.write(json.dumps(span) + "\n")


def ledger(args, benchmark: dict) -> int:
    """Every workload, both halves; results.json; non-zero on a problem."""
    from workloads import WORKLOADS

    start = time.perf_counter()
    probes = spawn("probes")["probes"]
    results = {
        "schema": SCHEMA, "seed": args.seed, "smoke": args.smoke,
        "host": host_fingerprint(), "probes": probes, "workloads": {},
    }
    failed = False
    for name, workload in WORKLOADS.items():
        e2e = measure_end_to_end(
            workload, args.seed, args.smoke, children=workload.children
        )
        layer = measure_per_layer(
            workload, args.seed, args.smoke, e2e["sim"], e2e["setups"], probes
        )
        problems = e2e["problems"] + layer["problems"]
        entry = {
            "why": workload.why,
            "end_to_end": with_units(e2e["metrics"], benchmark["end_to_end"]),
            "per_layer": with_units(layer["metrics"], benchmark["per_layer"]),
            "digest": layer["digest"],
            "problems": problems,
        }
        results["workloads"][name] = entry
        print_metrics("%s end-to-end (seed %d)" % (name, args.seed), entry["end_to_end"])
        print_metrics("%s per-layer" % name, entry["per_layer"])
        print("invariant digest %s" % entry["digest"])
        for problem in problems:
            print("PROBLEM %s: %s" % (name, problem))
            failed = True
        write_spans(args.out, name, e2e["children"] + layer["children"])
    results["total_s"] = time.perf_counter() - start
    path = os.path.join(args.out, "results.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump(results, f, indent=1)
        f.write("\n")
    print("ledger: %d workloads in %.1f s -> %s" % (len(WORKLOADS), results["total_s"], path))
    return 1 if failed else 0


def single(args, benchmark: dict) -> int:
    """One workload, one half; the contract's JSON object on the last line."""
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    name = workload.name
    if args.trace:
        setups = measure_setup(name, args.seed, args.smoke)
        sim = spawn("sim", name, args.seed, args.smoke)
        layer = measure_per_layer(
            workload, args.seed, args.smoke, sim, setups,
            spawn("probes")["probes"],
        )
        metrics = with_units(layer["metrics"], benchmark["per_layer"])
        problems = layer["problems"]
        children = setups + [sim] + layer["children"]
    else:
        e2e = measure_end_to_end(
            workload, args.seed, args.smoke, seconds=args.seconds
        )
        metrics = with_units(e2e["metrics"], benchmark["end_to_end"])
        problems = e2e["problems"]
        children = e2e["children"]
    write_spans(args.out, name, children)
    print_metrics("%s (seed %d, trace %d)" % (name, args.seed, args.trace), metrics)
    for problem in problems:
        print("PROBLEM %s: %s" % (name, problem))
    # An operation is one simulated execution of the scenario whose
    # outputs the gate checked; a run with a problem fails them all.
    executions = [r for r in children if r["mode"] != "setup"]
    print(json.dumps({
        "correct": not problems,
        "attempted": len(executions),
        "failed": len(executions) if problems else 0,
        "metrics": {
            key: {"value": metric["value"], "unit": metric["unit"]}
            for key, metric in metrics.items()
        },
    }))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"))
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: one tenth of each simulated window; "
                             "results are stamped and compare.py refuses them")
    parser.add_argument("--workload", help="measure one workload (driver form)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed-children budget with --workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 0 end-to-end, 1 per-layer")
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("bench: no src/repro beside %s — nothing to measure" % BENCH_DIR,
              file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    benchmark = load_benchmark()
    if args.workload is None:
        return ledger(args, benchmark)
    return single(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
