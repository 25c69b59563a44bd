"""The whole ledger, end to end, at one tenth of each simulated window."""

import json
import os
import subprocess
import sys
import time

import compare
from run import BENCH_DIR, SCHEMA, load_benchmark


def test_smoke_ledger_runs_all_workloads(tmp_path):
    out = tmp_path / "out"
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"),
         "--smoke", "--out", str(out)],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert elapsed < 60, "smoke ledger took %.1f s" % elapsed

    results = json.loads((out / "results.json").read_text())
    benchmark = load_benchmark()
    assert results["schema"] == SCHEMA and results["smoke"] is True
    assert set(results["workloads"]) == {w["name"] for w in benchmark["workloads"]}
    for name, entry in results["workloads"].items():
        assert entry["problems"] == []
        assert set(entry["end_to_end"]) == {m["name"] for m in benchmark["end_to_end"]}
        assert set(entry["per_layer"]) == {m["name"] for m in benchmark["per_layer"]}
        assert len(entry["digest"]) == 64
        assert entry["per_layer"]["clients.completed"]["value"] > 0
        spans = [
            json.loads(line)
            for line in (out / ("%s.spans.jsonl" % name)).read_text().splitlines()
        ]
        assert {"experiments.import", "experiments.make_deployment",
                "faults.install", "clients.start", "sim.run",
                "metrics.collect"} <= {span["name"] for span in spans}
        assert all(span["end"] >= span["start"] for span in spans)

    # Stamped as a self-test: the gate refuses to read it as a measurement.
    path = str(out / "results.json")
    assert compare.main([path, path]) == 2
