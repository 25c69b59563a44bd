"""The one gate: ``python3 bench/compare.py A.json B.json``.

Compares two ``results.json`` files written by ``run.py`` (A the base,
B the new one).  Per workload and end-to-end metric it prints base, new,
ratio (new / base) and a verdict, using only the bounds in
``BENCHMARK.json``:

* ``sim_*`` metrics and ``completed_share`` are pure functions of the
  seed — compared **exactly**; any difference is ``drifted``, and so is
  a changed invariant digest;
* host metrics are ``regressed`` when B's median is worse than A's by
  more than the bound, ``unresolved`` when either side's own quartile
  spread exceeds the bound (the measurement cannot tell), else ``ok``.

Per-layer rows are printed for the reader and never gate.  Exit code 1
when any row regressed, drifted or is unresolved; 2 when the files
cannot be compared (different seeds, a ``--smoke`` run).
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from run import load_benchmark

__all__ = ["EXACT", "verdict", "compare", "main"]

#: simulated metrics: identical for identical seeds, or behaviour changed.
EXACT = frozenset({
    "sim_throughput_rps", "sim_latency_p50_ms", "sim_latency_tail_ms",
    "completed_share",
})


def _spread(metric: dict) -> float:
    """Quartile distance as a share of the median (0 for single values)."""
    if "q1" not in metric or not metric["value"]:
        return 0.0
    return (metric["q3"] - metric["q1"]) / abs(metric["value"])


def verdict(name: str, base: dict, new: dict, better: str, bound: float) -> str:
    if name in EXACT:
        return "ok" if base["value"] == new["value"] else "drifted"
    if max(_spread(base), _spread(new)) > bound:
        return "unresolved"
    change = new["value"] / base["value"] - 1.0
    worse = change if better == "lower" else -change
    return "regressed" if worse > bound else "ok"


def compare(base: dict, new: dict, benchmark: dict) -> Tuple[List[tuple], List[str]]:
    """Rows ``(workload, metric, base, new, ratio, verdict)`` and warnings."""
    warnings = [
        "host %s differs: %r -> %r (treat host metrics as hardware variance)"
        % (key, base["host"].get(key), new["host"].get(key))
        for key in sorted(set(base["host"]) | set(new["host"]))
        if base["host"].get(key) != new["host"].get(key)
    ]
    rows = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload)
        if other is None:
            rows.append((workload, "(workload)", None, None, None, "drifted"))
            continue
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            a, b = entry["end_to_end"][name], other["end_to_end"][name]
            rows.append((
                workload, name, a["value"], b["value"],
                b["value"] / a["value"],
                verdict(name, a, b, spec["better"], spec["bound"]),
            ))
        same = entry["digest"] == other["digest"]
        rows.append((
            workload, "invariant_digest", entry["digest"][:12],
            other["digest"][:12], None, "ok" if same else "drifted",
        ))
        for problem in entry["problems"] + other["problems"]:
            rows.append((workload, "gate", problem, None, None, "regressed"))
    return rows, warnings


def _per_layer_rows(base: dict, new: dict) -> List[tuple]:
    rows = []
    for workload, entry in base["workloads"].items():
        other = new["workloads"].get(workload, {}).get("per_layer", {})
        for name, a in entry["per_layer"].items():
            b = other.get(name)
            if b is not None:
                ratio = b["value"] / a["value"] if a["value"] else None
                rows.append((workload, name, a["value"], b["value"], ratio, "-"))
    return rows


def _print(rows: List[tuple]) -> None:
    for workload, name, a, b, ratio, outcome in rows:
        if not isinstance(a, (int, float)):
            print("%-12s %-34s %14s %14s %8s %s" % (workload, name, a, b or "", "", outcome))
            continue
        shown = "%8.4f" % ratio if ratio is not None else "%8s" % ""
        print("%-12s %-34s %14.6g %14.6g %s %s" % (workload, name, a, b, shown, outcome))


def _load(path: str) -> Dict:
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    base, new = _load(argv[0]), _load(argv[1])
    for label, record in (("A", base), ("B", new)):
        if record.get("smoke"):
            print("refused: %s is a --smoke self-test, not a measurement" % label,
                  file=sys.stderr)
            return 2
    if base["seed"] != new["seed"]:
        print("refused: seeds differ (%s vs %s); simulated metrics are only "
              "comparable at the same seed" % (base["seed"], new["seed"]),
              file=sys.stderr)
        return 2
    rows, warnings = compare(base, new, load_benchmark())
    for warning in warnings:
        print("WARNING: %s" % warning)
    print("%-12s %-34s %14s %14s %8s %s" % ("workload", "metric", "base", "new", "ratio", "verdict"))
    _print(rows)
    print("-- per-layer (informational, never gating)")
    _print(_per_layer_rows(base, new))
    bad = [row for row in rows if row[5] != "ok"]
    print("compare: %d rows, %d not ok" % (len(rows), len(bad)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
