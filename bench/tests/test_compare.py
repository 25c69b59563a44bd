"""compare.py verdicts on synthetic records."""

import copy
import json

import compare
from run import load_benchmark

BENCHMARK = load_benchmark()
BOUNDS = {m["name"]: m for m in BENCHMARK["end_to_end"]}


def _host(value, spread=0.0):
    return {
        "value": value, "q1": value * (1 - spread / 2),
        "q3": value * (1 + spread / 2), "n": 5, "unit": "s",
    }


def _results(**overrides):
    end_to_end = {
        "setup_s": _host(0.2), "wall_s": _host(5.0),
        "sim_req_per_wall_s": _host(5000.0), "peak_rss_mb": _host(32.0),
        "sim_throughput_rps": {"value": 24004.4},
        "sim_latency_p50_ms": {"value": 1.68},
        "sim_latency_tail_ms": {"value": 2.04},
        "completed_share": {"value": 0.9986},
    }
    end_to_end.update(overrides)
    return {
        "seed": 7, "smoke": False,
        "host": {"python": "3.11.7", "platform": "linux", "cpu_count": 2},
        "workloads": {"fig7_n4": {
            "end_to_end": end_to_end, "per_layer": {"sim.events": {"value": 10}},
            "digest": "abc", "problems": [],
        }},
    }


def _verdicts(base, new):
    rows, _ = compare.compare(base, new, BENCHMARK)
    return {row[1]: row[5] for row in rows}


def test_identical_records_are_ok():
    verdicts = _verdicts(_results(), _results())
    assert set(verdicts.values()) == {"ok"}
    assert set(verdicts) == set(BOUNDS) | {"invariant_digest"}


def test_host_metric_within_bound_is_ok_beyond_it_regressed():
    bound = BOUNDS["wall_s"]["bound"]
    inside = _results(wall_s=_host(5.0 * (1 + bound * 0.9)))
    outside = _results(wall_s=_host(5.0 * (1 + bound * 1.1)))
    assert _verdicts(_results(), inside)["wall_s"] == "ok"
    assert _verdicts(_results(), outside)["wall_s"] == "regressed"
    faster = _results(wall_s=_host(2.5))
    assert _verdicts(_results(), faster)["wall_s"] == "ok"


def test_direction_follows_better():
    bound = BOUNDS["sim_req_per_wall_s"]["bound"]
    slower = _results(sim_req_per_wall_s=_host(5000.0 * (1 - bound * 1.1)))
    assert _verdicts(_results(), slower)["sim_req_per_wall_s"] == "regressed"
    quicker = _results(sim_req_per_wall_s=_host(9000.0))
    assert _verdicts(_results(), quicker)["sim_req_per_wall_s"] == "ok"


def test_wide_quartiles_are_unresolved_not_ok():
    bound = BOUNDS["wall_s"]["bound"]
    noisy = _results(wall_s=_host(5.0, spread=bound * 1.5))
    assert _verdicts(_results(), noisy)["wall_s"] == "unresolved"
    assert _verdicts(noisy, _results())["wall_s"] == "unresolved"


def test_simulated_metrics_compare_exactly():
    nudged = _results(sim_latency_p50_ms={"value": 1.6800001})
    assert _verdicts(_results(), nudged)["sim_latency_p50_ms"] == "drifted"
    share = _results(completed_share={"value": 0.9985})
    assert _verdicts(_results(), share)["completed_share"] == "drifted"


def test_digest_change_and_gate_problems_fail():
    changed = _results()
    changed["workloads"]["fig7_n4"]["digest"] = "abd"
    assert _verdicts(_results(), changed)["invariant_digest"] == "drifted"
    broken = _results()
    broken["workloads"]["fig7_n4"]["problems"] = ["no request completed"]
    assert _verdicts(_results(), broken)["gate"] == "regressed"


def test_foreign_host_warns():
    other = copy.deepcopy(_results())
    other["host"]["cpu_count"] = 64
    _, warnings = compare.compare(_results(), other, BENCHMARK)
    assert len(warnings) == 1 and "cpu_count" in warnings[0]


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return str(path)


def test_main_exit_codes(tmp_path, capsys):
    base = _write(tmp_path, "a.json", _results())
    same = _write(tmp_path, "b.json", _results())
    slow = _write(tmp_path, "c.json", _results(wall_s=_host(9.0)))
    assert compare.main([base, same]) == 0
    assert compare.main([base, slow]) == 1
    assert "regressed" in capsys.readouterr().out


def test_smoke_results_and_foreign_seeds_are_refused(tmp_path, capsys):
    base = _write(tmp_path, "a.json", _results())
    smoke = dict(_results(), smoke=True)
    assert compare.main([base, _write(tmp_path, "s.json", smoke)]) == 2
    other_seed = dict(_results(), seed=11)
    assert compare.main([base, _write(tmp_path, "o.json", other_seed)]) == 2
    assert "refused" in capsys.readouterr().err
