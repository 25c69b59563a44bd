"""Tests for the figure renderers: each reads only its rows."""

from repro.experiments.figures import FIGURES


def test_format_attack_rows():
    text = FIGURES["fig8"].text(
        [{"size": 8, "static_pct": 97.5, "dynamic_pct": 100.0}], f=2
    )
    assert text.startswith("Fig. 8: RBFT under worst-attack-1 (f=2)\n")
    assert "(paper: loss below 2.2 %" in text
    assert "8 B" in text
    assert "97.5" in text


def test_format_curve():
    text = FIGURES["fig7"].text([
        {"variant": "rbft", "payload": 8, "offered": 1000.0,
         "throughput": 900.0, "latency_ms": 1.25},
        {"variant": "prime", "payload": 8, "offered": 1000.0,
         "throughput": 800.0, "latency_ms": 9.5},
    ])
    assert "Fig. 7 (8 B) — rbft" in text and "Fig. 7 (8 B) — prime" in text
    assert "1.25" in text
    assert "0.9" in text  # kreq/s
    assert "r = rbft   p = prime" in text  # the chart's legend


def test_format_monitoring_view():
    text = FIGURES["fig9"].text([
        {"node": "node0", "master": 5000.0, "backup1": 5100.0},
        {"node": "node1", "master": 5000.0, "backup1": 5100.0},
    ])
    assert "node0" in text and "node1" in text
    assert "master=5.00" in text
    assert "backup1=5.10" in text


def test_format_table1():
    text = FIGURES["table1"].text([
        {"protocol": "prime", "degradation_pct": 60.0},
        {"protocol": "aardvark", "degradation_pct": 75.0},
        {"protocol": "spinning", "degradation_pct": 94.0},
    ])
    assert "Prime" in text and "Spinning" in text
    assert "94.0" in text
    assert "paper" in text


def test_format_unfair_primary():
    summary = {
        "lambda_ms": 1.5, "instance_change_at": 0.9, "instance_changes": 1,
        "fair_ms": 1.0, "delayed_ms": 1.3, "after_ms": 1.0, "other_ms": 1.0,
        "other_delayed_ms": 1.0,
    }
    text = FIGURES["fig12"].text([summary] + [
        {"client": "attacked", "request": 0, "latency_ms": 1.0},
        {"client": "other", "request": 0, "latency_ms": 1.0},
    ])
    assert text.startswith("Fig. 12: unfair primary vs the latency monitor "
                           "(Λ = 1.5 ms)")
    assert "delayed 1.30 ms" in text
    assert "instance change at t=0.900 s" in text


def test_table1_is_the_worst_point_of_each_baseline_sweep():
    from repro.experiments.figures import degradation_rows

    rows = degradation_rows({
        "prime": [{"size": 8, "static_pct": 40.0, "dynamic_pct": 35.0},
                  {"size": 4096, "static_pct": 30.0, "dynamic_pct": 60.0}],
    })
    assert rows == [{"protocol": "prime", "degradation_pct": 70.0}]
