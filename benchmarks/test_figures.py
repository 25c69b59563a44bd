"""Every table and figure of the paper, regenerated from ``FIGURES``.

One case per entry of :data:`repro.experiments.FIGURES`, plus the f = 2
halves of Figs 8 and 10 and Fig. 7 at 4 kB.  Each case prints exactly
what ``python -m repro.experiments <figure>`` prints, then checks the
paper's *shape* (``SHAPES``, one check per figure; a figure without one
fails collection).  Table I is reduced from the Figs 1–3 rows, not
simulated again.  Set ``RBFT_FULL=1`` for the paper's full request-size
sweep and longer simulated windows.

    pytest benchmarks/ -s
"""

import functools

import pytest

from repro.experiments import FIGURES, current_scale
from repro.experiments.figures import BASELINES, degradation_rows

SCALE = current_scale()


@functools.lru_cache(maxsize=None)
def rows_of(name, f, payload):
    """A figure's rows, computed once per session."""
    if name == "table1":
        # Table I is the worst point of each of the Figs 1–3 sweeps.
        return degradation_rows({
            protocol: rows_of(figure, 1, None)
            for protocol, figure in zip(BASELINES, ("fig1", "fig2", "fig3"))
        })
    return FIGURES[name].rows(SCALE, f, payload, None)


def _table1(rows, f, payload):
    degradations = {row["protocol"]: row["degradation_pct"] for row in rows}
    # Every "robust" baseline suffers a large worst-case degradation...
    assert degradations["spinning"] > 80.0
    assert degradations["aardvark"] > 40.0
    assert degradations["prime"] > 40.0
    # ...and Spinning is the worst of the three, as in the paper.
    assert degradations["spinning"] == max(degradations.values())


def _fig1(rows, f, payload):
    for row in rows:
        # Prime drops to 22-40 %: substantial degradation at every size,
        # but never a full stall.
        assert row["static_pct"] < 65.0, row
        assert row["dynamic_pct"] < 65.0, row
        assert row["static_pct"] > 5.0, row


def _fig2(rows, f, payload):
    for row in rows:
        # Aardvark is robust under a static load (>= 76 % in the paper).
        assert row["static_pct"] > 65.0, row
    # The dynamic load is where Aardvark breaks (down to 13 %).
    worst_dynamic = min(row["dynamic_pct"] for row in rows)
    assert worst_dynamic < 45.0
    # Dynamic is strictly worse than static at the worst point.
    assert worst_dynamic < min(row["static_pct"] for row in rows)


def _fig3(rows, f, payload):
    for row in rows:
        # Spinning collapses to 1 % under a static load.
        assert row["static_pct"] < 20.0, row
    # Under the dynamic load the collapse (4.5 %) shows wherever the spike
    # exceeds the attacked system's residual capacity (at large request
    # sizes our gentler large-payload spike stays under it — see
    # EXPERIMENTS.md).
    assert min(row["dynamic_pct"] for row in rows) < 25.0


def _fig7(rows, f, payload):
    curves = {}
    for row in rows:
        curves.setdefault(row["variant"], []).append(row)
    peaks = {v: max(r["throughput"] for r in rows) for v, rows in curves.items()}
    low_load_latency = {v: rows[0]["latency_ms"] for v, rows in curves.items()}
    if payload == 8:
        # Spinning provides the highest peak throughput (§VI-B).
        assert peaks["spinning"] == max(peaks.values())
        # Prime peaks far below RBFT/Aardvark/Spinning.
        assert peaks["prime"] < 0.7 * peaks["rbft"]
        # Paper: RBFT peak ~35 kreq/s on their testbed; same order here.
        assert 15_000 < peaks["rbft"] < 60_000
    else:
        # Paper: RBFT peaks at ~5 kreq/s with 4 kB requests.
        assert 3_000 < peaks["rbft"] < 9_000
    # Prime's latency sits far above the others (§VI-B: an order of
    # magnitude on their testbed; several-fold here).
    assert low_load_latency["prime"] > 3 * low_load_latency["rbft"]
    # The UDP variant has lower latency than TCP at low load (§VI-B).
    assert low_load_latency["rbft-udp"] < low_load_latency["rbft"]


def _fig8(rows, f, payload):
    # Paper: loss below 2.2 % with f=1 (null under the dynamic load) and
    # below 0.4 % with f=2; no protocol instance change is triggered.
    floor = 90.0 if f == 1 else 88.0
    for row in rows:
        assert row["static_pct"] > floor, row
        assert row["dynamic_pct"] > floor, row


def _monitored(rows):
    """Each correct node's (master, mean backup) rate, checked to agree."""
    assert len(rows) == 3  # 4 nodes minus the faulty one
    rates = [[rate for key, rate in row.items() if key != "node"] for row in rows]
    # Every correct node measures (almost exactly) the same throughput.
    for other in rates[1:]:
        for a, b in zip(rates[0], other):
            assert abs(a - b) / max(a, b) < 0.05
    return [(node[0], sum(node[1:]) / len(node[1:])) for node in rates]


def _fig9(rows, f, payload):
    for master, backup_mean in _monitored(rows):
        # Master and backup instances are close (paper: ~2 % apart), which
        # is why no instance change is triggered.
        assert abs(master - backup_mean) / backup_mean < 0.10


def _fig10(rows, f, payload):
    # Paper: the malicious master primary delays requests down to Δ; the
    # loss stays below 3 % with f=1 and below 1 % with f=2.
    floor = 88.0 if f == 1 else 85.0
    for row in rows:
        assert row["static_pct"] > floor, row
        assert row["dynamic_pct"] > floor, row


def _fig11(rows, f, payload):
    for master, backup_mean in _monitored(rows):
        # The attacker stays at or above the Δ ratio — close, not equal.
        assert master >= 0.90 * backup_mean
        assert master <= 1.05 * backup_mean


def _fig12(rows, f, payload):
    summary = rows[0]
    fair = summary["fair_ms"]
    # Phase 2: the attacked client's latency rises; the other's does not
    # rise anywhere near as much.
    assert summary["delayed_ms"] > fair + 0.3
    assert summary["other_delayed_ms"] < fair + 0.3
    # The Λ violation triggers a protocol instance change...
    assert summary["instance_change_at"] is not None
    assert summary["instance_changes"] >= 1
    # ...and afterwards the new (fair) primary restores the latency.
    assert summary["after_ms"] < fair + 0.3


#: the paper's shape of each figure: ``check(rows, f, payload)``.
SHAPES = {
    "table1": _table1,
    "fig1": _fig1,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "fig10": _fig10,
    "fig11": _fig11,
    "fig12": _fig12,
}
assert set(SHAPES) == set(FIGURES), "every figure needs a shape check"

CASES = [(name, 1, figure.payload) for name, figure in FIGURES.items()] + [
    ("fig7", 1, 4096),
    ("fig8", 2, None),
    ("fig10", 2, None),
]


@pytest.mark.parametrize("name, f, payload", CASES)
def test_figure(name, f, payload):
    rows = rows_of(name, f, payload)
    print()
    print(FIGURES[name].text(rows, f))
    SHAPES[name](rows, f, payload)
