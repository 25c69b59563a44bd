"""The paper's tables and figures as data: one :class:`Figure` per entry.

Every §VI experiment has one shape: a set of runs reduced to rows (flat,
JSON-serialisable dicts), a renderer that prints them the way the paper
reads, and the paper's claim beside it.  The CLI's figure subcommands
and the ``benchmarks/`` harness are both generated from :data:`FIGURES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.clients import Workload

from .ascii_chart import multi_scatter
from .parallel import execute_specs
from .runner import (
    _sweep_rows,
    _sweep_scenarios,
    attack_sweep,
    latency_throughput_curve,
    unfair_primary_run,
)
from .scale import ScenarioScale
from .scenario import Scenario, run

__all__ = ["Figure", "FIGURES", "degradation_rows"]

Rows = List[dict]


@dataclass(frozen=True)
class Figure:
    """One table or figure: ``rows(scale, f, payload, jobs)`` runs it and
    ``render(title, paper, rows)`` reads only its rows.  ``payload`` is
    the default request size (``None``: the figure sweeps or fixes its
    own); ``fans_out``: its runs spread across ``jobs`` workers.  The CLI
    offers ``--payload`` and ``--jobs`` only where they are read."""

    title: str  # may contain %(f)d
    paper: str  # the paper's claim, printed as "(paper: ...)" by the tables
    rows: Callable[[ScenarioScale, int, Optional[int], Optional[int]], Rows]
    render: Callable[[str, str, Rows], str]
    payload: Optional[int] = None
    f1_only: bool = False
    fans_out: bool = True

    def text(self, rows: Rows, f: int = 1) -> str:
        return self.render(self.title % {"f": f}, self.paper, rows)


# ------------------------------------------------------------- renderers


def _render_attack(title: str, paper: str, rows: Rows) -> str:
    """Figs 1/2/3/8/10: relative throughput vs request size."""
    return "\n".join(
        [title, "  (paper: %s)" % paper,
         "  %10s  %18s  %18s" % ("size", "static load", "dynamic load")]
        + ["  %8d B  %16.1f %%  %16.1f %%"
           % (row["size"], row["static_pct"], row["dynamic_pct"]) for row in rows]
    )


def _render_table1(title: str, paper: str, rows: Rows) -> str:
    """Table I: maximum throughput degradation under attack."""
    return "\n".join([title, "  (paper: %s)" % paper] + [
        "  %-10s %6.1f %%" % (row["protocol"].capitalize(), row["degradation_pct"])
        for row in rows
    ])


def _render_curves(title: str, paper: str, rows: Rows) -> str:
    """Fig 7: one latency vs throughput table per variant, then the chart."""
    curves: Dict[str, Rows] = {}
    for row in rows:
        curves.setdefault(row["variant"], []).append(row)
    blocks = [
        "\n".join(
            ["Fig. 7 (%d B) — %s" % (curve[0]["payload"], variant),
             "  %14s  %14s  %12s" % ("offered (k/s)", "tput (kreq/s)", "latency (ms)")]
            + ["  %14.1f  %14.1f  %12.2f" % (row["offered"] / 1e3,
                                             row["throughput"] / 1e3, row["latency_ms"])
               for row in curve]
        )
        for variant, curve in curves.items()
    ]
    blocks.append(multi_scatter(
        {variant: [(row["throughput"] / 1e3, row["latency_ms"]) for row in curve]
         for variant, curve in curves.items()},
        x_label="throughput (kreq/s)", y_label="latency (ms)",
    ))
    return "\n\n".join(blocks)


def _render_monitoring(title: str, paper: str, rows: Rows) -> str:
    """Figs 9/11: per-node monitored throughput, master vs backups."""
    return "\n".join([title] + [
        "  %s: %s" % (row["node"], "  ".join(
            "%s=%.2f kreq/s" % (instance, rate / 1e3)
            for instance, rate in row.items() if instance != "node"
        ))
        for row in rows
    ])


def _render_unfair(title: str, paper: str, rows: Rows) -> str:
    """Fig 12: the summary row, then each client's per-request latency."""
    summary = rows[0]
    lines = [
        "%s (Λ = %.1f ms)" % (title, summary["lambda_ms"]),
        "  attacked client: fair %.2f ms -> delayed %.2f ms -> after change %.2f ms"
        % (summary["fair_ms"], summary["delayed_ms"], summary["after_ms"]),
        "  other client stayed at %.2f ms" % summary["other_ms"],
    ]
    if summary["instance_change_at"] is not None:
        lines.append("  protocol instance change at t=%.3f s"
                     % summary["instance_change_at"])
    series: Dict[str, list] = {"attacked": [], "other": []}
    for row in rows[1:]:
        series[row["client"]].append((row["request"], row["latency_ms"]))
    return "\n".join(lines) + "\n\n" + multi_scatter(
        series, x_label="request number", y_label="latency (ms)"
    )


# ------------------------------------------------------------ row makers

#: the three robust baselines of Table I and Figs 1–3.
BASELINES = ("prime", "aardvark", "spinning")


def _exec_cost(protocol: str) -> float:
    # §III-A / §VI-A: Prime's experiments use 0.1 ms requests (1 ms heavy).
    return 1e-4 if protocol == "prime" else 20e-6


def _sweep(protocol: str, attack: str = "default") -> Callable[..., Rows]:
    return lambda scale, f, payload, jobs: attack_sweep(
        protocol, scale=scale, attack=attack, f=f,
        exec_cost=_exec_cost(protocol), jobs=jobs,
    )


def degradation_rows(sweeps: Dict[str, Rows]) -> Rows:
    """Table I from the Figs 1–3 rows: each baseline's worst relative
    throughput, as a loss."""
    return [
        {"protocol": protocol, "degradation_pct": 100.0 - min(
            min(row["static_pct"], row["dynamic_pct"]) for row in rows)}
        for protocol, rows in sweeps.items()
    ]


def _table1_rows(scale, f, payload, jobs) -> Rows:
    # All three sweeps are enumerated up front and executed as one
    # fan-out, so the pool sees the whole table's worth of runs.
    results = execute_specs([
        scenario for protocol in BASELINES
        for scenario in _sweep_scenarios(protocol, scale, "default", f, _exec_cost(protocol))
    ], jobs=jobs)
    per = len(results) // len(BASELINES)
    return degradation_rows({
        protocol: _sweep_rows(scale, results[index * per : (index + 1) * per])
        for index, protocol in enumerate(BASELINES)
    })


#: the Fig. 7 variants, in the order their curves are printed.
CURVE_VARIANTS = ("rbft", "rbft-udp", "prime", "aardvark", "spinning")


def _curve_rows(scale, f, payload, jobs) -> Rows:
    return [
        {"variant": variant, "payload": payload, **row}
        for variant in CURVE_VARIANTS
        for row in latency_throughput_curve(variant, payload, scale=scale, f=f, jobs=jobs)
    ]


def _monitoring(attack: str) -> Callable[..., Rows]:
    """Figs 9/11: each correct node's mean monitored rate per instance
    over the post-warmup windows, one row per node."""

    def rows(scale, f, payload, jobs):
        correct = []

        def keep_correct(deployment, faulty_names):
            # The paper omits the faulty node's (arbitrary) values.
            correct.extend(
                node for node in deployment.nodes if node.name not in faulty_names
            )

        run(Scenario(
            protocol="rbft", payload=payload, f=f, scale=scale, attack=attack,
            workload=Workload("static", population=False),
        ), attach=keep_correct)
        table = []
        for node in sorted(correct, key=lambda node: node.name):
            row = {"node": node.name}
            for index, series in enumerate(node.monitor.rate_series):
                samples = [r for t, r in series if t >= scale.warmup]
                row["backup%d" % index if index else "master"] = (
                    sum(samples) / len(samples) if samples else 0.0
                )
            table.append(row)
        return table

    return rows


def _unfair_rows(scale, f, payload, jobs) -> Rows:
    """Fig 12: a summary row (Λ, the instance change and the phase
    means), then one row per completed request of each client."""
    result = unfair_primary_run(scale=scale)
    attacked = result["series"]["client0"].values()
    other = result["series"]["client1"].values()

    def mean_ms(values, lo, hi=None):
        segment = values[lo:hi]
        return sum(segment) / len(segment) * 1e3 if segment else 0.0

    summary = {
        "lambda_ms": result["lambda_max"] * 1e3,
        "instance_change_at": result["instance_change_at"],
        "instance_changes": result["instance_changes"],
        "fair_ms": mean_ms(attacked, 100, 450),
        "delayed_ms": mean_ms(attacked, 600, 950),
        "after_ms": mean_ms(attacked, 1060),
        "other_ms": mean_ms(other, 100, 950),
        "other_delayed_ms": mean_ms(other, 600, 950),
    }
    return [summary] + [
        {"client": client, "request": index, "latency_ms": latency * 1e3}
        for client, values in (("attacked", attacked), ("other", other))
        for index, latency in enumerate(values)
    ]


FIGURES: Dict[str, Figure] = {
    "table1": Figure(
        "Table I: maximum throughput degradation under attack",
        "Prime 78 %, Aardvark 87 %, Spinning 99 %",
        _table1_rows, _render_table1, f1_only=True),
    "fig1": Figure(
        "Fig. 1: Prime relative throughput under attack",
        "drops to 22-40 % across sizes", _sweep("prime"), _render_attack),
    "fig2": Figure(
        "Fig. 2: Aardvark relative throughput under attack",
        "static >= 76 %, dynamic down to 13 %", _sweep("aardvark"), _render_attack),
    "fig3": Figure(
        "Fig. 3: Spinning relative throughput under attack",
        "collapses to 1 % (static) / 4.5 % (dynamic)",
        _sweep("spinning"), _render_attack),
    "fig7": Figure(
        "Fig. 7: latency vs throughput, fault-free",
        "Spinning peaks highest, Prime lowest at ~10x latency; RBFT 35 / 5 "
        "kreq/s at 8 B / 4 kB", _curve_rows, _render_curves, payload=8),
    "fig8": Figure(
        "Fig. 8: RBFT under worst-attack-1 (f=%(f)d)",
        "loss below 2.2 % (f=1) / 0.4 % (f=2)",
        _sweep("rbft", "rbft-worst1"), _render_attack),
    "fig9": Figure(
        "Fig. 9: monitored throughput per node (worst-attack-1)",
        "every correct node sees the master within ~2 % of the backup",
        _monitoring("rbft-worst1"), _render_monitoring, payload=4096,
        fans_out=False),
    "fig10": Figure(
        "Fig. 10: RBFT under worst-attack-2 (f=%(f)d)",
        "loss below 3 % (f=1) / 1 % (f=2)",
        _sweep("rbft", "rbft-worst2"), _render_attack),
    "fig11": Figure(
        "Fig. 11: monitored throughput per node (worst-attack-2)",
        "the master sits just above Δ of the backup; no instance change",
        _monitoring("rbft-worst2"), _render_monitoring, payload=4096,
        fans_out=False),
    "fig12": Figure(
        "Fig. 12: unfair primary vs the latency monitor",
        "one request beyond Λ = 1.5 ms triggers an instance change",
        _unfair_rows, _render_unfair, f1_only=True, fans_out=False),
}
