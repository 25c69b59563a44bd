"""Command-line interface: regenerate any table or figure of the paper.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments fig1
    python -m repro.experiments fig7 --payload 4096
    python -m repro.experiments fig8 --f 2
    python -m repro.experiments fig12
    RBFT_FULL=1 python -m repro.experiments fig2   # full-scale sweep

Beyond the paper's figures, one instrumentation command (what a change
*costs* on the host is the perf ledger's job: ``python3 bench/run.py``,
see ``bench/README.md``)::

    python -m repro.experiments profile fig8       # per-core bottleneck report
    python -m repro.experiments profile fig7 --trace-out fig7.trace.jsonl

Traffic models are first-class: ``workloads`` lists the registered
packs and ``run`` drives one scenario with any of them::

    python -m repro.experiments workloads
    python -m repro.experiments run --workload diurnal --clients 1000000
    python -m repro.experiments run --workload flash-crowd --rate 4000

Sweeps fan out across worker processes: ``--jobs N`` (or the
``REPRO_JOBS`` environment variable) sets the worker count, default
``cpu_count() - 1``; ``--jobs 1`` forces the serial path.  Parallel and
serial sweeps produce identical numbers.

Verification commands (see ``docs/testing.md``)::

    python -m repro.experiments explore --episodes 20 --seed 0 --check
    python -m repro.experiments explore --search --budget 48 --seed 0 \\
        --strategy both --protocol rbft --out adversary --check
    python -m repro.experiments check --replay benchmarks/adversary/

Exit codes are distinct so a CI job log alone tells you *what* failed:

* ``0`` — success;
* ``1`` — a gate failed: an invariant violation or a replay digest
  mismatch (the command ran fine and is reporting a genuine finding);
* ``2`` — a usage error: unknown flags or subcommands (argparse),
  unknown protocol/workload/strategy names, invalid values, or
  unreadable/malformed artifacts.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

#: exit codes, see the module docstring.
EX_OK = 0
EX_GATE = 1
EX_USAGE = 2

from .report import (
    format_attack_rows,
    format_curve,
    format_monitoring_view,
    format_table1,
)
from .runner import (
    attack_sweep,
    latency_throughput_curve,
    monitoring_view,
    table1,
    unfair_primary_run,
)
from .scale import current_scale

__all__ = ["main"]


def _cmd_table1(args) -> None:
    print(format_table1(table1(scale=current_scale(), jobs=args.jobs)))


def _cmd_fig1(args) -> None:
    rows = attack_sweep(
        "prime", scale=current_scale(), f=args.f, exec_cost=1e-4,
        jobs=args.jobs,
    )
    print(format_attack_rows(
        "Fig. 1: Prime relative throughput under attack", rows,
        paper_note="drops to 22-40 % across sizes",
    ))


def _cmd_fig2(args) -> None:
    rows = attack_sweep(
        "aardvark", scale=current_scale(), f=args.f, jobs=args.jobs
    )
    print(format_attack_rows(
        "Fig. 2: Aardvark relative throughput under attack", rows,
        paper_note="static >= 76 %, dynamic down to 13 %",
    ))


def _cmd_fig3(args) -> None:
    rows = attack_sweep(
        "spinning", scale=current_scale(), f=args.f, jobs=args.jobs
    )
    print(format_attack_rows(
        "Fig. 3: Spinning relative throughput under attack", rows,
        paper_note="collapses to 1 % (static) / 4.5 % (dynamic)",
    ))


def _cmd_fig7(args) -> None:
    from .ascii_chart import multi_scatter

    series = {}
    for variant in ("rbft", "rbft-udp", "prime", "aardvark", "spinning"):
        rows = latency_throughput_curve(
            variant, args.payload, scale=current_scale(), f=args.f,
            jobs=args.jobs,
        )
        print(format_curve("Fig. 7 (%d B) — %s" % (args.payload, variant), rows))
        print()
        series[variant] = [
            (row["throughput"] / 1e3, row["latency_ms"]) for row in rows
        ]
    print(multi_scatter(
        series, x_label="throughput (kreq/s)", y_label="latency (ms)",
    ))


def _cmd_fig8(args) -> None:
    rows = attack_sweep(
        "rbft", scale=current_scale(), attack="rbft-worst1", f=args.f,
        jobs=args.jobs,
    )
    print(format_attack_rows(
        "Fig. 8: RBFT under worst-attack-1 (f=%d)" % args.f, rows,
        paper_note="loss below 2.2 % (f=1) / 0.4 % (f=2)",
    ))


def _cmd_fig9(args) -> None:
    view = monitoring_view(
        1, payload=args.payload, scale=current_scale(), f=args.f
    )
    print(format_monitoring_view(
        "Fig. 9: monitored throughput per node (worst-attack-1)", view
    ))


def _cmd_fig10(args) -> None:
    rows = attack_sweep(
        "rbft", scale=current_scale(), attack="rbft-worst2", f=args.f,
        jobs=args.jobs,
    )
    print(format_attack_rows(
        "Fig. 10: RBFT under worst-attack-2 (f=%d)" % args.f, rows,
        paper_note="loss below 3 % (f=1) / 1 % (f=2)",
    ))


def _cmd_fig11(args) -> None:
    view = monitoring_view(
        2, payload=args.payload, scale=current_scale(), f=args.f
    )
    print(format_monitoring_view(
        "Fig. 11: monitored throughput per node (worst-attack-2)", view
    ))


def _cmd_fig12(args) -> None:
    result = unfair_primary_run(scale=current_scale())
    attacked = result["series"]["client0"].values()
    other = result["series"]["client1"].values()

    def mean_ms(values, lo, hi):
        segment = values[lo:hi]
        return sum(segment) / len(segment) * 1e3 if segment else 0.0

    print("Fig. 12: unfair primary vs the latency monitor (Λ = %.1f ms)"
          % (result["lambda_max"] * 1e3))
    print("  attacked client: fair %.2f ms -> delayed %.2f ms -> after "
          "change %.2f ms"
          % (mean_ms(attacked, 100, 450), mean_ms(attacked, 600, 950),
             mean_ms(attacked, 1060, None)))
    print("  other client stayed at %.2f ms" % mean_ms(other, 100, 950))
    if result["instance_change_at"] is not None:
        print("  protocol instance change at t=%.3f s"
              % result["instance_change_at"])
    from .ascii_chart import multi_scatter

    print()
    print(multi_scatter(
        {
            "attacked": list(enumerate(v * 1e3 for v in attacked)),
            "other": list(enumerate(v * 1e3 for v in other)),
        },
        x_label="request number",
        y_label="latency (ms)",
    ))


def _cmd_workloads(args) -> int:
    from repro.clients import get_workload, workload_names

    print("registered workload packs:")
    for name in workload_names():
        spec = get_workload(name)
        print("  %-12s %s%s" % (
            name, spec.description,
            "  [whole-run]" if spec.whole_run else "",
        ))
    return EX_OK


def _cmd_run(args) -> int:
    from repro.clients import Workload

    from .scenario import Scenario, run

    try:
        workload = Workload(
            args.workload, rate=args.rate, clients=args.clients
        )
        scenario = Scenario(
            protocol=args.protocol,
            payload=args.payload,
            workload=workload,
            f=args.f,
            seed=args.seed,
            scale=current_scale(),
            duration=args.duration,
        )
        # Unknown protocol names and invalid cluster parameters surface
        # when the deployment is built, inside run().
        result = run(scenario)
    except ValueError as exc:
        print("run: %s" % exc, file=sys.stderr)
        return EX_USAGE
    print(
        "%s %s: %d declared clients | offered %.0f req/s | executed "
        "%.0f req/s | %d completed | mean latency %.2f ms | p99 %.2f ms"
        % (
            result.protocol, result.workload, result.declared_clients,
            result.offered_rate, result.executed_rate, result.completed,
            result.mean_latency * 1e3, result.p99_latency * 1e3,
        )
    )
    return EX_OK


def _cmd_profile(args) -> int:
    from .profiling import profile_report

    try:
        report = profile_report(
            args.fig,
            payload=args.payload,
            f=args.f,
            top=args.top,
            trace_out=args.trace_out,
        )
    except ValueError as exc:
        print("profile: %s" % exc, file=sys.stderr)
        return EX_USAGE
    print(report)
    return EX_OK


def _cmd_explore(args) -> int:
    if args.search:
        return _cmd_search(args)
    from repro.verify import explore

    try:
        report = explore(
            args.seed,
            episodes=args.episodes,
            jobs=args.jobs,
            out_dir=args.out,
            duration=args.duration,
            rate=args.rate,
            workload=args.workload,
        )
    except ValueError as exc:
        # An empty load window or rate is a usage error, not a finding.
        print("explore: %s" % exc, file=sys.stderr)
        return EX_USAGE
    for index, result in enumerate(report.results):
        status = "ok" if result.ok else "VIOLATION"
        plan = ", ".join(spec.kind for spec in result.spec.plan) or "(no faults)"
        print("episode %04d  seed=%-10d  %-42s %s"
              % (index, result.spec.seed, plan, status))
    print("%d/%d episodes passed" % (
        len(report.results) - len(report.failures), len(report.results)
    ))
    for spec, result in report.counterexamples:
        plan = ", ".join(s.kind for s in spec.plan) or "(no faults)"
        print("counterexample: seed=%d plan=[%s] violates %s"
              % (spec.seed, plan, ", ".join(sorted(result.violated()))))
    if report.artifacts:
        print("wrote %d artifacts under %s" % (len(report.artifacts), args.out))
    if args.check and not report.ok:
        return EX_GATE
    return EX_OK


def _format_plan(plan) -> str:
    return ", ".join(
        "%s(%s)" % (
            spec.kind,
            ", ".join("%s=%s" % kv for kv in sorted(spec.params.items())),
        )
        for spec in plan
    ) or "(no faults)"


def _cmd_search(args) -> int:
    from repro.verify import run_search

    try:
        report = run_search(
            master_seed=args.seed,
            budget=args.budget,
            strategy=args.strategy,
            protocol=args.protocol,
            jobs=args.jobs,
            out_dir=args.out,
            duration=args.duration,
            rate=args.rate,
            workload=args.workload,
        )
    except ValueError as exc:
        # Unknown strategy/protocol names, an empty load window or rate:
        # usage errors, not findings.
        print("explore --search: %s" % exc, file=sys.stderr)
        return EX_USAGE
    print("adversary search: protocol=%s seed=%d budget=%d strategies=%s"
          % (report.protocol, report.master_seed, report.budget,
             ",".join(report.strategies)))
    print("baseline: %d completed (%.1f req/s, mean latency %.2f ms)"
          % (report.baseline.completed, report.baseline.throughput,
             report.baseline.mean_latency * 1e3))
    for name, entry in sorted(report.scripted.items()):
        print("scripted %-12s reward=%.4f degradation=%.2f%% latency x%.2f"
              % (name, entry.reward, 100 * entry.degradation,
                 entry.latency_ratio))
    for rank, entry in enumerate(report.entries, start=1):
        print("#%d [%s] reward=%.4f degradation=%.2f%% latency x%.2f  %s"
              % (rank, entry.strategy, entry.reward,
                 100 * entry.degradation, entry.latency_ratio,
                 _format_plan(entry.plan)))
    best = report.best
    if best is not None:
        verdict = "beats" if report.beats_scripted else "DOES NOT beat"
        print("best discovered attack %s the scripted worst1/worst2 bar "
              "(%.4f vs %.4f)" % (verdict, best.reward, report.scripted_bar))
    for spec, result in report.counterexamples:
        print("counterexample: plan=[%s] violates %s"
              % (_format_plan(spec.plan), ", ".join(sorted(result.violated()))))
    if report.artifacts:
        print("wrote %d artifacts under %s" % (len(report.artifacts), args.out))
    if args.check and not report.ok:
        return EX_GATE
    return EX_OK


def _replay_paths(arguments: List[str]) -> List[str]:
    """Expand directories into their episode artifacts, keep files as-is."""
    import json
    import os

    paths: List[str] = []
    for argument in arguments:
        if os.path.isdir(argument):
            found = []
            for name in sorted(os.listdir(argument)):
                if not name.endswith(".json"):
                    continue
                path = os.path.join(argument, name)
                try:
                    with open(path, "r", encoding="utf-8") as fileobj:
                        record = json.load(fileobj)
                except (OSError, ValueError) as exc:
                    raise ValueError("unreadable artifact %s: %s" % (path, exc))
                if isinstance(record, dict) and "spec" in record:
                    found.append(path)
            if not found:
                raise ValueError("no episode artifacts under %s" % argument)
            paths.extend(found)
        else:
            paths.append(argument)
    return paths


def _cmd_check(args) -> int:
    from repro.verify import check_replay

    try:
        paths = _replay_paths(args.replay)
    except ValueError as exc:
        print("check: %s" % exc, file=sys.stderr)
        return EX_USAGE
    mismatches = 0
    for path in paths:
        try:
            verdict = check_replay(path)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print("check: unreadable or malformed artifact %s: %s"
                  % (path, exc), file=sys.stderr)
            return EX_USAGE
        status = "ok" if verdict["match"] else "MISMATCH"
        print("replay %-60s %s" % (verdict["path"], status))
        print("  digest   %s" % verdict["digest"])
        print("  recorded %s" % verdict["recorded_digest"])
        print("  violations: %s (recorded: %s)" % (
            ", ".join(verdict["violations"]) or "none",
            ", ".join(verdict["recorded_violations"]) or "none",
        ))
        if not verdict["match"]:
            mismatches += 1
    if mismatches:
        print("%d/%d replays diverged from their recorded episodes"
              % (mismatches, len(paths)))
        return EX_GATE
    print("%d/%d byte-identical replays" % (len(paths), len(paths)))
    return EX_OK


#: figures whose runner measures the paper's f = 1 testbed only.
F1_ONLY = ("table1", "fig12")

COMMANDS = {
    "table1": (_cmd_table1, "Table I: baseline worst-case degradations"),
    "fig1": (_cmd_fig1, "Prime under attack"),
    "fig2": (_cmd_fig2, "Aardvark under attack"),
    "fig3": (_cmd_fig3, "Spinning under attack"),
    "fig7": (_cmd_fig7, "latency vs throughput, fault-free"),
    "fig8": (_cmd_fig8, "RBFT under worst-attack-1"),
    "fig9": (_cmd_fig9, "monitoring view, worst-attack-1"),
    "fig10": (_cmd_fig10, "RBFT under worst-attack-2"),
    "fig11": (_cmd_fig11, "monitoring view, worst-attack-2"),
    "fig12": (_cmd_fig12, "unfair primary vs latency monitoring"),
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the tables and figures of the RBFT paper "
        "(set RBFT_FULL=1 for the full-scale sweeps).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--payload", type=int, default=8 if name == "fig7" else 4096,
                         help="request payload size in bytes")
        cmd.add_argument("--f", type=int, default=1,
                         help="number of tolerated faults")
        cmd.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the sweep (default: "
                         "REPRO_JOBS or cpu_count()-1; 1 = serial)")

    sub.add_parser(
        "workloads",
        help="list the registered workload packs (traffic models)",
    )

    run_cmd = sub.add_parser(
        "run",
        help="run one scenario with a named workload pack and print the "
        "headline numbers",
    )
    run_cmd.add_argument("--workload", default="static",
                         help="registered workload pack (see `workloads`)")
    run_cmd.add_argument("--protocol", default="rbft",
                         help="registry protocol variant")
    run_cmd.add_argument("--rate", type=float, default=None,
                         help="aggregate offered rate, requests/second "
                         "(default: derived from a capacity probe)")
    run_cmd.add_argument("--clients", type=int, default=None,
                         help="declared client-population size "
                         "(default: the pack's)")
    run_cmd.add_argument("--payload", type=int, default=8,
                         help="request payload size in bytes")
    run_cmd.add_argument("--f", type=int, default=1,
                         help="number of tolerated faults")
    run_cmd.add_argument("--seed", type=int, default=0,
                         help="experiment seed")
    run_cmd.add_argument("--duration", type=float, default=None,
                         help="measured window, simulated seconds "
                         "(default: the scale's)")

    from .profiling import PROFILABLE

    profile = sub.add_parser(
        "profile",
        help="re-run a figure with tracing on; print per-core bottlenecks",
    )
    profile.add_argument("fig", choices=sorted(PROFILABLE),
                         help="which figure's scenario to profile")
    profile.add_argument("--payload", type=int, default=None,
                         help="override the scenario's payload size")
    profile.add_argument("--f", type=int, default=1,
                         help="number of tolerated faults")
    profile.add_argument("--top", type=int, default=16,
                         help="show only the busiest N cores")
    profile.add_argument("--trace-out", default=None, metavar="PATH",
                         help="also export the raw trace as JSON lines")

    explore = sub.add_parser(
        "explore",
        help="run seeded fault-space episodes with online invariants, "
        "or search the fault space adversarially (--search)",
    )
    explore.add_argument("--episodes", type=int, default=20,
                         help="number of episodes to derive and run")
    explore.add_argument("--seed", type=int, default=0,
                         help="master seed the episodes derive from")
    explore.add_argument("--out", default=None, metavar="DIR",
                         help="write episode/counterexample JSON artifacts "
                         "(with --search: LEADERBOARD.json + episodes)")
    explore.add_argument("--duration", type=float, default=1.0,
                         help="load window per episode, simulated seconds")
    explore.add_argument("--rate", type=float, default=1500.0,
                         help="offered load per episode, requests/second")
    explore.add_argument("--workload", default="static",
                         help="traffic shape per episode: a registered "
                         "workload pack")
    explore.add_argument("--jobs", type=int, default=None,
                         help="worker processes (default: REPRO_JOBS or "
                         "cpu_count()-1; 1 = serial)")
    explore.add_argument("--check", action="store_true",
                         help="exit 1 if any episode violates an invariant")
    explore.add_argument("--search", action="store_true",
                         help="adaptive adversary: maximise throughput/"
                         "latency degradation over the fault vocabulary")
    explore.add_argument("--budget", type=int, default=48,
                         help="(--search) attacked-episode evaluations, "
                         "split across strategies")
    explore.add_argument("--strategy", default="both",
                         help="(--search) bandit, evolve, or both")
    explore.add_argument("--protocol", default="rbft",
                         help="(--search) registry protocol to attack "
                         "(RBFT family: rbft, rbft-udp, rbft-full-order)")

    check = sub.add_parser(
        "check",
        help="re-run recorded episodes and compare invariant digests",
    )
    check.add_argument("--replay", required=True, metavar="PATH", nargs="+",
                       help="episode/counterexample JSON artifacts, or "
                       "directories of them (e.g. benchmarks/adversary/)")

    args = parser.parse_args(argv)
    if args.command == "workloads":
        return _cmd_workloads(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "explore":
        return _cmd_explore(args)
    if args.command == "check":
        return _cmd_check(args)
    # A figure's flags are checked before any capacity probe runs.
    jobs = 1 if args.jobs is None else args.jobs
    for bad, reason in ((args.f < 1, "needs f >= 1 (got f=%d)" % args.f),
                        (args.command in F1_ONLY and args.f != 1,
                         "measures f = 1 only (got f=%d)" % args.f),
                        (args.payload < 0, "payload must be >= 0, got %d" % args.payload),
                        (jobs < 1, "jobs must be >= 1, got %d" % jobs)):
        if bad:
            print("%s: %s" % (args.command, reason), file=sys.stderr)
            return EX_USAGE
    COMMANDS[args.command][0](args)
    return EX_OK


if __name__ == "__main__":
    sys.exit(main())
