"""Tests for the command-line interface (wiring, not physics)."""

import pytest

from repro.experiments.cli import main
from repro.experiments.figures import FIGURES


def test_every_figure_has_a_command():
    expected = {"table1", "fig1", "fig2", "fig3", "fig7", "fig8", "fig9",
                "fig10", "fig11", "fig12"}
    assert set(FIGURES) == expected


def test_missing_command_exits_with_usage():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_fig9_runs_end_to_end(capsys, monkeypatch):
    # The smallest real command: one monitored run, at the PIN scale
    # (the rows of test_scenario's monitoring-view pin, rendered).
    import repro.experiments.cli as cli
    from tests.helpers import PIN

    monkeypatch.setattr(cli, "current_scale", lambda: PIN)
    assert main(["fig9", "--payload", "1024"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 9" in out
    assert "node0: master=13.09 kreq/s  backup1=13.31 kreq/s" in out


def test_explore_and_check_round_trip(capsys, tmp_path):
    out_dir = str(tmp_path)
    assert main([
        "explore", "--episodes", "1", "--seed", "1",
        "--out", out_dir, "--duration", "0.4", "--check",
    ]) == 0
    stdout = capsys.readouterr().out
    assert "1/1 episodes passed" in stdout
    assert "wrote 1 artifacts" in stdout

    artifact = str(tmp_path / "episode-0000.json")
    assert main(["check", "--replay", artifact]) == 0
    assert "byte-identical replay" in capsys.readouterr().out


def test_fig12_runs_end_to_end(capsys):
    assert main(["fig12"]) == 0
    out = capsys.readouterr().out
    assert "Fig. 12" in out
    assert "instance change" in out


# --------------------------------------------------- exit-code discipline
#
# 0 = success, 1 = a gate caught a genuine finding (--check failure,
# replay mismatch), 2 = usage error (bad arguments, unreadable
# artifacts).  CI relies on 1-vs-2 to tell "the protocol regressed"
# apart from "the job is misconfigured".


def test_search_unknown_strategy_is_a_usage_error(capsys):
    assert main([
        "explore", "--search", "--strategy", "simulated-annealing",
        "--budget", "1",
    ]) == 2
    assert "unknown search strategy" in capsys.readouterr().err


def test_search_unknown_protocol_is_a_usage_error(capsys):
    assert main([
        "explore", "--search", "--protocol", "zyzzyva",
        "--budget", "1", "--duration", "0.4",
    ]) == 2
    assert "zyzzyva" in capsys.readouterr().err


def test_run_unknown_protocol_is_a_usage_error(capsys):
    # The name is only looked up when the deployment is built.
    assert main(["run", "--protocol", "nope", "--rate", "100"]) == 2
    assert "run: unknown protocol variant 'nope'" in capsys.readouterr().err


def test_run_invalid_fault_count_is_a_usage_error(capsys):
    assert main(["run", "--f", "0", "--rate", "100"]) == 2
    assert "run: RBFT needs f >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("protocol", ["pbft", "aardvark", "spinning", "prime"])
def test_run_baseline_with_no_fault_budget_is_a_usage_error(protocol, capsys):
    # f = 0 used to build an n = 1 cluster that completed nothing and
    # exited 0; the baseline configs now apply RBFTConfig's rule.
    assert main(["run", "--protocol", protocol, "--f", "0", "--rate", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and "needs f >= 1 (got f=0)" in err


@pytest.mark.parametrize(
    "duration, reason",
    [
        ("0", "duration must be > 0"),  # used to die on ZeroDivisionError
        ("-1", "duration must be > 0"),  # used to probe, then print 0 completed
        ("0.2", "shorter than duration"),  # inside the scale's warm-up
    ],
)
def test_run_empty_measurement_window_is_a_usage_error(duration, reason, capsys):
    assert main(["run", "--duration", duration, "--rate", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and reason in err


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--duration", "0"], "duration must be > 0"),
        (["--duration", "-0.5"], "duration must be > 0"),
        (["--rate", "0"], "rate must be > 0"),
        (["--rate", "-10"], "rate must be > 0"),
    ],
)
@pytest.mark.parametrize("search", [False, True], ids=["explore", "search"])
def test_explore_without_load_is_a_usage_error(flags, reason, search, capsys):
    # ``explore --duration 0`` used to report "1/1 episodes passed" for
    # an episode that simulated nothing.
    argv = ["explore", "--episodes", "1", "--budget", "1", "--jobs", "1"]
    if search:
        argv.append("--search")
    assert main(argv + flags) == 2
    err = capsys.readouterr().err
    prefix = "explore --search: " if search else "explore: "
    assert err.startswith(prefix) and reason in err


def test_check_replay_of_a_directory(capsys, tmp_path):
    import json

    out_dir = str(tmp_path)
    assert main([
        "explore", "--episodes", "2", "--seed", "1",
        "--out", out_dir, "--duration", "0.4",
    ]) == 0
    capsys.readouterr()

    # A directory expands to every episode artifact inside it.
    assert main(["check", "--replay", out_dir]) == 0
    assert "2/2 byte-identical replays" in capsys.readouterr().out

    # Digest drift in any one artifact is a gate failure (exit 1), the
    # negative test the adversary-regression CI job depends on.
    victim = tmp_path / "episode-0001.json"
    record = json.loads(victim.read_text())
    record["digest"] = "0" * 64
    victim.write_text(json.dumps(record))
    assert main(["check", "--replay", out_dir]) == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_check_replay_usage_errors(capsys, tmp_path):
    # An empty directory has nothing to replay: usage error, not a gate.
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["check", "--replay", str(empty)]) == 2
    assert "no episode artifacts" in capsys.readouterr().err

    # Malformed JSON is a usage error too — a broken pin must not read
    # as "the protocol regressed".
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert main(["check", "--replay", str(broken)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_search_cli_round_trip(capsys, tmp_path):
    out_dir = str(tmp_path / "board")
    assert main([
        "explore", "--search", "--budget", "2", "--seed", "1",
        "--strategy", "bandit", "--out", out_dir,
        "--duration", "0.4", "--check",
    ]) == 0
    stdout = capsys.readouterr().out
    assert "adversary search:" in stdout
    assert "scripted rbft-worst1" in stdout
    assert "scripted rbft-worst2" in stdout

    # The leaderboard's episode artifacts replay like explorer episodes.
    assert main(["check", "--replay", out_dir]) == 0
    assert "byte-identical replays" in capsys.readouterr().out


def test_pinned_episode_validator(tmp_path):
    import json
    import subprocess
    import sys
    from pathlib import Path

    repo = Path(__file__).resolve().parents[2]
    script = str(repo / "tools" / "check_episodes.py")

    def run(directory):
        return subprocess.run(
            [sys.executable, script, str(directory)],
            capture_output=True, text=True,
        )

    # The committed pins must validate.
    assert run(repo / "benchmarks" / "adversary").returncode == 0

    # A pin with a bogus protocol, an unknown fault kind or a missing
    # digest is caught at lint time.
    bad_dir = tmp_path / "pins"
    bad_dir.mkdir()
    (bad_dir / "bad.json").write_text(json.dumps({
        "spec": {
            "seed": 1,
            "protocol": "zyzzyva",
            "plan": [{"kind": "not-a-fault", "params": {}}],
        },
    }))
    verdict = run(bad_dir)
    assert verdict.returncode == 1
    assert "unknown protocol" in verdict.stderr
    assert "unknown fault kind" in verdict.stderr
    assert "digest" in verdict.stderr

    # A pin whose spec crosses the instance-batching threshold is also
    # rejected: replay digests hash the exact per-message schedule, so
    # adversary replays must stay on the exact path.
    deep_dir = tmp_path / "deep"
    deep_dir.mkdir()
    (deep_dir / "deep.json").write_text(json.dumps({
        "spec": {"seed": 1, "f": 5, "plan": []},
        "digest": "0" * 64,
    }))
    verdict = run(deep_dir)
    assert verdict.returncode == 1
    assert "batching threshold" in verdict.stderr


@pytest.mark.parametrize(
    "flags, reason",
    [
        (["--f", "0"], "needs f >= 1"),  # used to die on a traceback, exit 1
        (["--f", "-1"], "needs f >= 1"),
        (["--top", "0"], "top must be >= 1"),
        (["--payload", "-5"], "payload must be >= 0"),
        # used to raise FileNotFoundError only after the whole run
        (["--trace-out", "no/such/dir/fig7.jsonl"], "does not exist"),
    ],
)
def test_profile_invalid_values_are_usage_errors(flags, reason, capsys, tmp_path,
                                                 monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["profile", "fig7"] + flags) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("profile: ") and reason in captured.err
    assert captured.out == ""


def test_run_negative_payload_is_a_usage_error(capsys):
    # used to simulate negative-size requests and exit 0
    assert main(["run", "--payload", "-5", "--rate", "100"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("run: ") and "payload must be >= 0" in err


def _no_figure_runs(monkeypatch):
    import repro.experiments.figures as figures

    def no_run(*args, **kwargs):
        raise AssertionError("a figure ran on invalid flags")

    for runner in ("attack_sweep", "execute_specs", "latency_throughput_curve",
                   "run", "unfair_primary_run"):
        monkeypatch.setattr(figures, runner, no_run)


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["fig8", "--f", "0"], "needs f >= 1"),  # used to die on a traceback, exit 1
        (["fig10", "--f", "-1"], "needs f >= 1"),
        (["fig7", "--payload", "-5"], "payload must be >= 0"),  # likewise
        (["fig9", "--payload", "-1"], "payload must be >= 0"),
        (["table1", "--jobs", "0"], "jobs must be >= 1"),  # used to run serially
        (["fig2", "--jobs", "-3"], "jobs must be >= 1"),
        (["table1", "--f", "2"], "f = 1 only"),  # used to run f = 1 silently
        (["fig12", "--f", "2"], "f = 1 only"),
    ],
)
def test_figure_invalid_values_are_usage_errors(argv, reason, capsys, monkeypatch):
    # Rejected before any capacity probe or simulation is started.
    _no_figure_runs(monkeypatch)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(argv[0] + ": ") and reason in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        # these figures sweep or fix their own request sizes: a
        # --payload used to be accepted, ignored, and exit 0
        ["table1", "--payload", "1024"],
        ["fig1", "--payload", "1024"],
        ["fig8", "--payload", "1024"],
        ["fig10", "--payload", "8"],
        ["fig12", "--payload", "8"],
        # one run, no fan-out: --jobs was accepted and ignored
        ["fig9", "--jobs", "2"],
        ["fig11", "--jobs", "1"],
        ["fig12", "--jobs", "1"],
    ],
)
def test_figure_rejects_flags_it_would_ignore(argv, capsys, monkeypatch):
    _no_figure_runs(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, runner, result",
    [
        ("fig1", "attack_sweep", []),
        ("fig2", "attack_sweep", []),
        ("fig3", "attack_sweep", []),
        ("fig7", "latency_throughput_curve", [
            {"offered": 1.0, "throughput": 1.0, "latency_ms": 1.0},
        ]),
        ("fig8", "attack_sweep", []),
        ("fig9", "run", None),
        ("fig10", "attack_sweep", []),
        ("fig11", "run", None),
    ],
)
def test_figure_passes_f_to_its_runner(command, runner, result, monkeypatch, capsys):
    # Every figure parser accepts --f; a runner called without it
    # silently simulated f = 1.
    import repro.experiments.figures as figures

    seen = []

    def record(*args, **kwargs):
        # run() reads f from its Scenario, the sweeps take it by keyword
        seen.append(args[0].f if runner == "run" else kwargs.get("f"))
        return result

    monkeypatch.setattr(figures, runner, record)
    assert main([command, "--f", "2"]) == 0
    assert seen and set(seen) == {2}
