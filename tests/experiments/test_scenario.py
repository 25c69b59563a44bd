"""Scenario/run(): the one run path.

``run(Scenario(...))`` is the only way to execute a run and ``Workload``
the one way to describe its traffic; a run is a pure function of its
scenario (RunResult is a plain dataclass; equality is field-by-field,
covering rates, latencies and event counts).
"""

import hashlib

import pytest

from repro.experiments import (
    FIGURES,
    SMOKE,
    Scenario,
    Workload,
    probe_capacity,
    run,
)
from tests.helpers import PIN


def test_runs_are_deterministic():
    scenario = Scenario(
        protocol="rbft", workload=Workload("static", rate=2000.0), scale=SMOKE
    )
    assert run(scenario) == run(scenario)


def test_scenario_run_method_delegates():
    scenario = Scenario(
        protocol="pbft", workload=Workload("static", rate=2000.0), scale=SMOKE
    )
    assert scenario.run() == run(scenario)


def test_attack_scenarios_run():
    """Fig. 8, the paper's headline: worst-attack-1 costs RBFT a few
    percent of its fault-free throughput and never an instance change.
    A fixed saturating rate (no capacity probe); 0.982 on this seed."""
    base = Scenario(
        protocol="rbft",
        workload=Workload("static", rate=38000.0, population=False),
        scale=PIN,
    )
    fault_free = run(base)
    attacked = run(base.with_(attack="rbft-worst1"))
    assert 0.95 <= attacked.executed_rate / fault_free.executed_rate <= 1.02
    assert attacked.instance_changes == 0


def test_scenario_rejects_unknown_workload():
    with pytest.raises(ValueError, match="unknown workload"):
        Scenario(protocol="rbft", workload="bursty")


def test_workload_accepts_pack_name_string():
    scenario = Scenario(protocol="rbft", workload="diurnal")
    assert isinstance(scenario.workload, Workload)
    assert scenario.workload.shape == "diurnal"


def test_unrated_topology_scenario_is_rejected():
    """rate=None means "probe the flat LAN" — silently doing that under
    a WAN topology would measure the wrong deployment."""
    from repro.net.topology import named

    scenario = Scenario(
        protocol="rbft", workload="static", topology=named("wan3"),
        scale=SMOKE,
    )
    with pytest.raises(ValueError, match="topology"):
        run(scenario)


@pytest.mark.parametrize(
    "window, reason",
    [
        (dict(duration=0.0), "duration must be > 0"),
        (dict(duration=-1.0), "duration must be > 0"),
        (dict(warmup=-0.1), "warmup must be >= 0"),
        (dict(duration=0.5, warmup=0.5), "shorter than duration"),
        (dict(duration=0.5, warmup=0.8), "shorter than duration"),
    ],
)
def test_scenario_rejects_an_empty_measurement_window(window, reason):
    with pytest.raises(ValueError, match=reason):
        Scenario(protocol="rbft", **window)


def test_run_rejects_a_resolved_warmup_past_the_duration(monkeypatch):
    """Only run() knows the scale's warm-up (SMOKE: 0.15 s); it must
    refuse the window before probing capacity or building anything."""
    from repro.experiments import runner

    def built(*args, **kwargs):
        raise AssertionError("simulated before validating the window")

    monkeypatch.setattr(runner, "probe_capacity", built)
    monkeypatch.setattr(runner, "make_deployment", built)
    with pytest.raises(ValueError, match="shorter than duration"):
        run(Scenario(protocol="rbft", scale=SMOKE, duration=0.1))


def test_scenario_rejects_a_negative_payload():
    with pytest.raises(ValueError, match="payload must be >= 0"):
        Scenario(protocol="rbft", payload=-5)
    assert Scenario(protocol="rbft", payload=0).payload == 0


@pytest.mark.parametrize(
    "arguments, reason",
    [
        (dict(top=0), "top must be >= 1"),
        (dict(trace_out="no/such/dir/fig7.jsonl"), "does not exist"),
        (dict(payload=-1), "payload must be >= 0"),
    ],
)
def test_profile_rejects_bad_arguments_before_simulating(
    arguments, reason, monkeypatch, tmp_path
):
    from repro.experiments import profiling, runner

    def built(*args, **kwargs):
        raise AssertionError("simulated before validating the arguments")

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(runner, "probe_capacity", built)
    monkeypatch.setattr(runner, "make_deployment", built)
    with pytest.raises(ValueError, match=reason):
        profiling.profile_report("fig7", **arguments)


# ------------------------------------------- the figure paths through run()
#
# The capacity probe, the Figs 9/11 monitoring view and the profile
# report each assembled their own run before they went through run();
# these values were recorded from those hand-built assemblies on the
# short PIN scale, so a drift in run()'s assembly shows up here.


@pytest.mark.parametrize(
    "worst_attack, expected",
    [
        (1, [{"node": "node0", "master": 13087.5, "backup1": 13312.5},
             {"node": "node1", "master": 17500.0, "backup1": 18225.0},
             {"node": "node2", "master": 17500.0, "backup1": 18225.0}]),
        (2, [{"node": "node1", "master": 18300.0, "backup1": 18012.5},
             {"node": "node2", "master": 18300.0, "backup1": 18012.5},
             {"node": "node3", "master": 18300.0, "backup1": 18012.5}]),
    ],
)
def test_monitoring_view_is_pinned(worst_attack, expected):
    figure = FIGURES["fig9" if worst_attack == 1 else "fig11"]
    assert figure.rows(PIN, 1, 1024, None) == expected


@pytest.mark.parametrize(
    "shape, expected",
    [("static", 98.19672131147541),  # the row's static_pct
     ("spike", 96.58925979680697)],  # and its dynamic_pct
)
def test_fig8_row_is_pinned(shape, expected, monkeypatch):
    # Fig. 8's PIN row, one load shape per case: the fault-free and the
    # attacked run of attack_sweep's grid, serial (parallel == serial is
    # test_parallel's).  The probe they share is pinned above.
    from repro.experiments import runner

    monkeypatch.setattr(runner, "_capacity_cache", {
        ("rbft", 8, 1, 20e-6, "pin", 0): 30500.000000000004,
    })
    monkeypatch.delenv("REPRO_CAPACITY_CACHE", raising=False)
    grid = runner._sweep_scenarios("rbft", PIN, "rbft-worst1", 1, 20e-6)
    fault_free, attacked = [run(s) for s in grid if s.workload.shape == shape]
    assert runner._relative_pct(attacked, fault_free) == expected


def test_profile_report_is_pinned():
    from repro.experiments.profiling import profile_report

    report = profile_report("fig8", scale=PIN, payload=4096)
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "fb3d0e911ed421b26e21d0c19e58b2ee6a505e3917fd92d09c45856abb6c6af2"
    )


@pytest.mark.parametrize(
    "protocol, expected",
    [("rbft", 30500.000000000004), ("prime", 10805.555555555557)],
)
def test_probe_capacity_is_pinned(protocol, expected, monkeypatch):
    from repro.experiments import runner

    monkeypatch.setattr(runner, "_capacity_cache", {})
    monkeypatch.delenv("REPRO_CAPACITY_CACHE", raising=False)
    assert probe_capacity(protocol, scale=PIN) == expected


def test_with_replaces_fields():
    base = Scenario(protocol="rbft", workload=Workload("static", rate=2000.0))
    attacked = base.with_(attack="rbft-worst1", seed=9)
    assert attacked.protocol == "rbft"
    assert attacked.attack == "rbft-worst1"
    assert attacked.seed == 9
    assert base.attack is None  # frozen: the original is untouched
