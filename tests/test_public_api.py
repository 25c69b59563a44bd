"""Snapshot tests for the stable public API surface.

``repro.__all__`` and ``repro.experiments.__all__`` are the package's
compatibility contract (see docs/api.md).  These tests pin the exact
contents: any addition or removal must be deliberate — update the
snapshot here together with docs/api.md in the same change.
"""

import pickle

import repro
import repro.experiments as experiments

#: the stable top-level surface, exactly.
TOP_LEVEL_API = [
    "__version__",
    "Scenario",
    "Workload",
    "run",
    "RunResult",
    "Simulator",
    "Topology",
]

#: the stable experiment surface, exactly.
EXPERIMENTS_API = [
    "Scenario",
    "Workload",
    "run",
    "Deployment",
    "deploy",
    "PROTOCOL_VARIANTS",
    "RunResult",
    "attack_sweep",
    "latency_throughput_curve",
    "make_deployment",
    "monitoring_view",
    "probe_capacity",
    "relative_throughput",
    "table1",
    "unfair_primary_run",
    "FULL",
    "QUICK",
    "SMOKE",
    "ScenarioScale",
    "current_scale",
    "profile_report",
    "profile_run",
    "execute_specs",
    "execute_tasks",
    "resolve_jobs",
    "SweepResult",
    "seed_sweep",
]


def test_top_level_all_is_pinned():
    assert repro.__all__ == TOP_LEVEL_API


def test_experiments_all_is_pinned():
    assert experiments.__all__ == EXPERIMENTS_API


def test_top_level_names_resolve():
    # PEP 562 lazy exports: every advertised name must actually resolve.
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_experiments_names_resolve():
    for name in experiments.__all__:
        assert getattr(experiments, name) is not None


def test_top_level_dir_covers_all():
    assert set(repro.__all__) <= set(dir(repro))


def test_unknown_attribute_raises():
    try:
        repro.no_such_name
    except AttributeError as exc:
        assert "no_such_name" in str(exc)
    else:
        raise AssertionError("expected AttributeError")


def test_scenario_identity_across_import_paths():
    # The convenience re-export is the same object as the defining module's.
    from repro.experiments.scenario import Scenario as defining

    assert repro.Scenario is defining
    assert experiments.Scenario is defining


def test_scenario_is_hashable_and_picklable():
    workload = repro.Workload("static", rate=1000.0)
    scenario = repro.Scenario(protocol="rbft", workload=workload)
    assert hash(scenario) == hash(
        repro.Scenario(protocol="rbft", workload=workload)
    )
    assert pickle.loads(pickle.dumps(scenario)) == scenario


def test_experiments_import_defers_profiling():
    # Running a scenario must not pay for importing the profiling
    # harness: its two names resolve on first use (a fresh interpreter,
    # so no earlier test's imports are visible).
    import os
    import subprocess
    import sys

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    code = (
        "import sys; sys.path.insert(0, %r)\n" % src
        + "import repro.experiments as e\n"
        "assert set(e._LAZY.values()) == {'profiling'}, e._LAZY\n"
        "assert 'repro.experiments.profiling' not in sys.modules\n"
        "assert set(e.__all__) <= set(dir(e))\n"
        "from repro.experiments import profile_run\n"
        "assert profile_run is "
        "sys.modules['repro.experiments.profiling'].profile_run\n"
        "try:\n"
        "    e.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('expected AttributeError')\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)
