"""End-to-end tests of episodes, replay artifacts, shrinking and the
mutation check: a deliberately broken engine must be caught."""

import json

from repro.verify import (
    EpisodeSpec,
    check_replay,
    explore,
    fault,
    load_episode,
    make_spec,
    run_episode,
    shrink,
    write_episode,
)

#: short load window — safety invariants are duration-independent.
SHORT = dict(duration=0.4, drain=0.6)

#: the validated counterexample recipe for the lowered commit quorum:
#: a throttled master forces view changes while the delay skews message
#: arrival enough that prepared certificates diverge across replicas.
MUTANT_PLAN = (
    fault("throttled-master", rate=400.0),
    fault("delay", extra=5e-3, p=0.5),
)
MUTANT_SEED = 3


def set_commit_quorum(deployment, quorum=lambda config: config.f):
    """Re-seat the COMMIT threshold the engine's vote path reads."""
    for node in deployment.nodes:
        for engine in node.engines:
            assert engine._commit_quorum == engine.config.commit_quorum
            engine._commit_quorum = quorum(engine.config)


def break_commit_quorum(deployment):
    """Lower COMMIT from 2f+1 to f: commit no longer implies quorum."""
    set_commit_quorum(deployment)


def restate_commit_quorum(deployment):
    """The same seat at its stock value 2f+1: a no-op mutation."""
    set_commit_quorum(deployment, lambda config: 2 * config.f + 1)


def test_episode_spec_round_trips_through_json():
    spec = EpisodeSpec(seed=42, plan=MUTANT_PLAN, duration=0.7)
    assert EpisodeSpec.from_json(spec.to_json()) == spec


def test_episode_spec_omits_default_topology_for_artifact_compat():
    # Pre-WAN artifacts carry no "topology" key; regenerating them must
    # stay byte-identical (same rule as the "protocol" field).
    assert "topology" not in EpisodeSpec(seed=1).to_dict()
    wan = EpisodeSpec(seed=1, topology="wan3")
    assert wan.to_dict()["topology"] == "wan3"
    assert EpisodeSpec.from_json(wan.to_json()) == wan


def test_wan_episode_is_deterministic_and_distinct():
    flat = run_episode(EpisodeSpec(seed=7, **SHORT))
    first = run_episode(EpisodeSpec(seed=7, topology="wan3", **SHORT))
    second = run_episode(EpisodeSpec(seed=7, topology="wan3", **SHORT))
    assert first.ok, first.violations
    assert first.digest == second.digest
    assert first.digest != flat.digest  # the geo layout must matter


def test_make_spec_is_deterministic():
    assert make_spec(0, 5) == make_spec(0, 5)
    assert make_spec(0, 5) != make_spec(0, 6)
    assert all(make_spec(0, i).plan for i in range(20))


def test_fault_free_episode_is_clean_and_replays_identically():
    spec = EpisodeSpec(seed=7, **SHORT)
    first = run_episode(spec)
    second = run_episode(spec)
    assert first.ok, first.violations
    assert first.events_seen > 0
    assert first.completed >= 0.95 * first.sent
    assert first.digest == second.digest
    assert first.sent == second.sent and first.completed == second.completed


def test_replay_artifact_round_trips(tmp_path):
    result = run_episode(EpisodeSpec(seed=9, **SHORT))
    path = write_episode(result, str(tmp_path / "episode.json"))
    record = load_episode(path)
    assert record["digest"] == result.digest
    verdict = check_replay(path)
    assert verdict["match"], verdict
    assert verdict["violations"] == sorted(result.violated())


def test_check_replay_detects_digest_drift(tmp_path):
    result = run_episode(EpisodeSpec(seed=9, **SHORT))
    path = write_episode(result, str(tmp_path / "episode.json"))
    record = load_episode(path)
    record["digest"] = "0" * 64
    with open(path, "w", encoding="utf-8") as fileobj:
        json.dump(record, fileobj)
    assert not check_replay(path)["match"]


def test_stock_engine_survives_the_mutant_plan():
    spec = EpisodeSpec(seed=MUTANT_SEED, plan=MUTANT_PLAN)
    result = run_episode(spec)
    assert result.ok, result.violations
    # The mutation seat at 2f+1 is the stock engine, digest and all.
    restated = run_episode(spec, mutate=restate_commit_quorum)
    assert restated.ok, restated.violations
    assert restated.digest == result.digest


def test_lowered_commit_quorum_is_caught_deterministically():
    spec = EpisodeSpec(seed=MUTANT_SEED, plan=MUTANT_PLAN)
    first = run_episode(spec, mutate=break_commit_quorum)
    assert "order-agreement" in first.violated(), first.violations
    # The counterexample replays byte-identically: same digest, same
    # violation set, pointing at the same trace instant.
    second = run_episode(spec, mutate=break_commit_quorum)
    assert first.digest == second.digest
    assert first.violated() == second.violated()
    assert [v["t"] for v in first.violations] == [
        v["t"] for v in second.violations
    ]


def inject_rogue_vote(deployment):
    """Make node1 vote INSTANCE-CHANGE with no observed breach — a
    plan-independent monitoring-consistency violation."""
    deployment.sim.call_after(
        0.2, deployment.nodes[1].vote_instance_change, "rogue"
    )


def test_shrinker_drops_irrelevant_faults():
    # The rogue vote fires no matter what the plan does, so both faults
    # are irrelevant and the 1-minimal counterexample is the empty plan.
    spec = EpisodeSpec(
        seed=5, plan=(fault("junk-clients"), fault("duplicate", p=0.2)),
        **SHORT
    )
    original = run_episode(spec, mutate=inject_rogue_vote)
    assert "monitor-consistency" in original.violated(), original.violations
    minimal_spec, minimal = shrink(
        spec, frozenset({"monitor-consistency"}), mutate=inject_rogue_vote
    )
    assert "monitor-consistency" in minimal.violated()
    assert minimal_spec.plan == ()


def test_shrinker_keeps_load_bearing_faults():
    # Both faults are needed for the quorum mutant to diverge: the
    # throttled master forces view changes, the delay skews arrival.
    # The plan is already 1-minimal and must come back unchanged.
    spec = EpisodeSpec(seed=MUTANT_SEED, plan=MUTANT_PLAN)
    minimal_spec, minimal = shrink(
        spec, frozenset({"order-agreement"}), mutate=break_commit_quorum
    )
    assert minimal_spec.plan == spec.plan
    assert "order-agreement" in minimal.violated()


def test_explore_writes_episode_artifacts(tmp_path):
    report = explore(
        master_seed=1, episodes=2, jobs=1, out_dir=str(tmp_path),
        shrink_failures=False, **SHORT
    )
    assert len(report.results) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "episode-0000.json", "episode-0001.json",
    ]
    for path in report.artifacts:
        record = load_episode(path)
        assert EpisodeSpec.from_dict(record["spec"]).plan
