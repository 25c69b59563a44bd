"""Unit tests for the workload registry and the Workload value object."""

import dataclasses

import pytest

from repro.clients import Workload, build_profile
from repro.clients.registry import POPULATION_THRESHOLD, get, names
from repro.experiments import SMOKE, Scenario, run

#: fixed offered rate per pack at a million declared clients (no
#: capacity probe, so every run is the same on every machine); the
#: spike pack's rate is per client.  A pack registered later runs at
#: the static rate instead of being skipped.
PACK_RATES = {
    "static": 20_000.0,
    "spike": 120.0,
    "diurnal": 24_000.0,
    "flash-crowd": 4_000.0,
    "churn": 16_000.0,
    "heavy-mix": 8_000.0,
}


def test_names_are_sorted_and_complete():
    packs = names()
    assert packs == sorted(packs)
    assert set(packs) >= {
        "static", "spike", "diurnal", "flash-crowd", "churn", "heavy-mix",
    }


def test_dynamic_is_an_alias_for_spike():
    assert get("dynamic") is get("spike")
    assert Workload("dynamic", rate=300.0).shape == "spike"


def test_unknown_pack_rejected_with_candidates():
    with pytest.raises(ValueError, match="unknown workload"):
        get("bursty")
    with pytest.raises(ValueError, match="static"):
        get("bursty")  # the message lists the registered packs


def test_workload_validates_its_knobs():
    with pytest.raises(ValueError, match="unknown workload"):
        Workload("bursty")
    with pytest.raises(ValueError, match="sampling"):
        Workload("static", sampling="zipf")
    with pytest.raises(ValueError, match="clients"):
        Workload("static", clients=0)
    with pytest.raises(ValueError, match="rate"):
        Workload("static", rate=-1.0)


def test_workload_is_frozen_and_hashable():
    workload = Workload("static", rate=1000.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        workload.rate = 2000.0
    assert hash(workload) == hash(Workload("static", rate=1000.0))


def test_population_threshold_is_above_every_seeded_client_count():
    # Pre-population seeded runs use at most 50 clients (the §VI-A
    # spike); the threshold must leave them in the exploded regime.
    assert POPULATION_THRESHOLD > 50


def test_default_clients_per_pack():
    assert get("static").default_clients(8) == 12
    assert get("spike").default_clients(8) == 50
    assert get("spike").default_clients(1024) == 18
    assert get("diurnal").default_clients(8) == 1_000_000
    assert get("heavy-mix").default_clients(8) == 10_000


def test_probe_rates_scale_the_measured_capacity():
    capacity = 1200.0
    assert get("static").probe_rate(capacity) == pytest.approx(1500.0)
    assert get("spike").probe_rate(capacity) == pytest.approx(100.0)
    assert get("diurnal").probe_rate(capacity) == pytest.approx(1080.0)


def test_whole_run_flags():
    assert not get("static").whole_run
    assert get("spike").whole_run
    assert get("diurnal").whole_run
    assert get("flash-crowd").whole_run
    assert not get("churn").whole_run
    assert not get("heavy-mix").whole_run


def _rate_changes(profile, samples=1000):
    """The consecutive sample pairs ``rate()`` changes between.

    Samples sit at grid midpoints, so none lands exactly on a step edge.
    """
    step = profile.duration / samples
    times = [(i + 0.5) * step for i in range(samples)]
    return [
        (a, b) for a, b in zip(times, times[1:])
        if profile.rate(a) != profile.rate(b)
    ]


def _active_values(profile, samples=1000):
    step = profile.duration / samples
    return {profile.active((i + 0.5) * step) for i in range(samples)}


def test_static_pack_profile_is_flat_with_declared_boundaries():
    profile = build_profile("static", 1000.0, 2.0)
    assert profile.rate(0.1) == profile.rate(1.9) == 1000.0
    assert _rate_changes(profile) == []
    assert len(_active_values(profile)) == 1


def test_spike_pack_head_count_tracks_payload():
    small = build_profile("spike", 100.0, 10.0, payload=8)
    large = build_profile("spike", 100.0, 10.0, payload=1024)
    assert small.active(5.0) == 50
    assert large.active(5.0) == 18


def test_diurnal_profile_quantizes_a_day():
    profile = build_profile("diurnal", 1000.0, 24.0, clients=100)
    # 24 hourly levels: constant within each hour, changing only across
    # an hour edge — at every interior edge but the symmetric midday
    # plateau between hours 11 and 12.
    changes = _rate_changes(profile, samples=2400)
    assert all(int(a) + 1 == int(b) for a, b in changes)
    edges = {int(b) for _, b in changes}
    assert edges >= set(range(1, 24)) - {12}
    assert _active_values(profile) == {100}
    # Night floor well below the midday peak.
    assert profile.rate(0.1) < 0.25 * profile.rate(12.0)
    assert profile.rate(12.0) <= 1000.0
    assert profile.mean_rate() < 1000.0


def test_flash_crowd_surges_inside_a_declared_window():
    profile = build_profile("flash-crowd", 100.0, 10.0, clients=1000)
    # The surge is found by sampling: one rise and one fall, straddling
    # 0.45 and 0.60 of the duration.
    (rise, fall) = _rate_changes(profile)
    assert rise[0] < 4.5 < rise[1] and fall[0] < 6.0 < fall[1]
    lo, hi = rise[1], fall[0]
    assert profile.rate(lo) == pytest.approx(500.0)
    assert profile.rate(hi) == pytest.approx(500.0)
    assert profile.rate(lo - 0.01) == pytest.approx(100.0)
    assert profile.rate(hi + 0.01) == pytest.approx(100.0)
    # Only a tenth of the population is active outside the surge.
    assert profile.active(lo + 0.01) == 1000
    assert profile.active(0.0) == 100


def test_churn_profile_rolls_the_identity_window():
    profile = build_profile("churn", 100.0, 10.0, clients=1000)
    assert _rate_changes(profile) == []
    assert _active_values(profile) == {100}
    assert profile.window_fn is not None
    assert profile.window_fn(0.0) == 0
    assert profile.window_fn(5.0) == 500
    assert profile.active(3.0) == 100  # 10 % of the population at once


def test_heavy_mix_profile_carries_the_payload_mix():
    profile = build_profile("heavy-mix", 100.0, 10.0)
    assert profile.mix is not None and len(profile.mix) == 8
    assert profile.mix[5] == (1024, None)
    payload, cost = profile.mix[7]
    assert payload == 4096 and cost > 0
    assert _rate_changes(profile) == []
    assert len(_active_values(profile)) == 1


def test_build_profile_rejects_unknown_pack():
    with pytest.raises(ValueError, match="unknown workload"):
        build_profile("bursty", 100.0, 1.0)


@pytest.mark.parametrize("name", names())
def test_every_pack_carries_a_million_declared_clients(name):
    """Every pack declares 10^6 users behind one population port and
    drops no load on the way: it executes at least half of what it
    offers (whole-run packs: of the profile's time average)."""
    result = run(Scenario(
        protocol="rbft",
        workload=Workload(
            name, rate=PACK_RATES.get(name, PACK_RATES["static"]),
            clients=1_000_000,
        ),
        seed=11,
        scale=SMOKE,
        duration=0.2,
    ))
    assert result.declared_clients == 10**6
    assert result.executed_rate >= 0.5 * result.offered_rate
