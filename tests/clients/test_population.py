"""Unit tests for client populations (virtual identity aggregation).

A :class:`ClientPopulation` must be indistinguishable, from the
protocol side, from a pool of exploded clients: per-identity ids,
signatures and MACs; reply quorums per request; reply routing back to
the owner port.  These tests pin that contract at the unit level and,
in ``test_population_matches_exploded_clients``, for whole scenarios on
every protocol family.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.clients import ClientPopulation, LoadGenerator, Workload
from repro.clients.population import IndexBitmap
from repro.clients.registry import build_profile
from repro.common import Cluster, ClusterConfig, Reply
from repro.crypto import Mac, principal_owner
from repro.experiments import SMOKE, Scenario, run
from repro.protocols.base import ReplyMsg
from repro.sim import RngTree, Simulator


def build(f=1, **pop_kwargs):
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(f=f))
    population = ClientPopulation(cluster, size=1000, **pop_kwargs)
    return sim, cluster, population


def reply_from(cluster, node_index, identity, rid, result="ok"):
    machine = cluster.machines[node_index]
    machine.send_to_client(
        identity,
        ReplyMsg(Reply(identity, rid, result), Mac(machine.name), machine.name),
    )


def test_requests_carry_virtual_identities_and_unique_rids():
    sim, cluster, population = build()
    first = population.send_request(index=3)
    second = population.send_request(index=3)
    third = population.send_request(index=999)
    assert first.client == "pop0#3"
    assert third.client == "pop0#999"
    # One global counter: rids never collide across identities.
    assert (first.rid, second.rid, third.rid) == (1, 2, 3)
    assert population.sent == 3
    assert population.identities_seen == {3, 999}


@settings(max_examples=200, deadline=None)
@given(
    case=st.integers(1, 70).flatmap(
        lambda size: st.tuples(
            st.just(size), st.lists(st.integers(0, size - 1), max_size=90)
        )
    )
)
@example(case=(1, [0, 0]))
@example(case=(8, [7, 0, 7]))  # one full byte's edges
@example(case=(9, [8]))  # the lone bit of a partial byte
def test_seen_identities_behave_as_the_int_set(case):
    size, indices = case
    seen, model = IndexBitmap(size), set()
    for index in indices:
        seen.add(index)
        model.add(index)
        assert len(seen) == len(model)
    assert seen == model and model == seen and not seen != model
    assert list(seen) == sorted(model)
    for probe in range(-9, size + 9):
        assert (probe in seen) == (probe in model)
    assert "pop0#0" not in seen and None not in seen
    assert seen - {0} == model - {0} and type(seen - {0}) is set


def test_identity_index_is_validated():
    sim, cluster, population = build()
    with pytest.raises(ValueError, match="outside population"):
        population.send_request(index=1000)
    with pytest.raises(ValueError, match="outside population"):
        population.send_request(index=-1)


def test_population_size_and_sampling_are_validated():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(f=1))
    with pytest.raises(ValueError, match="size"):
        ClientPopulation(cluster, size=0)
    with pytest.raises(ValueError, match="sampling"):
        ClientPopulation(cluster, size=10, name="p2", sampling="zipf")


def test_uniform_sampling_is_seeded_and_in_range():
    def indices(seed):
        sim = Simulator()
        cluster = Cluster(sim, ClusterConfig(f=1, seed=seed))
        population = ClientPopulation(cluster, size=50, sampling="uniform")
        return [population.send_request().client for _ in range(20)]

    first = indices(7)
    assert first == indices(7)
    assert first != indices(8)
    assert all(0 <= int(c.partition("#")[2]) < 50 for c in first)


def test_reply_quorum_completes_per_sampled_identity():
    sim, cluster, population = build()
    request = population.send_request(index=42)
    reply_from(cluster, 0, request.client, request.rid)
    sim.run(until=0.1)
    assert population.completed == 0  # one reply is not enough (f=1)
    reply_from(cluster, 1, request.client, request.rid)
    sim.run(until=0.2)
    assert population.completed == 1
    assert len(population.latencies) == 1
    assert population.outstanding == 0


def test_replies_for_foreign_owner_are_ignored():
    sim, cluster, population = build()
    request = population.send_request(index=0)
    # A reply naming another population's identity must not count even
    # if it lands on this port with a matching rid.
    foreign = Reply("other#0", request.rid, "ok")
    for machine in cluster.machines[:2]:
        population._on_message(
            ReplyMsg(foreign, Mac(machine.name), machine.name)
        )
    assert population.completed == 0


def test_invalid_reply_mac_is_ignored():
    sim, cluster, population = build()
    request = population.send_request(index=5)
    machine = cluster.machines[0]
    population._on_message(
        ReplyMsg(
            Reply(request.client, request.rid, "ok"),
            Mac(machine.name, valid=False),
            machine.name,
        )
    )
    reply_from(cluster, 1, request.client, request.rid)
    sim.run(until=0.1)
    assert population.completed == 0


def test_reply_routing_resolves_owner_alias():
    sim, cluster, population = build()
    machine = cluster.machines[0]
    # The alias resolves to the owner port's downlink channel.
    assert machine.channel_to_client("pop0#7") is machine.channel_to_client(
        "pop0"
    )
    assert machine.channel_to_client("ghost#7") is None


def test_reply_routing_does_not_grow_per_identity_state():
    """Regression: replying to a million identities must stay O(#ports).

    ``channel_to_client`` used to memoise one ``channels_to_clients``
    entry per sampled population identity, so a diurnal run over a
    million-client population grew the dict without bound.
    """
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(f=1))
    population = ClientPopulation(cluster, size=1_000_000)
    machine = cluster.machines[0]
    ports_before = dict(machine.channels_to_clients)
    # A spread of identities across the full million-client range; every
    # one resolves to the owner channel and none leaves a dict entry.
    owner = machine.channel_to_client("pop0")
    for index in range(0, 1_000_000, 9973):
        assert machine.channel_to_client("pop0#%d" % index) is owner
    assert machine.channels_to_clients == ports_before
    assert len(machine.channels_to_clients) == len(cluster.clients)


def test_add_client_rejects_hash_in_names():
    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(f=1))
    with pytest.raises(ValueError, match="'#'"):
        cluster.add_client("pop0#raw")


def test_principal_owner_strips_identity_index():
    assert principal_owner("pop0#42") == "pop0"
    assert principal_owner("client3") == "client3"


def test_fault_knobs_apply_to_the_sampled_identity():
    sim, cluster, population = build()
    request = population.send_request(
        index=2, signature_valid=False, mac_invalid_for=["node0"],
        exec_cost=1e-3, payload_size=512,
    )
    assert request.signature.signer == "pop0#2"
    assert not request.signature.valid
    assert not request.authenticator.valid_for("node0")
    assert request.authenticator.valid_for("node1")
    assert request.exec_cost == 1e-3
    assert request.payload_size == 512


def test_targets_restrict_recipients():
    sim, cluster, population = build()
    got = {name: [] for name in cluster.node_names()}
    for machine in cluster.machines:
        machine.handler = got[machine.name].append
    population.send_request(index=0, targets=["node1", "node2"])
    sim.run(until=0.1)
    assert len(got["node1"]) == 1 and len(got["node2"]) == 1
    assert len(got["node0"]) == 0 and len(got["node3"]) == 0


def test_load_generator_paces_identities_round_robin():
    sim, cluster, population = build()
    generator = LoadGenerator(
        sim, population,
        build_profile("static", 300.0, 1.0, clients=3),
        RngTree(2).stream("load"),
    )
    generator.start()
    sim.run(until=1.0)
    assert generator.generated > 0
    assert generator.total_sent() == generator.generated
    # static packs round-robin over the profile's active window.
    assert population.identities_seen == set(range(10))


def test_load_generator_uniform_population_samples_identities():
    sim, cluster, population = build(sampling="uniform")
    generator = LoadGenerator(
        sim, population,
        build_profile("static", 500.0, 1.0),
        RngTree(3).stream("load"),
    )
    generator.start()
    sim.run(until=1.0)
    assert generator.generated > 0
    # 1000 identities, ~500 draws: far more distinct ids than the
    # 10-wide paced window could ever produce.
    assert len(population.identities_seen) > 100


@pytest.mark.parametrize(
    "protocol", ["rbft", "aardvark", "spinning", "prime", "pbft"]
)
def test_population_matches_exploded_clients(protocol):
    """One aggregated port ≡ six exploded clients, per protocol family.

    Paced identity sampling gives both runs the same arrival schedule,
    so on the PBFT-family protocols they are the same run event for
    event.  Prime picks each request's originator replica by hashing the
    client's name, and ``pop0#3`` hashes differently from ``client3``,
    so its two runs differ by a few dozen events (43,140 vs 43,111)
    while agreeing on every completion.
    """

    def point(population):
        return run(Scenario(
            protocol=protocol,
            workload=Workload(
                "static", rate=1500.0, clients=6, population=population
            ),
            seed=2,
            scale=SMOKE,
        ))

    aggregated, exploded = point(True), point(False)
    assert aggregated.completed == exploded.completed
    assert aggregated.mean_latency == pytest.approx(
        exploded.mean_latency, rel=0.01
    )
    if protocol == "prime":
        assert aggregated.executed_rate == pytest.approx(
            exploded.executed_rate, rel=0.02
        )
    else:
        assert aggregated.events == exploded.events
        assert aggregated.executed_rate == exploded.executed_rate


def test_sampled_identities_are_not_interned():
    """Regression: the ``for_signer`` tables hold cluster principals only.

    Population requests used to intern one authenticator and one
    signature per sampled identity into module-global tables that
    outlive the run, so a process running many population scenarios
    grew without bound.
    """
    from repro.crypto import primitives

    sim = Simulator()
    cluster = Cluster(sim, ClusterConfig(f=1))
    population = ClientPopulation(cluster, size=1_000_000)
    tables = (primitives._VALID_AUTHENTICATORS, primitives._VALID_SIGNATURES)
    before = [len(table) for table in tables]
    for index in range(10_000):
        request = population.send_request(index=index)
    assert request.signature.valid and request.authenticator.valid_for("node0")
    principals = len(cluster.machines) + len(cluster.clients)
    for table, size in zip(tables, before):
        assert len(table) - size <= principals
        assert not any("#" in signer for signer in table)


def test_per_identity_memory_budget():
    """What one fresh client identity costs an n = 4 deployment.

    Every node keeps per-client state (last reply, executed ids), so
    bytes per identity decide how far a population run reaches.  4 800
    identities (just below the point where the per-node dicts next
    grow) read 1 867 traced peak bytes each with dict-backed replies, a
    ``(rid, reply)`` cache tuple and interned per-identity tags, 1 256
    with flat records, 1 005 before the n replicas shared one ``Reply``
    per request and the seen identities became a bitmap, 754 after, and
    667 once the reply became the identity's one ``ExecutedIds`` entry
    (one dict entry per node, not two), and ≈ 645 once latency samples
    and send times became doubles in float blocks and ``ready_ids`` a
    view of ``_given_at``; the ceiling sits between the last two.
    """
    import tracemalloc

    from repro.core import RBFTConfig
    from repro.experiments import deploy

    identities, gap = 4800, 1e-4
    dep = deploy(
        "rbft", RBFTConfig(), n_clients=0,
        clients_factory=lambda cluster, payload: ClientPopulation(
            cluster, size=1_000_000, payload_size=payload
        ),
    )
    population = dep.population
    for index in range(identities):
        dep.sim.call_at(index * gap, population.send_request, index)
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        dep.sim.run(until=identities * gap + 0.1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert population.completed == identities
    assert len(population.identities_seen) == identities
    assert (peak - before) / identities <= 680
