"""What one ordering instance costs a deployment, as a budget.

A simulated RBFT deployment holds n·(f + 1) engines (3 400 at n = 100,
29 800 at n = 298), so bytes per engine decide how far the versus-n
ladder reaches.  Same shape as ``test_per_identity_memory_budget``.
"""

import sys
import tracemalloc

import pytest

from repro.clients import LoadGenerator, static_profile
from repro.experiments import SMOKE, make_deployment
from repro.protocols.pbft import engine as engine_module


@pytest.fixture(scope="module")
def fault_free_run():
    """n = 16, f = 5: 96 engines, 42 requests ordered by each, drained;
    the deployment and a tracemalloc snapshot taken at the end."""
    tracemalloc.start()
    try:
        dep = make_deployment("rbft", f=5, n_clients=4, scale=SMOKE)
        LoadGenerator(
            dep.sim, dep.clients, static_profile(400.0, 0.1),
            dep.rng.stream("load"),
        ).start()
        dep.sim.run(until=0.6)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    engines = [engine for node in dep.nodes for engine in node.engines]
    assert len(engines) == 96
    completed = sum(client.completed for client in dep.clients)
    assert completed > 30
    for engine in engines:
        sizes = engine.log_sizes()
        assert (sizes["pending"], sizes["ordered_ids"]) == (0, completed)
    return engines, snapshot


def test_per_engine_memory_budget(fault_free_run):
    """Counted: every traced byte allocated from ``pbft/engine.py`` (log
    slots, vote maps, the node pools, batchers' callbacks, …) plus the
    engine objects themselves.  With a ``__dict__`` per engine, a
    private handler dict, and a private ``pending`` dict and
    ``_ordered_ids`` set this read 7 720 bytes per engine; slotted, with
    one ``RequestPool`` per node, 2 627; with fault-path state and the
    batcher built on first write, ≈ 1 960.  The ceiling sits between.
    """
    engines, snapshot = fault_free_run
    traced = sum(
        stat.size
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, engine_module.__file__)]
        ).statistics("filename")
    )
    objects = sum(sys.getsizeof(engine) for engine in engines)
    assert (traced + objects) / len(engines) <= 2300


def test_fault_free_run_builds_no_fault_path_state(fault_free_run):
    engines, _ = fault_free_run
    for engine in engines:
        assert engine.view == 0
        for name in ("_stray", "_stray_owners", "_vc_votes", "_future_held"):
            assert getattr(engine, name) is engine_module._NO_ENTRIES, name
        for name in ("_waiting_guard", "_future", "_held"):
            assert getattr(engine, name) is engine_module._NO_ITEMS, name
        assert (engine._batcher is not None) == engine.is_primary
    assert sum(engine.is_primary for engine in engines) == 6  # one per instance


def test_engine_takes_declared_hooks_only():
    dep = make_deployment("rbft", f=1, n_clients=1, scale=SMOKE)
    engine = dep.nodes[0].engines[0]
    assert not hasattr(engine, "__dict__")
    with pytest.raises(AttributeError):
        engine.submit = lambda item: None  # methods are not patchable
    with pytest.raises(AttributeError):
        engine.some_new_hook = None
    engine.submit_delay_fn = lambda item: 0.0  # the declared way
