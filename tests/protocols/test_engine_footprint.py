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


def test_per_engine_memory_budget():
    """n = 16, f = 5: 96 engines, 42 requests ordered by each, drained.

    Counted: every traced byte allocated from ``pbft/engine.py`` (log
    slots, vote maps, the node pools, batchers' callbacks, …) plus the
    engine objects themselves.  With a ``__dict__`` per engine, a
    private handler dict, and a private ``pending`` dict and
    ``_ordered_ids`` set this read 7 720 bytes per engine; slotted, with
    one ``RequestPool`` per node, 2 627.  The ceiling sits between.
    """
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
    traced = sum(
        stat.size
        for stat in snapshot.filter_traces(
            [tracemalloc.Filter(True, engine_module.__file__)]
        ).statistics("filename")
    )
    objects = sum(sys.getsizeof(engine) for engine in engines)
    assert (traced + objects) / len(engines) <= 3500


def test_engine_takes_declared_hooks_only():
    dep = make_deployment("rbft", f=1, n_clients=1, scale=SMOKE)
    engine = dep.nodes[0].engines[0]
    assert not hasattr(engine, "__dict__")
    with pytest.raises(AttributeError):
        engine.submit = lambda item: None  # methods are not patchable
    with pytest.raises(AttributeError):
        engine.some_new_hook = None
    engine.submit_delay_fn = lambda item: 0.0  # the declared way
