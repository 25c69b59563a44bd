"""The cProfile package fold."""

import os

from fold import fold, layer_of

ROOT = os.path.join(os.sep, "x", "src", "repro")


def _path(*parts):
    return os.path.join(ROOT, *parts)


def test_layer_of_splits_protocols_by_engine():
    assert layer_of(_path("net", "nic.py"), ROOT) == "net"
    assert layer_of(_path("protocols", "pbft", "engine.py"), ROOT) == "protocols.pbft"
    assert layer_of(_path("protocols", "prime", "node.py"), ROOT) == "protocols.prime"
    assert layer_of(_path("protocols", "base.py"), ROOT) == "protocols.base"
    assert layer_of(_path("protocols", "registry.py"), ROOT) == "protocols.base"


def test_layer_of_rejects_everything_outside_the_package():
    assert layer_of("~", ROOT) == "other"
    assert layer_of("/usr/lib/python3.11/heapq.py", ROOT) == "other"
    assert layer_of(_path("__init__.py"), ROOT) == "other"
    # A checkout that merely lives under a directory called repro.
    assert layer_of("/tmp/repro/checkout/bench/run.py", ROOT) == "other"


def test_builtin_time_is_charged_to_the_calling_package():
    submit = (_path("sim", "resources.py"), 10, "submit")
    deliver = (_path("net", "network.py"), 20, "_deliver")
    harness = ("/x/bench/drive.py", 5, "drive")
    heappush = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        # (cc, nc, tt, ct, callers); caller edges carry (cc, nc, tt, ct).
        submit: (100, 100, 1.0, 1.5, {harness: (100, 100, 1.0, 1.5)}),
        deliver: (50, 50, 2.0, 2.25, {harness: (50, 50, 2.0, 2.25)}),
        harness: (1, 1, 0.5, 4.25, {}),
        heappush: (150, 150, 0.8, 0.8, {
            submit: (100, 100, 0.5, 0.5),
            deliver: (50, 50, 0.25, 0.25),
            harness: (1, 1, 0.05, 0.05),
        }),
    }
    layers = fold(stats, ROOT)
    assert layers["sim"] == {"self_s": 1.5, "calls": 100}
    assert layers["net"] == {"self_s": 2.25, "calls": 50}
    # The harness itself and the built-in time it caused stay unplaced.
    assert abs(layers["other"]["self_s"] - 0.55) < 1e-12
    total = sum(layer["self_s"] for layer in layers.values())
    assert abs(total - 4.3) < 1e-12  # every second is placed exactly once
