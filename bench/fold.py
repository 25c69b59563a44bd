"""Fold a cProfile run into host self time per ``repro`` package.

A layer is one package of ``src/repro``; ``protocols`` splits by engine
(``protocols.pbft``, ``protocols.prime``, ...) with its top-level
modules as ``protocols.base``.  Built-in and standard-library functions
(``heappush``, ``dict.get``, ``random``) have no package of their own:
their self time is charged to the package of whoever called them, one
level up the pstats caller edges; what even that cannot place — the
harness itself, stdlib called from stdlib — is ``other``.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict

__all__ = ["LAYERS", "layer_of", "fold"]

#: the layers the ledger reports; anything else folds into ``other``.
#: ``faults`` is not among them: its functions only install hooks (605
#: calls, 0.015 % of self time under worst-attack-1) and never run on a
#: fault-free workload, where a host time of exactly 0 is a constant, not
#: a measurement.  What an attack costs lands in ``net`` and ``core``.
LAYERS = (
    "sim", "net", "crypto", "common", "protocols.pbft", "protocols.base",
    "core", "clients", "metrics", "experiments",
)


def layer_of(filename: str, root: str) -> str:
    """The layer owning ``filename``; ``root`` is the ``repro`` package dir.

    ``<root>/protocols/pbft/engine.py`` is ``protocols.pbft``,
    ``<root>/protocols/base.py`` is ``protocols.base``, ``<root>/net/nic.py``
    is ``net``; anything outside ``root`` (or directly in it) is ``other``.
    """
    prefix = root.rstrip(os.sep) + os.sep
    if not filename.startswith(prefix):
        return "other"
    parts = filename[len(prefix):].split(os.sep)
    if len(parts) < 2:
        return "other"
    if parts[0] == "protocols":
        return "protocols.%s" % (parts[1] if len(parts) > 2 else "base")
    return parts[0]


def fold(stats: Dict, root: str) -> Dict[str, Dict[str, float]]:
    """``pstats.Stats(...).stats`` -> ``{layer: {self_s, calls}}``.

    ``stats`` maps ``(filename, line, name)`` to ``(cc, nc, tt, ct,
    callers)``; each ``callers`` entry carries the callee's self time
    spent under that caller, which is what lets built-in time follow its
    caller's package.
    """
    layers: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"self_s": 0.0, "calls": 0}
    )
    for (filename, _line, _name), (_cc, nc, tt, _ct, callers) in stats.items():
        layer = layer_of(filename, root)
        if layer != "other":
            layers[layer]["self_s"] += tt
            layers[layer]["calls"] += nc
            continue
        placed = 0.0
        for (caller_file, _l, _n), edge in callers.items():
            caller_layer = layer_of(caller_file, root)
            if caller_layer != "other":
                layers[caller_layer]["self_s"] += edge[2]
                placed += edge[2]
        layers["other"]["self_s"] += tt - placed
        layers["other"]["calls"] += nc
    return dict(layers)
