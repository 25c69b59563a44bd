#!/usr/bin/env python
"""Guard the library's three single points of assembly.

1. **Rate profiles.**  The workload registry (``repro.clients.registry``)
   is the one place that maps pack names to rate-profile constructors;
   ``Scenario(workload=...)`` and ``build_profile`` resolve through it.
   Importing ``static_profile`` and friends directly pins a traffic
   shape the registry no longer controls.  Allowed:

   * ``repro/clients/workloads.py`` — defines them;
   * ``repro/clients/registry.py`` — maps pack names to them;
   * ``repro/clients/__init__.py`` — re-exports them.

2. **Load generators.**  ``run(scenario, attach=...)`` is the one
   assembly of a measured run; a runner that constructs its own
   ``LoadGenerator`` is a second copy of it.  Allowed:

   * ``repro/experiments/scenario.py`` — ``run()`` itself;
   * ``repro/verify/episode.py`` — an episode loads ``clients[1:]``
     under a hand-set config and drains after the load, which a
     ``Scenario`` cannot describe yet.

3. **The replica front.**  ``ReplicaFront`` in
   ``repro/protocols/base.py`` owns every replica's per-client state
   and its reply path; a node that constructs its own
   ``ClientBlacklist``, ``ExecutedIds`` or ``ReplyMsg`` is a second
   copy of it.  Allowed: ``repro/protocols/base.py`` alone.

(Deployments need no such guard: ``deploy`` is the only assembly there
is.)  Everything else under ``src/repro`` goes through the registry and
``run()``.  Exits non-zero listing offending ``file:line`` locations, so
CI can run it as a lint step.  Tests, benchmarks and examples are
exempt: they may pin a concrete profile or drive a run piecewise on
purpose.
"""

from __future__ import annotations

import ast
import os
import sys

PROFILES = frozenset(
    [
        "static_profile",
        "dynamic_profile",
        "diurnal_profile",
        "flash_crowd_profile",
        "churn_profile",
        "heavy_mix_profile",
    ]
)

PROFILES_ALLOWED = frozenset(
    [
        os.path.join("repro", "clients", "workloads.py"),
        os.path.join("repro", "clients", "registry.py"),
        os.path.join("repro", "clients", "__init__.py"),
    ]
)

GENERATORS_ALLOWED = frozenset(
    [
        os.path.join("repro", "experiments", "scenario.py"),
        os.path.join("repro", "verify", "episode.py"),
    ]
)

FRONT_STATE = frozenset(["ClientBlacklist", "ExecutedIds", "ReplyMsg"])

FRONT_ALLOWED = frozenset([os.path.join("repro", "protocols", "base.py")])


def violations_in(path: str, rel: str):
    """Yield (line, message) for each guarded use in one file."""
    with open(path, "r", encoding="utf-8") as fileobj:
        try:
            tree = ast.parse(fileobj.read(), filename=rel)
        except SyntaxError as exc:
            yield (exc.lineno or 0, "syntax error: %s" % exc.msg)
            return
    for node in ast.walk(tree):
        if rel not in PROFILES_ALLOWED:
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    if alias.name in PROFILES:
                        yield (node.lineno, "direct use of %s" % alias.name)
            elif isinstance(node, ast.Attribute) and node.attr in PROFILES:
                yield (node.lineno, "direct use of %s" % node.attr)
        if not isinstance(node, ast.Call):
            continue
        func = node.func  # a Name has .id, an Attribute .attr
        called = getattr(func, "id", getattr(func, "attr", None))
        if called == "LoadGenerator" and rel not in GENERATORS_ALLOWED:
            yield (node.lineno, "LoadGenerator constructed outside run()")
        if called in FRONT_STATE and rel not in FRONT_ALLOWED:
            yield (node.lineno, "%s constructed outside ReplicaFront" % called)


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else "src"
    found = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "repro")):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root)
            for line, message in violations_in(path, rel):
                found.append("%s:%d: %s" % (rel, line, message))
    if found:
        print("lint_builders: library code must resolve rate profiles via")
        print("repro.clients.registry (build_profile), run scenarios")
        print("through repro.experiments.run and keep per-client replica")
        print("state in repro.protocols.base.ReplicaFront:")
        for entry in found:
            print("  " + entry)
        return 1
    print("lint_builders: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
