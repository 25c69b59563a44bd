#!/usr/bin/env python
"""Forbid direct rate-profile-constructor imports in the library.

The workload registry (``repro.clients.registry``) is the one place that
maps pack names to rate-profile constructors; ``Scenario(workload=...)``
and ``build_profile`` resolve through it.  Importing ``static_profile``
and friends directly pins a traffic shape the registry no longer
controls.  (Deployments need no such guard: ``deploy`` is the only
assembly there is.)

Allowed:

* ``repro/clients/workloads.py`` — defines them;
* ``repro/clients/registry.py`` — maps pack names to them;
* ``repro/clients/__init__.py`` — re-exports them.

Everything else under ``src/repro`` must go through the registry.
Exits non-zero listing offending ``file:line`` locations, so CI can run
it as a lint step.  Tests, benchmarks and examples are exempt: they may
pin a concrete profile on purpose.
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


def violations_in(path: str, rel: str):
    """Yield (line, name) for each direct profile import in one file."""
    if rel in PROFILES_ALLOWED:
        return
    with open(path, "r", encoding="utf-8") as fileobj:
        try:
            tree = ast.parse(fileobj.read(), filename=rel)
        except SyntaxError as exc:
            yield (exc.lineno or 0, "syntax error: %s" % exc.msg)
            return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name in PROFILES:
                    yield (node.lineno, alias.name)
        elif isinstance(node, ast.Attribute) and node.attr in PROFILES:
            yield (node.lineno, node.attr)


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else "src"
    found = []
    for dirpath, _dirnames, filenames in os.walk(os.path.join(root, "repro")):
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, root)
            for line, name in violations_in(path, rel):
                found.append("%s:%d: direct use of %s" % (rel, line, name))
    if found:
        print("lint_builders: library code must resolve rate profiles via")
        print("repro.clients.registry (build_profile), not concrete")
        print("constructors:")
        for entry in found:
            print("  " + entry)
        return 1
    print("lint_builders: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
