"""Protocol registry: resolve protocol variants by name.

Every experiment entry point used to carry its own copy of the
protocol dispatch — an if-chain over five deployment builders plus the
per-variant config tweaks.  This module is the single source of truth
instead: each :class:`ProtocolSpec` bundles the variant's

* **config factory** — ``(f, scale) -> protocol config``, applying the
  variant-specific knobs (``rbft-full-order`` orders full requests,
  ``aardvark-no-vc`` disables the grace-period view change, ...);
* **node factory** — the node class instantiated on each machine;
* **cluster settings** — ``config -> ClusterConfig`` keywords: where
  the variant reads ``f`` from and the hardware/transport it runs on
  (Spinning: UDP multicast on a shared NIC; RBFT: its core budget).

:func:`repro.experiments.deployments.deploy` stands any entry up from
those three fields; it is resolved lazily so this module never imports
the experiment layer at import time (the experiment layer imports *us*).

``get(name)`` raises ``ValueError`` for unknown names; ``names()``
returns the registered variants in registration order (the public
``PROTOCOL_VARIANTS`` tuple).  ``register()`` lets external code add a
variant — the only supported way to extend the protocol dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Tuple

__all__ = ["ProtocolSpec", "register", "get", "names"]

#: the master instance's round pacing on RBFT's batched tier (above
#: ``RBFTConfig.pacing_f_threshold``).
PACED_BATCH_DELAY = 10e-3


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything needed to stand up one protocol variant by name."""

    name: str
    #: ``(f, scale) -> config`` — scale supplies monitoring/grace periods.
    config_factory: Callable
    #: node class; one is instantiated per machine.
    node_factory: Callable
    #: ``config -> dict`` of :class:`~repro.common.ClusterConfig` fields
    #: (``f`` plus any hardware/transport settings).
    cluster: Callable

    def build(self, f: int, scale, **kwargs):
        """Make the variant's config and stand up its deployment
        (``kwargs`` as for :func:`~repro.experiments.deployments.deploy`)."""
        from repro.experiments.deployments import deploy

        return deploy(self.name, self.config_factory(f, scale), **kwargs)


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register(spec: ProtocolSpec) -> ProtocolSpec:
    """Add (or replace) a variant; returns the spec for chaining."""
    _REGISTRY[spec.name] = spec
    return spec


def get(name: str) -> ProtocolSpec:
    """Look up a variant by name; raises ``ValueError`` when unknown."""
    _populate()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError("unknown protocol variant %r" % name) from None


def names() -> Tuple[str, ...]:
    """The registered variant names, in registration order."""
    _populate()
    return tuple(_REGISTRY)


def _populate() -> None:
    """Register the built-in variants on first use.

    Deferred so importing :mod:`repro.protocols` stays cheap and free of
    import cycles (the node classes live in packages that themselves
    import :mod:`repro.protocols`).
    """
    if _REGISTRY:
        return
    from repro.core import RBFTConfig, RBFTNode
    from repro.protocols.aardvark import AardvarkConfig, AardvarkNode
    from repro.protocols.base import BftNode, NodeConfig
    from repro.protocols.pbft.engine import InstanceConfig
    from repro.protocols.prime import PrimeConfig, PrimeNode
    from repro.protocols.spinning import SpinningConfig, SpinningNode

    def rbft_config(full_order):
        def factory(f, scale):
            config = RBFTConfig(
                f=f,
                monitoring_period=scale.monitoring_period,
                order_full_requests=full_order,
                # RBFT pins 4 module cores plus one core per ordering
                # instance (f+1); beyond f = 3 the paper's 8-core box
                # cannot hold them, so large-n machines scale their core
                # count with f.  max() keeps f ≤ 3 at exactly 8 cores —
                # seeded small-n runs stay byte-identical.
                cores_per_machine=max(8, 4 + f + 1),
            )
            # Each ordering round costs Θ(n²) certificate messages *per
            # instance*; at n in the hundreds, millisecond-paced rounds
            # would drown the deployment in PREPARE/COMMIT traffic for
            # near-empty batches.  On the batched tier (f above the
            # configurable pacing threshold, default 3) master rounds
            # slow to the paced delay so batches amortise the quadratic
            # fan-out, and backup certificates travel in envelopes.  The
            # f ≤ 3 testbed keeps the paper's 1 ms and the exact path.
            if config.batching_active:
                config = replace(config, batch_delay=PACED_BATCH_DELAY)
            return config

        return factory

    def aardvark_config(view_change):
        def factory(f, scale):
            return AardvarkConfig(
                instance=InstanceConfig(f=f),
                grace_period=(scale.aardvark_grace if view_change else 1e9),
                requirement_period=scale.aardvark_period,
                heartbeat_timeout=0.2,
            )

        return factory

    def spinning_config(f, scale):
        return SpinningConfig(
            instance=InstanceConfig(f=f, auto_advance_view=True, multicast_auth=True)
        )

    def prime_config(f, scale):
        return PrimeConfig(f=f)

    def pbft_config(f, scale):
        return NodeConfig(instance=InstanceConfig(f=f))

    def rbft_cluster(tcp):
        def cluster(config):
            return {"f": config.f, "tcp": tcp, "cores_per_node": config.cores_per_machine}

        return cluster

    def instance_cluster(config):
        return {"f": config.instance.f}

    def spinning_cluster(config):
        # Spinning runs over UDP multicast on a shared NIC (§VI-B).
        return {"f": config.instance.f, "tcp": False, "separate_nics": False}

    def flat_cluster(config):
        return {"f": config.f}

    for name, config_factory, node_factory, cluster in (
        ("rbft", rbft_config(False), RBFTNode, rbft_cluster(True)),
        ("rbft-udp", rbft_config(False), RBFTNode, rbft_cluster(False)),
        ("rbft-full-order", rbft_config(True), RBFTNode, rbft_cluster(True)),
        ("aardvark", aardvark_config(True), AardvarkNode, instance_cluster),
        ("aardvark-no-vc", aardvark_config(False), AardvarkNode, instance_cluster),
        ("spinning", spinning_config, SpinningNode, spinning_cluster),
        ("prime", prime_config, PrimeNode, flat_cluster),
        ("pbft", pbft_config, BftNode, flat_cluster),
    ):
        register(ProtocolSpec(name, config_factory, node_factory, cluster))
