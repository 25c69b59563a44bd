"""Protocol substrate: types, quorums, batching, services, cluster wiring."""

from .batching import Batcher
from .cluster import ClientPort, Cluster, ClusterConfig, Machine
from .executed import ExecutedIds
from .quorum import (
    QuorumTracker,
    SenderUniverse,
    VectorQuorumTracker,
    quorum_size,
    weak_quorum_size,
)
from .statemachine import KeyValueService, NullService, Service
from .types import Reply, Request, RequestId, RequestIdentifier

__all__ = [
    "Batcher",
    "ClientPort",
    "Cluster",
    "ClusterConfig",
    "Machine",
    "ExecutedIds",
    "QuorumTracker",
    "SenderUniverse",
    "VectorQuorumTracker",
    "quorum_size",
    "weak_quorum_size",
    "KeyValueService",
    "NullService",
    "Service",
    "Reply",
    "Request",
    "RequestId",
    "RequestIdentifier",
]
