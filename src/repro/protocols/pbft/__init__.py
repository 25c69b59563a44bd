"""The three-phase ordering engine and its wire messages."""

from .engine import InstanceConfig, OrderingInstance, RequestPool
from .messages import (
    Checkpoint,
    Commit,
    NewView,
    OrderingMessage,
    PrePrepare,
    Prepare,
    ViewChange,
    batch_payload_size,
)

__all__ = [
    "InstanceConfig",
    "OrderingInstance",
    "RequestPool",
    "Checkpoint",
    "Commit",
    "NewView",
    "OrderingMessage",
    "PrePrepare",
    "Prepare",
    "ViewChange",
    "batch_payload_size",
]
