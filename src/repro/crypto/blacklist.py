"""Blacklists for misbehaving principals.

Two flavours appear in the papers reproduced here:

* **client blacklists** (RBFT §IV-B step 1, Aardvark): a client that
  submits a request with an invalid signature is blacklisted and its
  further requests are dropped after the (cheap) MAC check;
* **bounded replica blacklists** (Spinning §III-C): faulty primaries are
  blacklisted so they are skipped by the rotation, but at most ``f``
  replicas may be blacklisted at a time — the oldest entry is evicted to
  preserve liveness.

Client ids may be **virtual population identities** of the form
``"<port>#<index>"`` (see :mod:`repro.clients.population`): a million
declared users share one port, and each sampled identity is banned
individually — exactly as if it were a real client.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Hashable, Optional

__all__ = ["principal_owner", "ClientBlacklist", "BoundedBlacklist"]


def principal_owner(client_id: Hashable) -> Hashable:
    """The port that owns a principal: ``"pop0#42"`` -> ``"pop0"``.

    Non-virtual ids (no ``"#"``, or non-string ids) own themselves.
    """
    if isinstance(client_id, str):
        return client_id.partition("#")[0]
    return client_id


class ClientBlacklist:
    """An unbounded set of banned client ids."""

    def __init__(self) -> None:
        self._banned = set()

    def ban(self, client_id: Hashable) -> None:
        self._banned.add(client_id)

    def banned(self, client_id: Hashable) -> bool:
        return client_id in self._banned

    def __len__(self) -> int:
        return len(self._banned)


class BoundedBlacklist:
    """A FIFO blacklist holding at most ``capacity`` entries.

    Spinning sets ``capacity = f``: "If f replicas are already
    blacklisted, then the oldest one is removed from the blacklist, to
    ensure the liveness of the system."
    """

    def __init__(self, capacity: int):
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, None]" = OrderedDict()

    def ban(self, replica_id: Hashable) -> Optional[Hashable]:
        """Blacklist ``replica_id``; return the evicted entry, if any."""
        if self.capacity == 0:
            return replica_id  # degenerate f=0 system: nothing sticks
        evicted = None
        if replica_id in self._entries:
            self._entries.move_to_end(replica_id)
        else:
            if len(self._entries) >= self.capacity:
                evicted, _ = self._entries.popitem(last=False)
            self._entries[replica_id] = None
        return evicted

    def banned(self, replica_id: Hashable) -> bool:
        return replica_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)
