"""Virtual cryptographic objects.

Payloads in the simulator carry *sizes*, not bytes, so authentication
tags are structural: each tag records who produced it and whether it is
valid.  Verification in protocol code is then two separate things —

* a **CPU charge** (from :class:`~repro.crypto.costmodel.CryptoCostModel`)
  paid whether or not the tag is valid, which is what flooding attacks
  with invalid messages exploit (§VI-C), and
* a **boolean check** of the tag, which faulty senders can make fail for
  selected verifiers (worst-attack-1 sends requests that *one* node
  cannot verify).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, Optional

__all__ = ["Digest", "Mac", "MacAuthenticator", "Signature"]


@dataclass(frozen=True, slots=True)
class Digest:
    """A collision-resistant digest, modelled structurally.

    Two digests are equal iff they were computed over the same token; the
    Byzantine model forbids forging collisions (§II), so structural
    equality is faithful.  Digests key every certificate lookup, so the
    hash of the (nested) token is taken once, at construction.
    """

    token: Hashable
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.token,)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Digest, (self.token,))  # re-hash on load: str hashes are per-process

    def __repr__(self) -> str:
        return "Digest(%r)" % (self.token,)


@dataclass(frozen=True, slots=True)
class Mac:
    """A MAC from ``signer`` for a single recipient."""

    signer: str
    valid: bool = True


@dataclass(frozen=True, slots=True)
class MacAuthenticator:
    """An array of per-node MACs (one per recipient, §II).

    ``invalid_for`` lists verifiers whose entry is corrupt.  A Byzantine
    sender can corrupt any subset — e.g. make the entry valid for every
    node except the one hosting the master primary (worst-attack-1).
    ``None`` means valid for everyone (the common case, allocation-free).
    """

    signer: str
    invalid_for: Optional[FrozenSet[str]] = None

    def valid_for(self, verifier: str) -> bool:
        if self.invalid_for is None:
            return True
        return "*" not in self.invalid_for and verifier not in self.invalid_for

    @staticmethod
    def corrupt(signer: str) -> "MacAuthenticator":
        """An authenticator that verifies for nobody (flooding payloads)."""
        return MacAuthenticator(signer=signer, invalid_for=frozenset({"*"}))

    @staticmethod
    def for_signer(signer: str) -> "MacAuthenticator":
        """The interned valid-for-everyone authenticator of ``signer``.

        Authenticators are immutable and compare structurally, so the
        common case — one valid tag per outgoing message — can share a
        single instance per sender instead of allocating per message.
        The table never shrinks, so this is for *cluster principals*
        (nodes, exploded clients) only: a sampled population identity
        gets a plain ``MacAuthenticator(identity)`` that dies with its
        request.
        """
        auth = _VALID_AUTHENTICATORS.get(signer)
        if auth is None:
            auth = _VALID_AUTHENTICATORS[signer] = MacAuthenticator(signer)
        return auth

    def valid_for_any(self) -> bool:
        return self.invalid_for is None or "*" not in self.invalid_for


#: interned valid-for-everyone authenticators, keyed by signer name;
#: bounded by the principals of the largest cluster built in the process.
_VALID_AUTHENTICATORS: Dict[str, MacAuthenticator] = {}


@dataclass(frozen=True, slots=True)
class Signature:
    """A public-key signature by ``signer``.

    Unlike MACs, a valid signature convinces *every* verifier — that is
    the non-repudiation property RBFT needs for forwarded requests
    (§IV-B, step 1).
    """

    signer: str
    valid: bool = True

    @staticmethod
    def for_signer(signer: str) -> "Signature":
        """The interned valid signature of ``signer`` (cf.
        :meth:`MacAuthenticator.for_signer`)."""
        sig = _VALID_SIGNATURES.get(signer)
        if sig is None:
            sig = _VALID_SIGNATURES[signer] = Signature(signer)
        return sig


#: interned valid signatures, keyed by signer name.
_VALID_SIGNATURES: Dict[str, Signature] = {}
