"""Unit tests for virtual crypto objects."""

import dataclasses
import pickle

import pytest

from repro.crypto import Digest, Mac, MacAuthenticator, Signature


def test_digest_structural_equality():
    assert Digest(("client1", 4)) == Digest(("client1", 4))
    assert Digest(("client1", 4)) != Digest(("client1", 5))


def test_digest_is_hashable():
    seen = {Digest("a"), Digest("a"), Digest("b")}
    assert len(seen) == 2


def test_digest_equal_tokens_are_equal_and_hash_equal():
    token = ("batch", 1, 7, (("c0", 1), ("c1", 4)))
    first, second = Digest(token), Digest(tuple(token))
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert {first: "x"}[second] == "x"
    assert Digest("a") != "a" and Digest(("a",)) != ("a",)


def test_digest_is_an_immutable_slotted_value():
    digest = Digest(("req", "c0", 3))
    with pytest.raises(dataclasses.FrozenInstanceError):
        digest.token = "other"
    # (TypeError: how a frozen slots dataclass rejects a non-field on 3.10/3.11)
    with pytest.raises((AttributeError, TypeError)):
        digest.extra = 1
    with pytest.raises(AttributeError):
        del digest.token
    assert digest.token == ("req", "c0", 3)
    assert not hasattr(digest, "__dict__")  # must not grow per instance


def test_digest_repr_is_unchanged():
    assert repr(Digest(("ckpt", 0, 128))) == "Digest(('ckpt', 0, 128))"
    assert repr(Digest("a")) == "Digest('a')"


def test_digest_pickle_round_trip_rehashes():
    digest = Digest(("batch", 0, 2, (("c0", 1),)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(digest, protocol))
        assert clone == digest and hash(clone) == hash(digest)
        assert clone.token == digest.token
    # The cached hash is derived state: it never travels in the pickle.
    assert Digest.__reduce__(digest) == (Digest, (digest.token,))


def test_mac_validity_flag():
    assert Mac("node0").valid
    assert not Mac("node0", valid=False).valid


def test_authenticator_default_valid_for_everyone():
    auth = MacAuthenticator("node1")
    assert auth.valid_for("node0")
    assert auth.valid_for("node3")
    assert auth.valid_for_any()


def test_authenticator_selective_corruption():
    # worst-attack-1: valid for everyone except the master primary's node.
    auth = MacAuthenticator("client7", invalid_for=frozenset({"node0"}))
    assert not auth.valid_for("node0")
    assert auth.valid_for("node1")


def test_fully_corrupt_authenticator():
    auth = MacAuthenticator.corrupt("node3")
    assert not auth.valid_for_any()


def test_signature_convinces_everyone_or_no_one():
    assert Signature("client2").valid
    assert not Signature("client2", valid=False).valid
