"""Contract of the value types that ride every hop of the request path.

``Request``, ``RequestIdentifier``, ``Reply`` and the three
authentication tags are flat records: no per-instance ``__dict__``,
immutable, compared and hashed field by field.  What they look like
from outside — construction by keyword, ``repr``, pickling, the derived
``request_id``/``wire_size()``/``digest()``/``identifier()`` values —
is pinned here so the layout can change without the behaviour moving.
"""

import dataclasses
import pickle

import pytest

from repro.common import Reply, Request, RequestIdentifier
from repro.crypto import Digest, Mac, MacAuthenticator, Signature
from repro.crypto.costmodel import (
    DIGEST_SIZE,
    MAC_SIZE,
    MESSAGE_HEADER_SIZE,
    SIGNATURE_SIZE,
)

PAYLOADS = (8, 64, 512, 1024, 4096)


def make_request(client="c1", rid=7, payload=8, **kwargs):
    return Request(
        client=client,
        rid=rid,
        payload_size=payload,
        signature=Signature(signer=client),
        authenticator=MacAuthenticator(signer=client),
        **kwargs,
    )


def samples():
    """One instance of each type, a field to overwrite, and its repr."""
    request = make_request()
    return [
        (
            request,
            "rid",
            "Request(client='c1', rid=7, payload_size=8, "
            "signature=Signature(signer='c1', valid=True), "
            "authenticator=MacAuthenticator(signer='c1', invalid_for=None), "
            "exec_cost=None, sent_at=0.0)",
        ),
        (
            request.identifier(),
            "digest",
            "RequestIdentifier(client='c1', rid=7, "
            "digest=Digest(('req', 'c1', 7)))",
        ),
        (
            Reply(client="c1", rid=7, result="ok"),
            "result",
            "Reply(client='c1', rid=7, result='ok', result_size=8)",
        ),
        (Mac(signer="node0", valid=False), "valid", "Mac(signer='node0', valid=False)"),
        (
            MacAuthenticator.corrupt("c1"),
            "invalid_for",
            "MacAuthenticator(signer='c1', invalid_for=frozenset({'*'}))",
        ),
        (
            Signature(signer="c1"),
            "signer",
            "Signature(signer='c1', valid=True)",
        ),
    ]


IDS = [type(value).__name__ for value, _, _ in samples()]


@pytest.mark.parametrize("value, field, text", samples(), ids=IDS)
def test_flat_immutable_record(value, field, text):
    assert not hasattr(value, "__dict__")  # must not grow per instance
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, None)
    # (TypeError: how a frozen slots dataclass rejects a non-field on 3.10/3.11)
    with pytest.raises((AttributeError, TypeError)):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert repr(value) == text


@pytest.mark.parametrize("value, text", [(v, t) for v, _, t in samples()], ids=IDS)
def test_pickle_round_trip(value, text):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(value, protocol))
        assert clone is not value
        assert clone == value and hash(clone) == hash(value)
        assert repr(clone) == text
        assert not hasattr(clone, "__dict__")


def test_equality_and_hash_are_field_wise():
    assert make_request() == make_request()
    assert hash(make_request()) == hash(make_request())
    assert make_request(rid=1) != make_request(rid=2)
    assert make_request(sent_at=0.5) != make_request(sent_at=0.25)
    assert make_request(exec_cost=1e-3) != make_request()
    # Derived and memoised state never takes part in the comparison.
    warm, cold = make_request(), make_request()
    warm.digest(), warm.identifier(), warm.reply("ok", 8)
    assert warm == cold and hash(warm) == hash(cold)
    assert len({warm, cold}) == 1

    digest = Digest(("req", "c1", 7))
    assert RequestIdentifier("c1", 7, digest) == RequestIdentifier("c1", 7, digest)
    assert RequestIdentifier("c1", 7, digest) != RequestIdentifier("c1", 8, digest)
    assert Reply("c1", 7, "ok") == Reply("c1", 7, "ok", 8)
    assert Reply("c1", 7, "ok") != Reply("c1", 7, "no")
    assert Reply("c1", 7, "ok") != ("c1", 7, "ok", 8)
    assert Mac("node0") == Mac("node0", True) != Mac("node0", False)
    assert Signature("c1") == Signature("c1", True) != Signature("c2")
    assert MacAuthenticator("c1") == MacAuthenticator("c1", None)
    assert MacAuthenticator("c1") != MacAuthenticator.corrupt("c1")
    assert Mac("node0") != Signature("node0")  # same fields, different type
    assert len({Mac("a"), Mac("a"), Signature("a"), MacAuthenticator("a")}) == 3


@pytest.mark.parametrize("payload", PAYLOADS)
def test_derived_values_match_their_formulas(payload):
    request = make_request("client3", 41, payload)
    assert request.request_id == ("client3", 41)
    assert request.request_id is request.request_id  # built once
    assert request.wire_size() == (
        MESSAGE_HEADER_SIZE + payload + SIGNATURE_SIZE + 4 * MAC_SIZE
    )
    assert request.digest() == Digest(("req", "client3", 41))
    assert request.digest() is request.digest()  # memoised
    identifier = request.identifier()
    assert identifier is request.identifier()
    assert identifier == RequestIdentifier("client3", 41, request.digest())
    assert identifier.request_id == ("client3", 41)
    assert RequestIdentifier.WIRE_SIZE == 16 + DIGEST_SIZE
    reply = Reply("client3", 41, "ok", result_size=payload)
    assert reply.request_id == ("client3", 41)


def test_memoised_state_survives_pickling():
    request = make_request(payload=4096)
    identifier = request.identifier()
    clone = pickle.loads(pickle.dumps(request))
    assert clone.request_id == request.request_id
    assert clone.wire_size() == request.wire_size()
    assert clone.digest() == request.digest()
    assert clone.identifier() == identifier
    assert hash(clone.identifier().digest) == hash(identifier.digest)


def test_defaults_and_positional_construction():
    request = Request("c1", 1, 8, Signature("c1"), MacAuthenticator("c1"))
    assert request.exec_cost is None and request.sent_at == 0.0
    assert Reply("c1", 1, "ok").result_size == 8
    assert Mac("node0").valid and Signature("c1").valid
    assert MacAuthenticator("c1").invalid_for is None
    with pytest.raises(TypeError):
        Request("c1", 1, 8, Signature("c1"), MacAuthenticator("c1"), request_id=("x", 1))


@pytest.mark.parametrize("payload", PAYLOADS)
def test_wire_messages_carry_sender_and_size(payload):
    from repro.core.messages import PropagateMsg
    from repro.protocols.base import ClientRequestMsg, ReplyMsg

    request = make_request("client3", 41, payload)
    wrapped = ClientRequestMsg(request)
    assert wrapped.sender == "client3"
    assert wrapped.wire_size() == request.wire_size()
    propagate = PropagateMsg("node1", request, MacAuthenticator("node1"))
    assert propagate.sender == "node1" and propagate.kind == "PropagateMsg"
    assert propagate.wire_size() == (
        MESSAGE_HEADER_SIZE + request.wire_size() + 4 * MAC_SIZE
    )
    reply = ReplyMsg(Reply("client3", 41, "ok", payload), Mac("node2"), "node2")
    assert reply.sender == "node2"
    assert reply.wire_size() == MESSAGE_HEADER_SIZE + payload + MAC_SIZE
    assert not hasattr(propagate, "__dict__") and not hasattr(reply, "__dict__")
