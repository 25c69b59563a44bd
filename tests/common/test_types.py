"""Unit tests for request/reply types."""

from repro.common import Reply, Request
from repro.crypto import MacAuthenticator, Signature


def make_request(client="client0", rid=1, payload=8):
    return Request(
        client=client,
        rid=rid,
        payload_size=payload,
        signature=Signature(client),
        authenticator=MacAuthenticator(client),
    )


def test_request_id_combines_client_and_rid():
    assert make_request("c1", 7).request_id == ("c1", 7)


def test_digest_depends_on_identity_only():
    assert make_request(rid=1).digest() == make_request(rid=1).digest()
    assert make_request(rid=1).digest() != make_request(rid=2).digest()


def test_identifier_carries_digest():
    request = make_request("c2", 9)
    ident = request.identifier()
    assert ident.client == "c2"
    assert ident.rid == 9
    assert ident.digest == request.digest()
    assert ident.request_id == request.request_id


def test_wire_size_scales_with_payload():
    small = make_request(payload=8).wire_size()
    large = make_request(payload=4096).wire_size()
    assert large - small == 4096 - 8
    assert small > 8  # header + signature + authenticator overhead


def test_identifier_wire_size_is_constant_and_small():
    from repro.common import RequestIdentifier

    assert RequestIdentifier.WIRE_SIZE < make_request(payload=4096).wire_size()


def test_reply_request_id():
    reply = Reply(client="c1", rid=3, result="ok")
    assert reply.request_id == ("c1", 3)


def test_request_shares_one_reply_between_equal_results():
    request = make_request("c1", 3)
    shared = request.reply("ok", 8)
    assert shared == Reply("c1", 3, "ok", 8)
    assert request.reply("ok", 8) is shared
    # A replica that computed something else gets a reply of its own.
    for result, size in (("diverged", 8), ("ok", 16)):
        own = request.reply(result, size)
        assert own == Reply("c1", 3, result, size) and own is not shared
    assert request.reply("ok", 8) is shared  # the first stays memoised
