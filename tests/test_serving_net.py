"""The networked signing plane: wire protocol, auth, rate limits,
drain, adversarial framing, and the multi-process shard workers.

The adversarial cases pin the server's failure discipline: a hostile
or broken peer earns one clean error frame (or a silent close), never
a traceback, never a wedged server, and never a partially signed
round — the next well-formed connection is served as if nothing
happened.
"""

import asyncio
import copy
import struct

import pytest

from repro.falcon import DecompressError, Signature, decompress
from repro.falcon.params import falcon_params
from repro.falcon.serving import (
    FaultPlan,
    FrameError,
    InjectedFault,
    NetClient,
    NetServer,
    RetryPolicy,
    ServingUnavailable,
    ShardedKeyStore,
    ShardWorkerError,
    ShardWorkerPool,
    SigningService,
    TokenBucket,
    encode_request_frame,
    frame_shape,
)
from repro.falcon.serving.net import (
    ERR_AUTH,
    ERR_BAD_FRAME,
    ERR_DRAINING,
    ERR_RATE_LIMITED,
    ERR_TOO_LARGE,
    ERR_UNSUPPORTED,
    FRAME_ERROR,
    FRAME_SIGN,
    FRAME_SIGN_OK,
    FRAME_VERIFY_OK,
    HEADER_BYTES,
    MAGIC,
    MAX_FRAME_BYTES,
    VERSION,
    _HEADER,
    decode_body,
    encode_frame,
)


# -- frame codec -------------------------------------------------------------

def test_frame_round_trip_and_shape():
    frame = encode_request_frame(FRAME_SIGN, 7, "tenant-a", b"tok",
                                 b"payload")
    kind, req_id, tenant_len, token_len, payload_len = \
        frame_shape(frame)
    assert (kind, req_id) == (FRAME_SIGN, 7)
    assert (tenant_len, token_len, payload_len) == (8, 3, 7)
    tenant, token, payload = decode_body(frame[HEADER_BYTES:])
    assert (tenant, token, payload) == (b"tenant-a", b"tok", b"payload")


def test_decode_body_rejects_truncations():
    frame = encode_request_frame(FRAME_SIGN, 0, "tenant-a", b"tok",
                                 b"payload")
    body = frame[HEADER_BYTES:]
    for cut in (0, 1, 3, len(body) - len(b"payload") - 1):
        with pytest.raises(FrameError):
            decode_body(body[:cut])


def test_token_bucket_refills_on_injected_clock():
    now = [0.0]
    bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: now[0])
    assert bucket.try_take() and bucket.try_take()
    assert not bucket.try_take()  # burst exhausted
    now[0] += 0.5                 # one token refilled
    assert bucket.try_take()
    assert not bucket.try_take()
    with pytest.raises(ValueError):
        TokenBucket(rate=0.0, burst=1.0)


@pytest.mark.parametrize("limits", [
    {"rate_limit": 0.0}, {"rate_limit": -1.0},
    {"rate_limit": float("nan")}, {"rate_limit": 2.0, "burst": 0.0},
    {"rate_limit": 2.0, "burst": -1.0}, {"burst": 4.0}],
    ids=["rate-0", "rate-negative", "rate-nan", "burst-0",
         "burst-negative", "burst-without-rate"])
def test_server_rejects_rate_limits_no_bucket_can_serve(limits):
    """A rate or burst that is not positive leaves no bucket that can
    serve a frame (zero or negative ones made the first frame's bucket
    raise inside the connection handler), so the server refuses it at
    construction."""
    with pytest.raises(ValueError):
        NetServer(None, **limits)


def test_server_refuses_an_empty_token():
    """An empty token equals the empty token a client without one
    sends, so it would switch authentication off for its tenant."""
    with pytest.raises(ValueError, match="must not be empty"):
        NetServer(None, tokens={"alice": b"", "bob": b"b0b"})


# -- loopback helpers --------------------------------------------------------

def _serve(test_body, *, master_seed=21, store=None, n=8, tokens=None,
           rate_limit=None, clock=None, worker_pool=None,
           max_batch=8, max_wait=0.01):
    """Run ``await test_body(service, server)`` against a live
    loopback server over ``store`` (default: a fresh 2-shard store
    from ``master_seed``), then drain everything."""

    async def drive():
        nonlocal store
        if store is None:
            store = ShardedKeyStore(shards=2, master_seed=master_seed)
        service = SigningService(store, n=n, max_batch=max_batch,
                                 max_wait=max_wait,
                                 worker_pool=worker_pool)
        async with service:
            kwargs = {"tokens": tokens, "rate_limit": rate_limit}
            if clock is not None:
                kwargs["clock"] = clock
            server = NetServer(service, **kwargs)
            await server.start("127.0.0.1", 0)
            try:
                return await test_body(service, server)
            finally:
                await server.stop(stop_service=False)

    return asyncio.run(drive())


async def _raw_exchange(port: int, blob: bytes,
                        expect_reply: bool = True) -> bytes | None:
    """Write raw bytes, read one reply frame (or None on close)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(blob)
        await writer.drain()
        if not expect_reply:
            writer.write_eof()
            return None
        header = await reader.readexactly(HEADER_BYTES)
        _magic, _version, _kind, _req_id, body_len = \
            _HEADER.unpack(header)
        return header + await reader.readexactly(body_len)
    finally:
        writer.close()


def _error_code(frame: bytes) -> int:
    kind, _req_id, _t, _tok, _p = frame_shape(frame)
    assert kind == FRAME_ERROR
    _tenant, _token, payload = decode_body(frame[HEADER_BYTES:])
    return int.from_bytes(payload[:2], "big")


# -- happy path over real sockets --------------------------------------------

def test_loopback_round_trip_and_byte_identity():
    """The tentpole acceptance criterion: signatures that travelled
    the wire are byte-identical to a direct ``sign_many`` by a copy of
    the served key taken before serving.  Signatures are
    chunking-faithful (a round of six is not six rounds of one), so
    the frames are pipelined and the batch window held open until all
    six coalesce into one round — the direct call's exact shape."""
    messages = [b"wire-%d" % i for i in range(6)]
    store = ShardedKeyStore(shards=2, master_seed=22)
    twin = copy.deepcopy(store.signer("tenant-a", 8))

    async def body(service, server):
        async with await NetClient.connect(
                "127.0.0.1", server.port) as client:
            signatures = await asyncio.gather(
                *[client.sign("tenant-a", m) for m in messages])
            verdicts = await asyncio.gather(
                *[client.verify("tenant-a", m, s)
                  for m, s in zip(messages, signatures)])
        return signatures, verdicts

    signatures, verdicts = _serve(body, store=store, max_wait=0.3)
    assert verdicts == [True] * len(messages)
    direct = twin.sign_many(messages)
    assert [(s.salt, s.compressed) for s in signatures] == \
        [(s.salt, s.compressed) for s in direct]


def test_pipelined_requests_correlate_by_req_id():
    async def body(service, server):
        async with await NetClient.connect(
                "127.0.0.1", server.port) as client:
            messages = [b"pipeline-%d" % i for i in range(10)]
            signatures = await asyncio.gather(
                *[client.sign(f"tenant-{i % 3}", m)
                  for i, m in enumerate(messages)])
            verdicts = await asyncio.gather(
                *[client.verify(f"tenant-{i % 3}", m, s)
                  for i, (m, s) in enumerate(zip(messages,
                                                 signatures))])
        assert verdicts == [True] * 10
        assert server.metrics.served == 20

    _serve(body)


# -- authentication and rate limiting ----------------------------------------

def test_auth_rejects_wrong_token_and_unknown_tenant_identically():
    tokens = {"tenant-a": b"s3cret"}

    async def body(service, server):
        port = server.port
        async with await NetClient.connect(
                "127.0.0.1", port, tokens=tokens) as good:
            assert await good.sign("tenant-a", b"hello")
        async with await NetClient.connect(
                "127.0.0.1", port,
                tokens={"tenant-a": b"wrong"}) as bad:
            with pytest.raises(FrameError) as wrong_token:
                await bad.sign("tenant-a", b"hello")
            with pytest.raises(FrameError) as unknown_tenant:
                await bad.sign("tenant-zz", b"hello")
        # Same error either way: no tenant-existence oracle.
        assert wrong_token.value.code == ERR_AUTH
        assert unknown_tenant.value.code == ERR_AUTH
        assert str(wrong_token.value) == str(unknown_tenant.value)
        assert server.metrics.rejected["auth-failed"] == 2

    _serve(body, tokens=tokens)


def test_rate_limit_refuses_then_recovers():
    now = [0.0]

    async def body(service, server):
        async with await NetClient.connect(
                "127.0.0.1", server.port) as client:
            for _ in range(4):  # burst = 2 * rate
                await client.sign("tenant-a", b"burst")
            with pytest.raises(FrameError) as refused:
                await client.sign("tenant-a", b"over")
            assert refused.value.code == ERR_RATE_LIMITED
            now[0] += 1.0  # refill: 2 tokens/s
            await client.sign("tenant-a", b"recovered")
        assert server.metrics.rejected["rate-limited"] == 1

    _serve(body, rate_limit=2.0, clock=lambda: now[0])


# -- adversarial framing -----------------------------------------------------

def test_bad_magic_earns_error_and_close_then_server_survives():
    async def body(service, server):
        blob = b"HTTP/1.1 GET /\r\n" + b"\x00" * HEADER_BYTES
        reply = await _raw_exchange(server.port, blob)
        assert _error_code(reply) == ERR_BAD_FRAME
        # The connection is cut off; a well-formed client still works.
        async with await NetClient.connect(
                "127.0.0.1", server.port) as client:
            assert await client.sign("tenant-a", b"after-garbage")

    _serve(body)


def test_unsupported_version_is_refused():
    async def body(service, server):
        frame = encode_request_frame(FRAME_SIGN, 1, "tenant-a", b"",
                                     b"msg")
        blob = (MAGIC + bytes([VERSION + 1]) + frame[5:])
        reply = await _raw_exchange(server.port, blob)
        assert _error_code(reply) == ERR_UNSUPPORTED

    _serve(body)


def test_oversized_length_prefix_refused_before_buffering():
    async def body(service, server):
        hostile = _HEADER.pack(MAGIC, VERSION, FRAME_SIGN, 1,
                               0xFFFFFFFF)
        reply = await _raw_exchange(server.port, hostile)
        assert _error_code(reply) == ERR_TOO_LARGE

    _serve(body)


def test_truncated_body_and_mid_frame_disconnect_leave_server_clean():
    async def body(service, server):
        frame = encode_request_frame(FRAME_SIGN, 1, "tenant-a", b"",
                                     b"message")
        # Send only half the promised body, then disconnect.
        await _raw_exchange(server.port, frame[:HEADER_BYTES + 4],
                            expect_reply=False)
        # Header only, then disconnect.
        await _raw_exchange(server.port, frame[:HEADER_BYTES],
                            expect_reply=False)
        await asyncio.sleep(0.05)
        # Nothing partial leaked into the service...
        assert service.metrics.requests == 0
        # ...and the server still serves.
        async with await NetClient.connect(
                "127.0.0.1", server.port) as client:
            assert await client.sign("tenant-a", b"still-alive")

    _serve(body)


def test_garbled_body_lengths_earn_bad_frame_not_crash():
    async def body(service, server):
        # tenant_len that runs past the body.
        body_bytes = (1000).to_bytes(2, "big") + b"short"
        blob = _HEADER.pack(MAGIC, VERSION, FRAME_SIGN, 9,
                            len(body_bytes)) + body_bytes
        reply = await _raw_exchange(server.port, blob)
        assert _error_code(reply) == ERR_BAD_FRAME

    _serve(body)


def test_unknown_kind_is_an_error_but_keeps_the_connection():
    async def body(service, server):
        bad = encode_request_frame(0x55, 3, "tenant-a", b"", b"x")
        good = encode_request_frame(FRAME_SIGN, 4, "tenant-a", b"",
                                    b"msg")
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", server.port)
        try:
            writer.write(bad + good)
            await writer.drain()
            replies = []
            for _ in range(2):
                header = await reader.readexactly(HEADER_BYTES)
                *_rest, body_len = _HEADER.unpack(header)
                replies.append(header
                               + await reader.readexactly(body_len))
        finally:
            writer.close()
        codes = [frame_shape(reply)[0] for reply in replies]
        assert FRAME_ERROR in codes  # the unknown kind
        assert any(code != FRAME_ERROR for code in codes)  # the sign

    _serve(body)


# -- one decode per signature ------------------------------------------------

def test_noncanonical_signature_verifies_false_over_the_wire():
    """A well-framed but non-canonical signature is a verify lane like
    any other: the round's decoder refuses it and the answer is
    verify-ok false, as ``PublicKey.verify`` says.  The lane counts as
    verified and books no breaker failure; a framing failure still
    earns bad-frame."""
    async def body(service, server):
        async with await NetClient.connect(
                "127.0.0.1", server.port) as client:
            signature = await client.sign("tenant-a", b"canonical")
            blob = bytearray(signature.compressed)
            blob[-1] |= 1  # a padding bit: well framed, not canonical
            bad = Signature(salt=signature.salt, compressed=bytes(blob))
            with pytest.raises(DecompressError, match="padding"):
                decompress(bad.compressed, 8)
            verdict = await client.verify("tenant-a", b"canonical", bad)
            assert verdict is False
            assert service.store.public_key("tenant-a", 8).verify(
                b"canonical", bad) is False
            assert service.metrics.verified == 1
            assert service.metrics.failed_rounds == 0
            assert [breaker.state for breaker in service.breakers] == \
                ["closed", "closed"]
            assert server.metrics.rejected == {}
            short = Signature(salt=signature.salt,
                              compressed=signature.compressed[:-1])
            with pytest.raises(FrameError) as refused:
                await client.verify("tenant-a", b"canonical", short, n=8)
            assert refused.value.code == ERR_BAD_FRAME
            assert await client.verify("tenant-a", b"canonical",
                                       signature)

    _serve(body)


def test_networked_verify_decodes_each_lane_once_and_sign_none(
        monkeypatch):
    """The Golomb–Rice decode runs once per signature, in the verify
    round: k verify lanes over the wire decode k signatures (the frame
    decode used to decode each one first), and a sign over the wire
    decodes none (the client used to decode every sign-ok)."""
    from repro.falcon import batchverify, encoding, scheme

    decoded = [0]

    def count(owner, name, lanes):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            decoded[0] += lanes(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    for owner in (encoding, batchverify, scheme):
        count(owner, "decompress", lambda args: 1)
    count(batchverify, "decompress_rows", lambda args: len(args[0]))
    messages = [b"decode-once-%d" % i for i in range(10)]

    async def body(service, server):
        async with await NetClient.connect(
                "127.0.0.1", server.port) as client:
            signatures = await asyncio.gather(
                *[client.sign("tenant-a", m) for m in messages])
            assert decoded[0] == 0
            verdicts = await asyncio.gather(
                *[client.verify("tenant-a", m, s)
                  for m, s in zip(messages, signatures)])
        assert verdicts == [True] * len(messages)
        assert decoded[0] == len(messages)

    _serve(body, max_batch=16, max_wait=0.2)


# -- responses the client cannot use -----------------------------------------

async def _raw_server(answer, seen: list):
    """A bare asyncio server that answers each request frame with the
    bytes ``answer(kind, req_id)`` returns; ``seen`` gets one entry
    per connection, set to ``"eof"`` when the peer hangs up."""
    async def handle(reader, writer):
        seen.append("open")
        index = len(seen) - 1
        try:
            while True:
                header = await reader.readexactly(HEADER_BYTES)
                *_rest, kind, req_id, body_len = _HEADER.unpack(header)
                await reader.readexactly(body_len)
                writer.write(answer(kind, req_id))
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            seen[index] = "eof"
        finally:
            writer.close()

    return await asyncio.start_server(handle, "127.0.0.1", 0)


def test_undecodable_response_fails_only_its_own_request():
    """A sign-ok whose signature header is bad fails that sign with
    bad-frame.  The frame was length-delimited, so the stream is still
    aligned: the other request in flight on the connection gets its
    own answer."""
    def answer(kind, req_id):
        if kind == FRAME_SIGN:
            return encode_frame(FRAME_SIGN_OK, req_id, b"", b"",
                                b"\x77" + bytes(80))
        return encode_frame(FRAME_VERIFY_OK, req_id, b"", b"", b"\x01")

    width = (falcon_params(8).sig_payload_bits + 7) // 8
    unchecked = Signature(salt=bytes(40), compressed=bytes(width))

    async def drive():
        seen: list = []
        server = await _raw_server(answer, seen)
        port = server.sockets[0].getsockname()[1]
        try:
            async with await NetClient.connect("127.0.0.1",
                                               port) as client:
                signed, verified = await asyncio.wait_for(
                    asyncio.gather(
                        client.sign("tenant-a", b"m"),
                        client.verify("tenant-a", b"m", unchecked),
                        return_exceptions=True), 3.0)
        finally:
            server.close()
            await server.wait_closed()
        assert isinstance(signed, FrameError)
        assert signed.code == ERR_BAD_FRAME
        assert "bad signature header" in str(signed)
        assert verified is True
        assert len(seen) == 1  # one connection served both

    asyncio.run(drive())


def test_oversized_response_length_is_a_garbled_stream():
    """A response BODY_LEN above MAX_FRAME_BYTES is refused like a bad
    magic: the client fails its pending request and hangs up instead
    of buffering the body."""
    def answer(kind, req_id):
        return _HEADER.pack(MAGIC, VERSION, FRAME_SIGN_OK, req_id,
                            MAX_FRAME_BYTES + 1)

    async def drive():
        seen: list = []
        server = await _raw_server(answer, seen)
        port = server.sockets[0].getsockname()[1]
        try:
            async with await NetClient.connect(
                    "127.0.0.1", port,
                    retry=RetryPolicy(attempts=1)) as client:
                with pytest.raises(ServingUnavailable):
                    await asyncio.wait_for(client.sign("tenant-a", b"m"),
                                           3.0)
                for _ in range(300):
                    if seen == ["eof"]:
                        break
                    await asyncio.sleep(0.01)
        finally:
            server.close()
            await server.wait_closed()
        assert seen == ["eof"]

    asyncio.run(drive())


# -- graceful drain ----------------------------------------------------------

def test_drain_refuses_new_frames_and_completes_in_flight():
    async def body(service, server):
        client = await NetClient.connect("127.0.0.1", server.port)
        try:
            in_flight = asyncio.ensure_future(
                client.sign("tenant-a", b"in-flight"))
            while not server.metrics.frames:  # frame is dispatched
                await asyncio.sleep(0.001)
            stop = asyncio.ensure_future(
                server.stop(stop_service=False))
            await asyncio.sleep(0)
            # The in-flight request completes with a real signature.
            assert (await in_flight).salt
            await stop
            # New frames on a live connection are refused as draining
            # (the listener itself is closed, so reuse the socket).
            with pytest.raises((FrameError, ConnectionError)) as err:
                await client.sign("tenant-a", b"late")
            if isinstance(err.value, FrameError):
                assert err.value.code == ERR_DRAINING
        finally:
            await client.close()

    _serve(body)


def test_client_close_fails_pending_cleanly():
    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=23)
        async with SigningService(store, n=8, max_wait=0.2) as service:
            server = NetServer(service)
            await server.start("127.0.0.1", 0)
            client = await NetClient.connect("127.0.0.1", server.port)
            pending = asyncio.ensure_future(
                client.sign("tenant-a", b"doomed"))
            await asyncio.sleep(0)
            await client.close()
            with pytest.raises(ConnectionError):
                await pending
            await server.stop(stop_service=False)

    asyncio.run(drive())


# -- multi-process shard workers ---------------------------------------------

@pytest.mark.parametrize("backing", ["memory", "directory"])
def test_worker_pool_signs_under_the_published_key(tmp_path, backing):
    """Two real worker processes sign with the keys the parent's store
    ships: over a memory-only or a directory-backed store, the
    signatures coming back across the process boundary verify under
    the key the store publishes, in the worker and in the parent, and
    no two share a salt."""
    messages = [b"mp-%d" % i for i in range(4)]
    store = ShardedKeyStore(tmp_path if backing == "directory" else None,
                            shards=2, master_seed=31)
    shard = store.shard_for("tenant-a")
    lanes = ["tenant-a"] * len(messages)
    with ShardWorkerPool(store) as pool:
        outcome = pool.run_round(shard, lanes, "sign", 8, messages)
        verdicts = pool.run_round(shard, lanes, "verify", 8, messages,
                                  signatures=outcome)
    assert verdicts == [True] * len(messages)
    assert store.public_key("tenant-a", 8).verify_many(
        messages, outcome) == [True] * len(messages)
    assert len({s.salt for s in outcome}) == len(messages)


def test_worker_pool_runs_merged_cross_tenant_verify_round():
    """A merged verify round crosses the process boundary with its
    per-lane tenant list; each lane checks against its own tenant's
    key inside the worker."""
    with ShardWorkerPool(ShardedKeyStore(shards=1,
                                         master_seed=34)) as pool:
        sig_a, sig_b = pool.run_round(0, ["tenant-a", "tenant-b"],
                                      "sign", 8, [b"a", b"b"])
        verdicts = pool.run_round(
            0, ["tenant-a", "tenant-b", "tenant-b"], "verify", 8,
            [b"a", b"b", b"a"],
            signatures=[sig_a, sig_b, sig_a])
    assert verdicts == [True, True, False]
    with ShardWorkerPool(ShardedKeyStore(shards=1,
                                         master_seed=32)) as pool:
        # No key exists at n=7: the checkout fails that lane.
        failed = pool.run_round(0, ["tenant-a"], "sign", 7, [b"bad-n"])
        assert isinstance(failed[0], ValueError)
        # The worker survives the failed round.
        outcome = pool.run_round(0, ["tenant-a"], "sign", 8, [b"ok"])
        assert len(outcome) == 1
        assert pool.running


def test_worker_pool_merged_sign_round_signs_each_lane_under_its_key():
    """A merged sign round crosses the process boundary with its
    per-lane tenant list: each tenant's lanes verify under that
    tenant's published key and under no other tenant's, and no two
    lanes share a salt."""
    tenants = ["tenant-a", "tenant-b", "tenant-a", "tenant-c",
               "tenant-b", "tenant-a"]
    messages = [b"merged-mp-%d" % i for i in range(len(tenants))]
    store = ShardedKeyStore(shards=1, master_seed=36)
    with ShardWorkerPool(store) as pool:
        signed = pool.run_round(0, tenants, "sign", 8, messages)
    assert len({s.salt for s in signed}) == len(tenants)
    for tenant in dict.fromkeys(tenants):
        public_key = store.public_key(tenant, 8)
        assert [public_key.verify(m, s)
                for m, s in zip(messages, signed)] == \
            [t == tenant for t in tenants]


def test_worker_pool_poisoned_tenant_fails_only_its_own_lanes():
    """The store's first keystore claim fails (the plan arms the
    parent's store, where keys are checked out), so the tenant checked
    out first in a merged round gets the error on exactly its lanes;
    the other tenant's lanes sign under its published key, and the
    worker keeps serving."""
    plan = FaultPlan(seed=3, fail_claim=1.0, max_per_site=1)
    tenants = ["tenant-poison", "tenant-a", "tenant-poison", "tenant-a"]
    messages = [b"poison-mp-%d" % i for i in range(len(tenants))]
    store = ShardedKeyStore(shards=1, master_seed=38, fault_plan=plan)
    with ShardWorkerPool(store, fault_plan=plan) as pool:
        results = pool.run_round(0, tenants, "sign", 8, messages)
        retry = pool.run_round(0, ["tenant-poison"], "sign", 8,
                               [b"retry"])
        assert pool.running
    assert [type(r) for r in results[::2]] == [InjectedFault] * 2
    assert store.public_key("tenant-a", 8).verify_many(
        messages[1::2], results[1::2]) == [True, True]
    assert store.public_key("tenant-poison", 8).verify(b"retry",
                                                       retry[0])


def test_worker_pool_lifecycle_guards():
    store = ShardedKeyStore(shards=1, master_seed=33)
    pool = ShardWorkerPool(store)
    assert pool.shards == store.shards
    with pytest.raises(ShardWorkerError):
        pool.run_round(0, ["tenant-a"], "sign", 8, [b"not-started"])
    pool.start()
    try:
        with pytest.raises(ValueError):
            pool.run_round(5, ["tenant-a"], "sign", 8, [b"no-shard"])
        # A service routes with its own store, so a pool must ship
        # that store's keys: a pool over another store is refused.
        with pytest.raises(ValueError, match="store"):
            SigningService(ShardedKeyStore(shards=1, master_seed=33),
                           worker_pool=pool)
    finally:
        pool.stop()
    assert not pool.running
    pool.stop()  # idempotent


class _ScriptedPipe:
    """A worker's end of the pipe, fed a fixed list of tasks."""

    def __init__(self, tasks):
        self._tasks = [*tasks, None]  # then the orderly-drain sentinel
        self.replies = []

    def recv(self):
        return self._tasks.pop(0)

    def send(self, reply):
        self.replies.append(reply)

    def close(self):
        pass


def test_worker_keeps_one_load_per_tenant_until_its_key_changes(
        monkeypatch):
    """Run in-process on a scripted pipe, a worker decodes a tenant's
    secret key once and builds its public key once while rounds ship
    equal keys (equal bytes and coefficients, not the same objects, as
    unpickling makes them), and replaces the load when a round ships a
    different key, as after a rotation."""
    from repro.falcon import scheme, serialize
    from repro.falcon.serving.workers import _worker_main

    store = ShardedKeyStore(shards=1, master_seed=37)
    retired = store.encoded_secret_key("tenant-a", 8)
    old_key = store.public_key("tenant-a", 8)
    store.rotate(8)
    fresh = store.encoded_secret_key("tenant-a", 8)
    decoded, built = [], []
    real_decode = serialize.decode_secret_key

    def counting_decode(data, **kwargs):
        decoded.append(data)
        return real_decode(data, **kwargs)

    class CountingPublicKey(scheme.PublicKey):
        def __init__(self, n, h):
            built.append(h)
            super().__init__(n, h)

    monkeypatch.setattr(serialize, "decode_secret_key", counting_decode)
    monkeypatch.setattr(scheme, "PublicKey", CountingPublicKey)
    messages = [b"load-%d" % i for i in range(4)]
    pipe = _ScriptedPipe(
        ("sign", 8, {"tenant-a": bytes(bytearray(blob))}, ["tenant-a"],
         [message], None)
        for blob, message in zip([retired, retired, fresh, fresh],
                                 messages))
    _worker_main(pipe, "chacha20")
    assert decoded == [retired, fresh]
    signatures = [Signature(salt=salt, compressed=compressed)
                  for status, [(salt, compressed)] in pipe.replies]
    assert old_key.verify_many(messages[:2], signatures[:2]) == [True] * 2
    assert store.public_key("tenant-a", 8).verify_many(
        messages[2:], signatures[2:]) == [True] * 2

    h = store.public_key("tenant-a", 8).h
    pipe = _ScriptedPipe(
        ("verify", 8, {"tenant-a": list(h)}, ["tenant-a"], [message],
         [(signature.salt, signature.compressed)])
        for message, signature in zip(messages[2:], signatures[2:]))
    _worker_main(pipe, "chacha20")
    assert pipe.replies == [("ok", [True])] * 2
    assert built == [h]


def test_service_over_worker_pool_end_to_end():
    """SigningService → ShardWorkerPool → worker processes: coalesced
    rounds run out-of-process, with the keys the service's store
    ships, and verify in-process under the keys it publishes."""
    messages = [b"svc-mp-%d" % i for i in range(5)]
    store = ShardedKeyStore(shards=2, master_seed=34)

    async def drive():
        with ShardWorkerPool(store) as pool:
            async with SigningService(store, n=8, max_batch=8,
                                      max_wait=0.3,
                                      worker_pool=pool) as service:
                signatures = await asyncio.gather(
                    *[service.sign("tenant-a", m) for m in messages])
                verdicts = await asyncio.gather(
                    *[service.verify("tenant-a", m, s)
                      for m, s in zip(messages, signatures)])
        return signatures, verdicts

    signatures, verdicts = asyncio.run(drive())
    assert verdicts == [True] * len(messages)
    assert store.public_key("tenant-a", 8).verify_many(
        messages, signatures) == [True] * len(messages)
    assert len({s.salt for s in signatures}) == len(messages)


def test_wire_over_worker_pool_full_stack():
    """The whole plane at once: client frames → NetServer →
    coalescer → worker processes → frames back."""

    async def body(service, server):
        async with await NetClient.connect(
                "127.0.0.1", server.port) as client:
            signature = await client.sign("tenant-a", b"full-stack")
            assert await client.verify("tenant-a", b"full-stack",
                                       signature)

    store = ShardedKeyStore(shards=2, master_seed=35)
    with ShardWorkerPool(store) as pool:
        _serve(body, store=store, worker_pool=pool)
