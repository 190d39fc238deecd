"""The wire protocol: length-prefixed asyncio socket frames.

Everything below this module coalesces and signs; this module puts a
**network** in front of it.  The protocol is deliberately minimal —
binary frames over a stream socket, no external dependencies:

Frame layout (all integers big-endian)::

    MAGIC(4) | VERSION(1) | KIND(1) | REQ_ID(4) | BODY_LEN(4) | body
    body := TENANT_LEN(2) tenant | TOKEN_LEN(2) token | payload

* ``MAGIC`` = ``b"FLCN"`` and ``VERSION`` = 1: a peer speaking
  anything else is cut off after one error frame — the stream cannot
  be trusted to stay frame-aligned.
* ``KIND`` selects the operation: ``sign`` (payload = message) and
  ``verify`` (payload = ``SIG_LEN(4) | encoded signature | message``)
  requests; ``sign-ok`` (payload = the canonical
  :func:`~repro.falcon.serialize.encode_signature` bytes — **fixed
  length per ring degree**, so response sizes cannot leak signature
  content), ``verify-ok`` and ``error`` responses.
* A signature on the wire is checked for its **framing** only —
  header, supported degree, 40-byte salt and the payload width for
  that degree (:func:`~repro.falcon.serialize.decode_signature`); a
  framing failure in a ``verify`` request earns a ``bad-frame`` error.
  The verify round decodes the compressed ``s2`` canonically, once per
  lane, so a well-framed but non-canonical signature is answered
  ``verify-ok`` false, as :meth:`~repro.falcon.PublicKey.verify`
  answers it.  The client returns a ``sign-ok`` signature after the
  same framing checks, without decoding ``s2``: a caller that needs
  assurance verifies it.
* ``REQ_ID`` correlates responses with requests: a client may keep
  many requests in flight on one connection and responses return in
  completion order.
* ``BODY_LEN`` is capped (:data:`MAX_FRAME_BYTES`) both ways: an
  adversarial request length prefix is rejected with one error frame
  and a clean close instead of an unbounded allocation, and a client
  treats an oversized response prefix as a garbled stream.

**Authentication** is per tenant: the server holds a ``tenant →
token`` map and every request carries the tenant's token, compared
with :func:`hmac.compare_digest` (no early-exit byte comparison).
**Rate limiting** is a per-tenant token bucket refilled at
``rate_limit`` frames/second with ``burst`` capacity — an exhausted
bucket earns an ``error`` frame, not a closed connection.

**Graceful drain**: :meth:`NetServer.stop` stops accepting
connections and refuses new request frames (``draining`` errors),
waits for every in-flight request to finish its round, then stops the
:class:`~repro.falcon.serving.SigningService` underneath — which
flushes queued rounds and fails anything stranded, so no awaiter ever
hangs on a stopping server.

**Constant-time discipline**: frame shapes — kind, tenant length,
token length, payload length — are a pure function of request
*metadata*, never of message bytes, signature bytes or key material
(responses are fixed-size per degree by the padded signature
encoding).  :func:`repro.ct.coalesce.audit_coalescing` includes frame
shapes alongside round shapes in its two-class dudect pass.
"""

from __future__ import annotations

import asyncio
import hashlib
import hmac
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..scheme import Signature
from ..serialize import SerializeError, decode_signature, encode_signature
from .errors import DeadlineExceeded, ServingUnavailable

MAGIC = b"FLCN"
VERSION = 1

#: Request kinds.
FRAME_SIGN = 0x01
FRAME_VERIFY = 0x02
#: Response kinds.
FRAME_SIGN_OK = 0x81
FRAME_VERIFY_OK = 0x82
FRAME_ERROR = 0xEE

_REQUEST_KINDS = (FRAME_SIGN, FRAME_VERIFY)

#: Error codes carried in the first two bytes of an error payload.
ERR_BAD_FRAME = 1
ERR_UNSUPPORTED = 2
ERR_AUTH = 3
ERR_RATE_LIMITED = 4
ERR_DRAINING = 5
ERR_ROUND_FAILED = 6
ERR_TOO_LARGE = 7

ERROR_NAMES = {
    ERR_BAD_FRAME: "bad-frame",
    ERR_UNSUPPORTED: "unsupported",
    ERR_AUTH: "auth-failed",
    ERR_RATE_LIMITED: "rate-limited",
    ERR_DRAINING: "draining",
    ERR_ROUND_FAILED: "round-failed",
    ERR_TOO_LARGE: "frame-too-large",
}

_HEADER = struct.Struct(">4sBBII")
HEADER_BYTES = _HEADER.size

#: Cap on one frame's body.  Generous for any sane message, tiny
#: against a hostile 4 GiB length prefix.
MAX_FRAME_BYTES = 1 << 20

#: Sign responses the server keeps for req_id dedup; the least
#: recently used is dropped first.
DEDUP_CACHE = 1024


class FrameError(Exception):
    """A protocol-level failure (carries the wire error code)."""

    def __init__(self, code: int, detail: str = "") -> None:
        name = ERROR_NAMES.get(code, str(code))
        super().__init__(f"{name}: {detail}" if detail else name)
        self.code = code
        self.detail = detail


def encode_frame(kind: int, req_id: int, tenant: bytes, token: bytes,
                 payload: bytes) -> bytes:
    """Serialize one frame (the single encoder both ends share)."""
    body = (len(tenant).to_bytes(2, "big") + tenant
            + len(token).to_bytes(2, "big") + token + payload)
    return _HEADER.pack(MAGIC, VERSION, kind, req_id, len(body)) + body


def encode_request_frame(kind: int, req_id: int, tenant: str,
                         token: bytes, payload: bytes) -> bytes:
    """Serialize a request frame (tenant as text, like clients send)."""
    return encode_frame(kind, req_id, tenant.encode(), token, payload)


def decode_body(body: bytes) -> tuple[bytes, bytes, bytes]:
    """Split a frame body into ``(tenant, token, payload)``."""
    if len(body) < 2:
        raise FrameError(ERR_BAD_FRAME, "truncated tenant length")
    tenant_len = int.from_bytes(body[:2], "big")
    offset = 2 + tenant_len
    if len(body) < offset + 2:
        raise FrameError(ERR_BAD_FRAME, "truncated tenant/token")
    token_len = int.from_bytes(body[offset:offset + 2], "big")
    tenant = body[2:offset]
    offset += 2
    if len(body) < offset + token_len:
        raise FrameError(ERR_BAD_FRAME, "truncated token")
    token = body[offset:offset + token_len]
    return tenant, token, body[offset + token_len:]


def frame_shape(frame: bytes) -> tuple[int, int, int, int, int]:
    """The externally observable shape of one encoded frame.

    ``(kind, req_id, tenant_len, token_len, payload_len)`` — exactly
    what a passive observer learns from sizes and headers.  The CT
    audit feeds two secret-differing request classes through the real
    encoder and requires identical shape traces.

    Any malformed input — truncated header, wrong magic/version, a
    ``BODY_LEN`` that disagrees with the bytes present — raises
    :class:`FrameError`, never a bare :class:`struct.error`.
    """
    if len(frame) < HEADER_BYTES:
        raise FrameError(ERR_BAD_FRAME, "truncated header")
    magic, version, kind, req_id, body_len = _HEADER.unpack_from(frame)
    if magic != MAGIC or version != VERSION:
        raise FrameError(ERR_BAD_FRAME, "not a frame")
    if body_len != len(frame) - HEADER_BYTES:
        raise FrameError(
            ERR_BAD_FRAME,
            f"body length {body_len} != {len(frame) - HEADER_BYTES} "
            f"bytes present")
    tenant, token, payload = decode_body(frame[HEADER_BYTES:])
    return kind, req_id, len(tenant), len(token), len(payload)


def encode_verify_payload(signature: Signature, n: int,
                          message: bytes) -> bytes:
    encoded = encode_signature(signature, n)
    return len(encoded).to_bytes(4, "big") + encoded + message


def decode_verify_payload(payload: bytes) -> tuple[Signature, int, bytes]:
    """Split a verify payload into ``(signature, n, message)``.

    The signature gets :func:`decode_signature`'s framing checks (a
    failure is a ``bad-frame`` :class:`FrameError`); its compressed
    ``s2`` is left for the verify round to decode.
    """
    if len(payload) < 4:
        raise FrameError(ERR_BAD_FRAME, "truncated signature length")
    sig_len = int.from_bytes(payload[:4], "big")
    if len(payload) < 4 + sig_len:
        raise FrameError(ERR_BAD_FRAME, "truncated signature")
    try:
        signature, n = decode_signature(payload[4:4 + sig_len])
    except SerializeError as error:
        raise FrameError(ERR_BAD_FRAME, str(error)) from error
    return signature, n, payload[4 + sig_len:]


@dataclass(frozen=True)
class RetryPolicy:
    """Jittered exponential retry backoff, deterministic under a seed.

    ``delay(attempt, token)`` grows ``backoff * multiplier**attempt``
    and spreads it by ±``jitter`` (a fraction of the base), with the
    jitter drawn from SHA-256 over ``(seed, token, attempt)`` — so two
    clients retrying the same outage de-synchronize (no thundering
    herd) yet every run of the chaos suite sleeps the same schedule.
    """

    attempts: int = 3
    backoff: float = 0.05
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delay(self, attempt: int, token: str = "") -> float:
        base = self.backoff * self.multiplier ** attempt
        if self.jitter <= 0.0:
            return base
        material = b"falcon-retry|%d|%s|%d" % (
            self.seed, token.encode("utf-8"), attempt)
        draw = int.from_bytes(
            hashlib.sha256(material).digest()[:8], "big") / 2.0**64
        return base * (1.0 + self.jitter * (2.0 * draw - 1.0))


class TokenBucket:
    """Per-tenant rate limiter: ``rate`` tokens/s, ``burst`` capacity.

    Deterministic and injectable (``clock``) so tests do not sleep.
    """

    def __init__(self, rate: float, burst: float,
                 clock=time.monotonic) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = burst
        self._stamp = clock()

    def try_take(self, amount: float = 1.0) -> bool:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._stamp) * self.rate)
        self._stamp = now
        if self._tokens >= amount:
            self._tokens -= amount
            return True
        return False


@dataclass
class NetServerMetrics:
    """Live counters of one :class:`NetServer`."""

    connections: int = 0
    frames: int = 0
    served: int = 0
    #: Sign requests answered from the req_id dedup cache (a retry of
    #: a request whose response was lost on the wire).
    deduped: int = 0
    rejected: dict[str, int] = field(default_factory=dict)

    def reject(self, code: int) -> None:
        name = ERROR_NAMES.get(code, str(code))
        self.rejected[name] = self.rejected.get(name, 0) + 1

    def as_dict(self) -> dict:
        return {
            "connections": self.connections,
            "frames": self.frames,
            "served": self.served,
            "deduped": self.deduped,
            "rejected": dict(self.rejected),
        }


class NetServer:
    """Asyncio socket front for a :class:`SigningService`.

    ``tokens`` maps tenant name to its authentication token; when
    provided, every request frame must carry the matching token
    (unknown tenants are refused with the same ``auth-failed`` error
    as wrong tokens — the error does not reveal which), and an empty
    token is refused at construction: it would admit a client that
    sends none.  ``None`` disables authentication (loopback demos).
    ``rate_limit`` arms a per-tenant token bucket (``burst`` defaults
    to twice the rate).

    Lifecycle::

        async with SigningService(store, n=64) as service:
            server = NetServer(service, tokens={"tenant-a": b"s3cret"})
            await server.start()          # 127.0.0.1, ephemeral port
            ...                           # clients connect to server.port
            await server.stop()           # graceful drain

    :meth:`stop` drains: the listener closes, request frames arriving
    on live connections are refused with ``draining``, in-flight
    requests finish their rounds, then the service underneath stops
    (flushing its queues and failing anything stranded).
    """

    def __init__(self, service, *,
                 tokens: dict[str, bytes] | None = None,
                 rate_limit: float | None = None,
                 burst: float | None = None,
                 clock=time.monotonic,
                 fault_plan=None) -> None:
        # An empty token matches the empty token a client without one
        # sends, which would switch authentication off for its tenant.
        if tokens is not None and not all(tokens.values()):
            raise ValueError("tenant tokens must not be empty")
        if burst is not None and rate_limit is None:
            raise ValueError("burst needs rate_limit")
        # A bucket needs a positive rate and burst.  TokenBucket checks
        # only when a tenant's first frame builds its bucket, inside the
        # connection handler, where a failure drops the connection.
        if rate_limit is not None and not rate_limit > 0:
            raise ValueError("rate_limit must be positive")
        if burst is not None and not burst > 0:
            raise ValueError("burst must be positive")
        self.service = service
        self.tokens = ({tenant: bytes(token)
                        for tenant, token in tokens.items()}
                       if tokens is not None else None)
        self.rate_limit = rate_limit
        self.burst = (burst if burst is not None
                      else (2.0 * rate_limit if rate_limit else None))
        self.metrics = NetServerMetrics()
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        self._server: asyncio.AbstractServer | None = None
        self._draining = False
        self._inflight: set[asyncio.Task] = set()
        self._connections: set[asyncio.StreamWriter] = set()
        # Wire-level fault injection (outbound frames only — the
        # request path is the client's to break).
        self._faults = (fault_plan.injector()
                        if fault_plan is not None else None)
        # req_id dedup: what makes sign retries safe.  A retried sign
        # whose first attempt DID execute (the response frame was
        # lost) replays the cached response bytes instead of signing
        # again — exactly-once effect over an at-least-once wire.
        # Keyed by (tenant, req_id, payload hash) so one client's
        # req_ids cannot collide with another's for different work.
        self._dedup: OrderedDict = OrderedDict()

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1",
                    port: int = 0) -> None:
        if self._server is not None:
            raise RuntimeError("server already started")
        self._server = await asyncio.start_server(
            self._serve_connection, host, port)

    @property
    def port(self) -> int:
        """The bound port (useful with the ephemeral default)."""
        if self._server is None:
            raise RuntimeError("server is not running")
        return self._server.sockets[0].getsockname()[1]

    async def stop(self, stop_service: bool = True) -> None:
        """Graceful drain (idempotent).

        New connections and new request frames are refused from the
        first moment; every request already dispatched runs its round
        to completion and sends its response; then the listener and
        all connections close, and (by default) the coalescing
        service underneath is stopped too — its own stop flushes
        queued rounds and fails stranded futures, so nothing hangs.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._inflight:
            await asyncio.gather(*tuple(self._inflight),
                                 return_exceptions=True)
        for writer in tuple(self._connections):
            writer.close()
        self._connections.clear()
        if stop_service:
            await self.service.stop()

    # -- the connection loop -----------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    lock: asyncio.Lock, frame: bytes) -> None:
        if self._faults is not None:
            action = self._faults.frame_action()
            if action == "drop":
                return  # the response vanishes on the wire
            if action == "truncate":
                # Half a frame, then cut the connection: the client
                # must treat the stream as unframed from here on.
                async with lock:
                    writer.write(frame[:max(1, len(frame) // 2)])
                    try:
                        await writer.drain()
                    except ConnectionError:
                        pass
                    writer.close()
                return
            if isinstance(action, tuple):  # ("delay", seconds)
                await asyncio.sleep(action[1])
        async with lock:
            writer.write(frame)
            await writer.drain()

    async def _send_error(self, writer, lock, req_id: int, code: int,
                          detail: str = "") -> None:
        self.metrics.reject(code)
        payload = code.to_bytes(2, "big") + detail.encode()
        await self._send(writer, lock, encode_frame(
            FRAME_ERROR, req_id, b"", b"", payload))

    def _authorize(self, tenant: str, token: bytes) -> bool:
        if self.tokens is None:
            return True
        expected = self.tokens.get(tenant)
        # Compare against a dummy for unknown tenants too: one code
        # path, one error, no tenant-existence oracle.
        reference = expected if expected is not None else b"\x00"
        valid = hmac.compare_digest(reference, token)
        return valid and expected is not None

    def _rate_ok(self, tenant: str) -> bool:
        if self.rate_limit is None:
            return True
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = self._buckets.setdefault(
                tenant, TokenBucket(self.rate_limit, self.burst,
                                    clock=self._clock))
        return bucket.try_take()

    async def _serve_connection(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        self.metrics.connections += 1
        self._connections.add(writer)
        lock = asyncio.Lock()
        try:
            while True:
                try:
                    header = await reader.readexactly(HEADER_BYTES)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # clean EOF or mid-frame disconnect
                magic, version, kind, req_id, body_len = \
                    _HEADER.unpack(header)
                if magic != MAGIC:
                    # The stream is not frame-aligned: one error,
                    # then cut the peer off.
                    await self._send_error(writer, lock, req_id,
                                           ERR_BAD_FRAME, "bad magic")
                    return
                if version != VERSION:
                    await self._send_error(writer, lock, req_id,
                                           ERR_UNSUPPORTED,
                                           f"version {version}")
                    return
                if body_len > MAX_FRAME_BYTES:
                    # An adversarial length prefix: refuse before
                    # buffering a byte of it.
                    await self._send_error(writer, lock, req_id,
                                           ERR_TOO_LARGE,
                                           f"{body_len} bytes")
                    return
                try:
                    body = await reader.readexactly(body_len)
                except (asyncio.IncompleteReadError, ConnectionError):
                    return  # disconnected mid-frame: nothing partial
                self.metrics.frames += 1
                if kind not in _REQUEST_KINDS:
                    await self._send_error(writer, lock, req_id,
                                           ERR_BAD_FRAME,
                                           f"kind 0x{kind:02x}")
                    continue
                try:
                    tenant_raw, token, payload = decode_body(body)
                    tenant = tenant_raw.decode("utf-8")
                except (FrameError, UnicodeDecodeError) as error:
                    await self._send_error(writer, lock, req_id,
                                           ERR_BAD_FRAME, str(error))
                    continue
                if self._draining:
                    await self._send_error(writer, lock, req_id,
                                           ERR_DRAINING)
                    continue
                if not self._authorize(tenant, token):
                    await self._send_error(writer, lock, req_id,
                                           ERR_AUTH)
                    continue
                if not self._rate_ok(tenant):
                    await self._send_error(writer, lock, req_id,
                                           ERR_RATE_LIMITED)
                    continue
                task = asyncio.ensure_future(self._dispatch(
                    writer, lock, kind, req_id, tenant, payload))
                self._inflight.add(task)
                task.add_done_callback(self._inflight.discard)
        finally:
            self._connections.discard(writer)
            writer.close()

    async def _dispatch(self, writer, lock, kind: int, req_id: int,
                        tenant: str, payload: bytes) -> None:
        """Run one authorized request through the coalescing service
        and send its response frame.  Any failure answers with an
        error frame — a poison request never takes the connection
        (let alone the server) down with it."""
        if kind == FRAME_SIGN:
            dedup_key = (tenant, req_id,
                         hashlib.sha256(payload).digest()[:8])
            cached = self._dedup.get(dedup_key)
            if cached is not None:
                # A retry of work already done: replay the exact
                # response bytes, sign nothing twice.
                self._dedup.move_to_end(dedup_key)
                self.metrics.deduped += 1
                await self._send(writer, lock, cached)
                self.metrics.served += 1
                return
        try:
            if kind == FRAME_SIGN:
                signature = await self.service.sign(tenant, payload)
                response = encode_frame(
                    FRAME_SIGN_OK, req_id, b"", b"",
                    encode_signature(signature, self.service.n))
                # Cache BEFORE sending: a response lost on the wire
                # must still be replayable.
                self._dedup[dedup_key] = response
                while len(self._dedup) > DEDUP_CACHE:
                    self._dedup.popitem(last=False)
            else:
                signature, _n, message = decode_verify_payload(payload)
                verdict = await self.service.verify(tenant, message,
                                                    signature)
                response = encode_frame(FRAME_VERIFY_OK, req_id, b"",
                                        b"", b"\x01" if verdict
                                        else b"\x00")
            await self._send(writer, lock, response)
            self.metrics.served += 1
        except FrameError as error:
            await self._send_error(writer, lock, req_id, error.code,
                                   error.detail)
        except ConnectionError:  # peer vanished awaiting the round
            pass
        except Exception as error:
            # The detail is the exception CLASS only: failure-path
            # frames must not vary with request content (str(error)
            # can embed message-derived state), so error frames stay
            # a pure function of the failure class — audited in
            # repro.ct.coalesce alongside the success shapes.
            await self._send_error(writer, lock, req_id,
                                   ERR_ROUND_FAILED,
                                   type(error).__name__)


class NetClient:
    """Async client for :class:`NetServer` (one connection, many
    in-flight requests, responses correlated by request id).

    ``tokens`` maps tenant to its auth token (missing tenants send an
    empty token).  Usable as an async context manager::

        async with await NetClient.connect("127.0.0.1", port,
                                           tokens=tokens) as client:
            signature = await client.sign("tenant-a", b"message")
            assert await client.verify("tenant-a", b"message",
                                       signature)

    Server-side refusals raise :class:`FrameError` with the wire code
    (``auth-failed``, ``rate-limited``, ``draining``, ...), and so
    does a response whose body fails to decode (``bad-frame``, that
    request only); a dropped connection or a garbled response stream
    fails every pending request with :class:`ServingUnavailable` (a
    ``ConnectionError``) — a client never hangs on a dead peer.

    **Timeouts and retries.**  ``connect_timeout`` bounds dialing,
    ``request_timeout`` bounds each round-trip; on transport failure
    (connection lost, truncated stream, timeout) the client reconnects
    and retries under ``retry`` (a :class:`RetryPolicy`; attempts=1
    disables).  Retries reuse the SAME req_id, so a sign whose first
    attempt executed — only the response was lost — is answered from
    the server's dedup cache, never signed twice.  Every ``sign`` /
    ``verify`` takes ``deadline=`` (absolute event-loop time): the
    call raises :class:`DeadlineExceeded` rather than outlive it.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter, *,
                 tokens: dict[str, bytes] | None = None,
                 host: str | None = None,
                 port: int | None = None,
                 connect_timeout: float = 5.0,
                 request_timeout: float | None = None,
                 retry: RetryPolicy | None = None) -> None:
        self._reader = reader
        self._writer = writer
        self._tokens = dict(tokens) if tokens else {}
        self._host = host
        self._port = port
        self._connect_timeout = connect_timeout
        self._request_timeout = request_timeout
        self._retry = retry if retry is not None else RetryPolicy()
        self._pending: dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._write_lock = asyncio.Lock()
        self._closed = False
        self._reader_task = asyncio.ensure_future(self._read_loop())

    @classmethod
    async def connect(cls, host: str, port: int, *,
                      tokens: dict[str, bytes] | None = None,
                      connect_timeout: float = 5.0,
                      request_timeout: float | None = None,
                      retry: RetryPolicy | None = None
                      ) -> "NetClient":
        reader, writer = await cls._dial(host, port, connect_timeout)
        return cls(reader, writer, tokens=tokens, host=host,
                   port=port, connect_timeout=connect_timeout,
                   request_timeout=request_timeout, retry=retry)

    @staticmethod
    async def _dial(host: str, port: int, timeout: float):
        try:
            return await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout)
        except asyncio.TimeoutError:
            raise ServingUnavailable(
                f"connect to {host}:{port} timed out after "
                f"{timeout}s") from None
        except OSError as error:
            raise ServingUnavailable(
                f"cannot connect to {host}:{port}: {error}"
            ) from error

    async def __aenter__(self) -> "NetClient":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def close(self) -> None:
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except (asyncio.CancelledError, Exception):
            pass
        self._writer.close()
        self._fail_pending(ServingUnavailable("client closed"))

    def _fail_pending(self, error: Exception) -> None:
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(error)

    async def _ensure_connected(self) -> None:
        """Reconnect after a transport failure (retry support).

        Only clients built through :meth:`connect` know their
        endpoint; a raw reader/writer pair cannot be re-dialed and
        stays failed.
        """
        if self._closed:
            raise ServingUnavailable("client closed")
        if not self._writer.is_closing():
            return
        if self._host is None or self._port is None:
            raise ServingUnavailable(
                "connection lost (no endpoint to reconnect)")
        reader, writer = await self._dial(self._host, self._port,
                                          self._connect_timeout)
        self._reader = reader
        self._writer = writer
        self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_loop(self) -> None:
        writer = self._writer
        try:
            while True:
                header = await self._reader.readexactly(HEADER_BYTES)
                magic, version, kind, req_id, body_len = \
                    _HEADER.unpack(header)
                if (magic != MAGIC or version != VERSION
                        or body_len > MAX_FRAME_BYTES):
                    raise FrameError(ERR_BAD_FRAME,
                                     "garbled response stream")
                body = await self._reader.readexactly(body_len)
                future = self._pending.pop(req_id, None)
                if future is None or future.done():
                    continue  # response to a forgotten request
                outcome = _response_outcome(kind, body)
                if isinstance(outcome, FrameError):
                    future.set_exception(outcome)
                else:
                    future.set_result(outcome)
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.CancelledError, FrameError):
            writer.close()
            self._fail_pending(ServingUnavailable("connection lost"))
        except Exception as error:  # pragma: no cover - defensive
            writer.close()
            self._fail_pending(error)

    async def _attempt(self, kind: int, req_id: int, tenant: str,
                       payload: bytes, deadline: float | None):
        """One request round-trip, bounded by the request timeout and
        the caller's deadline.  Transport failures surface as
        :class:`ServingUnavailable` (retryable); a passed deadline as
        :class:`DeadlineExceeded` (not)."""
        loop = asyncio.get_running_loop()
        await self._ensure_connected()
        future = loop.create_future()
        self._pending[req_id] = future
        token = self._tokens.get(tenant, b"")
        frame = encode_request_frame(kind, req_id, tenant, token,
                                     payload)
        try:
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except (ConnectionError, OSError) as error:
            self._pending.pop(req_id, None)
            raise ServingUnavailable(
                f"connection lost sending request: {error}"
            ) from error
        timeout = self._request_timeout
        if deadline is not None:
            remaining = deadline - loop.time()
            if remaining <= 0:
                self._pending.pop(req_id, None)
                raise DeadlineExceeded("deadline passed")
            timeout = (remaining if timeout is None
                       else min(timeout, remaining))
        if timeout is None:
            return await future
        try:
            return await asyncio.wait_for(future, timeout)
        except asyncio.TimeoutError:
            self._pending.pop(req_id, None)
            if deadline is not None and loop.time() >= deadline:
                raise DeadlineExceeded(
                    "deadline passed awaiting response") from None
            raise ServingUnavailable(
                f"request timed out after {timeout:.3f}s") from None

    async def _request(self, kind: int, tenant: str, payload: bytes,
                       deadline: float | None = None):
        req_id = self._next_id
        self._next_id = (self._next_id + 1) & 0xFFFFFFFF
        loop = asyncio.get_running_loop()
        attempts = max(1, self._retry.attempts)
        for attempt in range(attempts):
            try:
                return await self._attempt(kind, req_id, tenant,
                                           payload, deadline)
            except ServingUnavailable:
                # Transport failure: retrying is safe — verify is
                # idempotent and sign replays the SAME req_id, which
                # the server's dedup cache answers without signing
                # twice.  Server-spoken refusals (FrameError) and
                # passed deadlines are NOT retried.
                if attempt + 1 >= attempts:
                    raise
                delay = self._retry.delay(attempt,
                                          token=f"{tenant}|{req_id}")
                if (deadline is not None
                        and loop.time() + delay >= deadline):
                    raise
                await asyncio.sleep(delay)

    async def sign(self, tenant: str, message: bytes, *,
                   deadline: float | None = None) -> Signature:
        """Sign ``message`` under ``tenant``'s key, over the wire.  The
        signature is framing-checked, not verified: a caller that needs
        assurance verifies it."""
        return await self._request(FRAME_SIGN, tenant, message,
                                   deadline)

    async def verify(self, tenant: str, message: bytes,
                     signature: Signature, n: int | None = None, *,
                     deadline: float | None = None) -> bool:
        """Verify over the wire (``n`` defaults to the signature's
        natural degree as carried by its encoding header)."""
        if n is None:
            n = _degree_from_signature(signature)
        payload = encode_verify_payload(signature, n, message)
        return await self._request(FRAME_VERIFY, tenant, payload,
                                   deadline)


def _response_outcome(kind: int, body: bytes):
    """What one response frame answers: a :class:`Signature`, a
    verdict, or the :class:`FrameError` its request fails with.  A body
    that does not decode fails that one request with ``bad-frame``: the
    frame was length-delimited, so the stream is still aligned."""
    try:
        _tenant, _token, payload = decode_body(body)
        if kind == FRAME_SIGN_OK:
            return decode_signature(payload)[0]
    except FrameError as error:
        return error
    except SerializeError as error:
        return FrameError(ERR_BAD_FRAME, str(error))
    if kind == FRAME_VERIFY_OK:
        return payload == b"\x01"
    if kind == FRAME_ERROR:
        return FrameError(int.from_bytes(payload[:2], "big"),
                          payload[2:].decode("utf-8", "replace"))
    return FrameError(ERR_BAD_FRAME, f"response kind 0x{kind:02x}")


def _degree_from_signature(signature: Signature) -> int:
    """Infer the ring degree from a signature's padded payload width
    (``sig_payload_bits`` is strictly monotone in ``n``, so the
    fixed-size compressed field identifies the parameter set)."""
    from ..params import falcon_params

    width = len(signature.compressed)
    for exponent in range(2, 11):  # supported degrees: 4 .. 1024
        n = 1 << exponent
        if (falcon_params(n).sig_payload_bits + 7) // 8 == width:
            return n
    raise ValueError(f"no parameter set pads signatures to {width} "
                     "bytes; pass n explicitly")
