"""dudect-style audit of the serving layer's batch composition.

The GALACTICS attacks recovered BLISS keys from side channels far
above the sampler — rejection loops, norm checks, scheduling.  The
analogous risk in this library's serving layer is the *coalescer*: if
how requests were grouped into signing rounds depended on message
bytes or key material, round shapes (observable through
timing and traffic analysis) would leak secrets the constant-time
sampler below carefully protects.

The coalescing path is built so that cannot happen —
:func:`repro.falcon.serving.plan_rounds` receives arrival metadata
only — and this module is the regression that keeps it true: build
two request classes that differ *only* in secret content (message
bytes, tenant key material), push both through the round planner
under identical arrival patterns, and compare the resulting
round-shape traces with the dudect Welch t-test.  A secret-dependent
composition shows up as differing traces (|t| > 4.5 or shape
mismatch); the honest planner yields bit-identical traces and t = 0.

With the networked signing plane the same discipline extends one
layer further out: **wire-frame shapes**.  A passive observer of the
socket sees frame headers and sizes; if those depended on secret
content, traffic analysis would leak what the coalescer protects.
The two-class pass therefore also runs both request classes through
the real frame encoder (:mod:`repro.falcon.serving.net`) and compares
the observable shape traces — kind, request id, tenant/token/payload
lengths — which must be bit-identical (response frames are fixed-size
per ring degree by the padded signature encoding, so they add no
secret-dependent axis).
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import sha256
from typing import Sequence

from .dudect import DudectReport, two_class_report


def _class_messages(label: bytes, count: int, secret: bool) -> list[bytes]:
    """``count`` 32-byte messages: an all-zero class or a keyed
    pseudorandom class (deterministic, so the audit is reproducible)."""
    if not secret:
        return [b"\x00" * 32] * count
    return [sha256(b"coalesce-audit|%b|%d" % (label, i)).digest()
            for i in range(count)]


def round_shape_trace(arrivals: Sequence[tuple[str, str]],
                      messages: Sequence[bytes],
                      max_batch: int) -> list[float]:
    """The round-shape trace for one drained batch.

    Runs the actual serving round planner over the arrival metadata
    and returns the measurement dudect compares: one round-size value
    per planned round, in emission order.  Lanes of every tenant merge
    into one round per kind (chunked at ``max_batch``); a merged sign
    round's timing also depends on how many lanes each tenant brought,
    which is the same public arrival metadata.  ``messages`` is
    accepted — and deliberately unused — to mirror what an adversarial
    implementation *could* see; the planner's signature guarantees it
    sees none of it.
    """
    from ..falcon.serving import plan_rounds

    assert len(arrivals) == len(messages)
    plans = plan_rounds(arrivals, max_batch)
    return [float(len(plan.lanes)) for plan in plans]


def frame_shape_trace(arrivals: Sequence[tuple[str, str]],
                      messages: Sequence[bytes],
                      n: int = 64) -> list[float]:
    """The wire-frame shape trace for one request sequence.

    Encodes every arrival through the real request-frame encoder —
    sign frames carry the message, verify frames carry a fixed
    placeholder signature of the degree-``n`` padded width plus the
    message — and flattens each frame's externally observable shape
    (kind, request id, tenant length, token length, payload length)
    into the measurement dudect compares.  Message *bytes* may differ
    between audit classes; the shapes must not.
    """
    from ..falcon.params import falcon_params
    from ..falcon.scheme import Signature
    from ..falcon.serving.net import (
        FRAME_SIGN,
        FRAME_VERIFY,
        encode_request_frame,
        encode_verify_payload,
        frame_shape,
    )

    assert len(arrivals) == len(messages)
    width = (falcon_params(n).sig_payload_bits + 7) // 8
    placeholder = Signature(salt=b"\x00" * 40,
                            compressed=b"\x00" * width)
    trace: list[float] = []
    for req_id, ((tenant, kind), message) in enumerate(
            zip(arrivals, messages)):
        if kind == "verify":
            frame = encode_request_frame(
                FRAME_VERIFY, req_id, tenant, b"token",
                encode_verify_payload(placeholder, n, message))
        else:
            frame = encode_request_frame(FRAME_SIGN, req_id, tenant,
                                         b"token", message)
        trace.extend(float(value) for value in frame_shape(frame))
        trace.append(float(len(frame)))
    return trace


def failure_frame_shape_trace(arrivals: Sequence[tuple[str, str]],
                              messages: Sequence[bytes]) -> list[float]:
    """The shape trace of the FAILURE path: error-response frames.

    Recovery paths are observable channels too (the GALACTICS lesson
    applied to operations): when a round fails, the server answers
    with an error frame whose detail is the exception *class name
    only* — never ``str(error)``, which can embed message-derived
    state.  This trace encodes the error frame each arrival would earn
    under every failure code the server can speak, with the canonical
    class-name details the failure paths produce, and flattens the
    observable shapes.  Two classes differing only in secret message
    bytes must produce bit-identical failure-frame shape traces.
    """
    from ..falcon.serving.net import (
        ERR_AUTH,
        ERR_DRAINING,
        ERR_RATE_LIMITED,
        ERR_ROUND_FAILED,
        FRAME_ERROR,
        encode_frame,
        frame_shape,
    )

    assert len(arrivals) == len(messages)
    # (code, detail) pairs as the server's failure paths emit them:
    # operational refusals carry no detail; a failed round carries the
    # exception class name (a function of the failure class, not of
    # the request content).
    failures = [
        (ERR_AUTH, ""),
        (ERR_RATE_LIMITED, ""),
        (ERR_DRAINING, ""),
        (ERR_ROUND_FAILED, "ShardWorkerError"),
        (ERR_ROUND_FAILED, "ServingUnavailable"),
        (ERR_ROUND_FAILED, "InjectedFault"),
    ]
    trace: list[float] = []
    for req_id, (_arrival, _message) in enumerate(zip(arrivals,
                                                      messages)):
        code, detail = failures[req_id % len(failures)]
        payload = code.to_bytes(2, "big") + detail.encode()
        frame = encode_frame(FRAME_ERROR, req_id, b"", b"", payload)
        trace.extend(float(value) for value in frame_shape(frame))
        trace.append(float(len(frame)))
    return trace


@dataclass(frozen=True)
class CoalesceAuditResult:
    """Outcome of the two-class batch-composition audit."""

    report: DudectReport
    shapes_identical: bool
    frame_shapes_identical: bool = True
    failure_shapes_identical: bool = True

    @property
    def leaking(self) -> bool:
        return (self.report.leaking or not self.shapes_identical
                or not self.frame_shapes_identical
                or not self.failure_shapes_identical)


def audit_coalescing(tenants: int = 3, requests: int = 64,
                     max_batch: int = 8,
                     verify_share: int = 4,
                     n: int = 64) -> CoalesceAuditResult:
    """Two-class dudect pass over the coalescing path AND the wire.

    Both classes submit the identical arrival pattern — ``requests``
    requests round-robin across ``tenants`` tenants, every
    ``verify_share``-th request a verify — but class 0 carries
    all-zero messages while class 1 carries pseudorandom ("secret")
    messages.  The round planner must produce *identical* round-shape
    traces, and the frame encoder must produce *identical* frame-shape
    traces: any divergence (shape mismatch or |t| > 4.5) means batch
    composition or wire framing depends on secret content.
    """
    arrivals = [(f"tenant-{i % tenants}",
                 "verify" if verify_share and i % verify_share == 0
                 else "sign")
                for i in range(requests)]
    round_traces = []
    frame_traces = []
    failure_traces = []
    for secret in (False, True):
        messages = _class_messages(b"class", requests, secret)
        # A live worker drains in windows; replay the same windowing
        # for both classes (window = max_batch arrivals).
        trace: list[float] = []
        for start in range(0, requests, max_batch):
            window = arrivals[start:start + max_batch]
            window_messages = messages[start:start + max_batch]
            trace.extend(round_shape_trace(window, window_messages,
                                           max_batch))
        round_traces.append(trace)
        frame_traces.append(frame_shape_trace(arrivals, messages, n=n))
        failure_traces.append(failure_frame_shape_trace(arrivals,
                                                        messages))
    report = two_class_report(
        "serving-coalescer", "round+frame-shape",
        round_traces[0] + frame_traces[0] + failure_traces[0],
        round_traces[1] + frame_traces[1] + failure_traces[1])
    return CoalesceAuditResult(
        report=report,
        shapes_identical=round_traces[0] == round_traces[1],
        frame_shapes_identical=frame_traces[0] == frame_traces[1],
        failure_shapes_identical=(failure_traces[0]
                                  == failure_traces[1]))
