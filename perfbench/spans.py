"""In-memory span tracing for the traced run.

Spans are recorded from the benchmark's own files by wrapping calls
into each layer's public functions at their call sites (module
attributes and class methods, restored by :meth:`Tracer.uninstall`).
Nothing inside the program changes.

``parent`` comes from a context variable, so nesting on one thread is
exact.  Rounds serve many requests at once; ``rids`` names the
requests whose messages a round call carries, which links the
request-level spans (the client's ``net`` span, the ``service`` span)
to the round spans (``sign_many``, ``verify_batch``) that did their
work: ``net`` -> ``service`` of the same request -> every round span
carrying it.

Self time is a span's duration minus what its children cover:

* request-level spans (``net``, ``service``; no CPU clock, they are
  coroutines) use wall time minus the union of their children's
  intervals, clipped to the span;
* synchronous spans use the CPU time of their thread minus their
  children's CPU time.  Rounds run on worker threads that contend for
  the interpreter lock with each other and with the event loop; wall
  time would book every wait for the lock to whichever layer happened
  to be innermost, so the layer split counts the work each layer did.
"""

from __future__ import annotations

import contextlib
import contextvars
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

_current: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)

#: Spans reported per operation as ``<span>.self_ms`` and
#: ``<span>.calls``, in layer order from the wire down.
SPANS = (
    "net", "service", "keystore.checkout",
    "sign_many", "hash_to_point", "target_fft", "ffsampling",
    "samplerz", "base.refill", "base.draw", "base.kernel",
    "base.compact", "rng", "compress",
    "verify_batch", "decompress", "ntt",
    "ledger.submit", "ledger.commit", "serialize",
)

#: Round spans: the calls that carry many requests' messages.
ROUND_SPANS = ("sign_many", "verify_batch")

#: Spans whose presence means sampler work ran.
SAMPLER_SPANS = ("samplerz", "base.refill", "base.draw", "base.kernel",
                 "base.compact")


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    rids: tuple
    phase: str
    cpu: float | None = None   # thread CPU seconds (synchronous spans)
    thread: int | None = None


# -- self-time arithmetic ----------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def children_of(spans) -> dict:
    """Child lists per span id: context nesting plus request links."""
    children: dict = defaultdict(list)
    service_of = {}
    rounds_of: dict = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
        if span.name == "service":
            service_of[span.rids[0]] = span
        elif span.name in ROUND_SPANS:
            for rid in span.rids:
                rounds_of[rid].append(span)
    for span in spans:
        if span.name == "net" and span.rids[0] in service_of:
            children[span.sid].append(service_of[span.rids[0]])
        elif span.name == "service":
            children[span.sid].extend(rounds_of.get(span.rids[0], ()))
    return children


def self_times(spans) -> dict:
    """``{span id: self seconds}`` for every span (see module doc)."""
    children = children_of(spans)
    out = {}
    for span in spans:
        kids = children.get(span.sid, ())
        if span.cpu is None:
            out[span.sid] = (span.end - span.start) - covered(
                [(kid.start, kid.end) for kid in kids],
                span.start, span.end)
        else:
            out[span.sid] = max(0.0, span.cpu - sum(
                kid.cpu for kid in kids
                if kid.cpu is not None and kid.thread == span.thread))
    return out


# -- the recorder ------------------------------------------------------------

class Tracer:
    """Span store plus the instrumentation that feeds it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = "setup"
        self._ids = itertools.count(1)
        self._undo: list = []
        self.rid_by_message: dict[bytes, int] = {}
        self.service_entry: dict[int, float] = {}
        self.queue_waits: list = []     # (phase, seconds)
        self.round_lanes: list = []     # (phase, name, lanes)
        self.refill_samples: list = []  # (phase, samples)
        self.rng_bytes: list = []       # (phase, bytes)

    # -- recording -----------------------------------------------------------

    def record(self, name: str, start: float, end: float,
               rids: tuple = ()) -> None:
        """A request-level (wall-time) span measured by the caller."""
        self.spans.append(Span(next(self._ids), None, name, start, end,
                               rids, self.phase))

    @contextlib.contextmanager
    def span(self, name: str, rids: tuple = ()):
        """Synchronous span around a block of code on this thread."""
        sid = next(self._ids)
        token = _current.set(sid)
        parent = token.old_value
        if parent is contextvars.Token.MISSING:
            parent = None
        start = time.perf_counter()
        if rids and name in ROUND_SPANS:
            self._book_round(name, rids, start)
        cpu = time.thread_time()
        try:
            yield
        finally:
            cpu = time.thread_time() - cpu
            end = time.perf_counter()
            _current.reset(token)
            self.spans.append(Span(sid, parent, name, start, end, rids,
                                   self.phase, cpu,
                                   threading.get_ident()))

    def _rids(self, messages) -> tuple:
        lookup = self.rid_by_message.get
        return tuple(rid for rid in map(lookup, messages)
                     if rid is not None)

    def wrap(self, name: str, fn, *, rids_of=None, after=None):
        """Wrap a synchronous callable in a span.  ``rids_of(args)``
        names the requests a round call carries; ``after(result)``
        books counters from the call's result."""
        span = self.span

        def traced(*args, **kwargs):
            with span(name, rids_of(args) if rids_of else ()):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _book_round(self, name: str, rids: tuple, start: float) -> None:
        self.round_lanes.append((self.phase, name, len(rids)))
        for rid in rids:
            entered = self.service_entry.pop(rid, None)
            if entered is not None:
                self.queue_waits.append((self.phase, start - entered))

    def patch(self, owner, attribute: str, name: str, **options) -> None:
        """Replace ``owner.attribute`` by a traced wrapper.  On a class
        the plain function is wrapped (so it still binds ``self``); on
        a module or instance the attribute as looked up."""
        own = vars(owner).get(attribute)
        if isinstance(owner, type):
            target = own if own is not None else getattr(owner, attribute)
        else:
            target = getattr(owner, attribute)
        setattr(owner, attribute, self.wrap(name, target, **options))
        self._undo.append((owner, attribute, own))

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, own = self._undo.pop()
            if own is None:
                delattr(owner, attribute)  # it was inherited / bound
            else:
                setattr(owner, attribute, own)

    # -- instrumentation -----------------------------------------------------

    def install(self, store, service=None) -> None:
        """Wrap every layer boundary the per-layer metrics name.

        ``store`` is the plane's ``ShardedKeyStore``; ``service`` its
        ``SigningService`` (``None`` while set-up is traced, before the
        service exists).
        """
        from repro.baselines.adapters import BitslicedIntegerSampler
        from repro.bitslice import wordengine
        from repro.falcon import (batchverify, keystore, ledger, samplerz,
                                  scheme, serialize)
        from repro.falcon.serving import service as service_module
        from repro.rng import source as rng_source

        message_rids = self._rids

        def book_samples(result):
            self.refill_samples.append((self.phase, len(result)))

        def book_bytes(result):
            self.rng_bytes.append((self.phase, len(result)))

        self.patch(keystore, "generate_encoded_key", "keygen")
        self.patch(serialize, "decode_secret_key", "key_load")
        self.patch(store, "signer_on", "keystore.checkout")
        self.patch(scheme.SecretKey, "sign_many", "sign_many",
                   rids_of=lambda args: message_rids(args[1]))
        self.patch(scheme, "hash_to_point", "hash_to_point")
        self.patch(batchverify, "hash_to_point", "hash_to_point")
        self.patch(scheme, "fft_array", "target_fft")
        self.patch(scheme, "ff_sampling_batch", "ffsampling")
        self.patch(scheme, "compress", "compress")
        self.patch(samplerz.RejectionSamplerZ, "sample_lanes", "samplerz")
        self.patch(BitslicedIntegerSampler, "_refill", "base.refill",
                   after=book_samples)
        for engine in set(wordengine._ENGINE_CLASSES.values()):
            self.patch(engine, "draw_words", "base.draw")
            self.patch(engine, "run_kernel", "base.kernel")
            self.patch(engine, "compact", "base.compact")
        for source_class in (rng_source.ChaChaSource,
                             rng_source.ShakeSource):
            self.patch(source_class, "_generate", "rng", after=book_bytes)
        self.patch(service_module, "verify_batch", "verify_batch",
                   rids_of=lambda args: message_rids(
                       [item[1] for item in args[0]]))
        self.patch(ledger, "verify_batch_report", "verify_batch")
        self.patch(batchverify, "decompress", "decompress")
        self.patch(batchverify, "decompress_rows", "decompress")
        self.patch(batchverify, "mul_ntt_rows_array", "ntt")
        for function in ("encode_public_key", "decode_public_key",
                         "encode_signature", "decode_signature"):
            self.patch(ledger, function, "serialize")
        if service is not None:
            self.install_service(service)

    def install_service(self, service) -> None:
        """Wrap ``SigningService.sign/verify`` on the live instance."""
        tracer = self

        def wrap_async(fn):
            async def traced(tenant, message, *args, **kwargs):
                rid = tracer.rid_by_message.get(message)
                start = time.perf_counter()
                if rid is not None:
                    tracer.service_entry[rid] = start
                try:
                    return await fn(tenant, message, *args, **kwargs)
                finally:
                    if rid is not None:
                        tracer.record("service", start,
                                      time.perf_counter(), (rid,))
            return traced

        for attribute in ("sign", "verify"):
            setattr(service, attribute,
                    wrap_async(getattr(service, attribute)))
            self._undo.append((service, attribute, None))

    # -- output --------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Write the spans out, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


# -- per-layer metrics -------------------------------------------------------

def layer_metrics(tracer: Tracer, phases: dict, counters: dict) -> dict:
    """Per-layer figures from the spans of the measured phases.

    ``phases`` maps phase name to ``{"ops", "windows"}``, the windows
    being the ``(start, end)`` stretches the phase ran in.  Every
    per-operation figure is computed per phase (span totals over that
    phase's completed operations) and summed over the phases the span
    fires in, so a span shared by the wire phase and the ledger phase
    reports its cost per request plus its cost per record.
    ``counters`` holds live-object deltas over the traced phases
    (signatures, signing attempts, SamplerZ accepted/base draws, base
    samples discarded) and the ledger reject count.
    """
    spans = [span for span in tracer.spans if span.phase in phases]
    selfs = self_times(spans)
    totals: dict = defaultdict(float)
    calls: dict = defaultdict(float)
    refill_cpu = 0.0
    for span in spans:
        ops = phases[span.phase]["ops"] or 1
        totals[span.name] += selfs[span.sid] / ops
        calls[span.name] += 1.0 / ops
        if span.name == "base.refill":
            refill_cpu += span.cpu
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.self_ms"] = (1e3 * totals[name], "ms")
        metrics[f"{name}.calls"] = (calls[name], "count")

    setup = [span for span in tracer.spans if span.phase == "setup"]
    for name, label in (("keygen", "keygen.s_per_key"),
                        ("key_load", "key_load.s_per_key")):
        durations = [span.end - span.start for span in setup
                     if span.name == name]
        metrics[label] = (sum(durations) / len(durations)
                          if durations else 0.0, "s")

    waits = [w for phase, w in tracer.queue_waits if phase == "A"]
    metrics["service.queue_wait_ms"] = (
        1e3 * sum(waits) / len(waits) if waits else 0.0, "ms")
    for name, label in (("sign_many", "service.sign_lanes_per_round"),
                        ("verify_batch",
                         "service.verify_lanes_per_round")):
        lanes = [count for phase, span_name, count in tracer.round_lanes
                 if phase == "A" and span_name == name]
        metrics[label] = (sum(lanes) / len(lanes) if lanes else 0.0,
                          "count")

    signatures = counters.get("signatures", 0)
    metrics["sign.attempts_per_sig"] = (
        counters.get("attempts", 0) / signatures if signatures else 0.0,
        "count")
    draws = counters.get("base_draws", 0)
    metrics["samplerz.acceptance"] = (
        counters.get("accepted", 0) / draws if draws else 0.0, "ratio")
    produced = sum(s for phase, s in tracer.refill_samples
                   if phase in phases)
    metrics["base.samples_per_s"] = (
        produced / refill_cpu if refill_cpu else 0.0, "1/s")
    discarded = counters.get("discarded", 0)
    metrics["base.discard_ratio"] = (
        discarded / (produced + discarded) if produced + discarded
        else 0.0, "ratio")
    generated = sum(b for phase, b in tracer.rng_bytes if phase == "A")
    metrics["rng.bytes_per_sig"] = (
        generated / signatures if signatures else 0.0, "B")
    metrics["ledger.rejects"] = (counters.get("ledger_rejects", 0),
                                 "count")

    unattributed = 0.0
    for phase, info in phases.items():
        intervals = [(span.start, span.end) for span in spans
                     if span.phase == phase]
        gap = sum((end - start) - covered(intervals, start, end)
                  for start, end in info["windows"])
        unattributed += gap / (info["ops"] or 1)
    metrics["trace.unattributed_ms"] = (1e3 * unattributed, "ms")
    return metrics
