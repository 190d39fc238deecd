"""Secret-labeled trace capture for the ML leakage probe.

The dudect t-test compares one scalar measurement (modeled cycles or
wall time) between two classes.  Marzougui et al.'s attack on
GALACTICS (PAPERS.md) shows why that is not enough: an ML
distinguisher over richer traces breaks "constant-time" samplers that
pass naive t-tests, because the leak can hide in a *combination* of
observables rather than in any single mean.

This module produces what such a distinguisher consumes: per-event
feature vectors — the full abstract-operation delta (word ops,
compares, loads, branches, PRNG bytes) plus modeled cycles, optionally
wall time — labeled by a *secret class* of the event (the sampled
value's magnitude, the leaf offset of a ffSampling walk, or which
secret-content class a serving request belonged to).  The probe in
:mod:`repro.ct.leakage` then trains on these and flags leakage when it
classifies held-out traces better than a permutation-test null.

Capture surfaces (the three layers the audit gates):

* :func:`sampler_traces` / :func:`batch_sampler_traces` — the
  ``IntegerSampler`` backends and the batched bitsliced kernel;
* :func:`samplerz_traces` / :func:`ffsampling_traces` — the rejection
  ``SamplerZ`` wrapper at fixed centers and the real batched
  ffSampling walk inside Falcon signing;
* :func:`serving_shape_traces` — the serving plane's round and wire
  frame shapes, two-class (all-zero vs secret messages).

.. note:: the module carries a ``ct: exempt`` pragma below — trace
   capture branches on secret labels *by construction* (that is its
   job); it runs offline and never inside a signing path.

:class:`LeakyControlSampler` is the harness's positive control: a
deliberately leaky variant (value-correlated table loads, an
early-exit-style access pattern) that the probe MUST flag — if it ever
stops being flagged, the harness has gone blind, not the code clean.
"""

# ct: exempt(ct): trace capture classifies secret-labeled events offline by construction — the instrument for the leakage probe, not a signing path

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..baselines.linear_scan import LinearScanCdtSampler

#: Feature order of every op-count trace vector.
OP_FEATURES = ("word_ops", "compares", "loads", "branches",
               "rng_bytes", "cycles")


@dataclass
class TraceSet:
    """A bag of secret-labeled feature vectors from one capture."""

    source: str
    feature_names: tuple[str, ...]
    features: list[list[float]] = field(default_factory=list)
    labels: list[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.features)

    def append(self, vector: Sequence[float], label: int) -> None:
        self.features.append([float(x) for x in vector])
        self.labels.append(int(label))

    def class_counts(self) -> tuple[int, int]:
        ones = sum(self.labels)
        return len(self.labels) - ones, ones

    def validate(self) -> None:
        """Structural sanity before a probe run (clear errors early)."""
        if not self.features:
            raise ValueError(
                f"trace set {self.source!r} is empty — nothing to probe")
        if len(self.features) != len(self.labels):
            raise ValueError(
                f"trace set {self.source!r}: {len(self.features)} "
                f"features vs {len(self.labels)} labels")
        width = len(self.feature_names)
        for vector in self.features:
            if len(vector) != width:
                raise ValueError(
                    f"trace set {self.source!r}: ragged feature vector "
                    f"({len(vector)} != {width})")
        n0, n1 = self.class_counts()
        if n0 == 0 or n1 == 0:
            raise ValueError(
                f"trace set {self.source!r} is single-class "
                f"({n0}/{n1}) — the classifier split degenerated")


def _op_vector(delta, prng: str) -> list[float]:
    return [float(delta.word_ops), float(delta.compares),
            float(delta.loads), float(delta.branches),
            float(delta.rng_bytes),
            delta.modeled_cycles(prng=prng)]


def sampler_traces(sampler, calls: int,
                   classifier: Callable[[int], bool] | None = None,
                   prng: str = "chacha20",
                   measure: str = "opcount") -> TraceSet:
    """Per-call op-count trace vectors from an ``IntegerSampler``.

    Default secret classes mirror the dudect audit: magnitude <= 1
    (the Gaussian head, label 1) versus the rest (label 0) — the
    correlation a timing attacker targets.  ``measure="walltime"``
    appends ``perf_counter_ns`` as an extra feature (noisy under an
    interpreter; excluded from the CI-gating audit for determinism).
    """
    if calls < 4:
        raise ValueError("need at least 4 calls to form two classes")
    if measure not in ("opcount", "walltime"):
        raise ValueError("measure must be 'opcount' or 'walltime'")
    if classifier is None:
        classifier = lambda v: abs(v) <= 1  # noqa: E731
    names = OP_FEATURES + (("wall_ns",) if measure == "walltime" else ())
    traces = TraceSet(getattr(sampler, "name", type(sampler).__name__),
                      names)
    for _ in range(calls):
        before = sampler.counter.snapshot()
        start = time.perf_counter_ns()
        value = sampler.sample()
        elapsed = time.perf_counter_ns() - start
        vector = _op_vector(sampler.counter.delta(before), prng)
        if measure == "walltime":
            vector.append(float(elapsed))
        traces.append(vector, 1 if classifier(value) else 0)
    return traces


def batch_sampler_traces(batch_sampler, batches: int,
                         classifier: Callable[[list[int]], bool] | None
                         = None,
                         prng: str = "chacha20") -> TraceSet:
    """Per-batch trace vectors from a :class:`BitslicedSampler`.

    The kernel executes the identical instruction sequence every
    batch, so the honest feature vector is constant — exactly what the
    probe must fail to separate.  Default classes: parity of the
    batch's head-sample count (|v| <= 1) — secret-derived and close to
    balanced, unlike rare-event classes such as "contains a tail
    sample" which starve one side of the stratified folds.
    """
    if batches < 4:
        raise ValueError("need at least 4 batches to form two classes")
    if classifier is None:
        def classifier(batch: list[int]) -> bool:
            return bool(sum(1 for v in batch if abs(v) <= 1) & 1)

    from .opcount import DEFAULT_CYCLE_WEIGHTS, PRNG_CYCLES_PER_BYTE

    word_ops = float(batch_sampler.word_ops_per_batch)
    rng_bytes = float(batch_sampler.random_bytes_per_batch)
    cycles = (word_ops * DEFAULT_CYCLE_WEIGHTS["word_ops"]
              + rng_bytes * PRNG_CYCLES_PER_BYTE[prng])
    vector = [word_ops, 0.0, 0.0, 0.0, rng_bytes, cycles]
    traces = TraceSet("bitsliced-batch", OP_FEATURES)
    for _ in range(batches):
        batch = batch_sampler.sample_batch()
        traces.append(vector, 1 if classifier(batch) else 0)
    if 0 in traces.class_counts():
        # Degenerate split (tiny sigma): fall back to a public,
        # alternating pseudo-class so the probe still runs — over
        # constant vectors any labeling is equally unlearnable.
        traces.labels = [i & 1 for i in range(len(traces))]
    return traces


def samplerz_traces(calls: int, seed: int = 0, sigma: float = 1.5,
                    prng: str = "chacha20") -> TraceSet:
    """Per-call traces from :class:`RejectionSamplerZ` over the
    batched bitsliced base — Falcon's leaf sampler in isolation.

    Centers sweep a deterministic low-discrepancy sequence in
    [-0.5, 0.5); the secret label is the accepted offset
    ``|z - round(center)| <= 1``.  The rejection loop's attempt count
    is public; the trace must not separate by the secret offset.
    """
    if calls < 4:
        raise ValueError("need at least 4 calls to form two classes")
    from ..baselines.adapters import BitslicedIntegerSampler
    from ..core.gaussian import GaussianParams
    from ..falcon.samplerz import RejectionSamplerZ
    from ..rng.source import make_source

    base = BitslicedIntegerSampler(
        GaussianParams.from_sigma(2, 16),
        source=make_source(prng, seed))
    sampler_z = RejectionSamplerZ(
        base, uniform_source=make_source(prng, seed + 1))
    traces = TraceSet("samplerz", OP_FEATURES)
    for i in range(calls):
        center = ((i * 0.6180339887498949) % 1.0) - 0.5
        before = base.counter.snapshot()
        z = sampler_z.sample(center, sigma)
        vector = _op_vector(base.counter.delta(before), prng)
        offset = abs(z - round(center))
        traces.append(vector, 1 if offset <= 1 else 0)
    return traces


def ffsampling_traces(n: int = 64, rounds: int = 4, lanes: int = 4,
                      seed: int = 41,
                      prng: str = "chacha20") -> TraceSet:
    """Per-leaf traces from the real batched ffSampling walk.

    Builds a Falcon key, runs ``rounds`` batched signing walks over
    ``lanes`` hashed points each, and records the op-count delta of
    every leaf SamplerZ call, labeled by the secret offset
    ``|z - round(center)| <= 1`` — the methodology of the dudect
    ffSampling test, upgraded to full feature vectors.
    """
    from ..falcon import (
        SecretKey,
        ff_sampling_batch,
        fft,
        hash_to_point,
    )
    from ..falcon.ntt import Q

    try:
        import numpy as np
    except ImportError:
        np = None

    sk = SecretKey.generate(n=n, seed=seed, prng=prng)
    counter = sk.base_sampler.counter
    inner = sk.sampler_z
    traces = TraceSet("ffsampling", OP_FEATURES)

    class Recorder:
        def sample(self, center, sigma):
            before = counter.snapshot()
            z = inner.sample(center, sigma)
            vector = _op_vector(counter.delta(before), prng)
            offset = abs(z - round(center))
            traces.append(vector, 1 if offset <= 1 else 0)
            return z

        def sample_lanes(self, centers, sigma):
            return [self.sample(center, sigma) for center in centers]

    f_fft, big_f_fft = (fft([float(c) for c in poly])
                        for poly in (sk.keys.f, sk.keys.F))
    for round_index in range(rounds):
        hashed = [hash_to_point(b"leak-probe-%d-%d"
                                % (round_index, lane),
                                b"\x5a" * 40, sk.n)
                  for lane in range(lanes)]
        points = [fft([float(c) for c in point]) for point in hashed]
        t0s = [[-(x * y) / Q for x, y in zip(point, big_f_fft)]
               for point in points]
        t1s = [[(x * y) / Q for x, y in zip(point, f_fft)]
               for point in points]
        if np is not None:
            t0s, t1s = np.array(t0s), np.array(t1s)
        ff_sampling_batch(t0s, t1s, sk.flat_tree, Recorder())
    return traces


def serving_shape_traces(tenants: int = 3, requests: int = 48,
                         max_batch: int = 8, verify_share: int = 4,
                         n: int = 64) -> tuple[TraceSet, TraceSet]:
    """Two-class shape traces from the serving plane.

    Replays the coalescing audit's two request classes — identical
    arrival patterns, all-zero vs pseudorandom ("secret") message
    bytes — through the real round planner (every round a
    cross-tenant list of lanes of one kind) and the real wire-frame
    encoder, and labels every observation with its class.  Returns
    ``(round_traces, frame_traces)``: per-window round-shape vectors
    and per-request frame-shape vectors.  A leak-free plane produces
    identical features for both labels, which no classifier can beat
    chance on.
    """
    from .coalesce import (
        _class_messages,
        frame_shape_trace,
        round_shape_trace,
    )

    arrivals = [(f"tenant-{i % tenants}",
                 "verify" if verify_share and i % verify_share == 0
                 else "sign")
                for i in range(requests)]
    windows = [(arrivals[start:start + max_batch],
                slice(start, start + max_batch))
               for start in range(0, requests, max_batch)]
    max_rounds = max(len(window) for window, _ in windows)

    round_traces = TraceSet(
        "serving-rounds",
        tuple(f"round_{i}" for i in range(max_rounds)))
    frame_traces = TraceSet(
        "serving-frames",
        ("kind", "req_id", "tenant_len", "token_len", "payload_len",
         "frame_len"))
    for label, secret in enumerate((False, True)):
        messages = _class_messages(b"class", requests, secret)
        for window, span in windows:
            shape = round_shape_trace(window, messages[span], max_batch)
            round_traces.append(shape + [0.0] * (max_rounds - len(shape)),
                                label)
        flat = frame_shape_trace(arrivals, messages, n=n)
        # frame_shape_trace flattens 6 observables per request.
        for start in range(0, len(flat), 6):
            frame_traces.append(flat[start:start + 6], label)
    return round_traces, frame_traces


class LeakyControlSampler(LinearScanCdtSampler):
    """The positive control: a deliberately leaky sampler variant.

    Takes the constant-time linear scan and re-introduces an
    early-exit-style access pattern: after the (constant) scan it
    books ``magnitude`` extra table loads and the matching PRNG
    shortfall — the signature of a scan that stops at the sampled row.
    The op-count *mean* barely moves (the leak rides on a handful of
    loads among hundreds of constant ops), but the loads feature
    correlates perfectly with the secret class, which is exactly what
    the ML probe exists to catch and the t-test-era audit could miss.

    Not a registered backend: this class exists so the leakage harness
    can prove, on every CI run, that it still catches a real leak.
    """

    name = "leaky-control"
    constant_time = False

    def sample_magnitude(self) -> int:
        value = super().sample_magnitude()
        # The deliberate leak: value-dependent table touches.
        if value:
            self.counter.load(value)
        return value
