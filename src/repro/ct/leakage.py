"""ML leakage distinguisher — the continuous leakage-regression gate.

Motivation (PAPERS.md, Marzougui et al.): the GALACTICS BLISS
implementation passed classic constant-time tests, yet an ML
distinguisher over side-channel traces recovered the key.  The lesson
for this library: a Welch t-test on one scalar is a *necessary* check,
not a sufficient one.  This module holds the stronger check and runs
it like a KAT — deterministic, committed baseline, CI-gating.

Method
------
Given a secret-labeled :class:`~repro.ct.traces.TraceSet`:

1. standardize features (zero mean, unit variance; constant features
   are zeroed — they carry no signal and would otherwise blow up);
2. train an L2-regularized **logistic probe** by full-batch gradient
   descent (pure Python, with a NumPy fast path computing the same
   updates) under stratified **k-fold cross-validation**, scoring
   held-out accuracy;
3. build a **permutation-test null**: repeat the identical CV with the
   labels deterministically shuffled ``permutations`` times — the
   accuracy distribution of a probe that can only overfit noise;
4. flag leakage when the real-label accuracy beats the *maximum*
   permuted accuracy by more than ``margin``.

Every random choice (fold assignment, permutations, subsampling) comes
from seeded ``random.Random`` streams, so a report is reproducible
bit-for-bit on one machine and verdict-for-verdict across machines and
across the with-/without-NumPy CI legs.

:func:`audit` is the one-call surface: it captures traces from the
batched sampler, the rejection SamplerZ, the real ffSampling walk and
the serving plane's round/frame shapes, probes each, and also probes
the deliberately leaky positive control — which MUST be flagged for
the audit to pass (a harness that cannot see a planted leak proves
nothing about the honest targets).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .traces import TraceSet

try:  # Optional fast path; the pure-Python route is always available.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy leg
    _np = None

#: Accuracy margin over the permutation-null maximum before flagging.
DEFAULT_MARGIN = 0.03

#: Probe hyper-parameters (shared by real and permuted runs; the null
#: is only valid if both sides get the identical learner).
EPOCHS = 80
LEARNING_RATE = 0.5
L2_PENALTY = 1e-3

#: Audit profiles: trace counts and probe sizing.  ``quick`` is the CI
#: gate (must stay under ~2 minutes in the pure-Python leg); ``full``
#: is the overnight setting.
PROFILES = {
    "quick": {"calls": 400, "batches": 64, "ffsampling_rounds": 3,
              "serving_requests": 48, "folds": 3, "permutations": 12,
              "max_traces": 384},
    "full": {"calls": 4000, "batches": 400, "ffsampling_rounds": 12,
             "serving_requests": 256, "folds": 5, "permutations": 40,
             "max_traces": 2048},
}


# -- the logistic probe ---------------------------------------------------

def _standardize(features: Sequence[Sequence[float]]
                 ) -> list[list[float]]:
    """Per-feature zero-mean/unit-variance; constant features zeroed."""
    if not features:
        raise ValueError("cannot standardize an empty trace set")
    count = len(features)
    width = len(features[0])
    means = [sum(row[j] for row in features) / count
             for j in range(width)]
    stds = []
    for j in range(width):
        variance = sum((row[j] - means[j]) ** 2
                       for row in features) / count
        stds.append(math.sqrt(variance))
    return [[(row[j] - means[j]) / stds[j] if stds[j] else 0.0
             for j in range(width)]
            for row in features]


def _train_logistic_py(x_rows, y, epochs, lr, l2):
    count = len(x_rows)
    width = len(x_rows[0])
    weights = [0.0] * width
    bias = 0.0
    inv = 1.0 / count
    for _ in range(epochs):
        grad_w = [0.0] * width
        grad_b = 0.0
        for row, label in zip(x_rows, y):
            z = bias
            for w, x in zip(weights, row):
                z += w * x
            # Clamped sigmoid keeps exp() in range for extreme z.
            if z >= 0:
                p = 1.0 / (1.0 + math.exp(-min(z, 60.0)))
            else:
                e = math.exp(max(z, -60.0))
                p = e / (1.0 + e)
            err = p - label
            grad_b += err
            for j, x in enumerate(row):
                grad_w[j] += err * x
        for j in range(width):
            weights[j] -= lr * (grad_w[j] * inv + l2 * weights[j])
        bias -= lr * grad_b * inv
    return weights, bias


def _train_logistic_np(x_rows, y, epochs, lr, l2):
    x = _np.asarray(x_rows, dtype=_np.float64)
    labels = _np.asarray(y, dtype=_np.float64)
    weights = _np.zeros(x.shape[1])
    bias = 0.0
    inv = 1.0 / len(x_rows)
    for _ in range(epochs):
        z = _np.clip(x @ weights + bias, -60.0, 60.0)
        p = 1.0 / (1.0 + _np.exp(-z))
        err = p - labels
        weights -= lr * ((x.T @ err) * inv + l2 * weights)
        bias -= lr * float(err.sum()) * inv
    return weights.tolist(), bias


def train_logistic(x_rows, y, epochs: int = EPOCHS,
                   lr: float = LEARNING_RATE, l2: float = L2_PENALTY):
    """Full-batch GD logistic regression; NumPy path when available."""
    if len(x_rows) != len(y) or not x_rows:
        raise ValueError("need equally many rows and labels, nonzero")
    if _np is not None:
        return _train_logistic_np(x_rows, y, epochs, lr, l2)
    return _train_logistic_py(x_rows, y, epochs, lr, l2)


def _accuracy(weights, bias, x_rows, y) -> float:
    correct = 0
    for row, label in zip(x_rows, y):
        z = bias
        for w, x in zip(weights, row):
            z += w * x
        correct += (1 if z >= 0 else 0) == label
    return correct / len(y)


def _stratified_folds(labels: Sequence[int], folds: int,
                      rng: random.Random) -> list[list[int]]:
    """Fold index lists with both classes spread across every fold."""
    by_class: dict[int, list[int]] = {0: [], 1: []}
    for index, label in enumerate(labels):
        by_class[label].append(index)
    assignment: list[list[int]] = [[] for _ in range(folds)]
    for indices in by_class.values():
        rng.shuffle(indices)
        for position, index in enumerate(indices):
            assignment[position % folds].append(index)
    return assignment


def kfold_accuracy(features: Sequence[Sequence[float]],
                   labels: Sequence[int], folds: int,
                   seed: int) -> float:
    """Mean held-out accuracy of the logistic probe under
    stratified k-fold CV (deterministic under ``seed``)."""
    if folds < 2:
        raise ValueError("need at least 2 folds")
    n0 = labels.count(0) if isinstance(labels, list) else \
        sum(1 for v in labels if v == 0)
    n1 = len(labels) - n0
    if n0 < folds or n1 < folds:
        raise ValueError(
            f"each class needs >= folds members (got {n0}/{n1} for "
            f"{folds} folds); trace capture produced a degenerate "
            f"split")
    standardized = _standardize(features)
    fold_indices = _stratified_folds(labels, folds,
                                     random.Random(seed))
    accuracies = []
    for held_out in fold_indices:
        held = set(held_out)
        train_x = [standardized[i] for i in range(len(labels))
                   if i not in held]
        train_y = [labels[i] for i in range(len(labels))
                   if i not in held]
        test_x = [standardized[i] for i in held_out]
        test_y = [labels[i] for i in held_out]
        weights, bias = train_logistic(train_x, train_y)
        accuracies.append(_accuracy(weights, bias, test_x, test_y))
    return sum(accuracies) / len(accuracies)


def permutation_null(features: Sequence[Sequence[float]],
                     labels: Sequence[int], folds: int,
                     permutations: int, seed: int) -> list[float]:
    """CV accuracies under ``permutations`` deterministic label
    shuffles — what the probe scores when there is nothing to learn."""
    if permutations < 1:
        raise ValueError("need at least one permutation")
    rng = random.Random(seed ^ 0x5EED)
    accuracies = []
    for index in range(permutations):
        shuffled = list(labels)
        rng.shuffle(shuffled)
        accuracies.append(
            kfold_accuracy(features, shuffled, folds,
                           seed=seed + 7919 * (index + 1)))
    return accuracies


# -- reports --------------------------------------------------------------

@dataclass
class LeakageProbeReport:
    """One trace set's verdict."""

    source: str
    n_traces: int
    n_features: int
    class_counts: tuple[int, int]
    folds: int
    permutations: int
    seed: int
    accuracy: float
    null_accuracies: list[float]
    margin: float

    @property
    def null_max(self) -> float:
        return max(self.null_accuracies)

    @property
    def null_bound(self) -> float:
        return self.null_max + self.margin

    @property
    def flagged(self) -> bool:
        return self.accuracy > self.null_bound

    def as_dict(self) -> dict:
        return {
            "source": self.source,
            "n_traces": self.n_traces,
            "n_features": self.n_features,
            "class_counts": list(self.class_counts),
            "folds": self.folds,
            "permutations": self.permutations,
            "seed": self.seed,
            "accuracy": round(self.accuracy, 6),
            "null_max": round(self.null_max, 6),
            "null_bound": round(self.null_bound, 6),
            "margin": self.margin,
            "flagged": self.flagged,
        }

    def render(self) -> str:
        return (f"leakage[{self.source}]: "
                f"{'LEAK' if self.flagged else 'ok'} "
                f"(acc {self.accuracy:.3f} vs null "
                f"<= {self.null_bound:.3f}, "
                f"n = {self.n_traces}, "
                f"classes {self.class_counts[0]}/"
                f"{self.class_counts[1]})")


@dataclass
class LeakageAuditReport:
    """The full audit: honest targets plus the positive control."""

    profile: str
    seed: int
    targets: dict[str, LeakageProbeReport]
    positive_control: LeakageProbeReport

    @property
    def leaking_targets(self) -> list[str]:
        return [name for name, report in self.targets.items()
                if report.flagged]

    @property
    def control_caught(self) -> bool:
        return self.positive_control.flagged

    @property
    def passed(self) -> bool:
        """CI verdict: no honest target leaks AND the planted leak is
        seen (an un-flagged control means the probe went blind)."""
        return not self.leaking_targets and self.control_caught

    def as_dict(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "targets": {name: report.as_dict()
                        for name, report in self.targets.items()},
            "positive_control": self.positive_control.as_dict(),
            "leaking_targets": self.leaking_targets,
            "control_caught": self.control_caught,
            "passed": self.passed,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent,
                          sort_keys=True)

    def render(self) -> str:
        lines = [f"leakage audit [{self.profile}] "
                 f"{'PASS' if self.passed else 'FAIL'} "
                 f"(seed {self.seed})"]
        for report in self.targets.values():
            lines.append("  " + report.render())
        lines.append("  " + self.positive_control.render()
                     + "  <- positive control, must be LEAK")
        return "\n".join(lines)


# -- probing and the one-call audit ---------------------------------------

def _subsample(traces: TraceSet, max_traces: int,
               seed: int) -> TraceSet:
    """Deterministic stratified downsample (keeps class balance)."""
    if len(traces) <= max_traces:
        return traces
    rng = random.Random(seed + 0xD07)
    by_class: dict[int, list[int]] = {0: [], 1: []}
    for index, label in enumerate(traces.labels):
        by_class[label].append(index)
    share = max_traces / len(traces)
    keep: list[int] = []
    for indices in by_class.values():
        rng.shuffle(indices)
        keep.extend(indices[:max(2, int(len(indices) * share))])
    keep.sort()
    sampled = TraceSet(traces.source, traces.feature_names)
    for index in keep:
        sampled.append(traces.features[index], traces.labels[index])
    return sampled


def probe_trace_set(traces: TraceSet, folds: int = 3,
                    permutations: int = 12, seed: int = 0,
                    margin: float = DEFAULT_MARGIN,
                    max_traces: int | None = None
                    ) -> LeakageProbeReport:
    """Run the full distinguisher on one trace set."""
    traces.validate()
    if max_traces is not None:
        traces = _subsample(traces, max_traces, seed)
    accuracy = kfold_accuracy(traces.features, traces.labels, folds,
                              seed=seed)
    null = permutation_null(traces.features, traces.labels, folds,
                            permutations, seed=seed)
    return LeakageProbeReport(
        source=traces.source, n_traces=len(traces),
        n_features=len(traces.feature_names),
        class_counts=traces.class_counts(), folds=folds,
        permutations=permutations, seed=seed, accuracy=accuracy,
        null_accuracies=null, margin=margin)


def audit(profile: str = "quick", seed: int = 0,
          targets: Sequence[str] | None = None,
          margin: float = DEFAULT_MARGIN) -> LeakageAuditReport:
    """Capture traces from every audited layer and probe them all.

    Targets (each independently seeded from ``seed``):

    * ``batched-sampler`` — the bitsliced kernel at batch granularity;
    * ``samplerz`` — the rejection SamplerZ over the bitsliced base;
    * ``ffsampling`` — leaf traces of the real batched signing walk;
    * ``serving-rounds`` / ``serving-frames`` — the serving plane's
      round and wire-frame shapes, two-class;

    plus the ``leaky-control`` positive control (always probed).
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}")
    sizing = PROFILES[profile]
    from ..core import compile_sampler
    from ..core.gaussian import GaussianParams
    from ..rng.source import make_source
    from .traces import (
        LeakyControlSampler,
        batch_sampler_traces,
        ffsampling_traces,
        sampler_traces,
        samplerz_traces,
        serving_shape_traces,
    )

    captures: dict[str, TraceSet] = {}
    wanted = set(targets) if targets is not None else None

    def want(name: str) -> bool:
        return wanted is None or name in wanted

    if want("batched-sampler"):
        batch_sampler = compile_sampler(
            2, 16, source=make_source("chacha20", seed + 11))
        captures["batched-sampler"] = batch_sampler_traces(
            batch_sampler, batches=sizing["batches"])
    if want("samplerz"):
        captures["samplerz"] = samplerz_traces(
            calls=sizing["calls"], seed=seed + 23)
    if want("ffsampling"):
        captures["ffsampling"] = ffsampling_traces(
            n=64, rounds=sizing["ffsampling_rounds"], lanes=4,
            seed=seed + 41)
    if want("serving-rounds") or want("serving-frames"):
        rounds, frames = serving_shape_traces(
            requests=sizing["serving_requests"])
        if want("serving-rounds"):
            captures["serving-rounds"] = rounds
        if want("serving-frames"):
            captures["serving-frames"] = frames
    if wanted is not None:
        unknown = wanted - set(captures)
        if unknown:
            raise ValueError(f"unknown audit targets: {sorted(unknown)}")

    reports = {
        name: probe_trace_set(
            trace_set, folds=sizing["folds"],
            permutations=sizing["permutations"],
            seed=seed + 1009 * (index + 1), margin=margin,
            max_traces=sizing["max_traces"])
        for index, (name, trace_set) in enumerate(captures.items())
    }

    control_sampler = LeakyControlSampler(
        GaussianParams.from_sigma(2, 16),
        source=make_source("chacha20", seed + 97))
    control_traces = sampler_traces(control_sampler,
                                    calls=sizing["calls"])
    control = probe_trace_set(
        control_traces, folds=sizing["folds"],
        permutations=sizing["permutations"], seed=seed + 31337,
        margin=margin, max_traces=sizing["max_traces"])

    return LeakageAuditReport(profile=profile, seed=seed,
                              targets=reports,
                              positive_control=control)
