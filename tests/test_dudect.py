"""Tests for the dudect reimplementation and the leakage verdicts.

The reproduction's constant-time claims live here: the op-count traces
of the non-constant-time backends must be *flagged*, and the bitsliced
and linear-scan backends must pass.
"""

import math

import pytest

from repro.baselines import (
    ByteScanCdtSampler,
    CdtBinarySearchSampler,
    KnuthYaoIntegerSampler,
    LinearScanCdtSampler,
)
from repro.core import GaussianParams, compile_sampler
from repro.ct import (
    T_THRESHOLD,
    audit_batch_sampler,
    audit_sampler,
    crop_below_percentile,
    two_class_report,
    welch_t,
)
from repro.rng import ChaChaSource

PARAMS = GaussianParams.from_sigma(2, precision=16)


def test_welch_t_zero_for_identical_distributions():
    result = welch_t([1.0, 2.0, 3.0, 4.0] * 20, [1.0, 2.0, 3.0, 4.0] * 20)
    assert abs(result.t_statistic) < 1e-9


def test_welch_t_large_for_separated_classes():
    result = welch_t([10.0 + 0.1 * i for i in range(50)],
                     [20.0 + 0.1 * i for i in range(50)])
    assert result.t_statistic < -T_THRESHOLD
    assert result.leaking


def test_welch_t_degenerate_cases():
    equal = welch_t([5.0] * 10, [5.0] * 10)
    assert equal.t_statistic == 0.0
    assert not equal.leaking
    different = welch_t([5.0] * 10, [6.0] * 10)
    assert math.isinf(different.t_statistic)
    assert different.leaking
    with pytest.raises(ValueError):
        welch_t([1.0], [2.0, 3.0])


def test_crop_below_percentile():
    values = list(range(100))
    cropped = crop_below_percentile(values, 0.5)
    assert cropped == list(range(50))
    with pytest.raises(ValueError):
        crop_below_percentile(values, 0)


def test_crop_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        crop_below_percentile([], 0.5)


def test_two_class_report_degenerate_split_rejected():
    """Empty or single-class splits fail loudly, not inside welch_t."""
    with pytest.raises(ValueError, match="degenerate"):
        two_class_report("demo", "opcount", [], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="degenerate"):
        two_class_report("demo", "opcount", [1.0], [1.0, 2.0, 3.0])


def test_constant_trace_verdicts():
    """Documented degenerate behavior: equal constant classes are
    perfectly constant-time (t = 0), different constant classes are a
    deterministic leak (t = +/-inf)."""
    clean = two_class_report("demo", "opcount", [7.0] * 8, [7.0] * 8)
    assert clean.max_abs_t == 0.0 and not clean.leaking
    leaky = two_class_report("demo", "opcount", [7.0] * 8, [9.0] * 8)
    assert math.isinf(leaky.max_abs_t) and leaky.leaking


def test_audit_call_floors():
    sampler = LinearScanCdtSampler(PARAMS, source=ChaChaSource(6))
    with pytest.raises(ValueError, match="at least 4"):
        audit_sampler(sampler, calls=2)
    with pytest.raises(ValueError, match="at least 4"):
        audit_sampler(sampler, calls=2, measure="walltime")
    batch = compile_sampler(2, 16, source=ChaChaSource(7))
    with pytest.raises(ValueError, match="at least 4"):
        audit_batch_sampler(batch, batches=1)


def test_report_rendering():
    report = two_class_report("demo", "opcount",
                              [1.0, 2.0, 3.0] * 10, [1.0, 2.0, 3.0] * 10)
    text = report.render()
    assert "demo" in text and "ok" in text
    assert report.max_abs_t < T_THRESHOLD


@pytest.mark.parametrize("backend", [
    ByteScanCdtSampler,
    CdtBinarySearchSampler,
    KnuthYaoIntegerSampler,
])
def test_non_constant_time_backends_flagged(backend):
    sampler = backend(PARAMS, source=ChaChaSource(1))
    report = audit_sampler(sampler, calls=3000)
    assert report.leaking, report.render()
    assert report.max_abs_t > T_THRESHOLD


def test_linear_scan_passes():
    sampler = LinearScanCdtSampler(PARAMS, source=ChaChaSource(2))
    report = audit_sampler(sampler, calls=3000)
    # Not leaking: the only trace variation is the sign-byte refill
    # every 8th call, which is public and uncorrelated with the class.
    assert not report.leaking, report.render()
    assert report.max_abs_t < T_THRESHOLD


def test_bisection_passes():
    from repro.baselines import BisectionCdtSampler

    sampler = BisectionCdtSampler(PARAMS, source=ChaChaSource(9))
    report = audit_sampler(sampler, calls=3000)
    # Fixed-iteration bisection: log2(size)+1 probes per attempt,
    # independent of the sampled value.
    assert not report.leaking, report.render()
    assert report.max_abs_t < T_THRESHOLD


def test_linear_scan_trace_constant_per_attempt():
    """Every linear-scan *attempt* executes the identical op sequence.

    Truncation-gap restarts (a public event, probability 2^-n-ish,
    shared by every truncated sampler including Algorithm 1) simply run
    another identical attempt; conditioning on the attempt count, the
    trace variance is exactly zero.
    """
    sampler = LinearScanCdtSampler(PARAMS, source=ChaChaSource(12))
    traces_by_attempts: dict[int, set] = {}
    for _ in range(1500):
        before = sampler.counter.snapshot()
        sampler.sample_magnitude()
        delta = sampler.counter.delta(before)
        attempts = delta.branches + 1  # one branch booked per restart
        key = (delta.word_ops, delta.compares, delta.loads,
               delta.rng_bytes)
        traces_by_attempts.setdefault(attempts, set()).add(key)
    for attempts, traces in traces_by_attempts.items():
        assert len(traces) == 1, (attempts, traces)


def test_bitsliced_batch_audit_passes():
    sampler = compile_sampler(2, 16, source=ChaChaSource(3))
    report = audit_batch_sampler(sampler, batches=200)
    assert not report.leaking, report.render()
    assert report.max_abs_t == 0.0


def test_ffsampling_vectorized_opcount_ct():
    """Op-count CT pass over the batched/vectorized ffSampling path.

    Sec. 5.2 methodology: per leaf-sampler call, record the op-count
    trace (modeled cycles, including booked PRNG bytes) and class-split
    on the *magnitude of the sampled offset* ``|z - round(center)|`` —
    a secret-dependent quantity.  A constant-time sampling path must
    show |t| <= 4.5 between the small- and large-offset classes; the
    attempt count of the rejection wrapper is public and independent of
    the accepted value, so it contributes variance but no separation.
    """
    from repro.falcon import SecretKey, ff_sampling_batch, fft, hash_to_point
    from repro.falcon.ntt import Q

    try:
        import numpy as np
    except ImportError:
        np = None

    sk = SecretKey.generate(n=64, seed=41)
    counter = sk.base_sampler.counter
    inner = sk.sampler_z
    records: list[tuple[float, int]] = []

    class Recorder:
        """Wraps the real RejectionSamplerZ, tracing every leaf call."""

        def sample(self, center, sigma):
            before = counter.snapshot()
            z = inner.sample(center, sigma)
            cycles = counter.delta(before).modeled_cycles()
            records.append((cycles, abs(z - round(center))))
            return z

        def sample_lanes(self, centers, sigma):
            return [self.sample(center, sigma) for center in centers]

    f_fft, big_f_fft = (fft([float(c) for c in poly])
                        for poly in (sk.keys.f, sk.keys.F))
    lanes = 4
    for round_index in range(12):
        hashed = [hash_to_point(b"ct-probe-%d-%d" % (round_index, lane),
                                b"\x5a" * 40, sk.n)
                  for lane in range(lanes)]
        t0s = [[-(x * y) / Q for x, y in zip_fft(point, big_f_fft)]
               for point in hashed]
        t1s = [[(x * y) / Q for x, y in zip_fft(point, f_fft)]
               for point in hashed]
        if np is not None:
            t0s, t1s = np.array(t0s), np.array(t1s)
        ff_sampling_batch(t0s, t1s, sk.flat_tree, Recorder())

    small = [cycles for cycles, offset in records if offset <= 1]
    large = [cycles for cycles, offset in records if offset > 1]
    assert min(len(small), len(large)) > 200, (len(small), len(large))
    result = welch_t(small, large)
    assert abs(result.t_statistic) <= T_THRESHOLD, result.t_statistic
    assert not result.leaking


def zip_fft(point, key_fft):
    """(fft of hashed point) zipped with a key transform — helper for
    building signing targets outside SecretKey."""
    from repro.falcon import fft

    return zip(fft([float(c) for c in point]), key_fft)


def test_walltime_measure_runs():
    """Wall-clock mode is informational; assert only that it works."""
    sampler = LinearScanCdtSampler(PARAMS, source=ChaChaSource(4))
    report = audit_sampler(sampler, calls=400, measure="walltime")
    assert report.measure == "walltime"
    assert report.results


def test_unknown_measure_rejected():
    sampler = LinearScanCdtSampler(PARAMS, source=ChaChaSource(5))
    with pytest.raises(ValueError):
        audit_sampler(sampler, calls=10, measure="bogus")
