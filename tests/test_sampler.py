"""Tests for the batch BitslicedSampler."""

import math

import pytest

from repro.bitslice import HAVE_NUMPY, wordengine
from repro.core import (
    BitslicedSampler,
    GaussianParams,
    compile_sampler,
    compile_sampler_circuit,
)
from repro.rng import ChaChaSource, CounterSource


def _folded_gaussian_pmf(sigma, bound):
    weights = {v: math.exp(-v * v / (2 * sigma * sigma))
               for v in range(-bound, bound + 1)}
    total = sum(weights.values())
    return {v: w / total for v, w in weights.items()}


def test_compile_sampler_convenience():
    sampler = compile_sampler(sigma=2, precision=24,
                              source=ChaChaSource(1))
    values = sampler.sample_many(100)
    assert len(values) == 100
    assert all(abs(v) <= 26 for v in values)


def test_deterministic_given_seed():
    a = compile_sampler(2, 24, source=ChaChaSource(9))
    b = compile_sampler(2, 24, source=ChaChaSource(9))
    assert a.sample_many(300) == b.sample_many(300)


def test_batch_width_variants_same_distribution_support():
    for width in (8, 64, 256):
        sampler = compile_sampler(2, 20, source=ChaChaSource(3),
                                  batch_width=width)
        batch = sampler.sample_batch()
        assert len(batch) <= width
        assert all(abs(v) <= 26 for v in batch)


def test_invalid_batch_width_rejected():
    circuit = compile_sampler_circuit(GaussianParams.from_sigma(2, 12))
    for width in (0, -64, "auto"):
        with pytest.raises(ValueError):
            BitslicedSampler(circuit, batch_width=width)


def test_sample_many_exact_count():
    sampler = compile_sampler(2, 16, source=ChaChaSource(4))
    assert len(sampler.sample_many(1)) == 1
    assert len(sampler.sample_many(129)) == 129


def test_random_byte_accounting():
    sampler = compile_sampler(2, 16, source=ChaChaSource(5),
                              batch_width=64)
    sampler.source.reset_count()
    sampler.sample_batch()
    # 16 input words + 1 sign word, 8 bytes each.
    assert sampler.source.bytes_read == 17 * 8
    assert sampler.random_bytes_per_batch == 17 * 8


def test_discards_tracked_at_low_precision():
    # sigma = 2, n = 6 has failure probability 3/64 per lane.
    sampler = compile_sampler(2, 6, source=ChaChaSource(6))
    for _ in range(50):
        sampler.sample_batch()
    assert sampler.samples_discarded > 0
    assert sampler.batches_run == 50


def test_distribution_chi_square():
    """Chi-square GoF against the exact folded Gaussian, sigma = 2."""
    sampler = compile_sampler(2, 32, source=ChaChaSource(7))
    draws = 30_000
    values = sampler.sample_many(draws)
    pmf = _folded_gaussian_pmf(2.0, 26)
    # Bin |v| >= 6 together to keep expected counts healthy.
    observed: dict = {}
    for v in values:
        key = v if abs(v) < 6 else ("tail", v > 0)
        observed[key] = observed.get(key, 0) + 1
    expected: dict = {}
    for v, p in pmf.items():
        key = v if abs(v) < 6 else ("tail", v > 0)
        expected[key] = expected.get(key, 0) + p * draws
    chi2 = sum((observed.get(k, 0) - e) ** 2 / e
               for k, e in expected.items() if e > 5)
    dof = sum(1 for e in expected.values() if e > 5) - 1
    # 3-sigma band for chi-square: mean dof, sd sqrt(2 dof).
    assert chi2 < dof + 5 * math.sqrt(2 * dof), (chi2, dof)


def test_signs_are_balanced():
    sampler = compile_sampler(2, 32, source=ChaChaSource(8))
    values = [v for v in sampler.sample_many(20_000) if v != 0]
    positives = sum(1 for v in values if v > 0)
    ratio = positives / len(values)
    assert 0.47 < ratio < 0.53


def test_cycles_per_sample_reasonable():
    sampler = compile_sampler(2, 64, source=ChaChaSource(9))
    # One kernel run is a fixed instruction sequence.
    assert sampler.word_ops_per_batch == sampler.kernel.stats.word_ops
    assert 1 < sampler.cycles_per_sample < 500


def test_counter_source_works_too():
    sampler = compile_sampler(2, 24, source=CounterSource(11))
    values = sampler.sample_many(200)
    assert all(abs(v) <= 26 for v in values)


def test_invalid_prefetch_and_fusion_rejected():
    circuit = compile_sampler_circuit(GaussianParams.from_sigma(2, 12))
    with pytest.raises(ValueError):
        BitslicedSampler(circuit, prefetch_batches=0)


# -- constant-time regression: the PRNG trace is value-independent -------

@pytest.mark.parametrize("body", [
    "bigint", pytest.param("numpy", marks=pytest.mark.skipif(
        not HAVE_NUMPY, reason="NumPy not installed"))])
def test_prng_trace_is_value_independent(body, monkeypatch):
    """Each batch consumes exactly random_bytes_per_batch bytes, no
    matter which values (or how many discards) it produces, on either
    lane compaction (``bigint`` forces the pure-Python one)."""
    if body == "bigint":
        monkeypatch.setattr(wordengine, "_np", None)
    sampler = compile_sampler(2, 16, source=ChaChaSource(5),
                              batch_width=64)
    per_batch = sampler.random_bytes_per_batch
    for _ in range(20):
        before = sampler.source.bytes_read
        sampler.sample_batch()
        assert sampler.source.bytes_read - before == per_batch


def test_super_batch_randomness_scales_linearly():
    """A fused f-batch pass draws exactly f times the per-batch bytes
    (width 64 is byte-aligned), preserving the constant-time account."""
    sampler = compile_sampler(2, 16, source=ChaChaSource(3),
                              batch_width=64)
    per_batch = sampler.random_bytes_per_batch
    for fused in (1, 2, 7, 16):
        before = sampler.source.bytes_read
        sampler._sample_block(fused)
        assert sampler.source.bytes_read - before == fused * per_batch
