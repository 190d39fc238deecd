"""Tests for the op-count cost model."""

import pytest

from repro.ct import (
    DEFAULT_CYCLE_WEIGHTS,
    PRNG_CYCLES_PER_BYTE,
    OpCounter,
    OpCounts,
)


def test_counter_accumulates():
    counter = OpCounter()
    counter.word_op(5)
    counter.compare()
    counter.load(3)
    counter.branch(2)
    counter.rng(16)
    counts = counter.counts
    assert counts.word_ops == 5
    assert counts.compares == 1
    assert counts.loads == 3
    assert counts.branches == 2
    assert counts.rng_bytes == 16


def test_snapshot_delta():
    counter = OpCounter()
    counter.word_op(10)
    before = counter.snapshot()
    counter.word_op(7)
    counter.rng(4)
    delta = counter.delta(before)
    assert delta.word_ops == 7
    assert delta.rng_bytes == 4
    assert delta.compares == 0
    # Snapshot is a copy, not a view.
    counter.word_op(100)
    assert before.word_ops == 10


def test_reset():
    counter = OpCounter()
    counter.load(9)
    counter.reset()
    assert counter.counts.loads == 0


def test_modeled_cycles_weighting():
    counts = OpCounts(word_ops=10, compares=5, loads=3, branches=2,
                      rng_bytes=8)
    expected_core = (10 * DEFAULT_CYCLE_WEIGHTS["word_ops"]
                     + 5 * DEFAULT_CYCLE_WEIGHTS["compares"]
                     + 3 * DEFAULT_CYCLE_WEIGHTS["loads"]
                     + 2 * DEFAULT_CYCLE_WEIGHTS["branches"])
    no_rng = counts.modeled_cycles(include_rng=False)
    assert no_rng == expected_core
    with_rng = counts.modeled_cycles(prng="chacha20")
    assert with_rng == expected_core + 8 * PRNG_CYCLES_PER_BYTE["chacha20"]


def test_modeled_cycles_custom_weights():
    counts = OpCounts(word_ops=4)
    assert counts.modeled_cycles(
        weights={"word_ops": 2.0, "compares": 0, "loads": 0,
                 "branches": 0},
        include_rng=False) == 8.0


def test_prng_backend_ordering():
    """The model must respect the paper's cost narrative:
    Keccak > ChaCha20 > ChaCha8 > AES-NI-class > counter."""
    order = ["shake256", "chacha20", "chacha8", "aesni", "counter"]
    values = [PRNG_CYCLES_PER_BYTE[name] for name in order]
    assert values == sorted(values, reverse=True)
    assert PRNG_CYCLES_PER_BYTE["shake128"] < \
        PRNG_CYCLES_PER_BYTE["shake256"]


def test_unknown_prng_raises():
    with pytest.raises(ValueError, match="unknown PRNG backend"):
        OpCounts(rng_bytes=1).modeled_cycles(prng="rdrand")


def test_unknown_prng_ignored_without_rng():
    """The PRNG table is only consulted when RNG cost is included."""
    assert OpCounts(word_ops=2).modeled_cycles(
        prng="rdrand", include_rng=False) == 2.0


def test_incomplete_weights_raise():
    with pytest.raises(ValueError, match="missing"):
        OpCounts(word_ops=1).modeled_cycles(
            weights={"word_ops": 1.0}, include_rng=False)


def test_add_and_copy():
    a = OpCounts(word_ops=1, rng_bytes=2)
    b = OpCounts(word_ops=3, compares=4)
    a.add(b)
    assert a.word_ops == 4 and a.compares == 4 and a.rng_bytes == 2
    clone = a.copy()
    clone.word_ops = 99
    assert a.word_ops == 4


def test_as_dict():
    counts = OpCounts(word_ops=1, compares=2, loads=3, branches=4,
                      rng_bytes=5)
    assert counts.as_dict() == {
        "word_ops": 1, "compares": 2, "loads": 3, "branches": 4,
        "rng_bytes": 5}


# -- the bitsliced backend through the IntegerSampler interface ---------

def test_bitsliced_adapter_trace_is_per_batch_constant():
    """Booked costs advance in whole-batch quanta: after any number of
    draws the trace equals batches_run times the per-batch constants."""
    from repro.baselines import BitslicedIntegerSampler
    from repro.core.gaussian import GaussianParams
    from repro.rng import ChaChaSource

    sampler = BitslicedIntegerSampler(
        GaussianParams.from_sigma(2, 16), source=ChaChaSource(4))
    for _ in range(130):
        sampler.sample()
    counts = sampler.counter.counts
    batches = sampler.inner.batches_run
    assert counts.word_ops == batches * sampler.inner.word_ops_per_batch
    assert counts.rng_bytes == \
        batches * sampler.inner.random_bytes_per_batch
    assert counts.compares == 0
    assert counts.branches == 0
