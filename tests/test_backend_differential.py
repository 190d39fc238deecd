"""Differential tests: both lane compactions yield the same samples.

Words are Python ints on every platform (:mod:`repro.bitslice.wordengine`).
The one fork left is how a kernel pass's output words become per-lane
samples: one NumPy ``unpackbits`` transpose when NumPy imports
(:func:`~repro.bitslice.compact_numpy`), the pure-Python byte-sliced
compaction otherwise (:func:`~repro.bitslice.compact_python`, the only
body the no-NumPy leg runs).  These tests pin the two together — same
samples, same byte counts, same batch and discard counters — across a
sweep of sigma / precision / batch widths, including widths that are
not multiples of 64 nor of 8.

The pure-Python body is forced by setting the module's ``_np`` to
``None``.  Parametrized tests name the body under test: ``bigint`` is
the pure-Python compaction (the bigint engine's own), ``numpy`` the
NumPy transpose, which needs NumPy installed.
"""

from __future__ import annotations

import contextlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BitslicedIntegerSampler
from repro.bitslice import (
    HAVE_NUMPY,
    compact_numpy,
    compact_python,
    wordengine,
)
from repro.core import compile_sampler, compile_sampler_circuit
from repro.core.gaussian import GaussianParams
from repro.core.sampler import DEFAULT_MAX_FUSED_BATCHES, BitslicedSampler
from repro.rng import ChaChaSource, CounterSource

requires_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                    reason="NumPy not installed")

#: Compaction bodies compared against the pure-Python reference.
CANDIDATE_BODIES = [pytest.param("numpy", marks=requires_numpy)]

#: Widths covering whole chunks, partial chunks and partial bytes.
WIDTHS = [8, 13, 33, 64, 100, 128, 256]


@contextlib.contextmanager
def _without_numpy():
    """Run the pure-Python compaction body inside the block."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wordengine, "_np", None)
        yield


def _use_body(monkeypatch, body: str) -> None:
    if body == "bigint":
        monkeypatch.setattr(wordengine, "_np", None)


def _both(make, work):
    """``work(make())`` on the pure-Python body, then on the default
    body (the NumPy transpose when NumPy is installed)."""
    with _without_numpy():
        reference = work(make())
    return reference, work(make())


def _counters(sampler: BitslicedSampler) -> tuple[int, int, int]:
    return (sampler.source.bytes_read, sampler.batches_run,
            sampler.samples_discarded)


def test_one_engine_class_defines_every_traced_hook():
    """Tracers wrap ``draw_words``, ``run_kernel`` and ``compact`` on
    every listed engine class.  One class that defines all three in its
    own body is wrapped exactly once per refill stage."""
    (engine,) = wordengine._ENGINE_CLASSES.values()
    assert {"draw_words", "run_kernel", "compact"} <= set(vars(engine))
    circuit = compile_sampler_circuit(GaussianParams.from_sigma(2, 12))
    assert type(BitslicedSampler(circuit).engine) is engine


@requires_numpy
@pytest.mark.parametrize("width", WIDTHS + [4096])
def test_compaction_bodies_agree(width):
    """The same kernel-pass words through both bodies."""
    sampler = compile_sampler(2, 16, source=ChaChaSource(width),
                              batch_width=width)
    for _ in range(4):
        words = sampler._kernel_pass(width)
        assert compact_numpy(*words, width) == \
            compact_python(*words, width)


@requires_numpy
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       width=st.integers(min_value=1, max_value=200))
def test_property_any_seed_any_width(seed, width):
    """Property form: arbitrary seeds and widths, cheap Counter PRNG."""
    sampler = compile_sampler(2, 12, source=CounterSource(seed),
                              batch_width=width)
    words = sampler._kernel_pass(width)
    assert compact_numpy(*words, width) == compact_python(*words, width)


@pytest.mark.parametrize("body", CANDIDATE_BODIES)
@pytest.mark.parametrize("width", WIDTHS)
def test_sample_batch_bit_identical(body, width):
    def work(sampler):
        return [sampler.sample_batch() for _ in range(8)], \
            _counters(sampler)

    reference, candidate = _both(
        lambda: compile_sampler(2, 16, source=ChaChaSource(21),
                                batch_width=width), work)
    assert candidate == reference


@pytest.mark.parametrize("body", CANDIDATE_BODIES)
@pytest.mark.parametrize("sigma,precision", [
    (1, 12), (2, 16), (2, 24), (3.5, 20), (0.8, 14),
])
def test_sample_many_bit_identical(body, sigma, precision):
    reference, candidate = _both(
        lambda: compile_sampler(sigma, precision, source=ChaChaSource(5)),
        lambda sampler: (sampler.sample_many(999), _counters(sampler)))
    assert candidate == reference


@pytest.mark.parametrize("body", CANDIDATE_BODIES)
@pytest.mark.parametrize("width", [33, 64, 100])
def test_raw_batch_masks_bit_identical(body, width):
    """``raw_batch``'s magnitudes and lane masks, compacted by hand,
    are exactly what the compaction returns for the same pass."""
    raw = compile_sampler(2, 12, source=ChaChaSource(77),
                          batch_width=width)
    compacted = compile_sampler(2, 12, source=ChaChaSource(77),
                                batch_width=width)
    for _ in range(4):
        magnitudes, valid, signs = raw.raw_batch()
        assert valid >> width == 0 and signs >> width == 0
        expected = [-magnitudes[lane] if (signs >> lane) & 1
                    else magnitudes[lane]
                    for lane in range(width) if (valid >> lane) & 1]
        assert compacted.sample_batch() == expected
    assert raw.batches_run == compacted.batches_run == 4


@pytest.mark.parametrize("body", CANDIDATE_BODIES)
def test_stream_and_prefetch_bit_identical(body):
    """``sample_many`` and the prefetched ``sample`` across several
    refills: same samples and counters on both bodies."""
    def work(sampler):
        values = sampler.sample_many(5000)  # two fused passes
        values += [sampler.sample() for _ in range(300)]
        return values, _counters(sampler)

    reference, candidate = _both(
        lambda: compile_sampler(2, 16, source=ChaChaSource(3),
                                prefetch_batches=4), work)
    assert candidate == reference


@pytest.mark.parametrize("body", CANDIDATE_BODIES)
def test_sample_many_across_refills_identical(body):
    """The signing pool: per-call draws and ``sample_many`` across
    4096-lane refill boundaries, with the booked operation trace."""
    def work(sampler):
        values = [sampler.sample() for _ in range(300)]
        values += sampler.sample_many(2 * DEFAULT_MAX_FUSED_BATCHES * 64)
        assert sampler.inner.batches_run >= 2 * DEFAULT_MAX_FUSED_BATCHES
        return (values, _counters(sampler.inner),
                sampler.counter.counts.as_dict())

    reference, candidate = _both(
        lambda: BitslicedIntegerSampler(GaussianParams.from_sigma(2, 16),
                                        source=ChaChaSource(12)), work)
    assert candidate == reference


@requires_numpy
def test_numpy_engine_is_really_numpy(monkeypatch):
    """With NumPy installed, compaction runs the NumPy transpose and
    never silently falls back to the pure-Python body."""
    import numpy

    def fail(*args):
        raise AssertionError("pure-Python compaction ran with NumPy")

    monkeypatch.setattr(wordengine, "compact_python", fail)
    assert wordengine._np is numpy
    assert len(compile_sampler(2, 16).sample_many(5000)) == 5000


def test_read_words_matches_sequential_reads():
    """The bulk RNG read every kernel pass makes is byte-identical to
    drawing words one at a time."""
    for bits in (7, 8, 12, 64, 100):
        sequential = ChaChaSource(9)
        bulk = ChaChaSource(9)
        expected = [sequential.read_word(bits) for _ in range(10)]
        assert bulk.read_words(bits, 10) == expected


@pytest.mark.parametrize("body", [
    "bigint", pytest.param("numpy", marks=requires_numpy)])
def test_buffered_source_is_sample_transparent(body, monkeypatch):
    """Keystream buffering and PRNG vectorization never change the
    sample stream: on either compaction body, a buffered source
    reproduces the unbuffered scalar-ChaCha stream exactly."""
    _use_body(monkeypatch, body)
    circuit = compile_sampler_circuit(GaussianParams.from_sigma(2, 16))
    reference = BitslicedSampler(
        circuit, source=ChaChaSource(13, buffer_bytes=0,
                                     vectorized=False),
        batch_width=100)
    buffered = BitslicedSampler(
        circuit, source=ChaChaSource(13, buffer_bytes=4096),
        batch_width=100)
    assert buffered.sample_many(777) == reference.sample_many(777)
    assert buffered.source.bytes_read == reference.source.bytes_read
