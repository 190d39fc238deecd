"""Differential tests: every word engine yields the same bit stream.

The word engines (:mod:`repro.bitslice.wordengine`) promise that
switching backends changes throughput, never output: for the same PRNG
seed, the bigint and NumPy engines must produce **identical**
samples, byte counts and lane masks.  These tests pin that contract
across a sweep of sigma / precision / batch widths, including widths
that are not multiples of 64 (partial chunks) nor of 8 (partial bytes).

When NumPy is missing, ``engine="numpy"`` degrades to the bigint
engine; the suite still runs and still demands bit-identity.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bitslice import HAVE_NUMPY, available_engines, get_engine
from repro.core import compile_sampler, compile_sampler_circuit
from repro.core.gaussian import GaussianParams
from repro.core.sampler import BitslicedSampler
from repro.rng import ChaChaSource, CounterSource

#: Engines differentially compared against the bigint reference.
OTHER_ENGINES = ["numpy"]

#: Widths covering whole chunks, partial chunks and partial bytes.
WIDTHS = [8, 13, 33, 64, 100, 128, 256]


def _pair(sigma, precision, width, seed, engine, **kwargs):
    reference = compile_sampler(sigma, precision,
                                source=ChaChaSource(seed),
                                batch_width=width, engine="bigint",
                                **kwargs)
    candidate = compile_sampler(sigma, precision,
                                source=ChaChaSource(seed),
                                batch_width=width, engine=engine,
                                **kwargs)
    return reference, candidate


def test_engine_registry_roundtrip():
    assert available_engines() == ["bigint", "numpy"]
    assert get_engine("bigint").name == "bigint"
    assert get_engine("numpy").name == ("numpy" if HAVE_NUMPY
                                        else "bigint")
    auto = get_engine("auto")
    assert auto.name == ("numpy" if HAVE_NUMPY else "bigint")
    with pytest.raises(ValueError):
        get_engine("avx512")


@pytest.mark.parametrize("engine", OTHER_ENGINES)
@pytest.mark.parametrize("width", WIDTHS)
def test_sample_batch_bit_identical(engine, width):
    reference, candidate = _pair(2, 16, width, seed=21, engine=engine)
    for _ in range(8):
        assert candidate.sample_batch() == reference.sample_batch()
    assert candidate.source.bytes_read == reference.source.bytes_read
    assert candidate.samples_discarded == reference.samples_discarded


@pytest.mark.parametrize("engine", OTHER_ENGINES)
@pytest.mark.parametrize("sigma,precision", [
    (1, 12), (2, 16), (2, 24), (3.5, 20), (0.8, 14),
])
def test_sample_many_bit_identical(engine, sigma, precision):
    reference, candidate = _pair(sigma, precision, 64, seed=5,
                                 engine=engine)
    assert candidate.sample_many(999) == reference.sample_many(999)
    assert candidate.source.bytes_read == reference.source.bytes_read
    assert candidate.batches_run == reference.batches_run


@pytest.mark.parametrize("engine", OTHER_ENGINES)
@pytest.mark.parametrize("width", [33, 64, 100])
def test_raw_batch_masks_bit_identical(engine, width):
    """Magnitudes on valid lanes, valid mask and sign mask all agree."""
    reference, candidate = _pair(2, 12, width, seed=77, engine=engine)
    for _ in range(4):
        mags_r, valid_r, signs_r = reference.raw_batch()
        mags_c, valid_c, signs_c = candidate.raw_batch()
        assert valid_c == valid_r
        assert signs_c == signs_r
        for lane in range(width):
            if (valid_r >> lane) & 1:
                assert mags_c[lane] == mags_r[lane]


@pytest.mark.parametrize("engine", OTHER_ENGINES)
def test_stream_and_prefetch_bit_identical(engine):
    """The super-batched paths agree too, not just single batches."""
    reference, candidate = _pair(2, 16, 64, seed=3, engine=engine,
                                 prefetch_batches=4)
    ref_iter = reference.stream(block_samples=500)
    cand_iter = candidate.stream(block_samples=500)
    assert [next(cand_iter) for _ in range(1200)] == \
        [next(ref_iter) for _ in range(1200)]
    assert candidate.sample() == reference.sample()


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       width=st.integers(min_value=1, max_value=200),
       engine=st.sampled_from(OTHER_ENGINES))
def test_property_any_seed_any_width(seed, width, engine):
    """Property form: arbitrary seeds and widths, cheap Counter PRNG."""
    params = GaussianParams.from_sigma(2, 12)
    circuit = compile_sampler_circuit(params)
    reference = BitslicedSampler(circuit, source=CounterSource(seed),
                                 batch_width=width, engine="bigint")
    candidate = BitslicedSampler(circuit, source=CounterSource(seed),
                                 batch_width=width, engine=engine)
    assert candidate.sample_many(150) == reference.sample_many(150)
    assert candidate.source.bytes_read == reference.source.bytes_read


@pytest.mark.skipif(not HAVE_NUMPY, reason="NumPy not installed")
def test_numpy_engine_is_really_numpy():
    """When NumPy is present, the numpy name must map to the vector
    engine (not silently fall back), and auto must pick it."""
    from repro.bitslice import NumpyEngine

    assert isinstance(get_engine("numpy"), NumpyEngine)
    assert isinstance(get_engine("auto"), NumpyEngine)
    assert get_engine(None).name == "numpy"


def test_read_words_matches_sequential_reads():
    """The bulk RNG primitive the engines share is byte-identical to
    drawing words one at a time."""
    for bits in (7, 8, 12, 64, 100):
        sequential = ChaChaSource(9)
        bulk = ChaChaSource(9)
        expected = [sequential.read_word(bits) for _ in range(10)]
        assert bulk.read_words(bits, 10) == expected


@pytest.mark.parametrize("engine", ["bigint", "numpy"])
def test_buffered_source_is_sample_transparent(engine):
    """Keystream buffering and PRNG vectorization never change the
    sample stream: every engine fed a buffered source reproduces the
    unbuffered scalar-ChaCha stream exactly."""
    circuit = compile_sampler_circuit(GaussianParams.from_sigma(2, 16))
    reference = BitslicedSampler(
        circuit, source=ChaChaSource(13, buffer_bytes=0,
                                     vectorized=False),
        batch_width=100, engine=engine)
    buffered = BitslicedSampler(
        circuit, source=ChaChaSource(13, buffer_bytes=4096),
        batch_width=100, engine=engine)
    assert buffered.sample_many(777) == reference.sample_many(777)
    assert buffered.source.bytes_read == reference.source.bytes_read


def test_auto_batch_width_resolves_per_engine():
    from repro.core.sampler import BATCH_WIDTH_CALIBRATION

    circuit = compile_sampler_circuit(GaussianParams.from_sigma(2, 12))
    for engine, expected in BATCH_WIDTH_CALIBRATION.items():
        sampler = BitslicedSampler(circuit, batch_width="auto",
                                   engine=engine)
        if engine == "numpy" and not HAVE_NUMPY:
            # numpy degrades to bigint; auto follows it.
            expected = BATCH_WIDTH_CALIBRATION["bigint"]
        assert sampler.batch_width == expected
        assert len(sampler.sample_many(2 * expected + 5)) == \
            2 * expected + 5
    with pytest.raises(ValueError):
        BitslicedSampler(circuit, batch_width="wide")
