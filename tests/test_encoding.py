"""Tests for Falcon signature compression.

``decompress(data, n)`` takes the *ring degree* ``n`` and enforces the
parameter set's coefficient range: every decoded magnitude must fit
inside ``max_coefficient(n) = floor(sqrt(beta^2))``, the largest value
any norm-passing signature could carry.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.falcon import (
    HAVE_NUMPY,
    CompressError,
    DecompressError,
    SecretKey,
    compress,
    decompress,
)
from repro.falcon.encoding import (
    _chunk_length,
    decompress_rows,
    max_coefficient,
)
from repro.falcon.params import falcon_params

#: The batched row decoder runs on NumPy; the scalar decoder's tests
#: above it run in both CI legs.
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="the row decoder needs NumPy")


def _bits_to_bytes(bits: str) -> bytes:
    padded = bits + "0" * (-len(bits) % 8)
    return bytes(int(padded[i:i + 8], 2)
                 for i in range(0, len(padded), 8))


def _encode_one(value: int) -> str:
    """Bit string for one coefficient (sign, 7 low bits, unary high)."""
    sign = "1" if value < 0 else "0"
    magnitude = abs(value)
    return (sign + format(magnitude & 0x7F, "07b")
            + "0" * (magnitude >> 7) + "1")


def test_round_trip_simple():
    coeffs = [0, 1, -1, 127, -128, 300, -300, 680]
    data = compress(coeffs, payload_bits=len(coeffs) * 40)
    assert decompress(data, len(coeffs)) == coeffs


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([4, 8, 16, 32, 64]), st.data())
def test_round_trip_random(n, data):
    bound = max_coefficient(n)
    coeffs = data.draw(st.lists(
        st.integers(min_value=-bound, max_value=bound),
        min_size=n, max_size=n))
    budget = 16 * n + 256
    blob = compress(coeffs, payload_bits=budget)
    assert decompress(blob, n) == coeffs


def test_output_length_is_fixed():
    small = compress([0, 0], payload_bits=100)
    large = compress([500, -500], payload_bits=100)
    assert len(small) == len(large) == 13  # ceil(100 / 8)


def test_budget_overflow_raises():
    with pytest.raises(CompressError):
        compress([10**5] * 8, payload_bits=64)


def test_gaussian_coefficients_fit_spec_budget():
    """sigma ~ 165 coefficients fit the ~11 bits/coeff budget."""
    import random
    rng = random.Random(1)
    n = 512
    coeffs = [round(rng.gauss(0, 165.7)) for _ in range(n)]
    data = compress(coeffs, payload_bits=11 * n + 64)
    assert decompress(data, n) == coeffs


def test_max_coefficient_is_norm_bound_root():
    from repro.falcon import falcon_params

    for n in (8, 64, 512):
        bound = max_coefficient(n)
        assert bound * bound <= falcon_params(n).sig_bound
        assert (bound + 1) * (bound + 1) > falcon_params(n).sig_bound


def test_boundary_magnitude_round_trips():
    for n in (4, 8, 64):
        bound = max_coefficient(n)
        coeffs = [bound, -bound] + [0] * (n - 2)
        data = compress(coeffs, payload_bits=16 * n + 256)
        assert decompress(data, n) == coeffs


def test_magnitude_just_beyond_bound_rejected():
    """A unary run one step past the parameter bound is non-canonical
    even though the old ``1 << 10`` guard would have waved it through."""
    for n in (4, 8, 64):
        beyond = ((max_coefficient(n) >> 7) + 1) << 7
        assert beyond <= 1 << 17  # far below the old guard's reach
        bits = _encode_one(beyond) + _encode_one(0) * (n - 1)
        with pytest.raises(DecompressError,
                           match="exceeds the coefficient bound"):
            decompress(_bits_to_bytes(bits), n)


def test_in_range_run_with_overflowing_low_bits_rejected():
    """high <= max_high does not imply in-range: the low bits can still
    push the magnitude past the bound."""
    n = 4
    bound = max_coefficient(n)  # 475: max_high = 3, 475 & 0x7F = 91
    value = ((bound >> 7) << 7) | 0x7F  # 511 > 475, same run length
    assert value > bound
    bits = _encode_one(value) + _encode_one(0) * (n - 1)
    with pytest.raises(DecompressError, match="exceeds the parameter"):
        decompress(_bits_to_bytes(bits), n)


def test_negative_zero_rejected():
    # sign=1, low bits 0000000, unary terminator 1 -> -0.
    bits = "1" + "0" * 7 + "1" + _encode_one(0) * 3
    with pytest.raises(DecompressError, match="negative zero"):
        decompress(_bits_to_bytes(bits), 4)


def test_nonzero_padding_rejected():
    coeffs = [1, 2, 3, -4]
    data = bytearray(compress(coeffs, payload_bits=200))
    data[-1] |= 1
    with pytest.raises(DecompressError, match="padding"):
        decompress(bytes(data), 4)


def test_truncated_stream_rejected():
    coeffs = [400] * 4
    data = compress(coeffs, payload_bits=100)
    with pytest.raises(DecompressError, match="truncated"):
        decompress(data[:2], 4)


def test_truncated_final_run_rejected():
    """A stream that ends mid-run (no terminator) is truncated."""
    bits = _encode_one(1) * 3 + "0" * 8  # 4th coefficient never ends
    with pytest.raises(DecompressError, match="truncated"):
        decompress(_bits_to_bytes(bits), 4)


def test_overlong_unary_rejected():
    # A run longer than any in-range coefficient's, with a terminator
    # present: specifically the run-length guard, not truncation.
    n = 4
    run = (max_coefficient(n) >> 7) + 3
    bits = "0" * 8 + "0" * run + "1" + _encode_one(0) * (n - 1)
    with pytest.raises(DecompressError,
                       match="exceeds the coefficient bound"):
        decompress(_bits_to_bytes(bits), n)


# -- the batched row decoder ----------------------------------------------


def _rows_verdict(blob: bytes, n: int):
    """(accepted, coefficients-or-None) through the batched decoder."""
    coefficients, failed = decompress_rows([blob], n)
    return (not bool(failed[0]),
            None if failed[0] else coefficients[0].tolist())


@needs_numpy
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([4, 8, 16, 64]), st.data())
def test_rows_match_scalar_on_round_trips(n, data):
    bound = max_coefficient(n)
    rows = data.draw(st.lists(
        st.lists(st.integers(min_value=-bound, max_value=bound),
                 min_size=n, max_size=n),
        min_size=1, max_size=6))
    budget = 16 * n + 256
    blobs = [compress(coeffs, payload_bits=budget) for coeffs in rows]
    coefficients, failed = decompress_rows(blobs, n)
    assert not failed.any()
    for row, coeffs in zip(coefficients, rows):
        assert row.tolist() == coeffs


@needs_numpy
@settings(max_examples=60, deadline=None)
@given(st.binary(min_size=8, max_size=64))
def test_rows_accept_reject_matches_scalar_on_garbage(blob):
    """Arbitrary byte blobs: the batched decoder accepts exactly the
    blobs the scalar decoder accepts, with identical coefficients."""
    n = 8
    accepted, row = _rows_verdict(blob, n)
    try:
        reference = decompress(blob, n)
    except DecompressError:
        assert not accepted
    else:
        assert accepted and row == reference


@needs_numpy
def test_rows_reject_each_noncanonical_form():
    n = 4
    beyond = ((max_coefficient(n) >> 7) + 1) << 7
    cases = [
        _bits_to_bytes(_encode_one(beyond) + _encode_one(0) * (n - 1)),
        _bits_to_bytes("1" + "0" * 7 + "1" + _encode_one(0) * (n - 1)),
        _bits_to_bytes(_encode_one(1) * (n - 1) + "0" * 8),
        compress([400] * n, payload_bits=100)[:2],
    ]
    padded = bytearray(compress([1, 2, 3, -4], payload_bits=200))
    padded[-1] |= 1
    cases.append(bytes(padded))
    for blob in cases:
        accepted, _ = _rows_verdict(blob, n)
        assert not accepted
        with pytest.raises(DecompressError):
            decompress(blob, n)


@needs_numpy
def test_rows_isolate_failures_per_lane():
    """One bad lane never disturbs its neighbours' coefficients."""
    n = 8
    budget = 16 * n + 256
    good = [compress([i - 4] * n, payload_bits=budget)
            for i in range(6)]
    bad = bytearray(good[0])
    bad[-1] |= 1  # non-zero padding
    blobs = good[:3] + [bytes(bad)] + good[3:]
    coefficients, failed = decompress_rows(blobs, n)
    assert failed.tolist() == [False] * 3 + [True] + [False] * 3
    for row, blob in zip(coefficients[:3], good[:3]):
        assert row.tolist() == decompress(blob, n)
    for row, blob in zip(coefficients[4:], good[3:]):
        assert row.tolist() == decompress(blob, n)


@needs_numpy
def test_rows_require_equal_widths():
    blobs = [compress([0] * 4, payload_bits=64),
             compress([0] * 4, payload_bits=72)]
    with pytest.raises(ValueError, match="equal-width"):
        decompress_rows(blobs, 4)


# -- the row decoder against the scalar decoder on real signatures --------

def _signature_corpus(n: int, count: int) -> list[bytes]:
    """``count`` real Falcon-``n`` signatures' compressed ``s2``."""
    secret_key = SecretKey.generate(n=n, seed=40 + n)
    return [signature.compressed for signature in secret_key.sign_many(
        [b"corpus-%d-%d" % (n, i) for i in range(count)])]


def _mutate(blob: bytes, rng: random.Random) -> bytes:
    """One corruption of an honest blob, keeping its width: a bit flip,
    set padding bits, a zeroed run across a chunk boundary, a
    truncation (zero-filled to the width) or random bytes."""
    data = bytearray(blob)
    width = len(data)
    kind = rng.randrange(5)
    if kind == 0:
        bit = rng.randrange(8 * width)
        data[bit >> 3] ^= 0x80 >> (bit & 7)
    elif kind == 1:  # a padding bit, most often in the 8 bits after
        value = int.from_bytes(blob, "big")  # the last record
        last = 8 * width - (value & -value).bit_length()
        bit = min(8 * width - 1, last + rng.randint(1, 16))
        data[bit >> 3] |= 0x80 >> (bit & 7)
    elif kind == 2:
        length = _chunk_length(width)
        boundary = length * rng.randrange(1, (width - 1) // length + 1)
        start = boundary - rng.randrange(1, length + 1)
        stop = min(width, boundary + rng.randrange(1, length + 1))
        data[start:stop] = bytes(stop - start)
    elif kind == 3:
        cut = rng.randrange(width)
        data[cut:] = bytes(width - cut)
    else:
        data = bytearray(rng.randbytes(width))
    return bytes(data)


def _assert_rows_match_scalar(blobs: list[bytes], n: int) -> int:
    """Lane by lane, the row decoder accepts exactly what the scalar
    decoder accepts, with the same coefficients; returns the rejects."""
    coefficients, failed = decompress_rows(blobs, n)
    rejects = 0
    for row, blob in enumerate(blobs):
        try:
            reference = decompress(blob, n)
        except DecompressError:
            assert failed[row]
            rejects += 1
        else:
            assert not failed[row]
            assert coefficients[row].tolist() == reference
    return rejects


@needs_numpy
@pytest.mark.parametrize("n", [512, 1024])
def test_rows_match_scalar_on_mutated_real_signatures(n):
    """Mixed batches of 1-32 lanes of honest and corrupted Falcon-n
    signatures: the row decoder and the scalar decoder agree lane by
    lane, on accept/reject and on every coefficient."""
    rng = random.Random(n)
    corpus = _signature_corpus(n, 24)
    width = len(corpus[0])
    assert width == (falcon_params(n).sig_payload_bits + 7) // 8
    rejects = lanes = 0
    for _ in range(12):
        batch = [blob if rng.random() < 0.3 else _mutate(blob, rng)
                 for blob in rng.choices(corpus, k=rng.randint(1, 32))]
        rejects += _assert_rows_match_scalar(batch, n)
        lanes += len(batch)
    short = [blob[:rng.randrange(1, width)] for blob in corpus[:3]]
    for blob in short:  # truncated blobs: a narrower width group each
        rejects += _assert_rows_match_scalar([blob], n)
    assert 0 < rejects < lanes


@needs_numpy
@pytest.mark.parametrize("n", [512, 1024])
def test_rows_find_terminators_at_every_chunk_boundary_offset(n):
    """For each chunk boundary of an ``n``-degree blob and each of the
    16 bit offsets around it (the last byte before it and the first
    byte after it), a record's terminator falls exactly there; every
    such blob decodes as the scalar decoder decodes it."""
    rng = random.Random(7 * n)
    budget = falcon_params(n).sig_payload_bits
    width = (budget + 7) // 8
    length = _chunk_length(width)
    blobs, expected = [], []
    for boundary in range(length, 9 * n // 8, length):
        for target in range(8 * boundary - 8, 8 * boundary + 8):
            # Records of 9 bits each, except that record `index`
            # carries the unary bits that put its terminator at target.
            index = (target + 1) // 9 - 1
            high = [0] * n
            high[index] = (target + 1) % 9
            coeffs = []
            for h in high:
                magnitude = (h << 7) | rng.randrange(128)
                negative = magnitude > 0 and rng.random() < 0.5
                coeffs.append(-magnitude if negative else magnitude)
            blobs.append(compress(coeffs, budget))
            expected.append(coeffs)
    for start in range(0, len(blobs), 32):
        coefficients, failed = decompress_rows(blobs[start:start + 32], n)
        assert not failed.any()
        assert coefficients.tolist() == expected[start:start + 32]
    assert all(decompress(blob, n) == coeffs
               for blob, coeffs in zip(blobs, expected))
