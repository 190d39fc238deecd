"""Tests for Falcon key/signature serialization."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.falcon import (
    DecompressError,
    PublicKey,
    SecretKey,
    SerializeError,
    Signature,
    decode_public_key,
    decode_secret_key,
    decode_signature,
    decompress,
    encode_public_key,
    encode_secret_key,
    encode_signature,
)

_CACHE: dict[int, SecretKey] = {}


def _secret_key(n=64) -> SecretKey:
    if n not in _CACHE:
        _CACHE[n] = SecretKey.generate(n=n, seed=3)
    return _CACHE[n]


def test_public_key_round_trip():
    sk = _secret_key()
    encoded = encode_public_key(sk.public_key)
    decoded = decode_public_key(encoded)
    assert decoded.n == sk.n
    assert decoded.h == sk.public_key.h
    # 1 header byte + 14 bits per coefficient.
    assert len(encoded) == 1 + (14 * sk.n + 7) // 8


def test_public_key_rejects_out_of_range():
    bad = PublicKey(4, [0, 1, 2, 20000])
    with pytest.raises(SerializeError):
        encode_public_key(bad)


def test_public_key_decode_rejects_bad_header():
    sk = _secret_key()
    data = bytearray(encode_public_key(sk.public_key))
    data[0] |= 0xF0
    with pytest.raises(SerializeError):
        decode_public_key(bytes(data))


def test_public_key_decode_rejects_nonzero_padding():
    sk = _secret_key()
    data = bytearray(encode_public_key(sk.public_key))
    if sk.n * 14 % 8:
        data[-1] |= 1
        with pytest.raises(SerializeError):
            decode_public_key(bytes(data))


def test_secret_key_round_trip_preserves_trapdoor():
    sk = _secret_key()
    encoded = encode_secret_key(sk)
    restored = decode_secret_key(encoded)
    assert restored.keys.f == sk.keys.f
    assert restored.keys.g == sk.keys.g
    assert restored.keys.F == sk.keys.F
    assert restored.keys.G == sk.keys.G  # recomputed, must agree
    assert restored.keys.h == sk.keys.h


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_secret_key_round_trip_across_degrees(n):
    """The G-recomputation decode path must hold at every supported
    ring degree — the (f, g) field widths shrink as n grows, so each
    degree exercises a different packing geometry."""
    sk = SecretKey.generate(n=n, seed=100 + n)
    restored = decode_secret_key(encode_secret_key(sk))
    assert restored.n == n
    assert restored.keys.f == sk.keys.f
    assert restored.keys.g == sk.keys.g
    assert restored.keys.F == sk.keys.F
    assert restored.keys.G == sk.keys.G
    assert restored.keys.h == sk.keys.h
    assert restored.keys.verify_ntru_equation()


@pytest.mark.parametrize("n", [8, 32])
def test_g_recomputation_is_not_a_copy(n):
    """Sanity for the recomputation path: G is genuinely derived from
    (f, g, F) via the NTT quotient, not deserialized — corrupting F in
    the stream must surface as an equation failure, never a silently
    different G."""
    sk = SecretKey.generate(n=n, seed=200 + n)
    data = bytearray(encode_secret_key(sk))
    data[-2] ^= 0x10  # inside F's fields for every supported layout
    with pytest.raises((SerializeError, ZeroDivisionError)):
        decode_secret_key(bytes(data))


def test_encode_rejects_oversized_F_width():
    """F coefficients beyond the 24-bit field ceiling must be refused
    at encode time (an unreduced basis, exactly what the Babai-stall
    bug used to produce)."""
    sk = _secret_key(8)
    bloated = SecretKey(
        type(sk.keys)(f=sk.keys.f, g=sk.keys.g,
                      F=[c + (1 << 30) for c in sk.keys.F],
                      G=sk.keys.G, h=sk.keys.h))
    with pytest.raises(SerializeError, match="unexpectedly large"):
        encode_secret_key(bloated)


def test_decode_rejects_out_of_range_widths():
    sk = _secret_key(8)
    data = bytearray(encode_secret_key(sk))
    for bad_width in (0, 8, 25, 255):  # outside [_MIN, _MAX]
        data[1] = bad_width
        with pytest.raises(SerializeError, match="width"):
            decode_secret_key(bytes(data))


def test_restored_secret_key_signs_and_verifies():
    sk = _secret_key()
    restored = decode_secret_key(encode_secret_key(sk))
    message = b"restored key signing"
    signature = restored.sign(message)
    assert sk.public_key.verify(message, signature)


def test_secret_key_decode_rejects_corruption():
    sk = _secret_key()
    data = bytearray(encode_secret_key(sk))
    data[10] ^= 0xFF
    with pytest.raises(SerializeError):
        decode_secret_key(bytes(data))


def test_signature_round_trip():
    sk = _secret_key()
    message = b"serialize me"
    signature = sk.sign(message)
    encoded = encode_signature(signature, sk.n)
    decoded, n = decode_signature(encoded)
    assert n == sk.n
    assert decoded.salt == signature.salt
    assert decoded.compressed == signature.compressed
    assert sk.public_key.verify(message, decoded)


def test_signature_decode_rejects_bad_header_and_length():
    sk = _secret_key()
    signature = sk.sign(b"x")
    encoded = bytearray(encode_signature(signature, sk.n))
    encoded[0] = 0x77
    with pytest.raises(SerializeError):
        decode_signature(bytes(encoded))
    with pytest.raises(SerializeError):
        decode_signature(encode_signature(signature, sk.n)[:-3])
    with pytest.raises(SerializeError):
        decode_signature(b"\x36")


def test_signature_decode_leaves_canonicity_to_the_verifier():
    """decode_signature checks framing only: a well-framed payload
    with a set padding bit comes back unchanged, and verification,
    whose first step is the canonical decode, rejects it."""
    sk = _secret_key()
    message = b"padding"
    signature = sk.sign(message)
    blob = bytearray(signature.compressed)
    blob[-1] |= 1
    encoded = encode_signature(
        Signature(salt=signature.salt, compressed=bytes(blob)), sk.n)
    decoded, n = decode_signature(encoded)
    assert n == sk.n
    assert decoded.salt == signature.salt
    assert decoded.compressed == bytes(blob)
    with pytest.raises(DecompressError, match="padding"):
        decompress(decoded.compressed, n)
    assert sk.public_key.verify(message, decoded) is False
    assert sk.public_key.verify(message, signature) is True


@settings(max_examples=40, deadline=None)
@given(st.binary(min_size=0, max_size=200))
def test_decoders_never_crash_on_garbage(blob):
    """Fuzz: decoders must raise SerializeError, not arbitrary errors."""
    for decoder in (decode_public_key, decode_signature):
        try:
            decoder(blob)
        except SerializeError:
            pass
    try:
        decode_secret_key(blob)
    except (SerializeError, ZeroDivisionError):
        # f may decode to a non-invertible polynomial: also a clean
        # rejection path (divider raises before any state is built).
        pass


def test_encoded_sizes_reported():
    sk = _secret_key()
    pk_len = len(encode_public_key(sk.public_key))
    sk_len = len(encode_secret_key(sk))
    sig_len = len(encode_signature(sk.sign(b"m"), sk.n))
    assert pk_len < sk_len  # h packs tighter than three polynomials
    assert sig_len > 40     # salt alone is 40 bytes
