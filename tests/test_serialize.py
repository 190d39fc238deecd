"""Tests for Falcon key/signature serialization."""

import json
import random
from pathlib import Path
from types import SimpleNamespace

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
from repro.falcon.ntrugen import NtruKeys
from repro.falcon.ntt import Q
from repro.falcon.serialize import _fg_width, _FieldReader

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
    with pytest.raises(SerializeError):
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
    except SerializeError:
        pass


def test_encoded_sizes_reported():
    sk = _secret_key()
    pk_len = len(encode_public_key(sk.public_key))
    sk_len = len(encode_secret_key(sk))
    sig_len = len(encode_signature(sk.sign(b"m"), sk.n))
    assert pk_len < sk_len  # h packs tighter than three polynomials
    assert sig_len > 40     # salt alone is 40 bytes


# -- exact key lengths ------------------------------------------------------

@pytest.mark.parametrize("extra", [1, 2, 7])
def test_key_decoders_reject_trailing_zero_bytes(extra):
    """A key encoding has exactly one length per degree: trailing zero
    bytes would make a second encoding of the same key (and a second
    signing stream, since the stream's seed hashes the encoding)."""
    sk = _secret_key(8)
    padding = b"\x00" * extra
    with pytest.raises(SerializeError, match="public-key length"):
        decode_public_key(encode_public_key(sk.public_key) + padding)
    with pytest.raises(SerializeError, match="secret-key length"):
        decode_secret_key(encode_secret_key(sk) + padding)
    with pytest.raises(SerializeError):
        decode_public_key(encode_public_key(sk.public_key)[:-1])
    with pytest.raises(SerializeError):
        decode_secret_key(encode_secret_key(sk)[:-1])


def test_non_invertible_f_raises_serialize_error():
    """A well-framed secret key whose f is not invertible mod q (here
    all zero) is a malformed key: SerializeError, as load_secret_key
    promises, not the divider's ZeroDivisionError."""
    sk = _secret_key(8)
    data = bytearray(encode_secret_key(sk))
    f_bytes = 8 * _fg_width(8) // 8  # f starts on byte 2, byte-aligned
    data[2:2 + f_bytes] = bytes(f_bytes)
    with pytest.raises(SerializeError, match="not invertible"):
        decode_secret_key(bytes(data))


# -- the field reader against the bit-by-bit reference ----------------------

class _BitUnpacker:
    """The key decoders' former reader, one bit per step: the reference
    the field reader must match."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def take(self, width: int) -> int:
        value = 0
        for _ in range(width):
            byte_index, bit_index = divmod(self._pos, 8)
            if byte_index >= len(self._data):
                raise SerializeError("truncated stream")
            value = (value << 1) | \
                ((self._data[byte_index] >> (7 - bit_index)) & 1)
            self._pos += 1
        return value

    def take_signed(self, width: int) -> int:
        raw = self.take(width)
        if raw >= 1 << (width - 1):
            raw -= 1 << width
        return raw

    def expect_zero_padding(self) -> None:
        total = len(self._data) * 8
        while self._pos < total:
            byte_index, bit_index = divmod(self._pos, 8)
            if (self._data[byte_index] >> (7 - bit_index)) & 1:
                raise SerializeError("non-zero padding")
            self._pos += 1


def _outcome(read):
    """``("ok", read())``, or ``("error", message)`` when ``read()``
    raised SerializeError."""
    try:
        return ("ok", read())
    except SerializeError as error:
        return ("error", str(error))


@settings(max_examples=80, deadline=None)
@given(st.binary(max_size=48),
       st.lists(st.tuples(st.integers(1, 24), st.integers(1, 12),
                          st.booleans()), max_size=6))
def test_field_reader_matches_bit_unpacker(data, runs):
    """Runs of fixed-width fields at any bit alignment, signed or not,
    past the end or not, then the padding check: the field reader and
    the bit-by-bit reference agree field for field and error for
    error."""
    reader, reference = _FieldReader(data), _BitUnpacker(data)
    for width, count, signed in runs:
        take = reference.take_signed if signed else reference.take
        expected = _outcome(lambda: [take(width) for _ in range(count)])
        got = _outcome(lambda: (reader.take_signed if signed
                                else reader.take)(width, count))
        assert got == expected
        if expected[0] == "error":
            return
    assert _outcome(reader.expect_zero_padding) \
        == _outcome(reference.expect_zero_padding)


def _reference_public_key(data: bytes):
    """:func:`decode_public_key`'s checks over the reference reader."""
    unpacker = _BitUnpacker(data)
    header = unpacker.take(8)
    if header & 0xF0 or not 2 <= header & 0x0F <= 10:
        raise SerializeError("bad header")
    n = 1 << (header & 0x0F)
    if len(data) != 1 + (14 * n + 7) // 8:
        raise SerializeError("bad length")
    h = [unpacker.take(14) for _ in range(n)]
    if any(c >= Q for c in h):
        raise SerializeError("coefficient >= q")
    unpacker.expect_zero_padding()
    return n, h


def _reference_secret_fields(data: bytes):
    """``(f, g, F)`` as :func:`decode_secret_key` frames them, over the
    reference reader."""
    unpacker = _BitUnpacker(data)
    header = unpacker.take(8)
    if header & 0xF0 != 0x50 or not 2 <= header & 0x0F <= 10:
        raise SerializeError("bad header")
    n = 1 << (header & 0x0F)
    f_width = unpacker.take(8)
    if not 9 <= f_width <= 24:
        raise SerializeError("bad width")
    width = _fg_width(n)
    if len(data) != 2 + (2 * n * width + n * f_width + 7) // 8:
        raise SerializeError("bad length")
    fields = [[unpacker.take_signed(w) for _ in range(n)]
              for w in (width, width, f_width)]
    unpacker.expect_zero_padding()
    return fields


def _corruptions(data: bytes, rng: random.Random) -> list[bytes]:
    """The canonical encoding and corrupted copies of it: bit flips,
    set padding bits, a changed header, one byte cut or added."""
    flips = []
    for _ in range(6):
        copy = bytearray(data)
        copy[rng.randrange(len(copy))] ^= 1 << rng.randrange(8)
        flips.append(bytes(copy))
    padded = bytearray(data)
    padded[-1] |= 1
    header = bytearray(data)
    header[0] ^= 0x01
    return [data, *flips, bytes(padded), bytes(header), data[:-1],
            data + b"\x00", data + b"\x01"]


@pytest.mark.parametrize("n", [8, 64])
def test_key_decoders_match_bit_reference(n):
    """Canonical and corrupted key encodings: the public-key decoder
    accepts exactly what the bit-by-bit reference accepts, with the
    same coefficients; a secret key decodes to the reference's
    (f, g, F), and every encoding the reference refuses is refused."""
    rng = random.Random(n)
    sk = SecretKey.generate(n=n, seed=300 + n)
    for blob in _corruptions(encode_public_key(sk.public_key), rng):
        expected = _outcome(lambda: _reference_public_key(blob))
        got = _outcome(lambda: decode_public_key(blob))
        if expected[0] == "error":
            assert got[0] == "error"
        else:
            assert (got[1].n, got[1].h) == expected[1]
    canonical = encode_secret_key(sk)
    for blob in _corruptions(canonical, rng):
        expected = _outcome(lambda: _reference_secret_fields(blob))
        got = _outcome(lambda: decode_secret_key(blob))
        if expected[0] == "error":
            assert got[0] == "error"
        elif got[0] == "ok":
            keys = got[1].keys
            assert [keys.f, keys.g, keys.F] == expected[1]
    restored = decode_secret_key(canonical)
    assert [restored.keys.f, restored.keys.g, restored.keys.F] \
        == _reference_secret_fields(canonical)


# -- the field writer against the bit-by-bit reference ----------------------

class _BitPacker:
    """The key encoders' former writer, one bit per step: the reference
    the field writer must match."""

    def __init__(self) -> None:
        self._bits: list[int] = []

    def put(self, value: int, width: int) -> None:
        if not 0 <= value < (1 << width):
            raise SerializeError(
                f"value {value} out of range for {width} bits")
        for position in range(width - 1, -1, -1):
            self._bits.append((value >> position) & 1)

    def put_signed(self, value: int, width: int) -> None:
        low = -(1 << (width - 1))
        high = (1 << (width - 1)) - 1
        if not low <= value <= high:
            raise SerializeError(
                f"signed value {value} out of range for {width} bits")
        self.put(value & ((1 << width) - 1), width)

    def to_bytes(self) -> bytes:
        padded = self._bits + [0] * (-len(self._bits) % 8)
        out = bytearray()
        for start in range(0, len(padded), 8):
            byte = 0
            for bit in padded[start:start + 8]:
                byte = (byte << 1) | bit
            out.append(byte)
        return bytes(out)


def _reference_public_encoding(n: int, h: list[int]) -> bytes:
    packer = _BitPacker()
    packer.put(n.bit_length() - 1, 8)
    for coefficient in h:
        if not 0 <= coefficient < Q:
            raise SerializeError("public coefficient out of range")
        packer.put(coefficient, 14)
    return packer.to_bytes()


def _reference_secret_encoding(n: int, keys) -> bytes:
    packer = _BitPacker()
    packer.put(0x50 | (n.bit_length() - 1), 8)
    width = _fg_width(n)
    f_width = max(9, max(abs(c) for c in keys.F).bit_length() + 1)
    if f_width > 24:
        raise SerializeError("F coefficients unexpectedly large")
    packer.put(f_width, 8)
    for coefficient in keys.f + keys.g:
        packer.put_signed(coefficient, width)
    for coefficient in keys.F:
        packer.put_signed(coefficient, f_width)
    return packer.to_bytes()


def _assert_encoders_match_reference(n: int, keys) -> None:
    """Both key encoders give the reference's bytes, or both refuse."""
    public = _outcome(lambda: encode_public_key(PublicKey(n, keys.h)))
    expected = _outcome(lambda: _reference_public_encoding(n, keys.h))
    assert public[0] == expected[0]
    if expected[0] == "ok":
        assert public == expected
    secret = SimpleNamespace(n=n, keys=keys)
    got = _outcome(lambda: encode_secret_key(secret))
    expected = _outcome(lambda: _reference_secret_encoding(n, keys))
    assert got[0] == expected[0]
    if expected[0] == "ok":
        assert got == expected


KAT_DIR = Path(__file__).parent / "kats"


@pytest.mark.parametrize("path", sorted(KAT_DIR.glob("keygen_*.json")),
                         ids=lambda path: path.stem)
def test_key_encoders_match_bit_reference_on_kat_keys(path):
    """Every committed keygen KAT key (n = 8 to 1024) encodes to the
    bit-by-bit reference's bytes, public and secret half, and decodes
    back to itself: the secret decode recomputes the same h and G."""
    kat = json.loads(path.read_text(encoding="utf-8"))
    keys = NtruKeys(f=kat["f"], g=kat["g"], F=kat["F"], G=kat["G"],
                    h=kat["h"])
    _assert_encoders_match_reference(kat["n"], keys)
    assert decode_public_key(
        encode_public_key(PublicKey(kat["n"], kat["h"]))).h == kat["h"]
    restored = decode_secret_key(encode_secret_key(
        SimpleNamespace(n=kat["n"], keys=keys))).keys
    assert restored == keys


@pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
def test_key_encoders_match_bit_reference_on_random_fields(n):
    """Random in-range fields at every degree (F at every stored width
    from 9 to 24 bits), and fields one past a bound, which both
    encoders refuse."""
    rng = random.Random(n)
    half = 1 << (_fg_width(n) - 1)
    for f_width in (9, 12, 17, 24):
        high = 1 << (f_width - 1)
        keys = SimpleNamespace(
            f=[rng.randrange(-half, half) for _ in range(n)],
            g=[rng.randrange(-half, half) for _ in range(n)],
            F=[rng.randrange(-high + 1, high) for _ in range(n)],
            h=[rng.randrange(Q) for _ in range(n)])
        keys.F[rng.randrange(n)] = -high + 1  # the width's extreme
        _assert_encoders_match_reference(n, keys)
    for field, value in (("h", Q), ("h", -1), ("f", half), ("g", -half - 1),
                         ("F", 1 << 23)):
        broken = SimpleNamespace(**vars(keys))
        setattr(broken, field, list(getattr(keys, field)))
        getattr(broken, field)[rng.randrange(n)] = value
        _assert_encoders_match_reference(n, broken)
