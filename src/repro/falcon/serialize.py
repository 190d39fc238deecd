"""Byte-level serialization of Falcon keys and signatures.

Follows the shape of the specification's encodings:

* **public key**: one header byte ``0x00 | log2(n)`` followed by the
  ``n`` coefficients of ``h`` packed 14 bits each (q = 12289 < 2^14),
  big-endian within the bit stream;
* **secret key**: header ``0x50 | log2(n)``, then ``f``, ``g`` and
  ``F`` packed as fixed-width two's-complement signed values (widths
  chosen per ring degree from the coefficient ranges; ``G`` is
  recomputed from the NTRU equation on decode, as the reference
  implementation does);
* **signature**: header ``0x30 | log2(n)``, the 40-byte salt, then the
  compressed ``s2`` (already fixed-length per parameter set).

Key encodings are canonical: each has exactly one length per degree
(a public key is ``1 + ceil(14 n / 8)`` bytes; a secret key is the
header byte, the F-width byte and ``ceil((2 n w + n F_width) / 8)``
bytes, for f and g at ``w`` bits and F at ``F_width`` bits), every
field is range-checked on decode, and the padding bits must be zero.
So one key has one encoding: a ledger record cannot reappear under a
padded copy of its key.
Both key decoders read their fixed-width fields through one
:class:`_FieldReader`, and both encoders write them through its
mirror, :class:`_FieldWriter`.  A signature decode checks framing
only; the verifier decodes ``s2`` (see :func:`decode_signature`).
"""

from __future__ import annotations

import os
from hashlib import sha256
from pathlib import Path
from typing import Sequence

from ..rng.source import make_source
from .ntrugen import NtruKeys
from .ntt import Q, center_mod_q, div_ntt, mul_ntt
from .params import SALT_BYTES, falcon_params
from .scheme import PublicKey, SecretKey, Signature


class SerializeError(Exception):
    """Malformed or non-canonical serialized object."""


#: Signed two's-complement widths for (f, g) and F per ring degree.
#: Key generation sigma shrinks with n (sigma_fg = 1.17 sqrt(q/2n)),
#: so smaller rings need wider fields; these cover > 12 sigma.
def _fg_width(n: int) -> int:
    sigma = falcon_params(n).keygen_sigma
    spread = int(sigma * 12) + 1
    return max(4, spread.bit_length() + 1)


#: Minimum width for reduced F coefficients (spec uses 8-bit fields at
#: n = 512/1024; smaller toy rings can need more, so the actual width
#: is stored in the stream — see encode_secret_key).
_MIN_F_WIDTH = 9
_MAX_F_WIDTH = 24


class _FieldWriter:
    """Fixed-width big-endian fields packed into one Python int: the
    mirror of :class:`_FieldReader`, one shift and OR per field and one
    conversion to bytes at the end, instead of a list of bits."""

    def __init__(self) -> None:
        self._value = self._bits = 0

    def put(self, width: int, values: Sequence[int]) -> None:
        """Append unsigned ``width``-bit fields."""
        if min(values) < 0 or max(values) >> width:
            raise SerializeError(f"value out of range for {width} bits")
        run = 0
        for value in values:
            run = (run << width) | value
        self._value = (self._value << (width * len(values))) | run
        self._bits += width * len(values)

    def put_signed(self, width: int, values: Sequence[int]) -> None:
        """Append two's-complement ``width``-bit fields."""
        half = 1 << (width - 1)
        if min(values) < -half or max(values) >= half:
            raise SerializeError(
                f"signed value out of range for {width} bits")
        self.put(width, [value & ((half << 1) - 1) for value in values])

    def to_bytes(self) -> bytes:
        pad = -self._bits % 8
        return (self._value << pad).to_bytes((self._bits + pad) // 8,
                                             "big")


class _FieldReader:
    """Fixed-width big-endian fields read off a byte string.

    The whole string becomes one text of ``0``/``1`` characters up
    front, so a run of fields is one C-speed ``int(text, 2)`` per field
    instead of a loop over bits, as
    :func:`~repro.falcon.encoding.decompress` reads signatures.
    """

    def __init__(self, data: bytes) -> None:
        self._bits = bin((1 << (8 * len(data)))
                         | int.from_bytes(data, "big"))[3:]
        self._pos = 0

    def take(self, width: int, count: int = 1) -> list[int]:
        """The next ``count`` unsigned ``width``-bit fields."""
        start = self._pos
        end = start + width * count
        if end > len(self._bits):
            raise SerializeError("truncated stream")
        self._pos = end
        bits = self._bits
        return [int(bits[at:at + width], 2)
                for at in range(start, end, width)]

    def take_signed(self, width: int, count: int) -> list[int]:
        """The next ``count`` two's-complement ``width``-bit fields."""
        half = 1 << (width - 1)
        return [raw - (half << 1) if raw >= half else raw
                for raw in self.take(width, count)]

    def expect_zero_padding(self) -> None:
        if "1" in self._bits[self._pos:]:
            raise SerializeError("non-zero padding")


def _log2_checked(n: int) -> int:
    log = n.bit_length() - 1
    if 1 << log != n or not 2 <= log <= 10:
        raise SerializeError(f"unsupported ring degree {n}")
    return log


# -- public key --------------------------------------------------------------

def encode_public_key(public_key: PublicKey) -> bytes:
    writer = _FieldWriter()
    writer.put(8, [0x00 | _log2_checked(public_key.n)])
    if min(public_key.h) < 0 or max(public_key.h) >= Q:
        raise SerializeError("public coefficient out of range")
    writer.put(14, public_key.h)
    return writer.to_bytes()


def decode_public_key(data: bytes) -> PublicKey:
    """Rebuild a public key; the encoding must be exactly
    ``1 + ceil(14 n / 8)`` bytes with zero padding bits."""
    reader = _FieldReader(data)
    header, = reader.take(8)
    if header & 0xF0:
        raise SerializeError("bad public-key header")
    n = 1 << (header & 0x0F)
    _log2_checked(n)
    expected = 1 + (14 * n + 7) // 8
    if len(data) != expected:
        raise SerializeError(
            f"bad public-key length {len(data)}, expected {expected}")
    h = reader.take(14, n)
    if max(h) >= Q:
        raise SerializeError("public coefficient >= q")
    reader.expect_zero_padding()
    return PublicKey(n, h)


# -- secret key ---------------------------------------------------------------

def encode_secret_key(secret_key: SecretKey) -> bytes:
    n = secret_key.n
    writer = _FieldWriter()
    writer.put(8, [0x50 | _log2_checked(n)])
    width = _fg_width(n)
    largest = max((abs(c) for c in secret_key.keys.F), default=0)
    # ct: vartime(vartime-bitlength): the stored F width quantizes max|F| — a deliberate storage-format tradeoff for keys at rest, not a signing-path value
    f_width = max(_MIN_F_WIDTH, largest.bit_length() + 1)
    # ct: allow(secret-early-exit): encode abort on an out-of-range key — failure is public
    if f_width > _MAX_F_WIDTH:
        raise SerializeError("F coefficients unexpectedly large")
    writer.put(8, [f_width])
    writer.put_signed(width, secret_key.keys.f)
    writer.put_signed(width, secret_key.keys.g)
    writer.put_signed(f_width, secret_key.keys.F)
    return writer.to_bytes()


def decode_secret_key(data: bytes,
                      base_backend: str = "bitsliced",
                      prng: str = "chacha20") -> SecretKey:
    """Rebuild a signing key; ``G`` and ``h`` are recomputed.

    ``G = (q + g F) / f`` over the rationals would need exact division;
    instead we solve it mod q and lift, exactly as the reference
    implementation's key-loading path: G is the unique integer solution
    of ``f G - g F = q`` once (f, g, F) are fixed, and mod q it is
    ``g F / f = h F`` (q vanishes), so it equals ``h F`` lifted to the
    centered range (its coefficients are far below q/2 for valid keys).
    The NTT products run on the array kernels when NumPy imports.

    Every decode is a new load of the key with its own signing stream
    (salts and sampler coins): a ``prng`` source seeded by
    ``sha256(b"falcon-sign|" + os.urandom(32) + data)``.  Falcon's
    security argument needs a fresh salt and fresh sampler coins for
    every signature, so no two loads of one key may share a stream: not
    a second shard's, a respawned worker's or a restarted process's.
    The key bytes in the hash keep the seed as secret as the key even
    if the entropy source is weak.
    """
    reader = _FieldReader(data)
    header, = reader.take(8)
    if header & 0xF0 != 0x50:
        raise SerializeError("bad secret-key header")
    n = 1 << (header & 0x0F)
    _log2_checked(n)
    f_width, = reader.take(8)
    if not _MIN_F_WIDTH <= f_width <= _MAX_F_WIDTH:
        raise SerializeError(f"bad F field width {f_width}")
    width = _fg_width(n)
    expected = 2 + (2 * n * width + n * f_width + 7) // 8
    if len(data) != expected:
        raise SerializeError(
            f"bad secret-key length {len(data)}, expected {expected}")
    f = reader.take_signed(width, n)
    g = reader.take_signed(width, n)
    big_f = reader.take_signed(f_width, n)
    reader.expect_zero_padding()

    try:
        h = div_ntt(g, f)
    except ZeroDivisionError as error:
        raise SerializeError("f is not invertible mod q") from error
    big_g = [center_mod_q(c) for c in mul_ntt(h, big_f)]
    keys = NtruKeys(f=f, g=g, F=big_f, G=big_g, h=h)
    # ct: allow(secret-early-exit): decode integrity check — a corrupted key file failing canonically is a public event
    if not keys.verify_ntru_equation():
        raise SerializeError("decoded key fails the NTRU equation")
    seed = sha256(b"falcon-sign|" + os.urandom(32) + data).digest()
    return SecretKey(keys, source=make_source(prng, seed),
                     base_backend=base_backend)


#: File extension for persisted secret keys (the key store's layout).
SECRET_KEY_SUFFIX = ".skey"


def atomic_write_bytes(path: str | Path, data: bytes) -> Path:
    """Write ``data`` to ``path`` via scratch-file-then-replace.

    A crash mid-write leaves only a ``*.tmp`` scratch file, never a
    truncated target — key stores index targets only, so half-written
    key material can never be adopted.
    """
    path = Path(path)
    scratch = path.with_suffix(path.suffix + ".tmp")
    scratch.write_bytes(data)
    scratch.replace(path)
    return path


def save_secret_key(secret_key: SecretKey, path: str | Path) -> Path:
    """Persist a secret key to ``path`` (atomic replace)."""
    return atomic_write_bytes(path, encode_secret_key(secret_key))


def load_secret_key(path: str | Path,
                    base_backend: str = "bitsliced") -> SecretKey:
    """Load a secret key written by :func:`save_secret_key`.

    Runs the full canonical decode — range checks, G recomputation and
    the NTRU-equation check — so a corrupted file raises
    :class:`SerializeError` instead of producing a bad signer.
    """
    return decode_secret_key(Path(path).read_bytes(),
                             base_backend=base_backend)


# -- signature ----------------------------------------------------------------

def encode_signature(signature: Signature, n: int) -> bytes:
    header = bytes([0x30 | _log2_checked(n)])
    if len(signature.salt) != SALT_BYTES:
        raise SerializeError("salt must be 40 bytes")
    return header + signature.salt + signature.compressed


def decode_signature(data: bytes) -> tuple[Signature, int]:
    """Split an encoded signature into ``(Signature, n)``.

    Checks the framing only: the header nibble, a supported degree,
    the 40-byte salt and the exact payload width for that degree.  The
    compressed ``s2`` is returned as it came: verification decodes it
    as its first step (:meth:`PublicKey.verify`,
    :func:`~repro.falcon.batchverify.verify_batch_report`), and that
    decode is the canonicity check — a well-framed but non-canonical
    payload verifies False there, with reason ``decompress`` and the
    decoder's message.  So the Golomb–Rice decode runs once per
    signature, in the code that needs the coefficients.
    """
    if len(data) < 1 + SALT_BYTES:
        raise SerializeError("signature too short")
    header = data[0]
    if header & 0xF0 != 0x30:
        raise SerializeError("bad signature header")
    n = 1 << (header & 0x0F)
    _log2_checked(n)
    salt = data[1:1 + SALT_BYTES]
    compressed = data[1 + SALT_BYTES:]
    expected_len = (falcon_params(n).sig_payload_bits + 7) // 8
    if len(compressed) != expected_len:
        raise SerializeError(
            f"bad signature length {len(compressed)}, "
            f"expected {expected_len}")
    return Signature(salt=salt, compressed=compressed), n
