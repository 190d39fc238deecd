"""Randomness interfaces shared by every sampler in the library.

All samplers (Algorithm 1, the bitsliced constant-time sampler, and the
three CDT baselines) consume randomness through :class:`RandomSource`, so
that

* experiments can swap PRNG backends (ChaCha20/12/8, SHAKE128/256, a test
  counter) without touching sampler code — this powers the PRNG-overhead
  experiment from the paper's conclusion, and
* byte/bit consumption can be *counted*, which the cost model uses to
  attribute PRNG cycles per sample.

The deterministic cryptographic sources (:class:`ChaChaSource`,
:class:`ShakeSource`) are **buffered**: they pull keystream from the
underlying primitive in multi-kilobyte slabs and serve requests from the
buffer, so small reads (a 7-byte acceptance uniform, a single sign byte)
amortize block generation instead of paying a full block per call.
Buffering is transparent — the delivered byte sequence is exactly the
primitive's keystream, so buffered and unbuffered sources are
byte-identical for any interleaving of reads (pinned by the tests).

Bit order convention: bits are extracted from each byte least-significant
bit first.  The convention is arbitrary but must be fixed so that feeding
the same source to Algorithm 1 and to the compiled Boolean sampler yields
bit-identical sample streams (the equivalence tests rely on this).
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod

from .chacha import HAVE_VECTOR_CHACHA, ChaChaStream
from .keccak import Shake128, Shake256

try:  # Optional: powers read_words_array and the vectorized ChaCha.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None


class RandomSource(ABC):
    """Abstract byte-oriented randomness source."""

    @abstractmethod
    def read_bytes(self, length: int) -> bytes:
        """Return ``length`` fresh random bytes."""

    def read_word(self, bits: int) -> int:
        """Return a uniform integer with ``bits`` random bits (LSB-first).

        Reads ``ceil(bits / 8)`` bytes and masks the excess, so a 64-bit
        word costs exactly 8 bytes — matching the paper's accounting of
        one machine word of randomness per bitsliced input variable.
        """
        nbytes = (bits + 7) // 8
        raw = int.from_bytes(self.read_bytes(nbytes), "little")
        return raw & ((1 << bits) - 1)

    def read_word_block(self, bits: int, count: int) -> bytes:
        """Raw backing bytes for ``count`` consecutive ``bits``-bit words.

        One bulk draw of ``count * ceil(bits / 8)`` bytes.  Word ``i``
        occupies bytes ``[i * ceil(bits / 8), (i + 1) * ceil(bits / 8))``
        little-endian, so slicing the block reproduces ``count``
        sequential :meth:`read_word` calls byte-for-byte, so bulk
        readers amortize the per-call PRNG overhead across a whole batch
        without changing the stream.
        """
        return self.read_bytes(count * ((bits + 7) // 8))

    def read_words(self, bits: int, count: int) -> list[int]:
        """``count`` uniform ``bits``-bit integers from one bulk draw.

        Equivalent to ``[self.read_word(bits) for _ in range(count)]``
        but with a single ``read_bytes`` call underneath.
        """
        nbytes = (bits + 7) // 8
        raw = self.read_word_block(bits, count)
        mask = (1 << bits) - 1
        return [int.from_bytes(raw[i * nbytes:(i + 1) * nbytes],
                               "little") & mask
                for i in range(count)]

    def prefetch(self, length: int) -> None:
        """Hint: ``length`` bytes will be read soon.

        Buffered sources override this to generate the keystream ahead
        of time in one bulk (vectorized) pass; the served byte sequence
        is unchanged, so prefetching is always safe.  The default is a
        no-op.
        """

    def read_words_array(self, bits: int, count: int):
        """``count`` uniform ``bits``-bit words as a NumPy uint64 array.

        Same stream consumption and word values as :meth:`read_words`
        (one ``read_word_block`` underneath), but the bytes go straight
        into a ``uint64`` array via ``frombuffer`` — no Python-int
        round-trips, so bulk consumers (the CDT table scans, the batched
        acceptance uniforms) stay on the vectorized fast path.
        Requires NumPy and ``bits <= 64``.
        """
        if _np is None:
            raise RuntimeError(
                "NumPy is not installed; use read_words instead")
        if not 0 < bits <= 64:
            raise ValueError("bits must be in (0, 64] for array reads")
        nbytes = (bits + 7) // 8
        raw = self.read_word_block(bits, count)
        if nbytes == 8:
            words = _np.frombuffer(raw, dtype="<u8").copy()
        else:
            padded = _np.zeros((count, 8), dtype=_np.uint8)
            padded[:, :nbytes] = _np.frombuffer(raw, dtype=_np.uint8) \
                .reshape(count, nbytes)
            words = padded.reshape(-1).view("<u8")
        if bits < 64:
            words &= _np.uint64((1 << bits) - 1)
        return words


class BufferedRandomSource(RandomSource):
    """Base for sources that refill an internal keystream buffer.

    Subclasses implement :meth:`_generate`, producing the next ``length``
    bytes of their underlying deterministic stream.  ``read_bytes``
    serves requests from a buffer that refills in ``buffer_bytes`` slabs
    (requests larger than the slab bypass it and generate exactly what
    is needed), so the delivered sequence is always a contiguous prefix
    of the primitive's stream — byte-identical to an unbuffered source
    (``buffer_bytes=0``) for any interleaving of read calls.
    """

    def __init__(self, buffer_bytes: int = 0) -> None:
        if buffer_bytes < 0:
            raise ValueError("buffer_bytes must be non-negative")
        self.buffer_bytes = buffer_bytes
        self._keystream = b""
        self._position = 0

    @abstractmethod
    def _generate(self, length: int) -> bytes:
        """Produce the next ``length`` bytes of the underlying stream."""

    def read_bytes(self, length: int) -> bytes:
        if length <= 0:
            return b""
        available = len(self._keystream) - self._position
        if length <= available:
            out = self._keystream[self._position:self._position + length]
            self._position += length
            return out
        head = self._keystream[self._position:]
        self._keystream = b""
        self._position = 0
        need = length - available
        if need >= self.buffer_bytes:
            # Large request: generate exactly what is missing.
            return head + self._generate(need) if head \
                else self._generate(need)
        slab = self._generate(self.buffer_bytes)
        self._keystream = slab
        self._position = need
        return head + slab[:need] if head else slab[:need]

    def prefetch(self, length: int) -> None:
        """Top the buffer up to at least ``length`` unserved bytes.

        One bulk :meth:`_generate` call produces the missing stream
        continuation, so a consumer that knows its upcoming demand (the
        batch signer) pays block-generation cost once instead of per
        refill.  Reads still see the exact same byte sequence.
        """
        if length <= 0:
            return
        available = len(self._keystream) - self._position
        if length <= available:
            return
        head = self._keystream[self._position:]
        self._keystream = head + self._generate(length - available)
        self._position = 0

    @property
    def buffered_bytes(self) -> int:
        """Keystream generated but not yet served (introspection)."""
        return len(self._keystream) - self._position


#: Default keystream slab for the buffered ChaCha source.  Sized so the
#: vectorized block function runs over ~1k counters per refill (the
#: regime where NumPy overhead is amortized away); without NumPy a big
#: slab buys nothing — scalar cost is per block — so stay unbuffered.
DEFAULT_CHACHA_BUFFER = 65536 if HAVE_VECTOR_CHACHA else 0

#: Default squeeze slab for the buffered SHAKE sources: a few sponge
#: rates per refill amortizes the per-call squeeze bookkeeping (the
#: permutation count itself is unchanged — it only depends on how many
#: bytes are ultimately consumed, modulo one speculative slab).
DEFAULT_SHAKE_BUFFER_RATES = 4


class ChaChaSource(BufferedRandomSource):
    """Deterministic source backed by the ChaCha stream cipher.

    ``buffer_bytes=None`` picks the default slab size (large when the
    vectorized block function is available, unbuffered otherwise);
    ``vectorized`` forces an evaluation strategy for A/B benchmarking.
    All configurations emit the same byte stream for the same seed.
    """

    def __init__(self, seed: bytes | int = 0, rounds: int = 20,
                 buffer_bytes: int | None = None,
                 vectorized: bool | None = None) -> None:
        super().__init__(DEFAULT_CHACHA_BUFFER
                         if buffer_bytes is None else buffer_bytes)
        key = _seed_to_key(seed)
        self.stream = ChaChaStream(key, rounds=rounds,
                                   vectorized=vectorized)

    def _generate(self, length: int) -> bytes:
        return self.stream.read(length)


class ShakeSource(BufferedRandomSource):
    """Deterministic source backed by a SHAKE XOF (Keccak sponge).

    Squeezes the sponge in multi-block slabs through the shared refill
    buffer (``buffer_bytes=None`` = ``DEFAULT_SHAKE_BUFFER_RATES``
    sponge rates), which amortizes per-call overhead for the many small
    reads the samplers issue.
    """

    def __init__(self, seed: bytes | int = 0, variant: int = 256,
                 buffer_bytes: int | None = None) -> None:
        key = _seed_to_key(seed)
        if variant == 128:
            self.sponge = Shake128(key)
        elif variant == 256:
            self.sponge = Shake256(key)
        else:
            raise ValueError("variant must be 128 or 256")
        super().__init__(
            DEFAULT_SHAKE_BUFFER_RATES * self.sponge.rate_bytes
            if buffer_bytes is None else buffer_bytes)

    def _generate(self, length: int) -> bytes:
        return self.sponge.squeeze(length)


class SystemSource(RandomSource):
    """Non-deterministic source backed by ``os.urandom`` (demos only)."""

    def read_bytes(self, length: int) -> bytes:
        return os.urandom(length)


class CounterSource(RandomSource):
    """A trivially cheap, *non-cryptographic* deterministic source.

    Used by tests that need reproducible streams, and by the PRNG-overhead
    experiment as the "free randomness" lower bound.  The generator is
    SplitMix64, which passes basic statistical tests and costs a handful
    of arithmetic operations per 8 bytes.
    """

    def __init__(self, seed: int = 0) -> None:
        self._state = seed & ((1 << 64) - 1)
        self._buffer = bytearray()

    def _next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & ((1 << 64) - 1)
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & ((1 << 64) - 1)
        return z ^ (z >> 31)

    def read_bytes(self, length: int) -> bytes:
        while len(self._buffer) < length:
            self._buffer.extend(self._next64().to_bytes(8, "little"))
        out = bytes(self._buffer[:length])
        del self._buffer[:length]
        return out


class FixedSource(RandomSource):
    """Replays a fixed byte string, then raises.  For directed tests."""

    def __init__(self, data: bytes) -> None:
        self._data = data
        self._pos = 0

    def read_bytes(self, length: int) -> bytes:
        if self._pos + length > len(self._data):
            raise RuntimeError("FixedSource exhausted")
        out = self._data[self._pos:self._pos + length]
        self._pos += length
        return out


class CountingSource(RandomSource):
    """Wrapper that counts bytes drawn from an inner source."""

    def __init__(self, inner: RandomSource) -> None:
        self.inner = inner
        self.bytes_read = 0

    def read_bytes(self, length: int) -> bytes:
        self.bytes_read += length
        return self.inner.read_bytes(length)

    def prefetch(self, length: int) -> None:
        # Not booked: prefetching generates keystream without serving it.
        self.inner.prefetch(length)

    def reset_count(self) -> None:
        self.bytes_read = 0


class BitStream:
    """Bit-granular adapter over a :class:`RandomSource`.

    Bits come out of each byte LSB-first.  Tracks the number of bits
    consumed, which Algorithm 1's non-constant running time is measured
    from.
    """

    def __init__(self, source: RandomSource) -> None:
        self.source = source
        self._current = 0
        self._bits_left = 0
        self.bits_consumed = 0

    def take_bit(self) -> int:
        """Return the next random bit (0 or 1)."""
        if self._bits_left == 0:
            self._current = self.source.read_bytes(1)[0]
            self._bits_left = 8
        bit = self._current & 1
        self._current >>= 1
        self._bits_left -= 1
        self.bits_consumed += 1
        return bit

    def take_bits(self, count: int) -> int:
        """Return ``count`` bits packed LSB-first into an integer."""
        value = 0
        for position in range(count):
            value |= self.take_bit() << position
        return value


class ListBitSource(RandomSource):
    """Adapter that serves an explicit list of bits as a byte source.

    Directed tests build exact input strings for the Knuth–Yao walk; this
    adapter lets those strings flow through the same ``BitStream`` path as
    real randomness (bit i of the list appears as bit i of the stream).
    """

    def __init__(self, bits: list[int] | tuple[int, ...]) -> None:
        if any(bit not in (0, 1) for bit in bits):
            raise ValueError("bits must be 0 or 1")
        self._bits = list(bits)
        self._pos = 0

    def read_bytes(self, length: int) -> bytes:
        out = bytearray()
        for _ in range(length):
            byte = 0
            for position in range(8):
                if self._pos < len(self._bits):
                    byte |= self._bits[self._pos] << position
                    self._pos += 1
                # Exhausted bits read as zero: tests size their inputs.
            out.append(byte)
        return bytes(out)


def _seed_to_key(seed: bytes | int) -> bytes:
    """Normalize a user-supplied seed to 32 bytes."""
    if isinstance(seed, int):
        if seed < 0:
            raise ValueError("integer seeds must be non-negative")
        return seed.to_bytes(32, "little", signed=False)
    if len(seed) > 32:
        raise ValueError("byte seeds must be at most 32 bytes")
    return seed.ljust(32, b"\x00")


#: Named deterministic PRNG configurations — the axis of the paper's
#: PRNG-overhead experiment, exposed uniformly to the CLI, the Falcon
#: scheme and the benchmarks.  Every factory takes a seed.
SOURCE_FACTORIES = {
    "chacha20": lambda seed: ChaChaSource(seed, rounds=20),
    "chacha12": lambda seed: ChaChaSource(seed, rounds=12),
    "chacha8": lambda seed: ChaChaSource(seed, rounds=8),
    "shake128": lambda seed: ShakeSource(seed, variant=128),
    "shake256": lambda seed: ShakeSource(seed, variant=256),
    "counter": lambda seed: CounterSource(
        seed if isinstance(seed, int)
        else int.from_bytes(seed, "little")),
}


def available_sources() -> list[str]:
    """Names accepted by :func:`make_source` (sorted)."""
    return sorted(SOURCE_FACTORIES)


def make_source(name: str, seed: bytes | int = 0) -> RandomSource:
    """Instantiate a named deterministic PRNG configuration."""
    try:
        factory = SOURCE_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown PRNG {name!r}; "
            f"choose from {available_sources()}") from None
    return factory(seed)


def default_source(seed: bytes | int = 0) -> RandomSource:
    """The library-wide default PRNG: ChaCha20, as in the paper's Table 1."""
    return ChaChaSource(seed)
