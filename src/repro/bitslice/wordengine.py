"""Pluggable word engines: how a "machine word" is represented.

The paper's speed argument is SIMD bitslicing (Sec. 3.2): evaluate the
sampler's Boolean functions over wide machine words so one straight-line
pass yields ``w`` samples.  The reproduction originally modeled the word
as a single Python bigint.  This module abstracts that choice behind a
:class:`WordEngine` so the same compiled kernel can run over

* ``bigint``  — one arbitrary-width Python integer per variable (the
  original backend; ``w`` is unbounded);
* ``numpy``   — a NumPy ``uint64`` array of ``k = ceil(w / 64)`` chunks
  per variable, i.e. ``k x 64`` hardware lanes evaluated by vectorized
  bitwise instructions (the closest Python gets to the paper's AVX2
  target).  Without NumPy the name resolves to ``bigint``.

All engines consume the **same PRNG byte stream** with the same
byte-to-lane mapping (lane ``j`` of the batch is bit ``j``, LSB-first,
of the ``ceil(w / 8)``-byte block backing each word), so the sample
streams are bit-identical across engines — a property the differential
test suite pins down.  The straight-line kernel is shared: engines only
differ in how its bitwise operators are carried out, so the
input-independent operation trace (the constant-time property) is
preserved by construction.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Sequence

from ..rng.source import RandomSource
from .pack import lane_bit_matrix, unpack_lanes, unpack_lanes_array

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import BitslicedKernel

try:  # NumPy is optional: the bigint engine fills in when it's absent.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

#: Hardware lane width the vector engines slice words into.
CHUNK_BITS = 64


class WordEngine(ABC):
    """Strategy object deciding how kernel words are stored and moved.

    A *word* is whatever the engine uses to carry one input variable
    across all ``width`` lanes of a batch.  Engines must agree on the
    byte-to-lane mapping of :meth:`draw_words` so their sample streams
    are interchangeable bit-for-bit.
    """

    #: Registry name (``engine.name`` round-trips through get_engine).
    name: str = "abstract"
    #: Whether kernel evaluation is vectorized over 64-bit chunks.
    vectorized: bool = False

    # -- randomness -------------------------------------------------------

    def raw_block(self, source: RandomSource, bits: int,
                  count: int) -> bytes:
        """The ``count * ceil(bits / 8)`` bytes backing ``count`` words.

        One bulk PRNG call, so byte accounting is identical to drawing
        the words one at a time (sequential reads of the same stream).
        """
        return source.read_word_block(bits, count)

    @abstractmethod
    def draw_words(self, source: RandomSource, bits: int,
                   count: int) -> list:
        """Draw ``count`` fresh ``bits``-lane words from ``source``."""

    # -- kernel evaluation ------------------------------------------------

    @abstractmethod
    def run_kernel(self, kernel: "BitslicedKernel", inputs: Sequence,
                   width: int) -> tuple:
        """Evaluate ``kernel`` over engine words; one word per output."""

    # -- transposition back to per-lane integers --------------------------

    @abstractmethod
    def lane_mask(self, word, width: int) -> int:
        """Collapse a backend word to a Python-int lane bitmask."""

    @abstractmethod
    def unpack(self, words: Sequence, width: int) -> list[int]:
        """Transpose output words into ``width`` per-lane integers."""

    def compact(self, magnitude_words: Sequence, valid_word, sign_word,
                width: int) -> tuple[list[int], int]:
        """Signed samples in lane order with invalid lanes dropped.

        Returns ``(samples, discarded)``.  The generic path unpacks and
        filters in Python; vector engines override it with a fully
        vectorized transpose + select.
        """
        magnitudes = self.unpack(magnitude_words, width)
        valid_mask = self.lane_mask(valid_word, width)
        sign_mask = self.lane_mask(sign_word, width)
        samples: list[int] = []
        discarded = 0
        for lane in range(width):
            if not (valid_mask >> lane) & 1:
                discarded += 1
                continue
            value = magnitudes[lane]
            if (sign_mask >> lane) & 1:
                value = -value
            samples.append(value)
        return samples, discarded


class BigIntEngine(WordEngine):
    """One arbitrary-width Python integer per word (the original model).

    ``w`` is unbounded — a 4096-lane word is a 4096-bit integer whose
    bitwise operators CPython executes in C over 30-bit limbs, so wide
    batches already amortize interpreter overhead well.
    """

    name = "bigint"
    vectorized = False

    def draw_words(self, source: RandomSource, bits: int,
                   count: int) -> list[int]:
        return source.read_words(bits, count)

    def run_kernel(self, kernel: "BitslicedKernel", inputs: Sequence[int],
                   width: int) -> tuple[int, ...]:
        return kernel(inputs, (1 << width) - 1)

    def lane_mask(self, word: int, width: int) -> int:
        return word & ((1 << width) - 1)

    def unpack(self, words: Sequence[int], width: int) -> list[int]:
        return unpack_lanes(words, width)

    def compact(self, magnitude_words: Sequence[int], valid_word: int,
                sign_word: int, width: int) -> tuple[list[int], int]:
        # Serialize once, then walk byte-aligned 64-lane slices: lane
        # shifts stay on small ints instead of repeatedly shifting one
        # width-bit bigint (quadratic for fused super-batches), which
        # keeps compaction O(width * m) for hundreds-of-kilobit words.
        nbytes = ((width + 63) // 64) * 8
        as_bytes = [word.to_bytes(nbytes, "little")
                    for word in (*magnitude_words, valid_word, sign_word)]
        samples: list[int] = []
        discarded = 0
        for start in range(0, width, CHUNK_BITS):
            offset = start // 8
            *magnitude_chunks, valid_chunk, sign_chunk = [
                int.from_bytes(raw[offset:offset + 8], "little")
                for raw in as_bytes]
            for lane in range(min(CHUNK_BITS, width - start)):
                if not (valid_chunk >> lane) & 1:
                    discarded += 1
                    continue
                value = 0
                for t, chunk in enumerate(magnitude_chunks):
                    value |= ((chunk >> lane) & 1) << t
                if (sign_chunk >> lane) & 1:
                    value = -value
                samples.append(value)
        return samples, discarded


class NumpyEngine(WordEngine):
    """NumPy ``uint64`` arrays: ``k x 64`` lanes per kernel invocation.

    Each word is a length-``k`` ``uint64`` array; the generated kernel
    source (plain ``& | ^ ~``) executes unchanged over the arrays, so
    every gate becomes one vectorized instruction across all lanes —
    the Python rendition of the paper's AVX2 evaluation.  Unpacking
    uses a single ``np.unpackbits`` transpose instead of per-lane bit
    twiddling.
    """

    name = "numpy"
    vectorized = True

    def __init__(self) -> None:
        if _np is None:  # pragma: no cover - guarded by get_engine
            raise RuntimeError(
                "NumPy is not installed; use the 'bigint' engine")

    @staticmethod
    def _num_chunks(width: int) -> int:
        return (width + CHUNK_BITS - 1) // CHUNK_BITS

    def draw_words(self, source: RandomSource, bits: int, count: int):
        nbytes = (bits + 7) // 8
        k = self._num_chunks(bits)
        raw = self.raw_block(source, bits, count)
        if nbytes == k * 8:
            # Chunk-aligned width: reinterpret the keystream slab as
            # uint64 lanes directly (one copy into a writable buffer,
            # no per-byte shuffling).
            words = _np.frombuffer(bytearray(raw), dtype="<u8") \
                .reshape(count, k)
        else:
            buffer = _np.zeros((count, k * 8), dtype=_np.uint8)
            buffer[:, :nbytes] = _np.frombuffer(raw, dtype=_np.uint8) \
                .reshape(count, nbytes)
            words = buffer.view("<u8")
        tail = bits % CHUNK_BITS
        if tail:
            words[:, -1] &= _np.uint64((1 << tail) - 1)
        return [words[i] for i in range(count)]

    def run_kernel(self, kernel: "BitslicedKernel", inputs: Sequence,
                   width: int) -> tuple:
        k = self._num_chunks(width)
        mask = _np.uint64((1 << CHUNK_BITS) - 1)
        outputs = kernel(inputs, mask)
        # Constant roots come back as scalars; broadcast them so every
        # output is a k-chunk array like the rest.
        return tuple(
            out if isinstance(out, _np.ndarray)
            else _np.full(k, _np.uint64(out) & mask, dtype=_np.uint64)
            for out in outputs)

    def lane_mask(self, word, width: int) -> int:
        value = int.from_bytes(word.astype("<u8").tobytes(), "little")
        return value & ((1 << width) - 1)

    def unpack(self, words: Sequence, width: int) -> list[int]:
        return unpack_lanes_array(words, width).tolist()

    def compact(self, magnitude_words: Sequence, valid_word, sign_word,
                width: int) -> tuple[list[int], int]:
        all_words = list(magnitude_words) + [valid_word, sign_word]
        bits = lane_bit_matrix(all_words, width)
        m = len(magnitude_words)
        values = _np.zeros(width, dtype=_np.int64) if m == 0 else (
            _np.left_shift(_np.int64(1),
                           _np.arange(m, dtype=_np.int64))
            @ bits[:m].astype(_np.int64))
        valid = bits[m].astype(bool)
        negative = bits[m + 1].astype(bool)
        signed = _np.where(negative, -values, values)
        kept = signed[valid]
        return kept.tolist(), int(width - int(valid.sum()))


#: Engine classes by registry name.  ``numpy`` silently degrades to
#: ``bigint`` when NumPy is unavailable (identical lane semantics, so
#: sample streams do not change — only throughput does).
_ENGINE_CLASSES: dict[str, type[WordEngine]] = {
    "bigint": BigIntEngine,
    "numpy": NumpyEngine if HAVE_NUMPY else BigIntEngine,
}

#: Resolution of ``engine="auto"``: vectorized when NumPy is present.
AUTO_ENGINE = "numpy" if HAVE_NUMPY else "bigint"


def available_engines() -> list[str]:
    """Registry names accepted by :func:`get_engine` (sorted)."""
    return sorted(_ENGINE_CLASSES)


def get_engine(engine: str | WordEngine | None) -> WordEngine:
    """Resolve an engine name (or pass an instance through).

    ``None`` and ``"auto"`` pick the fastest available backend:
    ``numpy`` when importable, else ``bigint``.
    """
    if isinstance(engine, WordEngine):
        return engine
    if engine is None or engine == "auto":
        engine = AUTO_ENGINE
    try:
        cls = _ENGINE_CLASSES[engine]
    except KeyError:
        raise ValueError(
            f"unknown word engine {engine!r}; "
            f"choose from {available_engines()} or 'auto'") from None
    return cls()
