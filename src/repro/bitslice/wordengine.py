"""Machine words as Python ints, and the lane compaction behind them.

The paper's speed argument is SIMD bitslicing (Sec. 3.2): evaluate the
sampler's Boolean functions over wide machine words so one straight-line
pass yields ``w`` samples.  Here a word is one Python int: CPython's
bitwise operators on a 4096-bit int are C loops over 30-bit limbs, which
is the paper's ``w``-bit register.  Lane ``j`` of a batch is bit ``j``,
LSB-first, of the ``ceil(w / 8)``-byte little-endian PRNG block backing
each word.

Only the way back to per-lane integers depends on the platform:

* with NumPy, :func:`compact_numpy` transposes all output words in one
  ``np.unpackbits`` pass over their little-endian bytes;
* without it, :func:`compact_python` walks byte-aligned 64-lane slices.

Both return the same samples in the same order (the differential tests
pin this), so a seed yields one sample stream on every platform.  The
kernel is the same straight-line pass either way, so the
input-independent operation trace (the constant-time property) does
not depend on the platform.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from ..rng.source import RandomSource
from .pack import lane_bit_matrix

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .engine import BitslicedKernel

try:  # NumPy is optional: compaction falls back to pure Python.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

#: Lanes per slice of the pure-Python compaction.
CHUNK_BITS = 64


class BigIntEngine:
    """Draw, evaluate and compact one batch of Python-int words.

    The three methods are the refill path's stages, kept as separate
    calls so profilers and tracers can time each one.
    """

    name = "bigint"

    def draw_words(self, source: RandomSource, bits: int,
                   count: int) -> list[int]:
        """Draw ``count`` fresh ``bits``-lane words in one bulk read."""
        return source.read_words(bits, count)

    def run_kernel(self, kernel: "BitslicedKernel", inputs: Sequence[int],
                   width: int) -> tuple[int, ...]:
        """Evaluate ``kernel`` over ``width``-lane words."""
        return kernel(inputs, (1 << width) - 1)

    def compact(self, magnitude_words: Sequence[int], valid_word: int,
                sign_word: int, width: int) -> tuple[list[int], int]:
        """Signed samples in lane order with invalid lanes dropped.

        Returns ``(samples, discarded)``.  The NumPy transpose runs
        whenever NumPy imports; the pure-Python body otherwise.
        """
        if _np is not None:
            return compact_numpy(magnitude_words, valid_word, sign_word,
                                 width)
        return compact_python(magnitude_words, valid_word, sign_word,
                              width)


def compact_numpy(magnitude_words: Sequence[int], valid_word: int,
                  sign_word: int, width: int) -> tuple[list[int], int]:
    """:meth:`BigIntEngine.compact` as one NumPy lane transpose."""
    bits = lane_bit_matrix([*magnitude_words, valid_word, sign_word],
                           width)
    m = len(magnitude_words)
    weights = _np.left_shift(_np.int64(1), _np.arange(m, dtype=_np.int64))
    values = weights @ bits[:m].astype(_np.int64)
    valid = bits[m].astype(bool)
    signed = _np.where(bits[m + 1].astype(bool), -values, values)
    return signed[valid].tolist(), width - int(_np.count_nonzero(valid))


def compact_python(magnitude_words: Sequence[int], valid_word: int,
                   sign_word: int, width: int) -> tuple[list[int], int]:
    """:meth:`BigIntEngine.compact` in pure Python.

    Serializes each word once, then walks byte-aligned 64-lane slices:
    lane shifts stay on small ints instead of repeatedly shifting one
    ``width``-bit int (quadratic for fused super-batches), which keeps
    compaction O(width * m) for hundreds-of-kilobit words.
    """
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


#: The word engine by name.  Tracers wrap each listed class's
#: ``draw_words``, ``run_kernel`` and ``compact``.
_ENGINE_CLASSES: dict[str, type[BigIntEngine]] = {"bigint": BigIntEngine}
