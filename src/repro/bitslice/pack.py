"""Packing and unpacking of bitsliced sample words.

In the bitsliced SIMD scheme of [21]/Sec. 3.2, input variable ``bvar_i``
is a machine word whose lane ``j`` carries random bit ``b_i`` of sample
``j``; evaluating the Boolean functions with bitwise instructions
produces output words ``svar_t`` whose lane ``j`` carries bit ``t`` of
sample ``j``.  Two transpositions connect this layout to ordinary
integers:

* *input packing* is free when the words come straight from a PRNG —
  any ``w`` fresh random bits form a valid lane-sliced word; and
* *output unpacking* transposes the ``m`` output words into ``w``
  small integers (this is the "overhead of packing and unpacking bits"
  the paper mentions).

Python integers of arbitrary width serve as machine words, which lets
the batch-width ablation sweep ``w`` beyond 64 without code changes.
"""

from __future__ import annotations

from typing import Sequence


def pack_lane_bits(samples_bits: Sequence[Sequence[int]],
                   num_words: int) -> list[int]:
    """Transpose per-sample bit vectors into lane-sliced words.

    ``samples_bits[j][i]`` is bit ``b_i`` of sample ``j``; the result's
    word ``i`` holds that bit in lane ``j``.  Used by tests to feed the
    kernel exactly the strings Algorithm 1 consumed.
    """
    words = [0] * num_words
    for lane, bits in enumerate(samples_bits):
        for index, bit in enumerate(bits):
            if index >= num_words:
                break
            if bit:
                words[index] |= 1 << lane
    return words


def unpack_lanes(words: Sequence[int], width: int) -> list[int]:
    """Transpose output words back into per-lane integers.

    ``words[t]`` carries output bit ``t``; the result's entry ``j`` is
    ``sum_t bit(words[t], j) << t``.  Runs in O(total set bits) by
    iterating set bits only — cheap for sparse high-order words.
    """
    values = [0] * width
    mask = (1 << width) - 1
    for bit_index, word in enumerate(words):
        remaining = word & mask
        while remaining:
            low = remaining & -remaining
            lane = low.bit_length() - 1
            values[lane] |= 1 << bit_index
            remaining ^= low
    return values


def lane_bit_matrix(words: Sequence[int], width: int):
    """NumPy transpose: ``(len(words), width)`` 0/1 matrix of lane bits.

    Row ``t``, column ``j`` of the result is bit ``j`` of ``words[t]``.
    One ``np.unpackbits`` over the words' little-endian bytes replaces
    the per-lane bit twiddling of :func:`unpack_lanes` — this is the
    "overhead of packing and unpacking bits" amortized across all lanes
    at once.  Requires NumPy and words below ``2**width``.
    """
    import numpy as np

    nbytes = (width + 7) // 8
    raw = b"".join(word.to_bytes(nbytes, "little") for word in words)
    as_bytes = np.frombuffer(raw, dtype=np.uint8).reshape(len(words),
                                                          nbytes)
    return np.unpackbits(as_bytes, axis=1, count=width,
                         bitorder="little")


def lanes_where(mask_word: int, width: int) -> list[int]:
    """Indices of set lanes in a mask word (e.g. the valid mask)."""
    lanes = []
    remaining = mask_word & ((1 << width) - 1)
    while remaining:
        low = remaining & -remaining
        lanes.append(low.bit_length() - 1)
        remaining ^= low
    return lanes
