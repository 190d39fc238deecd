"""Cumulative distribution table (CDT) samplers — the Table 1 baselines.

The CDT method (Peikert [26]) draws a uniform ``n``-bit value ``r`` and
returns the smallest ``v`` with ``r < CDF[v]``.  The table is the running
sum of the probability-matrix rows, so every CDT backend samples exactly
the same truncated distribution as the Knuth–Yao samplers (restart when
``r`` falls in the truncation gap beyond the last entry).

This module provides the shared table plus the *binary search* variant:
``ceil(log2 L)`` probes, each an early-exit bytewise comparison against a
lazily-drawn ``r``.  Both the probe sequence and the bytes-consumed count
depend on the secret sample — the timing leak exploited by attacks like
Flush+Gauss+Reload [19] and the reason the paper builds a constant-time
replacement.
"""

from __future__ import annotations

from bisect import bisect_right

from ..core.gaussian import GaussianParams, probability_matrix
from ..rng.source import RandomSource
from .api import IntegerSampler, LazyUniform, register_backend

try:  # Optional: powers the vectorized block sampler below.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None


class CdtTable:
    """Shared cumulative table for all CDT backends.

    ``entries[v]`` is ``sum_{u <= v} rows[u]`` as an ``n``-bit integer;
    ``entry_bytes[v]`` is its big-endian byte string (for bytewise
    compares); trailing rows with zero probability are dropped so scans
    do not waste work on empty tail entries.
    """

    def __init__(self, params: GaussianParams) -> None:
        self.params = params
        matrix = probability_matrix(params)
        self.matrix = matrix
        cumulative = []
        acc = 0
        for row in matrix.rows[:matrix.max_value + 1]:
            acc += row
            cumulative.append(acc)
        self.entries: tuple[int, ...] = tuple(cumulative)
        self.num_bytes = (params.precision + 7) // 8
        shift = 8 * self.num_bytes - params.precision
        self.entry_bytes: tuple[bytes, ...] = tuple(
            (value << shift).to_bytes(self.num_bytes, "big")
            for value in cumulative)
        self.precision = params.precision
        self._shift = shift

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def table_bytes(self) -> int:
        """Total table size in bytes (cache-residency argument)."""
        return len(self.entries) * self.num_bytes

    def failure_threshold(self) -> int:
        """Values ``r >= entries[-1]`` fall in the truncation gap."""
        return self.entries[-1]

    @property
    def shifted_entries(self) -> tuple[int, ...]:
        """Entries aligned to full bytes (``value << shift``), matching
        the byte strings :class:`LazyUniform` compares against —
        the block sampler's search key space."""
        if not hasattr(self, "_shifted_entries"):
            self._shifted_entries = tuple(
                value << self._shift for value in self.entries)
        return self._shifted_entries

    @property
    def entries_array(self):
        """:attr:`shifted_entries` as a read-only ``uint64`` array
        (requires NumPy and at most 64-bit table words)."""
        if _np is None:
            raise RuntimeError("NumPy is not installed")
        if 8 * self.num_bytes > 64:
            raise ValueError("table words exceed 64 bits")
        if not hasattr(self, "_entries_array"):
            array = _np.array(self.shifted_entries, dtype=_np.uint64)
            array.setflags(write=False)
            self._entries_array = array
        return self._entries_array


@register_backend
class CdtBinarySearchSampler(IntegerSampler):
    """Non-constant-time CDT sampler with binary search ([26] / Falcon
    reference "CDT" backend in Table 1)."""

    name = "cdt-binary"
    constant_time = False

    def __init__(self, params: GaussianParams,
                 source: RandomSource | None = None,
                 table: CdtTable | None = None) -> None:
        super().__init__(source)
        self.table = table if table is not None else CdtTable(params)

    def sample_magnitude(self) -> int:
        table = self.table
        while True:
            r = LazyUniform(self.source, table.num_bytes, self.counter)
            low = 0
            high = len(table)  # exclusive; position len == failure
            while low < high:
                mid = (low + high) // 2
                self.counter.branch()
                # ct: vartime(secret-branch): binary search descends toward the sampled value; probe sequence and lazy byte draws both leak (Table 1)
                if r.less_than_bytes(table.entry_bytes[mid]):
                    high = mid
                else:
                    low = mid + 1
            if low < len(table):
                return low
            # r beyond the last CDF entry: truncation gap, restart.
            self.counter.branch()


def make_cdt_table(sigma: float, precision: int,
                   tail_cut: int = 13) -> CdtTable:
    """Convenience constructor mirroring :func:`compile_sampler`."""
    params = GaussianParams.from_sigma(sigma, precision,
                                       tail_cut=tail_cut)
    return CdtTable(params)


# -- bulk block sampling ------------------------------------------------------
#
# The Falcon keygen pipeline draws whole polynomials (hundreds of
# coefficients) at once; the block sampler amortizes the PRNG and the
# table search across the block instead of paying both per coefficient.
#
# Stream contract (identical for the scalar and the NumPy route, which
# is what lets vectorized and pure-Python key generation emit
# bit-identical keys from one seed):
#
# 1. while magnitudes are missing, draw ``missing`` full-width table
#    words in one ``read_words``/``read_words_array`` bulk call
#    (little-endian words, ``8 * num_bytes`` bits each) and binary-search
#    every word; words at or beyond the last CDF entry fall in the
#    truncation gap and are dropped (the block refills on the next pass);
# 2. once ``count`` magnitudes are accepted, draw ``ceil(count / 8)``
#    sign bytes in one call; sign bit ``i`` is bit ``i % 8`` (LSB first)
#    of byte ``i // 8``, and flips the matching magnitude's sign.

def _block_magnitudes_scalar(table: CdtTable, source: RandomSource,
                             count: int) -> list[int]:
    entries = table.shifted_entries
    limit = len(entries)
    bits = 8 * table.num_bytes
    out: list[int] = []
    while len(out) < count:
        for word in source.read_words(bits, count - len(out)):
            value = bisect_right(entries, word)
            if value < limit:
                out.append(value)
    return out


def _block_magnitudes_numpy(table: CdtTable, source: RandomSource,
                            count: int):
    entries = table.entries_array
    limit = len(entries)
    bits = 8 * table.num_bytes
    parts = []
    missing = count
    while missing:
        words = source.read_words_array(bits, missing)
        found = _np.searchsorted(entries, words, side="right")
        accepted = found[found < limit]
        parts.append(accepted)
        missing -= len(accepted)
    return _np.concatenate(parts) if len(parts) > 1 else parts[0]


def cdt_sample_block(table: CdtTable, source: RandomSource,
                     count: int) -> list[int]:
    """``count`` signed CDT draws from one bulk-drawn randomness block.

    The search runs as NumPy ``searchsorted`` over ``uint64`` lanes when
    NumPy imports and table words are at most 64 bits, else as
    pure-Python ``bisect``; both consume the identical byte stream and
    return identical samples (pinned by the differential tests).
    """
    if count <= 0:
        return []
    if _np is not None and 8 * table.num_bytes <= 64:
        magnitudes = _block_magnitudes_numpy(table, source, count)
        sign_data = source.read_bytes((count + 7) // 8)
        sign_bits = _np.unpackbits(
            _np.frombuffer(sign_data, dtype=_np.uint8),
            bitorder="little")[:count]
        signed = _np.where(sign_bits.astype(bool),
                           -magnitudes.astype(_np.int64),
                           magnitudes.astype(_np.int64))
        return signed.tolist()
    magnitudes = _block_magnitudes_scalar(table, source, count)
    sign_data = source.read_bytes((count + 7) // 8)
    return [-magnitude
            if (sign_data[index >> 3] >> (index & 7)) & 1 else magnitude
            for index, magnitude in enumerate(magnitudes)]
