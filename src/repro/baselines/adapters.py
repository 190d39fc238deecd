"""Adapters presenting the Knuth–Yao and bitsliced samplers through the
common :class:`~repro.baselines.api.IntegerSampler` interface.

With these, all five backends of the paper's evaluation — byte-scanning
CDT, binary-search CDT, linear-scan CDT, Algorithm 1, and the bitsliced
constant-time sampler — are interchangeable in the Falcon harness, the
dudect leakage experiment and the benchmark tables.
"""

from __future__ import annotations

from ..core.gaussian import GaussianParams
from ..core.knuth_yao import knuth_yao_walk
from ..core.sampler import DEFAULT_MAX_FUSED_BATCHES, BitslicedSampler
from ..rng.source import BitStream, RandomSource
from .api import IntegerSampler, register_backend


@register_backend
class KnuthYaoIntegerSampler(IntegerSampler):
    """Algorithm 1 behind the common interface, with op accounting.

    Counts one load + one compare per matrix row scanned, one branch per
    consumed bit, and PRNG bytes at bit granularity (1 byte per 8 bits,
    as the bit stream refills) — the per-sample trace that makes the
    column-scanning sampler's leak visible to dudect.
    """

    name = "knuth-yao"
    constant_time = False

    def __init__(self, params: GaussianParams,
                 source: RandomSource | None = None) -> None:
        super().__init__(source)
        from ..core.gaussian import probability_matrix

        self.params = params
        self.matrix = probability_matrix(params)
        self._bits = BitStream(self.source)

    def sample_magnitude(self) -> int:
        while True:
            before_bits = self._bits.bits_consumed
            result = knuth_yao_walk(self.matrix, self._bits)
            consumed = self._bits.bits_consumed - before_bits
            self.counter.branch(consumed)
            self.counter.load(result.rows_scanned)
            self.counter.compare(result.rows_scanned)
            # Bit stream pulls bytes; attribute them at bit granularity.
            self.counter.rng((consumed + 7) // 8)
            # ct: vartime(secret-early-exit): the walk terminates at the sampled leaf — Algorithm 1's per-bit column scan is the leak under study
            if not result.failed:
                return result.value
            self.counter.branch()


@register_backend
class BitslicedIntegerSampler(IntegerSampler):
    """The compiled constant-time sampler behind the common interface.

    Work happens in whole batches: one kernel invocation executes
    exactly ``word_ops_per_batch`` bitwise instructions and consumes
    ``random_bytes_per_batch`` PRNG bytes, regardless of the values
    produced.  Costs are booked when a batch runs; per-sample
    amortization is left to the consumer (the traces are constant per
    batch, which is the point).

    Every pool refill fuses ``DEFAULT_MAX_FUSED_BATCHES`` batches into
    one kernel pass (4096 lanes at the default width).  The refill size
    sets how the PRNG stream is carved into lanes, so it is a constant
    of the signing byte contract: a seed yields the same samples with
    or without NumPy.  This is the pool Falcon's ``RejectionSamplerZ``
    draws from when signing.
    """

    name = "bitsliced"
    constant_time = True

    def __init__(self, params: GaussianParams,
                 source: RandomSource | None = None,
                 batch_width: int = 64,
                 **compile_kwargs) -> None:
        super().__init__(source)
        self.inner = BitslicedSampler.compile(
            params, source=self.source, batch_width=batch_width,
            prefetch_batches=DEFAULT_MAX_FUSED_BATCHES, **compile_kwargs)
        self._buffer: list[int] = []

    def _refill(self) -> list[int]:
        batches = self.inner.prefetch_batches
        samples = self.inner._sample_block(batches)
        self.counter.word_op(batches * self.inner.word_ops_per_batch)
        self.counter.rng(batches * self.inner.random_bytes_per_batch)
        return samples

    def sample_magnitude(self) -> int:
        # The inner sampler handles signs itself; expose magnitudes by
        # stripping the sign (distribution is symmetric by construction).
        return abs(self.sample())

    def sample(self) -> int:
        # ct: allow(secret-loop): pool emptiness is the public batch fill rate, not a function of the sampled values
        while not self._buffer:
            self._buffer = self._refill()
        return self._buffer.pop()

    def sample_many(self, count: int) -> list[int]:
        """``count`` samples in one call, exactly as ``count``
        sequential :meth:`sample` calls would return them.

        ``sample`` pops from the end of the pool, so the slice is
        reversed; refills happen at the same pool-exhaustion points,
        keeping the PRNG stream identical to per-call draws.
        """
        buffer = self._buffer
        if 0 < count <= len(buffer):
            out = buffer[:-count - 1:-1]
            del buffer[-count:]
            return out
        out: list[int] = []
        while count > 0:
            # ct: allow(secret-branch): refill on pool exhaustion — fill state is public (a length, not a value)
            if not self._buffer:
                self._buffer = self._refill()
            grab = min(count, len(self._buffer))
            out.extend(self._buffer[:-grab - 1:-1])
            del self._buffer[-grab:]
            count -= grab
        return out
