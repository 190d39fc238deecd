"""The batch-oriented constant-time discrete Gaussian sampler.

Runtime counterpart of :mod:`repro.core.compiler`: wraps a compiled
:class:`~repro.core.compiler.SamplerCircuit` in a
:class:`~repro.bitslice.engine.BitslicedKernel` and feeds it machine
words of PRNG output, ``w`` samples per invocation (Sec. 3.2 of the
paper; ``w = 64`` on the paper's target, arbitrary here).

A word is one Python int (:mod:`repro.bitslice.wordengine`).  Turning
output words back into per-lane samples takes one NumPy transpose when
NumPy is installed and a pure-Python compaction otherwise; both yield
the same samples, so a seed gives one sample stream on every platform
(pinned by the differential tests).

Per batch the sampler consumes exactly ``n + 1`` random words — ``n``
bits plus a sign bit per lane — regardless of the values produced, and
executes exactly ``kernel.stats.word_ops`` bitwise instructions per
batch: the operation trace is input-independent by construction, which
is the constant-time property the dudect experiment verifies.

Lanes whose ``valid`` bit is clear (walk cannot terminate within the
``n``-bit precision; probability ``failure_count / 2^n``) are discarded
during unpacking, exactly as Algorithm 1 restarts.  Only the publicly
known batch fill rate leaks.

For bulk work, :meth:`BitslicedSampler.sample_many` fuses several
batches into one *super-batch*: a single kernel pass over
``f * batch_width`` lanes, which amortizes Python call overhead (every
gate is one bitwise operation over the whole block).
"""

from __future__ import annotations

from ..bitslice.engine import shared_kernel
from ..bitslice.pack import unpack_lanes
from ..bitslice.wordengine import BigIntEngine
from ..rng.source import CountingSource, RandomSource, default_source
from .compiler import SamplerCircuit, compile_sampler_circuit
from .gaussian import GaussianParams

#: The paper's batch width (64-bit target processor).
DEFAULT_BATCH_WIDTH = 64

#: Largest number of batches :meth:`BitslicedSampler.sample_many` fuses
#: into one kernel pass.  64 batches of 64 lanes = 4096 lanes per pass:
#: wide enough to amortize interpreter overhead, small enough to keep
#: working-set memory trivial.
DEFAULT_MAX_FUSED_BATCHES = 64

#: Lane ceiling for one fused pass regardless of batch width, so wide
#: user-chosen widths don't fuse into multi-hundred-kilobit words.
MAX_FUSED_LANES = 8192


class BitslicedSampler:
    """Constant-time discrete Gaussian sampler over signed integers.

    Examples
    --------
    >>> params = GaussianParams.from_sigma(2, precision=32)
    >>> sampler = BitslicedSampler.compile(params)
    >>> batch = sampler.sample_batch()
    >>> len(batch) <= sampler.batch_width
    True
    """

    def __init__(self, circuit: SamplerCircuit,
                 source: RandomSource | None = None,
                 batch_width: int = DEFAULT_BATCH_WIDTH,
                 prefetch_batches: int = 1) -> None:
        if not isinstance(batch_width, int) or batch_width < 1:
            raise ValueError("batch width must be a positive int")
        if prefetch_batches < 1:
            raise ValueError("prefetch_batches must be positive")
        self.engine = BigIntEngine()
        self.circuit = circuit
        self.kernel = shared_kernel(circuit.roots)
        self.source = CountingSource(
            source if source is not None else default_source())
        self.batch_width = batch_width
        self.prefetch_batches = prefetch_batches
        self.batches_run = 0
        self.samples_discarded = 0
        self._buffer: list[int] = []

    @classmethod
    def compile(cls, params: GaussianParams,
                source: RandomSource | None = None,
                batch_width: int = DEFAULT_BATCH_WIDTH,
                prefetch_batches: int = 1,
                **compile_kwargs) -> "BitslicedSampler":
        """One-call build: parameters -> circuit -> executable sampler."""
        circuit = compile_sampler_circuit(params, **compile_kwargs)
        return cls(circuit, source=source, batch_width=batch_width,
                   prefetch_batches=prefetch_batches)

    # -- cost model -------------------------------------------------------

    @property
    def word_ops_per_batch(self) -> int:
        """Bitwise instructions per batch (the Table 2 cycle proxy).

        A static property of the compiled circuit.
        """
        return self.kernel.stats.word_ops

    @property
    def cycles_per_sample(self) -> float:
        """Modeled sampling cycles per produced sample (PRNG excluded,
        like Table 2), accounting for invalid-lane loss."""
        produced = self.batch_width * self.circuit.validity_rate
        return self.word_ops_per_batch / produced

    @property
    def random_bytes_per_batch(self) -> int:
        words = self.circuit.num_input_bits + 1  # n bits + sign
        return words * ((self.batch_width + 7) // 8)

    # -- kernel plumbing --------------------------------------------------

    def _kernel_pass(self, width: int) -> tuple[tuple[int, ...], int, int]:
        """One straight-line kernel pass over ``width`` lanes.

        Draws the ``n`` input words plus the sign word in a single bulk
        PRNG read (byte-identical to sequential draws), evaluates the
        kernel, and returns ``(magnitude_words, valid_word, sign_word)``
        as ``width``-bit ints.
        """
        n = self.circuit.num_input_bits
        needed = max(self.kernel.num_inputs, n)
        words = self.engine.draw_words(self.source, width, needed + 1)
        inputs, sign_word = words[:needed], words[needed]
        outputs = self.engine.run_kernel(self.kernel, inputs, width)
        return outputs[:-1], outputs[-1], sign_word

    # -- sampling ---------------------------------------------------------

    def raw_batch(self) -> tuple[list[int], int, int]:
        """Run one kernel batch; return (magnitudes, valid_mask, signs).

        ``magnitudes[j]`` is lane ``j``'s magnitude (garbage when the
        lane is invalid), ``valid_mask``/``signs`` are lane bitmasks.
        """
        width = self.batch_width
        magnitude_words, valid_word, sign_word = self._kernel_pass(width)
        mask = (1 << width) - 1
        self.batches_run += 1
        return (unpack_lanes(magnitude_words, width), valid_word & mask,
                sign_word & mask)

    def sample_batch(self) -> list[int]:
        """Signed samples from one batch, invalid lanes compacted away."""
        return self._sample_block(1)

    def _sample_block(self, num_batches: int) -> list[int]:
        """``num_batches`` fused into one kernel pass (a super-batch).

        The effective word is ``num_batches * batch_width`` lanes wide;
        randomness cost and instruction trace scale exactly linearly
        (``num_batches`` times the per-batch figures), so the
        constant-time accounting is unchanged — there is just less
        Python between the gates.
        """
        width = self.batch_width * num_batches
        magnitude_words, valid_word, sign_word = self._kernel_pass(width)
        samples, discarded = self.engine.compact(
            magnitude_words, valid_word, sign_word, width)
        self.batches_run += num_batches
        self.samples_discarded += discarded
        return samples

    def sample(self) -> int:
        """One signed sample (buffered batches underneath).

        With ``prefetch_batches > 1`` the refill runs that many batches
        as one fused kernel pass, so pointwise consumers still get
        super-batch throughput.
        """
        # ct: allow(secret-loop): refill cadence is the public batch fill rate — every batch costs the same fixed kernel pass regardless of the values produced
        while not self._buffer:
            self._buffer = self._sample_block(self.prefetch_batches)
        return self._buffer.pop()

    def sample_many(self, count: int) -> list[int]:
        """Exactly ``count`` signed samples, drawn in super-batches.

        Batches are fused up to :data:`DEFAULT_MAX_FUSED_BATCHES` at a
        time, sized to the remaining need.  The fusion schedule depends
        only on ``count`` and the sample stream, so ``sample_many`` is
        also bit-identical with and without NumPy.
        """
        if count <= 0:
            return []
        out: list[int] = []
        width = self.batch_width
        cap = max(1, min(DEFAULT_MAX_FUSED_BATCHES,
                         MAX_FUSED_LANES // width))
        while len(out) < count:
            need = count - len(out)
            batches = min(cap, -(-need // width))  # ceil division
            out.extend(self._sample_block(batches))
        del out[count:]
        return out


def compile_sampler(sigma: float, precision: int,
                    source: RandomSource | None = None,
                    batch_width: int = DEFAULT_BATCH_WIDTH,
                    tail_cut: int = 13,
                    prefetch_batches: int = 1,
                    **compile_kwargs) -> BitslicedSampler:
    """Top-level convenience: ``sigma, n -> ready-to-use sampler``.

    This is the library's main entry point::

        sampler = compile_sampler(sigma=2, precision=64)
        values = sampler.sample_many(1000)
    """
    params = GaussianParams.from_sigma(sigma, precision,
                                       tail_cut=tail_cut)
    return BitslicedSampler.compile(params, source=source,
                                    batch_width=batch_width,
                                    prefetch_batches=prefetch_batches,
                                    **compile_kwargs)
