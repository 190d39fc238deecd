"""The batch-oriented constant-time discrete Gaussian sampler.

Runtime counterpart of :mod:`repro.core.compiler`: wraps a compiled
:class:`~repro.core.compiler.SamplerCircuit` in a
:class:`~repro.bitslice.engine.BitslicedKernel` and feeds it machine
words of PRNG output, ``w`` samples per invocation (Sec. 3.2 of the
paper; ``w = 64`` on the paper's target, arbitrary here).

How those words are represented is pluggable — see
:mod:`repro.bitslice.wordengine`:

* ``engine="bigint"``  — one Python bigint per word (default);
* ``engine="numpy"``   — NumPy ``uint64`` chunk arrays, vectorized
  (``bigint`` when NumPy is not installed);
* ``engine="auto"``    — ``numpy`` when available, else ``bigint``.

All engines consume the same PRNG byte stream with the same
byte-to-lane mapping, so their sample streams are **bit-identical**
(pinned by the differential tests) — switching engines changes
throughput, never output.

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
``f * batch_width`` lanes, which amortizes Python call overhead (and,
on the NumPy engine, turns every gate into one vectorized instruction
over the whole block).  :meth:`BitslicedSampler.stream` exposes the
same machinery as an endless iterator that refills across
super-batches — the prefetched pool Falcon's ``RejectionSamplerZ``
draws from.
"""

from __future__ import annotations

from typing import Iterator

from ..bitslice.engine import shared_kernel
from ..bitslice.wordengine import WordEngine, get_engine
from ..rng.source import CountingSource, RandomSource, default_source
from .compiler import SamplerCircuit, compile_sampler_circuit
from .gaussian import GaussianParams

#: The paper's batch width (64-bit target processor).
DEFAULT_BATCH_WIDTH = 64

#: Largest number of batches :meth:`BitslicedSampler.sample_many` fuses
#: into one kernel pass.  64 batches of 64 lanes = 4096 lanes per pass:
#: wide enough to amortize interpreter overhead on every engine, small
#: enough to keep working-set memory trivial.
DEFAULT_MAX_FUSED_BATCHES = 64

#: Lane ceiling for one fused pass regardless of batch width, so wide
#: user-chosen widths don't fuse into multi-hundred-kilobit words.
MAX_FUSED_LANES = 8192

#: Measured sweet-spot batch width per word engine, used by
#: ``batch_width="auto"``.  Calibrated from
#: ``benchmarks/reports/BENCH_backend_scaling.json``: the NumPy engine
#: peaks at moderate widths (wide enough to amortize array-op overhead,
#: narrow enough that ``sample_many``'s fused passes stay cache-friendly
#: — PR 1 showed w=1024 *regressing* to 0.90x there), while the
#: bigint engine keeps gaining from wider words.
BATCH_WIDTH_CALIBRATION = {"bigint": 512, "numpy": 256}


def auto_batch_width(engine: str | WordEngine) -> int:
    """The calibrated batch width for ``engine`` (see table above).

    ``engine`` is resolved through :func:`get_engine`, so selector
    strings (``"auto"``, ``None``) work and typos raise instead of
    silently falling back to the default width.
    """
    return BATCH_WIDTH_CALIBRATION.get(get_engine(engine).name,
                                       DEFAULT_BATCH_WIDTH)


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
                 batch_width: int | str = DEFAULT_BATCH_WIDTH,
                 engine: str | WordEngine = "bigint",
                 prefetch_batches: int = 1,
                 max_fused_batches: int = DEFAULT_MAX_FUSED_BATCHES,
                 ) -> None:
        self.engine = get_engine(engine)
        if batch_width == "auto":
            # Engine-calibrated width.  Note the lane mapping (hence the
            # exact sample stream for a given seed) depends on the
            # width, so "auto" trades cross-engine stream identity for
            # throughput; pin an explicit width to reproduce streams.
            batch_width = auto_batch_width(self.engine)
        if not isinstance(batch_width, int) or batch_width < 1:
            raise ValueError("batch width must be a positive int "
                             "or 'auto'")
        if prefetch_batches < 1:
            raise ValueError("prefetch_batches must be positive")
        if max_fused_batches < 1:
            raise ValueError("max_fused_batches must be positive")
        self.circuit = circuit
        self.kernel = shared_kernel(circuit.roots)
        self.source = CountingSource(
            source if source is not None else default_source())
        self.batch_width = batch_width
        self.prefetch_batches = prefetch_batches
        self.max_fused_batches = max_fused_batches
        self.batches_run = 0
        self.samples_discarded = 0
        self._buffer: list[int] = []

    @classmethod
    def compile(cls, params: GaussianParams,
                source: RandomSource | None = None,
                batch_width: int | str = DEFAULT_BATCH_WIDTH,
                engine: str | WordEngine = "bigint",
                prefetch_batches: int = 1,
                max_fused_batches: int = DEFAULT_MAX_FUSED_BATCHES,
                **compile_kwargs) -> "BitslicedSampler":
        """One-call build: parameters -> circuit -> executable sampler."""
        circuit = compile_sampler_circuit(params, **compile_kwargs)
        return cls(circuit, source=source, batch_width=batch_width,
                   engine=engine, prefetch_batches=prefetch_batches,
                   max_fused_batches=max_fused_batches)

    # -- cost model -------------------------------------------------------

    @property
    def word_ops_per_batch(self) -> int:
        """Bitwise instructions per batch (the Table 2 cycle proxy).

        A static property of the compiled circuit, identical for every
        word engine: engines change how a word instruction is carried
        out, never how many there are.
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

    def _kernel_pass(self, width: int) -> tuple[tuple, object, object]:
        """One straight-line kernel pass over ``width`` lanes.

        Draws the ``n`` input words plus the sign word in a single bulk
        PRNG read (byte-identical to sequential draws), evaluates the
        kernel, and returns ``(magnitude_words, valid_word, sign_word)``
        still in the engine's word representation.
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
        lane is invalid), ``valid_mask``/``signs`` are lane bitmasks
        (plain Python ints, whatever the engine).
        """
        width = self.batch_width
        magnitude_words, valid_word, sign_word = self._kernel_pass(width)
        magnitudes = self.engine.unpack(magnitude_words, width)
        valid_mask = self.engine.lane_mask(valid_word, width)
        signs = self.engine.lane_mask(sign_word, width)
        self.batches_run += 1
        return magnitudes, valid_mask, signs

    def sample_batch(self) -> list[int]:
        """Signed samples from one batch, invalid lanes compacted away."""
        width = self.batch_width
        magnitude_words, valid_word, sign_word = self._kernel_pass(width)
        samples, discarded = self.engine.compact(
            magnitude_words, valid_word, sign_word, width)
        self.batches_run += 1
        self.samples_discarded += discarded
        return samples

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
        as one fused kernel pass, so pointwise consumers (Falcon's
        rejection wrapper) still get super-batch throughput.
        """
        # ct: allow(secret-loop): refill cadence is the public batch fill rate — every batch costs the same fixed kernel pass regardless of the values produced
        while not self._buffer:
            if self.prefetch_batches > 1:
                self._buffer = self._sample_block(self.prefetch_batches)
            else:
                self._buffer = self.sample_batch()
        return self._buffer.pop()

    def prefill(self, count: int) -> None:
        """Top the :meth:`sample` buffer up to ``count`` samples.

        Generation happens now, in ``prefetch_batches``-sized fused
        passes — exactly the chunks lazy refills would use, prepended
        in generation order — so the :meth:`sample` stream is
        *unchanged*; a serving loop just pays the kernel cost up front
        instead of mid-request.
        """
        while len(self._buffer) < count:
            if self.prefetch_batches > 1:
                block = self._sample_block(self.prefetch_batches)
            else:
                block = self.sample_batch()
            self._buffer = block + self._buffer

    def sample_many(self, count: int) -> list[int]:
        """Exactly ``count`` signed samples, drawn in super-batches.

        Batches are fused up to ``max_fused_batches`` at a time, sized
        to the remaining need.  The fusion schedule depends only on
        ``count`` and the (engine-independent) sample stream, so
        ``sample_many`` is also bit-identical across engines.
        """
        if count <= 0:
            return []
        out: list[int] = []
        width = self.batch_width
        cap = max(1, min(self.max_fused_batches,
                         MAX_FUSED_LANES // width))
        while len(out) < count:
            need = count - len(out)
            batches = min(cap, -(-need // width))  # ceil division
            out.extend(self._sample_block(batches))
        del out[count:]
        return out

    def stream(self, block_samples: int = 4096) -> Iterator[int]:
        """Endless sample iterator refilling across super-batches.

        Yields signed samples forever, drawing ``block_samples`` at a
        time through :meth:`sample_many`.  This is the prefetched pool
        a long-running consumer (e.g. a signing service) iterates.
        """
        if block_samples < 1:
            raise ValueError("block_samples must be positive")
        while True:
            yield from self.sample_many(block_samples)


def compile_sampler(sigma: float, precision: int,
                    source: RandomSource | None = None,
                    batch_width: int | str = DEFAULT_BATCH_WIDTH,
                    tail_cut: int = 13,
                    engine: str | WordEngine = "bigint",
                    prefetch_batches: int = 1,
                    max_fused_batches: int = DEFAULT_MAX_FUSED_BATCHES,
                    **compile_kwargs) -> BitslicedSampler:
    """Top-level convenience: ``sigma, n -> ready-to-use sampler``.

    This is the library's main entry point::

        sampler = compile_sampler(sigma=2, precision=64, engine="auto")
        values = sampler.sample_many(1000)

    ``engine`` selects the word backend (see
    :mod:`repro.bitslice.wordengine`); every choice produces the same
    sample stream for the same seed.
    """
    params = GaussianParams.from_sigma(sigma, precision,
                                       tail_cut=tail_cut)
    return BitslicedSampler.compile(params, source=source,
                                    batch_width=batch_width,
                                    engine=engine,
                                    prefetch_batches=prefetch_batches,
                                    max_fused_batches=max_fused_batches,
                                    **compile_kwargs)
