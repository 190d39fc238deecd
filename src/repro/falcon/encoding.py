"""Falcon signature compression (the spec's Golomb–Rice-style coding).

A signature's ``s2`` polynomial has Gaussian coefficients of standard
deviation ~165, so ~8 low bits are incompressible noise and the high
bits are geometrically distributed.  The spec encodes each coefficient
as:

* 1 sign bit,
* the 7 low bits of the absolute value,
* the remaining high part ``|s| >> 7`` in unary (that many ``0`` bits,
  then a terminating ``1``).

The bit budget is fixed per parameter set; unused space is zero-padded
(and checked on decode), and encoders report failure when a freak
signature exceeds the budget — the signer simply retries, as the
reference implementation does.  Decoding enforces canonicity: padding
must be all-zero, ``-0`` is rejected, and every magnitude must lie
within the parameter set's coefficient range (any valid signature's
coefficients satisfy ``c^2 <= beta^2``, so a longer unary run can only
come from a malformed or forged blob).

Two decoders share that contract.  :func:`decompress` parses one blob
record by record; it is the decoder without NumPy, the reference the
tests compare against, and the source of every error message.
:func:`decompress_rows` decodes a whole batch of equal-width blobs,
the first step of every NumPy verify round: a byte automaton finds
every record terminator of the batch in chunk-parallel table passes
(the paper's move of replacing a sequential, data-dependent bit walk
by table-driven passes that serve every lane at once), and the records
are gathered from there.  Both accept exactly the same blobs and
return the same coefficients.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

from .params import falcon_params

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy job
    _np = None


def max_coefficient(n: int) -> int:
    """Largest |s2 coefficient| any valid Falcon-``n`` signature can
    carry: ``floor(sqrt(beta^2))`` (one coefficient taking the entire
    norm budget)."""
    return isqrt(falcon_params(n).sig_bound)


class CompressError(Exception):
    """Signature does not fit the fixed bit budget (resample)."""


class DecompressError(Exception):
    """Malformed or non-canonical compressed signature."""


def compress(coefficients: list[int], payload_bits: int) -> bytes:
    """Compress ``s2`` into exactly ``ceil(payload_bits / 8)`` bytes.

    The bit stream is accumulated in one Python bigint (a sentinel top
    bit preserves leading zeros) instead of a per-bit list — the signer
    compresses every signature, so this path is hot.  The bytes are the
    records written MSB first, one after another, then zero padding.
    """
    acc = 1  # sentinel: keeps leading zero bits in the integer
    bits = 0
    for value in coefficients:
        sign = 1 if value < 0 else 0
        magnitude = -value if value < 0 else value
        high = magnitude >> 7
        # sign bit, 7 low bits, `high` zeros, terminating 1:
        chunk = (((sign << 7) | (magnitude & 0x7F)) << (high + 1)) | 1
        acc = (acc << (high + 9)) | chunk
        bits += high + 9
    total_bits = ((payload_bits + 7) // 8) * 8
    if bits > total_bits:
        raise CompressError(
            f"needs {bits} bits > budget {total_bits}")
    acc <<= total_bits - bits  # zero padding
    return acc.to_bytes(total_bits // 8 + 1, "big")[1:]


def decompress(data: bytes, n: int) -> list[int]:
    """Inverse of :func:`compress`; raises on any non-canonical form.

    ``n`` is the ring degree: each decoded magnitude is checked against
    :func:`max_coefficient` for that parameter set, so a unary run
    encoding a coefficient no valid signature could carry (the old
    guard allowed magnitudes up to ~131k, ~22x the Falcon-512 bound)
    is rejected as malformed.

    Operates on the bit stream as a text of ``0``/``1`` characters so
    the unary runs are located with C-speed ``str.find`` — same
    accept/reject behavior as the bit-by-bit reference reader.
    """
    limit = max_coefficient(n)
    max_high = limit >> 7
    total = len(data) * 8
    stream = bin((1 << total) | int.from_bytes(data, "big"))[3:]
    out = []
    position = 0
    for _ in range(n):
        if position + 8 > total:
            raise DecompressError("compressed signature truncated")
        sign = stream[position] == "1"
        low = int(stream[position + 1:position + 8], 2)
        terminator = stream.find("1", position + 8)
        if terminator < 0:
            raise DecompressError("compressed signature truncated")
        high = terminator - (position + 8)
        if high > max_high:
            raise DecompressError(
                "unary run exceeds the coefficient bound")
        magnitude = (high << 7) | low
        if magnitude > limit:
            raise DecompressError(
                f"coefficient {magnitude} exceeds the parameter "
                f"set's bound {limit}")
        if sign and magnitude == 0:
            raise DecompressError("negative zero is non-canonical")
        out.append(-magnitude if sign else magnitude)
        position = terminator + 1
    if "1" in stream[position:]:
        raise DecompressError("non-zero padding")
    return out


# -- the batched row decoder: a chunk-parallel byte automaton ----------------
#
# Before each bit, a parse of the stream is in one of nine states:
# ``k`` in 1..8 (k literal bits, the sign then the 7 low bits, left to
# read) or 0 (inside the unary run).  Every record starts in state 8,
# and a 1-bit read in state 0 is the record's terminator.

#: State at a record start: 8 literal bits to read.
_RECORD_START = 8
#: Terminator offset meaning "this byte holds none".
_NO_TERMINATOR = 8


@cache
def _automaton_tables():
    """The automaton's byte tables, built once on first use.

    For entry state ``s`` and ``byte``, ``next_state[(s << 8) | byte]``
    is the state after the byte, stored as ``state << 8`` so that it
    indexes the next lookup directly, and ``terminator[(s << 8) |
    byte]`` is the bit offset (0 = most significant) of the terminator
    the byte holds, or :data:`_NO_TERMINATOR`.  A record spans at least
    9 bits, so a byte holds at most one terminator.  ``last_set[byte]``
    is the offset of the byte's last set bit (0 for a zero byte).
    """
    state = _np.repeat(_np.arange(9), 256).reshape(9, 256)
    byte = _np.arange(256)
    terminator = _np.full((9, 256), _NO_TERMINATOR)
    last_set = _np.zeros(256, dtype=_np.intp)
    for offset in range(8):
        bit = (byte >> (7 - offset)) & 1
        ends = (state == 0) & (bit == 1)
        terminator[ends] = offset
        state = _np.where(state == 0, ends * _RECORD_START, state - 1)
        last_set[bit == 1] = offset
    return ((state << 8).astype(_np.intp).ravel(),
            terminator.astype(_np.intp).ravel(), last_set)


def _chunk_length(width: int) -> int:
    """Bytes per automaton chunk: about ``sqrt(width)``, which balances
    the steps of a pass (one per byte of a chunk) against the steps of
    the composition (one per chunk)."""
    return max(1, isqrt(width))


def _terminators(data):
    """Every record terminator in the rows of the byte matrix ``data``.

    Returns ``(padded, lanes, positions)``: ``data`` widened with zero
    bytes to whole chunks (at least one past the end; zero bytes hold
    no terminator), and each terminator's lane and bit position, lane
    by lane in stream order.  These are exactly the terminators the
    scalar parse finds: both read each record as 8 literal bits, then a
    unary run up to the first 1-bit.

    Each row is cut into chunks of about ``sqrt(width)`` bytes.  Pass 1
    runs all nine entry states through every chunk at once, giving
    each chunk's state map; composing those maps from state 8 gives
    each chunk's true entry state; pass 2 reruns every chunk from that
    state.  Each step of a pass is one table lookup over the whole
    batch, so a call takes about ``3 sqrt(width)`` steps whatever the
    batch size; only the arrays grow with it.
    """
    next_state, terminator, _ = _automaton_tables()
    batch, width = data.shape
    length = _chunk_length(width)
    chunks = width // length + 1
    padded = _np.zeros((batch, chunks * length), dtype=_np.intp)
    padded[:, :width] = data
    # steps[j] holds byte j of every chunk of every lane.
    steps = _np.ascontiguousarray(
        padded.reshape(batch, chunks, length).transpose(2, 0, 1))
    maps = _np.broadcast_to(_np.arange(9, dtype=_np.intp) << 8,
                            (batch, chunks, 9))
    for byte in steps:
        maps = next_state.take(maps + byte[:, :, None])
    maps = (maps >> 8).ravel()
    map_base = (_np.arange(chunks, dtype=_np.intp)[:, None] * 9
                + _np.arange(batch, dtype=_np.intp) * (chunks * 9))
    entry = _np.empty((chunks, batch), dtype=_np.intp)
    state = _np.full(batch, _RECORD_START, dtype=_np.intp)
    for chunk in range(chunks):
        entry[chunk] = state
        state = maps.take(map_base[chunk] + state)
    before = _np.empty_like(steps)
    state = entry.T << 8
    for index, byte in enumerate(steps):
        before[index] = state
        state = next_state.take(state + byte)
    offsets = terminator.take(before + steps).transpose(1, 2, 0).reshape(
        batch, -1)
    lanes, columns = _np.nonzero(offsets != _NO_TERMINATOR)
    return padded, lanes, (columns << 3) + offsets[lanes, columns]


def decompress_rows(blobs: list[bytes], n: int):
    """Decode a whole batch of equal-width compressed signatures at once.

    :func:`_terminators` finds every record terminator of the batch
    with a chunk-parallel byte automaton; record ``i + 1`` starts one
    past terminator ``i``, and each record's sign and 7 low bits are
    gathered from its start.  A lane is canonical exactly when scalar
    :func:`decompress` accepts it: it holds ``n`` terminators (fewer
    means truncated), the ``n``-th is its last set bit (else non-zero
    padding or extra records), and no record breaks the unary-run,
    magnitude or negative-zero checks.

    Returns ``(coefficients, failed)``: an ``(batch, n)`` int64 matrix
    and a boolean lane mask.  Accept/reject and coefficients agree with
    :func:`decompress` lane by lane; rows of failed lanes are garbage,
    and callers wanting the canonical error message re-run
    :func:`decompress` on just those lanes.  Requires NumPy and blobs
    of one shared byte width.
    """
    if _np is None:  # pragma: no cover - numpy baked into the CI image
        raise RuntimeError("decompress_rows requires NumPy")
    batch = len(blobs)
    width = len(blobs[0])
    if any(len(blob) != width for blob in blobs):
        raise ValueError("decompress_rows needs equal-width blobs")
    limit = max_coefficient(n)
    max_high = limit >> 7
    data = _np.frombuffer(b"".join(blobs),
                          _np.uint8).reshape(batch, width)
    padded, lanes, positions = _terminators(data)
    # A lane with n terminators gets its row of them; any other lane
    # fails, and its row of -1s keeps the gathers below in bounds.
    whole = _np.bincount(lanes, minlength=batch) == n
    terms = _np.full((batch, n), -1, dtype=_np.intp)
    terms[whole] = positions[whole[lanes]].reshape(-1, n)
    starts = _np.empty_like(terms)
    starts[:, 0] = 0
    starts[:, 1:] = terms[:, :-1] + 1
    # Each record's leading 8 bits (sign | 7 low bits) straddle at most
    # two bytes; gather them straight out of a 16-bit byte-pair view.
    pairs = _np.zeros((batch, width + 1), dtype=_np.int32)
    pairs[:, :width] = data.astype(_np.int32) << 8
    pairs[:, :width - 1] |= data[:, 1:]
    rows = _np.arange(batch)
    words = (pairs[rows[:, None], starts >> 3]
             >> (8 - (starts & 7))) & 0xFF
    high = terms - starts - 8
    sign = words >> 7
    magnitude = (high << 7) | (words & 0x7F)
    _, _, last_set = _automaton_tables()
    last_byte = padded.shape[1] - 1 - (padded[:, ::-1] != 0).argmax(axis=1)
    last_bit = (last_byte << 3) + last_set[padded[rows, last_byte]]
    failed = (~whole
              | (high > max_high).any(axis=1)
              | (magnitude > limit).any(axis=1)
              | ((sign == 1) & (magnitude == 0)).any(axis=1)
              | (last_bit != terms[:, -1]))
    coefficients = _np.where(sign == 1, -magnitude, magnitude)
    return coefficients, failed
