"""Cross-key batch verification: one NTT pass over many public keys.

``PublicKey.verify_many`` batches verification under a *single* key; a
fleet verifying records from millions of distinct users degenerates to
one tiny NTT pass per key.  This module removes that restriction: the
engine takes ``(public_key, message, signature)`` triples under
arbitrary, mixed keys, groups the lanes by ring degree, stacks each
key's cached ``ntt(h)`` into a ``(batch, n)`` uint64 matrix, and runs
the **entire mixed-key batch** through one vectorized
``ntt_array -> rowwise pointwise-mul -> intt_array`` pass plus one
vectorized norm check.  All the modular arithmetic is exact, so
verdicts are bit-identical to per-key :meth:`PublicKey.verify` (pinned
by the differential suite); a pure-Python fallback covers the no-NumPy
deployment.

Failures are *reported*, never silently dropped: each lane of a
:class:`BatchVerifyReport` carries a verdict plus a reason
(``"salt-length"`` with the length found, ``"decompress"`` with the
decoder's detail, ``"norm-bound"``, or ``"ok"``), so callers like the
ledger's block commit can reject bad lanes without blocking the rest
of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .encoding import DecompressError, decompress, decompress_rows
from .ntt import (
    HAVE_NUMPY,
    Q,
    center_mod_q,
    center_mod_q_array,
    intt,
    mul_ntt_rows_array,
    ntt,
)
from .params import falcon_params
from .scheme import hash_to_point

if HAVE_NUMPY:
    import numpy as _np
else:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

#: Per-lane outcome labels (machine-readable; ``detail`` carries the
#: human-readable specifics, e.g. the decompress error text).
REASON_OK = "ok"
REASON_SALT = "salt-length"
REASON_DECOMPRESS = "decompress"
REASON_NORM = "norm-bound"


@dataclass(frozen=True)
class LaneVerdict:
    """One lane's outcome: the verdict plus why."""

    ok: bool
    reason: str
    detail: str = ""


@dataclass(frozen=True)
class BatchVerifyReport:
    """Everything one engine pass learned about a batch.

    ``verdicts`` matches per-key :meth:`PublicKey.verify` bit for bit.
    """

    verdicts: list[bool]
    lanes: list[LaneVerdict]

    @property
    def accepted(self) -> int:
        return sum(1 for lane in self.lanes if lane.ok)

    @property
    def rejected(self) -> int:
        return len(self.lanes) - self.accepted

    def reasons(self) -> dict:
        """Histogram of per-lane reasons (rejections and accepts)."""
        counts: dict[str, int] = {}
        for lane in self.lanes:
            counts[lane.reason] = counts.get(lane.reason, 0) + 1
        return counts


@dataclass
class _Lane:
    """A decoded lane awaiting arithmetic (index into the batch)."""

    index: int
    public_key: object
    s2: object  # a list, or a row of the NumPy decoder's matrix
    hashed: list
    # Filled by the arithmetic pass:
    verdict: LaneVerdict | None = None


def _decode_rows(items: Sequence) -> dict[int, object]:
    """Batched phase-1 decode: lanes grouped by (degree, blob width),
    each group through one :func:`decompress_rows` call whatever its
    size.  Returns ``{item index: s2 row}`` for the lanes it decoded,
    each row a view into its group's coefficient matrix; a failed lane
    is left to the scalar decoder, which supplies the canonical error
    message.  Needs NumPy; without it every lane takes the scalar
    decoder."""
    decoded: dict[int, object] = {}
    if _np is None:
        return decoded
    groups: dict[tuple[int, int], list[int]] = {}
    for index, item in enumerate(items):
        blob = item[2].compressed
        groups.setdefault((item[0].n, len(blob)), []).append(index)
    for (n, _width), indexes in groups.items():
        coefficients, failed = decompress_rows(
            [items[index][2].compressed for index in indexes], n)
        for row, index in enumerate(indexes):
            if not failed[row]:
                decoded[index] = coefficients[row]
    return decoded


def _decode_lanes(items: Sequence
                  ) -> tuple[list[LaneVerdict | None], list[_Lane]]:
    """Shared phase 1: decompress + hash every lane, report failures.

    A lane whose salt is not the parameter set's length (the hash input
    is ``salt || message``, so any other length would verify a related
    message) or whose signature fails canonical decompression gets its
    verdict here, with the length found or the decoder's message as
    detail, and never blocks the rest of the batch.  With NumPy, every
    lane decodes through the row decoder and the scalar decoder runs
    only for a lane it failed; accept/reject stays bit-identical
    either way.
    """
    verdicts: list[LaneVerdict | None] = [None] * len(items)
    live: list[_Lane] = []
    decoded = _decode_rows(items)
    for index, item in enumerate(items):
        public_key, message, signature = item
        if len(signature.salt) != public_key.params.salt_bytes:
            verdicts[index] = LaneVerdict(
                False, REASON_SALT,
                f"salt is {len(signature.salt)} bytes, expected "
                f"{public_key.params.salt_bytes}")
            continue
        s2 = decoded.get(index)
        if s2 is None:
            try:
                s2 = decompress(signature.compressed, public_key.n)
            except DecompressError as error:
                verdicts[index] = LaneVerdict(False, REASON_DECOMPRESS,
                                              str(error))
                continue
        hashed = hash_to_point(message, signature.salt, public_key.n)
        live.append(_Lane(index=index, public_key=public_key, s2=s2,
                          hashed=hashed))
    return verdicts, live


def _norm_sq(s1: Sequence[int], s2: Sequence[int]) -> int:
    return sum(c * c for c in s1) + sum(c * c for c in s2)


def _full_pass_numpy(group: list[_Lane], n: int) -> None:
    """The tentpole kernel: the whole mixed-key degree group through
    ONE batched forward NTT, one rowwise pointwise multiply against
    the stacked per-key ``ntt(h)`` rows, one batched inverse NTT and
    one vectorized norm reduction."""
    bound = falcon_params(n).sig_bound
    s2_mat = _np.stack([lane.s2 for lane in group])
    h_mat = _np.stack([lane.public_key.h_ntt_row for lane in group])
    s2h = mul_ntt_rows_array(s2_mat, h_mat).astype(_np.int64)
    c_mat = _np.asarray([lane.hashed for lane in group],
                        dtype=_np.int64)
    s1 = center_mod_q_array(c_mat - s2h)
    norms = (s1 * s1).sum(axis=1) + (s2_mat * s2_mat).sum(axis=1)
    for row, lane in enumerate(group):
        ok = bool(norms[row] <= bound)
        lane.verdict = LaneVerdict(ok, REASON_OK if ok else REASON_NORM)


def _full_pass_scalar(group: list[_Lane], n: int) -> None:
    """Pure-Python fallback: per-lane scalar NTTs, identical verdicts."""
    bound = falcon_params(n).sig_bound
    for lane in group:
        h_ntt = lane.public_key.h_ntt
        s2h = intt([x * y % Q for x, y in zip(ntt(lane.s2), h_ntt)])
        s1 = [center_mod_q(c - x)
              for c, x in zip(lane.hashed, s2h)]
        ok = _norm_sq(s1, lane.s2) <= bound
        lane.verdict = LaneVerdict(ok, REASON_OK if ok else REASON_NORM)


def verify_batch_report(items: Sequence) -> BatchVerifyReport:
    """Verify a mixed-key batch and report per-lane outcomes.

    ``items`` are ``(public_key, message, signature)`` triples;
    arbitrary keys and ring degrees may share one batch.  The
    arithmetic runs on the NumPy kernels when NumPy imports and on the
    pure-Python ones otherwise, with identical results.
    """
    verdicts, live = _decode_lanes(items)
    by_degree: dict[int, list[_Lane]] = {}
    for lane in live:
        by_degree.setdefault(lane.public_key.n, []).append(lane)
    full_pass = _full_pass_numpy if _np is not None else _full_pass_scalar
    for n, group in sorted(by_degree.items()):
        full_pass(group, n)
    for lane in live:
        verdicts[lane.index] = lane.verdict
    return BatchVerifyReport(verdicts=[lane.ok for lane in verdicts],
                             lanes=verdicts)


def verify_batch(items: Sequence) -> list[bool]:
    """Cross-key batch verification: per-lane verdicts only.

    Bit-identical to calling each lane's ``public_key.verify(message,
    signature)`` — but the whole mixed-key batch rides one vectorized
    NTT pass.  See :func:`verify_batch_report` for per-lane reasons.
    """
    return verify_batch_report(items).verdicts
