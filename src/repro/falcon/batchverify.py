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
(``"decompress"`` with the decoder's detail, ``"norm-bound"``, or
``"ok"``), so callers like the ledger's block builder can reject bad
lanes without blocking the rest of the batch.

The aggregate-then-verify fast path (the folded-falcon shape, see
SNIPPETS.md #3) is the opt-in ``precheck="rlc"``: for *expanded* lanes
that also carry the recomputed ``s1`` (``(pk, message, sig, s1)``),
verification splits into per-lane shortness (cheap) and the lattice
congruence ``s1 + s2*h - c = 0 (mod q)``, and the congruences of a
whole batch collapse into **one** random-linear-combination check::

    sum_i rho_i * (s1_i + s2_i * h_i - c_i)  =  0   (mod q)

with weights ``rho_i`` derived from a caller-supplied seed.  By NTT
linearity the check needs the batched forward transform of the ``s2``
rows plus just two more forward transforms (of the rho-weighted ``s1``
and ``c`` sums) — and **no inverse transforms at all**.  A batch with
any lane whose congruence residual is non-zero survives the check with
probability at most ``1/q`` per independent round (the residual is a
non-zero linear form in the ``rho_i`` over the prime field), so
``precheck_rounds=r`` drives soundness error below ``q^-r``.  When the
aggregate check fails, the engine falls back to the full per-lane path
and returns exact verdicts — aggregate-then-verify never changes
*what* is accepted, only how cheaply acceptance is established.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from hashlib import sha256
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
    ntt_array,
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
REASON_DECOMPRESS = "decompress"
REASON_NORM = "norm-bound"

#: Prechecks :func:`verify_batch` understands (``None`` = full path).
PRECHECKS = (None, "rlc")


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
    ``s1_rows`` (with ``keep_s1=True``) holds each accepted lane's
    recomputed centered ``s1`` — the expansion the RLC aggregate path
    consumes later, captured at zero extra cost.  ``precheck_passed``
    is True when an ``"rlc"`` aggregate check settled the batch
    without the per-lane inverse-NTT pass.
    """

    verdicts: list[bool]
    lanes: list[LaneVerdict]
    s1_rows: list | None = None
    precheck_passed: bool = False

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
    s2: list
    hashed: list
    s1_claimed: list | None = None
    # Filled by the arithmetic passes:
    verdict: LaneVerdict | None = None
    s1: list | None = field(default=None, repr=False)


#: Smallest same-degree group worth the batched row decoder's setup
#: cost; below this the scalar decoder is faster (measured crossover
#: is ~16-32 lanes at n=256).
ROWS_DECODE_MIN = 32


def _decode_rows(items: Sequence) -> dict[int, list]:
    """Batched phase-1 decode: lanes grouped by (degree, blob width)
    through :func:`decompress_rows`, one vectorized Golomb–Rice walk
    per group.  Returns ``{item index: s2}`` for the lanes it decoded;
    failed or too-small groups are left to the scalar decoder (which
    also supplies the canonical error message on failure).  Needs
    NumPy; without it every lane takes the scalar decoder."""
    decoded: dict[int, list] = {}
    if _np is None:
        return decoded
    groups: dict[tuple[int, int], list[int]] = {}
    for index, item in enumerate(items):
        blob = item[2].compressed
        groups.setdefault((item[0].n, len(blob)), []).append(index)
    for (n, _width), indexes in groups.items():
        if len(indexes) < ROWS_DECODE_MIN:
            continue
        coefficients, failed = decompress_rows(
            [items[index][2].compressed for index in indexes], n)
        for row, index in enumerate(indexes):
            if not failed[row]:
                decoded[index] = coefficients[row].tolist()
    return decoded


def _decode_lanes(items: Sequence
                  ) -> tuple[list[LaneVerdict | None], list[_Lane]]:
    """Shared phase 1: decompress + hash every lane, report failures.

    A lane whose signature fails canonical decompression gets its
    verdict here (with the decoder's message as detail) and never
    blocks the rest of the batch — the old single-key path silently
    dropped these lanes with no stat.  With NumPy, big
    same-degree groups decode through the vectorized row decoder;
    accept/reject stays bit-identical either way.
    """
    verdicts: list[LaneVerdict | None] = [None] * len(items)
    live: list[_Lane] = []
    decoded = _decode_rows(items)
    for index, item in enumerate(items):
        public_key, message, signature = item[0], item[1], item[2]
        s1_claimed = item[3] if len(item) > 3 else None
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
                          hashed=hashed, s1_claimed=s1_claimed))
    return verdicts, live


def _norm_sq(s1: Sequence[int], s2: Sequence[int]) -> int:
    return sum(c * c for c in s1) + sum(c * c for c in s2)


def _full_pass_numpy(group: list[_Lane], n: int, keep_s1: bool) -> None:
    """The tentpole kernel: the whole mixed-key degree group through
    ONE batched forward NTT, one rowwise pointwise multiply against
    the stacked per-key ``ntt(h)`` rows, one batched inverse NTT and
    one vectorized norm reduction."""
    bound = falcon_params(n).sig_bound
    s2_mat = _np.asarray([lane.s2 for lane in group], dtype=_np.int64)
    h_mat = _np.stack([lane.public_key.h_ntt_row for lane in group])
    s2h = mul_ntt_rows_array(s2_mat, h_mat).astype(_np.int64)
    c_mat = _np.asarray([lane.hashed for lane in group],
                        dtype=_np.int64)
    s1 = center_mod_q_array(c_mat - s2h)
    norms = (s1 * s1).sum(axis=1) + (s2_mat * s2_mat).sum(axis=1)
    for row, lane in enumerate(group):
        ok = bool(norms[row] <= bound)
        lane.verdict = LaneVerdict(ok, REASON_OK if ok else REASON_NORM)
        if keep_s1 and ok:
            lane.s1 = [int(value) for value in s1[row]]


def _full_pass_scalar(group: list[_Lane], n: int, keep_s1: bool) -> None:
    """Pure-Python fallback: per-lane scalar NTTs, identical verdicts."""
    bound = falcon_params(n).sig_bound
    for lane in group:
        h_ntt = lane.public_key.h_ntt
        s2h = intt([x * y % Q for x, y in zip(ntt(lane.s2), h_ntt)])
        s1 = [center_mod_q(c - x)
              for c, x in zip(lane.hashed, s2h)]
        ok = _norm_sq(s1, lane.s2) <= bound
        lane.verdict = LaneVerdict(ok, REASON_OK if ok else REASON_NORM)
        if keep_s1 and ok:
            lane.s1 = s1


def rlc_weights(seed: bytes, count: int, round_index: int = 0
                ) -> list[int]:
    """Deterministic RLC weights in ``[1, q-1]``.

    Each weight hashes ``(seed, round, lane)`` through SHA-256, so a
    verifier binding ``seed`` to content an adversary must commit to
    first (the ledger uses the block header hash) gets Fiat–Shamir-
    style non-interactive weights.  The ``mod (q-1)`` bias is below
    ``2^-50`` and irrelevant to the ``1/q`` soundness bound.
    """
    weights = []
    for lane in range(count):
        digest = sha256(b"falcon-rlc|%d|%d|%b"
                        % (round_index, lane, seed)).digest()
        weights.append(1 + int.from_bytes(digest[:8], "big") % (Q - 1))
    return weights


def _rlc_congruence_holds(group: list[_Lane], n: int, seed: bytes,
                          rounds: int) -> bool:
    """The aggregate congruence over one degree group.

    Checks ``sum_i rho_i * (s1_i + s2_i*h_i - c_i) = 0 (mod q)`` in
    the NTT domain.  By linearity the rho-weighted ``s1`` and ``c``
    sums are folded in the coefficient domain first, so the whole
    check per round costs one batched forward NTT of the ``s2`` rows
    (shared across rounds) plus two single forward NTTs — and no
    inverse NTT anywhere.
    """
    if _np is not None:
        q = _np.uint64(Q)
        s2_mat = _np.asarray([lane.s2 for lane in group],
                             dtype=_np.int64)
        h_mat = _np.stack([lane.public_key.h_ntt_row
                           for lane in group])
        s2h_ntt = ntt_array(s2_mat) * h_mat % q
        s1_mat = (_np.asarray([lane.s1_claimed for lane in group],
                              dtype=_np.int64) % Q).astype(_np.uint64)
        c_mat = _np.asarray([lane.hashed for lane in group],
                            dtype=_np.uint64)
        for round_index in range(rounds):
            rho = _np.asarray(rlc_weights(seed, len(group),
                                          round_index),
                              dtype=_np.uint64)[:, None]
            # Products stay below q^2 ~ 2^27.2 and the lane sum below
            # batch * 2^27.2 — far from the uint64 ceiling.
            folded_s1 = (rho * s1_mat).sum(axis=0) % q
            folded_c = (rho * c_mat).sum(axis=0) % q
            folded_s2h = (rho * s2h_ntt).sum(axis=0) % q
            residual = (ntt_array(folded_s1) + folded_s2h
                        + (q - ntt_array(folded_c))) % q
            if residual.any():
                return False
        return True
    s2h_ntts = [[x * y % Q for x, y in zip(ntt(lane.s2),
                                           lane.public_key.h_ntt)]
                for lane in group]
    for round_index in range(rounds):
        rho = rlc_weights(seed, len(group), round_index)
        folded_s1 = [0] * n
        folded_c = [0] * n
        folded_s2h = [0] * n
        for weight, lane, s2h_ntt in zip(rho, group, s2h_ntts):
            for k in range(n):
                folded_s1[k] = (folded_s1[k]
                                + weight * lane.s1_claimed[k]) % Q
                folded_c[k] = (folded_c[k]
                               + weight * lane.hashed[k]) % Q
                folded_s2h[k] = (folded_s2h[k]
                                 + weight * s2h_ntt[k]) % Q
        lhs = ntt(folded_s1)
        rhs = ntt(folded_c)
        if any((lhs[k] + folded_s2h[k] - rhs[k]) % Q
               for k in range(n)):
            return False
    return True


def _aggregate_pass(group: list[_Lane], n: int, seed: bytes,
                    rounds: int, keep_s1: bool) -> bool:
    """Aggregate-then-verify for one expanded degree group.

    Per-lane shortness first (cheap, exact), then one RLC congruence
    for the whole group.  Returns False when the aggregate check did
    not hold — the caller re-runs the full path, so verdicts stay
    exact whatever a corrupted expansion claims.
    """
    bound = falcon_params(n).sig_bound
    for lane in group:
        if (lane.s1_claimed is None or len(lane.s1_claimed) != n
                or any(not -Q // 2 <= c <= Q // 2
                       for c in lane.s1_claimed)):
            return False
        ok = _norm_sq(lane.s1_claimed, lane.s2) <= bound
        lane.verdict = LaneVerdict(ok, REASON_OK if ok else REASON_NORM)
        if keep_s1 and ok:
            lane.s1 = list(lane.s1_claimed)
    if not _rlc_congruence_holds(group, n, seed, rounds):
        for lane in group:  # exact verdicts come from the full pass
            lane.verdict = None
            lane.s1 = None
        return False
    return True


def verify_batch_report(items: Sequence, *,
                        keep_s1: bool = False,
                        precheck: str | None = None,
                        precheck_seed: bytes = b"",
                        precheck_rounds: int = 1) -> BatchVerifyReport:
    """Verify a mixed-key batch and report per-lane outcomes.

    ``items`` are ``(public_key, message, signature)`` triples —
    arbitrary keys and ring degrees may share one batch — or
    ``(public_key, message, signature, s1)`` expanded quadruples when
    ``precheck="rlc"`` requests the aggregate-then-verify fast path.
    ``keep_s1`` captures each accepted lane's recomputed ``s1`` in the
    report (the expansion a later aggregate pass needs).  The
    arithmetic runs on the NumPy kernels when NumPy imports and on the
    pure-Python ones otherwise, with identical results.
    """
    if precheck not in PRECHECKS:
        raise ValueError(f"unknown precheck {precheck!r}; "
                         f"choose from {PRECHECKS}")
    if precheck_rounds < 1:
        raise ValueError("precheck_rounds must be at least 1")
    verdicts, live = _decode_lanes(items)
    if precheck == "rlc" and any(lane.s1_claimed is None
                                 for lane in live):
        raise ValueError("precheck='rlc' needs expanded lanes: "
                         "(public_key, message, signature, s1)")
    by_degree: dict[int, list[_Lane]] = {}
    for lane in live:
        by_degree.setdefault(lane.public_key.n, []).append(lane)
    precheck_passed = bool(precheck == "rlc" and live)
    for n, group in sorted(by_degree.items()):
        settled = False
        if precheck == "rlc":
            settled = _aggregate_pass(group, n, precheck_seed,
                                      precheck_rounds, keep_s1)
        if not settled:
            precheck_passed = False
            if _np is not None:
                _full_pass_numpy(group, n, keep_s1)
            else:
                _full_pass_scalar(group, n, keep_s1)
    s1_rows: list | None = [None] * len(items) if keep_s1 else None
    for lane in live:
        verdicts[lane.index] = lane.verdict
        if keep_s1 and lane.s1 is not None:
            s1_rows[lane.index] = lane.s1
    lanes = [verdict if verdict is not None
             else LaneVerdict(False, REASON_DECOMPRESS)
             for verdict in verdicts]
    return BatchVerifyReport(
        verdicts=[lane.ok for lane in lanes], lanes=lanes,
        s1_rows=s1_rows, precheck_passed=precheck_passed)


def verify_batch(items: Sequence, *,
                 precheck: str | None = None,
                 precheck_seed: bytes = b"",
                 precheck_rounds: int = 1) -> list[bool]:
    """Cross-key batch verification: per-lane verdicts only.

    Bit-identical to calling each lane's ``public_key.verify(message,
    signature)`` — but the whole mixed-key batch rides one vectorized
    NTT pass.  See :func:`verify_batch_report` for per-lane reasons
    and the expanded-lane ``precheck`` semantics.
    """
    return verify_batch_report(
        items, precheck=precheck,
        precheck_seed=precheck_seed,
        precheck_rounds=precheck_rounds).verdicts
