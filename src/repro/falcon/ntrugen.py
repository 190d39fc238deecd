"""NTRU key generation: sampling (f, g) and solving the NTRU equation.

Key generation finds short ``f, g`` and completes the basis with
``F, G`` satisfying

    f G - g F = q   (mod x^n + 1)

via the recursive tower descent of Pornin–Prest: take field norms down
to degree 1, solve with the extended Euclid there, lift the solution
back up (``F' = lift(F_half) * conj(g)``), and size-reduce against
``(f, g)`` with Babai rounding at every level.  All arithmetic on the
way down/up is exact big-integer; the Babai quotient is computed in
floating point through the FFT on block-scaled coefficients (the
coefficients grow to thousands of bits; only their top 53 bits matter
for the rounding).

The whole pipeline runs on one of two *spines* (mirroring the signing
path), picked by the platform: when NumPy imports, keygen draws
candidate coefficients through the vectorized CDT block search,
batch-checks invertibility with the array NTT, batch-filters
Gram–Schmidt quality through the array FFT kernels and computes Babai
quotients on the block-scaled array FFT; without NumPy the same steps
run in pure Python.  Both spines consume the identical PRNG byte
stream and perform bit-identical float arithmetic (the PR-3 kernel
guarantees), so a fixed seed yields the same ``NtruKeys`` on either —
pinned by the keygen KATs in both CI legs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..baselines.cdt import cdt_sample_block
from ..core.gaussian import GaussianParams
from ..rng.source import RandomSource, default_source
from . import poly
from .fft import (
    HAVE_NUMPY,
    adj_fft,
    cdiv,
    cmul,
    div_fft,
    fft,
    fft_array,
    ifft,
    ifft_array,
    mul_fft,
)
from .ntt import Q, div_ntt, is_invertible, is_invertible_array
from .params import FalconParams, falcon_params

if HAVE_NUMPY:
    import numpy as _np
else:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

#: Babai reduction abandons (and keygen retries) after this many rounds.
_MAX_REDUCE_ROUNDS = 512

#: When the 53-bit quotient rounds to zero at a coarse block scale, zoom
#: the evaluation window in by this many bits and keep reducing (the
#: multi-scale schedule of the C reference's keygen loop).  Small enough
#: that float precision always re-exposes the remaining quotient, large
#: enough to reach scale 0 in a handful of rounds.
_REDUCE_WINDOW_STEP = 25

#: Never zoom more than this far below the actual coefficient size:
#: block-scaled values then stay below ~2^953 and ``float()`` cannot
#: overflow.  (A basis needing a deeper zoom is already reduced to
#: within noise of its intrinsic size.)
_MAX_WINDOW_ZOOM = 900

#: Extra quotient bits pulled into each Babai round by exact
#: power-of-two scaling before the integer rounding.  The block-scaled
#: quotient carries ~45 trustworthy bits; rounding at scale 2^44
#: strips ~44 bits of the quotient per round instead of the sliver
#: visible at scale 1 when ``bitsize(f)`` is close to the 53-bit
#: window.  Re-tuned at Level 3 (n=1024, PR 5): sweeping 36..52 bits
#: moves n=1024 keygen by under 3% (86-95 ms/key on the reference
#: host) with 44 at the optimum plateau, so the n<=512 tuning stands.
_QUOTIENT_EXTRA_BITS = 44

#: Candidates are sampled in blocks of this many (f, g) pairs so the
#: quality filters amortize over one batched NTT / FFT pass.  The block
#: size is part of the keygen stream contract: both spines draw whole
#: blocks, so rejected candidates consume the same randomness on each.
CANDIDATE_BLOCK = 16

#: Below this ring degree the array FFT's per-call overhead outweighs
#: its throughput; the NumPy spine hands those levels to the scalar
#: kernels (bit-identical either way, so this is purely a speed knob).
_ARRAY_FFT_MIN_DEGREE = 64


class NtruSolveError(Exception):
    """The NTRU equation has no solution for this (f, g) — resample."""


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended Euclid: returns (gcd, u, v) with u*a + v*b = gcd."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_u, u = u, old_u - quotient * u
        old_v, v = v, old_v - quotient * v
    return old_r, old_u, old_v


def _block_scaled_floats(values: list[int], drop_bits: int) -> list[float]:
    """``value / 2^drop_bits`` as floats, tolerating huge integers."""
    if drop_bits <= 0:
        return [float(v) for v in values]
    return [float(v >> drop_bits) for v in values]


#: At or below this ring degree, Babai reduction runs the one-shot
#: *exact* integer route instead of the iterated float loop: the deep
#: tower levels carry multi-thousand-bit coefficients whose quotients
#: the 53-bit float window could only peel off a sliver at a time.
#: Exact big-integer arithmetic is spine-independent by construction.
#: Re-tuned at Level 3 (n=1024, PR 5): thresholds 8 and 16 tie within
#: noise (~87 ms/key) while 32 and 64 regress 14%/44% (the exact
#: resultant chain grows quadratically past degree 16), so the deep-
#: tower handoff stays at 16 for every supported n.  The knobs only
#: steer *which route* computes the quotient — every setting converges
#: to the same reduced basis, so the keygen KATs (now including
#: n=1024) pin bit-identical keys across the whole tuning range.
_EXACT_BABAI_MAX_DEGREE = 16


def _round_div(numerator: int, denominator: int) -> int:
    """``round(numerator / denominator)`` exactly (denominator > 0,
    halves away from the floor)."""
    quotient, remainder = divmod(numerator, denominator)
    return quotient + (1 if 2 * remainder >= denominator else 0)


def _scaled_ring_inverse(den: list[int]) -> tuple[list[int], int]:
    """``(C, R)`` with ``den * C = R`` in ``Z[x]/(x^d + 1)``.

    ``R`` is the resultant of ``den`` with ``x^d + 1`` (the product of
    its Galois conjugates) and ``C`` the matching integer cofactor, via
    the same norm-chain descent NTRUSolve itself uses:
    ``den * galois_conjugate(den)`` has only even coefficients, so the
    inversion recurses on the half-degree norm.
    """
    if len(den) == 1:
        return [1], den[0]
    conjugate = poly.galois_conjugate(den)
    norm_half = poly.mul_negacyclic(den, conjugate)[0::2]
    cofactor_half, resultant = _scaled_ring_inverse(norm_half)
    cofactor = poly.mul_negacyclic(conjugate, poly.lift(cofactor_half))
    return cofactor, resultant


def _reduce_basis_exact(f: list[int], g: list[int], F: list[int],
                        G: list[int]) -> tuple[list[int], list[int]]:
    """One-shot exact Babai reduction (small degrees).

    Computes ``k = round((F f* + G g*) / (f f* + g g*))`` with exact
    rational arithmetic — the denominator is cleared through its
    resultant — so the whole quotient comes out at once, however many
    bits it has.  Pure big-integer work: both keygen spines share it
    bit for bit.
    """
    adj_f = poly.adjoint(f)
    adj_g = poly.adjoint(g)
    den = poly.add(poly.mul_negacyclic(f, adj_f),
                   poly.mul_negacyclic(g, adj_g))
    cofactor, resultant = _scaled_ring_inverse(den)
    if resultant <= 0:
        # den is positive definite for any nonzero (f, g); a zero
        # resultant means a degenerate candidate.
        raise NtruSolveError("degenerate basis in Babai reduction")
    numerator = poly.add(poly.mul_negacyclic(F, adj_f),
                         poly.mul_negacyclic(G, adj_g))
    scaled = poly.mul_negacyclic(numerator, cofactor)
    k = [_round_div(c, resultant) for c in scaled]
    if all(v == 0 for v in k):
        return F, G
    kf = poly.mul_negacyclic(k, f)
    kg = poly.mul_negacyclic(k, g)
    return ([a - b for a, b in zip(F, kf)],
            [a - b for a, b in zip(G, kg)])


class _BabaiQuotient:
    """Per-basis state for the Babai rounding ``k = round(num / den)``.

    Precomputes the (block-scaled) FFTs of ``f, g`` and the denominator
    ``f f* + g g*`` once, then serves one quotient per reduction round.
    The array route performs the exact scalar operation sequence on the
    PR-3 bit-identical kernels (``cmul``/``cdiv``/``ifft_array``/
    ``rint``), so both routes return the same integers every round.
    """

    def __init__(self, f_scaled: list[float], g_scaled: list[float],
                 use_array: bool) -> None:
        self.use_array = use_array
        if use_array:
            f_fft = fft_array(_np.asarray(f_scaled, dtype=_np.float64))
            g_fft = fft_array(_np.asarray(g_scaled, dtype=_np.float64))
            self._adj_f = _np.conj(f_fft)
            self._adj_g = _np.conj(g_fft)
            self._denominator = (cmul(f_fft, self._adj_f)
                                 + cmul(g_fft, self._adj_g))
        else:
            f_fft = fft(f_scaled)
            g_fft = fft(g_scaled)
            self._adj_f = adj_fft(f_fft)
            self._adj_g = adj_fft(g_fft)
            self._denominator = [
                x + y for x, y in zip(mul_fft(f_fft, self._adj_f),
                                      mul_fft(g_fft, self._adj_g))]

    def round(self, F_scaled: list[float], G_scaled: list[float],
              extra_bits: int = 0) -> list[int]:
        """``round(quotient * 2^extra_bits)`` per slot.

        The power-of-two scaling is exact in IEEE doubles, so it pulls
        ``extra_bits`` additional quotient bits into the integer round
        without perturbing them — one reduction round then strips
        ``~extra_bits`` instead of the handful visible at scale 1.
        """
        scale = float(1 << extra_bits)
        if self.use_array:
            F_fft = fft_array(_np.asarray(F_scaled, dtype=_np.float64))
            G_fft = fft_array(_np.asarray(G_scaled, dtype=_np.float64))
            numerator = (cmul(F_fft, self._adj_f)
                         + cmul(G_fft, self._adj_g))
            quotient = cdiv(numerator, self._denominator)
            return _np.rint(ifft_array(quotient) * scale) \
                .astype(_np.int64).tolist()
        F_fft = fft(F_scaled)
        G_fft = fft(G_scaled)
        numerator = [
            x + y for x, y in zip(mul_fft(F_fft, self._adj_f),
                                  mul_fft(G_fft, self._adj_g))]
        quotient = div_fft(numerator, self._denominator)
        return [round(c * scale) for c in ifft(quotient)]


def reduce_basis(f: list[int], g: list[int], F: list[int], G: list[int]
                 ) -> tuple[list[int], list[int]]:
    """Babai-reduce (F, G) against (f, g); returns the new (F, G).

    Iterates ``k = round((F f* + G g*) / (f f* + g g*))``,
    ``(F, G) -= k * (f, g)``, with the quotient computed on the top 53
    bits of the coefficients (block scaling by powers of two), shifting
    the integer update back up.  When ``k`` rounds to zero at a coarse
    block scale the remaining quotient is merely *invisible at that
    scale*, not gone — the window zooms in by ``_REDUCE_WINDOW_STEP``
    bits and reduction continues (the multi-scale schedule of the C
    reference implementation).  Terminates only when ``k = 0`` with the
    window at scale 0, i.e. when (F, G) is fully reduced.
    """
    if len(f) <= _EXACT_BABAI_MAX_DEGREE:
        return _reduce_basis_exact(f, g, F, G)
    use_array = _np is not None and len(f) >= _ARRAY_FFT_MIN_DEGREE
    fg_bits = poly.max_bitsize([f, g])
    size = max(53, fg_bits)
    quotient = _BabaiQuotient(_block_scaled_floats(f, size - 53),
                              _block_scaled_floats(g, size - 53),
                              use_array)
    # |quotient slot| <= 2^(size - fg_bits) * n-ish; cap the pre-round
    # scaling so the rounded k always fits comfortably in an int64.
    slack = (size - fg_bits) + len(f).bit_length() + 2
    max_extra = max(0, min(_QUOTIENT_EXTRA_BITS, 61 - slack))

    window: int | None = None
    for _ in range(_MAX_REDUCE_ROUNDS):
        big_size = max(size, poly.max_bitsize([F, G]))
        # The window is monotone non-increasing: a subtraction at scale
        # ``s`` leaves a residual quotient below ``2^(s-1)``, so content
        # never reappears above an already-cleared scale and re-probing
        # coarse scales would only burn rounds.
        window = big_size if window is None else \
            max(size, min(window, big_size))
        floor = max(size, big_size - _MAX_WINDOW_ZOOM)
        window = max(window, floor)
        extra = min(max_extra, window - size)
        k = quotient.round(_block_scaled_floats(F, window - 53),
                           _block_scaled_floats(G, window - 53),
                           extra)
        if all(v == 0 for v in k):
            if window == size:
                return F, G
            if window == floor > size:  # pragma: no cover - pathological
                break
            # Nothing visible even 2^-extra below this scale; zoom in.
            window = max(floor, window - extra - _REDUCE_WINDOW_STEP)
            continue
        shift = window - size - extra
        kf = poly.mul_negacyclic(k, f)
        kg = poly.mul_negacyclic(k, g)
        F = [a - (b << shift) for a, b in zip(F, kf)]
        G = [a - (b << shift) for a, b in zip(G, kg)]
    raise NtruSolveError("Babai reduction did not converge")


def ntru_solve(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """Solve ``f G - g F = q`` for short (F, G).

    Raises :class:`NtruSolveError` when the resultants share a factor
    with q's tower (caller resamples f, g).
    """
    n = len(f)
    if n == 1:
        gcd, u, v = _xgcd(f[0], g[0])
        if gcd != 1:
            raise NtruSolveError("gcd(Res(f), Res(g)) != 1")
        # u f + v g = 1  =>  F = -v q, G = u q gives f G - g F = q.
        return [-v * Q], [u * Q]

    f_norm = poly.field_norm(f)
    g_norm = poly.field_norm(g)
    F_half, G_half = ntru_solve(f_norm, g_norm)
    # F = lift(F_half) * conj(g), G = lift(G_half) * conj(f):
    # N(f) = f * conj(f) at the lifted level, so
    # f G - g F = lift(N(f) G_half - N(g) F_half) = lift(q) = q.
    F = poly.mul_negacyclic(poly.lift(F_half), poly.galois_conjugate(g))
    G = poly.mul_negacyclic(poly.lift(G_half), poly.galois_conjugate(f))
    F, G = reduce_basis(f, g, F, G)
    return F, G


def _sequential_square_sum(values: list[complex]) -> float:
    """``0 + |v0|^2 + |v1|^2 + ...`` with per-slot ``re^2 + im^2`` and
    strict left-to-right accumulation — the scalar leg of the shared
    Gram–Schmidt norm expression (the array leg reproduces the same
    IEEE operation sequence with elementwise squares + ``cumsum``)."""
    total = 0.0
    for value in values:
        total += value.real * value.real + value.imag * value.imag
    return total


def gram_schmidt_norm_sq(f: list[int], g: list[int]) -> float:
    """``max(||(g,-f)||^2, ||(q f*/(ff*+gg*), q g*/(ff*+gg*))||^2)``.

    The keygen acceptance test: both Gram–Schmidt rows of the secret
    basis must be short enough for the signing sigma.
    """
    first = float(poly.square_norm(f) + poly.square_norm(g))
    f_fft = fft([float(c) for c in f])
    g_fft = fft([float(c) for c in g])
    denom = [x + y for x, y in zip(mul_fft(f_fft, adj_fft(f_fft)),
                                   mul_fft(g_fft, adj_fft(g_fft)))]
    ft = div_fft([Q * c for c in adj_fft(f_fft)], denom)
    gt = div_fft([Q * c for c in adj_fft(g_fft)], denom)
    # Norm via Parseval: sum |values|^2 / n.
    n = len(f)
    second = (_sequential_square_sum(ft)
              + _sequential_square_sum(gt)) / n
    return max(first, second)


def gram_schmidt_norms_batch(fs: list[list[int]],
                             gs: list[list[int]]) -> list[float]:
    """:func:`gram_schmidt_norm_sq` for a block of candidate pairs.

    With NumPy this runs one array-FFT pass over all rows, the exact
    pointwise kernel ops (``cmul``/``cdiv``), exact ``int64`` dot
    products for the first norm, and ``cumsum`` (sequential prefix
    sums — the same left-to-right IEEE additions as the scalar loop)
    for the second — each returned float is bit-identical to the
    scalar function's, so the accept/reject decisions cannot diverge
    between spines.
    """
    if _np is None or not fs:
        return [gram_schmidt_norm_sq(f, g) for f, g in zip(fs, gs)]
    from .fft import fft_of_int_rows

    n = len(fs[0])
    f_ints = _np.asarray(fs, dtype=_np.int64)
    g_ints = _np.asarray(gs, dtype=_np.int64)
    # Exact while |coeff| < sqrt(2^63 / n) — keygen coefficients are a
    # few hundred at most, far inside the bound for every supported n.
    firsts = (f_ints * f_ints).sum(axis=1) + (g_ints * g_ints).sum(axis=1)
    f_rows = fft_of_int_rows(fs)
    g_rows = fft_of_int_rows(gs)
    adj_f = _np.conj(f_rows)
    adj_g = _np.conj(g_rows)
    denom = cmul(f_rows, adj_f) + cmul(g_rows, adj_g)
    q_complex = _np.complex128(complex(Q, 0.0))
    ft = cdiv(cmul(q_complex, adj_f), denom)
    gt = cdiv(cmul(q_complex, adj_g), denom)
    ft_sums = _np.cumsum(ft.real * ft.real + ft.imag * ft.imag,
                         axis=1)[:, -1]
    gt_sums = _np.cumsum(gt.real * gt.real + gt.imag * gt.imag,
                         axis=1)[:, -1]
    out = []
    for index in range(len(fs)):
        first = float(int(firsts[index]))
        second = (float(ft_sums[index]) + float(gt_sums[index])) / n
        out.append(max(first, second))
    return out


@dataclass
class NtruKeys:
    """A complete NTRU trapdoor: short basis and public polynomial."""

    f: list[int]
    g: list[int]
    F: list[int]
    G: list[int]
    h: list[int]

    def verify_ntru_equation(self) -> bool:
        lhs = poly.sub(poly.mul_negacyclic(self.f, self.G),
                       poly.mul_negacyclic(self.g, self.F))
        want = [Q] + [0] * (len(self.f) - 1)
        return lhs == want


@lru_cache(maxsize=None)
def _keygen_table(sigma_rounded: float):
    from ..baselines.cdt import CdtTable

    gaussian = GaussianParams.from_sigma(sigma_rounded, precision=64)
    return CdtTable(gaussian)


def _sample_fg(params: FalconParams, source: RandomSource) -> list[int]:
    """One secret polynomial with D_{sigma_fg} coefficients.

    All ``n`` coefficients come from one bulk CDT block draw (the PR-1/2
    batched word pipeline underneath); the scalar and NumPy searches
    consume the identical byte stream.
    """
    sigma = round(params.keygen_sigma, 6)
    table = _keygen_table(sigma)
    return cdt_sample_block(table, source, params.n)


def _sample_candidate_block(params: FalconParams, source: RandomSource,
                            pairs: int,
                            ) -> list[tuple[list[int], list[int]]]:
    """``pairs`` candidate (f, g) polynomial pairs from ONE block draw.

    The whole block — ``2 * pairs * n`` coefficients — comes out of a
    single :func:`cdt_sample_block` call, so the per-call PRNG and
    kernel overhead amortizes across the candidate block.  The draw
    granularity is part of the keygen stream contract (both spines
    issue the same bulk reads).
    """
    sigma = round(params.keygen_sigma, 6)
    table = _keygen_table(sigma)
    n = params.n
    flat = cdt_sample_block(table, source, 2 * pairs * n)
    return [(flat[2 * i * n:(2 * i + 1) * n],
             flat[(2 * i + 1) * n:(2 * i + 2) * n])
            for i in range(pairs)]


def generate_keys(n: int, source: RandomSource | None = None,
                  max_attempts: int = 1024) -> NtruKeys:
    """Falcon key generation for ring degree ``n``.

    Candidate (f, g) pairs are drawn in blocks of
    :data:`CANDIDATE_BLOCK` and pushed through the filter ladder —
    parity pre-filter, invertibility (one batched NTT when NumPy
    imports), Gram–Schmidt quality (one batched FFT pass) — before the
    survivors run NTRUSolve in order; per-candidate acceptance is
    ~5-10% (the Gram–Schmidt bound dominates, as in the reference
    implementation), hence the generous attempt budget.  Whole blocks
    are drawn regardless of where acceptance lands, so the stream
    consumption (and therefore every key) is identical on both spines.
    """
    params = falcon_params(n)
    rng = source if source is not None else default_source()
    bound = (1.17 ** 2) * Q
    examined = 0
    while examined < max_attempts:
        block = min(CANDIDATE_BLOCK, max_attempts - examined)
        candidates = _sample_candidate_block(params, rng, block)
        examined += block
        # Parity pre-filter: if f(1) and g(1) are both even, the two
        # resultants share the factor 2 and NTRUSolve must fail — skip
        # the expensive work (the reference implementation's trick).
        live = [i for i, (f, g) in enumerate(candidates)
                if sum(f) % 2 or sum(g) % 2]
        if live:
            if _np is not None:
                invertible = is_invertible_array(
                    [candidates[i][0] for i in live])
                live = [i for i, ok in zip(live, invertible) if ok]
            else:
                live = [i for i in live
                        if is_invertible(candidates[i][0])]
        if live:
            norms = gram_schmidt_norms_batch(
                [candidates[i][0] for i in live],
                [candidates[i][1] for i in live])
            live = [i for i, norm_sq in zip(live, norms)
                    if norm_sq <= bound]
        for i in live:
            f, g = candidates[i]
            try:
                F, G = ntru_solve(list(f), list(g))
            except NtruSolveError:
                continue
            h = div_ntt(g, f)
            keys = NtruKeys(f=f, g=g, F=F, G=G, h=h)
            if not keys.verify_ntru_equation():  # pragma: no cover
                continue
            return keys
    raise RuntimeError(f"key generation failed after {max_attempts} tries")
