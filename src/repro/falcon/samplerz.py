"""Integer Gaussian sampling at arbitrary center — Falcon's SamplerZ.

ffSampling's leaves need draws from ``D_{Z, sigma', c}`` where the
center ``c`` changes every call and ``sigma'`` lies in
``[sigma_min, SIGMA_MAX = 1.8205]``.  The paper's experiment plugs its
fixed base sampler (sigma = 2, the value "the number field" dictates,
Sec. 6) into the Falcon reference implementation exactly here: base
draws provide candidates and a rejection step reshapes them to the
target center and width.

:class:`RejectionSamplerZ` implements that construction for any backend
exposing the signed ``sample()`` interface — the three CDT baselines,
Algorithm 1, or the bitsliced constant-time sampler — so Table 1's
backend comparison is a one-argument swap.  Acceptance for candidate
``z = round(c) + x``, ``x ~ D_{Z, 2}``:

    accept with prob  rho_{sigma',c}(z) / (M * rho_2(x)),
    M = max_z ratio  (finite because sigma' < 2)

computed in double precision, as the reference implementation does.

:class:`ReferenceSamplerZ` (uniform-interval rejection) provides a
slow, obviously-correct cross-check for the tests.
"""

from __future__ import annotations

import math

from ..ctlint.annotations import secret_params
from ..rng.source import RandomSource, default_source
from .params import SIGMA_MAX

try:  # Optional: vectorizes the block parse of acceptance uniforms.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

#: The paper's base sampler width ("this sigma can be either 2 or
#: sqrt(5)"; we use the binary-field instance, sigma = 2).
BASE_SIGMA = 2.0


class RejectionSamplerZ:
    """``D_{Z, sigma', c}`` by rejection from a pluggable sigma=2 base.

    Parameters
    ----------
    base_sampler:
        Any object with a signed ``sample()`` drawing from
        ``D_{Z, BASE_SIGMA}`` (and optionally a ``counter`` for op
        accounting).
    uniform_source:
        Source for the acceptance uniforms (53-bit doubles).
    uniform_block:
        How many 7-byte acceptance uniforms each refill pre-draws from
        ``uniform_source`` in one bulk read (parsed vectorized when
        NumPy is available).  Uniforms are consumed in stream order, so
        for a *dedicated* uniform source any block size yields the same
        acceptance decisions; when the source is shared with the base
        sampler, pre-drawing reorders the shared stream's split between
        the two consumers (outputs stay correctly distributed — set
        ``uniform_block=1`` to reproduce historical per-call streams).
    """

    def __init__(self, base_sampler,
                 uniform_source: RandomSource | None = None,
                 base_sigma: float = BASE_SIGMA,
                 uniform_block: int = 64) -> None:
        if uniform_block < 1:
            raise ValueError("uniform_block must be positive")
        self.base = base_sampler
        self.uniforms = (uniform_source if uniform_source is not None
                         else default_source())
        self.base_sigma = base_sigma
        self.uniform_block = uniform_block
        self.base_draws = 0
        self.accepted = 0
        #: Base draws the most recent accepted sample needed — the
        #: public rejection count, exposed for diagnostics.
        self.attempts_last = 0
        #: Pre-drawn uniforms, reversed so pop() yields stream order.
        self._uniform_queue: list[float] = []
        # Hot-path constants: sample() runs 2n times per signature, so
        # attribute lookups are hoisted once here.  Values are computed
        # by the exact expressions the per-call path used, keeping the
        # accept/reject decisions bit-identical.
        self._inv_base = 1.0 / (2.0 * self.base_sigma * self.base_sigma)
        counter = getattr(self.base, "counter", None)
        self._book_rng = counter.rng if counter is not None else None

    def _refill_uniforms(self) -> None:
        # One bulk draw of `block` 56-bit words (7 bytes each, exactly
        # the historical per-call consumption, in stream order).
        block = self.uniform_block
        if _np is not None and block > 1:
            words = self.uniforms.read_words_array(56, block)
            values = ((words >> _np.uint64(3))
                      * (2.0 ** -53)).tolist()
        else:
            values = [(word >> 3) * (2.0 ** -53)
                      for word in self.uniforms.read_words(56, block)]
        values.reverse()
        self._uniform_queue = values

    def _uniform01(self) -> float:
        if not self._uniform_queue:
            self._refill_uniforms()
        if self._book_rng is not None:
            # Book the acceptance-test randomness with the base draw so
            # the cost model sees the full per-candidate PRNG bill.
            self._book_rng(7)
        return self._uniform_queue.pop()

    @secret_params("center", "sigma")
    def sample(self, center: float, sigma: float) -> int:
        """One draw from ``D_{Z, sigma, center}``.

        The loop body is written with hoisted locals (it dominates the
        non-FFT share of signing time) but performs the exact same IEEE
        operations as the straightforward form, so the sample stream
        for a given seed is unchanged.
        """
        # ct: allow(secret-early-exit): validation against the public parameter-set bound (0, base_sigma) — rejects misconfiguration, not key-dependent values
        if not 0 < sigma < self.base_sigma:
            raise ValueError(
                # ct: allow(vartime-str): renders the rejected sigma only on the misconfiguration path, never on an accepted draw
                f"sigma must lie in (0, {self.base_sigma}); "
                f"got {sigma}")
        # ct: vartime(vartime-div): IEEE double division on the leaf sigma — the reference implementation's arithmetic; the paper's fixed-point spine is the planned fix
        inv_target = 1.0 / (2.0 * sigma * sigma)
        inv_base = self._inv_base
        center_round = round(center)
        fractional = center - center_round  # in [-0.5, 0.5]
        # log-ratio g(u) = -(u - d)^2 * inv_target + u^2 * inv_base is a
        # downward parabola (inv_base < inv_target); its real maximum:
        # ct: vartime(vartime-div): double division on the secret center's fractional part (reference arithmetic, see above)
        peak = fractional * inv_target / (inv_target - inv_base)
        offset = peak - fractional
        # Squares are written as explicit products (not ``** 2``), the
        # form the batched :meth:`sample_lanes` shares, so both decide
        # bit for bit alike.
        log_m = (-(offset * offset) * inv_target
                 + peak * peak * inv_base)
        base_sample = self.base.sample
        book_rng = self._book_rng
        exp = math.exp
        queue = self._uniform_queue
        draws = 0
        while True:
            x = base_sample()
            draws += 1
            z = center_round + x
            dz = z - center
            log_ratio = -(dz * dz) * inv_target + x * x * inv_base
            if not queue:
                self._refill_uniforms()
                queue = self._uniform_queue
            if book_rng is not None:
                book_rng(7)
            # ct: vartime(secret-early-exit, vartime-call): the acceptance test — rejection count is public by the smoothing argument, but math.exp latency on the secret log-ratio is the GALACTICS vector; fixed-point spline tracked in ROADMAP
            if queue.pop() < exp(log_ratio - log_m):
                self.base_draws += draws
                self.accepted += 1
                self.attempts_last = draws
                return z

    def _take_uniforms(self, count: int) -> list[float]:
        """``count`` acceptance uniforms, in queue (stream) order.

        Refills trigger at the same queue-exhaustion points as
        :meth:`_uniform01`, so the underlying PRNG stream is split
        identically; only the per-call booking granularity differs
        (the bytes are booked once for the whole take).
        """
        queue = self._uniform_queue
        if 0 < count <= len(queue):
            out = queue[:-count - 1:-1]
            del queue[-count:]
            if self._book_rng is not None:
                self._book_rng(7 * count)
            return out
        out: list[float] = []
        remaining = count
        while remaining > 0:
            if not queue:
                self._refill_uniforms()
                queue = self._uniform_queue
            grab = min(remaining, len(queue))
            out.extend(queue[:-grab - 1:-1])
            del queue[-grab:]
            remaining -= grab
        if self._book_rng is not None:
            self._book_rng(7 * count)
        return out

    @secret_params("centers", "sigma")
    def sample_lanes(self, centers: list[float],
                     sigma: float) -> list[int]:
        """One draw per center from ``D_{Z, sigma, center_i}``.

        Batch counterpart of :meth:`sample` for the ffSampling leaves,
        where every lane of a signing batch shares the leaf's sigma.
        Rejection runs round-based: each round bulk-draws one base
        candidate and one uniform per still-pending lane (in lane
        order) and decides all of them; rejected lanes continue into
        the next round.  The acceptance arithmetic per lane is exactly
        :meth:`sample`'s, in pure Python floats, so results are
        identical whether or not NumPy is installed.
        """
        # ct: allow(secret-early-exit): validation against the public parameter-set bound (0, base_sigma), as in sample()
        if not 0 < sigma < self.base_sigma:
            raise ValueError(
                # ct: allow(vartime-str): renders the rejected sigma only on the misconfiguration path, never on an accepted draw
                f"sigma must lie in (0, {self.base_sigma}); "
                f"got {sigma}")
        count = len(centers)
        if count == 0:
            return []
        # ct: vartime(vartime-div): IEEE double division on the leaf sigma (reference arithmetic, as in sample())
        inv_target = 1.0 / (2.0 * sigma * sigma)
        inv_base = self._inv_base
        gap = inv_target - inv_base
        rounds = []
        log_ms = []
        for center in centers:
            center_round = round(center)
            fractional = center - center_round
            # ct: vartime(vartime-div): double division on the secret center's fractional part (as in sample())
            peak = fractional * inv_target / gap
            offset = peak - fractional
            rounds.append(center_round)
            log_ms.append(-(offset * offset) * inv_target
                          + peak * peak * inv_base)
        results: list[int] = [0] * count
        pending = list(range(count))
        take = getattr(self.base, "take", None)
        exp = math.exp
        attempts = 0
        while pending:
            # Every pending lane draws once per round, so a lane
            # accepted in round ``attempts`` needed that many draws.
            attempts += 1
            width = len(pending)
            if take is not None:
                candidates = take(width)
            else:
                candidates = [self.base.sample() for _ in range(width)]
            uniforms = self._take_uniforms(width)
            self.base_draws += width
            still: list[int] = []
            append_still = still.append
            for slot, lane in enumerate(pending):
                x = candidates[slot]
                z = rounds[lane] + x
                dz = z - centers[lane]
                log_ratio = -(dz * dz) * inv_target + x * x * inv_base
                # ct: vartime(secret-branch, vartime-call): per-lane acceptance test — same reviewed pair as sample(): public rejection count, GALACTICS-exposed exp latency
                if uniforms[slot] < exp(log_ratio - log_ms[lane]):
                    results[lane] = z
                else:
                    append_still(lane)
            pending = still
        # The last round accepted every lane still pending.
        self.attempts_last = attempts
        self.accepted += count
        return results

    @property
    def acceptance_rate(self) -> float:
        if self.base_draws == 0:
            return 0.0
        return self.accepted / self.base_draws


class ReferenceSamplerZ:
    """Uniform-interval rejection — slow but transparently correct.

    Draws ``z`` uniformly from ``[round(c) - span, round(c) + span]``
    and accepts with probability ``rho_{sigma,c}(z)``; used only to
    cross-check :class:`RejectionSamplerZ` in the tests.
    """

    def __init__(self, source: RandomSource | None = None,
                 tail_cut: float = 9.0) -> None:
        self.source = source if source is not None else default_source()
        self.tail_cut = tail_cut

    def _uniform_below(self, bound: int) -> int:
        bits = bound.bit_length()
        while True:
            raw = int.from_bytes(
                self.source.read_bytes((bits + 7) // 8), "little")
            raw &= (1 << bits) - 1
            if raw < bound:
                return raw

    def _uniform01(self) -> float:
        raw = int.from_bytes(self.source.read_bytes(7), "little")
        return (raw >> 3) * (2.0 ** -53)

    @secret_params("center", "sigma")
    def sample(self, center: float, sigma: float) -> int:
        span = math.ceil(self.tail_cut * sigma) + 1
        center_round = round(center)
        width = 2 * span + 1
        while True:
            z = center_round - span + self._uniform_below(width)
            # ct: vartime(vartime-pow, vartime-div, vartime-call): textbook rho evaluation — test-only reference sampler, transparently variable-time
            rho = math.exp(-(z - center) ** 2 / (2 * sigma * sigma))
            # ct: vartime(secret-early-exit): uniform-interval rejection — test-only reference, acceptance depends on the drawn value
            if self._uniform01() < rho:
                return z


def sampler_z_max_sigma_check() -> None:
    """Module sanity: Falcon leaf sigmas always fit under the base."""
    if SIGMA_MAX >= BASE_SIGMA:  # pragma: no cover - spec constant
        raise AssertionError("sigma_max must stay below the base sigma")
