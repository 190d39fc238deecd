"""Integer Gaussian sampling at arbitrary center — Falcon's SamplerZ.

ffSampling's leaves need draws from ``D_{Z, sigma', c}`` where the
center ``c`` changes every call and ``sigma'`` lies in
``[sigma_min, SIGMA_MAX = 1.8205]``.  The paper's experiment plugs its
fixed base sampler (sigma = 2, the value "the number field" dictates,
Sec. 6) into the Falcon reference implementation exactly here: base
draws provide candidates and a rejection step reshapes them to the
target center and width.

:class:`RejectionSamplerZ` implements that construction for any backend
behind the :class:`~repro.baselines.api.IntegerSampler` interface — the
three CDT baselines, Algorithm 1, or the bitsliced constant-time
sampler — so Table 1's backend comparison is a one-argument swap.
Acceptance for candidate ``z = round(c) + x``, ``x ~ D_{Z, 2}``:

    accept with prob  rho_{sigma',c}(z) / (M * rho_2(x)),
    M = max_z ratio  (finite because sigma' < 2)

computed in double precision, as the reference implementation does.
"""

from __future__ import annotations

import math

from ..ctlint.annotations import secret_params
from ..rng.source import RandomSource, default_source

try:  # Optional: vectorizes the block parse of acceptance uniforms.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

#: The paper's base sampler width ("this sigma can be either 2 or
#: sqrt(5)"; we use the binary-field instance, sigma = 2).
BASE_SIGMA = 2.0

#: Acceptance uniforms each refill pre-draws in one bulk read (7 bytes
#: apiece).  A signer's uniforms share its key's stream with the base
#: sampler, so the block size decides how that stream splits between
#: the two consumers: it is part of the signature byte contract.
UNIFORM_BLOCK = 64


class RejectionSamplerZ:
    """``D_{Z, sigma', c}`` by rejection from a pluggable sigma=2 base.

    Parameters
    ----------
    base_sampler:
        Any :class:`~repro.baselines.api.IntegerSampler` drawing from
        ``D_{Z, BASE_SIGMA}``: candidates come from its
        ``sample_many(count)``, and its ``counter`` (if any) is booked
        with the acceptance randomness.
    uniform_source:
        Source for the acceptance uniforms (53-bit doubles), read
        :data:`UNIFORM_BLOCK` at a time.
    """

    def __init__(self, base_sampler,
                 uniform_source: RandomSource | None = None,
                 base_sigma: float = BASE_SIGMA) -> None:
        self.base = base_sampler
        self.uniforms = (uniform_source if uniform_source is not None
                         else default_source())
        self.base_sigma = base_sigma
        self.base_draws = 0
        self.accepted = 0
        #: Base draws the most recent accepted sample needed — the
        #: public rejection count, exposed for diagnostics.
        self.attempts_last = 0
        #: Pre-drawn uniforms, reversed so pop() yields stream order.
        self._uniform_queue: list[float] = []
        self._inv_base = 1.0 / (2.0 * self.base_sigma * self.base_sigma)
        counter = getattr(self.base, "counter", None)
        self._book_rng = counter.rng if counter is not None else None

    def _refill_uniforms(self) -> None:
        # One bulk draw of UNIFORM_BLOCK 56-bit words, in stream order;
        # both parses give the same floats.
        if _np is not None:
            words = self.uniforms.read_words_array(56, UNIFORM_BLOCK)
            values = ((words >> _np.uint64(3))
                      * (2.0 ** -53)).tolist()
        else:
            values = [(word >> 3) * (2.0 ** -53) for word
                      in self.uniforms.read_words(56, UNIFORM_BLOCK)]
        values.reverse()
        self._uniform_queue = values

    @secret_params("center", "sigma")
    def sample(self, center: float, sigma: float) -> int:
        """One draw from ``D_{Z, sigma, center}``: a one-lane
        :meth:`sample_lanes`."""
        return self.sample_lanes([center], sigma)[0]

    def _take_uniforms(self, count: int) -> list[float]:
        """``count`` acceptance uniforms, in queue (stream) order.

        The queue refills whenever it runs dry, so how a caller splits
        its takes does not change the stream.  The bytes are booked
        with the base draws, so the cost model sees the full
        per-candidate PRNG bill.
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

        The ffSampling leaves call this with every lane of a signing
        batch, which shares the leaf's sigma.  Rejection runs
        round-based: each round bulk-draws one base candidate
        (``base.sample_many``) and one uniform per still-pending lane,
        in lane order, and decides all of them; rejected lanes continue
        into the next round.  The acceptance arithmetic is pure Python
        floats, so results are identical whether or not NumPy is
        installed.
        """
        # ct: allow(secret-early-exit): validation against the public parameter-set bound (0, base_sigma) — rejects misconfiguration, not key-dependent values
        if not 0 < sigma < self.base_sigma:
            raise ValueError(
                # ct: allow(vartime-str): renders the rejected sigma only on the misconfiguration path, never on an accepted draw
                f"sigma must lie in (0, {self.base_sigma}); "
                f"got {sigma}")
        count = len(centers)
        if count == 0:
            return []
        # ct: vartime(vartime-div): IEEE double division on the leaf sigma — the reference implementation's arithmetic; the paper's fixed-point spine is the planned fix
        inv_target = 1.0 / (2.0 * sigma * sigma)
        inv_base = self._inv_base
        gap = inv_target - inv_base
        rounds = []
        log_ms = []
        # A lane's log-ratio g(u) = -(u - d)^2 * inv_target + u^2 *
        # inv_base is a downward parabola (inv_base < inv_target);
        # log_m is its value at the real maximum, ``peak``.
        for center in centers:
            center_round = round(center)
            fractional = center - center_round
            # ct: vartime(vartime-div): double division on the secret center's fractional part (reference arithmetic, see above)
            peak = fractional * inv_target / gap
            offset = peak - fractional
            rounds.append(center_round)
            log_ms.append(-(offset * offset) * inv_target
                          + peak * peak * inv_base)
        results: list[int] = [0] * count
        pending = list(range(count))
        sample_many = self.base.sample_many
        exp = math.exp
        attempts = 0
        while pending:
            # Every pending lane draws once per round, so a lane
            # accepted in round ``attempts`` needed that many draws.
            attempts += 1
            width = len(pending)
            candidates = sample_many(width)
            uniforms = self._take_uniforms(width)
            self.base_draws += width
            still: list[int] = []
            append_still = still.append
            for slot, lane in enumerate(pending):
                x = candidates[slot]
                z = rounds[lane] + x
                dz = z - centers[lane]
                log_ratio = -(dz * dz) * inv_target + x * x * inv_base
                # ct: vartime(secret-branch, vartime-call): the acceptance test — rejection count is public by the smoothing argument, but math.exp latency on the secret log-ratio is the GALACTICS vector; fixed-point spline tracked in ROADMAP
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
