"""Reference SamplerZ, for distribution tests.

Uniform-interval rejection, written straight from the definition of
``D_{Z, sigma, c}``: slow but transparently correct.  The library
draws leaves only through
:class:`repro.falcon.samplerz.RejectionSamplerZ`; the tests compare
its output distribution against this one.
"""

from __future__ import annotations

import math

from repro.rng.source import RandomSource, default_source


class ReferenceSamplerZ:
    """Draws ``z`` uniformly from ``[round(c) - span, round(c) + span]``
    and accepts with probability ``rho_{sigma,c}(z)``."""

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

    def sample(self, center: float, sigma: float) -> int:
        span = math.ceil(self.tail_cut * sigma) + 1
        center_round = round(center)
        width = 2 * span + 1
        while True:
            z = center_round - span + self._uniform_below(width)
            rho = math.exp(-(z - center) ** 2 / (2 * sigma * sigma))
            if self._uniform01() < rho:
                return z
