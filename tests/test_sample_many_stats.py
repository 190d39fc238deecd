"""Statistical tests of the high-throughput ``sample_many`` path.

``sample_many`` fuses batches into super-batches; these tests confirm
that the bulk path still samples the *exact* distribution the circuit
encodes — a chi-square goodness-of-fit of 200k draws against the
``GaussianParams`` probability matrix, plus tail and sign-symmetry
checks — on both lane compactions: ``bigint`` forces the pure-Python
body (the only one the no-NumPy leg runs), ``numpy`` is the NumPy
transpose.
"""

from __future__ import annotations

import math
from collections import Counter

import pytest

from repro.bitslice import HAVE_NUMPY, wordengine
from repro.core import compile_sampler, probability_matrix
from repro.core.gaussian import GaussianParams
from repro.rng import ChaChaSource

DRAWS = 200_000

#: Lane compaction bodies (the NumPy one only when NumPy imports).
BODIES = ["bigint"] + (["numpy"] if HAVE_NUMPY else [])

PARAMS = GaussianParams.from_sigma(2, 32)


def _signed_pmf(params: GaussianParams) -> dict[int, float]:
    """Exact distribution of *produced* samples (valid lanes only).

    The matrix row convention folds the negative side in: row 0 is
    ``P(0)`` and row ``v >= 1`` is ``2 P(v)``; invalid lanes are
    discarded, renormalizing by ``mass / 2^n``.  A uniform sign bit
    then splits each folded row across the two signs.
    """
    matrix = probability_matrix(params)
    mass = matrix.mass
    pmf: dict[int, float] = {}
    for v, row in enumerate(matrix.rows):
        if row == 0:
            continue
        if v == 0:
            pmf[0] = row / mass
        else:
            pmf[v] = row / (2 * mass)
            pmf[-v] = row / (2 * mass)
    return pmf


@pytest.fixture(scope="module", params=BODIES)
def body_draws(request):
    with pytest.MonkeyPatch.context() as patch:
        if request.param == "bigint":
            patch.setattr(wordengine, "_np", None)
        sampler = compile_sampler(2, 32, source=ChaChaSource(17),
                                  batch_width=64)
        values = sampler.sample_many(DRAWS)
    assert len(values) == DRAWS
    return request.param, values, sampler


def test_chi_square_goodness_of_fit(body_draws):
    body, values, _ = body_draws
    pmf = _signed_pmf(PARAMS)
    observed = Counter(
        v if abs(v) < 7 else ("tail", v > 0) for v in values)
    expected: dict = {}
    for v, p in pmf.items():
        key = v if abs(v) < 7 else ("tail", v > 0)
        expected[key] = expected.get(key, 0.0) + p * DRAWS
    chi2 = sum((observed.get(k, 0) - e) ** 2 / e
               for k, e in expected.items() if e > 5)
    dof = sum(1 for e in expected.values() if e > 5) - 1
    # 5-sigma band for a chi-square statistic: mean dof, sd sqrt(2 dof).
    assert chi2 < dof + 5 * math.sqrt(2 * dof), (body, chi2, dof)


def test_tails_and_support(body_draws):
    body, values, _ = body_draws
    bound = PARAMS.support_bound
    assert max(abs(v) for v in values) <= bound, body
    # The 4-sigma tail mass must be small but present at 200k draws:
    # P(|v| >= 8) ~ 2 * sum_{v>=8} pmf ~ 6.8e-5 -> ~13.5 expected.
    tail = sum(1 for v in values if abs(v) >= 8)
    pmf = _signed_pmf(PARAMS)
    expected_tail = DRAWS * sum(p for v, p in pmf.items() if abs(v) >= 8)
    assert expected_tail > 5
    assert tail < expected_tail + 6 * math.sqrt(expected_tail), body
    # Values beyond 6 sigma are possible but astronomically rare.
    assert sum(1 for v in values if abs(v) >= 13) == 0, body


def test_sign_symmetry(body_draws):
    body, values, _ = body_draws
    positives = sum(1 for v in values if v > 0)
    negatives = sum(1 for v in values if v < 0)
    total = positives + negatives
    # Binomial(total, 1/2): 5-sigma band on the positive share.
    half_sd = 0.5 / math.sqrt(total)
    assert abs(positives / total - 0.5) < 5 * half_sd, body
    # Magnitude distribution must match between the signs as well.
    pos = Counter(v for v in values if v > 0)
    neg = Counter(-v for v in values if v < 0)
    for magnitude in range(1, 6):
        p, n = pos[magnitude], neg[magnitude]
        spread = 6 * math.sqrt((p + n) / 2)
        assert abs(p - n) < max(spread, 50), (body, magnitude, p, n)


def test_super_batching_actually_engaged(body_draws):
    """The bulk path must have used fused batches, not 1-batch loops."""
    body, values, sampler = body_draws
    assert sampler.batches_run >= DRAWS // sampler.batch_width
    # 200k samples at <= 64 fused batches of 64 lanes per kernel pass:
    # far fewer passes than batches.  Randomness accounting still holds.
    per_batch = sampler.random_bytes_per_batch
    assert sampler.source.bytes_read == sampler.batches_run * per_batch
