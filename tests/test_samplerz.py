"""Tests for the variable-center SamplerZ construction."""

import math
from collections import Counter

import pytest
from _samplerz_reference import ReferenceSamplerZ

from repro.core import GaussianParams
from repro.falcon import (
    BASE_PRECISION,
    BASE_SIGMA,
    SIGMA_MAX,
    RejectionSamplerZ,
)
from repro.falcon.scheme import make_base_sampler
from repro.rng import ChaChaSource


def _target_pmf(center, sigma, span=30):
    lo = round(center) - span
    weights = {z: math.exp(-(z - center) ** 2 / (2 * sigma * sigma))
               for z in range(lo, lo + 2 * span + 1)}
    total = sum(weights.values())
    return {z: w / total for z, w in weights.items()}


def _make_sampler(seed, backend="cdt-binary", precision=64):
    base = make_base_sampler(backend, source=ChaChaSource(seed),
                             precision=precision)
    return RejectionSamplerZ(base, uniform_source=ChaChaSource(seed + 99))


def _distribution_cases():
    """(base, draw, center, sigma) for every leaf path and target.

    ``bitsliced`` + ``sample_lanes`` is the path signers use.  The
    per-call cdt-binary cases keep their plain ``center-sigma`` ids.
    """
    for base in ("cdt-binary", "bitsliced"):
        for draw in ("sample", "sample_lanes"):
            for center, sigma in ((0.0, 1.5), (0.3, 1.3), (-0.47, 1.8),
                                  (1234.56, 1.29)):
                path = ("" if (base, draw) == ("cdt-binary", "sample")
                        else f"{base}-{draw}-")
                yield pytest.param(base, draw, center, sigma,
                                   id=f"{path}{center}-{sigma}")


@pytest.mark.parametrize("base,draw,center,sigma", _distribution_cases())
def test_distribution_matches_target(base, draw, center, sigma):
    """chi^2 of 6,000 draws, one ``sample`` call each or one
    ``sample_lanes`` call for all, over the 64-bit CDT or the signer's
    bitsliced base."""
    precision = BASE_PRECISION if base == "bitsliced" else 64
    sampler = _make_sampler(1, base, precision)
    draws = 6000
    if draw == "sample":
        counts = Counter(sampler.sample(center, sigma)
                         for _ in range(draws))
    else:
        counts = Counter(sampler.sample_lanes([center] * draws, sigma))
    pmf = _target_pmf(center, sigma)
    chi2 = 0.0
    dof = 0
    for z, p in pmf.items():
        expected = p * draws
        if expected < 8:
            continue
        chi2 += (counts.get(z, 0) - expected) ** 2 / expected
        dof += 1
    dof -= 1
    assert chi2 < dof + 5 * math.sqrt(2 * dof), (chi2, dof)


def test_moments():
    sampler = _make_sampler(2)
    center, sigma = 0.25, 1.7
    draws = 8000
    values = [sampler.sample(center, sigma) for _ in range(draws)]
    mean = sum(values) / draws
    std = (sum((v - mean) ** 2 for v in values) / draws) ** 0.5
    assert abs(mean - center) < 4 * sigma / math.sqrt(draws)
    assert abs(std - sigma) < 0.1


def test_rejection_matches_reference_sampler():
    rejection = _make_sampler(3)
    reference = ReferenceSamplerZ(source=ChaChaSource(4))
    center, sigma = -0.4, 1.4
    draws = 5000
    got = Counter(rejection.sample(center, sigma) for _ in range(draws))
    want = Counter(reference.sample(center, sigma) for _ in range(draws))
    for z in range(-6, 6):
        assert abs(got.get(z, 0) - want.get(z, 0)) < 5 * math.sqrt(
            max(got.get(z, 0), want.get(z, 0), 25))


def test_acceptance_rate_reasonable():
    sampler = _make_sampler(5)
    for _ in range(1500):
        sampler.sample(0.37, 1.5)
    assert sampler.acceptance_rate > 0.25, sampler.acceptance_rate


def test_sigma_bounds_enforced():
    sampler = _make_sampler(6)
    with pytest.raises(ValueError):
        sampler.sample(0.0, BASE_SIGMA)   # must be strictly below base
    with pytest.raises(ValueError):
        sampler.sample(0.0, 0.0)


def test_every_backend_plugs_in():
    for backend in ("cdt-byte-scan", "cdt-binary", "cdt-linear",
                    "bitsliced"):
        base = make_base_sampler(backend, source=ChaChaSource(7),
                                 precision=32)
        sampler = RejectionSamplerZ(base,
                                    uniform_source=ChaChaSource(8))
        values = [sampler.sample(0.1, 1.5) for _ in range(200)]
        assert all(isinstance(v, int) for v in values)
        assert min(values) < 0 < max(values)


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        make_base_sampler("nope")


def test_integer_center_shortcut_distribution():
    """Exactly integral centers are the easiest case; sanity-check it."""
    sampler = _make_sampler(9)
    values = [sampler.sample(5.0, 1.3) for _ in range(4000)]
    mean = sum(values) / len(values)
    assert abs(mean - 5.0) < 0.1


def test_base_sigma_documented_value():
    assert BASE_SIGMA == 2.0
    assert SIGMA_MAX < BASE_SIGMA  # every Falcon leaf sigma fits
    gaussian = GaussianParams.from_sigma(BASE_SIGMA, 16)
    assert gaussian.support_bound == 26

