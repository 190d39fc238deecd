"""Tests for the ffLDL* tree and fast Fourier sampling."""

import math
import random

from repro.falcon import (
    SIGMA_MAX,
    build_flat_ldl_tree,
    falcon_params,
    ff_sampling_batch,
    ifft,
)
from repro.falcon.fft import add_fft, adj_fft, fft, mul_fft, neg_fft
from repro.falcon.ntrugen import generate_keys
from repro.rng import ChaChaSource


def _gram_from_keys(keys):
    b00 = fft([float(c) for c in keys.g])
    b01 = neg_fft(fft([float(c) for c in keys.f]))
    b10 = fft([float(c) for c in keys.G])
    b11 = neg_fft(fft([float(c) for c in keys.F]))
    g00 = add_fft(mul_fft(b00, adj_fft(b00)), mul_fft(b01, adj_fft(b01)))
    g01 = add_fft(mul_fft(b00, adj_fft(b10)), mul_fft(b01, adj_fft(b11)))
    g11 = add_fft(mul_fft(b10, adj_fft(b10)), mul_fft(b11, adj_fft(b11)))
    return g00, g01, g11


def _tree(n, seed):
    keys = generate_keys(n, source=ChaChaSource(seed))
    return keys, build_flat_ldl_tree(*_gram_from_keys(keys),
                                     falcon_params(n).sigma)


def test_tree_shape_and_leaf_count():
    _, tree = _tree(32, 1)
    assert tree.n == 32
    assert tree.depth == 5  # log2(32) levels of inner nodes
    for level, rows in enumerate(tree.scalar_levels()):
        assert len(rows) == 2 ** level  # node j's children: 2j, 2j + 1
        assert all(len(row) == 32 >> level for row in rows)
    assert len(tree.leaf_l10) == 32
    assert len(tree.leaf_sigmas()) == 2 * 32  # one SamplerZ call each


def test_leaf_variances_positive():
    """A negative leaf variance would make its sigma complex."""
    _, tree = _tree(32, 2)
    for sigma in tree.leaf_sigmas():
        assert isinstance(sigma, float) and sigma > 0


def test_normalized_leaf_sigmas_in_falcon_range():
    n = 64
    params = falcon_params(n)
    _, tree = _tree(n, 3)
    sigmas = tree.leaf_sigmas()
    assert all(0.8 * params.sigma_min < s <= SIGMA_MAX * 1.01
               for s in sigmas), (min(sigmas), max(sigmas))


def test_ffsampling_outputs_integer_vectors():
    n = 32
    _, tree = _tree(n, 4)

    rng = random.Random(5)
    t0 = fft([rng.uniform(-50, 50) for _ in range(n)])
    t1 = fft([rng.uniform(-50, 50) for _ in range(n)])

    calls = []

    class Babai:
        """Deterministic Babai rounding at every leaf."""

        def sample_lanes(self, centers, sigma):
            calls.extend((center, sigma) for center in centers)
            return [round(center) for center in centers]

    (z0,), (z1,) = ff_sampling_batch([t0], [t1], tree, Babai())
    assert len(calls) == 2 * n
    assert sorted(sigma for _, sigma in calls) == sorted(tree.leaf_sigmas())
    for vector in (z0, z1):
        coeffs = ifft(vector)
        for c in coeffs:
            assert abs(c - round(c)) < 1e-6


def test_ffsampling_result_is_close_to_target():
    """With a Gaussian leaf sampler, (t - z) B must be short: its norm
    concentrates around sigma * sqrt(2n)."""
    n = 64
    params = falcon_params(n)
    keys, tree = _tree(n, 6)

    from repro.falcon import RejectionSamplerZ
    from repro.falcon.scheme import make_base_sampler
    base = make_base_sampler("cdt-binary", source=ChaChaSource(7),
                             precision=64)
    samp = RejectionSamplerZ(base, uniform_source=ChaChaSource(8))

    rng = random.Random(9)
    t0 = fft([rng.uniform(-100, 100) for _ in range(n)])
    t1 = fft([rng.uniform(-100, 100) for _ in range(n)])
    (z0,), (z1,) = ff_sampling_batch([t0], [t1], tree, samp)

    b00 = fft([float(c) for c in keys.g])
    b01 = neg_fft(fft([float(c) for c in keys.f]))
    b10 = fft([float(c) for c in keys.G])
    b11 = neg_fft(fft([float(c) for c in keys.F]))
    d0 = [a - b for a, b in zip(t0, z0)]
    d1 = [a - b for a, b in zip(t1, z1)]
    s0 = ifft(add_fft(mul_fft(d0, b00), mul_fft(d1, b10)))
    s1 = ifft(add_fft(mul_fft(d0, b01), mul_fft(d1, b11)))
    norm = math.sqrt(sum(c * c for c in s0) + sum(c * c for c in s1))
    expected = params.sigma * math.sqrt(2 * n)
    assert norm < 1.5 * expected, (norm, expected)


def test_tree_nodes_have_expected_types():
    _, tree = _tree(16, 10)
    (root,) = tree.scalar_levels()[0]
    assert len(root) == 16
    assert all(isinstance(x, complex) for x in root)
    assert all(isinstance(x, complex) for x in tree.leaf_l10)
    assert all(isinstance(s, float) for s in tree.leaf_sigma0
               + tree.leaf_sigma1)
