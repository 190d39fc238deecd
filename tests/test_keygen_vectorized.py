"""Differential tests: the vectorized keygen pipeline vs pure Python.

The keygen spines promise more than statistical agreement — for a fixed
seed the scalar and numpy routes must consume the identical PRNG byte
stream and emit **bit-identical** keys.  These tests pin every layer of
that promise: the bulk CDT block sampler, the batched invertibility and
Gram–Schmidt filters, the Babai quotients, the multiplication kernels,
and finally whole ``generate_keys`` runs.  The scalar route runs inside
the ``scalar_spine`` switch (tests/conftest.py).
"""

import random

import pytest

from repro.baselines.cdt import CdtTable, cdt_sample_block
from repro.core.gaussian import GaussianParams
from repro.baselines import cdt
from repro.falcon import (
    HAVE_NUMPY,
    generate_keys,
    gram_schmidt_norm_sq,
    gram_schmidt_norms_batch,
    is_invertible,
    poly,
)
from repro.falcon import ntrugen
from repro.falcon.ntrugen import _sample_fg
from repro.falcon.params import falcon_params
from repro.rng import ChaChaSource, CountingSource

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="NumPy not installed")


def _table(sigma=4.05, precision=64):
    return CdtTable(GaussianParams.from_sigma(sigma, precision))


# -- bulk CDT block sampler -------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("count", [1, 7, 64, 1000])
def test_cdt_block_routes_identical(count, scalar_spine):
    table = _table()
    with scalar_spine():
        scalar = cdt_sample_block(table, ChaChaSource(42), count)
    vector = cdt_sample_block(table, ChaChaSource(42), count)
    assert scalar == vector


@needs_numpy
def test_cdt_block_routes_consume_identical_stream(scalar_spine):
    table = _table()
    counting_scalar = CountingSource(ChaChaSource(9))
    counting_vector = CountingSource(ChaChaSource(9))
    with scalar_spine():
        cdt_sample_block(table, counting_scalar, 333)
    cdt_sample_block(table, counting_vector, 333)
    assert counting_scalar.bytes_read == counting_vector.bytes_read


def test_cdt_block_matches_distribution_contract(scalar_spine):
    """Block draws follow the documented stream contract: full-width
    words searched against the shifted CDF, then LSB-first sign bits."""
    from bisect import bisect_right

    table = _table()
    source = ChaChaSource(5)
    words = source.read_words(8 * table.num_bytes, 16)
    sign_data = ChaChaSource(5)
    sign_data.read_bytes(16 * table.num_bytes)  # skip the word block
    signs = sign_data.read_bytes(2)
    expected = []
    for index, word in enumerate(words):
        magnitude = bisect_right(table.shifted_entries, word)
        assert magnitude < len(table.shifted_entries)  # no gap hits here
        bit = (signs[index >> 3] >> (index & 7)) & 1
        expected.append(-magnitude if bit else magnitude)
    with scalar_spine():
        assert cdt_sample_block(table, ChaChaSource(5), 16) == expected


def test_sample_fg_spines_identical(scalar_spine):
    params = falcon_params(64)
    with scalar_spine():
        scalar = _sample_fg(params, ChaChaSource(3))
    assert len(scalar) == 64
    assert _sample_fg(params, ChaChaSource(3)) == scalar


# -- batched filters --------------------------------------------------------

@needs_numpy
def test_batched_gram_schmidt_bit_identical():
    rng = random.Random(17)
    fs = [[rng.randrange(-40, 41) for _ in range(64)] for _ in range(6)]
    gs = [[rng.randrange(-40, 41) for _ in range(64)] for _ in range(6)]
    batch = gram_schmidt_norms_batch(fs, gs)
    for f, g, norm_sq in zip(fs, gs, batch):
        assert norm_sq == gram_schmidt_norm_sq(f, g)  # same float, ==


@needs_numpy
def test_batched_invertibility_matches_scalar():
    from repro.falcon import is_invertible_array

    rng = random.Random(23)
    rows = [[rng.randrange(-5, 6) for _ in range(32)] for _ in range(20)]
    verdicts = is_invertible_array(rows)
    assert [bool(v) for v in verdicts] == \
        [is_invertible(row) for row in rows]


# -- multiplication kernels -------------------------------------------------

@pytest.mark.parametrize("strategy", ["schoolbook", "karatsuba",
                                      "kronecker"])
def test_mul_strategies_identical(strategy):
    """``mul_raw``'s dispatch agrees with each kernel called directly."""
    kernel = getattr(poly, "_" + strategy)
    rng = random.Random(31)
    for n, bits in [(2, 300), (16, 9), (16, 700), (64, 60), (256, 14)]:
        a = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)]
        b = [rng.getrandbits(bits) - (1 << (bits - 1)) for _ in range(n)]
        assert kernel(a, b) == poly.mul_raw(a, b)


def test_adjoint_is_fft_conjugate():
    from repro.falcon import fft

    rng = random.Random(37)
    a = [rng.randrange(-9, 10) for _ in range(16)]
    adjoint_fft = fft([float(c) for c in poly.adjoint(a)])
    direct = [value.conjugate() for value in fft([float(c) for c in a])]
    assert all(abs(x - y) < 1e-9 for x, y in zip(adjoint_fft, direct))


# -- whole-pipeline identity ------------------------------------------------

@needs_numpy
@pytest.mark.parametrize("n", [8, 64])
def test_generate_keys_spines_bit_identical(n, scalar_spine):
    with scalar_spine():
        scalar = generate_keys(n, source=ChaChaSource(1234))
    vector = generate_keys(n, source=ChaChaSource(1234))
    assert scalar.f == vector.f
    assert scalar.g == vector.g
    assert scalar.F == vector.F
    assert scalar.G == vector.G
    assert scalar.h == vector.h


@needs_numpy
def test_generate_keys_spines_consume_identical_stream(scalar_spine):
    counting_scalar = CountingSource(ChaChaSource(77))
    counting_vector = CountingSource(ChaChaSource(77))
    with scalar_spine():
        generate_keys(32, source=counting_scalar)
    generate_keys(32, source=counting_vector)
    assert counting_scalar.bytes_read == counting_vector.bytes_read


def test_generate_keys_follows_platform(spine, monkeypatch):
    """``generate_keys`` takes the array route (vectorized CDT search,
    batched invertibility and Gram–Schmidt filters, array Babai at
    n = 64) when NumPy imports and the pure-Python route inside the
    switch — never the other one."""
    if spine == "numpy":
        banned = [(cdt, "_block_magnitudes_scalar"),
                  (ntrugen, "is_invertible"),
                  (ntrugen, "gram_schmidt_norm_sq")]
    else:
        banned = [(cdt, "_block_magnitudes_numpy"),
                  (ntrugen, "is_invertible_array"),
                  (ntrugen, "fft_array"),
                  (ntrugen, "cdiv")]
    for module, name in banned:
        def fail(*args, name=name):
            raise AssertionError(f"{name} ran on the {spine} spine")

        monkeypatch.setattr(module, name, fail)
    keys = generate_keys(64, source=ChaChaSource(1234))
    assert keys.verify_ntru_equation()
