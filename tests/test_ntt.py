"""Tests for the NTT modulo 12289."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.falcon import (
    HAVE_NUMPY,
    Q,
    center_mod_q,
    div_ntt,
    intt,
    is_invertible,
    mul_ntt,
    ntt,
)


def _naive_negacyclic_mod(a, b):
    n = len(a)
    out = [0] * n
    for i in range(n):
        for j in range(n):
            k = i + j
            if k < n:
                out[k] = (out[k] + a[i] * b[j]) % Q
            else:
                out[k - n] = (out[k - n] - a[i] * b[j]) % Q
    return out


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**32),
       st.sampled_from([2, 4, 16, 64, 256]))
def test_round_trip(seed, n):
    rng = random.Random(seed)
    a = [rng.randrange(Q) for _ in range(n)]
    assert intt(ntt(a)) == a


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_mul_matches_naive(seed):
    rng = random.Random(seed)
    n = 32
    a = [rng.randrange(Q) for _ in range(n)]
    b = [rng.randrange(Q) for _ in range(n)]
    assert mul_ntt(a, b) == _naive_negacyclic_mod(a, b)


def test_mul_accepts_negative_inputs():
    a = [-1] + [0] * 15
    b = [5] + [0] * 15
    assert mul_ntt(a, b)[0] == Q - 5


def test_negacyclic_wraparound_sign():
    # x^(n-1) * x = x^n = -1.
    n = 16
    a = [0] * n
    a[n - 1] = 1
    b = [0] * n
    b[1] = 1
    product = mul_ntt(a, b)
    assert product[0] == Q - 1
    assert all(c == 0 for c in product[1:])


def test_div_inverts_mul():
    rng = random.Random(7)
    n = 64
    while True:
        f = [rng.randrange(Q) for _ in range(n)]
        if is_invertible(f):
            break
    g = [rng.randrange(Q) for _ in range(n)]
    h = div_ntt(g, f)
    assert mul_ntt(h, f) == [c % Q for c in g]


def test_div_rejects_non_invertible():
    n = 16
    zero = [0] * n
    with pytest.raises(ZeroDivisionError):
        div_ntt([1] + [0] * (n - 1), zero)


def test_div_rejects_a_divisor_with_one_zero_slot(spine):
    """One zero NTT slot makes the divisor a non-unit, on each leg."""
    rng = random.Random(11)
    n = 64
    slots = [rng.randrange(1, Q) for _ in range(n)]
    slots[17] = 0
    with pytest.raises(ZeroDivisionError):
        div_ntt([1] + [0] * (n - 1), intt(slots))


@pytest.mark.skipif(not HAVE_NUMPY, reason="the array inverse needs NumPy")
def test_array_inverse_equals_pow_on_every_nonzero_residue():
    """div_ntt's NumPy leg inverts the divisor's NTT row with one
    Fermat power ``y^(q-2)``: it must equal ``pow(y, -1, q)`` for
    every y in 1..q-1."""
    import numpy as np

    from repro.falcon.ntt import _inverse_mod_q

    residues = np.arange(1, Q, dtype=np.uint64)
    assert _inverse_mod_q(residues).tolist() == \
        [pow(y, -1, Q) for y in range(1, Q)]


def test_is_invertible_detects_zero_divisors():
    n = 16
    assert not is_invertible([0] * n)
    assert is_invertible([1] + [0] * (n - 1))


def test_center_mod_q():
    assert center_mod_q(0) == 0
    assert center_mod_q(Q) == 0
    assert center_mod_q(Q // 2) == Q // 2
    assert center_mod_q(Q // 2 + 1) == Q // 2 + 1 - Q
    assert center_mod_q(-1) == -1
    assert center_mod_q(Q - 1) == -1
    for value in range(-30, 30):
        centered = center_mod_q(value)
        assert (centered - value) % Q == 0
        assert -Q // 2 <= centered <= Q // 2


def test_invalid_sizes_rejected():
    with pytest.raises(ValueError):
        ntt([1, 2, 3])
    with pytest.raises(ValueError):
        ntt([1])
