"""Tests for NTRU key generation and NTRUSolve."""

import random

import pytest

from repro.falcon import (
    Q,
    NtruSolveError,
    generate_keys,
    gram_schmidt_norm_sq,
    ntru_solve,
    reduce_basis,
)
from repro.falcon import poly
from repro.falcon.ntrugen import (
    _reduce_basis_exact,
    _round_div,
    _scaled_ring_inverse,
    _xgcd,
)
from repro.rng import ChaChaSource


def _check_ntru_equation(f, g, F, G):
    lhs = poly.sub(poly.mul_negacyclic(f, G), poly.mul_negacyclic(g, F))
    return lhs == [Q] + [0] * (len(f) - 1)


def test_xgcd():
    for a, b in [(12, 8), (17, 5), (1, 1), (0, 7), (240, 46)]:
        d, u, v = _xgcd(a, b)
        assert u * a + v * b == d
        import math
        assert d == math.gcd(a, b)


def test_ntru_solve_degree_one():
    F, G = ntru_solve([3], [2])
    assert 3 * G[0] - 2 * F[0] == Q


def test_ntru_solve_degree_one_gcd_failure():
    with pytest.raises(NtruSolveError):
        ntru_solve([2], [4])


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_ntru_solve_small_degrees(n):
    rng = random.Random(n)
    solved = 0
    for _ in range(30):
        f = [rng.randint(-4, 4) for _ in range(n)]
        g = [rng.randint(-4, 4) for _ in range(n)]
        if sum(f) % 2 == 0 and sum(g) % 2 == 0:
            continue  # resultants share the factor 2
        try:
            F, G = ntru_solve(list(f), list(g))
        except NtruSolveError:
            continue
        assert _check_ntru_equation(f, g, F, G)
        solved += 1
        if solved >= 5:
            return
    pytest.fail("no solvable instances found")


def test_solution_is_size_reduced():
    """NTRUSolve output coefficients should be modest, not astronomical.

    Without Babai reduction, F and G coefficients blow up to thousands
    of bits; the reduced basis must land within a small multiple of
    q * ||(f,g)||.
    """
    rng = random.Random(42)
    n = 32
    while True:
        f = [rng.randint(-6, 6) for _ in range(n)]
        g = [rng.randint(-6, 6) for _ in range(n)]
        if sum(f) % 2 == 0 and sum(g) % 2 == 0:
            continue
        try:
            F, G = ntru_solve(list(f), list(g))
            break
        except NtruSolveError:
            continue
    assert _check_ntru_equation(f, g, F, G)
    assert poly.max_bitsize([F, G]) < 40


def test_reduce_basis_preserves_equation():
    rng = random.Random(9)
    n = 16
    while True:
        f = [rng.randint(-5, 5) for _ in range(n)]
        g = [rng.randint(-5, 5) for _ in range(n)]
        if sum(f) % 2 == 0 and sum(g) % 2 == 0:
            continue
        try:
            F, G = ntru_solve(list(f), list(g))
            break
        except NtruSolveError:
            continue
    # Artificially inflate (F, G) by a lattice vector, then re-reduce.
    k = [rng.randint(-3, 3) for _ in range(n)]
    F_big = poly.add(F, poly.scalar_mul(poly.mul_negacyclic(k, f), 1 << 60))
    G_big = poly.add(G, poly.scalar_mul(poly.mul_negacyclic(k, g), 1 << 60))
    assert _check_ntru_equation(f, g, F_big, G_big)
    F_red, G_red = reduce_basis(f, g, list(F_big), list(G_big))
    assert _check_ntru_equation(f, g, F_red, G_red)
    assert poly.max_bitsize([F_red, G_red]) <= \
        poly.max_bitsize([F, G]) + 8


def test_reduce_basis_zooms_past_coarse_scale_stall():
    """Regression: the pre-fix code returned as soon as the 53-bit
    quotient rounded to zero at a coarse block scale, leaving (F, G) =
    t * (f, g) completely un-reduced whenever the convolution's carry
    bits pushed the block scale above t's magnitude.  The multi-scale
    loop must remove t entirely (here the fully-reduced reference is
    exactly zero)."""
    rng = random.Random(2024)
    n = 32  # above the exact-Babai cutoff: exercises the float loop
    f = [rng.getrandbits(60) - (1 << 59) for _ in range(n)]
    g = [rng.getrandbits(60) - (1 << 59) for _ in range(n)]
    t = [rng.randrange(-100, 101) for _ in range(n)]
    F = poly.mul_negacyclic(t, f)
    G = poly.mul_negacyclic(t, g)
    size = max(53, poly.max_bitsize([f, g]))
    assert poly.max_bitsize([F, G]) > size + 8  # quotient < 2^-1 at
    # the coarse window, so the pre-fix code bailed out right here.
    F_red, G_red = reduce_basis(f, g, list(F), list(G))
    assert poly.max_bitsize([F_red, G_red]) < size


def test_reduce_basis_zoom_terminates_on_intrinsic_excess():
    """An (F, G) that is reduced-but-bigger-than-(f, g) must terminate
    through the zoom schedule without disturbing the lattice point."""
    rng = random.Random(7)
    n = 32
    f = [rng.getrandbits(60) - (1 << 59) for _ in range(n)]
    g = [rng.getrandbits(60) - (1 << 59) for _ in range(n)]
    t = [rng.randrange(-100, 101) for _ in range(n)]
    r = [rng.getrandbits(64) - (1 << 63) for _ in range(n)]
    s = [rng.getrandbits(64) - (1 << 63) for _ in range(n)]
    F = poly.add(poly.mul_negacyclic(t, f), r)
    G = poly.add(poly.mul_negacyclic(t, g), s)
    F_red, G_red = reduce_basis(f, g, list(F), list(G))
    # The removable t * (f, g) component is gone; what remains is (r, s)
    # plus at most a +-1 Babai ambiguity per coefficient.
    assert poly.max_bitsize([F_red, G_red]) <= \
        poly.max_bitsize([r, s]) + poly.max_bitsize([f, g]) - 53 + 8


@pytest.mark.parametrize("spine", ["scalar", "numpy", "auto"],
                         indirect=True)
def test_reduce_basis_spines_identical(spine, scalar_spine):
    rng = random.Random(11)
    n = 64
    f = [rng.getrandbits(40) - (1 << 39) for _ in range(n)]
    g = [rng.getrandbits(40) - (1 << 39) for _ in range(n)]
    t = [rng.randrange(-5000, 5001) for _ in range(n)]
    F = poly.mul_negacyclic(t, f)
    G = poly.mul_negacyclic(t, g)
    with scalar_spine():
        reference = reduce_basis(f, g, list(F), list(G))
    assert reduce_basis(f, g, list(F), list(G)) == reference


def test_round_div_is_nearest_integer():
    import math
    from fractions import Fraction

    for numerator in range(-25, 26):
        for denominator in (1, 2, 3, 7, 10):
            got = _round_div(numerator, denominator)
            # Nearest integer, ties rounded up (= floor(x + 1/2)).
            want = math.floor(Fraction(numerator, denominator)
                              + Fraction(1, 2))
            assert got == want


def test_scaled_ring_inverse_clears_denominator():
    rng = random.Random(3)
    for d in (1, 2, 4, 8, 16):
        den = [rng.randrange(-50, 51) for _ in range(d)]
        den[0] |= 1  # avoid the zero polynomial
        cofactor, resultant = _scaled_ring_inverse(den)
        product = poly.mul_negacyclic(den, cofactor)
        assert product == [resultant] + [0] * (d - 1)


def test_exact_babai_matches_equation_and_size():
    """The one-shot exact reduction removes a planted multiple whole."""
    rng = random.Random(5)
    for d in (2, 4, 8, 16):
        f = [rng.getrandbits(200) - (1 << 199) for _ in range(d)]
        g = [rng.getrandbits(200) - (1 << 199) for _ in range(d)]
        t = [rng.getrandbits(150) - (1 << 149) for _ in range(d)]
        F = poly.mul_negacyclic(t, f)
        G = poly.mul_negacyclic(t, g)
        F_red, G_red = _reduce_basis_exact(f, g, list(F), list(G))
        assert poly.max_bitsize([F_red, G_red]) <= \
            poly.max_bitsize([f, g]) + d.bit_length() + 2


def test_generate_keys_small_ring():
    keys = generate_keys(64, source=ChaChaSource(5))
    assert keys.verify_ntru_equation()
    n = len(keys.f)
    assert n == 64
    # h = g / f mod q.
    from repro.falcon import mul_ntt
    gh = mul_ntt(keys.h, keys.f)
    assert gh == [c % Q for c in keys.g]


def test_generate_keys_gs_bound_respected():
    keys = generate_keys(64, source=ChaChaSource(6))
    assert gram_schmidt_norm_sq(keys.f, keys.g) <= (1.17 ** 2) * Q


def test_generate_keys_deterministic_with_seed():
    a = generate_keys(32, source=ChaChaSource(7))
    b = generate_keys(32, source=ChaChaSource(7))
    assert a.f == b.f and a.g == b.g and a.F == b.F and a.G == b.G
