"""Exact integer polynomial arithmetic in Z[x]/(x^n + 1).

NTRUSolve (key generation) works over towers of cyclotomic subrings with
*exact* big-integer coefficients that grow to thousands of bits; this
module supplies the required primitives:

* negacyclic multiplication, dispatched by operand shape: an exact
  ``int64`` NumPy convolution while coefficients are provably small,
  Kronecker substitution (pack each polynomial into ONE big integer,
  multiply with CPython's subquadratic bigint kernel, slice the product
  back out of its bytes) once they grow, and Karatsuba/schoolbook in
  between — every route returns identical integers;
* the Galois conjugate ``f(-x)``;
* the field norm ``N(f) = f_e^2 - x f_o^2`` mapping Z[x]/(x^n+1) down to
  Z[x]/(x^{n/2}+1);
* the lift ``f(x) -> f(x^2)`` going back up the tower.

These are the Falcon/NTRUSolve identities of Pornin–Prest ("More
efficient algorithms for the NTRU key generation"), also used by the
reference Python implementation.
"""

from __future__ import annotations

from typing import Sequence

try:  # Optional: exact vectorized convolution for small coefficients.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

#: Below this size, schoolbook multiplication beats Karatsuba's overhead.
KARATSUBA_THRESHOLD = 32

#: ``np.convolve`` on int64 is exact only while every accumulated dot
#: product stays below 2^63; the dispatch bound keeps a safety bit.
_CONVOLVE_LIMIT = 1 << 62

#: Kronecker substitution beats Python-level Karatsuba where the degree
#: is high and the coefficients moderate (just past the convolve limit:
#: the mid-tower field norms) — there the Python recursion overhead
#: dominates.  Deep in the tower (tiny degree, multi-thousand-bit
#: coefficients) CPython's own bigint Karatsuba does the same C work
#: without the packing passes, so the dispatch stays out of its way.
_KRONECKER_MIN_DEGREE = 64
_KRONECKER_MAX_BOUND_BITS = 768


def add(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x + y for x, y in zip(a, b, strict=True)]


def sub(a: Sequence[int], b: Sequence[int]) -> list[int]:
    return [x - y for x, y in zip(a, b, strict=True)]


def neg(a: Sequence[int]) -> list[int]:
    return [-x for x in a]


def scalar_mul(a: Sequence[int], k: int) -> list[int]:
    return [x * k for x in a]


def _schoolbook(a: Sequence[int], b: Sequence[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _karatsuba(a: list[int], b: list[int]) -> list[int]:
    n = len(a)
    if n <= KARATSUBA_THRESHOLD or n % 2:
        return _schoolbook(a, b)
    half = n // 2
    a0, a1 = a[:half], a[half:]
    b0, b1 = b[:half], b[half:]
    low = _karatsuba(a0, b0)
    high = _karatsuba(a1, b1)
    mid = _karatsuba([x + y for x, y in zip(a0, a1)],
                     [x + y for x, y in zip(b0, b1)])
    cross = [m - lo - hi for m, lo, hi in zip(mid, low, high)]
    out = [0] * (2 * n - 1)
    for i, v in enumerate(low):
        out[i] += v
    for i, v in enumerate(cross):
        out[half + i] += v
    for i, v in enumerate(high):
        out[2 * half + i] += v
    return out


def _pack_nonneg(values: Sequence[int], word_bytes: int) -> int:
    """``sum(v << (8 * word_bytes * i))`` for non-negative ``v`` via one
    ``int.from_bytes`` over a pre-filled buffer (no bigint shifts)."""
    buffer = bytearray(word_bytes * len(values))
    for i, v in enumerate(values):
        if v:
            start = i * word_bytes
            buffer[start:start + (v.bit_length() + 7) // 8] = \
                v.to_bytes((v.bit_length() + 7) // 8, "little")
    return int.from_bytes(buffer, "little")


def _kronecker(a: Sequence[int], b: Sequence[int],
               bound: int | None = None) -> list[int]:
    """Exact product by Kronecker substitution.

    Evaluate both polynomials at ``x = 2^w`` (``w`` wide enough that
    result coefficients cannot touch), multiply the two big integers —
    CPython's C bigint multiplication, subquadratic and far faster than
    Python-level Karatsuba — and read the coefficients back out of the
    product's byte string.  Signed coefficients are handled by packing
    positive and negative parts separately and, on the way out, adding a
    per-digit offset of ``2^(w-1)`` so each digit of the (possibly
    negative) product becomes an independent non-negative byte field.

    ``bound`` is the coefficient-magnitude bound (:func:`_convolve_bound`
    of the operands), accepted pre-computed so the dispatch's scan is
    not repeated.
    """
    if bound is None:
        bound = _convolve_bound(a, b)
    word_bytes = bound.bit_length() // 8 + 1  # 8*wb >= bit_length + 2
    word_bits = 8 * word_bytes
    packed_a = _pack_nonneg([v if v > 0 else 0 for v in a], word_bytes) \
        - _pack_nonneg([-v if v < 0 else 0 for v in a], word_bytes)
    packed_b = _pack_nonneg([v if v > 0 else 0 for v in b], word_bytes) \
        - _pack_nonneg([-v if v < 0 else 0 for v in b], word_bytes)
    product = packed_a * packed_b
    count = len(a) + len(b) - 1
    half = 1 << (word_bits - 1)
    # Digit-wise offset: every result coefficient c satisfies |c| <= bound
    # < 2^(w-1) - 1, so c + 2^(w-1) lies in (0, 2^w) and the offset
    # product has independent, borrow-free base-2^w digits.
    offset = _pack_nonneg([half] * count, word_bytes)
    raw = (product + offset).to_bytes(word_bytes * count, "little")
    return [int.from_bytes(raw[i * word_bytes:(i + 1) * word_bytes],
                           "little") - half
            for i in range(count)]


def _convolve_bound(a: Sequence[int], b: Sequence[int]) -> int:
    return (max(map(abs, a), default=0) * max(map(abs, b), default=0)
            * min(len(a), len(b)))


def mul_raw(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Plain polynomial product (degree ``len(a)+len(b)-2``).

    Dispatch: one exact ``int64`` convolution while the coefficients
    are provably too small to overflow — the common case in the upper
    NTRUSolve tower levels — then Kronecker substitution once the
    operands are big enough to amortize its packing passes, with
    bigint Karatsuba/schoolbook covering the remainder.  All routes
    produce identical integers (the differential tests compare this
    dispatch with each kernel called directly).
    """
    if not a or not b:
        return []
    bound = None
    if _np is not None and len(a) >= 16:
        bound = _convolve_bound(a, b)
        if bound < _CONVOLVE_LIMIT:
            return _np.convolve(
                _np.asarray(a, dtype=_np.int64),
                _np.asarray(b, dtype=_np.int64)).tolist()
    if min(len(a), len(b)) >= _KRONECKER_MIN_DEGREE:
        if bound is None:
            bound = _convolve_bound(a, b)
        if _CONVOLVE_LIMIT <= bound < (1 << _KRONECKER_MAX_BOUND_BITS):
            return _kronecker(a, b, bound)
    return _karatsuba(list(a), list(b))


def mul_negacyclic(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product in Z[x]/(x^n + 1): wrap-around with sign flip."""
    n = len(a)
    if len(b) != n:
        raise ValueError("length mismatch")
    raw = mul_raw(a, b)
    out = raw[:n] + [0] * (n - min(n, len(raw)))
    for i in range(n, len(raw)):
        out[i - n] -= raw[i]
    return out


def galois_conjugate(a: Sequence[int]) -> list[int]:
    """``f(x) -> f(-x)``: negate odd-index coefficients."""
    return [(-c if i % 2 else c) for i, c in enumerate(a)]


def adjoint(a: Sequence[int]) -> list[int]:
    """Hermitian adjoint ``f*(x) = f(x^-1)`` in ``Z[x]/(x^n + 1)``.

    ``x^-i = -x^(n-i)``, so the adjoint keeps the constant term and
    reverse-negates the rest; in the FFT domain it is the complex
    conjugate (``adj_fft``), which is how the Babai quotients use it.
    """
    n = len(a)
    if n == 1:
        return [a[0]]
    return [a[0]] + [-c for c in a[:0:-1]]


def field_norm(a: Sequence[int]) -> list[int]:
    """Norm map down one tower level.

    With ``f = f_e(x^2) + x f_o(x^2)``, the relative norm is
    ``N(f)(y) = f_e(y)^2 - y * f_o(y)^2`` over ``Z[y]/(y^{n/2} + 1)``;
    equivalently ``N(f)(x^2) = f(x) f(-x)``.
    """
    n = len(a)
    if n == 1:
        return [a[0]]
    even = list(a[0::2])
    odd = list(a[1::2])
    even_sq = mul_negacyclic(even, even)
    odd_sq = mul_negacyclic(odd, odd)
    # Multiply odd_sq by y in Z[y]/(y^{n/2} + 1): rotate with sign flip.
    half = n // 2
    shifted = [0] * half
    for i in range(half):
        j = i + 1
        if j < half:
            shifted[j] += odd_sq[i]
        else:
            shifted[j - half] -= odd_sq[i]
    return sub(even_sq, shifted)


def lift(a: Sequence[int]) -> list[int]:
    """``f(y) -> f(x^2)``: interleave with zeros (inverse tower step)."""
    out = [0] * (2 * len(a))
    out[0::2] = a
    return out


def infinity_norm(a: Sequence[int]) -> int:
    return max((abs(c) for c in a), default=0)


def square_norm(a: Sequence[int]) -> int:
    return sum(c * c for c in a)


def max_bitsize(polynomials: Sequence[Sequence[int]]) -> int:
    """Largest coefficient bit length across several polynomials."""
    worst = 0
    for poly in polynomials:
        for c in poly:
            worst = max(worst, abs(c).bit_length())
    return worst
