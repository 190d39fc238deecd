"""Number-theoretic transform modulo Falcon's q = 12289.

Falcon's public-key arithmetic (computing ``h = g / f``, verification's
``s0 = c - s1 h``) happens in ``Z_q[x]/(x^n + 1)`` with ``q = 12289 =
3 * 2^12 + 1``, which supports negacyclic NTTs up to ``n = 2048``.

Implementation: the standard in-place Cooley–Tukey forward / Gentleman–
Sande inverse butterflies with ``psi``-power tables in bit-reversed
order (Longa–Naehrig formulation).  The generator and the primitive
``2n``-th roots are found at import time by search — no magic constants
to mistype — and cached per ``n``.

When NumPy is installed, :func:`ntt_array`, :func:`intt_array` and
:func:`mul_ntt_array` run the same butterflies over ``uint64`` arrays
(last axis = coefficients, leading axes = independent lanes) with
**lazy reduction**: inside a stage only the twiddle product is reduced
mod q, the add/sub halves of the butterfly accumulate unreduced (the
bound grows by at most ``q`` per forward stage and doubles per inverse
stage — at ``n = 2048`` everything stays far below 2^64), and a single
reduction lands at the end.  All arithmetic is exact, so the array
path returns the same integers as the scalar one — batch verification
leans on that, and :func:`mul_ntt` and :func:`div_ntt` run on the array
kernels whenever NumPy imports.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

try:  # Optional: powers the vectorized array NTT below.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None

Q = 12289


def _is_primitive_root(candidate: int, modulus: int,
                       factorization: list[int]) -> bool:
    order = modulus - 1
    return all(pow(candidate, order // p, modulus) != 1
               for p in factorization)


@lru_cache(maxsize=1)
def _generator() -> int:
    """Smallest primitive root modulo Q (Q - 1 = 2^12 * 3)."""
    for candidate in range(2, Q):
        if _is_primitive_root(candidate, Q, [2, 3]):
            return candidate
    raise AssertionError("no generator found")  # pragma: no cover


def _bit_reverse(value: int, bits: int) -> int:
    result = 0
    for _ in range(bits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


@lru_cache(maxsize=None)
def _tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    """(psi powers bit-reversed, inverse psi powers bit-reversed, n^-1)."""
    if n < 2 or n & (n - 1):
        raise ValueError("n must be a power of two, at least 2")
    if (Q - 1) % (2 * n):
        raise ValueError(f"no 2n-th root of unity mod {Q} for n={n}")
    psi = pow(_generator(), (Q - 1) // (2 * n), Q)
    psi_inv = pow(psi, -1, Q)
    bits = n.bit_length() - 1
    forward = [pow(psi, _bit_reverse(i, bits), Q) for i in range(n)]
    inverse = [pow(psi_inv, _bit_reverse(i, bits), Q) for i in range(n)]
    return tuple(forward), tuple(inverse), pow(n, -1, Q)


def ntt(coefficients: Sequence[int]) -> list[int]:
    """Forward negacyclic NTT (psi-twisted, bit-reversed output order)."""
    n = len(coefficients)
    forward, _, _ = _tables(n)
    a = [c % Q for c in coefficients]
    t = n
    m = 1
    while m < n:
        t //= 2
        for i in range(m):
            s = forward[m + i]
            start = 2 * i * t
            for j in range(start, start + t):
                u = a[j]
                v = a[j + t] * s % Q
                a[j] = (u + v) % Q
                a[j + t] = (u - v) % Q
        m *= 2
    return a


def intt(values: Sequence[int]) -> list[int]:
    """Inverse negacyclic NTT."""
    n = len(values)
    _, inverse, n_inv = _tables(n)
    a = list(values)
    t = 1
    m = n
    while m > 1:
        half = m // 2
        start = 0
        for i in range(half):
            s = inverse[half + i]
            for j in range(start, start + t):
                u = a[j]
                v = a[j + t]
                a[j] = (u + v) % Q
                a[j + t] = (u - v) * s % Q
            start += 2 * t
        t *= 2
        m = half
    return [x * n_inv % Q for x in a]


def mul_ntt(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product in ``Z_q[x]/(x^n + 1)`` via NTT (the array kernels when
    NumPy imports; the integers are the same)."""
    if _np is not None:
        return mul_ntt_array(a, b).tolist()
    fa = ntt(a)
    fb = ntt(b)
    return intt([x * y % Q for x, y in zip(fa, fb)])


def div_ntt(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Quotient ``a / b``; raises ZeroDivisionError if b not invertible.

    Like :func:`mul_ntt`, it runs on the array kernels when NumPy
    imports; there the divisor's NTT slots are inverted together by
    :func:`_inverse_mod_q` instead of one ``pow`` per slot.
    """
    if _np is not None:
        fa, fb = ntt_array(_np.array([a, b], dtype=_np.int64))
        if not fb.all():
            raise ZeroDivisionError("divisor not invertible mod q")
        return intt_array(fa * _inverse_mod_q(fb)).tolist()
    fa, fb = ntt(a), ntt(b)
    if any(x == 0 for x in fb):
        raise ZeroDivisionError("divisor not invertible mod q")
    return intt([x * pow(y, -1, Q) % Q for x, y in zip(fa, fb)])


def is_invertible(a: Sequence[int]) -> bool:
    """True iff ``a`` is a unit in ``Z_q[x]/(x^n + 1)``."""
    return all(x != 0 for x in ntt(a))


def center_mod_q(value: int) -> int:
    """Representative of ``value mod q`` in ``(-q/2, q/2]``."""
    value %= Q
    return value - Q if value > Q // 2 else value


# -- NumPy array kernels ---------------------------------------------------

def _require_numpy() -> None:
    if _np is None:
        raise RuntimeError(
            "NumPy is required for the array NTT kernels; "
            "use the scalar functions instead")


def _mod_q(values):
    """``values % q`` for a ``uint64`` array, computed as
    ``x - (x // q) * q``: exact for unsigned integers, and NumPy runs
    unsigned floor division by a scalar through libdivide, which is
    nearly twice as fast as its ``%``."""
    q = _np.uint64(Q)
    return values - (values // q) * q


def _residues(values):
    """Canonical residues mod q of an integer array, as a fresh
    ``uint64`` array the transforms may overwrite.  ``uint64`` input
    (e.g. a pointwise product of residues) takes :func:`_mod_q`; any
    other goes through ``int64`` so negative coefficients reduce
    correctly."""
    a = _np.asarray(values)
    if a.dtype == _np.uint64:
        return _mod_q(a)
    return (a.astype(_np.int64) % Q).astype(_np.uint64)


def _inverse_mod_q(values):
    """Slotwise inverse mod q of a ``uint64`` array of nonzero
    residues: Fermat's ``y^(q-2)`` by left-to-right square-and-multiply.
    The exponent is public, so the sequence of array operations is
    the same whatever the values."""
    result = values
    for bit in bin(Q - 2)[3:]:
        result = _mod_q(result * result)
        if bit == "1":
            result = _mod_q(result * values)
    return result


@lru_cache(maxsize=None)
def _tables_array(n: int):
    """:func:`_tables` as read-only ``uint64`` arrays."""
    _require_numpy()
    forward, inverse, n_inv = _tables(n)
    fwd = _np.array(forward, dtype=_np.uint64)
    inv = _np.array(inverse, dtype=_np.uint64)
    fwd.setflags(write=False)
    inv.setflags(write=False)
    return fwd, inv, n_inv


def ntt_array(coefficients):
    """Batched forward negacyclic NTT over the last axis.

    Lazy reduction: per stage, only the twiddle product ``v`` is taken
    mod q; the butterfly halves ``u + v`` and ``u + q - v`` stay
    unreduced, so values grow by at most ``q`` per stage (bounded by
    ``(log2(n) + 1) * q``, nowhere near the ``2^64 / q`` product
    ceiling).  One final reduction restores canonical residues.
    """
    _require_numpy()
    a = _residues(coefficients)
    n = a.shape[-1]
    forward, _, _ = _tables_array(n)
    q = _np.uint64(Q)
    lead = a.shape[:-1]
    t = n
    m = 1
    while m < n:
        t //= 2
        view = a.reshape(*lead, m, 2 * t)
        s = forward[m:2 * m]
        u = view[..., :t]
        v = _mod_q(view[..., t:] * s[:, None])
        lo = u + v
        hi = (u + q) - v
        view[..., :t] = lo
        view[..., t:] = hi
        m *= 2
    return _mod_q(a)


def intt_array(values):
    """Batched inverse negacyclic NTT over the last axis."""
    _require_numpy()
    a = _residues(values)
    n = a.shape[-1]
    _, inverse, n_inv = _tables_array(n)
    lead = a.shape[:-1]
    # Unreduced values at most double per stage; ``pad`` (a multiple of
    # q at least the current bound) keeps ``u - v`` non-negative in
    # uint64 before the reduced twiddle multiply.
    bound = Q
    t = 1
    m = n
    while m > 1:
        half = m // 2
        view = a.reshape(*lead, half, 2 * t)
        s = inverse[half:2 * half]
        u = view[..., :t]
        v = view[..., t:]
        pad = _np.uint64(Q * (-(-bound // Q)))
        lo = u + v
        hi = _mod_q(((u + pad) - v) * s[:, None])
        view[..., :t] = lo
        view[..., t:] = hi
        bound = 2 * bound
        t *= 2
        m = half
    return _mod_q(_mod_q(a) * _np.uint64(n_inv))


def mul_ntt_array(a, b):
    """Batched product in ``Z_q[x]/(x^n + 1)`` (array :func:`mul_ntt`)."""
    _require_numpy()
    return intt_array(ntt_array(a) * ntt_array(b))


def mul_ntt_rows_array(rows, ntt_rows):
    """Rowwise product of coefficient rows with *pre-transformed* rows.

    ``rows`` are ``(..., n)`` coefficient-domain polynomials;
    ``ntt_rows`` are already in the NTT domain (e.g. each public key's
    cached ``ntt(h)`` stacked into a ``(batch, n)`` matrix).  The whole
    batch rides one forward transform, one pointwise multiply, and one
    inverse transform — this is the kernel the cross-key verification
    engine leans on, so lanes under *different* keys still share a
    single vectorized pass.
    """
    _require_numpy()
    return intt_array(ntt_array(rows)
                      * _np.asarray(ntt_rows, dtype=_np.uint64))


def center_mod_q_array(values):
    """Array form of :func:`center_mod_q` (``int64`` output)."""
    _require_numpy()
    a = _np.asarray(values).astype(_np.int64) % Q
    return _np.where(a > Q // 2, a - Q, a)


def is_invertible_array(rows):
    """Per-row :func:`is_invertible` over ``(..., n)`` coefficient rows.

    One batched NTT answers the invertibility question for a whole
    block of keygen candidates; the arithmetic is exact, so each verdict
    matches the scalar function's (the candidate pipeline depends on
    that for spine-independent key streams).
    """
    _require_numpy()
    values = ntt_array(_np.asarray(rows, dtype=_np.int64))
    return (values != _np.uint64(0)).all(axis=-1)
