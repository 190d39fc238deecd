"""Negacyclic complex FFT over R[x]/(x^n + 1) — Falcon's number field.

Falcon does key generation and signing in the FFT representation of the
cyclotomic ring: a polynomial is stored by its values at the ``n``
primitive ``2n``-th roots of unity (the roots of ``x^n + 1``).

Point ordering is defined recursively and is what makes ``split``/
``merge`` trivial (they are the workhorses of ffSampling):

* the point list of size 1 is ``[-1]`` (the root of ``x + 1``);
* the point list of size ``n`` interleaves ``+sqrt(p), -sqrt(p)`` for
  each point ``p`` of size ``n/2`` (principal square root).

So slots ``2k`` and ``2k+1`` always hold a conjugate... more precisely a
``±zeta`` pair with ``zeta^2 = points_half[k]``, giving

    f(zeta)  = f_even(zeta^2) + zeta * f_odd(zeta^2)
    f(-zeta) = f_even(zeta^2) - zeta * f_odd(zeta^2)

Everything here is pure Python ``complex``; Falcon-1024 needs ~53-bit
precision, which doubles provide (the reference implementation makes the
same choice).

Array kernels
-------------
When NumPy is installed, every transform also exists in an array form
(:func:`fft_array`, :func:`ifft_array`, :func:`split_fft_array`,
:func:`merge_fft_array`; pointwise products and quotients are
:func:`cmul` and :func:`cdiv`, the adjoint is ``np.conj``) working on
``complex128`` arrays of shape ``(..., n)`` — leading axes are
independent lanes, which is how the batch signing path runs one kernel
pass over a whole batch of messages.

The array kernels are **bit-identical** to the scalar functions, not
merely close: complex multiplication is hand-rolled from real ops using
CPython's ``_Py_c_prod`` formula and division uses CPython's Smith-style
``_Py_c_quot`` (NumPy's own complex ``*``/``/`` round differently), and
the twiddle factors are the exact same ``cmath.sqrt`` values the scalar
recursion uses.  The differential tests pin this slot for slot, which
is what lets the vectorized signing spine reproduce scalar signatures
byte for byte.
"""

from __future__ import annotations

import cmath
from functools import lru_cache
from typing import Sequence

try:  # Optional: powers the vectorized array kernels below.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

HAVE_NUMPY = _np is not None


@lru_cache(maxsize=None)
def fft_points(n: int) -> tuple[complex, ...]:
    """The ``n`` evaluation points (roots of ``x^n + 1``), slot order."""
    if n < 1 or n & (n - 1):
        raise ValueError("n must be a positive power of two")
    if n == 1:
        return (complex(-1),)
    half = fft_points(n // 2)
    points = []
    for p in half:
        z = cmath.sqrt(p)
        points.extend((z, -z))
    return tuple(points)


@lru_cache(maxsize=None)
def _merge_roots(n: int) -> tuple[complex, ...]:
    """``zeta_k = sqrt(points(n/2)[k])`` used by merge/split at size n."""
    return tuple(cmath.sqrt(p) for p in fft_points(n // 2))


def fft(coefficients: Sequence[float | complex]) -> list[complex]:
    """Forward negacyclic FFT of a coefficient vector."""
    n = len(coefficients)
    if n == 1:
        return [complex(coefficients[0])]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    even = fft(coefficients[0::2])
    odd = fft(coefficients[1::2])
    roots = _merge_roots(n)
    out = [0j] * n
    for k in range(n // 2):
        twist = roots[k] * odd[k]
        out[2 * k] = even[k] + twist
        out[2 * k + 1] = even[k] - twist
    return out


def ifft(values: Sequence[complex]) -> list[float]:
    """Inverse FFT returning real coefficients (imag parts dropped)."""
    return [v.real for v in _ifft_complex(list(values))]


def _ifft_complex(values: list[complex]) -> list[complex]:
    n = len(values)
    if n == 1:
        return [values[0]]
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    even_vals, odd_vals = split_fft(values)
    even = _ifft_complex(even_vals)
    odd = _ifft_complex(odd_vals)
    out = [0j] * n
    out[0::2] = even
    out[1::2] = odd
    return out


def split_fft(values: Sequence[complex]) -> tuple[list[complex],
                                                  list[complex]]:
    """FFT-domain split: ``fft(f) -> fft(f_even), fft(f_odd)``.

    Used directly by ffSampling's tree descent (Falcon's
    ``splitfft``); exactly inverts :func:`merge_fft`.
    """
    n = len(values)
    roots = _merge_roots(n)
    even = [0j] * (n // 2)
    odd = [0j] * (n // 2)
    for k in range(n // 2):
        a, b = values[2 * k], values[2 * k + 1]
        even[k] = (a + b) / 2
        odd[k] = (a - b) / (2 * roots[k])
    return even, odd


def merge_fft(even: Sequence[complex], odd: Sequence[complex],
              ) -> list[complex]:
    """FFT-domain merge: ``fft(f_even), fft(f_odd) -> fft(f)``."""
    n = 2 * len(even)
    roots = _merge_roots(n)
    out = [0j] * n
    for k in range(n // 2):
        twist = roots[k] * odd[k]
        out[2 * k] = even[k] + twist
        out[2 * k + 1] = even[k] - twist
    return out


# -- pointwise ring operations in the FFT domain ---------------------------

def add_fft(a: Sequence[complex], b: Sequence[complex]) -> list[complex]:
    return [x + y for x, y in zip(a, b, strict=True)]


def sub_fft(a: Sequence[complex], b: Sequence[complex]) -> list[complex]:
    return [x - y for x, y in zip(a, b, strict=True)]


def mul_fft(a: Sequence[complex], b: Sequence[complex]) -> list[complex]:
    return [x * y for x, y in zip(a, b, strict=True)]


def div_fft(a: Sequence[complex], b: Sequence[complex]) -> list[complex]:
    return [x / y for x, y in zip(a, b, strict=True)]


def neg_fft(a: Sequence[complex]) -> list[complex]:
    return [-x for x in a]


def adj_fft(a: Sequence[complex]) -> list[complex]:
    """Adjoint (Hermitian conjugate) of a *real* polynomial.

    For real ``f`` and ``|zeta| = 1``, ``f*(zeta) = conj(f(zeta))``
    slot-by-slot, so no reordering is required.
    """
    return [x.conjugate() for x in a]


def fft_of_int_poly(coefficients: Sequence[int]) -> list[complex]:
    """FFT of an integer polynomial (convenience with float cast)."""
    return fft([float(c) for c in coefficients])


def round_ifft(values: Sequence[complex]) -> list[int]:
    """Inverse FFT followed by rounding to nearest integers."""
    return [round(c) for c in ifft(values)]


# -- NumPy array kernels ---------------------------------------------------
#
# Shape convention: every function operates on the last axis (length n);
# leading axes are independent lanes (e.g. a batch of messages).

def _require_numpy() -> None:
    if _np is None:
        raise RuntimeError(
            "NumPy is required for the array FFT kernels; "
            "use the scalar functions instead")


@lru_cache(maxsize=None)
def _bitrev_perm(n: int):
    """Leaf order of the even/odd recursion: index ``g`` holds
    coefficient ``bitrev(g)`` (an involution, so it inverts itself)."""
    _require_numpy()
    bits = n.bit_length() - 1
    perm = _np.zeros(n, dtype=_np.intp)
    for g in range(n):
        value, rev = g, 0
        for _ in range(bits):
            rev = (rev << 1) | (value & 1)
            value >>= 1
        perm[g] = rev
    perm.setflags(write=False)
    return perm


@lru_cache(maxsize=None)
def _merge_roots_array(n: int):
    """:func:`_merge_roots` as a ``complex128`` array (same values)."""
    _require_numpy()
    roots = _np.array(_merge_roots(n), dtype=_np.complex128)
    roots.setflags(write=False)
    return roots


@lru_cache(maxsize=None)
def _split_div_tables(n: int):
    """Branch-free Smith-division table for the split denominators.

    The split divides slot ``k`` by the constant ``b = 2 * roots[k]``.
    CPython's ``_Py_c_quot`` scales by whichever of ``b.real`` and
    ``b.imag`` is larger; that choice, the ratio and the denominator
    are fixed per slot, so they are computed here once (in Python
    floats, the exact values the scalar code derives per call).  The
    choice is folded into two coefficient rows: ``(A, B) = (1, ratio)``
    when scaling by ``b.real``, ``(ratio, 1)`` when scaling by
    ``b.imag``.  Every slot then evaluates

        real = (ar*A + ai*B) / denom,   imag = (ai*A - ar*B) / denom,

    which is the selected branch's sequence because multiplying by 1.0
    is exact.  Returns ``(A, B, denom)``.
    """
    _require_numpy()
    coeff_a = _np.empty(n // 2, dtype=_np.float64)
    coeff_b = _np.empty(n // 2, dtype=_np.float64)
    denom = _np.empty(n // 2, dtype=_np.float64)
    for k, root in enumerate(_merge_roots(n)):
        b = 2 * root
        if abs(b.real) >= abs(b.imag):
            ratio = b.imag / b.real
            coeff_a[k], coeff_b[k] = 1.0, ratio
            denom[k] = b.real + b.imag * ratio
        else:
            ratio = b.real / b.imag
            coeff_a[k], coeff_b[k] = ratio, 1.0
            denom[k] = b.real * ratio + b.imag
    for table in (coeff_a, coeff_b, denom):
        table.setflags(write=False)
    return coeff_a, coeff_b, denom


def _div_by_split_tables(a, n: int):
    """``a / (2 * roots)`` with the Smith table for size ``n``.

    Performs exactly :func:`cdiv`'s (hence CPython's ``_Py_c_quot``)
    arithmetic per slot; see :func:`_split_div_tables`.
    """
    coeff_a, coeff_b, denom = _split_div_tables(n)
    ar, ai = a.real, a.imag
    out = _np.empty(a.shape, dtype=_np.complex128)
    out.real = (ar * coeff_a + ai * coeff_b) / denom
    out.imag = (ai * coeff_a - ar * coeff_b) / denom
    return out


def cmul(a, b):
    """Elementwise complex product, bit-identical to CPython's.

    NumPy's complex ``*`` may round differently from CPython's
    ``_Py_c_prod`` (SIMD/FMA paths); this hand-rolled version performs
    the exact scalar sequence ``(ar*br - ai*bi, ar*bi + ai*br)`` with
    separate IEEE ops, so vectorized and scalar pipelines agree slot
    for slot.
    """
    out = _np.empty(_np.broadcast(a, b).shape, dtype=_np.complex128)
    ar, ai = a.real, a.imag
    br, bi = b.real, b.imag
    out.real = ar * br - ai * bi
    out.imag = ar * bi + ai * br
    return out


def cdiv(a, b):
    """Elementwise complex quotient via CPython's Smith algorithm.

    Mirrors ``_Py_c_quot`` branch for branch (scale by whichever
    component of the divisor is larger), which both CPython and the
    scalar code use — NumPy's own ``/`` multiplies by a reciprocal and
    rounds differently.
    """
    ar, ai = a.real, a.imag
    br, bi = b.real, b.imag
    use_real = _np.abs(br) >= _np.abs(bi)
    with _np.errstate(divide="ignore", invalid="ignore"):
        ratio_r = bi / br
        denom_r = br + bi * ratio_r
        real_r = (ar + ai * ratio_r) / denom_r
        imag_r = (ai - ar * ratio_r) / denom_r
        ratio_i = br / bi
        denom_i = br * ratio_i + bi
        real_i = (ar * ratio_i + ai) / denom_i
        imag_i = (ai * ratio_i - ar) / denom_i
    out = _np.empty(_np.broadcast(a, b).shape, dtype=_np.complex128)
    out.real = _np.where(use_real, real_r, real_i)
    out.imag = _np.where(use_real, imag_r, imag_i)
    return out


def _div_real(a, divisor: float):
    """``a / divisor`` for a real divisor, matching ``complex / int``.

    CPython routes ``complex / int`` through ``_Py_c_quot`` with a zero
    imaginary part, which reduces to dividing both components.
    """
    out = _np.empty(a.shape, dtype=_np.complex128)
    out.real = a.real / divisor
    out.imag = a.imag / divisor
    return out


def _as_complex_array(values):
    a = _np.asarray(values)
    if a.dtype != _np.complex128:
        a = a.astype(_np.complex128)
    return a


def fft_array(coefficients):
    """Batched forward FFT over the last axis; see :func:`fft`.

    Iterative bottom-up form of the scalar recursion: coefficients are
    laid out in the recursion's leaf order (bit-reversal), then merged
    level by level with exactly the scalar butterfly
    ``even[k] +/- roots[k] * odd[k]``.
    """
    _require_numpy()
    a = _as_complex_array(coefficients)
    n = a.shape[-1]
    if n == 1:
        return a.copy()
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    state = a[..., _bitrev_perm(n)]
    lead = state.shape[:-1]
    m = 1
    while m < n:
        m2 = 2 * m
        view = state.reshape(*lead, n // m2, 2, m)
        even = view[..., 0, :]
        odd = view[..., 1, :]
        twist = cmul(_merge_roots_array(m2), odd)
        merged = _np.empty((*lead, n // m2, m2), dtype=_np.complex128)
        merged[..., 0::2] = even + twist
        merged[..., 1::2] = even - twist
        state = merged.reshape(*lead, n)
        m = m2
    return state


def ifft_array(values):
    """Batched inverse FFT over the last axis, returning real coeffs."""
    _require_numpy()
    a = _as_complex_array(values)
    n = a.shape[-1]
    if n == 1:
        return a.real.copy()
    if n & (n - 1):
        raise ValueError("length must be a power of two")
    lead = a.shape[:-1]
    state = a
    m = n
    while m > 1:
        view = state.reshape(*lead, n // m, m)
        hi = view[..., 0::2]
        lo = view[..., 1::2]
        even = (hi + lo) / 2.0
        odd = _div_by_split_tables(hi - lo, m)
        split = _np.empty((*lead, n // m, 2, m // 2),
                          dtype=_np.complex128)
        split[..., 0, :] = even
        split[..., 1, :] = odd
        state = split.reshape(*lead, n)
        m //= 2
    return state[..., _bitrev_perm(n)].real.copy()


def split_fft_array(values):
    """Array form of :func:`split_fft` (over the last axis)."""
    _require_numpy()
    a = _as_complex_array(values)
    n = a.shape[-1]
    hi = a[..., 0::2]
    lo = a[..., 1::2]
    even = (hi + lo) / 2.0
    odd = _div_by_split_tables(hi - lo, n)
    return even, odd


def merge_fft_array(even, odd):
    """Array form of :func:`merge_fft` (over the last axis)."""
    _require_numpy()
    e = _as_complex_array(even)
    o = _as_complex_array(odd)
    n = 2 * e.shape[-1]
    twist = cmul(_merge_roots_array(n), o)
    out = _np.empty((*e.shape[:-1], n), dtype=_np.complex128)
    out[..., 0::2] = e + twist
    out[..., 1::2] = e - twist
    return out


def fft_of_int_rows(rows):
    """Batched :func:`fft_of_int_poly`: FFT of ``(batch, n)`` integer rows.

    ``np.asarray(..., dtype=float64)`` applies the same
    round-to-nearest int-to-float conversion as the scalar
    ``float(c)`` cast, so each output row is bit-identical to
    ``fft_of_int_poly`` of that row (the keygen pipeline's batched
    Gram–Schmidt filter and a NumPy-leg key's basis rely on this).
    """
    _require_numpy()
    return fft_array(_np.asarray(rows, dtype=_np.float64))


def round_ifft_array(values):
    """Inverse FFT + round to nearest integers (``int64`` array).

    ``np.rint`` rounds half to even, exactly like the builtin
    ``round`` the scalar path uses.
    """
    _require_numpy()
    return _np.rint(ifft_array(values)).astype(_np.int64)
