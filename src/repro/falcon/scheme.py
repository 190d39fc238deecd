"""The Falcon signature scheme, end to end.

Key generation (NTRU trapdoor), signing (hash-to-point + ffSampling +
compression) and verification (NTT arithmetic + norm check), following
the NIST-submission design [18] the paper benchmarks.  The integer
Gaussian base sampler is *pluggable*: Table 1's four backends — byte-
scanning CDT, binary-search CDT, linear-scan CDT and this paper's
bitsliced constant-time sampler — slot into the signing path through
:class:`~repro.falcon.samplerz.RejectionSamplerZ`.

Typical use::

    from repro.falcon import SecretKey, sign_batch

    sk = SecretKey.generate(n=256, seed=1)
    signature = sk.sign(b"message")
    assert sk.public_key.verify(b"message", signature)

    # Swap the base sampler (the Table 1 experiment):
    sk.use_base_sampler("bitsliced")

    # Sign lanes of several keys in one batched round:
    other = SecretKey.generate(n=256, seed=2)
    signatures = sign_batch([(sk, b"a"), (other, b"b"), (sk, b"c")])
"""

from __future__ import annotations

from dataclasses import dataclass
from hashlib import shake_256 as _hashlib_shake_256
from typing import Sequence

from ..baselines.adapters import BitslicedIntegerSampler
from ..baselines.bisection import BisectionCdtSampler
from ..baselines.byte_scan import ByteScanCdtSampler
from ..baselines.cdt import CdtBinarySearchSampler
from ..baselines.linear_scan import LinearScanCdtSampler
from ..core.gaussian import GaussianParams
from ..rng.source import RandomSource, default_source, make_source
from .encoding import CompressError, DecompressError, compress, decompress
from ..ctlint.annotations import secret_params
from .ffsampling import (
    FlatLdlTree,
    KeyGroup,
    _lane_rows,
    build_flat_ldl_tree,
    ff_sampling_batch,
)
from .fft import (
    HAVE_NUMPY,
    _div_real,
    add_fft,
    adj_fft,
    cmul,
    fft_array,
    fft_of_int_poly,
    fft_of_int_rows,
    mul_fft,
    neg_fft,
    round_ifft,
    round_ifft_array,
    sub_fft,
)
from .ntrugen import NtruKeys, generate_keys
from .ntt import (
    Q,
    center_mod_q,
    intt,
    intt_array,
    ntt,
    ntt_array,
)
from .params import FalconParams, falcon_params
from .samplerz import RejectionSamplerZ

if HAVE_NUMPY:
    import numpy as _np
else:  # pragma: no cover - exercised in the no-numpy CI job
    _np = None

#: Base-sampler precision: the paper keeps n = 128 bits and tau = 13
#: for every backend in Table 1.
BASE_PRECISION = 128
BASE_SIGMA = 2
BASE_TAIL_CUT = 13

#: Registry of Table 1 backends.
BASE_SAMPLER_BACKENDS = {
    "cdt-byte-scan": ByteScanCdtSampler,
    "cdt-binary": CdtBinarySearchSampler,
    "cdt-linear": LinearScanCdtSampler,
    "cdt-bisection": BisectionCdtSampler,
    "bitsliced": BitslicedIntegerSampler,
}

#: The paper, Sec. 6: "Depending on the number field used this sigma
#: can be either 2 or sqrt(5)".  The binary field (x^n + 1) uses 2;
#: the 2018 submission's ternary variant used sqrt(5).  Both are exact
#: here because sigma^2 is what the matrix construction consumes.
from fractions import Fraction  # noqa: E402  (kept near its one use)

BASE_SIGMA_VARIANTS = {
    "binary": Fraction(4),   # sigma = 2
    "ternary": Fraction(5),  # sigma = sqrt(5)
}


def make_base_sampler(backend: str, source: RandomSource | None = None,
                      precision: int = BASE_PRECISION,
                      field: str = "binary", **backend_kwargs):
    """Instantiate a Table 1 base sampler backend.

    ``field`` selects the paper's sigma = 2 (``"binary"``) or
    sigma = sqrt(5) (``"ternary"``) base instance.  ``backend_kwargs``
    flow to the backend constructor — for ``"bitsliced"`` that includes
    ``batch_width`` (lanes per batch; part of the sample stream).
    """
    if backend not in BASE_SAMPLER_BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; "
            f"choose from {sorted(BASE_SAMPLER_BACKENDS)}")
    if field not in BASE_SIGMA_VARIANTS:
        raise ValueError(f"unknown field {field!r}; "
                         f"choose from {sorted(BASE_SIGMA_VARIANTS)}")
    params = GaussianParams(sigma_sq=BASE_SIGMA_VARIANTS[field],
                            precision=precision,
                            tail_cut=BASE_TAIL_CUT)
    return BASE_SAMPLER_BACKENDS[backend](params, source=source,
                                          **backend_kwargs)


def _spine_name() -> str:
    """The signing spine that runs: the array kernels when NumPy
    imports, the pure-Python ones otherwise.  Both produce identical
    signature bytes for a fixed seed."""
    return "numpy" if _np is not None else "scalar"


def hash_to_point(message: bytes, salt: bytes, n: int) -> list[int]:
    """SHAKE-256(salt || message) squeezed into Z_q^n (spec algorithm).

    16-bit big-endian chunks are rejection-sampled below
    ``floor(2^16 / q) * q`` and reduced mod q.

    The sponge is squeezed in bulk through ``hashlib``'s C SHAKE-256
    (byte-identical to the library's pure-Python Keccak, pinned by the
    tests) and the chunks are parsed vectorized when NumPy is present.
    The accepted-value sequence is a pure function of the SHAKE stream,
    so every implementation choice here yields the same point.
    """
    limit = (1 << 16) // Q * Q
    sponge = _hashlib_shake_256(salt + message)
    out: list[int] = []
    consumed = 0
    # Squeeze a little over the expected demand (~2n bytes at a ~75%
    # acceptance rate), doubling on the rare shortfall.
    block = (2 * n + (n // 2 if n >= 8 else 64) + 16) & ~1
    while True:
        digest = sponge.digest(consumed + block)
        chunk = digest[consumed:]
        consumed += block
        if _np is not None:
            values = _np.frombuffer(chunk, dtype=">u2")
            out.extend((values[values < limit] % _np.uint16(Q)).tolist())
        else:
            for i in range(0, len(chunk) - 1, 2):
                value = (chunk[i] << 8) | chunk[i + 1]
                if value < limit:
                    out.append(value % Q)
        if len(out) >= n:
            del out[n:]
            return out
        block *= 2


@dataclass(frozen=True)
class Signature:
    """A Falcon signature: 40-byte salt + compressed s2."""

    salt: bytes
    compressed: bytes

    @property
    def size_bytes(self) -> int:
        return len(self.salt) + len(self.compressed) + 1  # +header byte


class PublicKey:
    """Verification key: the polynomial h = g / f mod q."""

    def __init__(self, n: int, h: list[int]) -> None:
        self.n = n
        self.h = h
        self.params: FalconParams = falcon_params(n)
        self._h_ntt: list[int] | None = None
        self._h_ntt_row = None  # the same values, from the array NTT

    @property
    def h_ntt(self) -> list[int]:
        """NTT of ``h`` as a list, computed once by the scalar NTT —
        every scalar-spine verification reuses it."""
        if self._h_ntt is None:
            self._h_ntt = ntt(self.h)
        return self._h_ntt

    @property
    def h_ntt_row(self):
        """NTT of ``h`` as a read-only ``uint64`` row, computed once by
        the array NTT — the row the cross-key batch engine stacks into
        its ``(batch, n)`` matrix.  Requires NumPy."""
        if self._h_ntt_row is None:
            if _np is None:
                raise RuntimeError(
                    "NumPy is required for h_ntt_row; use h_ntt")
            row = ntt_array(self.h)
            row.setflags(write=False)
            self._h_ntt_row = row
        return self._h_ntt_row

    def _mul_h(self, s2: list[int]) -> list[int]:
        """``s2 * h`` in ``Z_q[x]/(x^n + 1)`` via the cached NTT."""
        if _np is not None:
            fa = ntt_array(_np.asarray(s2, dtype=_np.int64))
            return intt_array(fa * self.h_ntt_row
                              % _np.uint64(Q)).tolist()
        return intt([x * y % Q for x, y in zip(ntt(s2), self.h_ntt)])

    def verify(self, message: bytes, signature: Signature) -> bool:
        """Spec verification: recompute s1 and check the norm bound.

        The hash input is ``salt || message``, so a salt of any other
        length than the parameter set's would let one signature verify
        on a related message; such a signature is rejected.
        """
        if len(signature.salt) != self.params.salt_bytes:
            return False
        try:
            s2 = decompress(signature.compressed, self.n)
        except DecompressError:
            return False
        hashed = hash_to_point(message, signature.salt, self.n)
        s2h = self._mul_h(s2)
        s1 = [center_mod_q(c - x) for c, x in zip(hashed, s2h)]
        norm_sq = sum(c * c for c in s1) + sum(c * c for c in s2)
        return norm_sq <= self.params.sig_bound

    def verify_many(self, messages: Sequence[bytes],
                    signatures: Sequence[Signature]) -> list[bool]:
        """Verify a batch of (message, signature) pairs.

        With NumPy the whole batch runs through one vectorized NTT /
        pointwise-multiply / inverse-NTT pass against the cached
        ``ntt(h)`` (all arithmetic exact, so verdicts match
        :meth:`verify` bit for bit); without NumPy the cross-key
        engine runs its pure-Python pass.
        """
        if len(messages) != len(signatures):
            raise ValueError("messages and signatures differ in length")
        from .batchverify import verify_batch
        return verify_batch([(self, message, signature)
                             for message, signature
                             in zip(messages, signatures)])


class SecretKey:
    """Signing key: the NTRU trapdoor, its basis and Gram matrix in FFT
    form, and (built on first use) the ffLDL* tree.

    The basis and Gram rows follow the platform: read-only
    ``complex128`` arrays from one batched FFT and the array kernels
    when NumPy imports, lists from the list kernels otherwise.  Both
    hold the same values slot for slot.
    """

    def __init__(self, keys: NtruKeys,
                 source: RandomSource | None = None,
                 base_backend: str = "bitsliced") -> None:
        self.keys = keys
        self.n = len(keys.f)
        self.params = falcon_params(self.n)
        self.source = source if source is not None else default_source()

        # Basis B = [[g, -f], [G, -F]] as (b00, b01, b10, b11) and
        # Gram = B B^dagger (the ffLDL* tree's input) in FFT form.
        if _np is not None:
            rows = fft_of_int_rows([keys.g, keys.f, keys.G, keys.F])
            _np.negative(rows[1::2], out=rows[1::2])
            mul, adj, add = cmul, _np.conj, _np.add
        else:
            rows = [fft_of_int_poly(keys.g),
                    neg_fft(fft_of_int_poly(keys.f)),
                    fft_of_int_poly(keys.G),
                    neg_fft(fft_of_int_poly(keys.F))]
            mul, adj, add = mul_fft, adj_fft, add_fft
        b00, b01, b10, b11 = self._basis = tuple(rows)
        self._gram = (add(mul(b00, adj(b00)), mul(b01, adj(b01))),
                      add(mul(b00, adj(b10)), mul(b01, adj(b11))),
                      add(mul(b10, adj(b10)), mul(b11, adj(b11))))
        if _np is not None:
            # A one-key round hands these rows to the kernels uncopied.
            for row in (*self._basis, *self._gram):
                row.setflags(write=False)

        # Built on first use, then cached.
        self._flat_tree: FlatLdlTree | None = None
        self._public_key: PublicKey | None = None

        self.signing_attempts = 0
        self.use_base_sampler(base_backend)

    # -- construction ------------------------------------------------------

    @classmethod
    def generate(cls, n: int, seed: int | bytes = 0,
                 base_backend: str = "bitsliced",
                 prng: str = "chacha20") -> "SecretKey":
        """Generate a fresh key pair for ring degree ``n``.

        ``prng`` names the deterministic randomness backend feeding key
        generation *and* signing (``chacha20`` — the paper's Table 1
        configuration, vectorized when NumPy is present — ``chacha12``,
        ``chacha8``, ``shake128``, ``shake256``, ``counter``).
        """
        source = make_source(prng, seed)
        keys = generate_keys(n, source=source)
        return cls(keys, source=source, base_backend=base_backend)

    @property
    def public_key(self) -> PublicKey:
        """The verification key (one cached instance, so serving-layer
        verify rounds reuse its precomputed ``ntt(h)``)."""
        if self._public_key is None:
            self._public_key = PublicKey(self.n, self.keys.h)
        return self._public_key

    def use_base_sampler(self, backend: str,
                         source: RandomSource | None = None,
                         field: str = "binary",
                         **backend_kwargs) -> None:
        """Swap the integer Gaussian backend (the Table 1 experiment).

        ``field="ternary"`` exercises the paper's other instance
        (sigma = sqrt(5)); the rejection wrapper is exact for any base
        sigma above the leaf sigmas, so signatures stay valid.
        ``backend_kwargs`` reach the backend constructor.  The default
        ``"bitsliced"`` backend already signs from a pooled sample
        buffer refilled by fused 4096-lane kernel passes.
        """
        import math

        self.base_backend = backend
        self.base_sampler = make_base_sampler(
            backend, source=source if source is not None else self.source,
            field=field, **backend_kwargs)
        base_sigma = math.sqrt(float(BASE_SIGMA_VARIANTS[field]))
        self.sampler_z = RejectionSamplerZ(self.base_sampler,
                                           uniform_source=self.source,
                                           base_sigma=base_sigma)

    def leaf_sigma_range(self) -> tuple[float, float]:
        sigmas = self.flat_tree.leaf_sigmas()
        return min(sigmas), max(sigmas)

    # -- signing -----------------------------------------------------------

    def sign(self, message: bytes, max_attempts: int = 64) -> Signature:
        """Sign ``message``: a one-lane :meth:`sign_many` round.

        Hash to a point, sample a close lattice vector with ffSampling,
        compress s2; retry on the (rare) norm or compression failures,
        as the reference implementation does.  Raises ``RuntimeError``
        when ``max_attempts`` attempts all fail.
        """
        return self.sign_many([message], max_attempts=max_attempts)[0]

    @property
    def flat_tree(self) -> FlatLdlTree:
        """The ffLDL* tree normalized to the signing sigma, in flat
        level-major storage (built on first use, then cached)."""
        if self._flat_tree is None:
            self._flat_tree = build_flat_ldl_tree(*self._gram,
                                                  self.params.sigma)
        return self._flat_tree

    def _resolve_spine(self, _spine: object) -> str:
        # The repository benchmark's config line reads the spine here.
        return _spine_name()

    def _prefetch_keystream(self, lanes: int) -> None:
        """Pre-generate one round's worth of keystream in bulk.

        A rough upper estimate of the demand (salts, acceptance
        uniforms, base-sampler words); prefetching is transparent to
        the byte stream, and unused keystream is served later, so
        over-estimating costs only memory.
        """
        per_signature = self.params.salt_bytes + 80 * self.n
        self.source.prefetch(min(lanes * per_signature, 1 << 22))

    def sign_many(self, messages: Sequence[bytes],
                  max_attempts: int = 64) -> list[Signature]:
        """Sign a batch of messages in shared rounds.

        Round-based: each round draws a salt per still-unsigned
        message (in message order), hashes them to points, and runs
        *one* batched ffSampling walk over all pending lanes — the
        per-node vector arithmetic is amortized across the batch, as
        are the keystream slabs (prefetched for the round's estimated
        demand) and the key/tree transforms (computed once per key).
        Lanes failing the norm or compression check retry in the next
        round.  This is :func:`sign_batch` with every lane under this
        key, and :meth:`sign` is its one-lane case.
        """
        return sign_batch([(self, message) for message in messages],
                          max_attempts=max_attempts)

    def samples_per_signature(self) -> int:
        """Base-sampler leaf calls per ffSampling pass: 2n."""
        return 2 * self.n


# -- cross-key batch signing ---------------------------------------------------

def _per_lane(items: list, counts: list[int]) -> list:
    """``items[k]`` repeated ``counts[k]`` times: one entry per lane."""
    return [items[k] for k, count in enumerate(counts) for _ in range(count)]


def _key_groups(keys: list[SecretKey], counts: list[int]) -> list[KeyGroup]:
    """The walk's key groups: ``keys[k]`` owns the next ``counts[k]``
    lanes."""
    groups = []
    start = 0
    for key, count in zip(keys, counts):
        groups.append(KeyGroup(key.flat_tree, key.sampler_z,
                               slice(start, start + count)))
        start += count
    return groups


@secret_params("keys")
def _attempt_lanes_numpy(keys: list[SecretKey], counts: list[int],
                         hashed: list[list[int]]):
    """One signing attempt over the round's lanes, array spine.

    ``keys[k]`` owns the next ``counts[k]`` lanes of ``hashed``.
    Returns per-lane ``s2`` coefficient lists (``None`` where the lane
    failed its key's norm bound).
    """
    # A key built inside the scalar-spine switch holds lists.
    b00, b01, b10, b11 = (
        _lane_rows([_np.asarray(row) for row in rows], counts)
        for rows in zip(*(key._basis for key in keys)))
    c_fft = fft_array(_np.asarray(hashed, dtype=_np.float64))
    # Targets (c F, -c f) / q, read off b11 = -F and b01 = -f.
    t0 = _div_real(cmul(c_fft, b11), Q)
    t1 = _div_real(-cmul(c_fft, b01), Q)
    z0, z1 = ff_sampling_batch(t0, t1, groups=_key_groups(keys, counts))
    d0 = t0 - z0
    d1 = t1 - z1
    s1 = round_ifft_array(cmul(d0, b00) + cmul(d1, b10))
    s2 = round_ifft_array(cmul(d0, b01) + cmul(d1, b11))
    norms = ((s1 * s1).sum(axis=1) + (s2 * s2).sum(axis=1)).tolist()
    bounds = [key.params.sig_bound for key in _per_lane(keys, counts)]
    # ct: allow(secret-ternary): norm-bound restart selection — the public rejection event, batched
    return [row if norm <= bound else None
            for row, norm, bound in zip(s2.tolist(), norms, bounds)]


@secret_params("keys")
def _attempt_lanes_scalar(keys: list[SecretKey], counts: list[int],
                          hashed: list[list[int]]):
    """One signing attempt over the round's lanes, pure Python.

    Same structure (and the same leaf-sampler call order) as the array
    spine, so both produce identical signatures for a fixed seed.
    """
    lane_keys = _per_lane(keys, counts)
    # Lists even for a key built outside the switch: CPython's complex
    # product, never NumPy scalars' (which may round differently).
    lane_bases = _per_lane(
        [[row if isinstance(row, list) else row.tolist()
          for row in key._basis] for key in keys], counts)
    t0s, t1s = [], []
    for (_, b01, _, b11), point in zip(lane_bases, hashed):
        c_fft = fft_of_int_poly(point)
        t0s.append([(x * y) / Q for x, y in zip(c_fft, b11)])
        t1s.append([-(x * y) / Q for x, y in zip(c_fft, b01)])
    z0s, z1s = ff_sampling_batch(t0s, t1s,
                                 groups=_key_groups(keys, counts))
    out = []
    for key, (b00, b01, b10, b11), t0, t1, z0, z1 in zip(
            lane_keys, lane_bases, t0s, t1s, z0s, z1s):
        d0 = sub_fft(t0, z0)
        d1 = sub_fft(t1, z1)
        s1 = round_ifft(add_fft(mul_fft(d0, b00), mul_fft(d1, b10)))
        s2 = round_ifft(add_fft(mul_fft(d0, b01), mul_fft(d1, b11)))
        norm_sq = sum(c * c for c in s1) + sum(c * c for c in s2)
        # ct: allow(secret-ternary): norm-bound restart selection — the public rejection event, batched
        out.append(s2 if norm_sq <= key.params.sig_bound else None)
    return out


@secret_params("lanes")
def sign_batch(lanes: Sequence[tuple[SecretKey, bytes]],
               max_attempts: int = 64) -> list[Signature]:
    """Sign ``(secret_key, message)`` lanes of many keys in shared rounds.

    The sign-side twin of
    :func:`~repro.falcon.batchverify.verify_batch`.  Lanes are grouped
    by key (keys in first-arrival order, each key's lanes in arrival
    order).  Each round draws every pending lane's salt from its key's
    source, builds targets from per-lane key rows, runs *one*
    ffSampling walk over all pending lanes — each lane on its key's
    L10 rows, each key's lanes drawn by that key's own
    ``RejectionSamplerZ`` — and checks every lane's norm against its
    own key's basis and bound.  Failed lanes retry in the next round.

    **Per-key streams**: every key consumes its own source in exactly
    the order its own :meth:`SecretKey.sign_many` would, so each key's
    signatures equal ``key.sign_many(<its messages in arrival order>)``
    byte for byte, on both spines, whatever other keys share the round
    (for keys that do not share one random source, as no generated or
    served key does).  All keys must have one degree.  Returns the
    signatures in lane order.  Each attempt runs the array kernels when
    NumPy imports and the pure-Python ones otherwise.
    """
    # Which lanes share a key is public metadata: group by identity.
    keys: dict[int, SecretKey] = {}
    owners = []
    for key, _message in lanes:
        keys.setdefault(id(key), key)
        owners.append(id(key))
    if len({key.n for key in keys.values()}) > 1:
        raise ValueError("sign_batch needs keys of one degree")
    pending = {owner: [] for owner in keys}
    for index, owner in enumerate(owners):
        pending[owner].append(index)
    signatures: list[Signature | None] = [None] * len(owners)
    for _ in range(max_attempts):
        active = [owner for owner in keys if pending[owner]]
        if not active:
            break
        salts, hashed = [], []
        for owner in active:
            key = keys[owner]
            key.signing_attempts += len(pending[owner])
            key._prefetch_keystream(len(pending[owner]))
            for index in pending[owner]:
                salt = key.source.read_bytes(key.params.salt_bytes)
                salts.append(salt)
                hashed.append(hash_to_point(lanes[index][1], salt, key.n))
        group_keys = [keys[owner] for owner in active]
        counts = [len(pending[owner]) for owner in active]
        if _np is not None:
            results = _attempt_lanes_numpy(group_keys, counts, hashed)
        else:
            results = _attempt_lanes_scalar(group_keys, counts, hashed)
        lane = 0
        for owner in active:
            key = keys[owner]
            still_pending = []
            for index in pending[owner]:
                s2, salt = results[lane], salts[lane]
                lane += 1
                # ct: allow(secret-early-exit): lane retry on the public norm-bound rejection
                if s2 is None:
                    still_pending.append(index)
                    continue
                try:
                    compressed = compress(s2, key.params.sig_payload_bits)
                except CompressError:
                    still_pending.append(index)
                    continue
                signatures[index] = Signature(salt=salt,
                                              compressed=compressed)
            pending[owner] = still_pending
    failed = sum(len(indices) for indices in pending.values())
    if failed:
        raise RuntimeError(
            f"batch signing failed for {failed} message(s) "
            f"after {max_attempts} attempts")
    return signatures
