"""Differential tests: the vectorized Falcon spine vs the scalar one.

The NumPy array kernels (FFT, NTT, flat-tree ffSampling, batch
sign/verify) must be **bit-identical** to the scalar reference paths —
not merely close — because batch signing reproduces scalar signatures
byte for byte.  These tests pin that, transform by transform and end
to end, across ring sizes.

The full-sign differentials run at small n by default; the larger
paper levels are exercised under ``REPRO_FULL=1`` (keygen cost).  The
scalar signing spine runs inside the ``scalar_spine`` switch
(tests/conftest.py); the ``spine`` fixture runs a test on each spine.
"""

import dataclasses
import importlib
import math
import random

import pytest
from _env_gate import REPRO_FULL
from _ffldl_reference import (
    ff_sampling,
    flatten_ldl_tree,
    reference_tree,
    tree_leaf_sigmas,
)

# ``from .fft import fft`` rebinds the package attributes to the
# functions, so the submodules are fetched through importlib.
fft_mod = importlib.import_module("repro.falcon.fft")
ntt_mod = importlib.import_module("repro.falcon.ntt")

from repro.falcon import (  # noqa: E402
    HAVE_NUMPY,
    KeyGroup,
    SecretKey,
    build_flat_ldl_tree,
    ff_sampling_batch,
    hash_to_point,
    sign_batch,
)
from repro.falcon import scheme  # noqa: E402
from repro.falcon.ffsampling import _build_flat_ldl_tree_lists  # noqa: E402
from repro.falcon.samplerz import RejectionSamplerZ
from repro.falcon.scheme import make_base_sampler
from repro.rng import ChaChaSource
from repro.rng.keccak import Shake256

numpy_only = pytest.mark.skipif(not HAVE_NUMPY,
                                reason="NumPy not installed")

FULL = REPRO_FULL

#: Transform-level differentials are cheap at every size.
TRANSFORM_SIZES = (8, 64, 256, 512, 1024)

#: Full keygen+sign differentials: small sizes always, paper levels
#: under REPRO_FULL=1.
SIGN_SIZES = (8, 64) + ((256, 512, 1024) if FULL else ())

if HAVE_NUMPY:
    import numpy as np


# -- transform kernels -----------------------------------------------------

@numpy_only
@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_fft_kernels_bit_identical(n):
    rng = random.Random(100 + n)
    for _ in range(3):
        coeffs = [rng.uniform(-900, 900) for _ in range(n)]
        scalar = fft_mod.fft(coeffs)
        vector = fft_mod.fft_array(coeffs)
        assert list(vector) == scalar

        assert fft_mod.ifft_array(vector).tolist() == fft_mod.ifft(scalar)
        assert fft_mod.round_ifft_array(vector).tolist() \
            == fft_mod.round_ifft(scalar)

        even_s, odd_s = fft_mod.split_fft(scalar)
        even_v, odd_v = fft_mod.split_fft_array(vector)
        assert list(even_v) == even_s and list(odd_v) == odd_s
        assert list(fft_mod.merge_fft_array(even_v, odd_v)) \
            == fft_mod.merge_fft(even_s, odd_s)

        other = fft_mod.fft([rng.uniform(-10, 10) for _ in range(n)])
        assert list(fft_mod.cmul(vector, np.array(other))) \
            == fft_mod.mul_fft(scalar, other)
        assert list(fft_mod.cdiv(vector, np.array(other))) \
            == fft_mod.div_fft(scalar, other)
        assert list(np.conj(vector)) == fft_mod.adj_fft(scalar)


@numpy_only
@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_fft_kernels_batched_lanes(n):
    rng = random.Random(200 + n)
    batch = [[rng.uniform(-50, 50) for _ in range(n)] for _ in range(4)]
    vector = fft_mod.fft_array(batch)
    for lane, coeffs in enumerate(batch):
        assert list(vector[lane]) == fft_mod.fft(coeffs)
    back = fft_mod.ifft_array(vector)
    for lane in range(len(batch)):
        assert back[lane].tolist() \
            == fft_mod.ifft(fft_mod.fft(batch[lane]))


@numpy_only
@pytest.mark.parametrize("n", TRANSFORM_SIZES)
def test_ntt_kernels_exact(n):
    rng = random.Random(300 + n)
    for _ in range(3):
        a = [rng.randrange(-3 * ntt_mod.Q, 3 * ntt_mod.Q)
             for _ in range(n)]
        b = [rng.randrange(ntt_mod.Q) for _ in range(n)]
        fa = ntt_mod.ntt(a)
        assert ntt_mod.ntt_array(a).tolist() == fa
        assert ntt_mod.intt_array(fa).tolist() == ntt_mod.intt(fa)
        assert ntt_mod.mul_ntt_array(a, b).tolist() \
            == ntt_mod.mul_ntt(a, b)
    # NTT roundtrip on a batch, one call:
    batch = [[rng.randrange(ntt_mod.Q) for _ in range(n)]
             for _ in range(5)]
    roundtrip = ntt_mod.intt_array(ntt_mod.ntt_array(batch))
    for lane, poly in enumerate(batch):
        assert roundtrip[lane].tolist() == poly


# -- flat tree + batched walk ----------------------------------------------

class _StubSampler:
    """Deterministic leaf draws: callable one lane at a time (the
    reference recursion) and through ``sample_lanes`` (the batched
    walk)."""

    def __init__(self):
        self.calls = 0

    def __call__(self, center, sigma):
        self.calls += 1
        return round(center) + self.calls % 3 - 1

    def sample_lanes(self, centers, sigma):
        return [self(center, sigma) for center in centers]


def _assert_trees_identical(tree, reference):
    assert tree.n == reference.n and tree.depth == reference.depth
    assert tree.scalar_levels() == reference.scalar_levels()
    assert tree.leaf_l10 == reference.leaf_l10
    assert tree.leaf_sigma0 == reference.leaf_sigma0
    assert tree.leaf_sigma1 == reference.leaf_sigma1


def test_flat_tree_matches_recursive():
    """The key's tree, from whichever builder body this platform runs,
    equals the flattened recursive reference bit for bit."""
    sk = SecretKey.generate(n=64, seed=21)
    tree = reference_tree(sk)
    flat = flatten_ldl_tree(tree)
    assert flat.leaf_sigmas() == tree_leaf_sigmas(tree)
    _assert_trees_identical(sk.flat_tree, flat)


@numpy_only
def test_vectorized_tree_build_bit_identical(served_key):
    """The builder's NumPy body equals its pure-Python body."""
    for sk in (SecretKey.generate(n=8, seed=22),
               SecretKey.generate(n=64, seed=22), served_key):
        _assert_trees_identical(
            build_flat_ldl_tree(*sk._gram, sk.params.sigma),
            _build_flat_ldl_tree_lists(*(row.tolist() for row in sk._gram),
                                       sk.params.sigma))


def test_batched_walk_matches_legacy_recursion():
    sk = SecretKey.generate(n=64, seed=23)
    rng = random.Random(5)
    t0 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
          for _ in range(64)]
    t1 = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
          for _ in range(64)]
    z0_ref, z1_ref = ff_sampling(list(t0), list(t1), reference_tree(sk),
                                 _StubSampler())
    z0, z1 = ff_sampling_batch([list(t0)], [list(t1)], sk.flat_tree,
                               _StubSampler())
    assert z0[0] == z0_ref and z1[0] == z1_ref
    if HAVE_NUMPY:
        z0_v, z1_v = ff_sampling_batch(np.array([t0]), np.array([t1]),
                                       sk.flat_tree, _StubSampler())
        assert z0_v[0].tolist() == z0_ref
        assert z1_v[0].tolist() == z1_ref


@numpy_only
def test_batched_walk_lanes_identical_across_kernels():
    sk = SecretKey.generate(n=64, seed=24)
    rng = random.Random(6)
    t0 = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
           for _ in range(64)] for _ in range(3)]
    t1 = [[complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
           for _ in range(64)] for _ in range(3)]
    z_scalar = ff_sampling_batch([list(lane) for lane in t0],
                                 [list(lane) for lane in t1],
                                 sk.flat_tree, _StubSampler())
    z_vector = ff_sampling_batch(np.array(t0), np.array(t1),
                                 sk.flat_tree, _StubSampler())
    for side in (0, 1):
        for lane in range(3):
            assert z_vector[side][lane].tolist() == z_scalar[side][lane]


#: The served shape: Falcon-512 rounds of one lane up to a full batch.
SERVED_N = 512
SERVED_LANES = (1, 11, 32)


@pytest.fixture(scope="module")
def served_key():
    return SecretKey.generate(n=SERVED_N, seed=41)


def _leaf_sampler(seed, backend="bitsliced"):
    base = make_base_sampler(backend, source=ChaChaSource(seed))
    return RejectionSamplerZ(base, uniform_source=ChaChaSource(seed))


@numpy_only
@pytest.mark.parametrize("lanes", SERVED_LANES)
def test_batched_walk_kernels_agree_at_served_shape(served_key, lanes):
    """The NumPy walk and the list walk, real samplers, n = 512."""
    f_fft, big_f_fft = (fft_mod.fft_of_int_poly(poly)
                        for poly in (served_key.keys.f, served_key.keys.F))
    t0, t1 = [], []
    for lane in range(lanes):
        point = fft_mod.fft_of_int_poly(
            hash_to_point(b"served-%d" % lane, b"\x17" * 40, SERVED_N))
        t0.append([-(x * y) / ntt_mod.Q for x, y in zip(point, big_f_fft)])
        t1.append([(x * y) / ntt_mod.Q for x, y in zip(point, f_fft)])
    lists, arrays = _leaf_sampler(9), _leaf_sampler(9)
    z_lists = ff_sampling_batch(t0, t1, served_key.flat_tree, lists)
    z_arrays = ff_sampling_batch(np.array(t0), np.array(t1),
                                 served_key.flat_tree, arrays)
    for side in (0, 1):
        assert [row.tolist() for row in z_arrays[side]] == z_lists[side]
    assert (arrays.accepted, arrays.base_draws) \
        == (lists.accepted, lists.base_draws)


@numpy_only
def test_sign_many_spines_identical_at_served_shape(served_key,
                                                    scalar_spine):
    """Both spines sign 11- and 32-message rounds to the same bytes."""

    def sign_rounds():
        sk = SecretKey(served_key.keys, source=ChaChaSource(43))
        return [(s.salt, s.compressed)
                for batch in (11, 32)
                for s in sk.sign_many([b"round-%d-%d" % (batch, i)
                                       for i in range(batch)])]

    with scalar_spine():
        scalar = sign_rounds()
    assert sign_rounds() == scalar


# -- hash-to-point ---------------------------------------------------------

@pytest.mark.parametrize("n", (8, 64, 512))
def test_hash_to_point_matches_pure_python_shake(n):
    """The hashlib-backed bulk squeeze equals the spec's byte-at-a-time
    squeeze of the library's own Keccak."""
    message, salt = b"htp message", b"S" * 40
    sponge = Shake256(salt + message)
    limit = (1 << 16) // ntt_mod.Q * ntt_mod.Q
    reference = []
    while len(reference) < n:
        chunk = sponge.squeeze(2)
        value = (chunk[0] << 8) | chunk[1]
        if value < limit:
            reference.append(value % ntt_mod.Q)
    assert hash_to_point(message, salt, n) == reference


# -- sampler batching ------------------------------------------------------

def _round_based_reference(sampler, centers, sigma):
    """:meth:`RejectionSamplerZ.sample_lanes`' contract as a plain loop.

    Each round draws one base candidate per pending lane, then one
    uniform per pending lane, lanes in lane order, each by its own
    call; a lane's decision is the acceptance arithmetic written out.
    Updates the sampler's counters the way ``sample_lanes`` documents
    them.
    """
    inv_target = 1.0 / (2.0 * sigma * sigma)
    inv_base = 1.0 / (2.0 * sampler.base_sigma * sampler.base_sigma)
    prep = []
    for center in centers:
        center_round = round(center)
        fractional = center - center_round
        peak = fractional * inv_target / (inv_target - inv_base)
        offset = peak - fractional
        prep.append((center_round, -(offset * offset) * inv_target
                     + peak * peak * inv_base))
    results = [None] * len(centers)
    pending = list(range(len(centers)))
    rounds = 0
    while pending:
        rounds += 1
        candidates = [sampler.base.sample() for _ in pending]
        uniforms = [sampler._take_uniforms(1)[0] for _ in pending]
        sampler.base_draws += len(pending)
        still = []
        for lane, x, u in zip(pending, candidates, uniforms):
            center_round, log_m = prep[lane]
            z = center_round + x
            dz = z - centers[lane]
            log_ratio = -(dz * dz) * inv_target + x * x * inv_base
            if u < math.exp(log_ratio - log_m):
                results[lane] = z
                sampler.accepted += 1
                sampler.attempts_last = rounds
            else:
                still.append(lane)
        pending = still
    return results


def test_sample_lanes_matches_round_based_reference():
    """Widths 1-32 against the plain loop, across pool and queue refills.

    Candidates come from the signer's pooled bitsliced base and from a
    per-call ``cdt-binary`` base (``IntegerSampler.sample_many``).  The
    calls run long enough that a 4096-sample base-pool refill and a
    64-uniform queue refill each land inside a call that started with
    a non-empty pool or queue, so the bulk draws are pinned across
    refills as well as on their in-place fast paths.
    """
    for backend in ("bitsliced", "cdt-binary"):
        tested, reference = (_leaf_sampler(5, backend),
                             _leaf_sampler(5, backend))
        rng = random.Random(8)
        refills_inside = {"pool": 0, "queue": 0}
        for width in (1, 2, 8, 11, 32) * 80:
            centers = [rng.uniform(-40.0, 40.0) for _ in range(width)]
            sigma = rng.uniform(1.2, 1.8)
            # Only the bitsliced adapter pools its base draws.
            pool = len(getattr(tested.base, "_buffer", ()))
            queue = len(tested._uniform_queue)
            draws = tested.base_draws
            got = tested.sample_lanes(centers, sigma)
            want = _round_based_reference(reference, centers, sigma)
            assert got == want, backend
            assert (tested.accepted, tested.base_draws,
                    tested.attempts_last) \
                == (reference.accepted, reference.base_draws,
                    reference.attempts_last)
            drawn = tested.base_draws - draws
            refills_inside["pool"] += 0 < pool < drawn
            refills_inside["queue"] += 0 < queue < drawn
        assert refills_inside["queue"] >= 1
        assert (refills_inside["pool"] >= 1) == (backend == "bitsliced")


# -- full signing ----------------------------------------------------------

def _fresh(n, seed):
    return SecretKey.generate(n=n, seed=seed)


@numpy_only
@pytest.mark.parametrize("n", SIGN_SIZES)
def test_sign_many_spines_identical(n, scalar_spine):
    """The acceptance-criterion property: scalar and NumPy spines emit
    identical signature bytes for a fixed ChaCha seed."""
    messages = [b"spine-%d" % i for i in range(4)]
    with scalar_spine():
        scalar = _fresh(n, 32).sign_many(messages)
    vector = _fresh(n, 32).sign_many(messages)
    assert [(s.salt, s.compressed) for s in scalar] \
        == [(s.salt, s.compressed) for s in vector]


def test_sign_many_verifies_and_batches(n=64):
    sk = _fresh(n, 33)
    messages = [b"verify-%d" % i for i in range(6)]
    signatures = sk.sign_many(messages)
    pk = sk.public_key
    assert all(pk.verify(m, s) for m, s in zip(messages, signatures))
    verdicts = pk.verify_many(messages, signatures)
    assert verdicts == [True] * len(messages)
    tampered = list(messages)
    tampered[2] = b"tampered"
    assert pk.verify_many(tampered, signatures) \
        == [True, True, False, True, True, True]


def test_verify_many_rejects_malformed_compression(n=64):
    from repro.falcon import Signature

    sk = _fresh(n, 34)
    messages = [b"ok", b"bad"]
    good = sk.sign_many([messages[0]])[0]
    broken = Signature(salt=good.salt, compressed=b"\xff" * 3)
    assert sk.public_key.verify_many(messages, [good, broken]) \
        == [True, False]


def test_sign_many_empty_and_spine_validation():
    sk = _fresh(8, 35)
    assert sk.sign_many([]) == []
    assert sk.signing_attempts == 0


def test_sign_batch_follows_platform(spine, monkeypatch):
    """``sign_batch`` runs the NumPy attempt when NumPy imports and
    the scalar attempt inside the switch — never the other one."""
    other = ("_attempt_lanes_scalar" if spine == "numpy"
             else "_attempt_lanes_numpy")

    def fail(*args):
        raise AssertionError(f"{other} ran on the {spine} spine")

    monkeypatch.setattr(scheme, other, fail)
    assert scheme._spine_name() == spine
    key = _fresh(8, 89)
    messages = [b"platform-%d" % i for i in range(3)]
    signatures = sign_batch([(key, message) for message in messages])
    assert all(key.public_key.verify(message, signature)
               for message, signature in zip(messages, signatures))


@numpy_only
def test_key_basis_and_gram_identical_across_spines(scalar_spine):
    """A key's basis and Gram rows: the NumPy leg's read-only arrays
    equal the list kernels' lists slot for slot."""
    keys = _fresh(64, 91).keys
    with scalar_spine():
        lists = SecretKey(keys)
    arrays = SecretKey(keys)
    for array_rows, list_rows in ((arrays._basis, lists._basis),
                                  (arrays._gram, lists._gram)):
        assert [row.tolist() for row in array_rows] == list(list_rows)


@numpy_only
def test_key_load_and_use_follow_platform(monkeypatch):
    """On the NumPy leg a loaded key, its first signature and both
    verifiers never call the list FFT or the scalar NTT.  The key is
    generated before the patch: keygen's basis reduction still runs
    the list FFT."""
    from repro.falcon import (batchverify, decode_secret_key,
                              encode_secret_key, verify_batch)

    encoded = encode_secret_key(_fresh(64, 90))

    def fail(*args):
        raise AssertionError("a list kernel ran on the NumPy leg")

    for module, name in ((fft_mod, "fft"), (ntt_mod, "ntt"),
                         (ntt_mod, "intt"), (scheme, "ntt"),
                         (scheme, "intt"), (batchverify, "ntt"),
                         (batchverify, "intt")):
        monkeypatch.setattr(module, name, fail)
    key = decode_secret_key(encoded)
    assert all(isinstance(row, np.ndarray) and not row.flags.writeable
               for row in (*key._basis, *key._gram))
    signature = key.sign(b"follows")
    public_key = key.public_key
    assert public_key.verify(b"follows", signature)
    assert verify_batch([(public_key, b"follows", signature),
                         (public_key, b"other", signature)]) \
        == [True, False]


# -- cross-key batch signing -----------------------------------------------

#: Which key each lane of a merged round belongs to: three keys with
#: interleaved arrivals and uneven lane counts (6, 3 and 1 lanes).
MERGED_ARRIVALS = (0, 1, 0, 0, 2, 1, 0, 1, 0, 0)


def _counters(key):
    return (key.signing_attempts, key.sampler_z.accepted,
            key.sampler_z.base_draws)


def _assert_per_key_streams(merged, reference, arrivals):
    """One ``sign_batch`` round over ``merged`` keys equals, key by
    key, ``sign_many`` of the twin ``reference`` key over that key's
    messages in arrival order — bytes and sampler counters — on the
    spine the caller's ``spine`` fixture selected."""
    messages = [b"merged-%d-%d" % (key, lane)
                for lane, key in enumerate(arrivals)]
    signed = sign_batch([(merged[key], message)
                         for key, message in zip(arrivals, messages)])
    for index, twin in enumerate(reference):
        mine = [lane for lane, key in enumerate(arrivals) if key == index]
        expected = twin.sign_many([messages[lane] for lane in mine])
        assert [(signed[lane].salt, signed[lane].compressed)
                for lane in mine] \
            == [(s.salt, s.compressed) for s in expected]
        assert _counters(merged[index]) == _counters(twin)
    assert all(key.public_key.verify(message, signature)
               for key, message, signature in zip(
                   [merged[key] for key in arrivals], messages, signed))


def test_sign_batch_matches_per_key_sign_many(spine):
    seeds = (81, 82, 83)
    _assert_per_key_streams([_fresh(64, seed) for seed in seeds],
                            [_fresh(64, seed) for seed in seeds],
                            MERGED_ARRIVALS)


@pytest.fixture(scope="module")
def served_trio():
    return [SecretKey.generate(n=SERVED_N, seed=seed).keys
            for seed in (44, 45, 46)]


@numpy_only
@pytest.mark.parametrize("split, spine", (
    ((11, 11, 0), "numpy"), ((1, 7, 0), "numpy"), ((16, 5, 1), "numpy"),
    ((32, 1, 0), "numpy"), ((3, 0, 9), "numpy"), ((16, 5, 1), "scalar")),
    indirect=["spine"])
def test_sign_batch_matches_per_key_sign_many_at_served_shape(
        served_trio, split, spine):
    """n = 512: lanes per key as in a served shard batch, round-robin
    arrivals."""
    arrivals = [key for lane in range(max(split))
                for key, count in enumerate(split) if lane < count]
    twins = [[SecretKey(keys, source=ChaChaSource(47 + index))
              for index, keys in enumerate(served_trio)]
             for _ in range(2)]
    _assert_per_key_streams(twins[0], twins[1], arrivals)


def test_sign_batch_retries_lanes_against_their_own_bound(spine):
    """Keys 0 and 2 get a bound near the median signature norm, so
    some of their lanes fail the norm check and retry in later rounds
    beside key 1's lanes; per-key streams still hold."""
    seeds = (84, 85, 86)

    def keys():
        out = [_fresh(64, seed) for seed in seeds]
        for key in (out[0], out[2]):
            key.params = dataclasses.replace(key.params,
                                             sig_bound=3_300_000)
        return out

    merged, reference = keys(), keys()
    _assert_per_key_streams(merged, reference, MERGED_ARRIVALS)
    assert merged[0].signing_attempts > MERGED_ARRIVALS.count(0)


def test_sign_batch_rejects_mixed_degrees():
    small, large = _fresh(8, 87), _fresh(16, 88)
    with pytest.raises(ValueError, match="one degree"):
        sign_batch([(small, b"a"), (large, b"b")])
    assert small.signing_attempts == large.signing_attempts == 0
    assert sign_batch([]) == []
    t = [[0j] * 8, [0j] * 8]
    with pytest.raises(ValueError):
        ff_sampling_batch(t, t, groups=[
            KeyGroup(small.flat_tree, small.sampler_z, slice(0, 1)),
            KeyGroup(large.flat_tree, large.sampler_z, slice(1, 2))])

