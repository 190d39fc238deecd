"""Complete Falcon signature scheme with pluggable base samplers.

Signing, batch verification and key generation each have a NumPy spine
and a pure-Python scalar spine that produce identical bytes.  The
platform picks one: NumPy when it imports, the scalar spine otherwise.
"""

from contextlib import contextmanager

from .batchverify import (
    BatchVerifyReport,
    LaneVerdict,
    verify_batch,
    verify_batch_report,
)
from .encoding import CompressError, DecompressError, compress, decompress
from .ffsampling import (
    FlatLdlTree,
    KeyGroup,
    build_flat_ldl_tree,
    ff_sampling_batch,
)
from .fft import (
    HAVE_NUMPY,
    add_fft,
    adj_fft,
    div_fft,
    fft,
    fft_array,
    fft_points,
    ifft,
    ifft_array,
    merge_fft,
    merge_fft_array,
    mul_fft,
    neg_fft,
    round_ifft,
    round_ifft_array,
    split_fft,
    split_fft_array,
    sub_fft,
)
from .keystore import KeyStore, KeyStoreStats, derive_key_seed
from .ledger import (
    Block,
    BlockHeader,
    ChainAudit,
    CommitResult,
    Ledger,
    LedgerError,
    Mempool,
    MempoolFull,
    RecordError,
    SignedRecord,
)
from .serving import (
    ConsistentHashRing,
    ShardedKeyStore,
    SigningService,
    derive_shard_seed,
    plan_rounds,
)
from .ntrugen import (
    CANDIDATE_BLOCK,
    NtruKeys,
    NtruSolveError,
    generate_keys,
    gram_schmidt_norm_sq,
    gram_schmidt_norms_batch,
    ntru_solve,
    reduce_basis,
)
from .ntt import (
    Q,
    center_mod_q,
    div_ntt,
    intt,
    intt_array,
    is_invertible,
    is_invertible_array,
    mul_ntt,
    mul_ntt_array,
    mul_ntt_rows_array,
    ntt,
    ntt_array,
)
from .params import PAPER_LEVELS, SALT_BYTES, SIGMA_MAX, FalconParams, falcon_params
from .samplerz import BASE_SIGMA, RejectionSamplerZ
from .serialize import (
    SerializeError,
    decode_public_key,
    decode_secret_key,
    decode_signature,
    encode_public_key,
    encode_secret_key,
    encode_signature,
    load_secret_key,
    save_secret_key,
)
from .scheme import (
    BASE_PRECISION,
    BASE_SIGMA_VARIANTS,
    BASE_SAMPLER_BACKENDS,
    PublicKey,
    SecretKey,
    Signature,
    hash_to_point,
    make_base_sampler,
    sign_batch,
)

__all__ = [
    "BASE_PRECISION",
    "BASE_SAMPLER_BACKENDS",
    "BASE_SIGMA",
    "BASE_SIGMA_VARIANTS",
    "BatchVerifyReport",
    "Block",
    "BlockHeader",
    "CANDIDATE_BLOCK",
    "ChainAudit",
    "CommitResult",
    "CompressError",
    "ConsistentHashRing",
    "DecompressError",
    "FalconParams",
    "KeyGroup",
    "KeyStore",
    "KeyStoreStats",
    "LaneVerdict",
    "Ledger",
    "LedgerError",
    "Mempool",
    "MempoolFull",
    "RecordError",
    "SignedRecord",
    "FlatLdlTree",
    "HAVE_NUMPY",
    "NtruKeys",
    "NtruSolveError",
    "PAPER_LEVELS",
    "PublicKey",
    "Q",
    "RejectionSamplerZ",
    "SALT_BYTES",
    "SIGMA_MAX",
    "SecretKey",
    "SerializeError",
    "ShardedKeyStore",
    "Signature",
    "SigningService",
    "add_fft",
    "adj_fft",
    "build_flat_ldl_tree",
    "center_mod_q",
    "compress",
    "decode_public_key",
    "decode_secret_key",
    "decode_signature",
    "decompress",
    "encode_public_key",
    "encode_secret_key",
    "encode_signature",
    "div_fft",
    "div_ntt",
    "falcon_params",
    "fft",
    "fft_array",
    "fft_points",
    "ff_sampling_batch",
    "derive_key_seed",
    "derive_shard_seed",
    "generate_keys",
    "gram_schmidt_norm_sq",
    "gram_schmidt_norms_batch",
    "hash_to_point",
    "ifft",
    "ifft_array",
    "intt",
    "intt_array",
    "is_invertible",
    "is_invertible_array",
    "load_secret_key",
    "make_base_sampler",
    "merge_fft",
    "merge_fft_array",
    "mul_fft",
    "mul_ntt",
    "mul_ntt_array",
    "mul_ntt_rows_array",
    "neg_fft",
    "ntru_solve",
    "ntt",
    "plan_rounds",
    "ntt_array",
    "reduce_basis",
    "round_ifft",
    "save_secret_key",
    "round_ifft_array",
    "sign_batch",
    "split_fft",
    "split_fft_array",
    "sub_fft",
    "verify_batch",
    "verify_batch_report",
]


@contextmanager
def _scalar_spine():
    """Run the scalar spine on a NumPy host within a ``with`` block.

    Hides NumPy from the five modules that pick a spine — signing and
    key loading, batch verification, keygen, the NTT products and the
    CDT block sampler — and restores it on exit.  Both spines give
    identical bytes; this exists so tests and benchmarks can force the
    route the platform would not take.
    """
    from importlib import import_module

    from ..baselines import cdt
    from . import batchverify, ntrugen, scheme

    # The package attribute ``ntt`` is the function, not the module.
    ntt = import_module(".ntt", __name__)
    modules = (scheme, batchverify, ntrugen, ntt, cdt)
    saved = [module._np for module in modules]
    for module in modules:
        module._np = None
    try:
        yield
    finally:
        for module, value in zip(modules, saved):
            module._np = value
