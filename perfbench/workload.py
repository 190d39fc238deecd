"""Seeded workload definitions and input generation.

Everything a run sends is a pure function of ``(workload, seed)``:
message bytes, the tenant each request belongs to, which records are
tampered, and the order verify requests walk the record pool.  The
serving plane receives only these generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

#: Falcon-512, the deployed parameter set.
DEGREE = 512
#: Closed loop: requests kept in flight, and loopback connections they
#: are pipelined over (one per core of the 2-core reference runner).
IN_FLIGHT = 32
CONNECTIONS = 2
#: Service defaults the plane runs with (named here so the report can
#: state them; they equal ``SigningService``'s own defaults).
SHARDS = 2
MAX_BATCH = 32
MAX_WAIT = 0.002
#: Ledger phase: records per block; one pool record in TAMPER_EVERY is
#: tampered (verify must say false, the ledger must reject it).
BLOCK_RECORDS = 64
TAMPER_EVERY = 16
#: The record pool: 4 records from each of 64 tenants (256 records).
POOL_TENANTS = 64
POOL_PER_TENANT = 4
MESSAGE_BYTES = 48


@dataclass(frozen=True)
class Workload:
    name: str
    tenants: int
    #: "sign" or "verify": the operation phase A sends over the wire.
    kind: str
    why: str


WORKLOADS = {
    "sign-hot": Workload(
        "sign-hot", 2, "sign",
        "2 tenants, so sign rounds fill to ~16 lanes: the batched "
        "sampling spine (base-sampler refill, SamplerZ, PRNG) dominates"),
    "sign-fanout": Workload(
        "sign-fanout", 64, "sign",
        "64 tenants share the same 32 in flight, so rounds hold 1-2 "
        "lanes: per-round and per-node fixed costs dominate"),
    "verify-ledger": Workload(
        "verify-ledger", 64, "verify",
        "verify requests over a pre-signed 64-key pool (1 in 16 "
        "tampered) merge into cross-tenant verify rounds: wire and "
        "service dominate, no sampler work at all"),
}


def tenant_name(index: int) -> str:
    return f"tenant-{index:02d}"


def key_seed(seed: int) -> int:
    """Master seed of the run's key universe (a function of the seed)."""
    return 1_000_003 * seed + 17


def _digest(*parts) -> bytes:
    material = "|".join(str(part) for part in parts).encode()
    return hashlib.sha256(material).digest()


def tenant_token(seed: int, tenant: str) -> bytes:
    return _digest("perfbench-token", seed, tenant)[:16]


def request(workload: Workload, seed: int, index: int) -> tuple[str, bytes]:
    """``(tenant, message)`` of sign request ``index``.  Messages carry
    the request index, so every message of a run is distinct."""
    draw = _digest("perfbench-req", workload.name, seed, index)
    tenant = tenant_name(int.from_bytes(draw[:4], "big")
                         % workload.tenants)
    body = hashlib.shake_256(draw).digest(MESSAGE_BYTES - 12)
    return tenant, b"req%09d" % index + body


def is_tampered(seed: int, index: int) -> bool:
    """Seeded choice of exactly one record in each TAMPER_EVERY-run."""
    block, offset = divmod(index, TAMPER_EVERY)
    pick = int.from_bytes(_digest("perfbench-tamper", seed, block)[:4],
                          "big") % TAMPER_EVERY
    return offset == pick


def tamper(seed: int, index: int, message: bytes,
           salt: bytes) -> tuple[bytes, bytes]:
    """Corrupt a record so it must fail verification: flip one bit of
    the message or of the salt (the encoded signature stays
    well-formed, so the lane is rejected by the norm check, not by the
    wire decoder)."""
    draw = _digest("perfbench-flip", seed, index)
    if draw[0] & 1:
        position = draw[1] % len(message)
        message = (message[:position]
                   + bytes([message[position] ^ (1 << (draw[2] % 8))])
                   + message[position + 1:])
    else:
        position = draw[1] % len(salt)
        salt = (salt[:position]
                + bytes([salt[position] ^ (1 << (draw[2] % 8))])
                + salt[position + 1:])
    return message, salt


def verify_order(seed: int, pool_size: int, count: int) -> list[int]:
    """Pool indices the verify requests walk: seeded permutations of
    the pool, concatenated until ``count`` indices exist."""
    import random

    rng = random.Random(seed * 7919 + 1)
    order: list[int] = []
    while len(order) < count:
        round_ = list(range(pool_size))
        rng.shuffle(round_)
        order.extend(round_)
    return order[:count]


# -- the record pool ----------------------------------------------------

def pool_path(root: Path, seed: int) -> Path:
    return root / ".perfbench" / f"pool-n{DEGREE}-s{seed}.json"


def build_pool(seed: int) -> dict:
    """Sign the record pool with the run's own 64-key universe.

    The pool feeds verify-ledger's wire requests and every workload's
    ledger phase.  Keys come from a ``ShardedKeyStore`` over
    :func:`key_seed`, checked out tenant by tenant in index order,
    exactly as the plane's set-up does, so every tenant holds the same
    key in both.  Ground truth is taken from per-key
    ``PublicKey.verify``; tampered records must be false under it.
    """
    from repro.falcon.scheme import Signature
    from repro.falcon.serialize import encode_public_key
    from repro.falcon.serving import ShardedKeyStore

    store = ShardedKeyStore(shards=SHARDS, master_seed=key_seed(seed))
    records = []
    public_keys = {}
    try:
        for tenant_index in range(POOL_TENANTS):
            tenant = tenant_name(tenant_index)
            signer = store.signer(tenant, DEGREE)
            public_keys[tenant] = encode_public_key(
                signer.public_key).hex()
            messages = [
                b"pool%06d" % (tenant_index * POOL_PER_TENANT + k)
                + hashlib.shake_256(_digest("perfbench-pool", seed,
                                            tenant, k)).digest(
                    MESSAGE_BYTES - 10)
                for k in range(POOL_PER_TENANT)]
            for message, signature in zip(messages,
                                          signer.sign_many(messages)):
                index = len(records)
                salt = signature.salt
                tampered = is_tampered(seed, index)
                if tampered:
                    message, salt = tamper(seed, index, message, salt)
                truth = signer.public_key.verify(
                    message, Signature(salt=salt,
                                       compressed=signature.compressed))
                if truth == tampered:
                    raise RuntimeError(
                        f"pool record {index}: ground truth {truth} "
                        f"disagrees with tampered={tampered}")
                records.append({"tenant": tenant,
                                "message": message.hex(),
                                "salt": salt.hex(),
                                "compressed": signature.compressed.hex(),
                                "valid": truth})
    finally:
        store.close()
    return {"seed": seed, "n": DEGREE, "public_keys": public_keys,
            "records": records}


def load_pool(root: Path, seed: int) -> dict:
    """The cached pool for ``seed`` (built in a child process on first
    use, so the serving process's memory and setup stay untouched)."""
    path = pool_path(root, seed)
    if not path.exists():
        import subprocess
        import sys

        path.parent.mkdir(parents=True, exist_ok=True)
        subprocess.run(
            [sys.executable, str(Path(__file__).with_name("run.py")),
             "--build-pool", "--seed", str(seed)],
            cwd=root, check=True, timeout=170)
    return json.loads(path.read_text())


def write_pool(root: Path, seed: int) -> None:
    pool = build_pool(seed)
    path = pool_path(root, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    scratch = path.with_suffix(f".tmp{os.getpid()}")
    scratch.write_text(json.dumps(pool))
    scratch.replace(path)
