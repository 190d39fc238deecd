"""Sharded key stores: consistent hashing over per-shard pools.

A serving deployment partitions its key pools so provisioning,
rotation and refill scale horizontally: each shard is a full
:class:`~repro.falcon.keystore.KeyStore` (its own directory, manifest,
lock file and watermark refill), and tenants map onto shards through a
consistent-hash ring, so adding shards moves only ``1/shards`` of the
tenant space.

Shard master seeds derive from ``(master_seed, shard)`` via SHA-256 —
two shards of one deployment can never derive the same per-slot seed,
so no key material is ever duplicated across shards (asserted by the
serving test suite's duplicate-issuance stress test).

:class:`ShardedKeyStore` is the one custodian of tenant keys: a
tenant's key is one checkout of its home shard, and every other place
that signs for the tenant (a fallback shard, a pool worker) loads that
same key from its encoding, with a signing stream of its own.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from hashlib import sha256
from pathlib import Path
from typing import Sequence

from .. import serialize
from ..keystore import KeyStore
from ..scheme import PublicKey, SecretKey, sign_batch


def derive_shard_seed(master_seed: int | bytes, shard: int) -> bytes:
    """Deterministic 32-byte master seed for one shard.

    Distinct from every :func:`~repro.falcon.keystore.derive_key_seed`
    output domain (different prefix), so shard seeds and slot seeds
    can never collide either.
    """
    if isinstance(master_seed, int):
        master = b"%d" % master_seed
    else:
        master = bytes(master_seed)
    return sha256(b"falcon-shard|%b|%d" % (master, shard)).digest()


def sign_tenant_lanes(checkout, tenants: Sequence[str],
                      messages: Sequence[bytes], sign=sign_batch) -> list:
    """Sign one merged round: lane ``i`` is ``messages[i]`` under
    ``tenants[i]``'s key.

    ``checkout(tenant)`` returns a tenant's key; it runs once per
    tenant, in first-arrival order, and a checkout that raises fails
    only that tenant's lanes — their results are the exception.  Every
    other lane rides one ``sign([(key, message), ...])`` call — by
    default :func:`~repro.falcon.scheme.sign_batch` in this process,
    so each tenant's signatures equal its own ``sign_many`` over its
    lanes in arrival order; an exception there fails the whole round.
    Returns one ``Signature`` or exception per lane.
    """
    keys: dict = {}
    failed: dict = {}
    for tenant in dict.fromkeys(tenants):
        try:
            keys[tenant] = checkout(tenant)
        except Exception as error:  # isolate the tenant, not the round
            failed[tenant] = error
    lanes = [(keys[tenant], message)
             for tenant, message in zip(tenants, messages)
             if tenant in keys]
    signed = iter(sign(lanes) if lanes else ())
    return [failed[tenant] if tenant in failed else next(signed)
            for tenant in tenants]


def _tenant_bytes(tenant: str | bytes) -> bytes:
    return tenant.encode() if isinstance(tenant, str) else bytes(tenant)


class ConsistentHashRing:
    """SHA-256 consistent-hash ring with virtual nodes.

    Each shard owns ``replicas`` points on a 64-bit ring; a tenant
    maps to the first point clockwise of its own hash.  The mapping is
    a pure function of ``(shards, replicas, tenant)`` — restarts and
    rebalances are deterministic, and growing the ring from ``s`` to
    ``s + 1`` shards relocates only the tenants whose arc the new
    shard's points split.
    """

    def __init__(self, shards: int, replicas: int = 64) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        if replicas < 1:
            raise ValueError("need at least one replica per shard")
        self.shards = shards
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for shard in range(shards):
            for replica in range(replicas):
                digest = sha256(b"falcon-ring|%d|%d"
                                % (shard, replica)).digest()
                points.append((int.from_bytes(digest[:8], "big"), shard))
        points.sort()
        self._hashes = [point for point, _ in points]
        self._owners = [shard for _, shard in points]

    def shard_for(self, tenant: str | bytes) -> int:
        """The shard owning ``tenant`` (first ring point clockwise)."""
        return self.preference(tenant)[0]

    def preference(self, tenant: str | bytes) -> list[int]:
        """All shards in failover order for ``tenant``.

        The home shard first, then each further shard in the order its
        first ring point appears clockwise — the standard consistent-
        hash replica walk, so failover targets are as stable under
        ring growth as primary ownership is.
        """
        digest = sha256(b"falcon-tenant|%b"
                        % _tenant_bytes(tenant)).digest()
        point = int.from_bytes(digest[:8], "big")
        start = bisect_right(self._hashes, point) % len(self._hashes)
        order: list[int] = []
        seen: set[int] = set()
        for step in range(len(self._owners)):
            owner = self._owners[(start + step) % len(self._owners)]
            if owner not in seen:
                seen.add(owner)
                order.append(owner)
                if len(order) == self.shards:
                    break
        return order


class ShardedKeyStore:
    """Tenant-facing façade over ``shards`` independent key stores.

    Construction mirrors :class:`~repro.falcon.keystore.KeyStore`
    (every keyword flows through to the per-shard stores); with a
    ``directory``, each shard persists under ``directory/shard-NN``.

    Key custody: a tenant's key is one rotation-fenced checkout of its
    home shard (:meth:`signer`).  :meth:`signer_on` — the serving
    plane's one signer cache — gives every shard a tenant's rounds run
    on its own load of that key (on the home shard, the custody key
    itself), and :meth:`encoded_secret_key` is the key's canonical
    encoding, from which fallback shards and pool workers load it.  So
    a tenant signs under its one published key wherever its round
    runs, while sharing that shard's batched pipeline.
    :meth:`public_key` serves verify rounds from a checkout-free cache;
    :meth:`cached_public_key` reads that cache alone.
    """

    def __init__(self, directory: str | Path | None = None, *,
                 shards: int = 2,
                 replicas: int = 64,
                 master_seed: int | bytes = 0,
                 **store_kwargs) -> None:
        base = Path(directory) if directory is not None else None
        self.ring = ConsistentHashRing(shards, replicas)
        self.master_seed = master_seed
        self.stores = [
            KeyStore(base / f"shard-{shard:02d}" if base is not None
                     else None,
                     master_seed=derive_shard_seed(master_seed, shard),
                     **store_kwargs)
            for shard in range(shards)]
        self._signers: dict[tuple[str, int, int], SecretKey] = {}
        self._signer_guards: dict[tuple[str, int, int],
                                  threading.Lock] = {}
        self._signer_lock = threading.Lock()
        # Custody encodings: (tenant, n) -> (custody key, its encoding).
        self._encodings: dict[tuple[str, int],
                              tuple[SecretKey, bytes]] = {}
        # Verify-plane cache: (tenant, n) -> PublicKey.  Shard-
        # agnostic on purpose — a verify round needs no secret key,
        # no slot claim and no cohort fence, so once populated it
        # never touches the keystore again (and verify load can never
        # contend checkouts with sign load).
        self._public_keys: dict[tuple[str, int], PublicKey] = {}
        self._pk_lock = threading.Lock()

    @property
    def shards(self) -> int:
        return len(self.stores)

    # -- mapping -----------------------------------------------------------

    def shard_for(self, tenant: str | bytes) -> int:
        return self.ring.shard_for(tenant)

    def shard_preference(self, tenant: str | bytes) -> list[int]:
        """Failover order for ``tenant`` (home shard first)."""
        return self.ring.preference(tenant)

    # -- provisioning ------------------------------------------------------

    def generate_ahead(self, n: int, count_per_shard: int) -> int:
        """Provision ``count_per_shard`` keys on every shard."""
        total = 0
        for store in self.stores:
            total += store.generate_ahead(n, count_per_shard)
        return total

    def available(self, n: int) -> int:
        """Ready keys across all shards."""
        return sum(store.available(n) for store in self.stores)

    def rotate(self, n: int, regenerate: int | None = None) -> int:
        """Rotate the degree-``n`` cohort on every shard; cached
        per-tenant signers and encodings of that degree are dropped so
        the next checkout serves the fresh generation."""
        retired = sum(store.rotate(n, regenerate=regenerate)
                      for store in self.stores)
        with self._signer_lock:
            for cache in (self._signers, self._encodings):
                for key in [key for key in cache if key[1] == n]:
                    del cache[key]
        with self._pk_lock:
            for key in [key for key in self._public_keys
                        if key[1] == n]:
                del self._public_keys[key]
        return retired

    def join_refills(self, timeout: float | None = None) -> None:
        for store in self.stores:
            store.join_refills(timeout)

    def close(self) -> None:
        """Orderly shutdown of every shard store (refills joined,
        warm keygen process pools stopped)."""
        for store in self.stores:
            store.close()

    # -- serving -----------------------------------------------------------

    def signer(self, tenant: str | bytes, n: int) -> SecretKey:
        """The tenant's custody key: its home shard's load (see
        :meth:`signer_on`)."""
        return self.signer_on(self.shard_for(tenant), tenant, n)

    def signer_on(self, shard: int, tenant: str | bytes,
                  n: int) -> SecretKey:
        """The tenant's signing key on ``shard``: loaded on first use,
        cached per ``(tenant, n, shard)`` thereafter.

        On the home shard the load is the custody key, checked out of
        the home shard's store.  On any other shard (a circuit breaker
        shed the tenant there) it is a separate load of the same key,
        decoded from :meth:`encoded_secret_key` with its own signing
        stream: a shed tenant signs under its published key, and two
        shards' round threads never share a sampler.

        Cold-cache loads are serialized per ``(tenant, n, shard)`` —
        concurrent first requests wait for one checkout instead of
        each burning a slot — and rotation-fenced: a load that a
        concurrent :meth:`rotate` retired mid-flight (its generation
        no longer current, or its custody key dropped) is discarded
        and retried, so a freshly rotated tenant can never be
        re-pinned to a retired cohort.
        """
        key = (_tenant_bytes(tenant).decode("latin-1"), n, shard)
        home = self.shard_for(tenant)
        with self._signer_lock:
            guard = self._signer_guards.setdefault(key, threading.Lock())
        with guard:
            while True:
                with self._signer_lock:
                    signer = self._signers.get(key)
                if signer is not None:
                    break
                if shard == home:
                    store = self.stores[shard]
                    acquired, generation = store.checkout_current(n)
                    current = lambda: store.generation(n) == generation
                else:
                    custody = self.signer(tenant, n)
                    acquired = serialize.decode_secret_key(
                        self.encoded_secret_key(tenant, n),
                        prng=self.stores[shard].prng)
                    current = lambda: self._signers.get(
                        (key[0], n, home)) is custody
                with self._signer_lock:
                    if current():
                        signer = self._signers.setdefault(key, acquired)
                        break
        if shard == home:
            # Sign traffic warms the verify plane: the custody key is
            # the tenant's identity, so its public half feeds the
            # checkout-free verify cache.
            with self._pk_lock:
                self._public_keys.setdefault((key[0], n),
                                             signer.public_key)
        return signer

    def encoded_secret_key(self, tenant: str | bytes, n: int) -> bytes:
        """The canonical encoding of the tenant's custody key, which
        fallback shards and pool workers load the key from; encoded
        once per key, on first use, and dropped by :meth:`rotate`."""
        custody = self.signer(tenant, n)
        cache_key = (_tenant_bytes(tenant).decode("latin-1"), n)
        with self._signer_lock:
            cached = self._encodings.get(cache_key)
        if cached is None or cached[0] is not custody:
            cached = (custody, serialize.encode_secret_key(custody))
            with self._signer_lock:
                self._encodings[cache_key] = cached
        return cached[1]

    def cached_public_key(self, tenant: str | bytes,
                          n: int) -> PublicKey | None:
        """The tenant's verification key if the verify-plane cache
        holds it, else None.  Never checks a key out, so it is safe to
        call from the event loop."""
        cache_key = (_tenant_bytes(tenant).decode("latin-1"), n)
        with self._pk_lock:
            return self._public_keys.get(cache_key)

    def public_key(self, tenant: str | bytes, n: int) -> PublicKey:
        """The tenant's verification key, without keystore contention.

        Served from the verify-plane cache when warm (no checkout, no
        cohort fencing, no slot claim — verify rounds stay off the
        keystore entirely).  A cold tenant costs exactly one home-
        shard signer checkout to learn its key pair; every later
        verify reuses the cached public half and its precomputed
        ``ntt(h)`` row.
        """
        public_key = self.cached_public_key(tenant, n)
        if public_key is not None:
            return public_key
        return self.signer(tenant, n).public_key

    # -- metrics -----------------------------------------------------------

    def stats(self) -> dict:
        """Aggregated metrics snapshot: per-shard stores plus totals
        (pool depth, checkout counts, refill latency, generations)."""
        per_shard = [store.stats() for store in self.stores]
        # Under the lock: a round thread may insert a signer while
        # this runs.  A tenant checked out on its home and a fallback
        # shard (what a breaker shed does) counts once.
        with self._signer_lock:
            tenants = {tenant for tenant, _n, _shard in self._signers}
        totals = {
            "generated": sum(s.generated for s in per_shard),
            "served": sum(s.served for s in per_shard),
            "refills": sum(s.refills for s in per_shard),
            "watermark_triggers": sum(s.watermark_triggers
                                      for s in per_shard),
            "retired": sum(s.retired for s in per_shard),
            "available": {},
            "tenants_checked_out": len(tenants),
            "public_keys_cached": len(self._public_keys),
        }
        for snapshot in per_shard:
            for n, depth in snapshot.available.items():
                totals["available"][n] = \
                    totals["available"].get(n, 0) + depth
        return {
            "shards": [s.as_dict() for s in per_shard],
            "totals": totals,
        }
