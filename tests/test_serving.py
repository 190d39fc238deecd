"""Serving-layer tests: sharding, coalescing, back-pressure, CT.

Pure stdlib asyncio + pytest (no pytest-asyncio): every async test
drives its own ``asyncio.run``.
"""

import asyncio
import copy
import sys
import threading

import pytest

from repro.ct import T_THRESHOLD, audit_coalescing, round_shape_trace
from repro.falcon import HAVE_NUMPY, KeyStore
from repro.falcon.serving import (
    ConsistentHashRing,
    ShardedKeyStore,
    ShardWorkerPool,
    SigningService,
    derive_shard_seed,
    plan_rounds,
)
from repro.falcon.serving import service as service_module


# -- consistent hashing ------------------------------------------------------

def test_ring_is_deterministic_across_instances():
    first = ConsistentHashRing(4)
    second = ConsistentHashRing(4)
    for i in range(50):
        tenant = f"tenant-{i}"
        assert first.shard_for(tenant) == second.shard_for(tenant)


def test_ring_covers_every_shard():
    ring = ConsistentHashRing(3)
    owners = {ring.shard_for(f"tenant-{i}") for i in range(200)}
    assert owners == {0, 1, 2}


def test_ring_growth_moves_only_a_fraction():
    before = ConsistentHashRing(3)
    after = ConsistentHashRing(4)
    tenants = [f"tenant-{i}" for i in range(400)]
    moved = sum(before.shard_for(t) != after.shard_for(t)
                for t in tenants)
    # Consistent hashing: growing 3 -> 4 shards should move roughly
    # 1/4 of tenants, never the bulk of them (modulo hashing would
    # move ~3/4).
    assert 0 < moved < len(tenants) // 2


def test_ring_validation():
    with pytest.raises(ValueError):
        ConsistentHashRing(0)
    with pytest.raises(ValueError):
        ConsistentHashRing(2, replicas=0)


def test_shard_seeds_distinct_from_each_other_and_key_seeds():
    from repro.falcon import derive_key_seed

    seeds = {derive_shard_seed(7, shard) for shard in range(8)}
    assert len(seeds) == 8
    assert derive_key_seed(7, 8, 0) not in seeds


# -- sharded store -----------------------------------------------------------

def test_tenants_route_to_stable_shards():
    store = ShardedKeyStore(shards=2, master_seed=1)
    twin = ShardedKeyStore(shards=2, master_seed=1)
    for i in range(20):
        tenant = f"tenant-{i}"
        assert store.shard_for(tenant) == twin.shard_for(tenant) \
            == store.shard_preference(tenant)[0]


def test_per_tenant_signers_are_cached_and_distinct():
    store = ShardedKeyStore(shards=2, master_seed=2)
    alpha = store.signer("alpha", 8)
    beta = store.signer("beta", 8)
    assert store.signer("alpha", 8) is alpha  # cached checkout
    assert alpha.keys.f != beta.keys.f        # dedicated keys


def test_served_signers_sign_from_private_key_derived_streams():
    """Every served key signs from its own stream, seeded by fresh
    entropy and its key material — never from the library's public
    all-zero default — and the store's ``prng`` reaches signing, not
    just keygen."""
    from repro.falcon import decode_secret_key, encode_secret_key
    from repro.rng import ChaChaSource, ShakeSource

    store = ShardedKeyStore(shards=2, master_seed=6)
    signers = [store.signer(tenant, 8) for tenant in ("tenant-00",
                                                      "tenant-01")]
    heads = [signer.source.read_bytes(64) for signer in signers]
    assert heads[0] != heads[1]
    assert ChaChaSource(0).read_bytes(64) not in heads
    for signer in signers:
        assert signer.base_sampler.source is signer.source

    # Every decode is a new load with a stream of its own: two loads
    # of one key (two shards, a respawned worker, a restarted
    # process) never sign with the same salt.
    encoded = encode_secret_key(signers[0])
    assert decode_secret_key(encoded).source.read_bytes(64) != \
        decode_secret_key(encoded).source.read_bytes(64)

    shake = KeyStore(master_seed=6, prng="shake256")
    assert isinstance(shake.acquire(8).source, ShakeSource)
    assert isinstance(shake.peek(8).source, ShakeSource)


def test_signers_refill_in_fused_passes_on_the_auto_engine():
    """Every signer the plane hands out draws from the pooled
    bitsliced sampler: fused multi-batch refills of Python-int words,
    whether or not NumPy is installed."""
    from repro.falcon import SecretKey

    signers = [SecretKey.generate(n=8, seed=3),
               KeyStore(master_seed=3).acquire(8),
               ShardedKeyStore(shards=2, master_seed=3).signer("t", 8)]
    for signer in signers:
        inner = signer.base_sampler.inner
        assert inner.prefetch_batches > 1
        assert inner.engine.name == "bigint"


def test_shed_load_signs_under_the_tenant_key_from_its_own_stream():
    """Off its home shard a tenant signs with a separate load of its
    one key: the same key pair, published by ``public_key``, but its
    own stream, so the two loads never repeat a salt.  A rotation
    drops both loads."""
    store = ShardedKeyStore(shards=2, master_seed=21)
    home = store.shard_for("tenant-s")
    other = 1 - home
    custody = store.signer("tenant-s", 8)
    shed = store.signer_on(other, "tenant-s", 8)
    assert shed is not custody
    assert store.signer_on(other, "tenant-s", 8) is shed  # cached
    assert shed.keys.f == custody.keys.f
    message = b"pay alice 10"
    signatures = [custody.sign(message), shed.sign(message)]
    assert signatures[0].salt != signatures[1].salt
    published = store.public_key("tenant-s", 8)
    assert published.verify_many([message] * 2, signatures) == [True] * 2
    assert store.stats()["totals"]["served"] == 1  # the custody only

    store.rotate(8)
    fresh = store.signer_on(other, "tenant-s", 8).sign(message)
    assert store.public_key("tenant-s", 8).verify(message, fresh)
    assert not published.verify(message, fresh)


def test_no_duplicate_key_material_across_shards():
    store = ShardedKeyStore(shards=3, master_seed=3)
    store.generate_ahead(8, 2)
    issued = [tuple(shard_store.acquire(8).keys.f)
              for shard_store in store.stores for _ in range(2)]
    assert len(set(issued)) == len(issued)


def test_sharded_store_persists_per_shard(tmp_path):
    store = ShardedKeyStore(tmp_path, shards=2, master_seed=4)
    store.generate_ahead(8, 1)
    assert (tmp_path / "shard-00").is_dir()
    assert (tmp_path / "shard-01").is_dir()
    restarted = ShardedKeyStore(tmp_path, shards=2, master_seed=4)
    assert restarted.available(8) == 2
    # Concurrent instances race their checkouts through atomic file
    # claims: the same tenant on two live stores gets two DIFFERENT
    # keys — persisted slots are never double-issued.
    a = store.signer("tenant-x", 8)
    b = restarted.signer("tenant-x", 8)
    assert a.keys.f != b.keys.f


def test_sharded_rotate_drops_tenant_signers():
    store = ShardedKeyStore(shards=2, master_seed=5)
    old = store.signer("gamma", 8)
    retired = store.rotate(8)
    fresh = store.signer("gamma", 8)
    assert fresh is not old
    assert fresh.keys.f != old.keys.f
    assert retired >= 0
    assert all(s.generation(8) == 1 for s in store.stores)


def test_sharded_stats_aggregate():
    store = ShardedKeyStore(shards=2, master_seed=6)
    store.generate_ahead(8, 1)
    store.signer("t0", 8)
    snapshot = store.stats()
    assert len(snapshot["shards"]) == 2
    assert snapshot["totals"]["generated"] >= 2
    assert snapshot["totals"]["served"] == 1
    assert snapshot["totals"]["tenants_checked_out"] == 1


def test_stats_snapshot_survives_concurrent_checkouts():
    """stats() snapshots the signer cache under its lock while other
    threads insert into it.  More checkout threads than cores and a
    short switch interval: no snapshot raises, and every tenant counts
    once although each is checked out on both shards (what a breaker
    shed does)."""
    store = ShardedKeyStore(shards=2, master_seed=19)
    tenants = [f"race-{i}" for i in range(24)]
    store.generate_ahead(8, len(tenants))
    errors: list[Exception] = []
    done = threading.Event()

    def check_out(offset: int) -> None:
        try:
            for index, tenant in enumerate(tenants):
                store.signer_on((index + offset) % 2, tenant, 8)
        except Exception as error:
            errors.append(error)

    def snapshot() -> None:
        try:
            while not done.is_set():
                store.stats()
        except Exception as error:
            errors.append(error)

    workers = [threading.Thread(target=check_out, args=(offset,))
               for offset in range(4)]
    reader = threading.Thread(target=snapshot)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        reader.start()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        done.set()
        reader.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers + [reader])
    assert errors == []
    assert store.stats()["totals"]["tenants_checked_out"] == len(tenants)


def test_sign_and_verify_many_through_store():
    store = ShardedKeyStore(shards=2, master_seed=7)
    messages = [b"m0", b"m1", b"m2"]
    signatures = store.signer("tenant", 8).sign_many(messages)
    assert store.public_key("tenant", 8).verify_many(
        messages, signatures) == [True, True, True]


def test_public_key_cache_skips_signer_checkout():
    """The verify plane stays off the keystore: a cold tenant costs
    exactly one checkout to learn its key, and every later
    ``public_key`` is served from the cache."""
    store = ShardedKeyStore(shards=2, master_seed=8)
    cold = store.public_key("tenant-v", 8)
    assert store.stats()["totals"]["served"] == 1
    for _ in range(3):
        assert store.public_key("tenant-v", 8) is cold
    message = b"cache-check"
    signature = store.signer("tenant-v", 8).sign(message)
    assert store.public_key("tenant-v", 8).verify_many(
        [message], [signature]) == [True]
    snapshot = store.stats()["totals"]
    assert snapshot["served"] == 1  # still just the cold checkout
    assert snapshot["tenants_checked_out"] == 1


def test_sign_traffic_warms_the_verify_cache():
    store = ShardedKeyStore(shards=2, master_seed=9)
    signer = store.signer("tenant-w", 8)
    assert store.stats()["totals"]["served"] == 1
    # The sign checkout's public half feeds the verify plane: no
    # second checkout for the verify key.
    assert store.public_key("tenant-w", 8) is signer.public_key
    assert store.stats()["totals"]["served"] == 1


# -- round planning ----------------------------------------------------------

def test_plan_rounds_groups_by_kind_in_arrival_order():
    """Lanes of one kind share a round whatever their tenants; rounds
    come in first-arrival order and lanes keep arrival order."""
    plans = plan_rounds([("a", "sign"), ("b", "sign"), ("a", "sign"),
                         ("a", "verify"), ("b", "sign"),
                         ("b", "verify")], 8)
    assert [(p.kind, p.lanes) for p in plans] == [
        ("sign", (0, 1, 2, 4)),
        ("verify", (3, 5)),
    ]


def test_plan_rounds_merges_verify_lanes_across_tenants():
    """Every verify lane — any tenant — shares one round, as sign
    lanes do."""
    arrivals = [("a", "sign"), ("b", "verify"), ("a", "verify"),
                ("b", "sign"), ("c", "verify")]
    assert [(p.kind, p.lanes) for p in plan_rounds(arrivals, 8)] == [
        ("sign", (0, 3)),
        ("verify", (1, 2, 4)),
    ]


def test_plan_rounds_merged_sign_chunks_at_max_batch():
    arrivals = [("t%d" % (i % 3), "sign") for i in range(5)]
    assert [p.lanes for p in plan_rounds(arrivals, 2)] == [
        (0, 1), (2, 3), (4,)]


def test_plan_rounds_merged_verify_still_chunks_at_max_batch():
    arrivals = [("t%d" % i, "verify") for i in range(5)]
    assert [p.lanes for p in plan_rounds(arrivals, 2)] == [
        (0, 1), (2, 3), (4,)]


def test_plan_rounds_chunks_at_max_batch():
    plans = plan_rounds([("a", "sign")] * 5, 2)
    assert [p.lanes for p in plans] == [(0, 1), (2, 3), (4,)]


def test_plan_rounds_validation():
    with pytest.raises(ValueError):
        plan_rounds([("a", "sign")], 0)


# -- the coalescing service --------------------------------------------------

async def _sign_each(service, tenant, messages):
    """One concurrent ``sign`` per message, results in message order."""
    return await asyncio.gather(*[service.sign(tenant, message)
                                  for message in messages])


def _record_rounds(service) -> list[tuple[int, str, int]]:
    """Record each round's ``(shard, kind, lanes)`` as the service runs
    it, by wrapping the instance's ``_run_one_round``."""
    rounds = []
    run_one_round = service._run_one_round

    async def recorded(shard, plan, requests):
        rounds.append((shard, plan.kind, len(requests)))
        await run_one_round(shard, plan, requests)

    service._run_one_round = recorded
    return rounds


def _sign_all(service_kwargs, store, messages, tenant="tenant-a"):
    async def drive():
        async with SigningService(store, **service_kwargs) as service:
            return await _sign_each(service, tenant, messages)
    return asyncio.run(drive())


def test_service_sign_verify_round_trip():
    async def drive():
        store = ShardedKeyStore(shards=2, master_seed=10)
        messages = [b"round-trip-%d" % i for i in range(5)]
        async with SigningService(store, n=8, max_batch=8,
                                  max_wait=0.05) as service:
            signatures = await _sign_each(service, "tenant-a", messages)
            verdicts = await asyncio.gather(
                *[service.verify("tenant-a", m, s)
                  for m, s in zip(messages, signatures)])
        assert verdicts == [True] * 5
        assert service.metrics.signed == 5
        assert service.metrics.verified == 5
        assert service.metrics.rounds >= 2
    asyncio.run(drive())


def test_cross_tenant_merged_verify_keeps_per_tenant_verdicts():
    """Verify lanes from different tenants share rounds, and each lane
    still checks against its *own* tenant's key: swapping a signature
    across tenants fails."""
    async def drive():
        # One shard: both tenants drain through the same queue, so
        # their verify lanes can land in one merged round.
        store = ShardedKeyStore(shards=1, master_seed=14)
        async with SigningService(store, n=8, max_batch=16,
                                  max_wait=0.2) as service:
            rounds = _record_rounds(service)
            sig_a = await service.sign("tenant-a", b"from-a")
            sig_b = await service.sign("tenant-b", b"from-b")
            verdicts = await asyncio.gather(
                service.verify("tenant-a", b"from-a", sig_a),
                service.verify("tenant-b", b"from-b", sig_b),
                service.verify("tenant-b", b"from-a", sig_a),
                service.verify("tenant-a", b"from-b", sig_b))
        assert verdicts == [True, True, False, False]
        assert service.metrics.verified == 4  # lanes, not verdicts
        # The concurrent verify burst rode merged rounds: some round
        # carried lanes from more than one tenant (each tenant only
        # contributed 2 lanes, so any round bigger than that merged).
        verify_rounds = [size for _, kind, size in rounds
                         if kind == "verify"]
        assert sum(verify_rounds) == 4
        assert max(verify_rounds) > 2
    asyncio.run(drive())


def test_coalesced_signatures_byte_identical_to_direct_sign_many():
    """The acceptance criterion: one coalesced round == one direct
    ``sign_many`` call, byte for byte, by a copy of the served key
    taken before serving, in the same order."""
    messages = [b"identity-%d" % i for i in range(6)]
    store = ShardedKeyStore(shards=2, master_seed=11)
    twin = copy.deepcopy(store.signer("tenant-a", 8))
    coalesced = _sign_all(dict(n=8, max_batch=8, max_wait=0.2),
                          store, messages)
    direct = twin.sign_many(messages)
    assert [(s.salt, s.compressed) for s in coalesced] == \
        [(s.salt, s.compressed) for s in direct]


def test_multi_round_coalescing_matches_chunked_direct_calls():
    """Rounds split at max_batch: replaying the *same* chunking
    through direct ``sign_many`` calls on a copy of the served key
    reproduces the exact bytes."""
    messages = [b"chunk-%d" % i for i in range(7)]
    store = ShardedKeyStore(shards=1, master_seed=12)
    signer = copy.deepcopy(store.signer("tenant-a", 8))

    async def drive():
        service = SigningService(store, n=8, max_batch=3, max_wait=0.2)
        rounds = _record_rounds(service)
        async with service:
            signatures = await _sign_each(service, "tenant-a", messages)
        return signatures, [size for _, _, size in rounds]

    coalesced, round_sizes = asyncio.run(drive())
    assert sum(round_sizes) == len(messages)
    assert max(round_sizes) <= 3
    direct = []
    consumed = 0
    for size in round_sizes:
        direct.extend(signer.sign_many(messages[consumed:
                                                consumed + size]))
        consumed += size
    assert [(s.salt, s.compressed) for s in coalesced] == \
        [(s.salt, s.compressed) for s in direct]


def test_merged_sign_round_matches_direct_sign_many_per_tenant():
    """Sign lanes of three tenants on one shard share one round, and
    each tenant's signatures equal a direct ``sign_many`` over its own
    messages in arrival order, by a copy of its key taken before
    serving."""
    tenants = [f"tenant-{i % 3}" for i in range(8)]
    messages = [b"merged-%d" % i for i in range(8)]
    store = ShardedKeyStore(shards=1, master_seed=20)
    twins = {tenant: copy.deepcopy(store.signer(tenant, 8))
             for tenant in dict.fromkeys(tenants)}

    async def drive():
        service = SigningService(store, n=8, max_batch=16, max_wait=0.2)
        rounds = _record_rounds(service)
        async with service:
            signatures = await asyncio.gather(
                *[service.sign(t, m) for t, m in zip(tenants, messages)])
        return signatures, rounds

    signatures, round_log = asyncio.run(drive())
    assert round_log == [(0, "sign", 8)]
    for tenant, twin in twins.items():
        lanes = [i for i, t in enumerate(tenants) if t == tenant]
        direct = twin.sign_many([messages[i] for i in lanes])
        assert [(signatures[i].salt, signatures[i].compressed)
                for i in lanes] == [(s.salt, s.compressed) for s in direct]


def test_each_shard_runs_its_rounds_on_one_thread():
    """Concurrent rounds on a 2-shard service: every sign round of a
    shard runs on that shard's one round thread.  A shared pool would
    hand a round submitted before the last one's thread was idle again
    to a second thread, with its own allocator arena."""
    store = ShardedKeyStore(shards=2, master_seed=13)
    names = [f"tenant-{i}" for i in range(32)]
    tenants = ([t for t in names if store.shard_for(t) == 0][:2]
               + [t for t in names if store.shard_for(t) == 1][:2])
    ran_on: dict[int, set] = {0: set(), 1: set()}
    checkout = store.signer_on

    def recording_checkout(shard, tenant, n):
        ran_on[shard].add(threading.current_thread().name)
        return checkout(shard, tenant, n)

    store.signer_on = recording_checkout

    async def drive():
        async with SigningService(store, n=8, max_batch=2,
                                  max_wait=0.0) as service:
            await asyncio.gather(
                *[service.sign(tenant, b"thread-%d" % i)
                  for i in range(12) for tenant in tenants])
        assert service.metrics.rounds >= 24

    asyncio.run(drive())
    assert all(len(threads) == 1 for threads in ran_on.values())
    assert ran_on[0] != ran_on[1]


# -- where verify rounds run -------------------------------------------------

def _record_verify_threads(monkeypatch) -> list:
    """Patch the service module's ``verify_batch`` to record the thread
    of every verify round this process runs."""
    threads: list = []
    real = service_module.verify_batch

    def recording(items):
        threads.append(threading.get_ident())
        return real(items)

    monkeypatch.setattr(service_module, "verify_batch", recording)
    return threads


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="only NumPy-spine verify rounds run on the loop")
def test_warm_verify_rounds_run_on_the_event_loop(monkeypatch):
    """A NumPy-spine verify round whose public keys are all cached runs
    on the event loop's own thread, on both shards, with the verdicts
    of the threaded path (a tampered lane still fails)."""
    store = ShardedKeyStore(shards=2, master_seed=17)
    tenants = [f"tenant-{i}" for i in range(6)]
    assert {store.shard_for(t) for t in tenants} == {0, 1}
    lanes = []
    for tenant in tenants:  # signing warms each tenant's public key
        message = b"on-loop " + tenant.encode()
        lanes.append((tenant, message,
                      store.signer(tenant, 8).sign(message)))
    lanes.append((tenants[0], b"tampered", lanes[0][2]))
    threads = _record_verify_threads(monkeypatch)

    async def drive():
        async with SigningService(store, n=8, max_batch=32,
                                  max_wait=0.05) as service:
            verdicts = await asyncio.gather(
                *[service.verify(*lane) for lane in lanes])
        return threading.get_ident(), verdicts, service.metrics

    loop_thread, verdicts, metrics = asyncio.run(drive())
    assert verdicts == [True] * len(tenants) + [False]
    assert metrics.verified == len(lanes)
    assert threads and set(threads) == {loop_thread}


def test_cold_tenant_verify_checks_its_key_out_off_the_loop(spine):
    """A tenant whose public key is not cached yet: its first verify
    learns the key with one home-shard checkout on the round thread,
    never on the event loop, and gets the right verdicts."""
    message = b"cold start"
    twin = ShardedKeyStore(shards=2, master_seed=18)
    signature = twin.signer("tenant-cold", 8).sign(message)
    store = ShardedKeyStore(shards=2, master_seed=18)  # same keys, cold
    assert store.cached_public_key("tenant-cold", 8) is None
    checkout_threads: list = []
    checkout = store.signer_on

    def recording_checkout(shard, tenant, n):
        checkout_threads.append(threading.get_ident())
        return checkout(shard, tenant, n)

    store.signer_on = recording_checkout

    async def drive():
        async with SigningService(store, n=8, max_wait=0.0) as service:
            first = await service.verify("tenant-cold", message,
                                         signature)
            forged = await service.verify("tenant-cold", b"forged",
                                          signature)
        return threading.get_ident(), first, forged

    loop_thread, first, forged = asyncio.run(drive())
    assert (first, forged) == (True, False)
    assert checkout_threads and loop_thread not in checkout_threads
    assert store.cached_public_key("tenant-cold", 8) is not None


def test_scalar_spine_verify_rounds_stay_off_the_loop(monkeypatch,
                                                      scalar_spine):
    """Scalar-spine verify rounds are too slow for the loop (a 16-lane
    n=512 round takes tens of milliseconds): warm ones still run on
    the round thread."""
    store = ShardedKeyStore(shards=1, master_seed=19)
    message = b"scalar"
    signature = store.signer("tenant-s", 8).sign(message)
    threads = _record_verify_threads(monkeypatch)

    async def drive():
        async with SigningService(store, n=8, max_wait=0.0) as service:
            verdict = await service.verify("tenant-s", message, signature)
        return threading.get_ident(), verdict

    with scalar_spine():
        loop_thread, verdict = asyncio.run(drive())
    assert verdict
    assert threads and loop_thread not in threads


def test_worker_pool_verify_rounds_stay_off_the_loop(monkeypatch):
    """With a worker pool every round, verify too, is one IPC call
    from the shard's round thread; this process runs no verify."""
    store = ShardedKeyStore(shards=1, master_seed=21)
    message = b"pooled"
    signature = store.signer("tenant-p", 8).sign(message)
    threads = _record_verify_threads(monkeypatch)
    pool_threads: list = []

    async def drive():
        with ShardWorkerPool(store) as pool:
            run_round = pool.run_round

            def recording_run_round(*args, **kwargs):
                pool_threads.append(threading.get_ident())
                return run_round(*args, **kwargs)

            pool.run_round = recording_run_round
            async with SigningService(store, n=8, max_wait=0.0,
                                      worker_pool=pool) as service:
                verdict = await service.verify("tenant-p", message,
                                               signature)
        return threading.get_ident(), verdict

    loop_thread, verdict = asyncio.run(drive())
    assert verdict
    assert threads == []
    assert pool_threads and loop_thread not in pool_threads


def test_back_pressure_bounded_queue():
    """A full shard queue suspends producers instead of buffering:
    the observed high-water mark never exceeds the configured depth
    and every request still completes."""
    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=13)
        store.signer("tenant-a", 8)  # pre-checkout: rounds are fast
        messages = [b"pressure-%d" % i for i in range(24)]
        async with SigningService(store, n=8, max_batch=4,
                                  max_wait=0.0,
                                  queue_depth=3) as service:
            signatures = await _sign_each(service, "tenant-a", messages)
        assert len(signatures) == 24
        assert service.metrics.queue_high_water <= 3
        assert service.metrics.requests == 24
    asyncio.run(drive())


def test_service_propagates_round_errors():
    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=14)
        async with SigningService(store, n=7) as service:  # invalid n
            with pytest.raises(Exception):
                await service.sign("tenant-a", b"boom")
    asyncio.run(drive())


def test_poisoned_round_fails_only_its_own_futures():
    """Satellite regression: one poisoned round among healthy ones in
    the same drained batch.  The poison tenant's signer checkout
    raises; exactly its awaiters see the error, every other round in
    the batch completes, and the shard worker keeps serving."""
    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=41)
        real_signer_on = store.signer_on

        def signer_on(shard, tenant, n):
            if tenant == "tenant-poison":
                raise RuntimeError("poisoned checkout")
            return real_signer_on(shard, tenant, n)

        store.signer_on = signer_on
        async with SigningService(store, n=8, max_batch=16,
                                  max_wait=0.2) as service:
            tenants = ["tenant-poison" if i % 3 == 0
                       else f"tenant-{i % 2}" for i in range(9)]
            results = await asyncio.gather(
                *[service.sign(tenant, b"mix-%d" % i)
                  for i, tenant in enumerate(tenants)],
                return_exceptions=True)
            for tenant, result in zip(tenants, results):
                if tenant == "tenant-poison":
                    assert isinstance(result, RuntimeError)
                else:
                    assert result.salt  # a real signature
            # The shard worker survived the poison round.
            follow_up = await service.sign("tenant-0", b"after")
            assert follow_up.salt
        assert service.metrics.signed == 7  # 6 healthy + follow-up
    asyncio.run(drive())


def test_shard_worker_survives_round_machinery_failure():
    """Even an error escaping the round planner itself fails only the
    drained batch — the drain loop keeps serving later submissions."""
    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=42)
        async with SigningService(store, n=8,
                                  max_wait=0.0) as service:
            real_run_rounds = service._run_rounds
            blown = {"count": 0}

            async def flaky(shard, batch):
                if not blown["count"]:
                    blown["count"] += 1
                    raise RuntimeError("round machinery blew up")
                await real_run_rounds(shard, batch)

            service._run_rounds = flaky
            with pytest.raises(RuntimeError):
                await service.sign("tenant-a", b"doomed")
            signature = await service.sign("tenant-a", b"alive")
            assert signature.salt
    asyncio.run(drive())


def test_service_rejects_use_before_start_and_double_start():
    store = ShardedKeyStore(shards=1, master_seed=15)
    service = SigningService(store, n=8)
    with pytest.raises(RuntimeError):
        asyncio.run(service.sign("tenant-a", b"early"))

    async def double():
        async with SigningService(store, n=8) as running:
            with pytest.raises(RuntimeError):
                await running.start()
    asyncio.run(double())


def test_service_knob_validation():
    store = ShardedKeyStore(shards=1, master_seed=16)
    with pytest.raises(ValueError):
        SigningService(store, max_batch=0)
    with pytest.raises(ValueError):
        SigningService(store, max_wait=-1)
    with pytest.raises(ValueError):
        SigningService(store, queue_depth=0)
    with pytest.raises(ValueError):  # every shard has a breaker
        SigningService(store, breaker_failures=0)


def test_concurrency_stress_many_clients_many_tenants():
    """Satellite stress test: N async clients x M tenants against a
    2-shard store — every request served, no duplicate key issuance,
    queue bounded, all signatures valid under the right tenant key."""
    clients, tenants, per_client = 12, 6, 4

    async def drive():
        store = ShardedKeyStore(shards=2, master_seed=17,
                                low_watermark=1)
        service = SigningService(store, n=8, max_batch=8,
                                 max_wait=0.005, queue_depth=8)
        outcomes: list[tuple[str, bytes, object]] = []

        async def client(which: int) -> None:
            for i in range(per_client):
                tenant = f"tenant-{(which + i) % tenants}"
                message = b"stress-%d-%d" % (which, i)
                signature = await service.sign(tenant, message)
                outcomes.append((tenant, message, signature))

        async with service:
            await asyncio.gather(*[client(c) for c in range(clients)])

        assert len(outcomes) == clients * per_client
        assert service.metrics.queue_high_water <= 8
        # No duplicate issuance: every tenant signs under its own key,
        # and no two tenants ever received the same key material.
        issued = [tuple(store.signer(f"tenant-{t}", 8).keys.f)
                  for t in range(tenants)]
        assert len(set(issued)) == tenants
        # Every signature verifies under its tenant's key (and the
        # batched verify path agrees with per-request verdicts).
        for tenant, message, signature in outcomes:
            assert store.public_key(tenant, 8).verify_many(
                [message], [signature]) == [True]
        store.join_refills()

    asyncio.run(drive())


def test_stress_concurrent_acquires_threaded_store():
    """Direct store-level issuance race: concurrent threads draining
    one watermark-refilled store must never receive the same key."""
    store = KeyStore(master_seed=18, low_watermark=2)
    issued: list[tuple] = []
    lock = threading.Lock()

    def drain():
        for _ in range(5):
            key = store.acquire(8)
            with lock:
                issued.append(tuple(key.keys.f))

    threads = [threading.Thread(target=drain) for _ in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    store.join_refills()
    assert len(issued) == 15
    assert len(set(issued)) == 15


# -- constant-time batch composition ----------------------------------------

def test_round_shape_trace_ignores_message_bytes():
    arrivals = [("a", "sign"), ("b", "verify"), ("b", "sign"),
                ("a", "sign")]
    zero = round_shape_trace(arrivals, [b"\x00"] * 4, 4)
    secret = round_shape_trace(arrivals, [b"\xff", b"ab", b"s3", b""], 4)
    assert zero == secret == [3.0, 1.0]


def test_coalescing_audit_shows_no_leak():
    result = audit_coalescing()
    assert not result.leaking
    assert result.shapes_identical
    assert result.report.max_abs_t <= T_THRESHOLD


def test_live_service_round_shapes_secret_independent():
    """Two identical arrival patterns with different message contents
    produce identical round-shape multisets through the live service."""
    def shapes(fill: bytes) -> list[int]:
        async def drive():
            store = ShardedKeyStore(shards=2, master_seed=19)
            for t in range(3):
                store.signer(f"tenant-{t}", 8)
            service = SigningService(store, n=8, max_batch=4,
                                     max_wait=0.05)
            rounds = _record_rounds(service)
            async with service:
                await asyncio.gather(*[
                    service.sign(f"tenant-{i % 3}",
                                 fill + b"-%d" % i)
                    for i in range(9)])
            return sorted(size for _, _, size in rounds)
        return asyncio.run(drive())

    assert shapes(b"\x00" * 16) == shapes(b"\x7f" * 16)
