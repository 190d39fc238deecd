"""Chaos suite: the serving plane under deterministic fault injection.

Every fault here comes from a seeded :class:`FaultPlan` — the same
plan injects the same faults in every run — and every test asserts
the *recovery* invariants the ISSUE pins:

* a SIGKILL'd shard worker fails only the in-flight round; the pool
  respawns it (bounded budget) and the new worker signs under the
  key the store publishes, from a fresh stream (no salt repeats);
* wherever a tenant's round runs — its home shard, a fallback shard
  its breaker shed it to, a respawned worker, after a rotation — it
  signs under the one key the store currently publishes for it;
* no client call outlives its deadline — queued, in-round, or on the
  wire;
* a response lost or truncated on the wire is recovered by retry with
  the same req_id and the server's dedup cache — the message is
  signed exactly once;
* a crash between the keystore's claim-rename and serve is rolled
  back by the claim journal (no slot leaked), a crash after serve is
  rolled forward (no slot double-served);
* a dying refill thread is never silent and never disarms the
  watermark trigger;
* failure-path frame shapes are as secret-independent as the success
  path (the two-class CT audit covers them).

Pure stdlib asyncio + pytest, like the rest of the serving suites.
"""

import asyncio
import copy
import json
import os
import pickle
import threading
import time

import pytest

from repro.ct import audit_coalescing, failure_frame_shape_trace
from repro.falcon import KeyStore
from repro.falcon.serving import (
    CircuitBreaker,
    DeadlineExceeded,
    FaultPlan,
    InjectedFault,
    NetClient,
    NetServer,
    RetryPolicy,
    ServingUnavailable,
    ShardedKeyStore,
    ShardWorkerError,
    ShardWorkerPool,
    SigningService,
)


# -- the deterministic coin --------------------------------------------------

def test_fault_decisions_are_deterministic_per_plan():
    plan = FaultPlan(seed=11, drop_frame=0.5)
    first = [plan.injector().frame_action() for _ in range(1)]
    # Two injectors over the same plan replay the identical sequence.
    a, b = plan.injector(), plan.injector()
    sequence_a = [a.frame_action() for _ in range(64)]
    sequence_b = [b.frame_action() for _ in range(64)]
    assert sequence_a == sequence_b
    assert "drop" in sequence_a  # rate 0.5 over 64 draws must fire
    assert None in sequence_a    # ... and must not always fire
    # A different seed is a different schedule.
    other = FaultPlan(seed=12, drop_frame=0.5).injector()
    assert [other.frame_action() for _ in range(64)] != sequence_a
    del first


def test_fault_plan_survives_pickling_with_the_same_schedule():
    plan = FaultPlan(seed=13, kill_worker=0.5)
    clone = pickle.loads(pickle.dumps(plan))
    assert clone == plan
    mine = plan.injector()
    theirs = clone.injector()  # what a spawned worker builds
    assert [mine.kill_worker(0) for _ in range(32)] == \
        [theirs.kill_worker(0) for _ in range(32)]


def test_max_per_site_caps_fires_exactly():
    plan = FaultPlan(seed=14, kill_worker=1.0, max_per_site=2)
    injector = plan.injector()
    fired = [injector.kill_worker(0) for _ in range(10)]
    assert fired.count(True) == 2
    assert fired[:2] == [True, True]  # rate 1.0 fires immediately
    assert injector.stats.fired["kill-worker:0"] == 2
    assert injector.stats.evaluated["kill-worker:0"] == 10


@pytest.mark.parametrize("field,value", [
    ("fail_claim", 2.5), ("drop_frame", -0.1),
    ("kill_worker", float("nan")), ("max_per_site", -1),
    ("delay_seconds", -1.0), ("stall_refill_seconds", -0.5)])
def test_fault_plan_refuses_values_that_disarm_or_distort_it(field,
                                                             value):
    """A negative cap used to read as already reached (every fault
    off), and rates outside [0, 1] were taken as they came."""
    with pytest.raises(ValueError, match=field):
        FaultPlan(**{field: value})


def test_retry_policy_delay_is_deterministic_and_bounded():
    policy = RetryPolicy(attempts=3, backoff=0.05, multiplier=2.0,
                         jitter=0.5, seed=9)
    again = RetryPolicy(attempts=3, backoff=0.05, multiplier=2.0,
                        jitter=0.5, seed=9)
    for attempt in range(4):
        delay = policy.delay(attempt, token="tenant-a|3")
        assert delay == again.delay(attempt, token="tenant-a|3")
        base = 0.05 * 2.0 ** attempt
        assert 0.5 * base <= delay <= 1.5 * base
    # Different tokens de-synchronize (no thundering herd).
    assert policy.delay(0, token="x") != policy.delay(0, token="y")


# -- worker supervision ------------------------------------------------------

def _kill_plan(shard: int, at_round: int) -> FaultPlan:
    """A seeded plan whose one worker kill lands on ``shard``'s round
    number ``at_round`` (counting from 0)."""
    expected = [False] * at_round + [True]
    for seed in range(1000):
        plan = FaultPlan(seed=seed, kill_worker=0.5,
                         kill_worker_shards=(shard,), max_per_site=1)
        injector = plan.injector()
        if [injector.kill_worker(shard) for _ in expected] == expected:
            return plan
    raise AssertionError(f"no seed kills round {at_round} first")


def test_worker_sigkill_fails_only_that_round_then_respawns():
    """SIGKILL a shard worker mid-round, after it has signed one
    round.  Exactly that round's awaiters fail (with a
    ``ServingUnavailable``-compatible error), the pool respawns the
    worker within its budget, and the new worker signs under the key
    the store publishes, from a fresh stream: no salt its predecessor
    signed with comes back."""
    plan = _kill_plan(0, at_round=1)
    messages = [b"pay alice 10", b"pay bob 99", b"pay carol 7",
                b"pay dave 1"]
    store = ShardedKeyStore(shards=1, master_seed=51)

    async def drive():
        with ShardWorkerPool(store, fault_plan=plan,
                             restart_backoff=0.01) as pool:
            async with SigningService(store, n=8, max_batch=8,
                                      max_wait=0.3,
                                      worker_pool=pool) as service:
                before = await service.sign("tenant-a", messages[0])
                with pytest.raises(ShardWorkerError):
                    await service.sign("tenant-a", b"doomed")
                # Only the doomed round failed; the next rounds ride
                # the respawned worker.
                after = await asyncio.gather(
                    *[service.sign("tenant-a", m) for m in messages[1:]])
                metrics = service.metrics.as_dict()
            stats = pool.stats()
        return [before, *after], stats, metrics

    signatures, stats, metrics = asyncio.run(drive())
    assert stats["restarts"] == [1]
    assert stats["rounds_failed"] == [1]
    assert stats["alive"] == [True]
    assert metrics["failed_rounds"] == 1
    assert metrics["signed"] == len(messages)
    assert store.public_key("tenant-a", 8).verify_many(
        messages, signatures) == [True] * len(messages)
    assert len({s.salt for s in signatures}) == len(messages)


def test_pool_signs_under_the_rotated_key():
    """After ``ShardedKeyStore.rotate`` a pool-backed service's next
    signature verifies under the tenant's fresh key and not under the
    retired one: the round ships the new key, and the worker replaces
    its load."""
    store = ShardedKeyStore(shards=1, master_seed=59)

    async def drive():
        with ShardWorkerPool(store) as pool:
            async with SigningService(store, n=8, max_wait=0.0,
                                      worker_pool=pool) as service:
                first = await service.sign("tenant-a", b"before")
                retired = store.public_key("tenant-a", 8)
                store.rotate(8)
                second = await service.sign("tenant-a", b"after")
        return first, retired, second

    first, retired, second = asyncio.run(drive())
    assert retired.verify(b"before", first)
    assert store.public_key("tenant-a", 8).verify(b"after", second)
    assert not retired.verify(b"after", second)


def test_worker_kill_error_is_serving_unavailable():
    assert issubclass(ShardWorkerError, ServingUnavailable)
    assert issubclass(ServingUnavailable, ConnectionError)
    assert issubclass(DeadlineExceeded, TimeoutError)


def test_restart_budget_exhaustion_fails_fast():
    """A shard that keeps dying exhausts its restart budget; after
    that, rounds fail immediately instead of respawn-looping."""
    plan = FaultPlan(seed=2, kill_worker=1.0)  # every round dies
    with ShardWorkerPool(ShardedKeyStore(shards=1, master_seed=52),
                         fault_plan=plan, max_restarts=1,
                         restart_backoff=0.01) as pool:
        with pytest.raises(ShardWorkerError):
            pool.run_round(0, ["tenant-a"], "sign", 8, [b"one"])
        with pytest.raises(ShardWorkerError):  # the one respawn, dies
            pool.run_round(0, ["tenant-a"], "sign", 8, [b"two"])
        with pytest.raises(ShardWorkerError,
                           match="restart budget exhausted"):
            pool.run_round(0, ["tenant-a"], "sign", 8, [b"three"])
        stats = pool.stats()
    assert stats["restarts"] == [1]
    assert stats["rounds_failed"] == [2]


# -- client timeouts, retries, dedup -----------------------------------------

def test_client_connect_refused_raises_serving_unavailable():
    async def drive():
        probe = await asyncio.start_server(
            lambda r, w: None, "127.0.0.1", 0)
        port = probe.sockets[0].getsockname()[1]
        probe.close()
        await probe.wait_closed()
        with pytest.raises(ServingUnavailable):
            await NetClient.connect("127.0.0.1", port,
                                    connect_timeout=1.0)

    asyncio.run(drive())


def test_client_request_timeout_and_deadline_against_silent_server():
    """A server that accepts and never answers: the request timeout
    turns the hang into ``ServingUnavailable`` after bounded retries,
    and a deadline is never outlived — ``DeadlineExceeded`` arrives
    before the deadline plus scheduler jitter, not after."""

    async def drive():
        async def black_hole(reader, writer):
            await reader.read(-1)  # swallow everything, answer nothing

        server = await asyncio.start_server(black_hole,
                                            "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        loop = asyncio.get_running_loop()
        try:
            client = await NetClient.connect(
                "127.0.0.1", port, request_timeout=0.05,
                retry=RetryPolicy(attempts=2, backoff=0.01))
            try:
                with pytest.raises(ServingUnavailable):
                    await client.sign("tenant-a", b"void")
                started = loop.time()
                with pytest.raises(DeadlineExceeded):
                    await client.sign("tenant-a", b"late",
                                      deadline=loop.time() + 0.08)
                overshoot = loop.time() - started - 0.08
            finally:
                await client.close()
        finally:
            server.close()
            await server.wait_closed()
        return overshoot

    overshoot = asyncio.run(drive())
    assert overshoot < 0.25  # deadline + jitter, never a retry cycle


def test_pending_requests_fail_when_server_dies_mid_request():
    """The satellite bugfix: a server that takes the request and then
    drops the connection must fail the pending future with a clear
    ``ServingUnavailable`` — not hang the client forever."""

    async def drive():
        async def slam_door(reader, writer):
            await reader.read(64)  # take (part of) the request ...
            writer.close()         # ... and die

        server = await asyncio.start_server(slam_door, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        try:
            client = await NetClient.connect(
                "127.0.0.1", port,
                retry=RetryPolicy(attempts=1))  # no retry: raw failure
            try:
                with pytest.raises(ServingUnavailable):
                    await asyncio.wait_for(
                        client.sign("tenant-a", b"orphaned"), 5.0)
            finally:
                await client.close()
        finally:
            server.close()
            await server.wait_closed()

    asyncio.run(drive())


#: Per-attempt client timeout of the lossy-wire tests.  It must outlast
#: a fresh key's first sign, whose 4096-lane base-sampler refill takes
#: ~0.2 s on the pure-Python leg; a shorter one retries a request that
#: was merely slow, not lost.
WIRE_REQUEST_TIMEOUT = 1.0


def _wire(body, *, master_seed=None, store=None, fault_plan=None,
          **client_kwargs):
    """Run ``body(client, service, server)`` against a full loopback
    stack (sharded store → coalescer → framed socket server), over
    ``store`` or a fresh one-shard store from ``master_seed``."""

    async def drive():
        nonlocal store
        if store is None:
            store = ShardedKeyStore(shards=1, master_seed=master_seed)
        # Warm the tenant's signer so first-checkout keygen latency
        # cannot outlast the short request timeouts these tests use.
        store.signer("tenant-a", 8)
        async with SigningService(store, n=8, max_wait=0.0) as service:
            server = NetServer(service, fault_plan=fault_plan)
            await server.start("127.0.0.1", 0)
            try:
                client = await NetClient.connect(
                    "127.0.0.1", server.port, **client_kwargs)
                try:
                    result = await body(client, service, server)
                finally:
                    await client.close()
            finally:
                await server.stop(stop_service=False)
        return result

    return asyncio.run(drive())


def test_dropped_response_recovered_by_retry_and_dedup():
    """The wire eats exactly one response frame.  The client retries
    with the SAME req_id; the server answers from its dedup cache —
    the message was signed once, and the recovered signature is
    byte-identical to a direct ``sign_many`` by a copy of the served
    key taken before serving."""
    plan = FaultPlan(seed=3, drop_frame=1.0, max_per_site=1)
    store = ShardedKeyStore(shards=1, master_seed=53)
    twin = copy.deepcopy(store.signer("tenant-a", 8))

    async def body(client, service, server):
        signature = await client.sign("tenant-a", b"dropped-once")
        return signature, service.metrics.signed, \
            server.metrics.deduped

    signature, signed, deduped = _wire(
        body, store=store, fault_plan=plan,
        request_timeout=WIRE_REQUEST_TIMEOUT,
        retry=RetryPolicy(attempts=3, backoff=0.02))
    assert signed == 1   # exactly-once effect over a lossy wire
    assert deduped == 1  # the retry was answered from the cache
    direct = twin.sign_many([b"dropped-once"])[0]
    assert (signature.salt, signature.compressed) == \
        (direct.salt, direct.compressed)


def test_truncated_response_reconnects_and_dedups():
    """The wire truncates one response mid-frame and cuts the
    connection.  The client detects the unframed stream, reconnects,
    retries the same req_id, and the dedup cache replays the exact
    response bytes."""
    plan = FaultPlan(seed=4, truncate_frame=1.0, max_per_site=1)

    async def body(client, service, server):
        signature = await client.sign("tenant-a", b"cut-short")
        verdict = await client.verify("tenant-a", b"cut-short",
                                      signature)
        return signature, verdict, service.metrics.signed, \
            server.metrics.deduped

    signature, verdict, signed, deduped = _wire(
        body, master_seed=54, fault_plan=plan,
        request_timeout=WIRE_REQUEST_TIMEOUT,
        retry=RetryPolicy(attempts=3, backoff=0.02))
    assert verdict is True
    assert signed == 1
    assert deduped == 1


# -- circuit breaker and shard failover --------------------------------------

def test_circuit_breaker_state_machine_on_injected_clock():
    clock = [0.0]
    breaker = CircuitBreaker(failures=2, reset_after=1.0,
                             clock=lambda: clock[0])
    assert breaker.allow() and breaker.state == "closed"
    breaker.record_failure()
    assert breaker.state == "closed"  # below threshold
    breaker.record_failure()
    assert breaker.state == "open" and breaker.opens == 1
    assert not breaker.allow()
    clock[0] = 0.5
    assert not breaker.allow()  # cooldown not over
    clock[0] = 1.0
    assert breaker.allow()      # the half-open probe
    assert breaker.state == "half-open"
    assert not breaker.allow()  # one probe at a time
    breaker.record_failure()    # probe failed: re-open, full cooldown
    assert breaker.state == "open" and breaker.opens == 2
    clock[0] = 2.0
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == "closed" and breaker.allow()


def test_breaker_sheds_tenant_to_ring_neighbour():
    """A home shard whose worker keeps dying trips its breaker; the
    next request routes to the tenant's next ring shard and succeeds
    there (recorded as a shed), signed under the tenant's own
    published key — a client that verifies later gets True."""
    store = ShardedKeyStore(shards=2, master_seed=55)
    home = store.shard_for("tenant-a")
    plan = FaultPlan(seed=5, kill_worker=1.0, kill_worker_shards=(home,),
                     max_per_site=1)

    async def drive():
        with ShardWorkerPool(store, fault_plan=plan,
                             restart_backoff=0.01) as pool:
            async with SigningService(store, n=8, max_wait=0.0,
                                      breaker_failures=1,
                                      breaker_reset=30.0,
                                      worker_pool=pool) as service:
                with pytest.raises(ShardWorkerError):
                    await service.sign("tenant-a", b"fails-home")
                signature = await service.sign("tenant-a", b"sheds")
                state = service.breakers[home].state
                shed = service.metrics.shed_requests
        return signature, state, shed

    signature, state, shed = asyncio.run(drive())
    assert store.public_key("tenant-a", 8).verify(b"sheds", signature)
    assert state == "open"
    assert shed >= 1


@pytest.mark.parametrize("backend", ["in-process", "pool"])
def test_custody_every_signature_under_the_current_published_key(
        tmp_path, backend):
    """sign → rotate → sign → kill and respawn (pool) → sign → shed →
    sign, over a directory-backed store: every signature verifies
    under the key the store published for its tenant when it was made
    and under no retired key, and no (public key, salt) pair repeats
    across the run."""
    store = ShardedKeyStore(tmp_path, shards=2, master_seed=60)
    target = "tenant-a"
    home = store.shard_for(target)
    other = next(tenant for tenant in (f"tenant-{i}" for i in range(64))
                 if store.shard_for(tenant) != home)
    # One record per signature: (published key, the keys retired by
    # then, message, signature).
    records = []
    retired = []

    async def sign(service, tenant, message):
        signature = await service.sign(tenant, message)
        records.append((store.public_key(tenant, 8), tuple(retired),
                        message, signature))

    async def step(service, label):
        # One tenant at a time: one round each, so the home shard's
        # round count (and the kill plan's aim) is deterministic.
        for tenant in (target, other):
            await sign(service, tenant, label + b" " + tenant.encode())

    async def drive(pool):
        async with SigningService(store, n=8, max_wait=0.0,
                                  breaker_reset=30.0,
                                  worker_pool=pool) as service:
            await step(service, b"start")
            retired.extend(store.public_key(t, 8) for t in (target, other))
            store.rotate(8)
            await step(service, b"rotated")
            if pool is not None:  # the home shard's third round dies
                with pytest.raises(ShardWorkerError):
                    await service.sign(target, b"doomed")
                await step(service, b"respawned")
            breaker = service.breakers[home]
            for _ in range(breaker.failure_threshold):
                breaker.record_failure()
            await step(service, b"shed")
            await step(service, b"shed again")
            return service.metrics.shed_requests

    if backend == "pool":
        with ShardWorkerPool(store, fault_plan=_kill_plan(home, 2),
                             restart_backoff=0.01) as pool:
            shed = asyncio.run(drive(pool))
            assert pool.stats()["restarts"][home] == 1
    else:
        shed = asyncio.run(drive(None))
    assert shed == 2
    for published, retired_then, message, signature in records:
        assert published.verify(message, signature)
        assert not any(key.verify(message, signature)
                       for key in retired_then)
    pairs = {(tuple(published.h), signature.salt)
             for published, _, _, signature in records}
    assert len(pairs) == len(records)


def test_every_breaker_open_fails_fast():
    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=56)

        def broken_signer_on(shard, tenant, n):
            raise RuntimeError("injected checkout failure")

        store.signer_on = broken_signer_on
        async with SigningService(store, n=8, max_wait=0.0,
                                  breaker_failures=1,
                                  breaker_reset=30.0) as service:
            with pytest.raises(RuntimeError):
                await service.sign("tenant-a", b"trips")
            with pytest.raises(ServingUnavailable,
                               match="circuit breaker"):
                await service.sign("tenant-a", b"refused")

    asyncio.run(drive())


# -- deadlines through the service -------------------------------------------

def test_service_deadline_is_never_outlived():
    """A round that takes 0.4 s cannot hold a 0.1 s-deadline caller
    hostage: the caller gets ``DeadlineExceeded`` at its deadline."""

    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=57)
        real_signer_on = store.signer_on

        def slow_signer_on(shard, tenant, n):
            time.sleep(0.4)
            return real_signer_on(shard, tenant, n)

        store.signer_on = slow_signer_on
        async with SigningService(store, n=8, max_wait=0.0) as service:
            loop = asyncio.get_running_loop()
            started = loop.time()
            with pytest.raises(DeadlineExceeded):
                await service.sign("tenant-a", b"late",
                                   deadline=loop.time() + 0.1)
            elapsed = loop.time() - started
            expired = service.metrics.deadline_expired
        return elapsed, expired

    elapsed, expired = asyncio.run(drive())
    assert expired >= 1
    assert elapsed < 0.35  # did not wait out the 0.4 s round


def test_verify_deadline_passing_in_its_round_never_gets_a_verdict(
        monkeypatch, spine):
    """A verify round that outlasts a request's deadline hands that
    request ``DeadlineExceeded``, counted once, never its verdict.  On
    the NumPy spine the warm round runs on the event loop, so the
    deadline's timer cannot fire before the round ends: the result
    fan-out itself must refuse the late verdict."""
    from repro.falcon.serving import service as service_module

    store = ShardedKeyStore(shards=1, master_seed=60)
    message = b"slow verify"
    signature = store.signer("tenant-a", 8).sign(message)
    real_verify_batch = service_module.verify_batch
    ran_on: list = []

    def slow_verify_batch(items):
        ran_on.append(threading.get_ident())
        time.sleep(0.3)
        return real_verify_batch(items)

    monkeypatch.setattr(service_module, "verify_batch", slow_verify_batch)

    async def drive():
        async with SigningService(store, n=8, max_wait=0.0) as service:
            loop = asyncio.get_running_loop()
            with pytest.raises(DeadlineExceeded):
                await service.verify("tenant-a", message, signature,
                                     deadline=loop.time() + 0.1)
            in_time = await service.verify("tenant-a", message, signature,
                                           deadline=loop.time() + 5.0)
        return threading.get_ident(), in_time, service.metrics

    loop_thread, in_time, metrics = asyncio.run(drive())
    assert in_time is True
    assert metrics.deadline_expired == 1
    assert (ran_on[0] == loop_thread) == (spine == "numpy")


def test_service_deadline_already_passed_is_refused_up_front():
    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=58)
        async with SigningService(store, n=8) as service:
            loop = asyncio.get_running_loop()
            with pytest.raises(DeadlineExceeded):
                await service.sign("tenant-a", b"stale",
                                   deadline=loop.time() - 1.0)
            assert service.metrics.deadline_expired == 1
            assert service.metrics.requests == 0  # never enqueued

    asyncio.run(drive())


# -- keystore: refill errors and the claim journal ---------------------------

def test_refill_failure_recorded_and_trigger_rearmed():
    """The satellite bugfix: a refill thread that dies records the
    error in stats (``refill_errors`` / ``last_refill_error``) and
    re-arms the watermark trigger — the next below-watermark checkout
    refills for real and clears the error."""
    plan = FaultPlan(seed=5, fail_refill=1.0, max_per_site=1)
    store = KeyStore(master_seed=59, low_watermark=2, fault_plan=plan)
    store.generate_ahead(8, 1)
    store.acquire(8)  # empties the pool → refill fires and dies
    store.join_refills()
    stats = store.stats()
    assert stats.refill_errors == 1
    assert stats.last_refill_error.startswith("InjectedFault")
    assert stats.as_dict()["last_refill_error"] == \
        stats.last_refill_error
    assert stats.refills == 0
    # Trigger re-armed: the next checkout refills successfully (the
    # one-shot fault is spent) and clears the recorded error.
    store.acquire(8)
    store.join_refills()
    stats = store.stats()
    assert stats.refills == 1
    assert stats.last_refill_error == ""
    assert store.available(8) >= 2
    store.close()


def test_claim_crash_rolls_back_through_the_journal(tmp_path):
    """A claimant that dies between the claim-rename and serving the
    key leaves a scratch file plus a ``claimed`` journal entry.  The
    next store over the directory rolls the stale claim back into its
    slot: no key material leaked, and both pooled slots still serve
    exactly once each."""
    plan = FaultPlan(seed=6, crash_claim=1.0, max_per_site=1)
    store = KeyStore(tmp_path, master_seed=60, fault_plan=plan,
                     stale_claim_seconds=60.0)
    store.generate_ahead(8, 2)
    with pytest.raises(InjectedFault):
        store.acquire(8)
    store.close()
    scratches = list(tmp_path.glob("*.claim-*"))
    assert len(scratches) == 1  # the crash left its scratch behind
    journal = (tmp_path / "keystore-claims.jsonl").read_text()
    assert '"claimed"' in journal and '"served"' not in journal
    # Age the scratch the way a genuinely crashed claimant's file
    # would be by restart time (fresh claims are left alone — they
    # may be another process's live checkout).
    stale = time.time() - 300
    os.utime(scratches[0], (stale, stale))
    recovered = KeyStore(tmp_path, master_seed=60,
                         stale_claim_seconds=60.0)
    assert recovered.stats().claims_recovered == 1
    assert not list(tmp_path.glob("*.claim-*"))
    assert recovered.available(8) == 2  # the slot is back in the pool
    first = recovered.acquire(8)
    second = recovered.acquire(8)
    # No double-serve: the two checkouts are distinct key material.
    sig_a, sig_b = first.sign(b"probe"), second.sign(b"probe")
    assert (sig_a.salt, sig_a.compressed) != \
        (sig_b.salt, sig_b.compressed)
    recovered.close()


def test_fresh_journaled_claim_is_left_alone(tmp_path):
    """A *fresh* scratch with a journal entry is a live claim in
    another process — recovery must not steal it back."""
    plan = FaultPlan(seed=6, crash_claim=1.0, max_per_site=1)
    store = KeyStore(tmp_path, master_seed=61, fault_plan=plan,
                     stale_claim_seconds=3600.0)
    store.generate_ahead(8, 2)
    with pytest.raises(InjectedFault):
        store.acquire(8)
    store.close()
    recovered = KeyStore(tmp_path, master_seed=61,
                         stale_claim_seconds=3600.0)
    assert recovered.stats().claims_recovered == 0
    assert len(list(tmp_path.glob("*.claim-*"))) == 1
    assert recovered.available(8) == 1  # only the unclaimed slot
    recovered.close()


def test_served_journal_entry_rolls_forward_on_restart(tmp_path):
    """A crash after the key was served but before the scratch unlink:
    recovery unlinks the scratch (rolling the claim forward) instead
    of re-pooling a key someone already holds."""
    store = KeyStore(tmp_path, master_seed=62)
    store.generate_ahead(8, 2)
    store.close()
    slot = sorted(tmp_path.glob("falcon_n*.skey"))[0]
    scratch = slot.with_name(slot.name + ".claim-9999-deadbeef")
    slot.rename(scratch)
    with open(tmp_path / "keystore-claims.jsonl", "a",
              encoding="utf-8") as handle:
        handle.write(json.dumps({"state": "claimed",
                                 "scratch": scratch.name,
                                 "slot": slot.name}) + "\n")
        handle.write(json.dumps({"state": "served",
                                 "scratch": scratch.name}) + "\n")
    recovered = KeyStore(tmp_path, master_seed=62)
    assert recovered.stats().claims_rolled_forward == 1
    assert not scratch.exists()
    assert recovered.available(8) == 1  # served slot NOT re-pooled
    recovered.close()


# -- failure paths under the CT audit ----------------------------------------

def test_failure_frame_shapes_are_secret_independent():
    arrivals = [("tenant-%d" % (i % 3),
                 "verify" if i % 4 == 0 else "sign")
                for i in range(24)]
    zeros = [b"\x00" * 32] * 24
    secrets = [os.urandom(32) for _ in range(24)]
    assert failure_frame_shape_trace(arrivals, zeros) == \
        failure_frame_shape_trace(arrivals, secrets)


def test_coalescing_audit_covers_failure_shapes():
    result = audit_coalescing(tenants=2, requests=32, max_batch=8)
    assert result.failure_shapes_identical
    assert not result.leaking
