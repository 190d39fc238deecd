"""The asyncio coalescing front: many awaiters, few batched rounds.

One ``sign_many`` call is fast; a serving deployment has the
inverse shape — thousands of independent ``sign(tenant, message)``
calls that must *become* rounds to ride the batched spine.  :class:`SigningService` does that coalescing:

* every request enqueues onto its shard's **bounded** asyncio queue
  (a full queue suspends the caller — back-pressure, not unbounded
  buffering);
* one worker per shard drains up to ``max_batch`` requests, waiting
  at most ``max_wait`` seconds for stragglers once the first request
  of a round has arrived (the classic batch-window trade: larger
  windows coalesce more, at latency cost);
* the drained batch is partitioned into rounds by :func:`plan_rounds`
  — one list of lanes per request kind, whatever tenants they belong
  to — and each round runs one cross-key
  :func:`~repro.falcon.scheme.sign_batch` or
  :func:`~repro.falcon.batchverify.verify_batch` call;
* sign rounds run on the shard's one round thread, so the event loop
  stays responsive while the sampling spine runs, and so do verify
  rounds on the scalar spine, rounds with a tenant whose public key is
  not cached yet (learning it checks a key out) and every round of a
  worker pool;
* a verify round on the NumPy spine whose public keys are all cached
  runs directly on the event loop.  It reads only public data —
  messages, signatures, cached public keys — so where it runs opens no
  timing channel on secrets, and on a round thread the round threads
  and the loop would trade the interpreter lock on every NumPy call.
  Falcon's verify is one NTT product and a norm check, so the stall it
  costs the loop is one round: a full 32-lane round measured 5-10 ms
  at n=512 and 10-15 ms at n=1024 on a 2-core host.

**Byte identity**: each tenant's key signs from its own stream, so a
tenant's signatures from a merged round equal what a copy of its key,
taken before the round, signs with one direct ``SecretKey.sign_many``
over that tenant's messages of the round, in arrival order, whoever
else shared it (pinned by the serving test suite).  A round's *timing*
does depend on the other tenants' lane counts — public arrival
metadata, like the round shape itself.

**Constant-time discipline**: round composition — how many rounds, of
what sizes, in what order — is computed by :func:`plan_rounds` from
arrival *metadata only* (tenant id, request kind, arrival order).
Message bytes, signature bytes and key material are never inputs to
the scheduling decision, so the coalescing layer cannot leak secrets
through batch shape (the GALACTICS lesson); :mod:`repro.ct.coalesce`
runs a dudect-style two-class pass over exactly this property.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

from ..batchverify import verify_batch
from ..scheme import Signature, _spine_name
from .errors import DeadlineExceeded, ServingUnavailable
from .sharded import ShardedKeyStore, sign_tenant_lanes

#: Request kinds the coalescer schedules.
KIND_SIGN = "sign"
KIND_VERIFY = "verify"


class CircuitBreaker:
    """Per-shard circuit breaker: closed → open → half-open → closed.

    ``failures`` consecutive round failures trip the breaker open;
    while open, :meth:`allow` refuses traffic (the service sheds it to
    the next shard on the consistent-hash ring).  After ``reset_after``
    seconds one probe round is allowed through (half-open): success
    closes the breaker, failure re-opens it for another full cooldown.
    """

    def __init__(self, failures: int = 5, reset_after: float = 1.0,
                 clock=time.monotonic) -> None:
        if failures < 1:
            raise ValueError("failure threshold must be at least 1")
        self.failure_threshold = failures
        self.reset_after = reset_after
        self._clock = clock
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self.opens = 0

    @property
    def state(self) -> str:
        return self._state

    def allow(self) -> bool:
        """May a request route to this shard right now?  The first
        allow after the cooldown is the half-open probe."""
        if self._state == "closed":
            return True
        if self._state == "open":
            if self._clock() - self._opened_at >= self.reset_after:
                self._state = "half-open"
                return True
            return False
        # half-open: one probe is already in flight; hold the rest.
        return False

    def record_success(self) -> None:
        self._failures = 0
        self._state = "closed"

    def record_failure(self) -> None:
        if self._state == "open":
            return  # a straggler round; don't extend the cooldown
        if self._state == "half-open":
            self._trip()
            return
        self._failures += 1
        if self._failures >= self.failure_threshold:
            self._trip()

    def _trip(self) -> None:
        self._state = "open"
        self._opened_at = self._clock()
        self._failures = 0
        self.opens += 1


@dataclass(frozen=True)
class RoundPlan:
    """One batched round: which drained lanes run together.

    ``lanes`` are indices into the drained request batch, in arrival
    order — a pure function of arrival metadata (see
    :func:`plan_rounds`).
    """

    kind: str
    lanes: tuple[int, ...]


def plan_rounds(arrivals: Sequence[tuple[str, str]],
                max_batch: int) -> list[RoundPlan]:
    """Partition drained requests into rounds.

    ``arrivals`` is the drained batch's metadata — ``(tenant, kind)``
    per request, in arrival order.  Lanes of one kind share rounds
    whatever their tenants: the cross-key signer runs each lane under
    its own tenant's key, and since every key signs from its own
    stream, a tenant's signatures equal a direct ``sign_many`` over its
    lanes of the round in arrival order; the cross-key verify engine
    checks every lane against its own tenant's public key.  Rounds are
    chunked at ``max_batch``, emitted in first-arrival order of their
    kind, and keep arrival order within::

        plans = plan_rounds([("a", "sign"), ("b", "verify"),
                             ("b", "sign")], max_batch=8)
        # [RoundPlan(kind="sign", lanes=(0, 2)),
        #  RoundPlan(kind="verify", lanes=(1,))]

    This function is deliberately *blind*: it receives no message
    bytes, no signatures, no key material.  Round composition is
    secret-independent by construction, and the type signature is the
    contract (checked by :mod:`repro.ct.coalesce`).
    """
    if max_batch < 1:
        raise ValueError("max_batch must be at least 1")
    groups: dict[str, list[int]] = {}
    for lane, (_tenant, kind) in enumerate(arrivals):
        groups.setdefault(kind, []).append(lane)
    return [RoundPlan(kind=kind,
                      lanes=tuple(lanes[start:start + max_batch]))
            for kind, lanes in groups.items()
            for start in range(0, len(lanes), max_batch)]


@dataclass
class ServiceMetrics:
    """Live counters of one :class:`SigningService` instance."""

    requests: int = 0
    signed: int = 0
    verified: int = 0
    rounds: int = 0
    coalesced_max: int = 0
    queue_high_water: int = 0
    #: Rounds in which some lanes failed (their awaiters saw the
    #: exception).
    failed_rounds: int = 0
    #: Requests routed off their home shard by an open breaker.
    shed_requests: int = 0
    #: Requests whose deadline passed before their result was handed
    #: over.
    deadline_expired: int = 0

    @property
    def coalesced_avg(self) -> float:
        done = self.signed + self.verified
        return done / self.rounds if self.rounds else 0.0

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "signed": self.signed,
            "verified": self.verified,
            "rounds": self.rounds,
            "coalesced_avg": round(self.coalesced_avg, 2),
            "coalesced_max": self.coalesced_max,
            "queue_high_water": self.queue_high_water,
            "failed_rounds": self.failed_rounds,
            "shed_requests": self.shed_requests,
            "deadline_expired": self.deadline_expired,
        }


@dataclass
class _Request:
    tenant: str
    kind: str
    message: bytes
    signature: Signature | None
    future: asyncio.Future
    #: Absolute loop-time instant after which the caller no longer
    #: wants the result (None = no deadline).
    deadline: float | None = None


class SigningService:
    """Async facade coalescing per-request traffic into batched rounds.

    ``store`` is a :class:`~repro.falcon.serving.ShardedKeyStore`
    (each tenant signs under its own checked-out key).  Use as an
    async context manager::

        store = ShardedKeyStore(shards=2, master_seed=7)
        async with SigningService(store, n=256, max_batch=32,
                                  max_wait=0.002) as service:
            signature = await service.sign("tenant-a", b"message")
            assert await service.verify("tenant-a", b"message",
                                        signature)

    Knobs: ``max_batch`` bounds a round, ``max_wait`` is the batch
    window (seconds the first request of a round waits for company; 0
    drains only what is already queued), ``queue_depth`` bounds each
    shard queue — a full queue suspends callers (back-pressure)
    instead of buffering without limit.  Sign rounds run on their
    shard's round thread so the event loop stays responsive while the
    sampling spine runs: one thread per shard, so a shard's rounds,
    which run one at a time anyway, never spread over threads (each
    with its own allocator arena).  A verify round on the NumPy spine
    whose tenants' public keys are all cached runs on the event loop
    instead (the module docstring gives why, and the stall it costs);
    verify rounds on the scalar spine (26-49 ms for 16 lanes at n=512)
    and rounds with a cold tenant, whose key must be checked out, stay
    on the round thread.  A request whose deadline passes while its
    round runs gets :class:`DeadlineExceeded`, never a late result.

    ``worker_pool`` escapes the GIL entirely: rounds are submitted to
    a :class:`~repro.falcon.serving.ShardWorkerPool` built over
    ``store`` — one dedicated worker *process* per shard, loading the
    keys the store ships with each round — so a multi-core host runs
    one round per shard truly in parallel.  The service does not own
    the pool's lifecycle — start it before and stop it after the
    service.

    Every round is a cross-tenant list of lanes (see
    :func:`plan_rounds`): one ffSampling walk serves a sign round,
    each lane on its own tenant's key, and one cross-key engine pass
    checks a verify round, each lane against its own tenant's cached
    public key — a verify round checks a signer out only to learn a
    cold tenant's key, on the round thread.

    Failure isolation in a sign round: each tenant's signer is checked
    out separately, through :meth:`ShardedKeyStore.signer_on` on the
    shard the round runs on (the home shard's custody key, or the
    fallback's load of that same key when a breaker shed the tenant;
    a pool round ships the custody key's encoding instead), and a
    failed checkout fails only that tenant's
    requests — the circuit breaker books one failure per such tenant
    and one success per tenant that signed, as separate per-tenant
    rounds would.  An exception inside the shared walk itself, or a
    worker process dying under it, fails every request of the round.
    ``breaker_failures`` consecutive failures open a shard's breaker
    for ``breaker_reset`` seconds.
    """

    #: Sign rounds always run off the loop (warm NumPy-spine verify
    #: rounds run on it, see above), and verify lanes always merge
    #: across tenants; constants the repository benchmark's config
    #: line reports.
    offload = True
    coalesce_verify = True

    def __init__(self, store: ShardedKeyStore, *,
                 n: int = 64,
                 max_batch: int = 32,
                 max_wait: float = 0.002,
                 queue_depth: int = 256,
                 worker_pool=None,
                 breaker_failures: int = 5,
                 breaker_reset: float = 1.0) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_wait < 0:
            raise ValueError("max_wait must be non-negative")
        if queue_depth < 1:
            raise ValueError("queue_depth must be at least 1")
        if worker_pool is not None and worker_pool.store is not store:
            raise ValueError(
                "worker_pool must be built over the service's store")
        self.store = store
        self.n = n
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.queue_depth = queue_depth
        self.worker_pool = worker_pool
        self.metrics = ServiceMetrics()
        self.breakers = [CircuitBreaker(breaker_failures, breaker_reset)
                         for _ in range(store.shards)]
        self._queues: list[asyncio.Queue] = []
        self._workers: list[asyncio.Task] = []
        self._executors: list[ThreadPoolExecutor] = []
        self._started = False
        self._stopping = False

    @property
    def spine(self) -> str:
        """The signing spine the rounds run: ``"numpy"`` or
        ``"scalar"``, whichever the platform provides."""
        return _spine_name()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        if self._started:
            raise RuntimeError("service already started")
        self._queues = [asyncio.Queue(maxsize=self.queue_depth)
                        for _ in range(self.store.shards)]
        self._executors = [
            ThreadPoolExecutor(1, thread_name_prefix=f"falcon-shard-{shard}")
            for shard in range(self.store.shards)]
        self._workers = [
            asyncio.ensure_future(self._shard_worker(shard))
            for shard in range(self.store.shards)]
        self._started = True

    async def stop(self) -> None:
        """Flush queued work, stop the workers, join refills.

        New submissions are refused the moment stop begins; a request
        that nonetheless slipped behind the shutdown sentinel gets a
        ``RuntimeError`` on its future rather than hanging forever.
        """
        if not self._started or self._stopping:
            return
        self._stopping = True
        queues = self._queues
        for queue in queues:
            await queue.put(None)
        await asyncio.gather(*self._workers)
        # The shard workers are done, so no round is running.
        for executor in self._executors:
            executor.shutdown(wait=False)
        self._workers = []
        self._executors = []
        self._queues = []
        self._started = False
        self._stopping = False
        for queue in queues:  # strand nothing behind the sentinel
            while True:
                try:
                    request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if request is not None and not request.future.done():
                    request.future.set_exception(
                        RuntimeError("service stopped"))
        await asyncio.to_thread(self.store.join_refills)

    async def __aenter__(self) -> "SigningService":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- request surface ---------------------------------------------------

    def _route(self, tenant: str) -> int:
        """Pick the shard for one request: the home shard unless its
        circuit breaker refuses, then the first healthy shard along
        the tenant's ring preference (shedding), else fail fast."""
        preference = self.store.shard_preference(tenant)
        if self.breakers[preference[0]].allow():
            return preference[0]
        for shard in preference[1:]:
            if self.breakers[shard].allow():
                self.metrics.shed_requests += 1
                return shard
        raise ServingUnavailable(
            "every shard's circuit breaker is open")

    async def _submit(self, request: _Request):
        if not self._started or self._stopping:
            raise RuntimeError("service is not running")
        shard = self._route(request.tenant)
        queue = self._queues[shard]
        if request.deadline is None:
            await queue.put(request)  # suspends when full:
            #                           back-pressure
            self.metrics.requests += 1
            self.metrics.queue_high_water = max(
                self.metrics.queue_high_water, queue.qsize())
            return await request.future
        loop = asyncio.get_running_loop()
        budget = request.deadline - loop.time()
        if budget <= 0:
            self.metrics.deadline_expired += 1
            raise DeadlineExceeded("deadline passed before submission")
        try:
            await asyncio.wait_for(queue.put(request), budget)
        except asyncio.TimeoutError:
            self.metrics.deadline_expired += 1
            raise DeadlineExceeded(
                "deadline passed waiting for queue space") from None
        self.metrics.requests += 1
        self.metrics.queue_high_water = max(
            self.metrics.queue_high_water, queue.qsize())
        try:
            # wait_for cancels the future on timeout, so the round
            # fan-out (which checks future.done()) skips it cleanly.
            return await asyncio.wait_for(
                request.future, request.deadline - loop.time())
        except DeadlineExceeded:
            raise  # the round fan-out expired it and counted it
        except asyncio.TimeoutError:
            self.metrics.deadline_expired += 1
            raise DeadlineExceeded(
                "deadline passed before the round completed") from None

    async def sign(self, tenant: str, message: bytes, *,
                   deadline: float | None = None) -> Signature:
        """Sign ``message`` under ``tenant``'s key; coalesced into the
        shard's next sign round.  ``deadline`` is an absolute
        event-loop instant (``loop.time() + budget``); a request whose
        deadline passes before its round completes raises
        :class:`DeadlineExceeded` — never later than the deadline plus
        scheduler jitter, and never with a half-delivered result."""
        future = asyncio.get_running_loop().create_future()
        return await self._submit(_Request(
            tenant=tenant, kind=KIND_SIGN, message=message,
            signature=None, future=future, deadline=deadline))

    async def verify(self, tenant: str, message: bytes,
                     signature: Signature, *,
                     deadline: float | None = None) -> bool:
        """Verify against ``tenant``'s public key; coalesced into the
        shard's next verify round."""
        future = asyncio.get_running_loop().create_future()
        return await self._submit(_Request(
            tenant=tenant, kind=KIND_VERIFY, message=message,
            signature=signature, future=future, deadline=deadline))

    # -- the coalescing loop -----------------------------------------------

    async def _drain(self, queue: asyncio.Queue,
                     first: _Request) -> tuple[list[_Request], bool]:
        """Collect one round's batch: the first request plus whatever
        arrives within the batch window, up to ``max_batch``."""
        batch = [first]
        stopping = False
        loop = asyncio.get_running_loop()
        deadline = loop.time() + self.max_wait
        while len(batch) < self.max_batch:
            timeout = deadline - loop.time()
            if timeout <= 0:
                # Window closed: take only what is already queued.
                try:
                    item = queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
            else:
                try:
                    item = await asyncio.wait_for(queue.get(), timeout)
                except asyncio.TimeoutError:
                    break
            if item is None:
                stopping = True
                break
            batch.append(item)
        return batch, stopping

    async def _shard_worker(self, shard: int) -> None:
        """The shard's drain loop.  It must outlive any round failure:
        a raising round fails only its own futures (isolated in
        :meth:`_run_one_round`), and even an unexpected error escaping
        the round machinery fails only the drained batch — never the
        loop, which would strand every later submission to this shard
        on a dead queue."""
        queue = self._queues[shard]
        while True:
            first = await queue.get()
            if first is None:
                return
            batch, stopping = await self._drain(queue, first)
            try:
                await self._run_rounds(shard, batch)
            except Exception as error:
                for request in batch:
                    if not request.future.done():
                        request.future.set_exception(error)
            if stopping:
                return

    async def _run_rounds(self, shard: int,
                          batch: list[_Request]) -> None:
        # Prune lanes that no longer want a result: futures already
        # done (deadline cancellation, shutdown) and deadlines that
        # passed while queued.  Pruning happens BEFORE planning, so
        # round shapes stay a pure function of the surviving arrival
        # metadata — the CT audit covers this path too.
        now = asyncio.get_running_loop().time()
        live: list[_Request] = []
        for request in batch:
            if request.future.done():
                continue
            if request.deadline is not None and request.deadline <= now:
                self.metrics.deadline_expired += 1
                request.future.set_exception(DeadlineExceeded(
                    "deadline passed while queued"))
                continue
            live.append(request)
        batch = live
        if not batch:
            return
        plans = plan_rounds([(r.tenant, r.kind) for r in batch],
                            self.max_batch)
        for plan in plans:
            requests = [batch[lane] for lane in plan.lanes]
            self.metrics.rounds += 1
            self.metrics.coalesced_max = max(
                self.metrics.coalesced_max, len(requests))
            await self._run_one_round(shard, plan, requests)

    def _loop_public_keys(self, kind: str,
                          tenants: list[str]) -> list | None:
        """The lanes' public keys if the round runs on the event loop:
        a verify round, no worker pool, the NumPy spine, and every
        tenant's key already cached.  None sends the round to the
        shard's round thread."""
        if (kind != KIND_VERIFY or self.worker_pool is not None
                or _spine_name() != "numpy"):
            return None
        keys = [self.store.cached_public_key(tenant, self.n)
                for tenant in tenants]
        return None if any(key is None for key in keys) else keys

    async def _run_one_round(self, shard: int, plan: RoundPlan,
                             requests: list[_Request]) -> None:
        """Execute one round with full failure isolation.

        Everything that can raise — signer checkout, the batched
        kernel, worker-pool IPC, even result fan-out — is confined to
        this round: a poison round fails exactly its own awaiters'
        futures and returns, so the rest of the drained batch keeps
        draining and the shard worker keeps serving (regression-tested
        with one poisoned round among healthy ones).  Within a sign
        round a failed checkout fails only its tenant's lanes: the
        round returns that exception as those lanes' results.  A
        request whose deadline passed by the time the round finished
        gets :class:`DeadlineExceeded` instead of its result.
        """
        tenants = [r.tenant for r in requests]
        messages = [r.message for r in requests]

        def run_round():
            if self.worker_pool is not None:
                # One IPC round-trip per round: the shard's dedicated
                # worker process signs/verifies with its warm loads of
                # the keys the store ships, each lane under its own
                # tenant's key.
                return self.worker_pool.run_round(
                    shard, tenants, plan.kind, self.n, messages,
                    signatures=([r.signature for r in requests]
                                if plan.kind == KIND_VERIFY else None))
            if plan.kind == KIND_VERIFY:
                # A scalar-spine round or one with a cold tenant: each
                # lane's public key comes from the store's verify-plane
                # cache, and a cold tenant's costs one home-shard
                # checkout, here and not on the loop.  The whole round
                # — every tenant's lanes — rides one cross-key engine
                # pass.
                return verify_batch(
                    [(self.store.public_key(r.tenant, self.n),
                      r.message, r.signature) for r in requests])
            # One round-thread hop per round: the signer checkouts
            # (cached after first use) plus the batched kernel call
            # together, so the event loop stays free while the
            # CPU-bound spine runs.  Checkouts come from the round's
            # shard: the tenant's home, or the fallback an open
            # breaker shed it to.
            return sign_tenant_lanes(
                lambda tenant: self.store.signer_on(shard, tenant,
                                                    self.n),
                tenants, messages)

        loop = asyncio.get_running_loop()
        breaker = self.breakers[shard]
        try:
            public_keys = self._loop_public_keys(plan.kind, tenants)
            if public_keys is not None:
                # Public data only, so the round runs here, on the
                # loop (see the module docstring).
                results = verify_batch(
                    [(public_key, r.message, r.signature)
                     for public_key, r in zip(public_keys, requests)])
            else:
                results = await loop.run_in_executor(
                    self._executors[shard], run_round)
            if len(results) != len(requests):  # a broken backend
                raise RuntimeError(
                    f"round returned {len(results)} results for "
                    f"{len(requests)} requests")
            failed = {tenant for tenant, result in zip(tenants, results)
                      if isinstance(result, Exception)}
            for tenant in dict.fromkeys(tenants):
                if tenant in failed:
                    breaker.record_failure()
                else:
                    breaker.record_success()
            done = len(requests) - sum(
                isinstance(result, Exception) for result in results)
            if plan.kind == KIND_SIGN:
                self.metrics.signed += done
            else:
                self.metrics.verified += done
            if failed:
                self.metrics.failed_rounds += 1
            now = loop.time()
            for request, result in zip(requests, results):
                if request.future.done():
                    continue
                if request.deadline is not None and request.deadline <= now:
                    # wait_for's timer has not run yet: the round held
                    # the loop past the deadline, or the timer is due in
                    # this very loop iteration.  Never deliver late.
                    self.metrics.deadline_expired += 1
                    request.future.set_exception(DeadlineExceeded(
                        "deadline passed while its round ran"))
                elif isinstance(result, Exception):
                    request.future.set_exception(result)
                else:
                    request.future.set_result(result)
        except Exception as error:  # fail THIS round's awaiters only
            breaker.record_failure()
            self.metrics.failed_rounds += 1
            for request in requests:
                if not request.future.done():
                    request.future.set_exception(error)
