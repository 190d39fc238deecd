"""Production serving layer over the batched Falcon spine.

Four layers above :class:`~repro.falcon.keystore.KeyStore`:

* :class:`ShardedKeyStore` — consistent-hash tenant→shard mapping over
  per-shard generate-ahead pools (each shard has its own directory,
  manifest, lock file and derived master seed), and the one custodian
  of tenant keys: a tenant's key is one checkout of its home shard,
  and the plane's one signer cache
  (:meth:`ShardedKeyStore.signer_on`, per tenant and shard) gives
  every other shard its own load of that key; plus a checkout-free
  public-key cache and an aggregated metrics snapshot;
* :class:`SigningService` — an asyncio facade that coalesces
  concurrent ``sign(tenant, message)`` / ``verify(tenant, message,
  signature)`` calls into batched rounds per shard — every round one
  cross-tenant list of lanes of one kind, run by one ``sign_batch`` or
  ``verify_batch`` call — with max-batch / max-wait knobs and
  back-pressure through bounded queues;
* :class:`ShardWorkerPool` — one dedicated worker *process* per shard
  of a :class:`ShardedKeyStore`, running the same per-lane tenant
  lists under keys the store ships with each round (kept warm between
  rounds), so rounds escape the GIL and a multi-core host signs truly
  in parallel (plug into ``SigningService(worker_pool=...)``);
* :class:`NetServer` / :class:`NetClient` — the wire: length-prefixed
  asyncio socket frames (``MAGIC | version | kind | req-id | body``)
  with per-tenant authentication tokens, token-bucket rate limits and
  graceful drain.

Round composition is a pure function of arrival *metadata* — see
:func:`plan_rounds` — and wire-frame shapes are a pure function of
request metadata, never of message or key contents; the dudect-style
two-class check over both lives in :mod:`repro.ct.coalesce`.

The failure story is first-class: :class:`FaultPlan` injects seeded,
reproducible faults (worker kills, dropped/truncated/delayed frames,
failed claims, stalled refills) and the plane survives them — worker
supervision with bounded restarts (:class:`ShardWorkerPool`), per-shard
circuit breakers shedding to ring neighbours (:class:`CircuitBreaker`),
deadline propagation and retry-with-dedup on the wire
(:class:`RetryPolicy`, :class:`NetClient`), and a crash-safe claim
journal in the keystore.  :class:`ServingUnavailable` /
:class:`DeadlineExceeded` are the two errors every layer speaks.
"""

from .errors import DeadlineExceeded, ServingUnavailable
from .faults import FaultInjector, FaultPlan, FaultStats, InjectedFault
from .net import (
    FrameError,
    NetClient,
    NetServer,
    RetryPolicy,
    TokenBucket,
    encode_request_frame,
    frame_shape,
)
from .sharded import ConsistentHashRing, ShardedKeyStore, derive_shard_seed
from .service import (
    KIND_SIGN,
    KIND_VERIFY,
    CircuitBreaker,
    RoundPlan,
    ServiceMetrics,
    SigningService,
    plan_rounds,
)
from .workers import ShardWorkerError, ShardWorkerPool

__all__ = [
    "CircuitBreaker",
    "ConsistentHashRing",
    "DeadlineExceeded",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "FrameError",
    "InjectedFault",
    "KIND_SIGN",
    "KIND_VERIFY",
    "NetClient",
    "NetServer",
    "RetryPolicy",
    "RoundPlan",
    "ServiceMetrics",
    "ServingUnavailable",
    "ShardWorkerError",
    "ShardWorkerPool",
    "ShardedKeyStore",
    "SigningService",
    "TokenBucket",
    "derive_shard_seed",
    "encode_request_frame",
    "frame_shape",
    "plan_rounds",
]
