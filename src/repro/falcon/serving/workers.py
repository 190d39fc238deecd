"""Multi-process shard workers: real parallelism for the signing plane.

The asyncio :class:`~repro.falcon.serving.SigningService` coalesces
well, but every round still executes under one CPython GIL, and
offloading rounds to *threads* cannot change that.
:class:`ShardWorkerPool` gives each shard a dedicated, long-lived
worker **process** that runs its sign / verify rounds, so a multi-core
host runs as many rounds truly in parallel as it has shards.

* **The parent keeps custody of every key.**  A worker holds no key
  store: each round ships, once per tenant, the tenant's secret-key
  encoding (:meth:`~repro.falcon.serving.ShardedKeyStore
  .encoded_secret_key`) or, for a verify round, its public key.  The
  worker keeps one load per ``(tenant, n)`` across rounds (warm ffLDL
  tree, sampler pool and NTT transforms) and replaces it when a round
  ships a different key, after a rotation.  Each load decodes with
  fresh entropy, so a respawned worker never replays a salt.
* **Batched task submission.**  The unit of IPC is a whole coalesced
  round — one pickled ``(kind, n, keys, tenants, messages,
  signatures)`` message with one tenant per lane, and one reply.
* **Failure isolation and supervision.**  A tenant whose key could
  not be checked out fails only its own lanes (through the in-process
  path's :func:`~repro.falcon.serving.sharded.sign_tenant_lanes`).  A
  raising round re-raises in the parent for that round only.  A
  *dead* worker (SIGKILL, crash, pipe EOF) fails only the in-flight
  round with :class:`ShardWorkerError`; the next round respawns it,
  within a bounded restart budget with exponential backoff, and ships
  it its keys.  Past the budget a shard raises
  :class:`~repro.falcon.serving.errors.ServingUnavailable`-compatible
  errors until the pool is restarted.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from typing import Sequence

from ..scheme import Signature
from .errors import ServingUnavailable
from .sharded import sign_tenant_lanes

#: Round kinds a worker executes (mirrors the service's constants;
#: re-declared here so worker processes do not import the asyncio
#: layer).  ``die`` is fault-injection-internal: the worker hard-exits
#: on receipt (the parent's injector decides the kills, so one counter
#: survives respawns and ``max_per_site`` means what it says).
_KIND_SIGN = "sign"
_KIND_VERIFY = "verify"
_KIND_DIE = "die"

#: Exit status a fault-injected worker dies with (visible in
#: ``Process.exitcode`` — tests assert the crash was the planned one).
FAULT_EXIT_CODE = 17


class ShardWorkerError(ServingUnavailable):
    """A shard worker process failed outside a round (died, refused)."""


def _portable(error: Exception) -> Exception:
    """``error`` if it pickles (most do), else a ``RuntimeError``
    carrying its repr — what a worker can send back."""
    try:
        pickle.dumps(error)
    except Exception:
        return RuntimeError(repr(error))
    return error


def _worker_main(connection, prng: str) -> None:
    """A shard worker process: load the keys each round ships, run it.

    Runs until the parent sends ``None`` (orderly drain) or the pipe
    breaks (parent died).  Loads are kept per ``(kind, tenant, n)``
    and replaced when a round ships a different key.
    """
    from .. import serialize
    from ..batchverify import verify_batch
    from ..scheme import PublicKey, sign_batch

    loads: dict = {}

    def load(kind: str, tenant: str, n: int, shipped):
        entry = loads.get((kind, tenant, n))
        if entry is None or entry[0] != shipped:
            key = (serialize.decode_secret_key(shipped, prng=prng)
                   if kind == _KIND_SIGN else PublicKey(n, shipped))
            entry = loads[(kind, tenant, n)] = (shipped, key)
        return entry[1]

    while True:
        try:
            task = connection.recv()
        except (EOFError, OSError):  # parent went away
            break
        if task is None:
            break
        # ``keys`` maps each tenant of the round to its shipped key;
        # ``tenants`` has one entry per lane.
        kind, n, keys, tenants, messages, signatures = task
        if kind == _KIND_DIE:
            # Simulate SIGKILL: no reply, no cleanup, no atexit — the
            # parent sees pipe EOF with the round still in flight.
            os._exit(FAULT_EXIT_CODE)
        try:
            loaded = {tenant: load(kind, tenant, n, shipped)
                      for tenant, shipped in keys.items()}
            if kind == _KIND_SIGN:
                signed = sign_batch(
                    [(loaded[tenant], message)
                     for tenant, message in zip(tenants, messages)])
                reply = ("ok", [(s.salt, s.compressed) for s in signed])
            else:
                verdicts = verify_batch(
                    [(loaded[tenant], message,
                      Signature(salt=salt, compressed=compressed))
                     for tenant, message, (salt, compressed)
                     in zip(tenants, messages, signatures)])
                reply = ("ok", list(verdicts))
        except Exception as error:
            reply = ("error", _portable(error))
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):  # parent went away
            break
    connection.close()


class ShardWorkerPool:
    """One dedicated worker process per shard of ``store``, rounds as
    batched tasks.

    ``store`` is the :class:`~repro.falcon.serving.ShardedKeyStore`
    that keeps custody of every tenant key; the pool takes its shard
    count from it and ships each round's keys out of it.  Use as a
    context manager, or call :meth:`start` / :meth:`stop`::

        store = ShardedKeyStore(shards=2, master_seed=7)
        with ShardWorkerPool(store) as pool:
            signatures = pool.run_round(
                0, ["tenant-a", "tenant-b", "tenant-a"], "sign", 64,
                [b"hello", b"hi", b"again"])

    ``run_round`` is thread-safe per shard (a per-shard lock
    serializes the pipe round-trip — rounds for one shard are
    sequential by design, matching the service's one-worker-per-shard
    drain loop) and blocking: the asyncio layer calls it from a
    thread, so N shards run N rounds truly in parallel on a multi-core
    host.

    ``fault_plan`` drives worker kills from this process; the pool
    reads only its kill faults (claim and refill faults arm the store
    they were given to, where the keys are checked out).
    """

    def __init__(self, store, *, fault_plan=None,
                 max_restarts: int = 3,
                 restart_backoff: float = 0.05) -> None:
        self.store = store
        self.shards = store.shards
        # The PARENT owns the kill schedule: one injector whose
        # counters survive worker respawns, so a plan's max_per_site
        # caps total kills — a respawned worker building its own
        # injector would replay the same coin and die forever.
        self._faults = (fault_plan.injector()
                        if fault_plan is not None else None)
        self._processes: list = []
        self._connections: list = []
        self._locks = [threading.Lock() for _ in range(self.shards)]
        self._started = False
        self._stopped = False
        # Supervision state, all per shard and guarded by the shard
        # lock: restart counters against the budget and the earliest
        # monotonic instant the next respawn may happen (exponential
        # backoff).
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self._restarts = [0] * self.shards
        self._next_restart = [0.0] * self.shards
        self._rounds_failed = [0] * self.shards

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, shard: int) -> None:
        """Create shard's worker process + pipe at its slot."""
        parent_end, worker_end = mp.Pipe()
        process = mp.Process(
            target=_worker_main,
            args=(worker_end, self.store.stores[shard].prng),
            daemon=True, name=f"falcon-shard-worker-{shard}")
        process.start()
        worker_end.close()  # the worker holds its own copy
        if shard < len(self._processes):
            self._processes[shard] = process
            self._connections[shard] = parent_end
        else:
            self._processes.append(process)
            self._connections.append(parent_end)

    def start(self) -> None:
        if self._started:
            raise RuntimeError("pool already started")
        for shard in range(self.shards):
            self._spawn(shard)
        self._started = True

    def stop(self, timeout: float = 10.0) -> None:
        """Drain and stop every worker (idempotent).

        Sends each worker the orderly-shutdown sentinel, joins with
        ``timeout``, and terminates stragglers — in-flight rounds
        complete first because the sentinel queues behind them on the
        pipe.
        """
        if not self._started or self._stopped:
            return
        self._stopped = True
        for connection, lock in zip(self._connections, self._locks):
            with lock:
                try:
                    connection.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for process in self._processes:
            process.join(timeout)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout)
        for connection in self._connections:
            connection.close()

    def __enter__(self) -> "ShardWorkerPool":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        return (self._started and not self._stopped
                and all(p.is_alive() for p in self._processes))

    # -- supervision -------------------------------------------------------

    def _reap_locked(self, shard: int) -> None:
        """Acknowledge a dead worker (shard lock held): reap the
        process and close the now-useless parent pipe end."""
        process = self._processes[shard]
        if process.is_alive():  # kill a wedged worker outright
            process.terminate()
        process.join(1.0)
        try:
            self._connections[shard].close()
        except OSError:  # pragma: no cover - already closed
            pass

    def _ensure_worker_locked(self, shard: int) -> None:
        """Respawn shard's worker if it died (shard lock held),
        within the restart budget and after the exponential backoff
        window."""
        if self._processes[shard].is_alive():
            return
        self._reap_locked(shard)
        if self._restarts[shard] >= self.max_restarts:
            raise ShardWorkerError(
                f"shard {shard} worker restart budget exhausted "
                f"({self.max_restarts} restarts)")
        delay = self._next_restart[shard] - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        self._restarts[shard] += 1
        self._next_restart[shard] = (
            time.monotonic()
            + self.restart_backoff * 2.0 ** (self._restarts[shard] - 1))
        self._spawn(shard)

    def stats(self) -> dict:
        """Supervision snapshot: restart/failure counters per shard."""
        return {
            "restarts": list(self._restarts),
            "rounds_failed": list(self._rounds_failed),
            "alive": [p.is_alive() for p in self._processes],
            "max_restarts": self.max_restarts,
        }

    # -- round execution ---------------------------------------------------

    def run_round(self, shard: int, tenants: Sequence[str], kind: str,
                  n: int, messages: Sequence[bytes],
                  signatures: Sequence[Signature] | None = None) -> list:
        """Run one coalesced round on ``shard``'s worker process.

        ``tenants`` holds one tenant id per lane, aligned with
        ``messages`` (and, in a verify round, ``signatures``).

        Blocking (call from a thread); returns what the in-process
        round would have — one ``Signature`` per lane for a sign
        round, one bool per lane for a verify round.  In a sign round a
        tenant whose key checkout failed gets that exception as its
        lanes' results while the other lanes sign.  A round that raised
        in the worker re-raises here; a worker that died mid-round
        raises :class:`ShardWorkerError` for **this round only** — the
        next round respawns the worker (bounded restart budget,
        exponential backoff).
        """
        if not self._started or self._stopped:
            raise ShardWorkerError("worker pool is not running")
        if not 0 <= shard < self.shards:
            raise ValueError(f"no such shard {shard}")
        if kind == _KIND_SIGN:
            # Each lane's key is (tenant, encoding); the round ships
            # one encoding per tenant.
            return sign_tenant_lanes(
                lambda tenant: (tenant,
                                self.store.encoded_secret_key(tenant, n)),
                tenants, messages,
                sign=lambda lanes: [
                    Signature(salt=salt, compressed=compressed)
                    for salt, compressed in self._exchange(
                        shard, kind, n, [key for key, _ in lanes],
                        [message for _, message in lanes])])
        if kind != _KIND_VERIFY:
            raise ValueError(f"unknown round kind {kind!r}")
        return self._exchange(
            shard, kind, n,
            [(tenant, self.store.public_key(tenant, n).h)
             for tenant in tenants], messages,
            [(s.salt, s.compressed) for s in signatures])

    def _exchange(self, shard: int, kind: str, n: int, keys: list,
                  messages: Sequence[bytes], signatures=None) -> list:
        """One round on ``shard``'s worker (respawned first if it
        died): ``keys`` holds one ``(tenant, shipped key)`` per lane,
        and the task carries each tenant's key once.  Returns the
        worker's results, or re-raises its error."""
        task = (kind, n, dict(keys), [tenant for tenant, _ in keys],
                list(messages), signatures)
        with self._locks[shard]:
            self._ensure_worker_locked(shard)
            connection = self._connections[shard]
            if (self._faults is not None
                    and self._faults.kill_worker(shard)):
                # Queue the kill ahead of the round: the worker
                # hard-exits on it, and the round below dies with a
                # pipe EOF — exactly a SIGKILL landing mid-round.
                try:
                    connection.send((_KIND_DIE,) + (None,) * 5)
                except (BrokenPipeError, OSError):
                    pass
            try:
                connection.send(task)
                status, result = connection.recv()
            except (EOFError, BrokenPipeError, OSError) as error:
                self._rounds_failed[shard] += 1
                self._reap_locked(shard)
                raise ShardWorkerError(
                    f"shard {shard} worker died mid-round") from error
        if status == "error":
            raise result
        return result
