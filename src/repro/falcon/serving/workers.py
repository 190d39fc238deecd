"""Multi-process shard workers: real parallelism for the signing plane.

The asyncio :class:`~repro.falcon.serving.SigningService` coalesces
well, but every round still executes under one CPython GIL — every
committed benchmark before this layer ran on one core, and offloading
rounds to *threads* cannot change that.  :class:`ShardWorkerPool`
fans the shards out over **processes**: each shard gets a dedicated,
long-lived worker process that owns the shard's key material and runs
its sign / verify rounds, so a multi-core host runs as many rounds
truly in parallel as it has shards.

Design points:

* **One worker per shard, for the shard's lifetime.**  The worker
  builds its shard's :class:`~repro.falcon.keystore.KeyStore` once
  (same derived master seed and directory layout as
  :class:`~repro.falcon.serving.ShardedKeyStore` — the flock'ed slot
  manifests already make concurrent instances safe) and keeps its
  per-tenant signers checked out across rounds: the ffLDL trees,
  sampler pools and cached NTT transforms stay **warm**, exactly the
  amortization that made one-task-per-key process pools lose to
  single-process keygen.
* **Batched task submission.**  The unit of IPC is a whole coalesced
  round — one pickled ``(kind, n, tenants, messages, signatures)``
  message per round, with one tenant per lane, and one reply with the
  round's results — never one task per request.
* **Byte identity.**  A worker signs with the very keys the in-process
  path would have checked out for those tenants (same derived shard
  seed, same checkout order), through the very same cross-key
  ``sign_batch``; signatures travel back as raw ``(salt,
  compressed)`` bytes.  The loopback test suite pins over-the-wire
  bytes == direct bytes.
* **Failure isolation and supervision.**  A raising round travels back
  as an error reply and re-raises in the submitting process for that
  round only; the worker's loop keeps serving.  In a sign round each
  tenant's signer is checked out separately, and a failed checkout
  fails only that tenant's lanes.  A *dead* worker
  (SIGKILL, crash, pipe EOF) fails only the in-flight round with
  :class:`ShardWorkerError`; the pool then **respawns** the shard's
  worker on the next round — within a bounded restart budget with
  exponential backoff — and re-warms it by replaying every
  ``(tenant, n)`` signer checkout in first-seen order, so a memory-only
  deployment's respawned worker re-derives byte-identical keys (slot
  seeds are a pure function of the shard seed and checkout order).  A
  shard past its restart budget raises
  :class:`~repro.falcon.serving.errors.ServingUnavailable`-compatible
  errors until the pool is restarted.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import threading
import time
from pathlib import Path
from typing import Sequence

from ..scheme import Signature
from .errors import ServingUnavailable

#: Round kinds a worker executes (mirrors the service's constants;
#: re-declared here so worker processes do not import the asyncio
#: layer).  ``warm`` is supervision-internal: it checks a tenant's
#: signer out without signing, used to replay checkout order into a
#: respawned worker.  ``die`` is fault-injection-internal: the worker
#: hard-exits on receipt (the parent's injector decides the kills, so
#: one counter survives respawns and ``max_per_site`` means what it
#: says).
_KIND_SIGN = "sign"
_KIND_VERIFY = "verify"
_KIND_WARM = "warm"
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


def _worker_main(connection, shard: int, config: dict) -> None:
    """A shard worker process: build the shard store, serve rounds.

    Runs until the parent sends ``None`` (orderly drain) or the pipe
    breaks (parent died).  Per-tenant signers are checked out on first
    use and cached for the lifetime of the process — warm spines.
    """
    from ..batchverify import verify_batch
    from ..keystore import KeyStore
    from .sharded import derive_shard_seed, sign_tenant_lanes

    directory = config.get("directory")
    store = KeyStore(
        directory,
        master_seed=derive_shard_seed(config["master_seed"], shard),
        prng=config.get("prng", "chacha20"),
        base_backend=config.get("base_backend", "bitsliced"),
        fault_plan=config.get("fault_plan"))
    signers = {}

    def signer(tenant: str, n: int):
        key = (tenant, n)
        if key not in signers:
            signers[key] = store.checkout_current(n)[0]
        return signers[key]

    while True:
        try:
            task = connection.recv()
        except (EOFError, OSError):  # parent went away
            break
        if task is None:
            break
        # ``tenants`` has one entry per lane: each lane signs under, or
        # verifies against, its own tenant's key in one cross-key pass.
        kind, n, tenants, messages, signatures = task
        if kind == _KIND_DIE:
            # Simulate SIGKILL: no reply, no cleanup, no atexit — the
            # parent sees pipe EOF with the round still in flight.
            os._exit(FAULT_EXIT_CODE)
        try:
            if kind == _KIND_WARM:
                for tenant in tenants:
                    signer(tenant, n)
                reply = ("ok", None)
            elif kind == _KIND_SIGN:
                signed = sign_tenant_lanes(
                    lambda tenant: signer(tenant, n), tenants, messages)
                reply = ("ok", [_portable(s) if isinstance(s, Exception)
                                else (s.salt, s.compressed)
                                for s in signed])
            elif kind == _KIND_VERIFY:
                rebuilt = [Signature(salt=salt, compressed=compressed)
                           for salt, compressed in signatures]
                verdicts = verify_batch(
                    [(signer(tenant, n).public_key, message, signature)
                     for tenant, message, signature
                     in zip(tenants, messages, rebuilt)])
                reply = ("ok", list(verdicts))
            else:
                raise ValueError(f"unknown round kind {kind!r}")
        except Exception as error:
            reply = ("error", _portable(error))
        try:
            connection.send(reply)
        except (BrokenPipeError, OSError):  # parent went away
            break
    store.close()
    connection.close()


class ShardWorkerPool:
    """One dedicated worker process per shard, rounds as batched tasks.

    Construction mirrors :class:`~repro.falcon.serving
    .ShardedKeyStore` — same ``shards`` / ``master_seed`` /
    ``directory`` triple, so a pool and a sharded store describe the
    same deployment (with a shared directory the flock'ed manifests
    keep their slot claims disjoint; memory-only, the deterministic
    seed derivation makes worker checkouts reproduce the in-process
    checkout sequence).  Use as a context manager, or call
    :meth:`start` / :meth:`stop`::

        with ShardWorkerPool(shards=2, master_seed=7) as pool:
            signatures = pool.run_round(
                0, ["tenant-a", "tenant-b", "tenant-a"], "sign", 64,
                [b"hello", b"hi", b"again"])

    ``run_round`` is thread-safe per shard (a per-shard lock
    serializes the pipe round-trip — rounds for one shard are
    sequential by design, matching the service's one-worker-per-shard
    drain loop) and blocking: the asyncio layer calls it through
    ``asyncio.to_thread``, so N shards run N rounds truly in parallel
    on a multi-core host.

    ``fault_plan`` drives worker kills from this process, and its
    keystore faults (failed or crashed claims) arm each worker's store.
    Each worker counts those claims afresh, so a respawned worker's
    re-warm replays the failures its predecessor saw and raises.
    """

    def __init__(self, *, shards: int = 2,
                 master_seed: int | bytes = 0,
                 directory: str | Path | None = None,
                 prng: str = "chacha20",
                 base_backend: str = "bitsliced",
                 fault_plan=None,
                 max_restarts: int = 3,
                 restart_backoff: float = 0.05) -> None:
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        self._config_base = {
            "master_seed": master_seed,
            "prng": prng,
            "base_backend": base_backend,
            # The plan's keystore faults (failed / crashed claims) arm
            # each worker's store, as they arm a ShardedKeyStore's.
            "fault_plan": fault_plan,
        }
        # The PARENT owns the kill schedule: one injector whose
        # counters survive worker respawns, so a plan's max_per_site
        # caps total kills — a respawned worker building its own
        # injector would replay the same coin and die forever.
        self._faults = (fault_plan.injector()
                        if fault_plan is not None else None)
        self._directory = Path(directory) if directory is not None \
            else None
        self._processes: list = []
        self._connections: list = []
        self._locks = [threading.Lock() for _ in range(shards)]
        self._started = False
        self._stopped = False
        # Supervision state, all per shard and guarded by the shard
        # lock: restart counters against the budget, the earliest
        # monotonic instant the next respawn may happen (exponential
        # backoff), and the warm list — every (tenant, n) this shard
        # has checked out, in first-seen order, replayed into a
        # respawned worker so checkout order (hence key bytes, for
        # memory-only stores) is preserved.
        self.max_restarts = max_restarts
        self.restart_backoff = restart_backoff
        self._restarts = [0] * shards
        self._next_restart = [0.0] * shards
        self._warm_order: list[list[tuple[str, int]]] = [
            [] for _ in range(shards)]
        self._warm_seen: list[set] = [set() for _ in range(shards)]
        self._rounds_failed = [0] * shards

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, shard: int) -> None:
        """Create shard's worker process + pipe at its slot."""
        config = dict(self._config_base)
        config["directory"] = (
            str(self._directory / f"shard-{shard:02d}")
            if self._directory is not None else None)
        parent_end, worker_end = mp.Pipe()
        process = mp.Process(
            target=_worker_main, args=(worker_end, shard, config),
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
        """Respawn shard's worker if it died (shard lock held).

        Enforces the restart budget, waits out the exponential
        backoff window, and replays the shard's warm list so the new
        worker checks tenants out in the original first-seen order.
        """
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
        self._rewarm_locked(shard)

    def _rewarm_locked(self, shard: int) -> None:
        """Replay the shard's (tenant, n) checkouts into a fresh
        worker, in first-seen order (shard lock held)."""
        connection = self._connections[shard]
        for tenant, n in self._warm_order[shard]:
            try:
                connection.send((_KIND_WARM, n, [tenant], None, None))
                status, _ = connection.recv()
            except (EOFError, BrokenPipeError, OSError) as error:
                raise ShardWorkerError(
                    f"shard {shard} worker died during re-warm"
                ) from error
            if status != "ok":
                raise ShardWorkerError(
                    f"shard {shard} re-warm of ({tenant!r}, {n}) "
                    f"failed")

    def stats(self) -> dict:
        """Supervision snapshot: restart/failure counters per shard."""
        return {
            "restarts": list(self._restarts),
            "rounds_failed": list(self._rounds_failed),
            "alive": [p.is_alive() for p in self._processes],
            "warm_tenants": [len(order)
                             for order in self._warm_order],
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
        tenant whose signer checkout failed in the worker gets that
        exception as its lanes' results while the other lanes sign.  A
        round that raised in the worker re-raises here; a worker that
        died mid-round raises :class:`ShardWorkerError` for **this
        round only** — the next round respawns the worker (warm
        re-derivation, bounded restart budget, exponential backoff).
        """
        if not self._started or self._stopped:
            raise ShardWorkerError("worker pool is not running")
        if not 0 <= shard < self.shards:
            raise ValueError(f"no such shard {shard}")
        tenants = list(tenants)
        payload = ([(s.salt, s.compressed) for s in signatures]
                   if signatures is not None else None)
        with self._locks[shard]:
            self._ensure_worker_locked(shard)
            connection = self._connections[shard]
            if (self._faults is not None
                    and kind in (_KIND_SIGN, _KIND_VERIFY)
                    and self._faults.kill_worker(shard)):
                # Queue the kill ahead of the round: the worker
                # hard-exits on it, and the round below dies with a
                # pipe EOF — exactly a SIGKILL landing mid-round.
                try:
                    connection.send((_KIND_DIE, n, None, None, None))
                except (BrokenPipeError, OSError):
                    pass
            try:
                connection.send((kind, n, tenants, list(messages),
                                 payload))
                reply = connection.recv()
            except (EOFError, BrokenPipeError, OSError) as error:
                self._rounds_failed[shard] += 1
                self._reap_locked(shard)
                raise ShardWorkerError(
                    f"shard {shard} worker died mid-round") from error
            # Record first-seen (tenant, n) checkouts in lane order —
            # the worker checks each lane's tenant out in that order,
            # so the warm-replay list must match it exactly (checkout
            # order determines key bytes for memory-only stores).
            for tenant in tenants:
                if (tenant, n) not in self._warm_seen[shard]:
                    self._warm_seen[shard].add((tenant, n))
                    self._warm_order[shard].append((tenant, n))
        status, result = reply
        if status == "error":
            raise result
        if kind != _KIND_SIGN:
            return result
        return [lane if isinstance(lane, Exception)
                else Signature(salt=lane[0], compressed=lane[1])
                for lane in result]
