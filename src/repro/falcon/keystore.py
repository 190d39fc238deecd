"""Generate-ahead Falcon key store: pools, workers, disk persistence.

The serving deployments the ROADMAP targets do not generate a key per
request — they draw from a pre-filled pool and refill it off the hot
path.  :class:`KeyStore` is that layer:

* **generate-ahead pools** per ring degree, filled by
  :meth:`KeyStore.generate_ahead` — inline, or fanned out over a
  process pool (key generation is CPU-bound Python, so real
  parallelism needs processes, not threads);
* **deterministic provisioning**: every pool slot's seed derives from
  ``(master_seed, n, index)`` via SHA-256, so a store can be audited or
  rebuilt bit-for-bit (the keygen spines guarantee the same seed gives
  the same key with or without NumPy);
* **disk persistence** of the canonical ``serialize`` encodings: keys
  survive restarts, and every acquisition exercises the full canonical
  decode — range checks, G recomputation, NTRU-equation verification —
  and loads the key with a fresh signing stream (see
  :func:`~repro.falcon.serialize.decode_secret_key`);
* **a locked slot manifest**: slot indices are claimed under an
  exclusive cross-process file lock, with the manifest re-read inside
  the critical section — several store instances (or processes) may
  share one directory without ever deriving the same per-slot seed
  twice.  Slot indices are strictly monotone per degree: a slot, once
  claimed, is never reissued, whether it was served, retired, or lost;
* **generation cohorts**: the manifest stamps each degree with a
  generation number and the first slot index of the current cohort.
  :meth:`rotate` retires the live cohort (pooled keys are discarded
  and their files removed — retired slots are *not* re-derivable
  because the index sequence keeps advancing) and optionally
  regenerates a fresh cohort;
* **watermark refill**: with ``low_watermark`` set, every checkout
  that leaves the pool below the watermark triggers a refill up to
  ``2 * low_watermark`` on a background thread, so the serving path never
  blocks on key generation (the dry-``acquire`` inline fallback
  remains as a last resort);
* **metrics**: :meth:`stats` snapshots pool depth, checkout counts,
  refill counts and latency, cohort generations — the dashboard
  surface the serving layer aggregates per shard.

Tenant-facing sharding (consistent hashing, the per-tenant key
custody, the asyncio coalescing front) lives one layer up, in
:mod:`repro.falcon.serving`: a tenant's key is one checkout of its
home shard's store, through :meth:`KeyStore.checkout_current`.
"""

from __future__ import annotations

import json
import re
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Sequence

try:  # POSIX cross-process advisory locks; absent on some platforms.
    import fcntl as _fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    _fcntl = None

from ..ctlint.annotations import secret_params
from .scheme import SecretKey
from .serialize import SECRET_KEY_SUFFIX, atomic_write_bytes

_KEY_FILE_PATTERN = re.compile(
    r"falcon_n(?P<n>\d+)_(?P<index>\d+)"
    + re.escape(SECRET_KEY_SUFFIX) + r"$")

#: Per-directory manifest holding, per ring degree, the next unissued
#: slot index, the current generation and the cohort's first slot.
#: Key files alone cannot carry that information — :meth:`KeyStore
#: .acquire` deletes the file it checks out, so a fully drained store
#: would otherwise restart at index 0 and re-issue key material that
#: is already in some caller's hands.
_STATE_FILE = "keystore-state.json"

#: Lock file guarding manifest read-modify-write cycles across
#: processes (and across store instances within one process).
_LOCK_FILE = "keystore.lock"

#: Claim journal: one JSON line per claim transition (``claimed`` when
#: a slot's key file is renamed to its claim scratch, ``served`` once
#: the material has been read into the claimant's memory).  A crash
#: between rename and serve leaves a ``claimed`` entry whose scratch
#: still exists — restart recovery rolls it BACK into the pool (the
#: caller never saw the key, so the slot is still the store's to
#: serve).  A crash between serve and unlink leaves a ``served`` entry
#: — recovery rolls it FORWARD (unlinks the scratch; re-pooling it
#: would double-serve the slot).  Either way no slot is double-served
#: or leaked.
_JOURNAL_FILE = "keystore-claims.jsonl"

#: Claim scratch files older than this are crash leftovers (a live
#: claim exists for milliseconds between rename and unlink) and are
#: swept at store construction — secret key material must not linger
#: in orphaned scratch files.  Ages are clamped at zero before the
#: comparison: a scratch whose mtime sits in the *future* (clock skew
#: between NFS client and server, coarse filesystem timestamp
#: granularity) is by definition fresh, never stale — the naive
#: ``now - mtime`` difference going negative must not be allowed to
#: wrap into "very old" through any later arithmetic, and a racing
#: process's live claim must never be swept out from under it.  The
#: threshold is per-store configurable (``stale_claim_seconds``) so
#: deployments on high-skew shared filesystems can widen it.
_STALE_CLAIM_SECONDS = 60.0


@secret_params("master_seed")
def derive_key_seed(master_seed: int | bytes, n: int, index: int) -> bytes:
    """Deterministic 32-byte PRNG seed for pool slot ``(n, index)``.

    Integer master seeds of any sign and size are accepted (hashed via
    their decimal form, so ``-1`` and huge seeds work); byte seeds are
    hashed as-is.
    """
    if isinstance(master_seed, int):
        # ct: allow(vartime-str): decimal rendering feeds SHA-256 off the signing path; the format is pinned by the committed keystore KATs
        master = b"%d" % master_seed
    else:
        master = bytes(master_seed)
    # ct: allow(vartime-str): fixed-shape domain-separation label, pinned by the committed keystore KATs
    material = b"falcon-keystore|%b|%d|%d" % (master, n, index)
    return sha256(material).digest()


def generate_encoded_key(n: int, seed: bytes,
                         prng: str = "chacha20") -> bytes:
    """Generate one key and return its canonical encoding.

    Module-level (not a method) so process pools can pickle the job;
    returning the *encoded* bytes keeps the inter-process payload small
    and guarantees every pooled key round-trips the serializer.
    """
    secret_key = SecretKey.generate(n=n, seed=seed, prng=prng)
    from .serialize import encode_secret_key
    return encode_secret_key(secret_key)


def generate_encoded_key_block(n: int, seeds: Sequence[bytes],
                               prng: str = "chacha20") -> list[bytes]:
    """Generate a whole block of keys in one process-pool task.

    One-slot-per-task submission pays the per-task costs — pickling,
    pool dispatch, and above all the worker's one-time warmup (CDT
    table construction, NumPy kernel caches) — once *per key*, which
    is exactly why the pooled keygen row regressed to 0.08–0.93x
    single-process.  A block task pays them once per *worker*: the
    first key in the block warms the worker's caches and every later
    key in the block (and in any later block the warm worker picks up)
    rides them.
    """
    return [generate_encoded_key(n, seed, prng) for seed in seeds]


@dataclass
class _PoolEntry:
    """One ready key: encoded bytes in memory, file on disk, or both."""

    encoded: bytes | None = None
    path: Path | None = None
    index: int = -1
    generation: int = 0

    def read(self) -> bytes:
        if self.encoded is not None:
            return self.encoded
        return self.path.read_bytes()


@dataclass
class KeyStoreStats:
    """Counters for monitoring a store (returned by :meth:`stats`).

    ``served`` is the checkout count (acquires); ``refills`` counts
    completed refill passes with their cumulative and most recent
    latency; ``watermark_triggers`` counts checkouts that dipped below
    the watermark; ``retired`` counts keys discarded by rotation.
    """

    generated: int = 0
    served: int = 0
    loaded_from_disk: int = 0
    refills: int = 0
    watermark_triggers: int = 0
    retired: int = 0
    last_refill_seconds: float = 0.0
    total_refill_seconds: float = 0.0
    #: Background refill passes that raised (the exception is recorded
    #: in ``last_refill_error``, the watermark trigger re-armed, and
    #: the next below-watermark checkout tries again — a refill death
    #: is never silent and never permanent).
    refill_errors: int = 0
    last_refill_error: str = ""
    #: Claim-journal recovery outcomes at store construction: slots
    #: rolled back into the pool (crash before serve) and scratches
    #: rolled forward (crash after serve, before unlink).
    claims_recovered: int = 0
    claims_rolled_forward: int = 0
    available: dict[int, int] = field(default_factory=dict)
    generation: dict[int, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        """JSON-friendly snapshot (the metrics-export surface)."""
        return {
            "generated": self.generated,
            "served": self.served,
            "loaded_from_disk": self.loaded_from_disk,
            "refills": self.refills,
            "watermark_triggers": self.watermark_triggers,
            "retired": self.retired,
            "last_refill_seconds": round(self.last_refill_seconds, 6),
            "total_refill_seconds": round(self.total_refill_seconds, 6),
            "refill_errors": self.refill_errors,
            "last_refill_error": self.last_refill_error,
            "claims_recovered": self.claims_recovered,
            "claims_rolled_forward": self.claims_rolled_forward,
            "available": {str(n): depth
                          for n, depth in self.available.items()},
            "generation": {str(n): generation
                           for n, generation in
                           self.generation.items()},
        }


class KeyStore:
    """A generate-ahead pool of Falcon secret keys.

    ``directory=None`` keeps the store purely in memory; with a
    directory, every generated key is persisted (atomically) and
    existing persisted keys plus the slot-index manifest are read back
    at construction, so a restarted store resumes from disk without
    ever re-issuing a slot it already handed out.  Slot claims happen
    under an exclusive manifest lock with a reload inside the critical
    section, so any number of stores (including other processes)
    sharing the directory claim disjoint slots.  A memory-only store
    has no such memory across processes — it is deterministic from
    ``master_seed`` by design, so two memory-only stores with the same
    seed serve the same keys (each load with its own signing stream).
    ``workers > 1`` fans :meth:`generate_ahead` out over a process
    pool.

    ``prng`` names the generator for key generation and for every
    served signer, whose signing stream is seeded from fresh entropy
    and its own key material (see
    :func:`~repro.falcon.serialize.decode_secret_key`).

    ``low_watermark > 0`` arms watermark refill: a checkout leaving
    fewer than ``low_watermark`` pooled keys schedules a refill up to
    ``2 * low_watermark`` on a daemon thread; :meth:`join_refills`
    waits for it.
    """

    def __init__(self, directory: str | Path | None = None, *,
                 master_seed: int | bytes = 0,
                 prng: str = "chacha20",
                 workers: int = 1,
                 low_watermark: int = 0,
                 stale_claim_seconds: float = _STALE_CLAIM_SECONDS,
                 fault_plan=None) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if low_watermark < 0:
            raise ValueError("low_watermark must be non-negative")
        if stale_claim_seconds <= 0:
            raise ValueError("stale_claim_seconds must be positive")
        self.directory = Path(directory) if directory is not None else None
        self.master_seed = master_seed
        self.prng = prng
        self.workers = workers
        self.low_watermark = low_watermark
        self.stale_claim_seconds = stale_claim_seconds
        # Fault injection (duck-typed: anything with an ``injector()``
        # returning claim_action/refill_should_fail/refill_stall/error
        # — in practice a serving.faults.FaultPlan; the keystore never
        # imports the serving package, avoiding an import cycle).
        self._faults = (fault_plan.injector()
                        if fault_plan is not None else None)
        self._executor = None  # lazy, persistent (warm workers)
        self._executor_guard = threading.Lock()
        self._pools: dict[int, deque[_PoolEntry]] = {}
        self._next_index: dict[int, int] = {}
        self._generation: dict[int, int] = {}
        self._cohort_start: dict[int, int] = {}
        self._stats = KeyStoreStats()
        self._lock = threading.RLock()
        self._refilling: set[int] = set()
        self._refill_threads: list[threading.Thread] = []
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            with self._manifest_lock():
                self._reload_state()
                self._index_directory()

    # -- manifest ----------------------------------------------------------

    #: Process-wide manifest locks keyed by resolved directory — the
    #: fallback serialization between store *instances* sharing a
    #: directory when POSIX ``flock`` is unavailable (without it,
    #: cross-instance claims in one process would interleave and
    #: re-issue slot seeds).
    _directory_locks: dict[str, threading.RLock] = {}
    _directory_locks_guard = threading.Lock()

    def _directory_lock(self) -> threading.RLock:
        key = str(self.directory.resolve())
        with KeyStore._directory_locks_guard:
            return KeyStore._directory_locks.setdefault(
                key, threading.RLock())

    @contextmanager
    def _manifest_lock(self):
        """Exclusive manifest critical section.

        In-process: the store's re-entrant lock plus a process-wide
        per-directory lock (so two *instances* sharing a directory
        serialize even where ``flock`` does not exist).  Cross-
        process: an exclusive ``flock`` on the directory's lock file.
        Every slot claim re-reads the manifest inside this section, so
        no two claimants can ever observe the same next-index.  On
        platforms without ``fcntl``, cross-*process* sharing of one
        directory is not protected (POSIX-only guarantee).
        """
        with self._lock:
            if self.directory is None:
                yield
                return
            with self._directory_lock():
                if _fcntl is None:  # pragma: no cover - non-POSIX
                    yield
                    return
                lock_path = self.directory / _LOCK_FILE
                with open(lock_path, "a+b") as handle:
                    _fcntl.flock(handle.fileno(), _fcntl.LOCK_EX)
                    try:
                        yield
                    finally:
                        _fcntl.flock(handle.fileno(), _fcntl.LOCK_UN)

    def _reload_state(self) -> None:
        """Merge the on-disk manifest into the in-memory counters.

        Counters only ever move forward (``max``): a stale in-memory
        view can never pull the claimed range backwards, and a manifest
        advanced by another store instance is always honoured before
        new slots are claimed.
        """
        if self.directory is None:
            return
        state_path = self.directory / _STATE_FILE
        if not state_path.exists():
            return
        state = json.loads(state_path.read_text(encoding="utf-8"))
        for n, next_index in state.get("next_index", {}).items():
            key = int(n)
            self._next_index[key] = max(self._next_index.get(key, 0),
                                        int(next_index))
        for n, generation in state.get("generation", {}).items():
            key = int(n)
            self._generation[key] = max(self._generation.get(key, 0),
                                        int(generation))
        for n, start in state.get("cohort_start", {}).items():
            key = int(n)
            self._cohort_start[key] = max(self._cohort_start.get(key, 0),
                                          int(start))

    def _write_state(self) -> None:
        payload = {
            "next_index": {str(n): index for n, index in
                           sorted(self._next_index.items())},
            "generation": {str(n): generation for n, generation in
                           sorted(self._generation.items())},
            "cohort_start": {str(n): start for n, start in
                             sorted(self._cohort_start.items())},
        }
        atomic_write_bytes(self.directory / _STATE_FILE,
                           json.dumps(payload, indent=1).encode())

    def _journal_append(self, record: dict) -> None:
        """Append one claim transition to the journal (no-op for
        memory-only stores).  One short JSON line per append — small
        enough that concurrent appenders' lines never interleave."""
        if self.directory is None:
            return
        line = json.dumps(record, separators=(",", ":")) + "\n"
        with open(self.directory / _JOURNAL_FILE, "a",
                  encoding="utf-8") as handle:
            handle.write(line)

    def _recover_journal(self) -> None:
        """Resolve claims a crashed claimant left behind (called at
        construction, under the manifest lock).

        Per journaled scratch, the LAST recorded state wins:

        * ``served`` + scratch still on disk → the key reached its
          caller; crash happened before the unlink.  Roll FORWARD:
          unlink the scratch (re-pooling would double-serve).
        * ``claimed`` + scratch on disk and *stale* → crash between
          rename and serve; the caller never saw the key.  Roll BACK:
          rename the scratch to its original slot name so the
          adoption pass re-pools it (no slot leaked).  Fresh scratches
          are live claims in another process and are left alone (same
          age rule, same clamped-at-zero skew handling, as the
          journal-less sweep).
        * scratch gone → the claim resolved itself; drop the entry.

        The journal is compacted afterwards: only still-live claims
        keep their entries.
        """
        journal_path = self.directory / _JOURNAL_FILE
        if not journal_path.exists():
            return
        states: dict[str, dict] = {}
        for line in journal_path.read_text(
                encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn final write at crash: ignore
            scratch_name = record.get("scratch")
            if scratch_name:
                states[scratch_name] = record
        keep: list[dict] = []
        for scratch_name, record in states.items():
            scratch = self.directory / scratch_name
            if not scratch.exists():
                continue
            if record.get("state") == "served":
                scratch.unlink(missing_ok=True)
                self._stats.claims_rolled_forward += 1
                continue
            slot_name = record.get("slot")
            if not slot_name:  # pragma: no cover - malformed entry
                keep.append(record)
                continue
            try:
                age = max(0.0, time.time() - scratch.stat().st_mtime)
            except OSError:  # pragma: no cover - claimant finished
                continue
            if age <= self.stale_claim_seconds:
                keep.append(record)  # live claim elsewhere: hands off
                continue
            slot = self.directory / slot_name
            if slot.exists():  # pragma: no cover - duplicate material
                scratch.unlink(missing_ok=True)
            else:
                scratch.rename(slot)
                self._stats.claims_recovered += 1
        payload = "".join(json.dumps(record, separators=(",", ":"))
                          + "\n" for record in keep)
        atomic_write_bytes(journal_path, payload.encode())

    def _index_directory(self) -> None:
        """Adopt keys already persisted under ``directory``.

        Key files below the current cohort start belong to a retired
        generation: they are removed, never adopted (their slots stay
        burned — the manifest's next-index is already past them).
        Live files clamp the next-slot counters up, so even a store
        whose manifest was deleted never re-issues a slot that still
        has a key file.  Journaled claims are recovered first (rolled
        forward or back — see :meth:`_recover_journal`); stale
        ``.claim-*`` scratch files with no journal entry — a claimant
        crashed between its rename and unlink before the journal
        existed — are swept so secret key material never lingers;
        fresh claims (a live checkout in another process) are left
        alone.
        """
        self._recover_journal()
        for scratch in self.directory.glob(
                "falcon_n*" + SECRET_KEY_SUFFIX + ".claim-*"):
            try:
                mtime = scratch.stat().st_mtime
            except OSError:  # pragma: no cover - claimant finished
                continue
            # Clamp at zero: a future mtime (clock skew, NFS timestamp
            # granularity) means "fresh", and must never be able to
            # read as ancient — sweeping a racing process's live claim
            # would destroy the one copy of that slot's key material.
            age = max(0.0, time.time() - mtime)
            if age > self.stale_claim_seconds:
                scratch.unlink(missing_ok=True)
        for path in sorted(self.directory.glob("falcon_n*" +
                                               SECRET_KEY_SUFFIX)):
            match = _KEY_FILE_PATTERN.match(path.name)
            if not match:
                continue
            n = int(match.group("n"))
            index = int(match.group("index"))
            if index < self._cohort_start.get(n, 0):
                path.unlink(missing_ok=True)
                self._stats.retired += 1
                continue
            self._pools.setdefault(n, deque()).append(
                _PoolEntry(path=path, index=index,
                           generation=self._generation.get(n, 0)))
            self._next_index[n] = max(self._next_index.get(n, 0),
                                      index + 1)
            self._stats.loaded_from_disk += 1

    def _key_path(self, n: int, index: int) -> Path:
        return self.directory / (f"falcon_n{n:04d}_{index:06d}"
                                 + SECRET_KEY_SUFFIX)

    def _claim_indices(self, n: int, count: int) -> list[int]:
        """Claim ``count`` fresh slot indices for degree ``n``.

        The reload-claim-persist cycle runs under the manifest lock:
        concurrent claimants (other threads, other store instances,
        other processes) always observe each other's claims and the
        returned ranges are disjoint.  Claimed indices are persisted
        *before* any key material exists — a crash mid-generation
        burns the slots rather than ever re-deriving their seeds.
        """
        with self._manifest_lock():
            self._reload_state()
            start = self._next_index.get(n, 0)
            self._next_index[n] = start + count
            if self.directory is not None:
                self._write_state()
            return list(range(start, start + count))

    # -- pool management ---------------------------------------------------

    def _process_pool(self):
        """The store's persistent process pool (created on first use).

        Persistent on purpose: a fresh ``ProcessPoolExecutor`` per
        refill re-pays worker startup *and* worker warmup (CDT tables,
        NumPy kernel caches) on every pass, which is a large slice of
        why the old pooled row lost to single-process.  Warm workers
        amortize that across every later refill; :meth:`close` (or
        interpreter exit) shuts the pool down.
        """
        from concurrent.futures import ProcessPoolExecutor

        with self._executor_guard:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers)
            return self._executor

    def generate_ahead(self, n: int, count: int) -> int:
        """Add ``count`` fresh keys to the degree-``n`` pool.

        Seeds derive from ``(master_seed, n, index)``; with
        ``workers > 1`` generation fans out over the store's persistent
        process pool in contiguous slot *blocks* — one task per worker,
        not one task per slot, so per-task dispatch and worker warmup
        amortize over the block (each worker ships back the canonical
        encodings).  Returns ``count``.
        """
        if count <= 0:
            return 0
        indices = self._claim_indices(n, count)
        generation = self._generation.get(n, 0)
        seeds = [derive_key_seed(self.master_seed, n, index)
                 for index in indices]
        if self.workers > 1 and count > 1:
            executor = self._process_pool()
            # ceil-split into at most `workers` contiguous blocks:
            # every worker gets one task, slot order is preserved by
            # gathering block results in submission order.
            block = -(-count // min(self.workers, count))
            blocks = [seeds[start:start + block]
                      for start in range(0, count, block)]
            encoded_keys = [
                encoded
                for task in [executor.submit(
                    generate_encoded_key_block, n, chunk, self.prng)
                    for chunk in blocks]
                for encoded in task.result()]
        else:
            encoded_keys = [
                generate_encoded_key(n, seed, self.prng)
                for seed in seeds]
        entries = []
        for index, encoded in zip(indices, encoded_keys):
            entry = _PoolEntry(encoded=encoded, index=index,
                               generation=generation)
            if self.directory is not None:
                entry.path = atomic_write_bytes(
                    self._key_path(n, index), encoded)
            entries.append(entry)
        with self._lock:
            # A rotation that ran while these keys were generating
            # retired their cohort before they ever reached the pool:
            # admit only indices at or past the (re-read) cohort
            # start, discarding the rest like any retired key.
            cohort_start = self._cohort_start.get(n, 0)
            pool = self._pools.setdefault(n, deque())
            for entry in entries:
                if entry.index < cohort_start:
                    if entry.path is not None:
                        entry.path.unlink(missing_ok=True)
                    self._stats.retired += 1
                    continue
                pool.append(entry)
            self._stats.generated += count
        return count

    def available(self, n: int) -> int:
        """Ready keys in the degree-``n`` pool (memory or disk)."""
        with self._lock:
            return len(self._pools.get(n, ()))

    def _claim_entry(self, entry: _PoolEntry) -> bytes | None:
        """Take exclusive ownership of a pool entry's key material.

        Disk-backed entries are claimed by atomically *renaming* the
        key file to a scratch name: exactly one claimant wins the
        rename, so two stores that adopted the same directory can
        never both serve the same slot (losing the race returns
        ``None`` and the caller moves to the next entry).  The scratch
        name is globally unique (pid + random token) — ``rename``
        replaces silently, so two claimants must never target the same
        scratch path.  A purely in-memory entry is exclusively ours
        already.

        Every transition is journaled (``claimed`` after the rename,
        ``served`` once the bytes are in memory), so a crash anywhere
        in between is recoverable at the next construction — rolled
        back into the pool if the caller never saw the key, rolled
        forward (scratch unlinked) if it did.
        """
        fault = (self._faults.claim_action()
                 if self._faults is not None else None)
        if fault == "fail":
            raise self._faults.error("injected claim failure")
        if entry.path is None:
            if fault == "crash":
                raise self._faults.error(
                    "injected claim crash (memory entry)")
            return entry.encoded
        import os
        from uuid import uuid4

        claim = entry.path.with_name(
            entry.path.name + f".claim-{os.getpid()}-{uuid4().hex}")
        try:
            entry.path.rename(claim)
        except FileNotFoundError:
            return None  # another store instance checked this slot out
        self._journal_append({"state": "claimed", "scratch": claim.name,
                              "slot": entry.path.name})
        if fault == "crash":
            # Simulate dying between claim-rename and serve: the
            # scratch file and its "claimed" journal entry stay on
            # disk for the next construction to roll back.
            raise self._faults.error(
                "injected crash between claim and serve")
        encoded = entry.encoded if entry.encoded is not None \
            else claim.read_bytes()
        self._journal_append({"state": "served", "scratch": claim.name})
        claim.unlink(missing_ok=True)
        return encoded

    def _pop_claimed(self, n: int) -> bytes:
        """Pop pool entries until one is exclusively claimed,
        generating inline once the pool runs dry."""
        while True:
            with self._lock:
                pool = self._pools.setdefault(n, deque())
                entry = pool.popleft() if pool else None
            if entry is None:
                self.generate_ahead(n, 1)
                continue
            encoded = self._claim_entry(entry)
            if encoded is not None:
                return encoded

    def acquire(self, n: int) -> SecretKey:
        """Check one key out of the pool (generating on a dry pool).

        The returned signer went through the full canonical decode; its
        disk copy, if any, is removed — an acquired key is no longer
        the store's to hand out again.  Checkouts that leave the pool
        below ``low_watermark`` schedule a background refill.
        """
        encoded = self._pop_claimed(n)
        from .serialize import decode_secret_key
        secret_key = decode_secret_key(encoded, prng=self.prng)
        with self._lock:
            self._stats.served += 1
        self._maybe_refill(n)
        return secret_key

    def peek(self, n: int) -> SecretKey:
        """Decode the pool's next key WITHOUT checking it out.

        The entry (and any disk copy) stays in the pool — this is for
        inspection and reporting; use :meth:`acquire` to take ownership.
        Generates one key first if the pool is dry.  A head entry whose
        file a concurrent store instance claimed meanwhile is dropped
        and the next live entry is peeked instead.
        """
        from .serialize import decode_secret_key

        while True:
            with self._lock:
                pool = self._pools.setdefault(n, deque())
                head = pool[0] if pool else None
            if head is None:
                self.generate_ahead(n, 1)
                continue
            try:
                return decode_secret_key(head.read(), prng=self.prng)
            except FileNotFoundError:
                with self._lock:
                    if pool and pool[0] is head:
                        pool.popleft()

    # -- watermark refill --------------------------------------------------

    def _maybe_refill(self, n: int) -> None:
        if self.low_watermark <= 0:
            return
        with self._lock:
            if len(self._pools.get(n, ())) >= self.low_watermark:
                return
            if n in self._refilling:
                return
            self._refilling.add(n)
            self._stats.watermark_triggers += 1

        def refill() -> None:
            try:
                if self._faults is not None:
                    stall = self._faults.refill_stall()
                    if stall > 0:
                        time.sleep(stall)
                    if self._faults.refill_should_fail():
                        raise self._faults.error(
                            "injected refill failure")
                deficit = 2 * self.low_watermark - self.available(n)
                if deficit > 0:
                    started = time.perf_counter()
                    self.generate_ahead(n, deficit)
                    elapsed = time.perf_counter() - started
                    with self._lock:
                        self._stats.refills += 1
                        self._stats.last_refill_seconds = elapsed
                        self._stats.total_refill_seconds += elapsed
                with self._lock:
                    self._stats.last_refill_error = ""
            except BaseException as error:
                # A refill death is NEVER silent: record it where
                # stats() and as_dict() surface it.  The finally
                # below re-arms the watermark trigger either way, so
                # the next below-watermark checkout retries.
                with self._lock:
                    self._stats.refill_errors += 1
                    self._stats.last_refill_error = (
                        f"{type(error).__name__}: {error}")
            finally:
                with self._lock:
                    self._refilling.discard(n)

        thread = threading.Thread(target=refill, daemon=True,
                                  name=f"keystore-refill-n{n}")
        with self._lock:
            self._refill_threads = [t for t in self._refill_threads
                                    if t.is_alive()]
            self._refill_threads.append(thread)
        thread.start()

    def join_refills(self, timeout: float | None = None) -> None:
        """Block until in-flight background refills finish (tests and
        orderly shutdown; the serving layer calls this on close)."""
        with self._lock:
            threads = list(self._refill_threads)
        for thread in threads:
            thread.join(timeout)

    def close(self) -> None:
        """Orderly shutdown: join refills, stop the warm process pool.

        Idempotent; the store remains usable afterwards (the pool is
        recreated lazily if another pooled refill runs).
        """
        self.join_refills()
        with self._executor_guard:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    # -- rotation ----------------------------------------------------------

    def rotate(self, n: int, regenerate: int | None = None) -> int:
        """Retire the degree-``n`` cohort; optionally regenerate.

        Bumps the generation, advances the cohort start past every
        claimed slot and discards all pooled keys of the old cohort
        (removing their files), so the next checkout serves a
        fresh-generation key.  Retired slots are burned — the monotone
        index sequence guarantees their seeds are never derived again.
        Returns the number of retired pool entries; with
        ``regenerate`` (or an armed watermark, ``2 * low_watermark``
        keys) a fresh cohort is generated immediately.
        """
        with self._manifest_lock():
            self._reload_state()
            self._generation[n] = self._generation.get(n, 0) + 1
            self._cohort_start[n] = self._next_index.get(n, 0)
            if self.directory is not None:
                self._write_state()
        with self._lock:
            pool = self._pools.get(n, deque())
            retired = len(pool)
            for entry in pool:
                if entry.path is not None:
                    entry.path.unlink(missing_ok=True)
            pool.clear()
            self._stats.retired += retired
        count = (regenerate if regenerate is not None
                 else 2 * self.low_watermark)
        if count > 0:
            self.generate_ahead(n, count)
        return retired

    def generation(self, n: int) -> int:
        """The degree-``n`` cohort generation (0 until first rotation)."""
        with self._lock:
            return self._generation.get(n, 0)

    # -- serving -----------------------------------------------------------

    def checkout_current(self, n: int) -> tuple[SecretKey, int]:
        """Acquire a key fenced against concurrent rotation.

        Returns ``(key, generation)`` where the key's checkout began
        and ended in the same generation: if :meth:`rotate` ran while
        the (slow) acquire was in flight, the possibly-old-cohort key
        is discarded — its slot stays burned — and the checkout
        retries.  The primitive under the serving plane's signer cache
        (:meth:`~repro.falcon.serving.ShardedKeyStore.signer_on`), so
        a rotation can never be undone by a racing checkout re-caching
        a retired key.
        """
        while True:
            generation = self.generation(n)
            acquired = self.acquire(n)
            if self.generation(n) == generation:
                return acquired, generation

    def stats(self) -> KeyStoreStats:
        """A point-in-time snapshot (callers may keep or mutate it
        freely without touching the store's live counters)."""
        with self._lock:
            return KeyStoreStats(
                generated=self._stats.generated,
                served=self._stats.served,
                loaded_from_disk=self._stats.loaded_from_disk,
                refills=self._stats.refills,
                watermark_triggers=self._stats.watermark_triggers,
                retired=self._stats.retired,
                last_refill_seconds=self._stats.last_refill_seconds,
                total_refill_seconds=self._stats.total_refill_seconds,
                refill_errors=self._stats.refill_errors,
                last_refill_error=self._stats.last_refill_error,
                claims_recovered=self._stats.claims_recovered,
                claims_rolled_forward=self._stats.claims_rolled_forward,
                available={n: len(pool)
                           for n, pool in self._pools.items() if pool},
                generation=dict(self._generation))
