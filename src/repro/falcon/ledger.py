"""Append-only signed-record ledger: the verify-heavy workload.

# ct: exempt(ct): append-only ledger plane — every value handled here
# is public protocol data (encoded public keys, messages, signatures,
# block headers and their hashes); no key material, sampler state or
# other secret-tainted value ever flows into this module.

The ROADMAP's "signed-ledger scenario" made concrete: records —
``(public key, message, signature)`` under **arbitrary, mixed keys** —
arrive into a bounded :class:`Mempool`; a block builder drains it,
pushes the whole mixed-key batch through the cross-key verification
engine (:func:`repro.falcon.batchverify.verify_batch_report`) in one
vectorized NTT pass, commits the verified lanes into a hash-chained
block and reports the rejected lanes with per-lane reasons — a bad
record *never* blocks the rest of its batch.

Blocks persist as one JSON line each, appended with flush + fsync, so
a crash can tear at most the final line; :class:`Ledger` detects the
torn tail on load, truncates it, and resumes from the last durable
block (the crash-recovery round-trip tests pin this).
:meth:`Ledger.verify_chain` audits the chain by re-running the commit's
record pass over every committed block.
"""

from __future__ import annotations

import json
import os
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from hashlib import sha256
from pathlib import Path
from typing import Sequence

from .batchverify import verify_batch_report
from .scheme import PublicKey, Signature
from .serialize import (
    SerializeError,
    decode_public_key,
    decode_signature,
    encode_public_key,
    encode_signature,
)

GENESIS_HASH = "0" * 64


class LedgerError(Exception):
    """Corruption or protocol violation in the ledger plane."""


class MempoolFull(LedgerError):
    """The bounded mempool refused a record (back-pressure signal)."""


class RecordError(LedgerError):
    """A record's encoded fields failed to decode."""


def _record_id(public_key_bytes: bytes, message: bytes,
               signature_bytes: bytes) -> str:
    digest = sha256()
    digest.update(b"falcon-record")
    for part in (public_key_bytes, message, signature_bytes):
        digest.update(len(part).to_bytes(4, "big"))
        digest.update(part)
    return digest.hexdigest()


@dataclass(frozen=True)
class SignedRecord:
    """One ledger entry: a signed message under some public key.

    Fields are the canonical wire encodings (so the record is
    self-contained on disk and its identity is a pure content hash);
    :meth:`decode` rebuilds the live objects for verification.
    """

    public_key_bytes: bytes
    message: bytes
    signature_bytes: bytes

    @classmethod
    def make(cls, public_key: PublicKey, message: bytes,
             signature: Signature) -> "SignedRecord":
        return cls(public_key_bytes=encode_public_key(public_key),
                   message=bytes(message),
                   signature_bytes=encode_signature(signature,
                                                    public_key.n))

    @cached_property
    def record_id(self) -> str:
        return _record_id(self.public_key_bytes, self.message,
                          self.signature_bytes)

    def decode(self, public_keys: dict | None = None
               ) -> tuple[PublicKey, Signature, int]:
        """The live ``(public key, signature, n)``.  Raises
        :class:`RecordError` on a malformed public key, a signature
        that fails its framing checks (header, degree, salt, payload
        width) or a degree mismatch.  The signature's compressed ``s2``
        is decoded by the verification engine, which rejects a
        non-canonical one with reason ``decompress``.

        ``public_keys`` maps key encodings to keys already decoded (the
        record pass shares one across a commit or an audit, so each
        distinct key is decoded, and its ``ntt(h)`` computed, once); a
        key decoded here is added to it."""
        keys = {} if public_keys is None else public_keys
        try:
            public_key = keys.get(self.public_key_bytes)
            if public_key is None:
                public_key = decode_public_key(self.public_key_bytes)
                keys[self.public_key_bytes] = public_key
            signature, n = decode_signature(self.signature_bytes)
        except SerializeError as error:
            raise RecordError(str(error)) from error
        if n != public_key.n:
            raise RecordError(
                f"signature degree {n} != public-key degree "
                f"{public_key.n}")
        return public_key, signature, n


class Mempool:
    """Bounded FIFO of pending records with content-hash dedup."""

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 1:
            raise ValueError("mempool capacity must be positive")
        self.capacity = capacity
        self._pending: list[SignedRecord] = []
        self._ids: set[str] = set()
        self.dropped_duplicates = 0

    def __len__(self) -> int:
        return len(self._pending)

    def add(self, record: SignedRecord) -> bool:
        """Queue a record.  False = duplicate (dropped); raises
        :class:`MempoolFull` when at capacity — admission control is
        the *caller's* back-pressure signal, silent drops would turn
        overload into data loss."""
        record_id = record.record_id
        if record_id in self._ids:
            self.dropped_duplicates += 1
            return False
        if len(self._pending) >= self.capacity:
            raise MempoolFull(
                f"mempool at capacity ({self.capacity} records)")
        self._pending.append(record)
        self._ids.add(record_id)
        return True

    def drain(self, limit: int | None = None) -> list[SignedRecord]:
        """Pop up to ``limit`` records in arrival order."""
        if limit is None or limit >= len(self._pending):
            drained, self._pending = self._pending, []
        else:
            drained = self._pending[:limit]
            self._pending = self._pending[limit:]
        for record in drained:
            self._ids.discard(record.record_id)
        return drained


def _records_root(record_ids: Sequence[str]) -> str:
    digest = sha256(b"falcon-records")
    for record_id in record_ids:
        digest.update(bytes.fromhex(record_id))
    return digest.hexdigest()


@dataclass(frozen=True)
class BlockHeader:
    """Hash-chained block header (identity = content hash)."""

    index: int
    prev_hash: str
    records_root: str
    count: int
    timestamp_us: int

    @property
    def hash(self) -> str:
        return sha256(
            b"falcon-block|%d|%s|%s|%d|%d"
            % (self.index, self.prev_hash.encode("ascii"),
               self.records_root.encode("ascii"), self.count,
               self.timestamp_us)).hexdigest()


@dataclass(frozen=True)
class Block:
    """A committed block: header + verified records."""

    header: BlockHeader
    records: tuple[SignedRecord, ...]

    def to_json(self) -> str:
        payload = {
            "header": {
                "index": self.header.index,
                "prev": self.header.prev_hash,
                "root": self.header.records_root,
                "count": self.header.count,
                "ts_us": self.header.timestamp_us,
                "hash": self.header.hash,
            },
            "records": [
                {"pk": record.public_key_bytes.hex(),
                 "msg": record.message.hex(),
                 "sig": record.signature_bytes.hex()}
                for record in self.records
            ],
        }
        return json.dumps(payload, separators=(",", ":"),
                          sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "Block":
        """Parse one block line.  Lines from earlier versions also
        carry an ``"s1"`` field (recomputed rows outside the header
        hash); it is ignored, so those ledgers still load."""
        try:
            payload = json.loads(line)
            header = BlockHeader(
                index=payload["header"]["index"],
                prev_hash=payload["header"]["prev"],
                records_root=payload["header"]["root"],
                count=payload["header"]["count"],
                timestamp_us=payload["header"]["ts_us"])
            records = tuple(
                SignedRecord(public_key_bytes=bytes.fromhex(entry["pk"]),
                             message=bytes.fromhex(entry["msg"]),
                             signature_bytes=bytes.fromhex(entry["sig"]))
                for entry in payload["records"])
            stored_hash = payload["header"]["hash"]
        except (ValueError, KeyError, TypeError) as error:
            raise LedgerError(f"malformed block line: {error}") \
                from error
        if header.hash != stored_hash:
            raise LedgerError(
                f"block {header.index}: stored hash does not match "
                f"header content")
        if header.count != len(records):
            raise LedgerError(
                f"block {header.index}: count {header.count} != "
                f"{len(records)} records")
        return cls(header=header, records=records)


def _check_records(records: Sequence[SignedRecord],
                   public_keys: dict[bytes, PublicKey]
                   ) -> list[str | None]:
    """The record pass of a commit and of an audit: decode each record
    (each distinct key once, through ``public_keys``), verify the
    decoded lanes in one cross-key engine pass, and give each record
    ``None`` or why it fails: ``decode: <why>`` or the engine's reason
    with its detail."""
    reasons: list[str | None] = [None] * len(records)
    lanes, positions = [], []
    for position, record in enumerate(records):
        try:
            public_key, signature, _ = record.decode(public_keys)
        except RecordError as error:
            reasons[position] = f"decode: {error}"
            continue
        lanes.append((public_key, record.message, signature))
        positions.append(position)
    for position, verdict in zip(positions,
                                 verify_batch_report(lanes).lanes):
        if not verdict.ok:
            reasons[position] = (f"{verdict.reason}: {verdict.detail}"
                                 if verdict.detail else verdict.reason)
    return reasons


def _header_problem(block: Block, index: int,
                    prev_hash: str) -> str | None:
    """Why ``block`` cannot sit at ``index`` after a block hashing to
    ``prev_hash``, or None."""
    header = block.header
    if header.index != index:
        return f"block index {header.index}, expected {index}"
    if header.prev_hash != prev_hash:
        return f"block {header.index}: prev_hash does not match chain tip"
    root = _records_root([record.record_id for record in block.records])
    if header.records_root != root:
        return f"block {header.index}: records_root does not match records"
    return None


@dataclass
class CommitResult:
    """What one :meth:`Ledger.commit` round did."""

    block: Block | None
    accepted: list[str]
    rejected: list[tuple[str, str]]  # (record_id, reason)


@dataclass
class ChainAudit:
    """Outcome of :meth:`Ledger.verify_chain`."""

    ok: bool
    blocks: int
    records: int
    failures: list[tuple[int, str | None, str]] = field(
        default_factory=list)  # (block index, record_id | None, why)


class Ledger:
    """Append-only signed-record ledger over the cross-key engine.

    ``directory=None`` keeps the chain in memory only (tests, bench
    warm-up); otherwise blocks append to ``<directory>/ledger.jsonl``
    with flush + fsync per block and torn-tail recovery on load.
    """

    FILENAME = "ledger.jsonl"

    def __init__(self, directory: str | Path | None = None, *,
                 capacity: int = 4096, max_block_records: int = 1024) -> None:
        if max_block_records < 1:
            raise ValueError("max_block_records must be positive")
        self.mempool = Mempool(capacity)
        self.max_block_records = max_block_records
        self.blocks: list[Block] = []
        self.path: Path | None = None
        self.recovered_bytes = 0  # torn tail truncated on load
        self.rejected_total: dict[str, int] = {}
        self._committed: set[str] = set()
        # Key encodings by key object (identity), held weakly so a
        # caller that builds a key object per record grows nothing.
        self._key_bytes: weakref.WeakKeyDictionary[PublicKey, bytes] = \
            weakref.WeakKeyDictionary()
        if directory is not None:
            directory = Path(directory)
            directory.mkdir(parents=True, exist_ok=True)
            self.path = directory / self.FILENAME
            self._load()

    # -- persistence -------------------------------------------------------

    def _load(self) -> None:
        """Replay the on-disk chain; truncate a torn final line.

        A torn *final* line is the signature of a crash mid-append
        (each block is written with flush + fsync, so earlier lines
        are durable); anything malformed before the tail is real
        corruption and raises :class:`LedgerError` instead.
        """
        assert self.path is not None
        if not self.path.exists():
            return
        raw = self.path.read_bytes()
        offset = 0
        valid = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:  # no terminator: torn tail
                break
            line = raw[offset:newline]
            try:
                block = Block.from_json(line.decode("utf-8"))
            except (LedgerError, UnicodeDecodeError) as error:
                if newline == len(raw) - 1:
                    break  # torn tail that happens to end in \n
                raise LedgerError(
                    f"corrupt block at byte {offset}: {error}") \
                    from error
            problem = _header_problem(block, len(self.blocks),
                                      self.tip_hash)
            if problem is not None:
                raise LedgerError(problem)
            self.blocks.append(block)
            self._committed.update(record.record_id
                                   for record in block.records)
            offset = newline + 1
            valid = offset
        if valid < len(raw):
            self.recovered_bytes = len(raw) - valid
            with open(self.path, "r+b") as handle:
                handle.truncate(valid)
                handle.flush()
                os.fsync(handle.fileno())

    def _append_to_disk(self, block: Block) -> None:
        if self.path is None:
            return
        line = block.to_json().encode("utf-8") + b"\n"
        with open(self.path, "ab") as handle:
            handle.write(line)
            handle.flush()
            os.fsync(handle.fileno())

    # -- chain state -------------------------------------------------------

    @property
    def height(self) -> int:
        return len(self.blocks)

    @property
    def tip_hash(self) -> str:
        return (self.blocks[-1].header.hash if self.blocks
                else GENESIS_HASH)

    @property
    def records_committed(self) -> int:
        return len(self._committed)

    # -- intake ------------------------------------------------------------

    def submit(self, record: SignedRecord) -> bool:
        """Queue a record for the next block.  False = duplicate of a
        pending *or already-committed* record; raises
        :class:`MempoolFull` at capacity."""
        if record.record_id in self._committed:
            self.mempool.dropped_duplicates += 1
            return False
        return self.mempool.add(record)

    def submit_signed(self, public_key: PublicKey, message: bytes,
                      signature: Signature) -> SignedRecord:
        """Encode + queue in one step; returns the record either way
        (check :attr:`Mempool.dropped_duplicates` for dedup stats).
        Each key object is encoded once per ledger and its records
        share those bytes."""
        key_bytes = self._key_bytes.get(public_key)
        if key_bytes is None:
            key_bytes = self._key_bytes[public_key] = \
                encode_public_key(public_key)
        record = SignedRecord(
            public_key_bytes=key_bytes, message=bytes(message),
            signature_bytes=encode_signature(signature, public_key.n))
        self.submit(record)
        return record

    # -- commit ------------------------------------------------------------

    def commit(self, *, timestamp_us: int = 0) -> CommitResult:
        """Drain the mempool and commit one batch-verified block.

        The entire drained batch — arbitrary mixed keys and degrees —
        rides one record pass (one cross-key engine pass); records
        that fail are returned in ``rejected`` with their reason
        (``duplicate`` for a record already on the chain, else what
        the pass found: ``decode: <why>`` or the engine's
        ``salt-length``, ``decompress`` or ``norm-bound`` plus detail)
        and never block their batch.  No block is written when nothing
        verifies.
        """
        drained = self.mempool.drain(self.max_block_records)
        rejected = [(record.record_id, "duplicate") for record in drained
                    if record.record_id in self._committed]
        fresh = [record for record in drained
                 if record.record_id not in self._committed]
        accepted: list[SignedRecord] = []
        for record, reason in zip(fresh, _check_records(fresh, {})):
            if reason is None:
                accepted.append(record)
            else:
                rejected.append((record.record_id, reason))
        for _, reason in rejected:
            label = reason.split(":", 1)[0]
            self.rejected_total[label] = \
                self.rejected_total.get(label, 0) + 1
        if not accepted:
            return CommitResult(block=None, accepted=[],
                                rejected=rejected)
        header = BlockHeader(
            index=len(self.blocks), prev_hash=self.tip_hash,
            records_root=_records_root([record.record_id
                                        for record in accepted]),
            count=len(accepted), timestamp_us=int(timestamp_us))
        block = Block(header=header, records=tuple(accepted))
        self._append_to_disk(block)
        self.blocks.append(block)
        self._committed.update(record.record_id
                               for record in accepted)
        return CommitResult(block=block,
                            accepted=[record.record_id
                                      for record in accepted],
                            rejected=rejected)

    # -- audit -------------------------------------------------------------

    def verify_chain(self, mode: str = "full") -> ChainAudit:
        """Re-verify the whole chain: linkage, roots, every signature.

        Each block whose header checks out re-runs the commit's record
        pass; one that does not is reported with the reason a load
        gives.  ``mode`` accepts only ``"full"``.
        """
        if mode != "full":
            raise ValueError(f"unknown audit mode {mode!r}; "
                             f"only 'full' is supported")
        audit = ChainAudit(ok=True, blocks=len(self.blocks), records=0)
        public_keys: dict[bytes, PublicKey] = {}
        prev_hash = GENESIS_HASH
        for index, block in enumerate(self.blocks):
            problem = _header_problem(block, index, prev_hash)
            prev_hash = block.header.hash
            if problem is not None:
                audit.failures.append((index, None, problem))
                continue
            audit.records += len(block.records)
            reasons = _check_records(block.records, public_keys)
            for record, reason in zip(block.records, reasons):
                if reason is not None:
                    audit.failures.append((index, record.record_id, reason))
        audit.ok = not audit.failures
        return audit

    # -- reporting ---------------------------------------------------------

    def stats(self) -> dict:
        return {
            "height": self.height,
            "tip_hash": self.tip_hash,
            "records_committed": self.records_committed,
            "mempool_pending": len(self.mempool),
            "mempool_capacity": self.mempool.capacity,
            "duplicates_dropped": self.mempool.dropped_duplicates,
            "rejected_total": dict(self.rejected_total),
            "recovered_bytes": self.recovered_bytes,
            "path": str(self.path) if self.path else None,
        }
