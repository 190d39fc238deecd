"""Ledger tests: mempool bounds, batch-verified commits, hash-chained
persistence, crash recovery, the chain audit, and a model-based state
machine over all of them."""

import gc
import json
import tempfile
import weakref

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    multiple,
    precondition,
    rule,
)

from repro.falcon import (
    Ledger,
    LedgerError,
    Mempool,
    MempoolFull,
    PublicKey,
    RecordError,
    SecretKey,
    Signature,
    SignedRecord,
)
from repro.falcon import ledger as ledger_module
from repro.falcon.ledger import GENESIS_HASH

# Session-scope keys: keygen dominates these tests otherwise.
_KEYS: dict[int, SecretKey] = {}


def _secret_key(seed: int, n: int = 8) -> SecretKey:
    if (n, seed) not in _KEYS:
        _KEYS[(n, seed)] = SecretKey.generate(n=n, seed=seed)
    return _KEYS[(n, seed)]


def _record(seed: int, index: int) -> tuple:
    sk = _secret_key(seed)
    message = b"ledger-%d-%d" % (seed, index)
    return sk.public_key, message, sk.sign(message)


def _fill(ledger: Ledger, count: int, keys: int = 3,
          start: int = 0) -> list[SignedRecord]:
    return [ledger.submit_signed(*_record(1 + (start + i) % keys,
                                          start + i))
            for i in range(count)]


# -- mempool ---------------------------------------------------------------

def test_mempool_dedups_and_bounds():
    pool = Mempool(capacity=2)
    pk, message, signature = _record(1, 0)
    record = SignedRecord.make(pk, message, signature)
    assert pool.add(record)
    assert not pool.add(record)          # duplicate
    assert pool.dropped_duplicates == 1
    assert len(pool) == 1
    other = SignedRecord.make(*_record(1, 1))
    assert pool.add(other)
    with pytest.raises(MempoolFull):
        pool.add(SignedRecord.make(*_record(1, 2)))
    drained = pool.drain(1)
    assert drained == [record] and len(pool) == 1


def test_submit_rejects_already_committed():
    ledger = Ledger()
    record = _fill(ledger, 1)[0]
    ledger.commit()
    assert not ledger.submit(record)
    assert ledger.mempool.dropped_duplicates == 1
    assert len(ledger.mempool) == 0


# -- commits ---------------------------------------------------------------

def test_commit_accepts_honest_batch():
    ledger = Ledger()
    records = _fill(ledger, 6)
    result = ledger.commit()
    assert result.block is not None
    assert result.accepted == [r.record_id for r in records]
    assert result.rejected == []
    assert ledger.height == 1
    assert ledger.records_committed == 6
    assert ledger.tip_hash == result.block.header.hash
    assert ledger.blocks[0].header.prev_hash == GENESIS_HASH


def test_rejected_lanes_never_block_the_batch():
    ledger = Ledger()
    good = _fill(ledger, 4)
    pk, message, signature = _record(2, 99)
    forged = SignedRecord.make(pk, message + b"forged", signature)
    ledger.submit(forged)
    truncated = SignedRecord.make(
        pk, message, Signature(salt=signature.salt,
                               compressed=signature.compressed[:3]))
    ledger.submit(truncated)
    result = ledger.commit()
    assert sorted(result.accepted) == sorted(r.record_id for r in good)
    reasons = dict(result.rejected)
    assert reasons[forged.record_id].startswith("norm-bound")
    # A truncated blob has the wrong payload width for its degree, so
    # the record's framing check catches it before the engine.
    assert reasons[truncated.record_id].startswith("decode")
    assert ledger.rejected_total["norm-bound"] == 1
    assert ledger.rejected_total["decode"] == 1
    # The rejected records are not committed and may not re-enter.
    assert forged.record_id not in ledger._committed


def test_noncanonical_record_is_rejected_by_the_engine():
    """A well-framed record whose compressed s2 is not canonical (a
    set padding bit) passes the record decode; the engine's decoder
    rejects it at commit with reason ``decompress``."""
    ledger = Ledger()
    good = _fill(ledger, 2)
    pk, message, signature = _record(3, 7)
    blob = bytearray(signature.compressed)
    blob[-1] |= 1
    bad = SignedRecord.make(pk, message, Signature(
        salt=signature.salt, compressed=bytes(blob)))
    assert bad.decode()[1].compressed == bytes(blob)
    ledger.submit(bad)
    result = ledger.commit()
    assert sorted(result.accepted) == sorted(r.record_id for r in good)
    reasons = dict(result.rejected)
    assert reasons[bad.record_id].startswith("decompress: ")
    assert "padding" in reasons[bad.record_id]
    assert ledger.rejected_total == {"decompress": 1}


def test_commit_without_valid_records_writes_no_block():
    ledger = Ledger()
    pk, message, signature = _record(1, 0)
    ledger.submit(SignedRecord.make(pk, message + b"x", signature))
    result = ledger.commit()
    assert result.block is None and ledger.height == 0
    assert len(result.rejected) == 1


def test_commit_respects_block_size_and_chains_headers():
    ledger = Ledger(max_block_records=4)
    _fill(ledger, 10)
    while len(ledger.mempool):
        ledger.commit(timestamp_us=1234)
    assert ledger.height == 3
    assert [b.header.count for b in ledger.blocks] == [4, 4, 2]
    for index, block in enumerate(ledger.blocks):
        assert block.header.index == index
        prev = (GENESIS_HASH if index == 0
                else ledger.blocks[index - 1].header.hash)
        assert block.header.prev_hash == prev
        assert block.header.timestamp_us == 1234


def test_decode_failure_is_rejected_not_fatal():
    ledger = Ledger()
    pk, message, signature = _record(1, 0)
    record = SignedRecord.make(pk, message, signature)
    broken = SignedRecord(public_key_bytes=b"\x00\x01",
                          message=message,
                          signature_bytes=record.signature_bytes)
    with pytest.raises(RecordError):
        broken.decode()
    ledger.submit(broken)
    _fill(ledger, 2)
    result = ledger.commit()
    assert len(result.accepted) == 2
    assert result.rejected[0][1].startswith("decode")


def test_padded_public_key_record_is_rejected_not_committed_twice():
    """A key encoding with a trailing zero byte is not canonical: the
    padded copy of a record is rejected at decode, so one signed
    message cannot land twice under two record ids."""
    ledger = Ledger()
    record = SignedRecord.make(*_record(1, 0))
    padded = SignedRecord(public_key_bytes=record.public_key_bytes + b"\x00",
                          message=record.message,
                          signature_bytes=record.signature_bytes)
    assert padded.record_id != record.record_id
    ledger.submit(record)
    ledger.submit(padded)
    result = ledger.commit()
    assert result.accepted == [record.record_id]
    assert [record_id for record_id, _ in result.rejected] \
        == [padded.record_id]
    assert result.rejected[0][1].startswith("decode: bad public-key length")


def test_commit_and_audit_decode_each_distinct_key_once(monkeypatch):
    """A 64-record block over 16 distinct keys decodes 16 public keys
    at commit, and 16 again when the chain is audited."""
    from repro.falcon import ledger as ledger_module

    decoded = []
    decode = ledger_module.decode_public_key

    def counted(data):
        decoded.append(data)
        return decode(data)

    ledger = Ledger()
    _fill(ledger, 64, keys=16)
    monkeypatch.setattr(ledger_module, "decode_public_key", counted)
    result = ledger.commit()
    assert len(result.accepted) == 64
    assert len(decoded) == len(set(decoded)) == 16
    decoded.clear()
    assert ledger.verify_chain().ok
    assert len(decoded) == 16


def test_submit_signed_encodes_each_key_once_per_ledger(monkeypatch,
                                                        tmp_path):
    """64 records over 16 keys encode 16 keys, and the 4 records of one
    key share one bytes object; record ids and file bytes are those of
    records made one by one with ``SignedRecord.make``."""
    lanes = [_record(1 + i % 16, i) for i in range(64)]
    reference = Ledger(tmp_path / "make", max_block_records=64)
    for lane in lanes:
        reference.submit(SignedRecord.make(*lane))
    reference.commit(timestamp_us=5)
    encoded = []
    encode = ledger_module.encode_public_key

    def counted(public_key):
        encoded.append(public_key)
        return encode(public_key)

    monkeypatch.setattr(ledger_module, "encode_public_key", counted)
    ledger = Ledger(tmp_path / "signed", max_block_records=64)
    records = [ledger.submit_signed(*lane) for lane in lanes]
    assert len(encoded) == 16
    assert len({id(records[i].public_key_bytes)
                for i in (0, 16, 32, 48)}) == 1
    ledger.commit(timestamp_us=5)
    assert [record.record_id for record in records] == \
        [record.record_id for record in reference.blocks[0].records]
    assert ledger.path.read_bytes() == reference.path.read_bytes()


def test_ledger_keeps_no_key_object_alive():
    """Key encodings are held by key object, weakly: a caller that
    builds a fresh key object per record leaves nothing behind."""
    ledger = Ledger()
    pk, message, signature = _record(1, 0)
    copy = PublicKey(pk.n, list(pk.h))
    record = ledger.submit_signed(copy, message, signature)
    assert record.public_key_bytes == SignedRecord.make(
        pk, message, signature).public_key_bytes
    alive = weakref.ref(copy)
    del copy
    gc.collect()
    assert alive() is None
    assert ledger.commit().accepted == [record.record_id]


def test_submit_and_commit_hash_each_record_id_once(monkeypatch):
    lanes = [_record(1 + i % 16, i) for i in range(64)]
    hashed = []
    record_id = ledger_module._record_id

    def counted(*parts):
        hashed.append(parts)
        return record_id(*parts)

    monkeypatch.setattr(ledger_module, "_record_id", counted)
    ledger = Ledger(max_block_records=64)
    for lane in lanes:
        ledger.submit_signed(*lane)
    assert len(ledger.commit().accepted) == 64
    assert len(hashed) == 64


# -- audits ----------------------------------------------------------------

def test_full_and_aggregate_audits_agree():
    ledger = Ledger(max_block_records=4)
    _fill(ledger, 8)
    while len(ledger.mempool):
        ledger.commit()
    full = ledger.verify_chain("full")
    assert full.ok
    assert full.records == 8


def test_audit_mode_validation():
    for mode in ("quantum", "aggregate"):
        with pytest.raises(ValueError, match="unknown audit mode"):
            Ledger().verify_chain(mode)


def test_audit_detects_in_memory_tamper():
    ledger = Ledger()
    _fill(ledger, 3)
    ledger.commit()
    block = ledger.blocks[0]
    tampered = SignedRecord(
        public_key_bytes=block.records[0].public_key_bytes,
        message=block.records[0].message + b"!",
        signature_bytes=block.records[0].signature_bytes)
    object.__setattr__(block, "records",
                       (tampered,) + block.records[1:])
    audit = ledger.verify_chain("full")
    assert not audit.ok
    assert any("records_root" in reason
               for _, _, reason in audit.failures)


# -- persistence and crash recovery ----------------------------------------

def test_persistence_round_trip(tmp_path):
    ledger = Ledger(tmp_path, max_block_records=3)
    _fill(ledger, 7)
    while len(ledger.mempool):
        ledger.commit(timestamp_us=77)
    reopened = Ledger(tmp_path)
    assert reopened.height == ledger.height == 3
    assert reopened.tip_hash == ledger.tip_hash
    assert reopened.records_committed == 7
    assert reopened.recovered_bytes == 0
    assert reopened.verify_chain("full").ok
    # The reopened chain deduplicates against committed history.
    assert not reopened.submit(ledger.blocks[0].records[0])


def test_torn_tail_recovered_on_reload(tmp_path):
    ledger = Ledger(tmp_path, max_block_records=2)
    _fill(ledger, 4)
    while len(ledger.mempool):
        ledger.commit()
    path = ledger.path
    intact = path.read_bytes()
    torn = intact + b'{"header": {"index": 2, "prev"'
    path.write_bytes(torn)
    recovered = Ledger(tmp_path)
    assert recovered.height == 2
    assert recovered.recovered_bytes == len(torn) - len(intact)
    assert path.read_bytes() == intact  # tail truncated away
    assert recovered.verify_chain("full").ok
    # Recovery is durable: a third open sees a clean file.
    assert Ledger(tmp_path).recovered_bytes == 0


def test_mid_file_corruption_refuses_to_load(tmp_path):
    ledger = Ledger(tmp_path, max_block_records=2)
    _fill(ledger, 4)
    while len(ledger.mempool):
        ledger.commit()
    lines = ledger.path.read_bytes().splitlines(keepends=True)
    assert len(lines) == 2
    ledger.path.write_bytes(b"garbage not json\n" + lines[1])
    with pytest.raises(LedgerError, match="corrupt block"):
        Ledger(tmp_path)


def test_on_disk_record_tamper_refuses_to_load(tmp_path):
    ledger = Ledger(tmp_path)
    _fill(ledger, 3)
    ledger.commit()
    payload = json.loads(ledger.path.read_text())
    payload["records"][0]["msg"] = (b"evil").hex()
    ledger.path.write_text(json.dumps(payload) + "\n")
    with pytest.raises(LedgerError):
        Ledger(tmp_path)


@pytest.mark.parametrize("old_s1", ["rows", None])
def test_old_format_block_with_s1_field_loads_and_audits(tmp_path,
                                                          old_s1):
    """Earlier versions wrote an ``"s1"`` field on every block line:
    the accepted records' recomputed rows, or ``null``.  The header
    hash never covered it, and nothing reads it now, so the rows here
    only need its shape.  Such a ledger must still open and audit, and
    new lines omit the field."""
    ledger = Ledger(tmp_path, max_block_records=2)
    _fill(ledger, 4)
    while len(ledger.mempool):
        ledger.commit()
    lines = ledger.path.read_text().splitlines()
    rewritten = []
    for line in lines:
        payload = json.loads(line)
        assert "s1" not in payload
        payload["s1"] = ([[(7 * row + k) % 11 - 5 for k in range(8)]
                          for row in range(len(payload["records"]))]
                         if old_s1 == "rows" else None)
        rewritten.append(json.dumps(payload, separators=(",", ":"),
                                    sort_keys=True))
    ledger.path.write_text("\n".join(rewritten) + "\n")
    reopened = Ledger(tmp_path)
    assert reopened.height == 2 and reopened.recovered_bytes == 0
    assert reopened.tip_hash == ledger.tip_hash
    audit = reopened.verify_chain()
    assert audit.ok and audit.records == 4


def test_crash_recovery_round_trip_continues_the_chain(tmp_path):
    """The satellite scenario end to end: commit, crash mid-append,
    reopen, keep committing — the chain stays linked and auditable."""
    ledger = Ledger(tmp_path, max_block_records=3)
    _fill(ledger, 3)
    ledger.commit()
    with open(ledger.path, "ab") as handle:
        handle.write(b'{"torn')
    recovered = Ledger(tmp_path, max_block_records=3)
    assert recovered.height == 1 and recovered.recovered_bytes > 0
    _fill(recovered, 3, start=100)
    recovered.commit()
    assert recovered.height == 2
    assert recovered.blocks[1].header.prev_hash == \
        recovered.blocks[0].header.hash
    final = Ledger(tmp_path)
    assert final.height == 2
    assert final.verify_chain("full").ok


# -- stats -----------------------------------------------------------------

def test_stats_snapshot():
    ledger = Ledger()
    _fill(ledger, 2)
    pk, message, signature = _record(1, 50)
    ledger.submit(SignedRecord.make(pk, message + b"x", signature))
    ledger.commit()
    stats = ledger.stats()
    assert stats["height"] == 1
    assert stats["records_committed"] == 2
    assert stats["mempool_pending"] == 0
    assert stats["rejected_total"] == {"norm-bound": 1}
    assert stats["path"] is None
    assert stats["tip_hash"] == ledger.tip_hash


# -- model-based: the on-disk ledger against a model -----------------------

class LedgerModel(RuleBasedStateMachine):
    """An on-disk ledger with blocks of ``BLOCK`` records against a
    model: the ids committed so far in commit order, the pending ids in
    arrival order (lost on reopen: the mempool lives in memory) and the
    ids of forged records."""

    BLOCK = 4
    records = Bundle("records")

    def __init__(self) -> None:
        super().__init__()
        self.directory = tempfile.TemporaryDirectory()
        self.ledger = Ledger(self.directory.name,
                             max_block_records=self.BLOCK)
        self.committed: list[str] = []
        self.pending: list[str] = []
        self.forged: set[str] = set()
        self.messages = 0

    def teardown(self) -> None:
        self.directory.cleanup()

    def _submit(self, key: int, forged: bool) -> SignedRecord:
        sk = _secret_key(1 + key)
        self.messages += 1
        message = b"model-%d" % self.messages
        signature = sk.sign(message)
        if forged:
            message += b"!"
        record = self.ledger.submit_signed(sk.public_key, message,
                                           signature)
        self.pending.append(record.record_id)
        if forged:
            self.forged.add(record.record_id)
        return record

    @rule(target=records, keys=st.lists(st.integers(0, 2), min_size=1,
                                        max_size=BLOCK))
    def submit_honest(self, keys):
        return multiple(*[self._submit(key, forged=False)
                          for key in keys])

    @rule(target=records, key=st.integers(0, 2))
    def submit_forged(self, key):
        return self._submit(key, forged=True)

    @rule(record=records)
    def resubmit(self, record):
        fresh = (record.record_id not in self.committed
                 and record.record_id not in self.pending)
        assert self.ledger.submit(record) == fresh
        if fresh:
            self.pending.append(record.record_id)

    @rule()
    def commit(self):
        drained = self.pending[:self.BLOCK]
        self.pending = self.pending[self.BLOCK:]
        honest = [rid for rid in drained if rid not in self.forged]
        result = self.ledger.commit(timestamp_us=len(self.committed))
        assert result.accepted == honest
        assert sorted(rid for rid, _ in result.rejected) == \
            sorted(rid for rid in drained if rid in self.forged)
        assert all(reason.startswith("norm-bound")
                   for _, reason in result.rejected)
        assert (result.block is None) == (not honest)
        self.committed += honest

    def _reopen(self, torn: int = 0) -> None:
        before = (self.ledger.height, self.ledger.tip_hash,
                  self.ledger.records_committed)
        self.ledger = Ledger(self.directory.name,
                             max_block_records=self.BLOCK)
        self.pending = []
        assert (self.ledger.height, self.ledger.tip_hash,
                self.ledger.records_committed) == before
        assert self.ledger.recovered_bytes == torn

    @rule()
    def reopen(self):
        self._reopen()

    @rule(cut=st.integers(0, 1 << 16))
    def tear_tail(self, cut):
        """A crash mid-append: part of a block line, no newline."""
        path = self.ledger.path
        lines = path.read_bytes().splitlines() if path.exists() else []
        line = lines[-1] if lines else b'{"header":{"count":1,"index":0'
        with open(path, "ab") as handle:
            handle.write(line[:1 + cut % len(line)])
        self._reopen(torn=1 + cut % len(line))

    @precondition(lambda self: self.ledger.height >= 2)
    @rule(line=st.integers(0, 1 << 16), offset=st.integers(0, 1 << 16))
    def corrupt_earlier_line(self, line, offset):
        """One flipped bit in a line before the last refuses the load;
        the file is then restored."""
        path = self.ledger.path
        intact = path.read_bytes()
        lines = intact.splitlines(keepends=True)
        index = line % (len(lines) - 1)
        flipped = bytearray(lines[index])
        flipped[offset % (len(flipped) - 1)] ^= 1  # never the newline
        lines[index] = bytes(flipped)
        path.write_bytes(b"".join(lines))
        with pytest.raises(LedgerError):
            Ledger(self.directory.name)
        path.write_bytes(intact)

    @invariant()
    def chain_matches_model(self):
        ids = [record.record_id for block in self.ledger.blocks
               for record in block.records]
        assert ids == self.committed
        assert self.forged.isdisjoint(ids)
        assert self.ledger.verify_chain("full").ok


LedgerModel.TestCase.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None)
TestLedgerModel = LedgerModel.TestCase
