"""Tests for the generate-ahead key store (pools, disk, workers)."""

import pytest

from repro.falcon import (
    KeyStore,
    SerializeError,
    derive_key_seed,
    load_secret_key,
    save_secret_key,
)
from repro.falcon.keystore import generate_encoded_key


def test_derive_key_seed_deterministic_and_distinct():
    a = derive_key_seed(7, 64, 0)
    assert a == derive_key_seed(7, 64, 0)
    assert len(a) == 32
    assert a != derive_key_seed(7, 64, 1)
    assert a != derive_key_seed(7, 8, 0)
    assert a != derive_key_seed(8, 64, 0)
    assert derive_key_seed(b"master", 8, 0) == \
        derive_key_seed(b"master", 8, 0)


def test_generate_ahead_fills_pool_and_acquire_drains_it():
    store = KeyStore(master_seed=1)
    assert store.available(8) == 0
    store.generate_ahead(8, 3)
    assert store.available(8) == 3
    sk = store.acquire(8)
    assert sk.n == 8
    assert sk.keys.verify_ntru_equation()
    assert store.available(8) == 2


def test_acquire_on_dry_pool_generates_inline():
    store = KeyStore(master_seed=2)
    sk = store.acquire(8)
    assert sk.n == 8
    stats = store.stats()
    assert stats.generated == 1 and stats.served == 1


def test_store_is_deterministic_per_master_seed():
    first = KeyStore(master_seed=5).acquire(8)
    second = KeyStore(master_seed=5).acquire(8)
    third = KeyStore(master_seed=6).acquire(8)
    assert first.keys.f == second.keys.f
    assert first.keys.F == second.keys.F
    assert first.keys.f != third.keys.f


def test_disk_persistence_and_restart(tmp_path):
    store = KeyStore(tmp_path, master_seed=3)
    store.generate_ahead(8, 2)
    assert len(list(tmp_path.glob("*.skey"))) == 2

    restarted = KeyStore(tmp_path, master_seed=3)
    assert restarted.available(8) == 2
    assert restarted.stats().loaded_from_disk == 2
    sk = restarted.acquire(8)
    assert sk.keys.verify_ntru_equation()
    # Acquisition checks the key out: its file is gone.
    assert len(list(tmp_path.glob("*.skey"))) == 1


def test_restart_continues_index_sequence(tmp_path):
    store = KeyStore(tmp_path, master_seed=4)
    store.generate_ahead(8, 2)
    restarted = KeyStore(tmp_path, master_seed=4)
    restarted.generate_ahead(8, 1)
    names = sorted(p.name for p in tmp_path.glob("*.skey"))
    assert names == ["falcon_n0008_000000.skey",
                     "falcon_n0008_000001.skey",
                     "falcon_n0008_000002.skey"]


def test_corrupted_persisted_key_is_rejected(tmp_path):
    store = KeyStore(tmp_path, master_seed=5)
    store.generate_ahead(8, 1)
    path = next(tmp_path.glob("*.skey"))
    blob = bytearray(path.read_bytes())
    blob[4] ^= 0xFF
    path.write_bytes(bytes(blob))
    restarted = KeyStore(tmp_path, master_seed=5)
    with pytest.raises(SerializeError):
        restarted.acquire(8)


def test_worker_pool_matches_inline_generation():
    inline = KeyStore(master_seed=9, workers=1)
    inline.generate_ahead(8, 4)
    pooled = KeyStore(master_seed=9, workers=2)
    pooled.generate_ahead(8, 4)
    for _ in range(4):
        a = inline.acquire(8)
        b = pooled.acquire(8)
        assert a.keys.f == b.keys.f and a.keys.F == b.keys.F


def test_generate_encoded_key_round_trips():
    encoded = generate_encoded_key(8, derive_key_seed(0, 8, 0))
    from repro.falcon import decode_secret_key

    sk = decode_secret_key(encoded)
    assert sk.n == 8


def test_save_and_load_secret_key(tmp_path):
    store = KeyStore(master_seed=13)
    sk = store.acquire(8)
    path = save_secret_key(sk, tmp_path / "solo.skey")
    restored = load_secret_key(path)
    assert restored.keys.f == sk.keys.f
    assert restored.keys.G == sk.keys.G


def test_peek_does_not_consume(tmp_path):
    store = KeyStore(tmp_path, master_seed=15)
    store.generate_ahead(8, 2)
    peeked = store.peek(8)
    assert store.available(8) == 2
    assert len(list(tmp_path.glob("*.skey"))) == 2
    acquired = store.acquire(8)
    assert acquired.keys.f == peeked.keys.f  # same head entry


def test_negative_and_huge_master_seeds():
    assert derive_key_seed(-1, 8, 0) == derive_key_seed(-1, 8, 0)
    assert derive_key_seed(-1, 8, 0) != derive_key_seed(1, 8, 0)
    big = 1 << 300
    assert len(derive_key_seed(big, 8, 0)) == 32
    sk = KeyStore(master_seed=-3).acquire(8)
    assert sk.keys.verify_ntru_equation()


def test_drained_store_restart_never_reissues_slots(tmp_path):
    """Even with every key file checked out (deleted), the persisted
    slot manifest keeps a restarted store from regenerating key
    material that is already in some caller's hands."""
    store = KeyStore(tmp_path, master_seed=21)
    store.generate_ahead(8, 2)
    issued = [store.acquire(8).keys.f, store.acquire(8).keys.f]
    assert not list(tmp_path.glob("*.skey"))  # fully drained
    restarted = KeyStore(tmp_path, master_seed=21)
    fresh = restarted.acquire(8)
    assert fresh.keys.f not in issued


def test_persisted_writes_leave_no_scratch_files(tmp_path):
    store = KeyStore(tmp_path, master_seed=22)
    store.generate_ahead(8, 2)
    assert not list(tmp_path.glob("*.tmp"))
    assert (tmp_path / "keystore-state.json").exists()


def test_workers_validation():
    with pytest.raises(ValueError):
        KeyStore(workers=0)
    with pytest.raises(ValueError):
        KeyStore(low_watermark=-1)


def test_concurrent_store_instances_claim_disjoint_slots(tmp_path):
    """Regression (PR 5): two store instances sharing a directory used
    to claim overlapping slot indices — the second instance's stale
    in-memory manifest restarted at the first instance's range and
    re-derived the same per-slot seeds.  Claims now reload the
    manifest under the cross-process lock, so ranges are disjoint."""
    first = KeyStore(tmp_path, master_seed=31)
    second = KeyStore(tmp_path, master_seed=31)  # stale view of 'first'
    first.generate_ahead(8, 2)
    second.generate_ahead(8, 2)  # must advance past first's claims
    names = sorted(path.name for path in tmp_path.glob("*.skey"))
    assert names == [f"falcon_n0008_{index:06d}.skey"
                     for index in range(4)]
    from repro.falcon import load_secret_key

    issued = [tuple(load_secret_key(tmp_path / name).keys.f)
              for name in names]
    assert len(set(issued)) == 4  # four distinct keys, no seed reuse


def test_concurrent_checkout_never_serves_a_slot_twice(tmp_path):
    """Two stores that adopted the same persisted slots race their
    checkouts through atomic file claims: each slot is served exactly
    once, and the loser moves on to the next slot."""
    first = KeyStore(tmp_path, master_seed=32)
    first.generate_ahead(8, 3)
    second = KeyStore(tmp_path, master_seed=32)  # adopts the same 3
    served = [tuple(store.acquire(8).keys.f)
              for store in (first, second, first, second)]
    assert len(set(served)) == 4  # 3 pooled slots + 1 fresh, no dupes


def test_stale_claim_scratch_files_swept_on_restart(tmp_path):
    """A claimant that crashed between its rename and unlink leaves
    key material in a .claim-* scratch file; construction sweeps the
    stale ones (a fresh claim — a live checkout — is left alone)."""
    import os
    import time

    store = KeyStore(tmp_path, master_seed=55)
    store.generate_ahead(8, 1)
    stale = tmp_path / "falcon_n0008_000000.skey.claim-999-deadbeef"
    stale.write_bytes(b"leftover key material")
    old = time.time() - 3600
    os.utime(stale, (old, old))
    fresh = tmp_path / "falcon_n0008_000001.skey.claim-999-cafef00d"
    fresh.write_bytes(b"live checkout in another process")
    KeyStore(tmp_path, master_seed=55)
    assert not stale.exists()
    assert fresh.exists()
    fresh.unlink()


def test_future_mtime_scratch_survives_sweep(tmp_path):
    """Satellite regression: clock skew (NFS, a stepped clock) can
    stamp a live claim's scratch file *in the future*.  The old sweep
    compared a signed age against the threshold, so a huge negative
    age could never look stale — but the clamped age must also never
    go the other way and delete a live claim.  A future-mtime scratch
    is at most zero seconds old: it stays."""
    import os
    import time

    store = KeyStore(tmp_path, master_seed=56)
    store.generate_ahead(8, 1)
    skewed = tmp_path / "falcon_n0008_000000.skey.claim-999-5kew5kew"
    skewed.write_bytes(b"live checkout, skewed clock")
    future = time.time() + 7200
    os.utime(skewed, (future, future))
    KeyStore(tmp_path, master_seed=56)
    assert skewed.exists()  # age clamps to 0, never "older than" any
    skewed.unlink()


def test_stale_claim_threshold_is_configurable(tmp_path):
    import os
    import time

    store = KeyStore(tmp_path, master_seed=57)
    store.generate_ahead(8, 1)
    scratch = tmp_path / "falcon_n0008_000000.skey.claim-999-0ddba11"
    scratch.write_bytes(b"claim from 30 seconds ago")
    old = time.time() - 30
    os.utime(scratch, (old, old))
    # Under the default 60-second threshold it is a live checkout...
    KeyStore(tmp_path, master_seed=57)
    assert scratch.exists()
    # ...under a 10-second threshold it is garbage.
    KeyStore(tmp_path, master_seed=57, stale_claim_seconds=10)
    assert not scratch.exists()
    with pytest.raises(ValueError):
        KeyStore(tmp_path, master_seed=57, stale_claim_seconds=0)


def test_pooled_generation_submits_blocks_to_warm_workers():
    """Satellite regression for the pooled-keygen fix: ``generate_ahead``
    submits contiguous slot *blocks* (one task per worker, preserving
    slot order — the block boundary must not perturb key bytes), and
    the store's process pool persists across refills instead of being
    rebuilt (re-paying fork + warmup) each time."""
    pooled = KeyStore(master_seed=58, workers=2)
    try:
        pooled.generate_ahead(8, 5)  # ceil(5/2)=3: blocks of 3 and 2
        executor = pooled._executor
        assert executor is not None
        pooled.generate_ahead(8, 3)
        assert pooled._executor is executor  # same warm pool reused
    finally:
        pooled.close()
    assert pooled._executor is None
    inline = KeyStore(master_seed=58, workers=1)
    inline.generate_ahead(8, 8)
    for _ in range(8):
        a = inline.acquire(8)
        b = pooled.acquire(8)
        assert a.keys.f == b.keys.f and a.keys.F == b.keys.F


def test_close_is_idempotent_and_store_survives_it():
    store = KeyStore(master_seed=59, workers=2)
    store.generate_ahead(8, 2)
    store.close()
    store.close()
    # A closed store still serves; the pool lazily rebuilds on demand.
    store.generate_ahead(8, 2)
    assert store.stats().available[8] == 4
    store.close()


def test_watermark_refill_inline():
    store = KeyStore(master_seed=41, low_watermark=2)
    store.generate_ahead(8, 2)
    store.acquire(8)  # leaves 1 < watermark: refills to 2 * 2
    store.join_refills()  # waited out, the refill counts exactly once
    assert store.available(8) == 4
    stats = store.stats()
    assert stats.watermark_triggers == 1
    assert stats.refills == 1
    assert stats.last_refill_seconds > 0
    assert stats.total_refill_seconds >= stats.last_refill_seconds


def test_watermark_refill_background():
    store = KeyStore(master_seed=42, low_watermark=1)
    store.acquire(8)  # dry acquire, then pool is 0 < watermark
    store.join_refills()
    assert store.available(8) >= 1
    assert store.stats().refills >= 1


def test_rotation_retires_cohort_and_regenerates(tmp_path):
    store = KeyStore(tmp_path, master_seed=43)
    store.generate_ahead(8, 2)
    old_keys = {tuple(store.peek(8).keys.f)}
    assert store.generation(8) == 0
    retired = store.rotate(8, regenerate=2)
    assert retired == 2
    assert store.generation(8) == 1
    assert store.available(8) == 2
    assert tuple(store.peek(8).keys.f) not in old_keys
    stats = store.stats()
    assert stats.retired == 2
    assert stats.generation[8] == 1


def test_restart_after_rotation_discards_retired_files(tmp_path):
    store = KeyStore(tmp_path, master_seed=45)
    store.generate_ahead(8, 2)
    # Rotate through a *second* instance: the first instance's files
    # are now a retired cohort on disk.
    rotated = KeyStore(tmp_path, master_seed=45)
    rotated.rotate(8)
    rotated.generate_ahead(8, 1)
    restarted = KeyStore(tmp_path, master_seed=45)
    assert restarted.available(8) == 1  # only the fresh cohort
    assert restarted.generation(8) == 1
    stale = [path.name for path in tmp_path.glob("*.skey")
             if int(path.name.split("_")[2].split(".")[0]) < 2]
    assert stale == []  # retired cohort files were removed


def test_rotation_during_refill_discards_inflight_cohort(tmp_path,
                                                         monkeypatch):
    """A refill whose slots were claimed before a rotation must not
    re-pool its keys afterwards: the in-flight cohort is retired on
    arrival (pool admission re-checks the cohort start)."""
    import repro.falcon.keystore as keystore_module

    store = keystore_module.KeyStore(tmp_path, master_seed=51)
    real_generate = keystore_module.generate_encoded_key
    fired = []

    def rotate_mid_generation(n, seed, prng="chacha20"):
        encoded = real_generate(n, seed, prng)
        if not fired:  # rotation lands while this key is in flight
            fired.append(True)
            store.rotate(8)
        return encoded

    monkeypatch.setattr(keystore_module, "generate_encoded_key",
                        rotate_mid_generation)
    store.generate_ahead(8, 1)
    assert store.available(8) == 0  # retired on arrival, not pooled
    assert store.stats().retired == 1
    assert not list(tmp_path.glob("*.skey"))
    assert store.generation(8) == 1


def test_stats_as_dict_round_trips_to_json():
    import json

    store = KeyStore(master_seed=47)
    store.generate_ahead(8, 1)
    payload = store.stats().as_dict()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["generated"] == 1
    assert payload["available"] == {"8": 1}
