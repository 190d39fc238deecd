"""Differential suite for the cross-key batch verification engine.

The engine's contract: ``verify_batch(items)`` over arbitrary mixed
keys and degrees returns verdicts bit-identical to calling each lane's
``public_key.verify(message, signature)``, on both spines, with
per-lane failure reasons instead of silent drops.  The ``spine``
fixture (tests/conftest.py) runs a test once per spine.
"""

import asyncio

import pytest

from repro.falcon import (
    HAVE_NUMPY,
    SecretKey,
    Signature,
    hash_to_point,
    verify_batch,
    verify_batch_report,
)
from repro.falcon import batchverify
from repro.falcon.batchverify import (
    REASON_DECOMPRESS,
    REASON_NORM,
    REASON_OK,
    REASON_SALT,
)
from repro.falcon.serving import ShardedKeyStore, SigningService

# Session-scope keys: keygen dominates these tests otherwise.
_KEYS: dict[tuple[int, int], SecretKey] = {}


def _secret_key(n: int, seed: int) -> SecretKey:
    if (n, seed) not in _KEYS:
        _KEYS[(n, seed)] = SecretKey.generate(n=n, seed=seed)
    return _KEYS[(n, seed)]


def _honest_lane(n: int, seed: int, index: int) -> tuple:
    sk = _secret_key(n, seed)
    message = b"batch-%d-%d" % (n, index)
    return (sk.public_key, message, sk.sign(message))


def _mixed_batch() -> list[tuple]:
    """Mixed degrees, mixed keys, duplicate keys, and three kinds of
    bad lanes: forged message, corrupted blob, hard-truncated blob."""
    lanes = [_honest_lane(8, seed, i)
             for i, seed in enumerate((1, 2, 1, 3))]
    lanes += [_honest_lane(16, seed, i)
              for i, seed in enumerate((1, 2, 2))]
    pk, message, signature = _honest_lane(8, 1, 99)
    lanes.append((pk, message + b"forged", signature))
    flipped = bytearray(signature.compressed)
    flipped[1] ^= 0x41
    lanes.append((pk, message,
                  Signature(salt=signature.salt,
                            compressed=bytes(flipped))))
    lanes.append((pk, message,
                  Signature(salt=signature.salt,
                            compressed=signature.compressed[:3])))
    return lanes


def test_cross_key_matches_per_key_verify(spine):
    lanes = _mixed_batch()
    verdicts = verify_batch(lanes)
    assert verdicts == [pk.verify(message, signature)
                        for pk, message, signature in lanes]
    assert True in verdicts and False in verdicts


@pytest.mark.skipif(not HAVE_NUMPY, reason="needs both spines")
def test_spines_bit_identical_including_reasons(scalar_spine):
    lanes = _mixed_batch()
    numpy_report = verify_batch_report(lanes)
    with scalar_spine():
        scalar_report = verify_batch_report(lanes)
    assert numpy_report.verdicts == scalar_report.verdicts
    assert [(lane.ok, lane.reason, lane.detail)
            for lane in numpy_report.lanes] == \
        [(lane.ok, lane.reason, lane.detail)
         for lane in scalar_report.lanes]


def test_empty_batch(spine):
    assert verify_batch([]) == []
    assert verify_batch_report([]).lanes == []


def test_single_lane_batch(spine):
    lane = _honest_lane(8, 1, 0)
    assert verify_batch([lane]) == [True]


def test_duplicate_keys_share_a_batch(spine):
    sk = _secret_key(8, 1)
    lanes = [(sk.public_key, b"dup-%d" % i, sk.sign(b"dup-%d" % i))
             for i in range(4)]
    assert verify_batch(lanes) == [True] * 4


def test_failure_reasons_reported_not_dropped(spine):
    lanes = _mixed_batch()
    report = verify_batch_report(lanes)
    reasons = [lane.reason for lane in report.lanes]
    assert reasons[:7] == [REASON_OK] * 7
    assert reasons[7] == REASON_NORM          # forged message
    assert reasons[9] == REASON_DECOMPRESS    # truncated blob
    truncated = report.lanes[9]
    assert not truncated.ok and truncated.detail  # decoder's message
    assert report.accepted == sum(report.verdicts)
    assert report.rejected == len(lanes) - report.accepted
    histogram = report.reasons()
    assert histogram[REASON_OK] == report.accepted
    assert histogram[REASON_DECOMPRESS] >= 1


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="row decoder needs the numpy spine")
def test_large_batch_row_decoder_matches_scalar(scalar_spine):
    """A 12-lane same-degree batch rides the vectorized row decoder;
    verdicts and reasons must not change."""
    lanes = []
    for i in range(12):
        sk = _secret_key(8, 1 + i % 3)
        message = b"row-%d" % i
        lanes.append((sk.public_key, message, sk.sign(message)))
    pk, message, signature = lanes[5]
    lanes[5] = (pk, message,
                Signature(salt=signature.salt,
                          compressed=signature.compressed[:2]))
    pk, message, signature = lanes[9]
    lanes[9] = (pk, message + b"!", signature)
    numpy_report = verify_batch_report(lanes)
    with scalar_spine():
        scalar_report = verify_batch_report(lanes)
    assert numpy_report.verdicts == scalar_report.verdicts
    assert [(lane.reason, lane.detail)
            for lane in numpy_report.lanes] == \
        [(lane.reason, lane.detail) for lane in scalar_report.lanes]
    assert numpy_report.verdicts == [pk.verify(m, s)
                                     for pk, m, s in lanes]


def test_verify_batch_report_follows_platform(spine, monkeypatch):
    """With NumPy, a 12-lane same-degree batch takes the row decoder
    and the NumPy full pass; inside the switch it takes the scalar
    bodies — never the other spine's."""
    if spine == "numpy":
        banned = ("_full_pass_scalar", "decompress", "ntt", "intt")
    else:
        banned = ("_full_pass_numpy", "decompress_rows",
                  "mul_ntt_rows_array")
    for name in banned:
        def fail(*args, name=name):
            raise AssertionError(f"{name} ran on the {spine} spine")

        monkeypatch.setattr(batchverify, name, fail)
    lanes = [_honest_lane(8, 1 + i % 3, 200 + i) for i in range(12)]
    assert verify_batch_report(lanes).verdicts == [True] * len(lanes)


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="row decoder needs the numpy spine")
@pytest.mark.parametrize("size", [1, 3])
def test_small_groups_take_the_row_decoder(monkeypatch, size):
    """Every same-degree group decodes through ``decompress_rows``,
    whatever its size, and the per-lane decoder runs only for a lane
    the row decoder failed, to give that lane its message."""
    rows_calls, lane_calls = [], []
    decode_rows = batchverify.decompress_rows
    decode_lane = batchverify.decompress

    def counted_rows(blobs, n):
        rows_calls.append(len(blobs))
        return decode_rows(blobs, n)

    def counted_lane(blob, n):
        lane_calls.append(blob)
        return decode_lane(blob, n)

    monkeypatch.setattr(batchverify, "decompress_rows", counted_rows)
    monkeypatch.setattr(batchverify, "decompress", counted_lane)
    lanes = [_honest_lane(8, 1 + i % 3, 300 + i) for i in range(size)]
    assert verify_batch_report(lanes).verdicts == [True] * size
    assert rows_calls == [size] and lane_calls == []
    pk, message, signature = lanes[-1]
    padded = bytearray(signature.compressed)
    padded[-1] |= 1
    lanes[-1] = (pk, message, Signature(salt=signature.salt,
                                        compressed=bytes(padded)))
    report = verify_batch_report(lanes)
    assert report.verdicts == [True] * (size - 1) + [False]
    assert (report.lanes[-1].reason, report.lanes[-1].detail) \
        == (REASON_DECOMPRESS, "non-zero padding")
    assert rows_calls == [size, size] and lane_calls == [bytes(padded)]


# -- salt length -----------------------------------------------------------

def _short_salt_forgeries(public_key, message, signature):
    """An honest signature recut into two forgeries: its salt loses
    its last byte, or all of it, and the message gains what the salt
    lost.  ``salt || message`` and so the hashed point stay the same."""
    forgeries = []
    for cut in (39, 0):
        salt, moved = signature.salt[:cut], signature.salt[cut:]
        assert hash_to_point(moved + message, salt, public_key.n) \
            == hash_to_point(message, signature.salt, public_key.n)
        forgeries.append((public_key, moved + message,
                          Signature(salt=salt,
                                    compressed=signature.compressed)))
    return forgeries


def test_short_salt_forgeries_rejected(spine):
    """Every verify entry point rejects a salt of the wrong length:
    ``PublicKey.verify``, ``verify_many``, ``verify_batch_report``
    (reason ``salt-length``) and an in-process ``SigningService``."""
    sk = _secret_key(8, 1)
    message = b"pay alice 10"
    honest = (sk.public_key, message, sk.sign(message))
    forgeries = _short_salt_forgeries(*honest)
    lanes = [honest] + forgeries
    assert [pk.verify(m, s) for pk, m, s in lanes] == [True, False, False]
    assert sk.public_key.verify_many([m for _, m, _ in lanes],
                                     [s for *_, s in lanes]) \
        == [True, False, False]
    report = verify_batch_report(lanes)
    assert [(lane.ok, lane.reason, lane.detail) for lane in report.lanes] \
        == [(True, REASON_OK, ""),
            (False, REASON_SALT, "salt is 39 bytes, expected 40"),
            (False, REASON_SALT, "salt is 0 bytes, expected 40")]

    async def drive():
        store = ShardedKeyStore(shards=1, master_seed=19)
        async with SigningService(store, n=8, max_batch=8,
                                  max_wait=0.05) as service:
            signature = await service.sign("tenant-a", message)
            forgeries = _short_salt_forgeries(
                store.public_key("tenant-a", 8), message, signature)
            return await asyncio.gather(
                service.verify("tenant-a", message, signature),
                *[service.verify("tenant-a", m, s) for _, m, s in forgeries])

    assert asyncio.run(drive()) == [True, False, False]


# -- verify_many rides the engine -----------------------------------------

def test_verify_many_report_returns_reasons():
    sk = _secret_key(8, 1)
    messages = [b"vm-%d" % i for i in range(3)]
    signatures = [sk.sign(m) for m in messages]
    broken = Signature(salt=signatures[1].salt,
                       compressed=signatures[1].compressed[:2])
    report = verify_batch_report(
        [(sk.public_key, message, signature) for message, signature
         in zip(messages, [signatures[0], broken, signatures[2]])])
    assert report.verdicts == [True, False, True]
    assert report.lanes[1].reason == REASON_DECOMPRESS
    assert report.lanes[1].detail


def test_verify_many_verdicts_unchanged():
    sk = _secret_key(8, 2)
    messages = [b"unchanged-%d" % i for i in range(4)]
    signatures = [sk.sign(m) for m in messages]
    verdicts = sk.public_key.verify_many(
        [messages[0], b"wrong", messages[2], messages[3]], signatures)
    assert verdicts == [True, False, True, True]
    assert verdicts == [
        sk.public_key.verify(m, s) for m, s in
        zip([messages[0], b"wrong", messages[2], messages[3]],
            signatures)]


def test_verify_many_length_mismatch():
    sk = _secret_key(8, 1)
    with pytest.raises(ValueError):
        sk.public_key.verify_many([b"m"], [])
