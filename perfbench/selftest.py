"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

* self-time arithmetic on synthetic span trees (nesting, overlapping
  children from two threads, children past their parent's end, the
  request links from ``net`` to ``service`` to a shared round span);
* per-phase, per-operation aggregation of the per-layer metrics;
* positive controls: the correctness check must flag a planted
  corrupted signature, a planted wrong verdict, a planted exception and
  a ledger that committed a record it should have rejected;
* instrumentation leaves every patched attribute as it found it.
"""

from __future__ import annotations

import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from check import check_ledgers, check_wire  # noqa: E402
from run import tail  # noqa: E402
from spans import (Span, Tracer, covered, layer_metrics,  # noqa: E402
                   self_times)


def span(sid, name, start, end, parent=None, rids=(), phase="A",
         cpu=None, thread=1):
    """A synthetic span: synchronous (CPU-timed) unless it is one of
    the request-level coroutine spans."""
    if cpu is None and name not in ("net", "service"):
        cpu = end - start
    return Span(sid, parent, name, start, end, tuple(rids), phase, cpu,
                thread if cpu is not None else None)


class CoveredTest(unittest.TestCase):
    def test_union_and_clipping(self):
        self.assertEqual(covered([], 0, 10), 0)
        self.assertAlmostEqual(covered([(1, 3), (2, 5)], 0, 10), 4)
        self.assertAlmostEqual(covered([(1, 2), (4, 5)], 0, 10), 2)
        self.assertAlmostEqual(covered([(-5, 2), (8, 20)], 0, 10), 4)
        self.assertAlmostEqual(covered([(11, 12)], 0, 10), 0)
        self.assertAlmostEqual(covered([(1, 9), (2, 3)], 0, 10), 8)


class SelfTimeTest(unittest.TestCase):
    def test_nested_children(self):
        spans = [span(1, "sign_many", 0.0, 10.0),
                 span(2, "ffsampling", 1.0, 6.0, parent=1),
                 span(3, "samplerz", 2.0, 5.0, parent=2),
                 span(4, "compress", 7.0, 8.0, parent=1)]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10 - 5 - 1)
        self.assertAlmostEqual(selfs[2], 5 - 3)  # grandchild only here
        self.assertAlmostEqual(selfs[3], 3)
        self.assertAlmostEqual(selfs[4], 1)

    def test_wall_children_overlap_and_overhang(self):
        # Rounds on two shard threads overlap inside one service span,
        # and one runs past its end: only the covered union counts.
        spans = [span(1, "service", 0.0, 4.0, rids=[7]),
                 span(2, "verify_batch", 1.0, 3.0, rids=[7]),
                 span(3, "verify_batch", 2.0, 3.5, rids=[7, 9]),
                 span(4, "verify_batch", 3.8, 6.0, rids=[7])]
        self.assertAlmostEqual(self_times(spans)[1], 4 - 2.5 - 0.2)

    def test_cpu_self_time_ignores_lock_waits_and_other_threads(self):
        # 10 s of wall, 6 s on the CPU (the rest waiting for the lock);
        # a child on the same thread used 2 s, one a context hop put on
        # another thread used 3 s and is not this thread's time.
        spans = [span(1, "sign_many", 0.0, 10.0, cpu=6.0),
                 span(2, "ffsampling", 1.0, 5.0, parent=1, cpu=2.0),
                 span(3, "rng", 6.0, 9.0, parent=1, cpu=3.0, thread=2)]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 4.0)
        self.assertAlmostEqual(selfs[2], 2.0)

    def test_request_links_share_one_round(self):
        # Two requests ride one sign_many round; each service span
        # loses only the part of the round inside its own interval.
        spans = [span(1, "net", 0.0, 10.0, rids=[7]),
                 span(2, "service", 1.0, 9.0, rids=[7]),
                 span(3, "net", 0.5, 8.0, rids=[8]),
                 span(4, "service", 2.0, 7.5, rids=[8]),
                 span(5, "sign_many", 4.0, 8.0, rids=[7, 8]),
                 span(6, "ffsampling", 5.0, 7.0, parent=5)]
        selfs = self_times(spans)
        self.assertAlmostEqual(selfs[1], 10 - 8)
        self.assertAlmostEqual(selfs[3], 7.5 - 5.5)
        self.assertAlmostEqual(selfs[2], 8 - 4)
        self.assertAlmostEqual(selfs[4], 5.5 - 3.5)
        self.assertAlmostEqual(selfs[5], 4 - 2)

    def test_layer_metrics_sum_per_phase(self):
        tracer = Tracer()
        tracer.spans = [
            span(1, "verify_batch", 0.0, 0.004, phase="A"),
            span(2, "verify_batch", 0.010, 0.012, phase="A"),
            span(3, "ledger.commit", 1.0, 1.010, phase="B"),
            span(4, "verify_batch", 1.002, 1.006, parent=3, phase="B"),
            span(5, "samplerz", 9.0, 9.5, phase="setup"),
        ]
        phases = {"A": {"ops": 2, "windows": [(0.0, 0.012)]},
                  "B": {"ops": 4, "windows": [(1.0, 1.010)]}}
        metrics = layer_metrics(tracer, phases, {})
        # 6 ms over 2 requests, plus 4 ms over 4 records.
        self.assertAlmostEqual(metrics["verify_batch.self_ms"][0], 4.0)
        self.assertAlmostEqual(metrics["verify_batch.calls"][0], 1.25)
        self.assertAlmostEqual(metrics["ledger.commit.self_ms"][0], 1.5)
        self.assertEqual(metrics["samplerz.calls"][0], 0)  # setup only
        # Phase A: 6 of 12 ms covered -> 3 ms per request unattributed.
        self.assertAlmostEqual(metrics["trace.unattributed_ms"][0], 3.0)

    def test_tail_keeps_ten_samples_beyond(self):
        value, percentile = tail(list(range(100)))
        self.assertEqual(value, 89)
        self.assertEqual(sum(1 for v in range(100) if v > value), 10)
        self.assertAlmostEqual(percentile, 90.0)
        with self.assertRaises(RuntimeError):
            tail(list(range(10)))


class CorrectnessControlTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        from repro.falcon.scheme import SecretKey

        cls.key = SecretKey.generate(n=64, seed=11)
        cls.messages = [b"control %d" % i for i in range(3)]
        cls.signatures = cls.key.sign_many(cls.messages)

    def public_key(self, tenant):
        return self.key.public_key

    def test_sign_check_flags_corrupted_signature(self):
        from repro.falcon.scheme import Signature

        good = [(i, "t", m, None, None, s) for i, (m, s) in
                enumerate(zip(self.messages, self.signatures))]
        self.assertEqual(check_wire("sign", good, self.public_key), [])
        bad_sig = self.signatures[1]
        corrupted = Signature(salt=bytes([bad_sig.salt[0] ^ 1])
                              + bad_sig.salt[1:],
                              compressed=bad_sig.compressed)
        planted = list(good)
        planted[1] = (1, "t", self.messages[1], None, None, corrupted)
        planted.append((3, "t", b"x", None, None,
                        ConnectionError("lost")))
        failures = check_wire("sign", planted, self.public_key)
        self.assertEqual(len(failures), 2)

    def test_verify_check_flags_wrong_verdict(self):
        outcomes = [(0, "t", b"m", None, True, True),
                    (1, "t", b"m", None, False, False),
                    (2, "t", b"m", None, False, True),  # planted
                    (3, "t", b"m", None, True, False)]  # planted
        self.assertEqual(len(check_wire("verify", outcomes,
                                        self.public_key)), 2)

    def test_ledger_check_flags_wrong_commit(self):
        from repro.falcon.ledger import Ledger

        pk = self.key.public_key
        records = [(pk, m, s, True) for m, s in
                   zip(self.messages, self.signatures)]
        with tempfile.TemporaryDirectory() as directory:
            ledger = Ledger(Path(directory) / "good")
            for record in records:
                ledger.submit_signed(*record[:3])
            ledger.commit()
            self.assertEqual(check_ledgers([(ledger, records)]), [])
            # Planted: a record the workload marks tampered verifies,
            # so the ledger commits it and rejects nothing.
            planted = records[:2] + [records[2][:3] + (False,)]
            self.assertEqual(len(check_ledgers([(ledger, planted)])), 2)


class InstrumentationTest(unittest.TestCase):
    def test_uninstall_restores_every_attribute(self):
        from repro.falcon import batchverify, ledger, scheme
        from repro.falcon.serving import ShardedKeyStore

        store = ShardedKeyStore(shards=1, master_seed=3)
        before = (scheme.hash_to_point, scheme.SecretKey.sign_many,
                  batchverify.decompress, ledger.encode_public_key,
                  vars(store).get("signer_on"))
        tracer = Tracer()
        tracer.install(store)
        self.assertIsNot(scheme.hash_to_point, before[0])
        tracer.uninstall()
        after = (scheme.hash_to_point, scheme.SecretKey.sign_many,
                 batchverify.decompress, ledger.encode_public_key,
                 vars(store).get("signer_on"))
        self.assertEqual(before, after)


if __name__ == "__main__":
    unittest.main()
