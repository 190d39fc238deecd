"""Serving throughput: the asyncio coalescing service vs the sync loop.

The ROADMAP's serving story before this PR ended at a synchronous
per-request loop over one flat key store; this benchmark measures what
the coalescing front buys.  Rows per configuration:

* **sync_loop** — the baseline: one ``sk.sign(message)`` per request,
  sequentially (what a naive per-request server does); each is a
  one-lane ``sign_many`` round;
* **direct_sign_many** — the spine ceiling: all messages through one
  ``sign_many`` call (no coalescing overhead, no concurrency);
* **service c=K / w=W** — the coalescing service: ``K`` concurrent
  client coroutines submitting requests over a sharded store, batch
  window ``W`` seconds.  Requests/s includes queueing, coalescing and
  the asyncio machinery, so ``direct_sign_many`` bounds it above and
  ``sync_loop`` is the number to beat;
* **fanout_t64 …** — the coalescing service over 64 tenants (one
  lane each, about, per round): the rows above with 2 tenants, where
  sign rounds fill only because lanes merge across tenants;
* **mp …** — the same service with a :class:`ShardWorkerPool` over
  the row's store: each shard's rounds run in a dedicated worker
  process with warm loads of the keys the store ships (the multi-core
  path — on a 1-core runner the IPC tax makes these rows *slower*,
  which the JSON records honestly);
* **net …** (``--net``) — the full wire: requests travel as
  length-prefixed frames through :class:`NetServer` /
  :class:`NetClient` over a real loopback socket;
* **verify … / net_verify …** — the verify plane: every request
  pre-signed, then verified through the service's cross-tenant
  coalesced verify rounds (no signer checkout on the hot path —
  verify rounds run off the public-key cache and merge across
  tenants into maximal cross-key batches), in-process and over the
  wire; **verify_t64 …** verifies one record per tenant of the
  fan-out row's 64 warm tenants, so both shards' verify rounds run
  at once (on the NumPy spine, on the event loop);
* **ledger …** — the signed-ledger pipeline over the same keys:
  pre-signed records through the bounded mempool into batch-verified,
  hash-chained committed blocks; its p50/p99 column is per-*commit*
  (block) latency.

Every service-level row also records client-observed p50/p99 latency
in milliseconds (wall time from submit to signature, including queue
wait and the coalescing window), plus availability and error rate —
the share of requests that completed vs failed.  Fault-free rows are
100% by construction; the ``--chaos`` rows inject a pinned, seeded
:class:`FaultPlan` (dropped response frames at the wire, failed
keystore claims) and record what the retry/dedup/supervision machinery
actually delivers under it.

The acceptance gate (recorded in the JSON): the best coalesced
configuration among the concurrency >= 8 rows beats the synchronous
loop (coalescing needs in-flight requests well past the tenant count
to fill rounds — the committed sweep passes at 32 clients).  The
multi-process gate (``mp_beats_inproc``) is judged only on hosts with
more than one core; on a 1-core runner it is recorded as ``null``.
Results go to the text report and
``benchmarks/reports/BENCH_serving.json``.  Runs standalone
(``PYTHONPATH=src python benchmarks/bench_serving.py --quick``) or
under pytest like the other benchmarks.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import platform
import sys
import time

import pytest

from repro.analysis import format_table
from repro.falcon import HAVE_NUMPY, Ledger
from repro.falcon.serving import (
    FaultPlan,
    NetClient,
    NetServer,
    ShardedKeyStore,
    ShardWorkerPool,
    SigningService,
)

from _report import REPORT_DIR, once, report

JSON_NAME = "BENCH_serving.json"

#: Concurrency sweep (client coroutines submitting in parallel).
CONCURRENCY = (1, 8, 32)

#: Batch-window sweep, seconds (0 = drain only what is queued).
WINDOWS = (0.0, 0.002)

#: Tenants sharing the service.  Sign rounds merge lanes across
#: tenants, so a round's batch is roughly ``in-flight / shards``
#: whatever the tenant count; the sweep's 2 tenants keep the direct
#: and synchronous baselines comparable to earlier runs.
TENANTS = 2
SHARDS = 2
MAX_BATCH = 32

#: The fan-out row: many tenants, each bringing about one lane to a
#: round, so only cross-tenant merging fills rounds (c=32, 2 ms).
FANOUT_TENANTS = 64
FANOUT_CONFIG = (32, 0.002)

#: The pinned fault plan the ``--chaos`` rows run under.  Seeded, so
#: every run of the same build injects the identical fault sequence:
#: ~5% of response frames dropped at the wire (retry + server dedup
#: must recover them) and ~25% of keystore claims failing (the round
#: fails, the client survives it).
CHAOS_PLAN = FaultPlan(seed=7, drop_frame=0.05, fail_claim=0.25)

#: Ledger row: records per committed block.
LEDGER_BLOCK = 32


def _messages(count: int) -> list[bytes]:
    return [b"serving-%d" % i for i in range(count)]


def _fresh_store(master_seed: int, n: int, tenants: int,
                 prewarm: bool = True,
                 fault_plan: FaultPlan | None = None) -> ShardedKeyStore:
    store = ShardedKeyStore(shards=SHARDS, master_seed=master_seed,
                            fault_plan=fault_plan)
    if prewarm:
        # Check the per-tenant signers out up front: every row then
        # measures serving, not first-request keygen.
        for tenant in range(tenants):
            store.signer(f"tenant-{tenant}", n)
    return store


def _sync_loop_rate(store: ShardedKeyStore, n: int,
                    messages: list[bytes], tenants: int) -> float:
    """The pre-serving baseline: per-request ``sign()`` calls (one-lane
    rounds) in a synchronous loop, tenants served round-robin."""
    signers = [store.signer(f"tenant-{t}", n) for t in range(tenants)]
    started = time.perf_counter()
    for i, message in enumerate(messages):
        signers[i % tenants].sign(message)
    return len(messages) / (time.perf_counter() - started)


def _direct_batch_rate(store: ShardedKeyStore, n: int,
                       messages: list[bytes], tenants: int) -> float:
    """The spine ceiling: one ``sign_many`` per tenant, no service."""
    shares = [messages[t::tenants] for t in range(tenants)]
    signers = [store.signer(f"tenant-{t}", n) for t in range(tenants)]
    started = time.perf_counter()
    for signer, share in zip(signers, shares):
        signer.sign_many(share)
    return len(messages) / (time.perf_counter() - started)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile (values pre-sorted ascending)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values) - 1,
               max(0, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _latency_summary(latencies: list[float]) -> dict:
    """Client-observed latency percentiles, milliseconds."""
    ordered = sorted(latencies)
    return {"p50_ms": round(1000 * _percentile(ordered, 0.50), 3),
            "p99_ms": round(1000 * _percentile(ordered, 0.99), 3)}


def _service_rate(store: ShardedKeyStore, n: int,
                  messages: list[bytes], tenants: int,
                  concurrency: int, window: float,
                  worker_pool=None,
                  tolerate_failures: bool = False
                  ) -> tuple[float, list[float], int]:
    """Coalesced async throughput: ``concurrency`` client coroutines
    submit the request stream; returns (requests/s over the full
    drain, per-request client-observed latencies in seconds, failed
    request count).  With ``tolerate_failures`` (chaos rows) a failed
    request is counted instead of aborting the row."""

    async def drive() -> tuple[float, list[float], int]:
        service = SigningService(store, n=n, max_batch=MAX_BATCH,
                                 max_wait=window,
                                 queue_depth=max(4 * MAX_BATCH, 16),
                                 worker_pool=worker_pool)
        latencies: list[float] = []
        failed = 0

        async def client(which: int) -> None:
            nonlocal failed
            for i in range(which, len(messages), concurrency):
                submitted = time.perf_counter()
                try:
                    await service.sign(f"tenant-{i % tenants}",
                                       messages[i])
                except Exception:
                    if not tolerate_failures:
                        raise
                    failed += 1
                latencies.append(time.perf_counter() - submitted)

        async with service:
            if worker_pool is not None:
                # Warm the worker processes' key loads so the timed
                # section measures serving, not first-round key
                # decodes inside the workers; the warm-up signatures
                # must verify under the keys the store publishes.
                warm = await asyncio.gather(*[
                    service.sign(f"tenant-{t}", b"warmup")
                    for t in range(tenants)])
                for t, signature in enumerate(warm):
                    if not store.public_key(f"tenant-{t}", n).verify(
                            b"warmup", signature):
                        raise RuntimeError(
                            f"tenant-{t}: a worker signed under a key "
                            "the store does not publish")
            started = time.perf_counter()
            await asyncio.gather(*[client(which)
                                   for which in range(concurrency)])
            rate = len(messages) / (time.perf_counter() - started)
        return rate, latencies, failed

    return asyncio.run(drive())


def _net_rate(store: ShardedKeyStore, n: int, messages: list[bytes],
              tenants: int, concurrency: int, window: float,
              worker_pool=None, fault_plan: FaultPlan | None = None,
              tolerate_failures: bool = False
              ) -> tuple[float, list[float], int]:
    """Over-the-wire throughput: the same request stream, but every
    request is a length-prefixed frame through a real loopback socket
    (one :class:`NetClient` connection per client coroutine)."""

    async def drive() -> tuple[float, list[float], int]:
        service = SigningService(store, n=n, max_batch=MAX_BATCH,
                                 max_wait=window,
                                 queue_depth=max(4 * MAX_BATCH, 16),
                                 worker_pool=worker_pool)
        latencies: list[float] = []
        failed = 0
        async with service:
            server = NetServer(service, fault_plan=fault_plan)
            await server.start("127.0.0.1", 0)
            connections = [
                await NetClient.connect(
                    "127.0.0.1", server.port,
                    # Short enough that a dropped response frame
                    # retries quickly instead of stalling the row.
                    request_timeout=1.0 if fault_plan else None)
                for _ in range(concurrency)]

            async def client(which: int) -> None:
                nonlocal failed
                net = connections[which]
                for i in range(which, len(messages), concurrency):
                    submitted = time.perf_counter()
                    try:
                        await net.sign(f"tenant-{i % tenants}",
                                       messages[i])
                    except Exception:
                        if not tolerate_failures:
                            raise
                        failed += 1
                    latencies.append(time.perf_counter() - submitted)

            try:
                await asyncio.gather(*[
                    connections[t % concurrency].sign(
                        f"tenant-{t}", b"warmup")
                    for t in range(tenants)])
                started = time.perf_counter()
                await asyncio.gather(*[
                    client(which) for which in range(concurrency)])
                rate = len(messages) / (time.perf_counter() - started)
            finally:
                for net in connections:
                    await net.close()
                await server.stop(stop_service=False)
        return rate, latencies, failed

    return asyncio.run(drive())


def _presigned(store: ShardedKeyStore, n: int, messages: list[bytes],
               tenants: int) -> list[tuple]:
    """(tenant, public_key, message, signature) for every message,
    signed outside any timed section with the tenant split the sign
    rows use (message ``i`` belongs to tenant ``i % tenants``)."""
    records = []
    for tenant in range(tenants):
        name = f"tenant-{tenant}"
        signer = store.signer(name, n)
        share = messages[tenant::tenants]
        for message, signature in zip(share, signer.sign_many(share)):
            records.append((name, signer.public_key, message, signature))
    return records


def _verify_rate(store: ShardedKeyStore, n: int,
                 messages: list[bytes], tenants: int,
                 concurrency: int, window: float
                 ) -> tuple[float, list[float], int]:
    """Verify-plane throughput: pre-signed requests through the
    service's cross-tenant coalesced verify rounds (public-key cache,
    no signer checkout, tenants merged into maximal batches)."""
    records = _presigned(store, n, messages, tenants)

    async def drive() -> tuple[float, list[float], int]:
        service = SigningService(store, n=n, max_batch=MAX_BATCH,
                                 max_wait=window,
                                 queue_depth=max(4 * MAX_BATCH, 16))
        latencies: list[float] = []
        failed = 0

        async def client(which: int) -> None:
            nonlocal failed
            for i in range(which, len(records), concurrency):
                tenant, _pk, message, signature = records[i]
                submitted = time.perf_counter()
                if not await service.verify(tenant, message, signature):
                    failed += 1
                latencies.append(time.perf_counter() - submitted)

        async with service:
            started = time.perf_counter()
            await asyncio.gather(*[client(which)
                                   for which in range(concurrency)])
            rate = len(records) / (time.perf_counter() - started)
        return rate, latencies, failed

    return asyncio.run(drive())


def _net_verify_rate(store: ShardedKeyStore, n: int,
                     messages: list[bytes], tenants: int,
                     concurrency: int, window: float
                     ) -> tuple[float, list[float], int]:
    """The verify plane over the wire: the same pre-signed stream as
    length-prefixed frames through a real loopback socket."""
    records = _presigned(store, n, messages, tenants)

    async def drive() -> tuple[float, list[float], int]:
        service = SigningService(store, n=n, max_batch=MAX_BATCH,
                                 max_wait=window,
                                 queue_depth=max(4 * MAX_BATCH, 16))
        latencies: list[float] = []
        failed = 0
        async with service:
            server = NetServer(service)
            await server.start("127.0.0.1", 0)
            connections = [
                await NetClient.connect("127.0.0.1", server.port)
                for _ in range(concurrency)]

            async def client(which: int) -> None:
                nonlocal failed
                net = connections[which]
                for i in range(which, len(records), concurrency):
                    tenant, _pk, message, signature = records[i]
                    submitted = time.perf_counter()
                    if not await net.verify(tenant, message, signature):
                        failed += 1
                    latencies.append(time.perf_counter() - submitted)

            try:
                started = time.perf_counter()
                await asyncio.gather(*[
                    client(which) for which in range(concurrency)])
                rate = len(records) / (time.perf_counter() - started)
            finally:
                for net in connections:
                    await net.close()
                await server.stop(stop_service=False)
        return rate, latencies, failed

    return asyncio.run(drive())


def _ledger_rate(store: ShardedKeyStore, n: int, messages: list[bytes],
                 tenants: int) -> tuple[float, list[float], int]:
    """The signed-ledger pipeline over the serving store's keys:
    pre-signed records through the bounded mempool into cross-key
    batch-verified, hash-chained blocks.  The latency list is per
    committed *block*, so this row's p50/p99 column reads as commit
    latency."""
    records = _presigned(store, n, messages, tenants)
    ledger = Ledger(max_block_records=LEDGER_BLOCK,
                    capacity=max(len(records), LEDGER_BLOCK))
    latencies: list[float] = []
    started = time.perf_counter()
    for _tenant, public_key, message, signature in records:
        ledger.submit_signed(public_key, message, signature)
        if len(ledger.mempool) >= LEDGER_BLOCK:
            commit_start = time.perf_counter()
            ledger.commit()
            latencies.append(time.perf_counter() - commit_start)
    while len(ledger.mempool):
        commit_start = time.perf_counter()
        ledger.commit()
        latencies.append(time.perf_counter() - commit_start)
    rate = len(records) / (time.perf_counter() - started)
    return rate, latencies, 0


def run_sweep(n: int = 256, signs: int = 64, tenants: int = TENANTS,
              quick: bool = False, net: bool = False,
              chaos: bool = False) -> dict:
    if quick:
        n = min(n, 64)
        signs = min(signs, 24)
    messages = _messages(signs)
    store = _fresh_store(1, n, tenants)
    rows = {
        "sync_loop": _sync_loop_rate(store, n, messages, tenants),
        "direct_sign_many": _direct_batch_rate(store, n, messages,
                                               tenants),
    }
    service_rows: dict[str, float] = {}
    latency_rows: dict[str, dict] = {}
    availability_rows: dict[str, dict] = {}

    def record(label: str,
               outcome: tuple[float, list[float], int]) -> None:
        rate, latencies, failed = outcome
        service_rows[label] = rate
        latency_rows[label] = _latency_summary(latencies)
        availability_rows[label] = {
            "failed": failed,
            "availability": round((signs - failed) / signs, 4)
            if signs else 1.0,
            "error_rate": round(failed / signs, 4) if signs else 0.0,
        }

    for window in WINDOWS:
        for concurrency in CONCURRENCY:
            if quick and (window, concurrency) not in (
                    (WINDOWS[0], 1), (WINDOWS[-1], 8)):
                continue
            label = f"c{concurrency}_w{window * 1000:g}ms"
            record(label, _service_rate(store, n, messages, tenants,
                                        concurrency, window))

    # Fan-out row: 64 tenants, so rounds fill only by merging sign
    # lanes across tenants.  One warm-up sign per tenant first: the
    # row measures merged rounds, not each key's first-sign set-up.
    fanout_store = _fresh_store(4, n, FANOUT_TENANTS)
    for tenant in range(FANOUT_TENANTS):
        fanout_store.signer(f"tenant-{tenant}", n).sign_many([b"warmup"])
    concurrency, window = FANOUT_CONFIG
    record(f"fanout_t{FANOUT_TENANTS}_c{concurrency}"
           f"_w{window * 1000:g}ms",
           _service_rate(fanout_store, n, messages, FANOUT_TENANTS,
                         concurrency, window))

    # Multi-process rows: dedicated worker process per shard, over the
    # row's store; the rows measure warm serving after a tenant
    # warm-up pass.
    mp_configs = [(CONCURRENCY[-1], WINDOWS[-1])]
    if quick:
        mp_configs = [(8, WINDOWS[-1])]
    for concurrency, window in mp_configs:
        with ShardWorkerPool(store) as pool:
            label = f"mp_c{concurrency}_w{window * 1000:g}ms"
            record(label, _service_rate(store, n, messages, tenants,
                                        concurrency, window,
                                        worker_pool=pool))

    # Over-the-wire rows: real loopback sockets, framed protocol.
    if net:
        net_configs = [(CONCURRENCY[-1], WINDOWS[-1])]
        if quick:
            net_configs = [(8, WINDOWS[-1])]
        for concurrency, window in net_configs:
            label = f"net_c{concurrency}_w{window * 1000:g}ms"
            record(label, _net_rate(store, n, messages, tenants,
                                    concurrency, window))

    # Verify-plane and ledger rows: pre-signed records through the
    # cross-tenant coalesced verify path (in-process, and over the
    # wire with --net) and through the signed-ledger commit pipeline.
    verify_concurrency, verify_window = (8, WINDOWS[-1]) if quick \
        else (CONCURRENCY[-1], WINDOWS[-1])
    verify_label = (f"c{verify_concurrency}"
                    f"_w{verify_window * 1000:g}ms")
    record(f"verify_{verify_label}",
           _verify_rate(store, n, messages, tenants,
                        verify_concurrency, verify_window))
    # The fan-out store's 64 warm tenants spread over both shards, so
    # both shards' verify rounds run at once, merging lanes across
    # tenants.
    record(f"verify_t{FANOUT_TENANTS}_{verify_label}",
           _verify_rate(fanout_store, n, messages, FANOUT_TENANTS,
                        verify_concurrency, verify_window))
    if net:
        record(f"net_verify_{verify_label}",
               _net_verify_rate(store, n, messages, tenants,
                                verify_concurrency, verify_window))
    record(f"ledger_b{LEDGER_BLOCK}",
           _ledger_rate(store, n, messages, tenants))

    # Chaos rows: the same workloads under the pinned fault plan.
    # The wire row drops ~5% of response frames (retry + server-side
    # dedup must recover them); the claims row serves from a store
    # whose keystore claims fail ~10% of the time (signers are checked
    # out during serving, not prewarmed, so the faults actually land).
    if chaos:
        concurrency, window = (8, WINDOWS[-1]) if quick \
            else (CONCURRENCY[-1], WINDOWS[-1])
        record(f"chaos_net_c{concurrency}_w{window * 1000:g}ms",
               _net_rate(store, n, messages, tenants, concurrency,
                         window, fault_plan=CHAOS_PLAN,
                         tolerate_failures=True))
        chaos_store = _fresh_store(3, n, tenants, prewarm=False,
                                   fault_plan=CHAOS_PLAN)
        record(f"chaos_claims_c{concurrency}_w{window * 1000:g}ms",
               _service_rate(chaos_store, n, messages, tenants,
                             concurrency, window,
                             tolerate_failures=True))

    def _concurrency_of(label: str) -> int:
        core = next(part for part in label.split("_")
                    if part[:1] == "c" and part[1:].isdigit())
        return int(core[1:])

    # The acceptance gate: the best coalesced configuration among the
    # in-process concurrency >= 8 rows (coalescing needs enough
    # in-flight requests to fill rounds; the per-concurrency rows are
    # all in the JSON for readers who want the full curve).  Chaos
    # rows measure survival, not throughput, and the fan-out row a
    # different tenant mix; both stay out of the gates.
    sign_path_only = ("mp_", "net_", "chaos_", "verify_", "ledger_",
                      "fanout_")
    best_coalesced = max(
        (rate for label, rate in service_rows.items()
         if not label.startswith(sign_path_only)
         and _concurrency_of(label) >= 8), default=0.0)
    best_inproc = max(
        (rate for label, rate in service_rows.items()
         if not label.startswith(sign_path_only)), default=0.0)
    best_mp = max((rate for label, rate in service_rows.items()
                   if label.startswith("mp_")), default=0.0)
    multi_core = (os.cpu_count() or 1) > 1
    return {
        "benchmark": "serving",
        "quick": quick,
        "python": platform.python_version(),
        "have_numpy": HAVE_NUMPY,
        "cpu_count": os.cpu_count(),
        "n": n,
        "signs": signs,
        "tenants": tenants,
        "shards": SHARDS,
        "max_batch": MAX_BATCH,
        "requests_per_sec": {label: round(rate, 2)
                             for label, rate in
                             {**rows, **service_rows}.items()},
        "latency": latency_rows,
        "availability": availability_rows,
        "chaos": chaos,
        "chaos_plan": ({"seed": CHAOS_PLAN.seed,
                        "drop_frame": CHAOS_PLAN.drop_frame,
                        "fail_claim": CHAOS_PLAN.fail_claim}
                       if chaos else None),
        "best_coalesced_c_ge_8": round(best_coalesced, 2),
        "coalesced_speedup_vs_sync_loop":
            round(best_coalesced / rows["sync_loop"], 2)
            if best_coalesced else None,
        "best_coalesced_beats_sync_loop":
            bool(best_coalesced and
                 best_coalesced >= rows["sync_loop"]),
        "mp_speedup_vs_inproc":
            round(best_mp / best_inproc, 2)
            if best_mp and best_inproc else None,
        # The multi-process gate only means something with real
        # parallel hardware; on a 1-core host the IPC tax dominates
        # and the honest answer is "not applicable", recorded as null.
        "mp_beats_inproc":
            (bool(best_mp and best_inproc and best_mp >= best_inproc)
             if multi_core else None),
    }


def render_report(payload: dict) -> str:
    latency = payload.get("latency", {})
    availability = payload.get("availability", {})
    rows = []
    for label, rate in payload["requests_per_sec"].items():
        summary = latency.get(label)
        avail = availability.get(label)
        rows.append([
            label, f"{rate:,.1f}",
            f"{summary['p50_ms']:,.1f}" if summary else "-",
            f"{summary['p99_ms']:,.1f}" if summary else "-",
            f"{avail['availability']:.2%}" if avail else "-",
            f"{avail['error_rate']:.2%}" if avail else "-",
        ])
    table = format_table(
        ["path", "requests/s", "p50 ms", "p99 ms", "avail", "errors"],
        rows,
        title=f"Falcon-{payload['n']} serving throughput "
              f"({payload['signs']} requests, {payload['tenants']} "
              f"tenants, {payload['shards']} shards, c = concurrent "
              "clients, w = batch window, t64 = 64 tenants, "
              "mp = process shard workers, "
              "net = loopback wire protocol, chaos = seeded fault "
              "plan, verify = coalesced cross-tenant verify plane, "
              "ledger = signed-record commit pipeline with per-block "
              "p50/p99)")
    lines = [table, ""]
    if payload.get("chaos"):
        chaos_avail = min(
            (entry["availability"]
             for label, entry in availability.items()
             if label.startswith("chaos_")), default=1.0)
        lines.append(f"chaos rows: pinned fault plan "
                     f"{payload['chaos_plan']}, worst availability "
                     f"{chaos_avail:.2%}")
    if payload["coalesced_speedup_vs_sync_loop"]:
        line = (f"coalesced async (c>=8) = "
                f"{payload['coalesced_speedup_vs_sync_loop']:.2f}x "
                f"the synchronous per-request loop")
        if payload["quick"]:
            # The acceptance gate is judged on the committed full-run
            # JSON (numpy spine, full concurrency sweep), not on this
            # smoke's truncated configuration.
            line += " (smoke run; gate judged on the full sweep)"
        else:
            gate = ("PASS" if payload["best_coalesced_beats_sync_loop"]
                    else "FAIL")
            line += f" (gate: {gate})"
        lines.append(line)
    if payload.get("mp_speedup_vs_inproc"):
        line = (f"process shard workers = "
                f"{payload['mp_speedup_vs_inproc']:.2f}x the best "
                f"in-process row on {payload['cpu_count']} core(s)")
        if payload.get("mp_beats_inproc") is None:
            line += (" (1-core host: IPC tax without parallelism; "
                     "gate n/a)")
        else:
            line += (" (gate: "
                     + ("PASS" if payload["mp_beats_inproc"]
                        else "FAIL") + ")")
        lines.append(line)
    return "\n".join(lines)


def write_json(payload: dict) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")


# -- pytest entry points --------------------------------------------------

def test_serving_report(benchmark):
    """Assemble the serving throughput report (small sweep).

    Deliberately does NOT write the JSON: the committed
    ``BENCH_serving.json`` comes from a full standalone run and must
    not be clobbered by this test's small, noisy sweep.
    """
    payload = once(benchmark, lambda: run_sweep(quick=True))
    report("serving", render_report(payload))
    assert payload["requests_per_sec"]["direct_sign_many"] > 0


@pytest.mark.skipif(not HAVE_NUMPY,
                    reason="acceptance gate measured on the numpy spine")
def test_coalesced_beats_sync_loop(benchmark):
    """The acceptance gate at benchmark scale: the best coalesced
    configuration among the concurrency >= 8 rows must beat the
    synchronous per-request loop (at c=8 with 2 tenants rounds stay
    small; the c=32 rows are where coalescing fills rounds)."""
    payload = once(benchmark,
                   lambda: run_sweep(n=256, signs=48, quick=False))
    assert payload["best_coalesced_beats_sync_loop"], \
        payload["requests_per_sec"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=256)
    parser.add_argument("--signs", type=int, default=64,
                        help="requests per measured row")
    parser.add_argument("--tenants", type=int, default=TENANTS)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: n=64, few requests, two "
                             "service configurations")
    parser.add_argument("--net", action="store_true",
                        help="add over-the-wire rows (loopback "
                             "sockets through the framed protocol)")
    parser.add_argument("--chaos", action="store_true",
                        help="add rows measured under the pinned "
                             "seeded fault plan (dropped frames, "
                             "failed claims) with availability and "
                             "error-rate columns")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing " + JSON_NAME)
    args = parser.parse_args(argv)
    payload = run_sweep(n=args.n, signs=args.signs,
                        tenants=args.tenants, quick=args.quick,
                        net=args.net, chaos=args.chaos)
    print(render_report(payload))
    if not args.no_json:
        write_json(payload)
        print(f"\nwrote {REPORT_DIR / JSON_NAME}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
