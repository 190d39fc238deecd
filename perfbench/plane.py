"""The serving plane under test and the two phases that load it.

One process, one event loop: the ``NetServer`` -> ``SigningService``
-> ``ShardedKeyStore`` stack runs in-process with the service defaults,
and the closed-loop client keeps ``IN_FLIGHT`` requests pipelined over
``CONNECTIONS`` loopback ``NetClient`` connections.

* Phase A sends the workload's wire requests (sign or verify) and
  measures throughput and latency over a fixed window.
* Phase B submits the signed record pool to fresh on-disk ``Ledger``s
  and commits it in blocks of ``BLOCK_RECORDS`` (flush + fsync per
  block), measuring records committed per second and per-block commit
  latency.
"""

from __future__ import annotations

import asyncio
import contextlib
import importlib
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from workload import (BLOCK_RECORDS, CONNECTIONS, DEGREE, IN_FLIGHT,
                      MAX_BATCH, MAX_WAIT, SHARDS, Workload, key_seed,
                      tenant_name, tenant_token)


@dataclass
class Plane:
    workload: Workload
    store: object
    service: object
    server: object
    clients: list
    tenants: list
    setup_s: float

    def signers(self) -> list:
        return [self.store.signer(tenant, DEGREE)
                for tenant in self.tenants]

    def public_key(self, tenant: str):
        return self.store.public_key(tenant, DEGREE)

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.stop()  # drains, then stops the service
        await asyncio.to_thread(self.store.close)


async def build_plane(workload: Workload, seed: int,
                      tracer=None) -> Plane:
    """Cold set-up up to the first timed request, timed as ``setup_s``:
    imports, store construction, keygen + key load for every tenant
    (checked out in tenant order), one warm-up sign and verify per
    tenant so lazy caches fill, server start and connections (one
    warm-up round trip each)."""
    started = time.perf_counter()
    serving = importlib.import_module("repro.falcon.serving")
    store = serving.ShardedKeyStore(shards=SHARDS,
                                    master_seed=key_seed(seed))
    if tracer is not None:
        tracer.install(store)
    tenants = [tenant_name(t) for t in range(workload.tenants)]
    warm = b"perfbench warm-up"
    warm_signatures = {}
    for tenant in tenants:
        signer = store.signer(tenant, DEGREE)
        signature = signer.sign_many([warm])[0]
        if not store.public_key(tenant, DEGREE).verify_many(
                [warm], [signature])[0]:
            raise RuntimeError(f"warm-up signature of {tenant} rejected")
        warm_signatures[tenant] = signature
    service = serving.SigningService(store, n=DEGREE, max_batch=MAX_BATCH,
                                     max_wait=MAX_WAIT)
    await service.start()
    if tracer is not None:
        tracer.install_service(service)
    tokens = {tenant: tenant_token(seed, tenant) for tenant in tenants}
    server = serving.NetServer(service, tokens=tokens)
    await server.start()
    clients = [await serving.NetClient.connect("127.0.0.1", server.port,
                                               tokens=tokens)
               for _ in range(CONNECTIONS)]
    for index, client in enumerate(clients):
        tenant = tenants[index % len(tenants)]
        if workload.kind == "sign":
            await client.sign(tenant, warm + b" %d" % index)
        else:
            await client.verify(tenant, warm, warm_signatures[tenant])
    setup_s = time.perf_counter() - started
    return Plane(workload=workload, store=store,
                 service=service, server=server, clients=clients,
                 tenants=tenants, setup_s=setup_s)


# -- phase A: closed loop over the wire ---------------------------------------

@dataclass
class WireResult:
    window_s: float
    latencies: list  # seconds, requests completed inside the window
    finished: list   # their completion offsets into the window
    #: Every request sent: (index, tenant, message, signature,
    #: expected, result or exception) — checked after the window.
    outcomes: list = field(default_factory=list)
    drained_s: float = 0.0  # window plus the in-flight drain

    @property
    def completed(self) -> int:
        return len(self.latencies)


async def wire_phase(plane: Plane, requests, seconds: float,
                     tracer=None) -> WireResult:
    """Keep ``IN_FLIGHT`` requests outstanding for ``seconds``.

    ``requests(i)`` returns ``(tenant, message, signature, expected)``
    for request ``i`` (``signature`` and ``expected`` are None for a
    sign request; ``expected`` is a verify request's ground truth).  A
    request's latency counts when it completes inside the window;
    requests still in flight at the deadline finish (and are checked)
    but are not timed.
    """
    kind = plane.workload.kind
    counter = iter(range(1 << 62))
    latencies: list = []
    finished: list = []
    outcomes: list = []
    start = time.perf_counter()
    deadline = start + seconds

    async def worker(slot: int) -> None:
        client = plane.clients[slot % len(plane.clients)]
        while time.perf_counter() < deadline:
            index = next(counter)
            tenant, message, signature, expected = requests(index)
            if tracer is not None:
                tracer.rid_by_message[message] = index
            sent = time.perf_counter()
            try:
                if kind == "sign":
                    result = await client.sign(tenant, message)
                else:
                    result = await client.verify(tenant, message,
                                                 signature, DEGREE)
            except Exception as error:  # counted as a failed operation
                result = error
            done = time.perf_counter()
            if tracer is not None:
                tracer.record("net", sent, done, (index,))
            if done <= deadline:
                latencies.append(done - sent)
                finished.append(done - start)
            outcomes.append((index, tenant, message, signature, expected,
                             result))

    await asyncio.gather(*[worker(slot) for slot in range(IN_FLIGHT)])
    return WireResult(window_s=seconds, latencies=latencies,
                      finished=finished, outcomes=outcomes,
                      drained_s=time.perf_counter() - start)


# -- phase B: ledger commits -------------------------------------------------

@dataclass
class LedgerResult:
    committed: int
    submitted: int
    commit_latencies: list
    #: Per block: records committed over the block's submit + commit
    #: wall time.
    block_rates: list
    ledgers: list  # (Ledger, records submitted to it)
    rejects: int


def _untraced(name: str):
    return contextlib.nullcontext()


def ledger_phase(records: list, seconds: float, directory: Path,
                 tracer=None) -> LedgerResult:
    """Commit ``records`` — ``(public_key, message, signature, valid)``
    tuples — in blocks of ``BLOCK_RECORDS`` into fresh on-disk ledgers
    until ``seconds`` pass (a ledger takes each whole block once, then
    the next ledger starts)."""
    from repro.falcon.ledger import Ledger

    blocks = len(records) // BLOCK_RECORDS
    if blocks == 0:
        raise RuntimeError(f"ledger phase needs at least {BLOCK_RECORDS} "
                           f"records, got {len(records)}")
    records = records[:blocks * BLOCK_RECORDS]
    shutil.rmtree(directory, ignore_errors=True)
    span = tracer.span if tracer is not None else _untraced
    commit_latencies: list = []
    block_rates: list = []
    ledgers: list = []
    committed = submitted = rejects = 0
    deadline = time.perf_counter() + seconds
    block = blocks
    while time.perf_counter() < deadline or not commit_latencies:
        if block == blocks:
            block = 0
            ledger = Ledger(directory / f"ledger-{len(ledgers):03d}",
                            max_block_records=BLOCK_RECORDS)
            ledgers.append((ledger, []))
        chunk = records[block * BLOCK_RECORDS:(block + 1) * BLOCK_RECORDS]
        block += 1
        block_start = time.perf_counter()
        with span("ledger.submit"):
            for public_key, message, signature, _valid in chunk:
                ledger.submit_signed(public_key, message, signature)
        commit_start = time.perf_counter()
        with span("ledger.commit"):
            result = ledger.commit()
        block_end = time.perf_counter()
        commit_latencies.append(block_end - commit_start)
        block_rates.append(len(result.accepted) / (block_end - block_start))
        ledgers[-1][1].extend(chunk)
        submitted += len(chunk)
        committed += len(result.accepted)
        rejects += len(result.rejected)
    return LedgerResult(committed=committed, submitted=submitted,
                        commit_latencies=commit_latencies,
                        block_rates=block_rates, ledgers=ledgers,
                        rejects=rejects)
