"""Command-line interface: the paper's companion sampler-generation tool.

The paper's footnote promises "a tool that implements the strategies
mentioned here" (the authors' const_gauss_split repository generates
bitsliced C from sigma and n).  This CLI plays that role for the
reproduction::

    python -m repro compile --sigma 2 --precision 64 --emit c
    python -m repro sample  --sigma 2 --precision 32 --count 20 --seed 7
    python -m repro audit   --backend cdt-binary
    python -m repro falcon  --n 64 --message "hello"

Subcommands
-----------
``compile``      run the Fig. 4 pipeline, print statistics, optionally
                 emit generated C or Python source.
``sample``       draw samples from a compiled constant-time sampler.
``audit``        dudect leakage audit of any backend.
``ct-leakage``   ML leakage-regression audit over sampler, ffSampling
                 and serving traces (optionally written as JSON).
``ct-lint``      static constant-time taint lint plus the serving-plane
                 concurrency lint, gated against a committed baseline.
``falcon``       keygen/sign/verify round trip with a chosen backend.
``keygen``       fill a generate-ahead key store (optionally persisted
                 to disk, optionally over a worker pool).
``ledger``       append signed records to a ledger, audit its chain
                 or print its stats.
``serve``        run the asyncio coalescing signing service over a
                 sharded key store and drive a client load through it
                 (the serving-architecture demo: coalesced rounds,
                 watermark refill, back-pressure, metrics).

Signing, verification and keygen run the NumPy spine when NumPy
imports and the pure-Python one otherwise; both give identical bytes.
Throughput benchmarks live under ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import sys

from .analysis import format_table
from .baselines import available_backends, make_sampler
from .boolfunc import to_c_source, to_python_source
from .core import GaussianParams, compile_sampler, compile_sampler_circuit
from .core.sampler import DEFAULT_BATCH_WIDTH
from .ct import audit_batch_sampler, audit_sampler
from .rng import available_sources, make_source

def _add_prng_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--prng", default="chacha20", choices=available_sources(),
        help="deterministic randomness backend (chacha20 is the "
             "paper's production choice, vectorized over block "
             "counters when NumPy is available)")


def _positive_int(text: str) -> int:
    """argparse type: an integer of at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer, got {value}")
    return value


def _non_negative_int(text: str) -> int:
    """argparse type: an integer of at least 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative integer, got {value}")
    return value


def _positive_float(text: str) -> float:
    """argparse type: a finite float above 0."""
    value = float(text)
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}")
    return value


def _precision(text: str) -> int:
    """argparse type: a sampler precision in bits, the rule
    :class:`~repro.core.gaussian.GaussianParams` enforces."""
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(
            f"must be an integer of at least 2, got {value}")
    return value


def _probability(text: str) -> float:
    """argparse type: a probability in [0, 1] (NaN refused)."""
    value = float(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(
            f"must be a probability in [0, 1], got {text}")
    return value


def _non_negative_float(text: str) -> float:
    """argparse type: a float of at least 0."""
    value = float(text)
    if not value >= 0:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative number, got {text}")
    return value


def _degree(text: str) -> int:
    """argparse type: a Falcon ring degree, the rule
    :func:`~repro.falcon.params.falcon_params` enforces."""
    value = int(text)
    if value < 4 or value & (value - 1):
        raise argparse.ArgumentTypeError(
            f"must be a power of two of at least 4, got {value}")
    return value


def _cmd_compile(args: argparse.Namespace) -> int:
    params = GaussianParams.from_sigma(args.sigma, args.precision,
                                       tail_cut=args.tail_cut)
    circuit = compile_sampler_circuit(params, method=args.method,
                                      combiner=args.combiner)
    counts = circuit.gate_count()
    rows = [
        ["sigma", args.sigma],
        ["precision n", args.precision],
        ["method", circuit.method],
        ["combiner", circuit.combiner],
        ["magnitude bits", circuit.num_magnitude_bits],
        ["gates (=cycles/batch)", counts["total"]],
        ["depth", circuit.depth()],
        ["compile time", f"{circuit.compile_seconds:.3f}s"],
        ["validity rate", f"{circuit.validity_rate:.12f}"],
    ]
    if circuit.partition is not None:
        rows.insert(4, ["sublists", len(circuit.partition.sublists)])
        rows.insert(5, ["global Delta", circuit.partition.delta])
    print(format_table(["property", "value"], rows,
                       title="compiled sampler"))
    if args.emit == "c":
        print()
        print(to_c_source(circuit.roots, function_name="sampler"))
    elif args.emit == "python":
        print()
        print(to_python_source(circuit.roots, function_name="sampler"))
    return 0


def _cmd_sample(args: argparse.Namespace) -> int:
    sampler = compile_sampler(args.sigma, args.precision,
                              source=make_source(args.prng, args.seed),
                              batch_width=args.batch_width)
    values = sampler.sample_many(args.count)
    # ct: allow(vartime-str): printing the requested samples IS this command's output — nothing here feeds a signing path
    print(" ".join(str(v) for v in values))
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    # The Welch test needs two measurements per class: 4 calls, and on
    # the bitsliced backend a call is a whole batch.
    bitsliced = args.backend == "bitsliced"
    minimum = 4 * DEFAULT_BATCH_WIDTH if bitsliced else 4
    if args.calls < minimum:
        print(f"error: --calls must be at least {minimum} for the "
              f"{args.backend} backend", file=sys.stderr)
        return 2
    params = GaussianParams.from_sigma(args.sigma, args.precision)
    if bitsliced:
        sampler = compile_sampler(args.sigma, args.precision,
                                  source=make_source(args.prng,
                                                     args.seed))
        report = audit_batch_sampler(
            sampler, batches=args.calls // DEFAULT_BATCH_WIDTH)
    else:
        sampler = make_sampler(args.backend, params,
                               source=make_source(args.prng, args.seed))
        report = audit_sampler(sampler, calls=args.calls)
    print(report.render())
    return 1 if report.leaking else 0


def _cmd_ct_leakage(args: argparse.Namespace) -> int:
    from .ct.leakage import audit as leakage_audit

    report = leakage_audit(profile=args.profile, seed=args.seed,
                           targets=args.target or None,
                           margin=args.margin)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report.to_json() + "\n")
        print(f"wrote {args.json}")
    print(report.render())
    return 0 if report.passed else 1


def _cmd_ct_lint(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .ctlint import RULES, LintReport, lint_paths

    if args.list_rules:
        for rule in RULES.values():
            print(f"{rule.id:28s} [{rule.pack:5s}] {rule.title}")
        return 0

    if args.paths:
        targets = [Path(p) for p in args.paths]
    else:
        # Default target: the installed repro package itself, so the
        # gate is independent of the caller's working directory.
        targets = [Path(__file__).resolve().parent]

    packs = tuple(args.pack) if args.pack else ("ct", "async")

    baseline_entries = None
    baseline_path = None
    baseline_file = Path(args.baseline) if args.baseline else None
    if baseline_file is not None and baseline_file.exists() and not args.write_baseline:
        baseline_entries = LintReport.load_baseline(baseline_file)
        baseline_path = str(baseline_file)

    report = lint_paths(targets, packs=packs,
                        baseline=baseline_entries,
                        baseline_path=baseline_path)

    if args.write_baseline:
        if baseline_file is None:
            print("error: --write-baseline requires --baseline PATH")
            return 2
        baseline_file.parent.mkdir(parents=True, exist_ok=True)
        report.write_baseline(baseline_file)
        print(f"wrote {len(report.baseline_entries())} baseline entries "
              f"to {baseline_file}")
        return 0

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_json(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.json}")
    print(report.render())
    return 0 if report.gate_ok else 1


def _cmd_falcon(args: argparse.Namespace) -> int:
    from .falcon import SecretKey
    from .falcon.serialize import encode_public_key, encode_signature

    print(f"generating Falcon-{args.n} keys (seed {args.seed}) ...")
    sk = SecretKey.generate(n=args.n, seed=args.seed, prng=args.prng)
    sk.use_base_sampler(args.backend)
    message = args.message.encode()
    signature = sk.sign(message)
    ok = sk.public_key.verify(message, signature)
    print(f"public key : {len(encode_public_key(sk.public_key))} bytes")
    print(f"signature  : {len(encode_signature(signature, sk.n))} bytes")
    print(f"verified   : {ok}")
    return 0 if ok else 1


def _cmd_keygen(args: argparse.Namespace) -> int:
    import time

    from .falcon.keystore import KeyStore
    from .falcon.serialize import encode_public_key, encode_secret_key

    store = KeyStore(args.keystore, master_seed=args.seed,
                     prng=args.prng, workers=args.workers)
    started = time.perf_counter()
    store.generate_ahead(args.n, args.count)
    elapsed = time.perf_counter() - started
    # Full canonical decode of one key for the report — peek, don't
    # acquire: every generated key stays in the pool.
    sk = store.peek(args.n)
    rows = [
        ["ring degree n", args.n],
        ["keys generated", args.count],
        ["keys/s", f"{args.count / elapsed:,.2f}"],
        ["workers", args.workers],
        ["secret key bytes", len(encode_secret_key(sk))],
        ["public key bytes", len(encode_public_key(sk.public_key))],
        ["pool remaining", store.available(args.n)],
        ["persisted to", args.keystore or "(memory only)"],
    ]
    print(format_table(["property", "value"], rows,
                       title="falcon keygen"))
    return 0


async def _drive_clients(connections, args: argparse.Namespace,
                         tolerate_failures: bool) -> dict:
    """Drive ``args.requests`` sign calls (every ``verify_share``-th
    also verified) from one client coroutine per entry of
    ``connections`` — anything with async ``sign`` / ``verify``, a
    :class:`~repro.falcon.serving.SigningService` or a
    :class:`~repro.falcon.serving.NetClient`.  Returns the elapsed
    time, rate, failed requests and availability; with
    ``tolerate_failures`` (chaos runs) a failed request is counted
    instead of raised."""
    import asyncio
    import time

    loop = asyncio.get_running_loop()
    requests, clients = args.requests, len(connections)
    failed = 0

    def request_deadline():
        return loop.time() + args.deadline if args.deadline else None

    async def client(which: int, connection) -> None:
        nonlocal failed
        for i in range(which, requests, clients):
            tenant = f"tenant-{i % args.tenants}"
            message = b"serve-%d" % i
            try:
                signature = await connection.sign(
                    tenant, message, deadline=request_deadline())
                if args.verify_share and i % args.verify_share == 0:
                    if not await connection.verify(
                            tenant, message, signature,
                            deadline=request_deadline()):
                        raise RuntimeError(
                            f"verification failed for {tenant}")
            except Exception:
                if not tolerate_failures:
                    raise
                failed += 1

    started = time.perf_counter()
    await asyncio.gather(*[client(which, connection)
                           for which, connection in enumerate(connections)])
    elapsed = time.perf_counter() - started
    return {
        "elapsed": elapsed,
        "rate": requests / elapsed,
        "failed": failed,
        "availability": (requests - failed) / requests
        if requests else 1.0,
    }


async def _net_load(host: str, port: int, tokens,
                    args: argparse.Namespace,
                    tolerate_failures: bool) -> dict:
    """The client load over the wire protocol: one
    :class:`~repro.falcon.serving.NetClient` connection per client."""
    from .falcon.serving import NetClient

    connections = []
    try:
        for _ in range(args.clients):
            connections.append(await NetClient.connect(host, port,
                                                       tokens=tokens))
        return await _drive_clients(connections, args, tolerate_failures)
    finally:
        for connection in connections:
            await connection.close()


async def _serve_load(args: argparse.Namespace, store, pool, tokens,
                      chaos) -> dict:
    """Run the coalescing service and drive the demo load through it:
    in process, or with ``--listen`` through the wire-protocol server
    over real loopback sockets (with ``--requests 0``: serve until
    interrupted), then drain."""
    import asyncio

    from .falcon.serving import NetServer, SigningService

    tolerate = chaos is not None
    service = SigningService(
        store, n=args.n, max_batch=args.max_batch,
        max_wait=args.max_wait, queue_depth=args.queue_depth,
        worker_pool=pool)
    async with service:
        if not args.listen:
            outcome = await _drive_clients([service] * args.clients,
                                           args, tolerate)
            outcome["metrics"] = service.metrics.as_dict()
            return outcome
        host, port = args.listen
        server = NetServer(service, tokens=tokens,
                           rate_limit=args.rate_limit or None,
                           fault_plan=chaos)
        await server.start(host, port)
        address = f"{host}:{server.port}"
        print(f"listening on {address}")
        try:
            if args.requests:
                outcome = await _net_load(host, server.port, tokens,
                                          args, tolerate)
            else:
                try:
                    await asyncio.Event().wait()
                except (KeyboardInterrupt, asyncio.CancelledError):
                    pass
                outcome = {"elapsed": 0.0, "rate": 0.0, "failed": 0,
                           "availability": 1.0}
        finally:
            await server.stop(stop_service=False)
        outcome.update(metrics=service.metrics.as_dict(),
                       net=server.metrics.as_dict(), address=address)
        return outcome


def _parse_endpoint(text: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)`` (IPv4/hostname endpoints)."""
    host, _, port = text.rpartition(":")
    if not host or not port.isdigit() or int(port) > 65535:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT with a port in 0-65535, got {text!r}")
    return host, int(port)


def _parse_token(text: str) -> tuple[str, bytes]:
    """``TENANT=SECRET`` → ``(tenant, secret_bytes)``; an empty secret
    is refused, as it would let a client without a token in."""
    tenant, sep, secret = text.partition("=")
    if not sep or not tenant or not secret:
        raise argparse.ArgumentTypeError(
            f"expected TENANT=SECRET with a non-empty secret, "
            f"got {text!r}")
    return tenant, secret.encode()


def _chaos_plan(args: argparse.Namespace):
    """The seeded fault plan a ``serve --chaos`` run injects."""
    from .falcon.serving import FaultPlan

    return FaultPlan(
        seed=args.chaos_seed,
        kill_worker=args.chaos_kill_rate,
        drop_frame=args.chaos_drop_rate,
        fail_claim=args.chaos_claim_rate,
        fail_refill=args.chaos_refill_rate,
        max_per_site=args.chaos_max_per_site)


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .falcon.serving import ShardedKeyStore, ShardWorkerPool

    tokens = dict(args.token) if args.token else None
    chaos = _chaos_plan(args) if args.chaos else None
    if chaos is not None:
        print(f"chaos: seeded fault plan (seed {args.chaos_seed}, "
              f"kill {chaos.kill_worker}, drop {chaos.drop_frame}, "
              f"claim-fail {chaos.fail_claim}, "
              f"refill-fail {chaos.fail_refill})")

    if args.connect:
        # Pure client mode: drive a load against a remote server.
        host, port = args.connect
        print(f"client mode: {args.requests} requests to "
              f"{host}:{port} ({args.clients} connection(s), "
              f"{args.tenants} tenant(s)) ...")
        outcome = asyncio.run(_net_load(host, port, tokens, args,
                                        chaos is not None))
        print(format_table(
            ["metric", "value"],
            [["requests/s", f"{outcome['rate']:,.1f}"],
             ["availability", f"{outcome['availability']:.3%}"],
             ["failed requests", outcome["failed"]],
             ["elapsed", f"{outcome['elapsed']:.3f}s"]],
            title="network client load"))
        return 0

    store = ShardedKeyStore(
        args.keystore, shards=args.shards, master_seed=args.seed,
        prng=args.prng, low_watermark=args.watermark, fault_plan=chaos)
    if args.provision:
        print(f"provisioning {args.provision} Falcon-{args.n} keys "
              f"per shard ...")
        store.generate_ahead(args.n, args.provision)
    pool = None
    if args.process_workers:
        pool = ShardWorkerPool(store, fault_plan=chaos)
        pool.start()
        print(f"shard workers: {args.shards} dedicated process(es)")
    print(f"serving Falcon-{args.n}: {args.shards} shard(s), "
          f"{args.tenants} tenant(s), {args.clients} client(s), "
          f"{args.requests} requests ...")
    try:
        outcome = asyncio.run(_serve_load(args, store, pool, tokens,
                                          chaos))
    finally:
        if pool is not None:
            pool.stop()
        store.close()
    metrics = outcome["metrics"]
    totals = store.stats()["totals"]
    rows = [
        ["requests/s", f"{outcome['rate']:,.1f}"],
        ["requests", metrics["requests"]],
        ["availability", f"{outcome['availability']:.3%}"],
        ["failed requests", outcome["failed"]],
        ["signed / verified",
         f"{metrics['signed']} / {metrics['verified']}"],
        ["coalesced rounds", metrics["rounds"]],
        ["avg / max round", f"{metrics['coalesced_avg']} / "
                            f"{metrics['coalesced_max']}"],
        ["queue high water", metrics["queue_high_water"]],
        ["shard worker processes",
         args.shards if args.process_workers else 0],
        ["keys generated", totals["generated"]],
        ["keys checked out", totals["served"]],
        ["watermark refills", totals["refills"]],
        ["pool depth", totals["available"].get(args.n, 0)],
        ["tenants checked out", totals["tenants_checked_out"]],
        ["persisted to", args.keystore or "(memory only)"],
    ]
    if "net" in outcome:
        net = outcome["net"]
        rows[8:8] = [
            ["listen address", outcome["address"]],
            ["net frames / served",
             f"{net['frames']} / {net['served']}"],
            ["net rejected", str(net["rejected"] or {})],
        ]
    print(format_table(["metric", "value"], rows,
                       title="coalescing signing service"))
    return 0


def _ledger_signers(n: int, keys: int, seed: int) -> list:
    from .falcon.scheme import SecretKey

    return [SecretKey.generate(n, seed=seed + index)
            for index in range(keys)]


def _cmd_ledger(args: argparse.Namespace) -> int:
    import time

    from .falcon.ledger import Ledger, LedgerError

    try:
        ledger = Ledger(args.dir, capacity=args.capacity,
                        max_block_records=args.block_size)
    except LedgerError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    if args.action == "append":
        print(f"generating {args.keys} Falcon-{args.n} signing keys "
              f"(seed {args.seed}) ...")
        signers = _ledger_signers(args.n, args.keys, args.seed)
        committed = rejected = 0
        begun = time.perf_counter()

        def commit_now() -> None:
            nonlocal committed, rejected
            result = ledger.commit(
                timestamp_us=int(time.time() * 1e6))
            committed += len(result.accepted)
            rejected += len(result.rejected)

        for i in range(args.records):
            signer = signers[i % len(signers)]
            message = b"ledger|%d|%d" % (args.seed, i)
            ledger.submit_signed(signer.public_key, message,
                                 signer.sign(message))
            # Commit before a mempool smaller than a block fills up.
            if len(ledger.mempool) >= min(args.block_size, args.capacity):
                commit_now()
        while len(ledger.mempool):
            commit_now()
        elapsed = time.perf_counter() - begun
        stats = ledger.stats()
        print(format_table(
            ["metric", "value"],
            [["records submitted", args.records],
             ["records committed", committed],
             ["records rejected", rejected],
             ["records/s (sign+commit)",
              f"{args.records / elapsed:,.1f}"],
             ["chain height", stats["height"]],
             ["chain tip", stats["tip_hash"][:16] + "…"],
             ["ledger file", stats["path"]]],
            title=f"ledger append (mixed keys, n={args.n})"))
        return 0

    if args.action == "verify":
        begun = time.perf_counter()
        audit = ledger.verify_chain()
        elapsed = time.perf_counter() - begun
        rate = audit.records / elapsed if elapsed and audit.records \
            else 0.0
        print(format_table(
            ["metric", "value"],
            [["blocks", audit.blocks],
             ["records", audit.records],
             ["records/s", f"{rate:,.1f}"],
             ["failures", len(audit.failures)],
             ["verdict", "OK" if audit.ok else "FAIL"]],
            title="ledger chain audit"))
        for block_index, record_id, reason in audit.failures[:20]:
            where = record_id[:16] + "…" if record_id else "(header)"
            print(f"  block {block_index} {where}: {reason}")
        return 0 if audit.ok else 1

    stats = ledger.stats()
    print(format_table(
        ["metric", "value"],
        [[key, str(value)] for key, value in stats.items()],
        title="ledger stats"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Constant-time discrete Gaussian sampler generator "
                    "(DAC 2019 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    compile_p = sub.add_parser("compile", help="run the Fig. 4 pipeline")
    compile_p.add_argument("--sigma", type=_positive_float, default=2.0)
    compile_p.add_argument("--precision", type=_precision, default=64)
    compile_p.add_argument("--tail-cut", type=_positive_int, default=13)
    compile_p.add_argument("--method", default="efficient",
                           choices=["efficient", "simple"])
    compile_p.add_argument("--combiner", default="onehot",
                           choices=["onehot", "nested",
                                    "nested-implicit"])
    compile_p.add_argument("--emit", default="none",
                           choices=["none", "c", "python"])
    compile_p.set_defaults(func=_cmd_compile)

    sample_p = sub.add_parser("sample", help="draw samples")
    sample_p.add_argument("--sigma", type=_positive_float, default=2.0)
    sample_p.add_argument("--precision", type=_precision, default=32)
    sample_p.add_argument("--count", type=_positive_int, default=16)
    sample_p.add_argument("--seed", type=int, default=0)
    sample_p.add_argument(
        "--batch-width", type=_positive_int, default=DEFAULT_BATCH_WIDTH,
        help="lanes per kernel batch (part of the sample stream: a "
             "seed reproduces its samples only at the same width)")
    _add_prng_option(sample_p)
    sample_p.set_defaults(func=_cmd_sample)

    audit_p = sub.add_parser("audit", help="dudect leakage audit")
    audit_p.add_argument("--backend", default="bitsliced",
                         choices=available_backends())
    audit_p.add_argument("--sigma", type=_positive_float, default=2.0)
    audit_p.add_argument("--precision", type=_precision, default=64)
    audit_p.add_argument("--calls", type=int, default=4000)
    audit_p.add_argument("--seed", type=int, default=0)
    _add_prng_option(audit_p)
    audit_p.set_defaults(func=_cmd_audit)

    leakage_p = sub.add_parser(
        "ct-leakage",
        help="ML leakage-regression audit (logistic probe vs "
             "permutation null) over sampler, ffSampling and serving "
             "traces")
    leakage_p.add_argument("--profile", default="quick",
                           choices=["quick", "full"])
    leakage_p.add_argument("--seed", type=int, default=2026)
    leakage_p.add_argument(
        "--target", action="append",
        choices=["batched-sampler", "samplerz", "ffsampling",
                 "serving-rounds", "serving-frames"],
        help="restrict to specific targets (repeatable); the positive "
             "control always runs")
    leakage_p.add_argument("--margin", type=float, default=0.03,
                           help="accuracy margin over the permutation-"
                                "null maximum before flagging")
    leakage_p.add_argument("--json", metavar="PATH",
                           help="also write the full report as JSON")
    leakage_p.set_defaults(func=_cmd_ct_leakage)

    ctlint_p = sub.add_parser(
        "ct-lint",
        help="static constant-time taint lint + serving-plane "
             "concurrency lint (AST pass, CI-gated like a KAT)")
    ctlint_p.add_argument(
        "paths", nargs="*",
        help="files or directories to lint (default: the installed "
             "repro package)")
    ctlint_p.add_argument(
        "--baseline", metavar="PATH",
        default="benchmarks/reports/CTLINT_baseline.json",
        help="committed findings baseline; comparison is skipped when "
             "the file does not exist")
    ctlint_p.add_argument(
        "--write-baseline", action="store_true",
        help="refresh the baseline from the current open findings "
             "instead of gating")
    ctlint_p.add_argument(
        "--pack", action="append", choices=["ct", "async"],
        help="restrict to one rule pack (repeatable; default: both)")
    ctlint_p.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit")
    ctlint_p.add_argument("--json", metavar="PATH",
                          help="also write the full report as JSON")
    ctlint_p.set_defaults(func=_cmd_ct_lint)

    falcon_p = sub.add_parser("falcon", help="sign/verify round trip")
    falcon_p.add_argument("--n", type=_degree, default=64)
    falcon_p.add_argument("--seed", type=int, default=0)
    falcon_p.add_argument("--backend", default="bitsliced",
                          choices=["bitsliced", "cdt-byte-scan",
                                   "cdt-binary", "cdt-linear",
                                   "cdt-bisection"])
    falcon_p.add_argument("--message", default="repro")
    _add_prng_option(falcon_p)
    falcon_p.set_defaults(func=_cmd_falcon)

    keygen_p = sub.add_parser(
        "keygen",
        help="fill a generate-ahead key store (optionally persisted "
             "and parallel)")
    keygen_p.add_argument("--n", type=_degree, default=64)
    keygen_p.add_argument("--count", type=_positive_int, default=4,
                          help="keys to generate ahead")
    keygen_p.add_argument("--seed", type=int, default=0,
                          help="key-store master seed (per-key seeds "
                               "derive from it deterministically)")
    keygen_p.add_argument("--keystore", default=None,
                          help="directory to persist keys to "
                               "(default: memory only)")
    keygen_p.add_argument("--workers", type=_positive_int, default=1,
                          help="process-pool fan-out for generation")
    _add_prng_option(keygen_p)
    keygen_p.set_defaults(func=_cmd_keygen)

    ledger_p = sub.add_parser(
        "ledger",
        help="append-only signed-record ledger: append / verify / "
             "stats over cross-key batch-verified blocks")
    ledger_p.add_argument("action",
                          choices=["append", "verify", "stats"])
    ledger_p.add_argument("--dir", required=True,
                          help="ledger directory (blocks persist to "
                               "ledger.jsonl inside)")
    ledger_p.add_argument("--n", type=_degree, default=64)
    ledger_p.add_argument("--keys", type=_positive_int, default=8,
                          help="distinct signing keys for append")
    ledger_p.add_argument("--records", type=_positive_int, default=64,
                          help="records to sign and submit on append")
    ledger_p.add_argument("--seed", type=int, default=0)
    ledger_p.add_argument("--block-size", type=_positive_int, default=64,
                          dest="block_size",
                          help="max records per committed block")
    ledger_p.add_argument("--capacity", type=_positive_int, default=4096,
                          help="mempool bound")
    ledger_p.set_defaults(func=_cmd_ledger)

    run_p = sub.add_parser(
        "serve",
        help="run the asyncio coalescing signing service over a "
             "sharded key store and drive a client load through it")
    run_p.add_argument("--n", type=_degree, default=64)
    run_p.add_argument("--seed", type=int, default=0,
                       help="deployment master seed (shard and slot "
                            "seeds derive from it)")
    run_p.add_argument("--shards", type=_positive_int, default=2)
    run_p.add_argument("--tenants", type=_positive_int, default=4)
    run_p.add_argument("--clients", type=_positive_int, default=8,
                       help="concurrent client coroutines")
    run_p.add_argument("--requests", type=_non_negative_int, default=64,
                       help="total sign requests to serve (0 with "
                            "--listen: serve until interrupted)")
    run_p.add_argument("--max-batch", type=_positive_int, default=32,
                       help="coalescing round size cap")
    run_p.add_argument("--max-wait", type=_non_negative_float,
                       default=0.002,
                       help="coalescing batch window in seconds")
    run_p.add_argument("--queue-depth", type=_positive_int, default=64,
                       help="bounded per-shard queue (back-pressure)")
    run_p.add_argument("--watermark", type=_non_negative_int, default=0,
                       help="per-shard low watermark for background "
                            "refill (0 disables)")
    run_p.add_argument("--provision", type=_non_negative_int, default=0,
                       help="keys to generate ahead per shard before "
                            "serving")
    run_p.add_argument("--verify-share", type=_non_negative_int,
                       default=4,
                       help="verify every k-th signature through the "
                            "service (0 disables)")
    run_p.add_argument("--keystore", default=None,
                       help="directory for persisted shard pools "
                            "(default: memory only)")
    run_p.add_argument("--listen", type=_parse_endpoint, default=None,
                       metavar="HOST:PORT",
                       help="expose the service over the wire protocol "
                            "and drive the client load through real "
                            "sockets (port 0 picks a free port)")
    run_p.add_argument("--connect", type=_parse_endpoint, default=None,
                       metavar="HOST:PORT",
                       help="client mode: drive the load against an "
                            "already-running server instead of "
                            "starting one")
    run_p.add_argument("--process-workers", action="store_true",
                       help="run each shard's rounds in a dedicated "
                            "worker process (warm spines, true "
                            "multi-core parallelism)")
    run_p.add_argument("--token", type=_parse_token, action="append",
                       metavar="TENANT=SECRET",
                       help="per-tenant auth token for the wire "
                            "protocol (repeatable; default: open "
                            "server, empty tokens accepted)")
    run_p.add_argument("--rate-limit", type=_non_negative_float,
                       default=0.0,
                       help="per-tenant token-bucket rate limit in "
                            "frames/s (0 disables)")
    run_p.add_argument("--deadline", type=_non_negative_float,
                       default=0.0,
                       help="per-request deadline in seconds "
                            "(0 disables; expired requests fail with "
                            "DeadlineExceeded)")
    run_p.add_argument("--chaos", action="store_true",
                       help="inject a seeded fault plan (worker "
                            "kills, dropped frames, failed claims "
                            "and refills) and report availability "
                            "under it")
    run_p.add_argument("--chaos-seed", type=int, default=7,
                       help="fault-plan seed (same seed, same "
                            "faults)")
    run_p.add_argument("--chaos-kill-rate", type=_probability,
                       default=0.02,
                       help="per-round worker SIGKILL probability")
    run_p.add_argument("--chaos-drop-rate", type=_probability,
                       default=0.05,
                       help="per-frame drop probability at the wire")
    run_p.add_argument("--chaos-claim-rate", type=_probability,
                       default=0.02,
                       help="per-claim keystore failure probability")
    run_p.add_argument("--chaos-refill-rate", type=_probability,
                       default=0.25,
                       help="per-refill background failure "
                            "probability")
    run_p.add_argument("--chaos-max-per-site", type=_non_negative_int,
                       default=0,
                       help="cap faults per site (0 = unlimited)")
    _add_prng_option(run_p)
    run_p.set_defaults(func=_cmd_serve)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
