"""The repository benchmark: Falcon-512 over the networked signing plane.

Run from the repository root::

    python3 perfbench/run.py --workload sign-hot --seed 1 --seconds 30 --trace 0

Workloads (``workload.WORKLOADS``): ``sign-hot`` (2 tenants) and
``verify-ledger`` (verify requests over a pre-signed 64-key record
pool, 1 record in 16 tampered) are the ones ``BENCHMARK.json`` lists.
``sign-fanout`` (64 tenants, 1-2 lanes per round) runs the same way but
is left out of that list: at 8-18 signatures per second on a 2-core
host its slices hold too few samples for steady latency figures within
the benchmark's time budget.  The pool is input generation: it is
signed once per seed in a child process and cached in ``.perfbench/``.
A run sets up the plane, then measures:

* **A, wire** (all of ``--seconds`` on the sign workloads, 65% on
  ``verify-ledger``): a closed loop keeps 32 requests in flight over 2
  loopback ``NetClient`` connections — sign requests, or verify
  requests walking the pool.  The window is cut into five equal
  slices; the first is warm-up, and ``req_rps``, ``req_p50_ms`` and
  ``req_tail_ms`` are medians over the other four of the slice's
  throughput, median latency and tail (the highest percentile with at
  least 10 of the slice's samples beyond it; the report names the
  percentile).  The metrics are named ``req_*`` because every listed
  workload must report every metric: the request is a sign on
  ``sign-hot`` and a verify on ``verify-ledger``.
* **B, ledger** (``verify-ledger`` only; 35%, half before and half
  after phase A): the pool is submitted to fresh on-disk ``Ledger``s
  and committed in fsync'd blocks of 64.  Records committed per second
  and the per-block commit median are reported as the per-layer
  ``ledger.records_per_s`` / ``ledger.commit_p50_ms`` and in the
  report, not gated: this pure-Python path swings by 1.5x with the
  host's load for minutes at a time.

``setup_s`` is the median of two cold set-ups that run side by side,
one in a child process and one in the serving process (see
``start_probe``); ``peak_rss_mb`` is the serving process's peak
resident memory.  Outputs are checked after the measurement (see
``check.py``); every mismatch or exception is a failed operation.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures
once untraced, then once with spans on every layer boundary, and
prints the per-layer metrics (``<span>.self_ms`` / ``<span>.calls``
per operation, ratios, ``trace.overhead.<metric>`` as traced over
untraced, ``trace.unattributed_ms``); the spans are written to
``.perfbench/trace-<workload>-s<seed>.jsonl``.  Each run writes a
report with the live serving configuration and the details behind the
figures to ``.perfbench/report-<workload>-s<seed>-t<trace>.json``.

The last line of standard output is the result object.  The benchmark
refuses to run (exit 3, no result) without NumPy: the scalar spine is
a different program.  It exits 2 when the repository sources are
missing.
"""

from __future__ import annotations

import argparse
import asyncio
import importlib.util
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 1
WIRE_SHARE = 0.65
#: Timed slices of phase A (after one warm-up slice of the same width).
SLICES = 4
PROBE_TIMEOUT = 120

from workload import (DEGREE, WORKLOADS, load_pool,  # noqa: E402
                      request, verify_order, write_pool)

END_TO_END = ("setup_s", "req_rps", "req_p50_ms", "req_tail_ms",
              "peak_rss_mb")
UNITS = {"setup_s": "s", "req_rps": "1/s", "req_p50_ms": "ms",
         "req_tail_ms": "ms", "peak_rss_mb": "MB"}


def wire_stats(latencies: list, finished: list, window: float) -> dict:
    """Phase-A statistics, robust to a slow stretch of the host.

    The window is cut into ``1 + SLICES`` equal time slices.  The first
    is the closed loop's warm-up (all requests start at once) and is
    dropped; each other slice yields its throughput, its median latency
    and its tail (the highest percentile with at least 10 of the
    slice's samples beyond it), and each figure reported is the median
    over the slices.
    """
    width = window / (1 + SLICES)
    slices: list[list] = [[] for _ in range(SLICES)]
    for latency, done in zip(latencies, finished):
        index = int(done // width) - 1
        if 0 <= index < SLICES:
            slices[index].append(latency)
    tails = [tail(values) for values in slices]
    return {
        "req_rps": statistics.median(len(v) / width for v in slices),
        "req_p50_ms": 1e3 * statistics.median(
            statistics.median(v) for v in slices),
        "req_tail_ms": 1e3 * statistics.median(t for t, _p in tails),
        "tail_percentile": statistics.median(p for _t, p in tails),
        "slice_samples": [len(v) for v in slices],
    }


def tail(values: list) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with at least 10
    samples beyond it."""
    ordered = sorted(values)
    count = len(ordered)
    if count < 11:
        raise RuntimeError(f"only {count} timed samples; need 11 for "
                           f"a tail")
    return ordered[count - 11], 100.0 * (count - 10) / count


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- inputs ------------------------------------------------------------------

def wire_requests(workload, seed: int, records: list):
    """``requests(i)`` for phase A (see ``plane.wire_phase``): fresh
    sign requests, or verify requests walking the record pool."""
    if workload.kind == "sign":
        def sign_request(index: int):
            tenant, message = request(workload, seed, index)
            return tenant, message, None, None
        return sign_request
    order = verify_order(seed, len(records), 1 << 16)

    def verify_request(index: int):
        tenant, message, signature, valid, _pk = \
            records[order[index % len(order)]]
        return tenant, message, signature, valid
    return verify_request


def decode_pool(raw: dict) -> list:
    """Pool records as ``(tenant, message, Signature, valid,
    PublicKey)`` tuples."""
    from repro.falcon.scheme import Signature
    from repro.falcon.serialize import decode_public_key

    keys = {tenant: decode_public_key(bytes.fromhex(blob))
            for tenant, blob in raw["public_keys"].items()}
    return [(entry["tenant"], bytes.fromhex(entry["message"]),
             Signature(salt=bytes.fromhex(entry["salt"]),
                       compressed=bytes.fromhex(entry["compressed"])),
             entry["valid"], keys[entry["tenant"]])
            for entry in raw["records"]]


# -- one measurement ---------------------------------------------------------

async def measure(plane, workload, seed: int, seconds: float, records,
                  tracer=None, label: str = "untraced") -> dict:
    """Phase A; on ``verify-ledger`` phase B is split around it, so its
    blocks sample the host over the whole run, not one stretch."""
    from check import check_ledgers, check_wire
    from plane import ledger_phase, wire_phase

    def phase(name: str) -> None:
        if tracer is not None:
            tracer.phase = name

    share = WIRE_SHARE if workload.kind == "verify" else 1.0
    segments = ("before", "wire", "after") if share < 1 else ("wire",)
    ledger_records = [(pk, message, signature, valid)
                      for _t, message, signature, valid, pk in records]
    ledgers, windows = [], {"A": [], "B": []}
    for segment in segments:
        start = time.perf_counter()
        if segment == "wire":
            phase("A")
            wire = await wire_phase(
                plane, wire_requests(workload, seed, records),
                share * seconds, tracer)
        else:
            phase("B")
            ledgers.append(ledger_phase(
                ledger_records, (1 - share) * seconds / 2,
                OUT / "ledgers" / f"{label}-{segment}", tracer))
        windows["A" if segment == "wire" else "B"].append(
            (start, time.perf_counter()))
    phase("done")
    rss = peak_rss_mb()
    failures = check_wire(workload.kind, wire.outcomes, plane.public_key)
    for ledger in ledgers:
        failures += check_ledgers(ledger.ledgers)
    stats = wire_stats(wire.latencies, wire.finished, wire.window_s)
    metrics = {"req_rps": stats.pop("req_rps"),
               "req_p50_ms": stats.pop("req_p50_ms"),
               "req_tail_ms": stats.pop("req_tail_ms"),
               "peak_rss_mb": rss}
    details = {"requests_sent": len(wire.outcomes),
               "requests_timed": wire.completed, **stats,
               "wire_window_s": wire.window_s,
               "wire_drained_s": wire.drained_s}
    submitted = sum(ledger.submitted for ledger in ledgers)
    if ledgers:
        blocks = [latency for ledger in ledgers
                  for latency in ledger.commit_latencies]
        details.update({
            "ledger_records_per_s": statistics.median(
                rate for ledger in ledgers for rate in ledger.block_rates),
            "ledger_commit_p50_ms": 1e3 * statistics.median(blocks),
            "commit_ms": [round(1e3 * v, 1) for v in blocks],
            "records_submitted": submitted,
            "records_committed": sum(ledger.committed
                                     for ledger in ledgers),
            "ledger_rejects": sum(ledger.rejects for ledger in ledgers)})
    details.update(failures=failures[:20], failed=len(failures))
    return {"metrics": metrics, "details": details,
            "attempted": len(wire.outcomes) + submitted,
            "failed": len(failures), "wire": wire, "windows": windows,
            "ops": {"A": len(wire.outcomes), "B": submitted}}


def live_config(plane) -> dict:
    """What the serving signers actually run, read from live objects."""
    import numpy

    configs = set()
    for signer in plane.signers():
        base = signer.base_sampler
        inner = getattr(base, "inner", None)
        configs.add((
            signer.base_backend,
            type(base).__name__,
            inner.engine.name if inner is not None else None,
            inner.prefetch_batches if inner is not None else None,
            inner.batch_width if inner is not None else None,
            signer._resolve_spine(plane.service.spine),
            type(signer.source).__name__,
        ))
    keys = ("base_backend", "base_sampler", "word_engine",
            "prefetch_batches", "batch_width", "spine", "prng_source")
    signers = [dict(zip(keys, config)) for config in sorted(
        configs, key=repr)]
    service = plane.service
    return {
        "n": DEGREE,
        "signers": signers,
        "service": {"shards": plane.store.shards,
                    "max_batch": service.max_batch,
                    "max_wait": service.max_wait,
                    "offload": service.offload,
                    "spine": service.spine,
                    "coalesce_verify": service.coalesce_verify},
        "numpy": numpy.__version__,
        "python": sys.version.split()[0],
    }


def start_probe(workload_name: str, seed: int) -> subprocess.Popen:
    """A second cold set-up in a child process.  It runs beside the
    serving process's own set-up (two cold set-ups of the 64-key
    workloads one after the other would not fit the time budget), so
    each of the two is measured with the other one running."""
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--setup-probe",
         "--workload", workload_name, "--seed", str(seed)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)


def probe_result(process: subprocess.Popen) -> float:
    try:
        stdout, stderr = process.communicate(timeout=PROBE_TIMEOUT)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if process.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])["setup_s"]


async def probe(workload_name: str, seed: int) -> float:
    from plane import build_plane

    plane = await build_plane(WORKLOADS[workload_name], seed)
    await plane.close()
    return plane.setup_s


async def run(args) -> dict:
    from plane import build_plane
    from spans import Tracer

    workload = WORKLOADS[args.workload]
    seed = args.seed
    pool_raw = load_pool(ROOT, seed) if workload.kind == "verify" \
        else None
    tracer = Tracer() if args.trace else None
    probe_process = start_probe(workload.name, seed)
    try:
        plane = await build_plane(workload, seed, tracer)
    except BaseException:
        probe_process.kill()
        probe_process.wait()
        raise
    try:
        probe_s = probe_result(probe_process)
        if tracer is not None:
            tracer.uninstall()
        setups = [probe_s, plane.setup_s]
        config = live_config(plane)
        print(json.dumps({"config": config, "workload": workload.name,
                          "seed": seed}), flush=True)
        records = decode_pool(pool_raw) if pool_raw else []
        untraced = await measure(plane, workload, seed, args.seconds,
                                 records)
        metrics = dict(untraced["metrics"],
                       setup_s=statistics.median(setups))
        report = {"workload": workload.name, "seed": seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "config": config, "setup_samples_s": setups,
                  "untraced": {"metrics": metrics,
                               "details": untraced["details"]}}
        attempted, failed = untraced["attempted"], untraced["failed"]
        result = {name: (metrics[name], UNITS[name])
                  for name in END_TO_END}
        if tracer is not None:
            traced = await traced_measurement(
                plane, workload, seed, args.seconds, records, tracer)
            attempted += traced["attempted"]
            failed += traced["failed"]
            traced["metrics"]["setup_s"] = plane.setup_s
            baseline = dict(metrics, setup_s=probe_s)
            result = traced.pop("layers")
            ledger = untraced["details"]
            result["ledger.records_per_s"] = (
                ledger.get("ledger_records_per_s", 0.0), "1/s")
            result["ledger.commit_p50_ms"] = (
                ledger.get("ledger_commit_p50_ms", 0.0), "ms")
            for name in END_TO_END:
                result[f"trace.overhead.{name}"] = (
                    traced["metrics"][name] / baseline[name], "ratio")
            report["traced"] = {key: traced[key] for key in
                                ("metrics", "details", "counters",
                                 "sampler_spans")}
            report["layers"] = {name: value
                                for name, (value, _u) in result.items()}
            tracer.dump(OUT / f"trace-{workload.name}-s{seed}.jsonl")
    finally:
        await plane.close()
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"report-{workload.name}-s{seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str))
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in result.items()}}


async def traced_measurement(plane, workload, seed: int, seconds: float,
                             records, tracer) -> dict:
    """The same measurement with spans on; adds the per-layer figures
    (``layers``), the live-object counters and the sampler span count."""
    from spans import SAMPLER_SPANS, layer_metrics

    signers = plane.signers()
    before = _counters(signers)
    tracer.install(plane.store, plane.service)
    try:
        traced = await measure(plane, workload, seed, seconds, records,
                               tracer, "traced")
    finally:
        tracer.uninstall()
    after = _counters(signers)
    counters = {key: after[key] - before[key] for key in after}
    wire = traced["wire"]
    counters["signatures"] = sum(
        1 for outcome in wire.outcomes
        if not isinstance(outcome[5], BaseException)) \
        if workload.kind == "sign" else 0
    counters["ledger_rejects"] = traced["details"].get("ledger_rejects",
                                                       0)
    phases = {name: {"ops": traced["ops"][name],
                     "windows": traced["windows"][name]}
              for name in ("A", "B")}
    traced["layers"] = layer_metrics(tracer, phases, counters)
    traced["counters"] = counters
    traced["sampler_spans"] = sum(
        1 for span in tracer.spans
        if span.phase in phases and span.name in SAMPLER_SPANS)
    return traced


def _counters(signers) -> dict:
    totals = {"attempts": 0, "accepted": 0, "base_draws": 0,
              "discarded": 0}
    for signer in signers:
        totals["attempts"] += signer.signing_attempts
        totals["accepted"] += signer.sampler_z.accepted
        totals["base_draws"] += signer.sampler_z.base_draws
        inner = getattr(signer.base_sampler, "inner", None)
        if inner is not None:
            totals["discarded"] += inner.samples_discarded
    return totals


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="sign-hot")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--build-pool", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "falcon").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if importlib.util.find_spec("numpy") is None:
        print("perfbench: NumPy is not installed; refusing to measure "
              "the scalar spine as if it were the deployed program",
              file=sys.stderr)
        return 3
    sys.path.insert(0, str(ROOT / "src"))
    if args.build_pool:
        write_pool(ROOT, args.seed)
        return 0
    if args.setup_probe:
        print(json.dumps({"setup_s": asyncio.run(
            probe(args.workload, args.seed))}))
        return 0
    started = time.perf_counter()
    result = asyncio.run(run(args))
    print(f"# wall {time.perf_counter() - started:.1f}s", file=sys.stderr)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
