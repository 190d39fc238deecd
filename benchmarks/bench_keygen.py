"""Key-generation throughput: scalar vs vectorized keygen pipeline.

The paper's Table 1 workload assumes keys exist; this benchmark puts a
number on producing them.  Three measured rows per ring degree:

* **seed pipeline** — the keygen loop as PR 3 left it: one lazy
  byte-at-a-time CDT draw per coefficient, candidates filtered one at
  a time on the scalar kernels.  Rebuilt here from the still-present
  building blocks (``CdtBinarySearchSampler``, scalar Gram–Schmidt)
  so the speedup denominator stays measurable; it shares today's
  NTRUSolve, so the recorded speedups *understate* the true gain over
  the seed commit.  Its keys are valid but follow the old stream
  contract (sequence of draws), not the block contract;
* **scalar spine** — the pure-Python route (what a host without NumPy
  runs; timed here inside the private ``_scalar_spine`` switch): bulk
  ``bisect`` CDT blocks, candidate-block filters, exact deep-tower
  Babai;
* **numpy spine** — the vectorized pipeline the platform runs when
  NumPy imports: bulk CDT block draws, batched NTT invertibility,
  batched FFT Gram–Schmidt, array-kernel Babai quotients;

plus a **pooled** row (``KeyStore`` generate-ahead over a process
pool) — the serving-layer configuration, which is how a deployment
actually provisions keys (its value shows on multi-core hosts; a
single-core container serializes the workers).  The scalar and numpy
spines generate byte-identical keys for the same seeds (the spine
contract, pinned by the KAT suite); only the clock differs.

A **key-load** row per degree times what every shed load, pool-worker
load and restart pays: the median ms of ``decode_secret_key`` alone,
and of a decode plus the loaded key's first signature (which builds
its ffLDL* tree), on each spine.

Results go to the text report and to
``benchmarks/reports/BENCH_keygen.json``.  Runs standalone
(``PYTHONPATH=src python benchmarks/bench_keygen.py --quick``) or
under pytest like the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import nullcontext
from statistics import median

import pytest

from repro.analysis import format_table
from repro.falcon import (
    HAVE_NUMPY,
    NtruKeys,
    NtruSolveError,
    Q,
    SecretKey,
    decode_secret_key,
    div_ntt,
    encode_secret_key,
    generate_keys,
    gram_schmidt_norm_sq,
    is_invertible,
    ntru_solve,
    _scalar_spine,
)
from repro.falcon.keystore import KeyStore
from repro.falcon.ntrugen import _keygen_table
from repro.falcon.params import falcon_params
from repro.rng import ChaChaSource

from _report import REPORT_DIR, once, report

JSON_NAME = "BENCH_keygen.json"

#: Ring degrees swept by default (512 is the acceptance gate; 64 keeps
#: a fast row for eyeballing regressions).  Level 3 (n=1024, the PR-5
#: Babai re-tune target) joins via ``--level3``; its seed-pipeline row
#: is skipped — the per-coefficient lazy-draw loop needs tens of
#: seconds *per key* there, and the n<=512 rows already anchor the
#: speedup denominator.
DEGREES = (64, 256, 512)
LEVEL3_DEGREE = 1024

#: Degrees whose seed-pipeline row is skipped (too slow to measure in
#: a routine run).
SKIP_SEED_PIPELINE_FROM = 1024

#: Process-pool width for the pooled serving row.
POOL_WORKERS = 4

#: Timed loads per spine in the key-load row (it reports the median).
LOAD_RUNS = 9


def _spine(name: str):
    """Run ``name``'s spine: the scalar one inside the switch, the
    NumPy one as the platform does."""
    return _scalar_spine() if name == "scalar" else nullcontext()


def _row_rate(n: int, keys: int, seed_base: int, spine: str) -> float:
    sources = [ChaChaSource(seed_base + i) for i in range(keys)]
    with _spine(spine):
        started = time.perf_counter()
        for source in sources:
            generate_keys(n, source=source)
        return keys / (time.perf_counter() - started)


def _seed_pipeline_generate(n: int, source) -> NtruKeys:
    """The PR-3 keygen loop, reconstructed: per-coefficient lazy CDT
    draws, one candidate at a time through the scalar filters."""
    from repro.baselines.cdt import CdtBinarySearchSampler

    params = falcon_params(n)
    table = _keygen_table(round(params.keygen_sigma, 6))
    bound = (1.17 ** 2) * Q

    def sample_poly():
        sampler = CdtBinarySearchSampler(table.params, source=source,
                                         table=table)
        return [sampler.sample() for _ in range(params.n)]

    for _ in range(1024):
        f = sample_poly()
        g = sample_poly()
        if sum(f) % 2 == 0 and sum(g) % 2 == 0:
            continue
        if not is_invertible(f):
            continue
        if gram_schmidt_norm_sq(f, g) > bound:
            continue
        try:
            F, G = ntru_solve(list(f), list(g))
        except NtruSolveError:
            continue
        return NtruKeys(f=f, g=g, F=F, G=G, h=div_ntt(g, f))
    raise RuntimeError("seed pipeline failed")


def _seed_pipeline_rate(n: int, keys: int, seed_base: int) -> float:
    with _scalar_spine():
        started = time.perf_counter()
        for i in range(keys):
            _seed_pipeline_generate(n, ChaChaSource(seed_base + i))
        return keys / (time.perf_counter() - started)


def _pooled_rate(n: int, keys: int, workers: int) -> float:
    """Saturated generate-ahead throughput: ``workers * keys`` keys in
    one pool pass, so the one-time fork cost amortizes the way it does
    in a real provisioning run."""
    store = KeyStore(master_seed=1, workers=workers)
    try:
        total = keys * workers
        started = time.perf_counter()
        store.generate_ahead(n, total)
        return total / (time.perf_counter() - started)
    finally:
        # The store owns a persistent worker pool now; shut it down
        # deterministically so the next level's pool never races a
        # garbage-collected one for its pipes.
        store.close()


def _key_load_ms(n: int, seed: int, spine: str) -> dict:
    """Median ms of ``decode_secret_key`` alone and of a decode plus
    the loaded key's first signature, on ``spine`` (after one untimed
    load that warms the per-degree tables)."""
    encoded = encode_secret_key(SecretKey.generate(n=n, seed=seed))
    decode, first_sign = [], []
    with _spine(spine):
        decode_secret_key(encoded).sign(b"warm-up")
        for run in range(LOAD_RUNS):
            started = time.perf_counter()
            key = decode_secret_key(encoded)
            decoded = time.perf_counter()
            key.sign(b"key-load-%d" % run)
            signed = time.perf_counter()
            decode.append(decoded - started)
            first_sign.append(signed - started)
    return {"decode": round(1000 * median(decode), 2),
            "decode_first_sign": round(1000 * median(first_sign), 2)}


def run_sweep(degrees=DEGREES, keys: int = 8, seed_base: int = 1,
              quick: bool = False, workers: int = POOL_WORKERS) -> dict:
    if quick:
        degrees = (64,)
        keys = min(keys, 4)
        workers = min(workers, 2)
    levels = {}
    for n in degrees:
        seed_keys = max(2, keys // 4) if n >= 256 else keys
        scalar_keys = max(2, keys // 4) if n >= 1024 else keys
        # Untimed warmup: one key per available spine, so whichever
        # row runs first is not charged the one-time costs (CDT table
        # construction, kernel caches) the others inherit for free.
        with _scalar_spine():
            generate_keys(n, source=ChaChaSource(seed_base - 1))
        if HAVE_NUMPY:
            generate_keys(n, source=ChaChaSource(seed_base - 1))
        rows = {"scalar": _row_rate(n, scalar_keys, seed_base,
                                    "scalar")}
        if n < SKIP_SEED_PIPELINE_FROM:
            rows["seed_pipeline"] = _seed_pipeline_rate(n, seed_keys,
                                                        seed_base)
        if HAVE_NUMPY:
            rows["numpy"] = _row_rate(n, keys, seed_base, "numpy")
        pooled_spine = "numpy" if HAVE_NUMPY else "scalar"
        rows[f"pooled_{pooled_spine}_x{workers}"] = \
            _pooled_rate(n, keys, workers)
        vectorized = rows.get("numpy")
        seed_rate = rows.get("seed_pipeline")
        best_parallel = rows[f"pooled_{pooled_spine}_x{workers}"]
        levels[n] = {
            "keys_per_sec": {name: round(rate, 2)
                             for name, rate in rows.items()},
            "key_load_ms": {spine: _key_load_ms(n, seed_base, spine)
                            for spine in ["scalar"]
                            + (["numpy"] if HAVE_NUMPY else [])},
            "vectorized_speedup_vs_scalar":
                round(vectorized / rows["scalar"], 2)
                if vectorized else None,
            "vectorized_speedup_vs_seed_pipeline":
                round(vectorized / seed_rate, 2)
                if vectorized and seed_rate else None,
            "scalar_speedup_vs_seed_pipeline":
                round(rows["scalar"] / seed_rate, 2)
                if seed_rate else None,
            "pooled_speedup_vs_scalar":
                round(best_parallel / rows["scalar"], 2),
        }
    return {
        "benchmark": "keygen",
        "python": platform.python_version(),
        "have_numpy": HAVE_NUMPY,
        "cpu_count": os.cpu_count(),
        "keys_per_row": keys,
        "pool_workers": workers,
        "key_load_runs": LOAD_RUNS,
        "levels": levels,
    }


def render_report(payload: dict) -> str:
    rows = []
    for n, level in payload["levels"].items():
        for name, rate in level["keys_per_sec"].items():
            rows.append([f"n={n}", name, f"{rate:,.2f}"])
    table = format_table(
        ["degree", "path", "keys/s"], rows,
        title="Falcon key-generation throughput "
              f"({payload['keys_per_row']} keys per row; the scalar "
              "and numpy spines emit identical keys per seed)")
    load_rows = [[f"n={n}", spine, f"{load['decode']:,.2f}",
                  f"{load['decode_first_sign']:,.2f}"]
                 for n, level in payload["levels"].items()
                 for spine, load in level["key_load_ms"].items()]
    load_table = format_table(
        ["degree", "spine", "decode ms", "decode + first sign ms"],
        load_rows,
        title="Key load: decode_secret_key, then the loaded key's first "
              f"signature (median of {payload['key_load_runs']})")
    lines = [table, "", load_table, ""]
    for n, level in payload["levels"].items():
        if level["vectorized_speedup_vs_scalar"]:
            seed_part = (
                f"{level['vectorized_speedup_vs_seed_pipeline']:.2f}x "
                "the seed (PR 3) pipeline"
                if level["vectorized_speedup_vs_seed_pipeline"]
                else "seed-pipeline row skipped (too slow at Level 3)")
            lines.append(
                f"n={n}: numpy spine "
                f"{level['vectorized_speedup_vs_scalar']:.2f}x the "
                f"scalar spine, {seed_part}; pooled serving row "
                f"{level['pooled_speedup_vs_scalar']:.2f}x the scalar "
                f"spine")
    return "\n".join(lines)


def write_json(payload: dict) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")


# -- pytest entry points --------------------------------------------------

@pytest.mark.parametrize("spine",
                         ["scalar"] + (["numpy"] if HAVE_NUMPY else []))
def test_keygen_speed(benchmark, spine):
    """Wall-clock keygen at n=256 per spine."""
    counter = iter(range(1000, 2000))

    def generate():
        generate_keys(256, source=ChaChaSource(next(counter)))

    with _spine(spine):
        benchmark.pedantic(generate, rounds=3, iterations=1)


def test_keygen_report(benchmark):
    """Assemble the keygen throughput report (small sweep).

    Deliberately does NOT write the JSON: the committed
    ``BENCH_keygen.json`` comes from a full standalone run and must
    not be clobbered by this test's small, noisy sweep.
    """
    payload = once(benchmark,
                   lambda: run_sweep(degrees=(64, 256), keys=4))
    report("keygen", render_report(payload))
    if HAVE_NUMPY:
        for level in payload["levels"].values():
            assert level["vectorized_speedup_vs_scalar"] > 1.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--keys", type=int, default=8,
                        help="keys per measured row")
    parser.add_argument("--workers", type=int, default=POOL_WORKERS,
                        help="process-pool width for the pooled row")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: n=64 only, few keys")
    parser.add_argument("--level3", action="store_true",
                        help="add the n=1024 (Falcon Level 3) row")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing " + JSON_NAME)
    args = parser.parse_args(argv)
    degrees = DEGREES + ((LEVEL3_DEGREE,) if args.level3 else ())
    payload = run_sweep(degrees=degrees, keys=args.keys,
                        quick=args.quick, workers=args.workers)
    print(render_report(payload))
    if not args.no_json:
        write_json(payload)
        print(f"\nwrote {REPORT_DIR / JSON_NAME}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
