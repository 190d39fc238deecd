"""Backend scaling — batch widths x PRNGs x batch API.

Evaluating the same straight-line kernel over wider Python-int words,
and fusing batches into super-batches via ``sample_many``, multiplies
throughput without touching the circuit — the software analogue of the
paper's "as fast as the hardware allows" SIMD argument (Sec. 3.2,
Table 2).

For every PRNG and batch width this sweep measures

* ``sample_batch``-loop throughput (the per-batch demo the repo used
  to be), and
* ``sample_many`` throughput (one fused kernel pass over up to 64
  batches),

and records the ratio.  Results go to the usual text report *and* to
``benchmarks/reports/BENCH_backend_scaling.json`` so successive PRs can
track the datapoints.

Runs standalone (``PYTHONPATH=src python benchmarks/bench_backend_scaling.py
--samples 8192`` for a CI smoke) or under pytest like the other
benchmarks.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.analysis import format_table
from repro.bitslice import HAVE_NUMPY
from repro.core import GaussianParams, compile_sampler_circuit
from repro.core.sampler import BitslicedSampler
from repro.rng import ChaChaSource, CounterSource

from _report import REPORT_DIR, drain_buffer, full_or, \
    prng_share_percent, report

JSON_NAME = "BENCH_backend_scaling.json"

DEFAULT_SAMPLES = 65_536
DEFAULT_WIDTHS = (64, 256, 1024)
SIGMA = 2

#: The PRNG axis: ChaCha20 is the paper's production choice but costs
#: far more than the sampler itself in pure Python, so the sweep also
#: measures against the near-free SplitMix64 counter — the "PRNG
#: overhead" framing from the paper's conclusion.  The counter rows are
#: the ones that show the *kernel's* scaling.
PRNGS = {"chacha20": ChaChaSource, "counter": CounterSource}


def _throughput_batch_loop(circuit, prng, width: int,
                           samples: int) -> float:
    sampler = BitslicedSampler(circuit, source=prng(31),
                               batch_width=width)
    sampler.sample_batch()  # warm-up (compiled kernel caches, PRNG)
    drain_buffer(sampler.source.inner)
    produced = 0
    started = time.perf_counter()
    while produced < samples:
        produced += len(sampler.sample_batch())
    elapsed = time.perf_counter() - started
    return produced / elapsed


def _throughput_sample_many(circuit, prng, width: int,
                            samples: int) -> tuple[float, float]:
    """Returns (samples/s, PRNG share of wall time)."""
    sampler = BitslicedSampler(circuit, source=prng(31),
                               batch_width=width)
    sampler.sample_many(sampler.batch_width)  # warm-up
    drain_buffer(sampler.source.inner)  # measure steady-state PRNG cost
    sampler.source.reset_count()
    started = time.perf_counter()
    sampler.sample_many(samples)
    elapsed = time.perf_counter() - started
    share = prng_share_percent(lambda: prng(31),
                               sampler.source.bytes_read, elapsed)
    return samples / elapsed, share


def run_sweep(samples: int = DEFAULT_SAMPLES,
              widths=DEFAULT_WIDTHS, precision: int | None = None,
              ) -> dict:
    precision = precision if precision is not None else full_or(32, 64)
    params = GaussianParams.from_sigma(SIGMA, precision)
    circuit = compile_sampler_circuit(params)
    results = []
    for prng_name, prng in PRNGS.items():
        for width in widths:
            batch_sps = _throughput_batch_loop(circuit, prng, width,
                                               samples)
            many_sps, prng_share = _throughput_sample_many(
                circuit, prng, width, samples)
            results.append({
                "prng": prng_name,
                "batch_width": width,
                "samples": samples,
                "sample_batch_sps": round(batch_sps, 1),
                "sample_many_sps": round(many_sps, 1),
                "sample_many_speedup": round(many_sps / batch_sps, 3),
                "prng_share_percent": round(prng_share, 1),
            })
    return {
        "benchmark": "backend_scaling",
        "sigma": SIGMA,
        "precision": precision,
        "word_ops_per_batch": circuit.gate_count()["total"],
        "python": platform.python_version(),
        "have_numpy": HAVE_NUMPY,
        "results": results,
    }


def render_report(payload: dict) -> str:
    rows = []
    for row in payload["results"]:
        rows.append([row["prng"], row["batch_width"],
                     f"{row['sample_batch_sps']:,.0f}",
                     f"{row['sample_many_sps']:,.0f}",
                     f"{row['sample_many_speedup']:.2f}x",
                     f"{row['prng_share_percent']:.0f}%"])
    return format_table(
        ["prng", "batch width w", "sample_batch loop (s/s)",
         "sample_many (s/s)", "bulk speedup", "prng share"],
        rows,
        title=f"Backend scaling, sigma = {payload['sigma']}, "
              f"n = {payload['precision']}, "
              f"{payload['results'][0]['samples']:,} samples "
              f"(NumPy lane transpose: {payload['have_numpy']}; "
              f"counter rows isolate kernel scaling from PRNG cost)")


def write_json(payload: dict) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")


def test_backend_scaling_report(benchmark):
    from _report import once

    payload = once(benchmark, run_sweep)
    write_json(payload)
    report("backend_scaling", render_report(payload))
    # Acceptance: with PRNG cost out of the way, the bulk path beats
    # the per-batch loop at the paper's width.
    at_64 = [row for row in payload["results"]
             if row["batch_width"] == 64 and row["prng"] == "counter"]
    assert at_64 and all(row["sample_many_speedup"] > 1.0
                         for row in at_64)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=DEFAULT_SAMPLES)
    parser.add_argument("--widths", type=int, nargs="+",
                        default=list(DEFAULT_WIDTHS))
    parser.add_argument("--precision", type=int, default=None)
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing " + JSON_NAME)
    args = parser.parse_args(argv)
    payload = run_sweep(samples=args.samples, widths=tuple(args.widths),
                        precision=args.precision)
    print(render_report(payload))
    if not args.no_json:
        write_json(payload)
        print(f"\nwrote {REPORT_DIR / JSON_NAME}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
