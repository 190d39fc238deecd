"""Sec. 7's PRNG-overhead observation, scalar vs vectorized.

The conclusion reports that 80-85% of total sampling time goes to
pseudorandom number generation with Keccak, dropping to ~60% with
ChaCha, and suggests AES-NI as a further improvement.  PR 1's
measurements made the same point brutally for the reproduction: the
pure-Python ChaCha block function ate >90% of ``sample_many`` wall
time, capping the vectorized sampler 15x below its counter-PRNG
ceiling.  This bench reproduces the breakdown three ways:

* **modeled**: sampler logic cycles (gate count) vs PRNG cycles
  (bytes x backend cycles-per-byte) per 64-sample batch;
* **keystream**: raw bulk throughput of every PRNG configuration —
  scalar vs vectorized ChaCha20/12/8, SHAKE128/256, the SplitMix64
  counter — which is what the buffered sources amortize against; and
* **end-to-end**: ``sample_many`` throughput at the paper's batch width
  per PRNG, with the measured share of wall time spent generating
  randomness (regenerating the consumed byte count source-side).

Results go to the text report and to
``benchmarks/reports/BENCH_prng_overhead.json``.  Runs standalone
(``PYTHONPATH=src python benchmarks/bench_prng_overhead.py --quick``)
or under pytest like the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import pytest

from repro.analysis import format_table
from repro.core import BitslicedSampler, GaussianParams, \
    compile_sampler_circuit
from repro.core.sampler import DEFAULT_BATCH_WIDTH
from repro.ct import PRNG_CYCLES_PER_BYTE
from repro.rng import HAVE_VECTOR_CHACHA, ChaChaSource, CounterSource, \
    ShakeSource

from _report import REPORT_DIR, drain_buffer, full_or, once, \
    prng_share_percent, report

JSON_NAME = "BENCH_prng_overhead.json"

#: Every PRNG configuration the sweep measures.  The default ChaCha
#: rows evaluate the block function over NumPy uint32 lanes when
#: available (one lane per block counter) behind a 64 KiB keystream
#: buffer; ``-scalar`` rows force the unbuffered RFC reference path.
#: Both are byte-identical, so rows differ in speed only.
PRNG_CONFIGS = {
    "chacha20": lambda: ChaChaSource(1),
    "chacha20-scalar": lambda: ChaChaSource(1, buffer_bytes=0,
                                            vectorized=False),
    "chacha12": lambda: ChaChaSource(1, rounds=12),
    "chacha12-scalar": lambda: ChaChaSource(1, rounds=12,
                                            buffer_bytes=0,
                                            vectorized=False),
    "chacha8": lambda: ChaChaSource(1, rounds=8),
    "chacha8-scalar": lambda: ChaChaSource(1, rounds=8,
                                           buffer_bytes=0,
                                           vectorized=False),
    "shake128": lambda: ShakeSource(1, variant=128),
    "shake256": lambda: ShakeSource(1, variant=256),
    "counter": lambda: CounterSource(1),
}

#: Subset used by the per-batch pytest micro-benchmarks.
PRNG_FACTORIES = {
    "shake256": PRNG_CONFIGS["shake256"],
    "chacha20": PRNG_CONFIGS["chacha20"],
    "chacha20-scalar": PRNG_CONFIGS["chacha20-scalar"],
    "chacha8": PRNG_CONFIGS["chacha8"],
    "counter": PRNG_CONFIGS["counter"],
}

PAPER_CLAIM = {"shake256": (80, 85), "chacha20": (55, 70)}

#: End-to-end rows: the sampler PRNGs of interest (scalar ChaCha20 is
#: included as the PR 1 regression baseline).
END_TO_END_PRNGS = ("chacha20", "chacha20-scalar", "chacha8",
                    "shake256", "counter")


def _keystream_mbps(factory, seconds: float, chunk: int = 16384) -> float:
    """Sustained read_bytes throughput in MB/s."""
    source = factory()
    source.read_bytes(chunk)  # warm (first slab, buffers)
    total = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        source.read_bytes(chunk)
        total += chunk
    elapsed = time.perf_counter() - started
    return total / elapsed / 1e6


def _end_to_end(circuit, factory, samples: int) -> dict:
    """sample_many wall time + the PRNG share of it, at the paper's
    batch width (the one every Falcon signer's base sampler runs)."""
    sampler = BitslicedSampler(circuit, source=factory(),
                               batch_width=DEFAULT_BATCH_WIDTH)
    sampler.sample_many(sampler.batch_width)  # warm
    drain_buffer(sampler.source.inner)  # steady-state timing
    sampler.source.reset_count()
    started = time.perf_counter()
    sampler.sample_many(samples)
    total = time.perf_counter() - started
    consumed = sampler.source.bytes_read
    return {
        "samples_per_second": round(samples / total, 1),
        "batch_width": sampler.batch_width,
        "bytes_consumed": consumed,
        "prng_share_percent": round(
            prng_share_percent(factory, consumed, total), 1),
    }


def run_sweep(samples: int | None = None,
              keystream_seconds: float = 0.15) -> dict:
    samples = samples if samples is not None else full_or(65_536, 262_144)
    precision = full_or(32, 64)
    params = GaussianParams.from_sigma(2, precision)
    circuit = compile_sampler_circuit(params)

    keystream = {name: round(_keystream_mbps(factory, keystream_seconds),
                             3)
                 for name, factory in PRNG_CONFIGS.items()}
    end_to_end = {name: _end_to_end(circuit, PRNG_CONFIGS[name], samples)
                  for name in END_TO_END_PRNGS}

    # Modeled share (the paper's cycle accounting), unchanged by the
    # vectorization work: it describes the paper's target CPU.
    sampler = BitslicedSampler(circuit)
    logic_cycles = sampler.word_ops_per_batch
    rng_bytes = sampler.random_bytes_per_batch
    modeled = {}
    for prng in ("shake256", "chacha20", "chacha8", "counter", "aesni"):
        prng_cycles = rng_bytes * PRNG_CYCLES_PER_BYTE[prng]
        modeled[prng] = {
            "prng_cycles_per_batch": prng_cycles,
            "logic_cycles_per_batch": logic_cycles,
            "prng_share_percent": round(
                100 * prng_cycles / (prng_cycles + logic_cycles), 1),
        }

    return {
        "benchmark": "prng_overhead",
        "sigma": 2,
        "precision": precision,
        "samples": samples,
        "have_vector_chacha": HAVE_VECTOR_CHACHA,
        "python": platform.python_version(),
        "keystream_mbps": keystream,
        "end_to_end": end_to_end,
        "modeled": modeled,
    }


def render_report(payload: dict) -> str:
    scalar_ref = payload["keystream_mbps"].get("chacha20-scalar")
    rows = []
    for name, mbps in payload["keystream_mbps"].items():
        speedup = (f"{mbps / scalar_ref:.1f}x"
                   if scalar_ref and name.startswith("chacha") else "-")
        rows.append([name, f"{mbps:.2f}", speedup])
    keystream = format_table(
        ["PRNG", "keystream MB/s", "vs scalar chacha20"],
        rows,
        title="Bulk keystream throughput (16 KiB reads; vectorized "
              "ChaCha evaluates one uint32 lane per block counter)"
        if payload["have_vector_chacha"] else
        "Bulk keystream throughput (16 KiB reads; NumPy absent — "
        "all ChaCha rows take the scalar RFC path)")

    rows = []
    for name, row in payload["end_to_end"].items():
        rows.append([name, f"{row['samples_per_second']:,.0f}",
                     row["batch_width"],
                     f"{row['prng_share_percent']:.0f}%"])
    end_to_end = format_table(
        ["PRNG", "sample_many (s/s)", "batch width w", "prng share"],
        rows,
        title=f"End-to-end sampling, {payload['samples']:,} samples "
              "(share = wall time to "
              "regenerate the consumed bytes)")

    rows = []
    for prng, row in payload["modeled"].items():
        claim = PAPER_CLAIM.get(prng)
        rows.append([prng, f"{row['prng_cycles_per_batch']:,.0f}",
                     f"{row['logic_cycles_per_batch']:,}",
                     f"{row['prng_share_percent']:.0f}%",
                     f"{claim[0]}-{claim[1]}%" if claim else "-"])
    modeled = format_table(
        ["PRNG", "prng cycles/batch", "logic cycles/batch",
         "prng share", "paper"],
        rows,
        title="Modeled PRNG overhead per 64-sample batch "
              "(paper's target-CPU cycle accounting)")

    return keystream + "\n\n" + end_to_end + "\n\n" + modeled


def write_json(payload: dict) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")


# -- pytest entry points --------------------------------------------------

@pytest.mark.parametrize("prng", sorted(PRNG_FACTORIES))
def test_prng_word_generation_speed(benchmark, sigma2_circuit, prng):
    """Wall-clock of generating one batch worth of random words."""
    source = PRNG_FACTORIES[prng]()
    words = sigma2_circuit.num_input_bits + 1

    def generate():
        for _ in range(words):
            source.read_word(64)

    benchmark(generate)


def test_prng_overhead_report(benchmark):
    payload = once(benchmark, run_sweep)
    write_json(payload)
    report("prng_overhead", render_report(payload))
    if payload["have_vector_chacha"]:
        # Acceptance: the vectorized block function must clearly beat
        # the scalar path it replaces (the tentpole of PR 2).
        mbps = payload["keystream_mbps"]
        assert mbps["chacha20"] > 2 * mbps["chacha20-scalar"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, default=None)
    parser.add_argument("--keystream-seconds", type=float, default=0.15)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: small sample count, short "
                             "keystream timing windows")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing " + JSON_NAME)
    args = parser.parse_args(argv)
    samples = args.samples
    keystream_seconds = args.keystream_seconds
    if args.quick:
        samples = samples or 8192
        keystream_seconds = min(keystream_seconds, 0.05)
    payload = run_sweep(samples=samples,
                        keystream_seconds=keystream_seconds)
    print(render_report(payload))
    if not args.no_json:
        write_json(payload)
        print(f"\nwrote {REPORT_DIR / JSON_NAME}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
