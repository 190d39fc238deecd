"""Table 1 — Falcon signing throughput across sampler backends.

Paper Table 1 (i7-6600U @ 2.6 GHz, ChaCha PRNG, n = 128, tau = 13):

    Level (N)      byte-scan CDT   CDT    linear CDT   this work
    Level 1 (256)      10327       8041      6080        7025
    Level 2 (512)       5220       4064      3027        3527
    Level 3 (1024)      2640       2014      1519        1754

This bench reproduces the experiment two ways:

* **modeled** — the op-count machine model: per-signature sampling
  cycles measured from instrumented counters, plus a per-level fixed
  cost calibrated once against the paper's byte-scan Level 1 cell and
  scaled as N log2 N.  The model's job is to reproduce the paper's
  *ordering and ratios*, which EXPERIMENTS.md tabulates.
* **measured** — wall-clock of ``sk.sign_many`` at one batch size on
  both numeric spines: NumPy (batched FFT/ffSampling, what the
  platform runs when NumPy imports) and pure-Python scalar (timed
  inside the private ``_scalar_spine`` switch), each over the pooled
  base sampler, and the NumPy spine's speedup over the scalar one.  The two spines emit identical
  signature bytes for a fixed seed (recorded in the JSON, pinned by
  the test suite).

Results go to the text report and to
``benchmarks/reports/BENCH_table1_falcon_sign.json``.  Runs standalone
(``PYTHONPATH=src python benchmarks/bench_table1_falcon_sign.py
--quick``) or under pytest like the other benchmarks.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import sys
import time
from contextlib import nullcontext

import pytest

from repro.analysis import format_table
from repro.ct.opcount import OpCounts
from repro.falcon import HAVE_NUMPY, SecretKey, _scalar_spine
from repro.rng import ChaChaSource

from _report import REPORT_DIR, once, report
from conftest import TABLE1_LEVELS

JSON_NAME = "BENCH_table1_falcon_sign.json"

MESSAGE = b"table 1 benchmark message"

PAPER_SIGNS_PER_SEC = {
    (256, "cdt-byte-scan"): 10327, (256, "cdt-binary"): 8041,
    (256, "cdt-linear"): 6080, (256, "bitsliced"): 7025,
    (512, "cdt-byte-scan"): 5220, (512, "cdt-binary"): 4064,
    (512, "cdt-linear"): 3027, (512, "bitsliced"): 3527,
    (1024, "cdt-byte-scan"): 2640, (1024, "cdt-binary"): 2014,
    (1024, "cdt-linear"): 1519, (1024, "bitsliced"): 1754,
}

PAPER_CPU_HZ = 2.6e9
#: Batch width of the spine-identity check: a full batch, the width
#: the batch rows time and the serving plane's largest round.
IDENTITY_LANES = 32
BACKENDS = ("cdt-byte-scan", "cdt-binary", "cdt-linear", "bitsliced")


def _sampling_cycles_per_sign(sk, backend: str) -> float:
    """Per-signature sampling cost (cycles incl. PRNG) from counters.

    The bitsliced backend books a whole fused refill (64 batches) when
    one runs, so its booked counters would depend on whether a refill
    lands in the short measured window.  Its cost is amortized per base
    draw instead: the window's draws times one batch's cost per sample.
    """
    sk.use_base_sampler(backend, source=ChaChaSource(99))
    sk.sign(MESSAGE)  # warm-up: compiles kernels, fills batch buffers
    before = sk.base_sampler.counter.snapshot()
    draws_before = sk.sampler_z.base_draws
    attempts_before = sk.signing_attempts
    signs = 2
    for _ in range(signs):
        sk.sign(MESSAGE)
    attempts = sk.signing_attempts - attempts_before
    inner = getattr(sk.base_sampler, "inner", None)
    if inner is None:
        cycles = sk.base_sampler.counter.delta(before).modeled_cycles(
            prng="chacha20")
    else:
        batch_cycles = OpCounts(
            word_ops=inner.word_ops_per_batch,
            rng_bytes=inner.random_bytes_per_batch,
        ).modeled_cycles(prng="chacha20")
        draws = sk.sampler_z.base_draws - draws_before
        cycles = draws * batch_cycles / (inner.batch_width
                                         * inner.circuit.validity_rate)
    return cycles / signs * (signs / max(attempts, signs))


def _fixed_cost(n: int, calibration: float) -> float:
    """Per-level non-sampling cost, scaled as N log2 N from Level 1."""
    return calibration * (n * math.log2(n)) / (256 * math.log2(256))


def _measured_rates(sk, signs: int, batch: int) -> dict:
    """Wall-clock signs/s of both batch spines, plus verify_many."""
    rates: dict[str, float | None] = {}
    messages = [b"batch-%d" % i for i in range(signs)]
    sk.use_base_sampler("bitsliced", source=ChaChaSource(6))
    spines = ["scalar"] + (["numpy"] if HAVE_NUMPY else [])
    for spine in spines:
        with _scalar_spine() if spine == "scalar" else nullcontext():
            sk.sign_many(messages[:2])  # warm caches
            started = time.perf_counter()
            signatures = []
            for start in range(0, signs, batch):
                signatures.extend(
                    sk.sign_many(messages[start:start + batch]))
            rates[f"sign_many_{spine}"] = \
                signs / (time.perf_counter() - started)
    rates.setdefault("sign_many_numpy", None)

    pk = sk.public_key
    started = time.perf_counter()
    verdicts = pk.verify_many(messages, signatures)
    rates["verify_many"] = signs / (time.perf_counter() - started)
    assert all(verdicts)
    return rates


def _spine_identity_check(n: int, seed: int = 77) -> bool:
    """Fresh keys, fixed seed: do both spines sign one
    ``IDENTITY_LANES``-message batch to identical bytes?"""
    messages = [b"identity-%d" % i for i in range(IDENTITY_LANES)]
    with _scalar_spine():
        scalar = SecretKey.generate(n=n, seed=seed).sign_many(messages)
    vector = SecretKey.generate(n=n, seed=seed).sign_many(messages)
    return [(s.salt, s.compressed) for s in scalar] \
        == [(s.salt, s.compressed) for s in vector]


def run_sweep(levels: dict[str, int] | None = None,
              signs: int = 16, batch: int = 32,
              keys: dict[int, SecretKey] | None = None,
              quick: bool = False) -> dict:
    levels = dict(levels if levels is not None else TABLE1_LEVELS)
    if quick:
        levels = {"smoke (N=64)": 64}
        signs = min(signs, 6)
        batch = min(batch, 6)
    keys = dict(keys) if keys else {}
    for n in levels.values():
        if n not in keys:
            keys[n] = SecretKey.generate(n=n, seed=1)

    # Calibrate the model's fixed cost so it hits the paper's byte-scan
    # Level 1 cell exactly (one degree of freedom); needs the 256 key.
    calibration = None
    if 256 in keys:
        byte_scan_sampling = _sampling_cycles_per_sign(
            keys[256], "cdt-byte-scan")
        paper_cycles_l1 = PAPER_CPU_HZ / PAPER_SIGNS_PER_SEC[
            (256, "cdt-byte-scan")]
        calibration = paper_cycles_l1 - byte_scan_sampling

    results = {}
    for level_name, n in levels.items():
        sk = keys[n]
        modeled = {}
        if calibration is not None and (n, BACKENDS[0]) \
                in PAPER_SIGNS_PER_SEC:
            fixed = _fixed_cost(n, calibration)
            for backend in BACKENDS:
                sampling = _sampling_cycles_per_sign(sk, backend)
                modeled[backend] = {
                    "paper_signs_per_sec":
                        PAPER_SIGNS_PER_SEC[(n, backend)],
                    "modeled_signs_per_sec":
                        round(PAPER_CPU_HZ / (fixed + sampling)),
                }
        measured = _measured_rates(sk, signs, batch)
        inner = sk.base_sampler.inner  # the batch rows' default signer
        base_sampler = {"engine": inner.engine.name,
                        "prefetch_batches": inner.prefetch_batches}
        speedup = None
        if measured["sign_many_numpy"]:
            speedup = round(measured["sign_many_numpy"]
                            / measured["sign_many_scalar"], 2)
        results[level_name] = {
            "n": n,
            "modeled": modeled,
            "measured_signs_per_sec": {
                key: (round(value, 1) if value else None)
                for key, value in measured.items()},
            "numpy_spine_speedup_vs_scalar_spine": speedup,
        }

    identity = None
    if HAVE_NUMPY and not quick:
        identity_n = 512 if any(n == 512 for n in levels.values()) \
            else max(levels.values())
        identity = {
            "n": identity_n,
            "lanes": IDENTITY_LANES,
            "identical_signature_bytes":
                _spine_identity_check(identity_n),
        }

    return {
        "benchmark": "table1_falcon_sign",
        "python": platform.python_version(),
        "have_numpy": HAVE_NUMPY,
        "signs_per_row": signs,
        "batch": batch,
        "base_sampler": base_sampler,
        "levels": results,
        "spine_identity": identity,
    }


def render_report(payload: dict) -> str:
    rows = []
    for level_name, level in payload["levels"].items():
        measured = level["measured_signs_per_sec"]
        for backend, cells in level["modeled"].items():
            rows.append([level_name, backend,
                         cells["paper_signs_per_sec"],
                         cells["modeled_signs_per_sec"], "", ""])
        rows.append([level_name, "measured: sign_many (scalar spine)",
                     "", "", f"{measured['sign_many_scalar']:,.1f}", ""])
        if measured["sign_many_numpy"]:
            rows.append([
                level_name, "measured: sign_many (numpy spine)", "", "",
                f"{measured['sign_many_numpy']:,.1f}",
                f"{level['numpy_spine_speedup_vs_scalar_spine']:.2f}x"])
    table = format_table(
        ["level", "backend / path", "paper signs/s", "modeled signs/s",
         "python signs/s", "speedup"],
        rows,
        title="Table 1: Falcon signing throughput (model calibrated on "
              "byte-scan Level 1; measured rows are this Python "
              "implementation's batch signer, scalar vs numpy spine)")

    lines = [table, ""]
    identity = payload.get("spine_identity")
    if identity:
        lines.append(
            f"spine identity at N={identity['n']}, one "
            f"{identity['lanes']}-message batch: scalar and numpy "
            f"sign_many bytes identical = "
            f"{identity['identical_signature_bytes']}")
    for level_name, level in payload["levels"].items():
        by = {backend: cells["modeled_signs_per_sec"]
              for backend, cells in level["modeled"].items()}
        if len(by) < len(BACKENDS):
            continue
        slow_vs_byte = 100 * (by["cdt-byte-scan"] - by["bitsliced"]) \
            / by["cdt-byte-scan"]
        fast_vs_linear = 100 * (by["bitsliced"] - by["cdt-linear"]) \
            / by["cdt-linear"]
        lines.append(
            f"{level_name}: constant-time sampler modeled "
            f"{slow_vs_byte:.0f}% slower than byte-scan "
            f"(paper: <=32%), {fast_vs_linear:.0f}% faster than "
            f"linear-scan CDT (paper: >=15%)")
    return "\n".join(lines)


def write_json(payload: dict) -> None:
    REPORT_DIR.mkdir(exist_ok=True)
    path = REPORT_DIR / JSON_NAME
    path.write_text(json.dumps(payload, indent=2) + "\n",
                    encoding="utf-8")


# -- pytest entry points --------------------------------------------------

@pytest.mark.parametrize("level_name", list(TABLE1_LEVELS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_sign_speed(benchmark, falcon_keys, level_name, backend):
    """Wall-clock signing time per (level, backend) cell."""
    n = TABLE1_LEVELS[level_name]
    sk = falcon_keys[n]
    sk.use_base_sampler(backend, source=ChaChaSource(5))
    sk.sign(MESSAGE)  # warm-up
    rounds = 3 if n < 1024 else 2
    benchmark.pedantic(sk.sign, args=(MESSAGE,), rounds=rounds,
                       iterations=1)


def test_table1_report(benchmark, falcon_keys):
    """Assemble the full Table 1 reproduction (paper vs model vs
    measured, scalar spine vs numpy spine).

    Deliberately does NOT write the JSON: the committed
    ``BENCH_table1_falcon_sign.json`` comes from a full standalone run
    (``python bench_table1_falcon_sign.py --signs 128 --batch 128``)
    and must not be clobbered by this test's small, noisy sweep.
    """
    payload = once(benchmark, lambda: run_sweep(keys=falcon_keys,
                                                signs=8))
    report("table1_falcon_sign", render_report(payload))
    if HAVE_NUMPY:
        for level in payload["levels"].values():
            measured = level["measured_signs_per_sec"]
            # The array spine must never be slower than the scalar one
            # at the same batch (the size of the gap is read from the
            # committed full-run JSON, not under pytest's timing noise).
            assert measured["sign_many_numpy"] \
                > measured["sign_many_scalar"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--signs", type=int, default=16,
                        help="signatures per measured row")
    parser.add_argument("--batch", type=int, default=32,
                        help="messages per sign_many call")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: N=64 only, few signatures")
    parser.add_argument("--no-json", action="store_true",
                        help="skip writing " + JSON_NAME)
    args = parser.parse_args(argv)
    payload = run_sweep(signs=args.signs, batch=args.batch,
                        quick=args.quick)
    print(render_report(payload))
    if not args.no_json:
        write_json(payload)
        print(f"\nwrote {REPORT_DIR / JSON_NAME}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
