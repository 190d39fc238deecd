"""Run-to-run spread of the end-to-end metrics over several seeds.

Runs the benchmark once per seed, one run at a time, and prints for
each metric its median and the distance between its first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the bound ``BENCHMARK.json`` fixes for it::

    python3 perfbench/spread.py --workload verify-ledger --seeds 1-10

Exits non-zero when a spread (``setup_s`` excepted) exceeds a third of
its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             args.workload, "--seed", str(seed), "--seconds",
             str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        if done.returncode != 0:
            print(done.stderr[-3000:], file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect run: {result}", file=sys.stderr)
            return 1
        row = []
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            row.append(f"{name}={metric['value']:.4g}")
        print(f"seed {seed}: " + " ".join(row), flush=True)
    steady = True
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        series = values[name]
        q1, median, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median
        ok = name == "setup_s" or spread <= bound / 3
        steady &= ok
        print(f"{name:16s} median {median:10.4g}  spread {spread:6.3f}  "
              f"bound {bound:5.2f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
