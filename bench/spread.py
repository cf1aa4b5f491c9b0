"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload detect --seeds 1-10 --seconds 20

Runs bench/run.py once per seed, one run at a time, and prints for every
end-to-end metric the median, the quartiles and the interquartile range as
a share of the median (the figure each bound in BENCHMARK.json is set
against).  Also prints the share of failed operations over all runs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {}
    attempted = failed = 0
    for seed in _seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: checks failed\n{proc.stderr}", file=sys.stderr)
        attempted += result["attempted"]
        failed += result["failed"]
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed} ({time.perf_counter() - t0:.1f} s): " + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
              flush=True)
    print(f"\n{args.workload}: failed {failed} of {attempted}")
    print(f"{'metric':32s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'bound':>6s}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        print(f"{name:32s} {med:12.5g} {q1:12.5g} {q3:12.5g} {(q3 - q1) / med:8.3f} "
              f"{bounds.get(name, float('nan')):6.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
