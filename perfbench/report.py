"""Run the benchmark over several seeds and print every metric with its spread.

    python3 perfbench/report.py                       # seeds 1-10
    python3 perfbench/report.py --trace 1 --seeds 1   # per-layer metrics

Each run is a separate ``run.py`` process, with the workloads and the
``run_seconds`` that ``BENCHMARK.json`` declares. For each workload and
metric the table gives the median over seeds, the first and third
quartiles, and the spread: the interquartile distance over the median. An
end-to-end metric is marked steady when its spread is below a third of its
bound. Each run's own record stays in ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        results = []
        for seed in args.seeds:
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
            results.append(result)
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"tail=p{record['record'].get('latency', {}).get('tail_percentile', '-')}",
                  file=sys.stderr)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"\n{workload}: {len(results)} runs, fail_ratio {failed}/{attempted}"
              f" = {failed / attempted:.3g}")
        print(f"  {'metric':36} {'unit':9} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds[name]
            mark = ""
            if bound is not None:
                ok = spread < bound / 3.0
                steady &= ok
                mark = "steady" if ok else "NOT STEADY"
            unit = results[0]["metrics"][name]["unit"]
            print(f"  {name:36} {unit:9} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:7.2%} {bound if bound is not None else '':>6} {mark}")
        steady &= failed == 0
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
