"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload refine --seeds 1 2 3 4 5 --seconds 20

Runs ``bench/run.py`` once per seed, one process after another, and
prints for every metric the median and the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, beside each bound in BENCHMARK.json.  The summary is also
written to bench/runs/spread-<workload>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    runs = []
    for seed in args.seeds:
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, "wall_s": wall, **result})
        print(f"seed {seed}: {wall:.1f} s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / abs(med) if med else float("inf")
        summary[name] = {"median": med, "spread": spread, "values": values}
        bound = bounds.get(name)
        flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
        print(f"{name:32s} median {med:12.6g}  spread {spread:7.4f}"
              f"  bound {bound if bound is not None else '-'}{flag}")
    out = BENCH / "runs" / f"spread-{args.workload}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"seconds": seconds, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
