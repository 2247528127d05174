"""Benchmark of the cardiomotion pipeline, one workload per process.

    python3 bench/run.py --workload regnet_train --seed 1 --seconds 20 --trace 0

Workloads (see README.md): regnet_train, direct_register, refine.  With
``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a separate traced run.  Every run also writes a report, and a traced
run its spans, under bench/runs/.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

# Pinned before numpy loads its BLAS; training and inference bytes do not
# depend on it, and one thread keeps the second core's noise out of the rates.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the pinning above)

from tracing import LAYERS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"

# every workload reports every end-to-end metric; README.md gives what each
# one measures on each workload
END_TO_END = ["setup_s", "peak_rss_mb", "work_per_s", "op_ms_p50", "error_mm",
              "objective_ratio"]
# every per-layer metric is reported by every traced run, so self times are
# given only for the layers all three workloads reach; call counts for all
SELF_TIME_LAYERS = ["nn.tensor", "grid", "metric", "registration", "nn.params"]


def _host_sample() -> dict:
    with open("/proc/stat", encoding="ascii") as fh:
        cpu = [int(x) for x in fh.readline().split()[1:]]
    with open("/proc/loadavg", encoding="ascii") as fh:
        load = float(fh.read().split()[0])
    return {"steal": cpu[7], "total": sum(cpu), "load1": load}


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "cardiomotion").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _context(host0: dict, host1: dict, wall: float) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    dt = max(host1["total"] - host0["total"], 1)
    return {
        "git_sha": _git_sha(), "source_sha256_16": _source_digest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS, "cpus": os.cpu_count(),
        "steal_pct": 100.0 * (host1["steal"] - host0["steal"]) / dt,
        "load1_start": host0["load1"], "load1_end": host1["load1"],
        "wall_s": wall,
    }


def _layer_metrics(tracer, outcome, graphs: list, probe_values: dict, units: dict) -> dict:
    ops = max(outcome.traced_ops, 1)
    totals = {layer: [0.0, 0] for layer in LAYERS}
    fields = 0
    for start, stop in outcome.traced_marks:
        for layer, (self_s, calls) in tracer.layer_totals(start, stop).items():
            if layer in totals:
                totals[layer][0] += self_s
                totals[layer][1] += calls
        fields += tracer.count("nn.fieldops:", start, stop)
    traced = np.median(outcome.op_seconds[True])
    untraced = np.median(outcome.op_seconds[False])
    m = {name: (value, units[name]) for name, value in probe_values.items()}
    m["graph_nodes"] = (int(np.median([n for n, _ in graphs])) if graphs else 0, "count")
    m["graph_mb"] = (float(np.median([mb for _, mb in graphs])) if graphs else 0.0, "MB")
    m["field_calls_per_step"] = (fields / ops, "count")
    m["trace_overhead_pct"] = (100.0 * (traced / untraced - 1.0), "%")
    for layer in SELF_TIME_LAYERS:
        m[f"{layer}.self_ms"] = (1e3 * totals[layer][0] / ops, "ms")
    for layer in LAYERS:
        m[f"{layer}.calls"] = (totals[layer][1] / ops, "count")
    outcome.notes["layer_self_ms_per_op"] = {k: 1e3 * v[0] / ops for k, v in totals.items()}
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["regnet_train", "direct_register", "refine"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cardiomotion" / "__init__.py").is_file():
        print(f"error: program source not found at {SRC}/cardiomotion", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cardiomotion

    if Path(cardiomotion.__file__).resolve().parent != SRC / "cardiomotion":
        print(f"error: imported {cardiomotion.__file__}, not the checkout's", file=sys.stderr)
        return 2
    import probes
    import workloads

    host0 = _host_sample()
    t0 = time.perf_counter()
    RUNS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUNS / f"work-{tag}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    try:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, tracer,
                                                     str(workdir))
        if tracer is None:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            outcome.metrics["peak_rss_mb"] = (peak_mb, "MB")
            metrics = outcome.metrics
        else:
            graphs = list(tracer.graphs)  # the workload's, before the probes add theirs
            probe_values = probes.run_probes(tracer, str(workdir / "probes"), args.seed)
            metrics = _layer_metrics(tracer, outcome, graphs, probe_values, probes.PROBES)
            tracer.write(RUNS / f"{tag}-spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context = _context(host0, _host_sample(), time.perf_counter() - t0)

    missing = [] if args.trace else [k for k in END_TO_END if k not in metrics]
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "attempted": outcome.attempted, "failed": outcome.failed,
              "checks": outcome.checks, "metrics": metrics, "notes": outcome.notes,
              "op_seconds": {"traced": outcome.op_seconds[True],
                             "untraced": outcome.op_seconds[False]},
              "context": context}
    with open(RUNS / f"{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=float)

    for name, ok, detail in outcome.checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name} {detail}".rstrip())
    for err in outcome.notes.get("errors", []):
        print(f"failed operation: {err}")
    print(f"ops attempted={outcome.attempted} failed={outcome.failed}")
    print("context " + json.dumps(context))
    print("notes " + json.dumps({k: v for k, v in outcome.notes.items() if k != "errors"},
                                default=float))
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    result = {
        "correct": all(ok for _, ok, _ in outcome.checks) and bool(outcome.checks),
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if args.trace or name in END_TO_END},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
