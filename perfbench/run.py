"""Benchmark launcher for twodarcy: one workload, fresh processes, one JSON result.

    python3 perfbench/run.py --workload study --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each run starts ``SETUP_PROCESSES``
processes of ``workloads.py`` in turn, each with one BLAS/OpenMP thread
(the package's solves are single-threaded; spare BLAS threads only add
scheduler noise on a small shared machine).  All of them time their set-up
(import, inputs, a level-1 warm-up solve); the last one also times the
workload.
Peak memory is that last process's own, so no other workload's memory
shows in it.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones (``norm_wall_s``, ``peak_rss_mb``, ``setup_s``); with
``--trace 1`` they are the per-layer ones.  ``--workload all`` runs every
workload and prints a summary line for each, including ``fail_frac``.

Exits 1 without a result when a process fails, e.g. when ``src/`` of the
checkout is missing.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "workloads.py"
SETUP_PROCESSES = 5
RUN_DEADLINE_S = 170.0  # every run must end within 180 s
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    return env


def run_child(args, deadline):
    """Run one worker process to completion and return its JSON result."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker process")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {' '.join(args)} timed out") from err
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited with status {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"worker {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, scale):
    """Set up in fresh processes, measure in the last one, and build the result."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    setups = [run_child([*common, "--seconds", "0", "--setup-only"], deadline)
              for _ in range(SETUP_PROCESSES - 1)]
    measured = run_child([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    setups.append(measured)
    attempted, failed = measured["attempted"], measured["failed"]
    setup_s = statistics.median(s["setup_s"] for s in setups)
    setup_raw_s = statistics.median(s["setup_raw_s"] for s in setups)
    walls = ", ".join(f"{w:.3f}" for w in measured["pass_walls"])
    summary = (f"{workload}: norm_wall_s {measured['norm_wall_s']:.4f} s | wall_s "
               f"{measured['wall_s']:.4f} s (sum of the medians of {measured['operations']} "
               f"operations over {len(measured['pass_walls'])} passes; pass walls {walls}) | "
               f"probe {1000 * measured['probe_s']:.3f} ms | "
               f"peak_rss_mb {measured['peak_rss_mb']:.1f} MB | setup_s {setup_s:.4f} s, raw "
               f"{setup_raw_s:.4f} s (median of {len(setups)} processes) | "
               f"fail_frac {failed / attempted:.4g} ({failed} of {attempted} solves)")
    if trace:
        values = measured["per_layer"]
        traced_wall = measured["traced_wall_s"]
        summary += (f" | traced wall_s {traced_wall:.4f} s "
                    f"(median of {measured['traced_passes']} passes)")
    else:
        values = {"norm_wall_s": measured["norm_wall_s"],
                  "peak_rss_mb": measured["peak_rss_mb"], "setup_s": setup_s}
    metrics = {}
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        if trace:
            share = (f" ({100 * values[name] / traced_wall:.1f}% of traced wall_s)"
                     if unit == "s" else "")
            summary += f"\n  {name} {values[name]:.6g} {unit}{share}"
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return summary, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny levels, for the smoke test")
    args = parser.parse_args(argv)
    workloads = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        for workload in workloads:
            summary, result = run_workload(workload, args.seed, args.seconds, args.trace,
                                           args.scale)
            print(summary, flush=True)
            print(json.dumps(result), flush=True)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
