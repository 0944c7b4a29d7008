"""Benchmark launcher for vorstokes.

    python3 perfbench/run.py --workload {pipeline_default,branch_fine,verify_oracle} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  It runs the workload from the checkout's
``src`` in one fresh child process (perfbench/worker.py), pinned to one core
with BLAS and OpenMP threads capped at the cores it may use, and measures the
child's peak resident memory.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The lines before
it give the machine, the raw wall time of each unit, the per-state sample
count, every metric reported missing and every failed check.  The
exit status is 0 only when every check passed; without the library sources it
is 2 and nothing is printed on standard output.
"""

import argparse
import json
import os
import resource
import subprocess
import sys

from speed import pin_to_one_core

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("pipeline_default", "branch_fine", "verify_oracle")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
WORKER_TIMEOUT_S = 175


def worker_env():
    """This environment with the library on the path, threads capped, no config overrides."""
    nproc = len(os.sched_getaffinity(0))
    env = {k: v for k, v in os.environ.items() if not k.startswith("VORSTOKES_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    for var in THREAD_VARS:
        try:
            current = int(env.get(var, nproc))
        except ValueError:
            current = nproc
        env[var] = str(max(1, min(current, nproc)))
    return env


def main():
    parser = argparse.ArgumentParser(description="vorstokes benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "vorstokes", "__init__.py")):
        print(f"error: no library sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    pin_to_one_core()
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, f"result_{os.getpid()}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", result_path]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if proc.returncode != 0 or not os.path.isfile(result_path):
        print(f"error: worker exited with status {proc.returncode}", file=sys.stderr)
        return 1
    with open(result_path) as fh:
        result = json.load(fh)
    os.remove(result_path)

    info = result.pop("info")
    if not args.trace and result["metrics"]:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print("machine: " + json.dumps(info["machine"], sort_keys=True))
    print("raw unit wall times: " + " ".join(f"{t:.3f}" for t in info.get("unit_wall_s", [])))
    if "state_samples" in info:
        print(f"state_s: {info['state_samples']} samples, tail = {info['state_tail']}")
    if "oracle_err" in info:
        print(f"oracle_err: {info['oracle_err']:.5f} (limit 0.02)")
    for name, why in sorted(info.get("missing", {}).items()):
        print(f"missing: {name} ({why})")
    for err in info["errors"]:
        print(f"failed check: {err}")
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
