"""Run one workload in this process and write its result as JSON.

run.py starts this pinned to one core, with PYTHONPATH set to the checkout's
``src`` and BLAS/OpenMP threads capped, and measures its peak memory:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --result PATH

Untraced, it sets up three times, then repeats the workload's unit of timed
work until ``--seconds`` of it are measured (at least once).  Traced, it sets
up once with the hooks in and then alternates an untraced and a traced unit
until ``--seconds`` are measured; the difference of their medians is the
tracing overhead.  Every time is normalized by `speed.SpeedProbe`; the raw
wall times go into the result's ``info``.
"""

import argparse
import json
import os
import platform
import statistics
import time
import traceback

from run import ROOT, THREAD_VARS
from speed import SpeedProbe

SETUP_REPEATS = 3


def _import_vorstokes():
    """(start, end) of importing the library and reading the default config."""
    t0 = time.perf_counter()
    import vorstokes.cli  # noqa: F401
    from vorstokes.config import parse_config

    parse_config(None)
    return t0, time.perf_counter()


def machine_info():
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "pinned_cores": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def tail_of(samples):
    """Highest order statistic with ten samples beyond it, or the max below 21 samples."""
    ordered = sorted(samples)
    n = len(ordered)
    if n >= 21:
        return ordered[n - 11], f"p{100 * (n - 10) // n} of {n}"
    return ordered[-1], f"max of {n}"


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return (t0, time.perf_counter()), out


def run(args, probe):
    """Run the workload; returns the result and a function that adds the metrics.

    The metrics need the probe's samples, so they are computed after it stops.
    """
    import_iv = _import_vorstokes()
    import vorstokes

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(vorstokes.__file__), src]) != src:
        raise SystemExit(f"vorstokes imported from {vorstokes.__file__}, not {src}")
    import spans as tracing
    from workloads import WORKLOADS

    tmp_root = os.path.join(ROOT, ".perfbench", "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, tmp_root)
    info = {"machine": machine_info()}
    outcomes, units, traced, setups = [], [], [], []
    result = {"info": info}
    try:
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            wl.setup()
            wl.prepare()
            tracer.remove()
            while not traced or sum(t1 - t0 for t0, t1 in units + traced) < args.seconds:
                iv, out = timed(wl.unit)
                units.append(iv)
                outcomes.append(wl.check(out))
                tracer.run_id = f"timed:{len(traced)}"
                tracer.install()
                iv, out = timed(wl.unit)
                traced.append(iv)
                tracer.remove()
                outcomes.append(wl.check(out))
        else:
            for _ in range(SETUP_REPEATS):
                setups.append(timed(wl.setup)[0])
            prepare_iv, _ = timed(wl.prepare)
            while not units or sum(t1 - t0 for t0, t1 in units) < args.seconds:
                iv, out = timed(wl.unit)
                units.append(iv)
                outcomes.append(wl.check(out))
    except Exception:
        traceback.print_exc()
        attempted = sum(o.attempted for o in outcomes) + wl.ops_per_unit
        result.update(correct=False, attempted=attempted, failed=attempted, metrics={})
        info["errors"] = ["workload raised: " + traceback.format_exc().splitlines()[-1]]
        return result, None
    errors = [e for o in outcomes for e in o.errors]
    failed = sum(o.failed for o in outcomes)
    errs = [o.oracle_err for o in outcomes if o.oracle_err is not None]
    info.update(errors=errors[:20], unit_wall_s=[t1 - t0 for t0, t1 in units])
    if errs:
        info["oracle_err"] = max(errs)
    result.update(correct=not errors and failed == 0,
                  attempted=sum(o.attempted for o in outcomes), failed=failed)

    def finish():
        norm = [probe.normalize(*iv) for iv in units]
        if args.trace:
            traced_norm = [probe.normalize(*iv) for iv in traced]
            info["traced_wall_s"] = [t1 - t0 for t0, t1 in traced]
            metrics, info["missing"] = tracing.layer_metrics(
                tracer, args.workload, len(traced), probe.normalize,
                statistics.median(traced_norm) - statistics.median(norm),
                max(errs) if errs else None)
            path = os.path.join(ROOT, ".perfbench",
                                f"trace_{args.workload}_seed{args.seed}.jsonl")
            tracer.write_jsonl(path, {"workload": args.workload, "seed": args.seed,
                                      "machine": info["machine"]})
            info["spans_file"] = os.path.relpath(path, ROOT)
            return metrics
        states = [probe.normalize(*iv) for o in outcomes for iv in o.states]
        if not states:
            # one sample per unit: its time per operation (branch state, homotopy
            # entry or branch point)
            states = [n / o.attempted for n, o in zip(norm, outcomes)]
        tail, info["state_tail"] = tail_of(states)
        info["state_samples"] = len(states)
        setup_s = (probe.normalize(*import_iv)
                   + statistics.median(probe.normalize(*iv) for iv in setups)
                   + probe.normalize(*prepare_iv))
        return {
            "wall_s": {"value": statistics.median(norm), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "state_s.p50": {"value": statistics.median(states), "unit": "s"},
            "state_s.tail": {"value": tail, "unit": "s"},
            "artifact_bytes": {
                "value": statistics.median_low(o.artifact_bytes for o in outcomes),
                "unit": "bytes"},
        }

    return result, finish


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()
    probe = SpeedProbe(args.result + ".speed")
    try:
        result, finish = run(args, probe)
    finally:
        probe.stop()
    if finish is not None:
        result["metrics"] = finish()
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
