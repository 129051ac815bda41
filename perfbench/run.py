"""gcshelm benchmark runner.

    python3 perfbench/run.py --workload table-het --seed 1 --seconds 15 --trace 0

Runs one workload (see README.md in this directory) from the source tree
next to this directory: a warm-up, then timed passes until ``--seconds``
have elapsed (at least one).  Every operation's output is checked against
this code's seed outputs.  The last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload untraced and traced,
each in a fresh process, and prints one summary table including the
tracing overhead.
"""

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# fresh set-up processes per untraced run, half before the warm-up and half
# after the timed passes, so that their median spans the whole run
SETUP_REPEATS = 12
WORKLOADS = ("table-hom", "table-het", "scaling-hom", "diagnose")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("rel_error_gmean", "ratio"),
)
BENCH_LAYER_METRICS = (("bench.traced_wall_s", "s"), ("bench.accounted_frac", "ratio"))


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="shuffles the cell order of table passes")
    parser.add_argument("--seconds", type=float, default=15.0, help="timed passes run at least this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true", help="import gcshelm, build the inputs and exit"
    )
    return parser


def use_checkout_source():
    """Pin BLAS threads and import gcshelm from this checkout's src/, or raise."""
    if not os.path.isdir(os.path.join(SRC, "gcshelm")):
        raise RuntimeError(f"no gcshelm sources under {SRC}")
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    sys.path.insert(0, SRC)
    import gcshelm

    if not os.path.abspath(gcshelm.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"imported gcshelm from {gcshelm.__file__}, not from {SRC}")


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
    }


def _setup_times(args, repeats):
    """Wall times of fresh processes that import gcshelm and build the inputs."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def run_pass(workload, rng, log):
    """Time one pass; return (seconds, [(name, output or exception, systems, check)])."""
    ops = workload.operations()
    if workload.shuffled:
        rng.shuffle(ops)
    results = []
    t0 = time.perf_counter()
    for name, call, check_op in ops:
        first = len(log.systems)
        try:
            out = call()
        except Exception as exc:  # an operation that raises counts as failed
            out = exc
        results.append((name, out, log.systems[first:], check_op))
    return time.perf_counter() - t0, results


def check(results):
    """Outcome of every operation of a pass."""
    from workloads import Outcome

    outcomes = []
    for name, out, systems, check_op in results:
        if isinstance(out, Exception):
            outcomes.append(Outcome(name, f"raised {type(out).__name__}: {out}", (), ""))
            continue
        try:
            outcomes.append(check_op(name, out, systems))
        except Exception as exc:  # an output the check cannot read is wrong
            outcomes.append(Outcome(name, f"check raised {type(exc).__name__}: {exc}", (), ""))
    return outcomes


def _metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args):
    """Run one workload; print details and return the result object."""
    import workloads
    from tracer import LAYER_METRICS, SystemLog, Tracer

    print("env " + json.dumps(_environment(), sort_keys=True))
    setup_times = [] if args.trace else _setup_times(args, SETUP_REPEATS // 2)
    workload = workloads.make(args.workload)
    workload.warm_up()

    rng = random.Random(args.seed)
    times, outcomes = [], []
    with SystemLog() as log, (Tracer() if args.trace else nullcontext()) as tracer:
        start = time.perf_counter()
        while not times or time.perf_counter() - start < args.seconds:
            seconds, results = run_pass(workload, rng, log)
            times.append(seconds)
            checked = check(results)
            print(f"pass {len(times)} seed={args.seed} {seconds:.3f} s order: "
                  + ", ".join(o.name for o in checked))
            if len(times) == 1:
                for o in checked:
                    print(f"  {o.name}: {o.detail}")
            outcomes.extend(checked)
    failures = [o for o in outcomes if o.failure]
    for o in failures:
        print(f"FAILED {o.name}: {o.failure}")

    if not args.trace:
        setup_times += _setup_times(args, SETUP_REPEATS - len(setup_times))
    wall_s = statistics.median(times)
    errors = [e for o in outcomes for e in o.errors]
    rel_error_gmean = math.exp(statistics.fmean(math.log(e) for e in errors)) if errors else 1.0
    print(f"workload {args.workload}: {len(times)} timed passes, "
          f"{len(outcomes)} operations, {len(failures)} failed, "
          f"fail_frac = {len(failures) / len(outcomes):.4f} ratio")
    if args.trace:
        values = tracer.layer_metrics(len(times), log.systems)
        values["bench.traced_wall_s"] = wall_s
        values["bench.accounted_frac"] = tracer.top_s / sum(times)
        units = dict(LAYER_METRICS + BENCH_LAYER_METRICS)
        for name, value in values.items():
            share = f"  ({value / wall_s:6.1%} of pass)" if units[name] == "s" else ""
            print(f"  {name:32s} {value:14.6g} {units[name]}{share}")
        metrics = {name: _metric(value, units[name]) for name, value in values.items()}
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values = {"wall_s": wall_s, "setup_s": statistics.median(setup_times),
                  "peak_rss_mb": peak_rss_mb,
                  "rel_error_gmean": rel_error_gmean}
        metrics = {name: _metric(values[name], unit) for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:16s} {values[name]:.6g} {unit}")
    return {
        "correct": not failures,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": metrics,
    }


def summary(args):
    """Every workload, untraced and traced, each in a fresh process: one table."""
    rows = []
    for name in WORKLOADS:
        result = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            result[trace] = json.loads(out.strip().splitlines()[-1])
        m, t = result[0]["metrics"], result[1]["metrics"]
        traced = t["bench.traced_wall_s"]["value"]
        rows.append((name, m, result[0], traced, t["bench.accounted_frac"]["value"]))
    print(f"{'workload':12s} {'wall_s':>9s} {'setup_s':>8s} {'peak_rss_mb':>11s} "
          f"{'rel_error_gmean':>15s} {'fail_frac':>9s} {'traced_s':>9s} {'overhead_s':>10s} {'accounted':>9s}")
    for name, m, res, traced, accounted in rows:
        print(f"{name:12s} {m['wall_s']['value']:9.3f} {m['setup_s']['value']:8.3f} "
              f"{m['peak_rss_mb']['value']:11.1f} {m['rel_error_gmean']['value']:15.4e} "
              f"{res['failed'] / res['attempted']:9.4f} {traced:9.3f} "
              f"{traced - m['wall_s']['value']:10.3f} {accounted:9.1%}")
    print("units: wall_s, setup_s, traced_s, overhead_s in s; peak_rss_mb in MB; "
          "rel_error_gmean and fail_frac are ratios")


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        use_checkout_source()
    except (RuntimeError, ImportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        summary(args)
        return 0
    if args.setup_only:
        import workloads

        workloads.make(args.workload)
        return 0
    print(json.dumps(measure(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
