"""reebforge benchmark: one workload, one process, one closed-loop client.

    python3 reebbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory and nowhere else, so the command fails, printing no result,
when the sources are missing. Set-up is timed SETUP_REPEATS times and its
median reported; then ops run back to back, each after the previous one
returned, on the calling thread, until S seconds have passed.

Every reported time is scaled to a reference core speed. A fixed calibration
task runs after each op and around each set-up; a time is multiplied by
REFERENCE_CAL_S over the median calibration time next to it. The unscaled
values are in the ``details`` line.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs a fixed number
of ops (derived from S, so counts repeat for a seed) once plain and once with
the layer spans of spans.py, prints the per-layer metrics and writes the spans
to ``.reebbench/traces/``. The last stdout line is the JSON result; the lines
before it record the environment and each metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

from spans import PER_LAYER_METRICS, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("sweep-sphere", "realize-certify", "cli-crosscheck")
SETUP_REPEATS = 5
# traced-run ops per second of --seconds; each op runs twice (plain, traced)
TRACE_OPS_PER_SECOND = {"sweep-sphere": 0.8, "realize-certify": 1.2, "cli-crosscheck": 1.6}
MAX_REPORTED_PROBLEMS = 5
# calibrate() time on the reference core; every reported time is scaled to it
REFERENCE_CAL_S = 0.010
CAL_WINDOW = 9

_CAL_EDGES = [(a % 3000, a // 3000) for a in random.Random(0).sample(range(9_000_000), 6000)]

END_TO_END = (
    ("setup_s", "s"),
    ("triangles_per_s", "1/s"),
    ("op_mean_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def import_program():
    """Put the checkout's src/ first on sys.path; refuse any other reebforge."""
    if not os.path.isfile(os.path.join(SRC, "reebforge", "__init__.py")):
        raise SystemExit(f"error: reebforge sources not found under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import reebforge

    if not os.path.abspath(reebforge.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported reebforge from {reebforge.__file__}, not {SRC}")


def calibrate():
    """Seconds taken by a fixed union-find, adjacency and sort task.

    The task shares no code with reebforge but works on dicts, tuples and
    lists as the program does. On a shared host the core's speed drifts by tens
    of percent over tens of seconds; this task slows in the same proportion
    as the ops, so timings divided by it stay steady.
    """
    start = time.perf_counter()
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    adj = {}
    for a, b in _CAL_EDGES:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
        adj.setdefault(a, []).append((b, a))
    sorted(adj.items(), key=lambda kv: (len(kv[1]), kv[0]))
    return time.perf_counter() - start


def scaled(times, cals):
    """Each time at reference core speed, using the median calibration of its neighbours."""
    half = CAL_WINDOW // 2
    return [
        t * REFERENCE_CAL_S / statistics.median(cals[max(0, i - half) : i + half + 1])
        for i, t in enumerate(times)
    ]


class RunState:
    """What ops share with the harness: counters, output digests, a scratch dir."""

    def __init__(self, state_dir):
        self.scratch = os.path.join(state_dir, "tmp")
        os.makedirs(self.scratch, exist_ok=True)
        self.counts = Counter()
        self.digests = None


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload, seed, seconds, trace):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "load": "closed loop, 1 client, no threads",
    }


class Attempts:
    """Runs ops, turning exceptions and failed checks into counted failures."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def run(self, i):
        self.attempted += 1
        try:
            triangles, problem = self.workload.run_op(i)
        except Exception:  # an op that raises is a failed op; keep measuring
            triangles, problem = 0, traceback.format_exc()
        if problem is not None:
            self.failed += 1
            if self.failed <= MAX_REPORTED_PROBLEMS:
                print(f"op {i} failed: {problem}", file=sys.stderr)
            return 0
        return triangles


def _timed(attempts, seconds):
    """Closed loop until `seconds` pass; a calibration follows every op."""
    latencies = []
    cals = []
    triangles = 0
    i = 0
    start = time.perf_counter()
    deadline = start + seconds
    while i == 0 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        triangles += attempts.run(i)
        latencies.append(time.perf_counter() - t0)
        cals.append(calibrate())
        i += 1
    return latencies, cals, triangles, time.perf_counter() - start


def _passes(attempts, ops, tracer=None):
    """Run ops 0..ops-1 once; returns (raw seconds, seconds at reference speed)."""
    times = []
    cals = []
    for i in range(ops):
        t0 = time.perf_counter()
        if tracer is None:
            attempts.run(i)
        else:
            with tracer.op_span(i):
                attempts.run(i)
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
    return sum(times), sum(scaled(times, cals))


def _percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _traced(workload, attempts, state, seconds, trace_path):
    ops = max(1, round(seconds * TRACE_OPS_PER_SECOND[workload.name]))
    plain_wall, plain_ref = _passes(attempts, ops)
    state.counts.clear()
    tracer = Tracer(state.counts)
    tracer.install()
    try:
        traced_wall, traced_ref = _passes(attempts, ops, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(ops)
    metrics["trace.overhead_frac"] = traced_ref / plain_ref - 1.0
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    tracer.write(trace_path)
    details = {
        "ops": ops,
        "plain_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "plain_ref_s": plain_ref,
        "traced_ref_s": traced_ref,
    }
    return metrics, details


def run_benchmark(name, seed, seconds, trace, state_dir, sizes=None):
    """Set up and run one workload; returns (result, details).

    `sizes` overrides the workload's input sizes (smoke tests only).
    """
    from workloads import DigestStore, make_workload

    state = RunState(state_dir)
    workload = make_workload(name, seed, state, **(sizes or {}))
    stem = f"{name}-seed{seed}-{workload.tag}"
    state.digests = DigestStore(os.path.join(state_dir, "digests", stem + ".json"))
    setup_times = []
    setup_cals = [calibrate()]
    try:
        for _ in range(SETUP_REPEATS):
            workload.close()
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
            setup_cals.append(calibrate())
        attempts = Attempts(workload)
        if trace:
            trace_path = os.path.join(state_dir, "traces", stem + ".tsv.gz")
            metrics, details = _traced(workload, attempts, state, seconds, trace_path)
        else:
            latencies, cals, triangles, wall = _timed(attempts, seconds)
            ref = scaled(latencies, cals)
            setup_scale = REFERENCE_CAL_S / statistics.median(setup_cals)
            metrics = {
                "setup_s": statistics.median(setup_times) * setup_scale,
                "triangles_per_s": triangles / sum(ref),
                "op_mean_ms": 1000.0 * statistics.fmean(ref),
                "op_p90_ms": 1000.0 * _percentile(ref, 90),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            details = {
                "ops": len(latencies),
                "p90_samples_beyond": sum(1 for x in ref if 1000.0 * x > metrics["op_p90_ms"]),
                "op_p50_ms": 1000.0 * statistics.median(ref),
                "calibration_ms": 1000.0 * statistics.median(cals),
                "wall_s": wall,
                "wall_setup_s": statistics.median(setup_times),
                "wall_triangles_per_s": triangles / sum(latencies),
                "wall_op_mean_ms": 1000.0 * statistics.fmean(latencies),
                "wall_op_p50_ms": 1000.0 * statistics.median(latencies),
                "wall_op_p90_ms": 1000.0 * _percentile(latencies, 90),
            }
    finally:
        workload.close()
        state.digests.save()
    details["setup_runs_s"] = setup_times
    details["fail_frac"] = attempts.failed / attempts.attempted
    result = {
        "correct": attempts.failed == 0,
        "attempted": attempts.attempted,
        "failed": attempts.failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    import_program()
    env = environment(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"env": env}, sort_keys=True))
    result, details = run_benchmark(
        args.workload, args.seed, args.seconds, args.trace, os.path.join(ROOT, ".reebbench")
    )
    units = dict(END_TO_END)
    if args.trace:
        units = {name: unit for name, unit, _ in PER_LAYER_METRICS}
    print(json.dumps({"details": details}, sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{name} = {value} {units[name]}")
    result["metrics"] = {
        name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
