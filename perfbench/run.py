"""Benchmark runner for logdgen: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload graph_small --seed 1 --seconds 20 --trace 0

The runner builds the workload's inputs from the seed, times whole rounds of
operations until ``--seconds`` of operation time (scaled to a reference
speed, see speed.py) and at least 100 operations have passed, checks every
result outside the timed region, and prints each metric by name with its
unit; the last line is one JSON object.  With ``--trace 0`` the metrics are
the end-to-end ones of BENCHMARK.json.  With ``--trace 1`` half the time
runs untraced, the same operations run again traced, then a fixed reference
set of calls into every layer runs traced, and the metrics are the
per-layer ones of BENCHMARK.json; the spans are written to
``.bench_build/perfbench/``.
"""

import argparse
import importlib
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

WORKLOADS = {
    "graph_small": ("graph_workloads", "GraphSmall"),
    "graph_large": ("graph_workloads", "GraphLarge"),
    "enum_arith": ("arith", "EnumArith"),
    "cli": ("cli_workload", "Cli"),
}
MIN_OPS = 100
SETUP_REPEATS = 11
INTERP_REPEATS = 5


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root):
    """Fresh interpreters see only the checkout's package and compile it from source."""
    return dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONDONTWRITEBYTECODE="1")


def interpreter_seconds(root, code, repeats, speed):
    """Median (scaled, raw) wall time of fresh interpreters running ``code``."""
    scaled, raw = [], []
    for _ in range(repeats):
        before = speed.factor()
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=child_env(root),
                              stdin=subprocess.DEVNULL, capture_output=True, timeout=120)
        raw.append(perf_counter() - start)
        scaled.append(raw[-1] * (before + speed.factor()) / 2)
        if proc.returncode != 0:
            fail(f"fresh interpreter failed on {code!r}: {proc.stderr.decode()[-500:]}")
    return statistics.median(scaled), statistics.median(raw)


def make(name, rng, tracer, root):
    module, cls = WORKLOADS[name]
    workload_cls = getattr(importlib.import_module(module), cls)
    return workload_cls(rng, tracer, root) if name == "cli" else workload_cls(rng, tracer)


class Phase:
    """Operations of one timed phase: latencies (scaled and raw), failures, repeats."""

    def __init__(self):
        self.latencies, self.raw, self.failed, self.wrong, self.repeats = [], [], 0, 0, 0

    @property
    def ops_per_s(self):
        return len(self.latencies) / sum(self.latencies)


def attempt(workload, tracer, speed, item):
    """Runs and checks one operation.

    Returns (seconds, speed factor, failed, wrong answer to a well-formed input).
    """
    before = speed.factor()
    tracer.op += 1
    start = perf_counter()
    try:
        result = tracer.call("bench.op", workload.run, item)
    except Exception as exc:  # counted as a failed operation, not fatal
        result = exc
    elapsed = perf_counter() - start
    factor = (before + speed.factor()) / 2
    try:
        ok = not isinstance(result, Exception) and workload.check(item, result)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError):
        ok = False
    return elapsed, factor, not ok, not ok and not item.robustness


def measure(workload, tracer, speed, rounds, seconds, seen, min_ops=MIN_OPS, played=None):
    """Whole rounds until ``seconds`` of scaled operation time and ``min_ops`` operations.

    Counting scaled time keeps the number of rounds, and so the mix of
    operations, independent of how fast the machine runs at the moment.
    Rounds run are appended to ``played`` when it is given, so that a
    traced phase can replay exactly the same operations.
    """
    phase = Phase()
    for items in rounds:
        if sum(phase.latencies) >= seconds and len(phase.latencies) >= min_ops:
            break
        if played is not None:
            played.append(items)
        for item in items:
            elapsed, factor, failed, wrong = attempt(workload, tracer, speed, item)
            phase.raw.append(elapsed)
            phase.latencies.append(elapsed * factor)
            phase.failed += failed
            phase.wrong += wrong
            phase.repeats += item.key in seen
            seen.add(item.key)
    return phase


def run_reference(tracer, speed, root):
    """Every workload's fixed reference calls; returns the wrong answers among them."""
    wrong = 0
    for name in WORKLOADS:
        workload = make(name, random.Random(0), tracer, root)
        try:
            wrong += sum(attempt(workload, tracer, speed, item)[3] for item in workload.reference())
        finally:
            if hasattr(workload, "close"):
                workload.close()
    return wrong


def git_commit(root):
    head = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head):
        return "unavailable: not a git checkout"
    with open(head) as handle:
        ref = handle.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(root, ".git", ref)
    if os.path.isfile(path):
        with open(path) as handle:
            return handle.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unresolved ref {ref}"


def layer_value(name, tracer, summary, extra):
    """A per-layer metric from the spans and counters, by the shape of its name."""
    if name in extra:
        return extra[name]
    calls, busy, self_time = summary
    parts = name.split(".")
    if len(parts) == 2 and parts[1] == "self_ms":
        return self_time[parts[0]] * 1000
    span, stat, bucket = ".".join(parts[:2]), parts[2], parts[3] if len(parts) > 3 else None
    if stat == "calls":
        return calls[span]
    if stat == "busy_ms":
        return busy[(span, bucket) if bucket else span] * 1000
    if stat == "hit_ratio":
        return tracer.counters[(span, "hits")] / (calls[span] or 1)
    if stat == "yield_ratio":
        return tracer.counters[(span, "solutions")] / (tracer.counters[(span, "candidates")] or 1)
    return tracer.counters[(span, stat)]


def main():
    parser = argparse.ArgumentParser(description="logdgen benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "logdgen", "__init__.py")):
        fail("run from the root of a logdgen checkout (src/logdgen not found)")
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(root, "src"))
    # One core for the runner and its children, so that the speed
    # calibration measures the core the timed work runs on.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    from spans import Tracer
    from speed import Speed

    rng = random.Random(args.seed)
    tracer, speed = Tracer(), Speed()
    module = WORKLOADS[args.workload][0]
    modules = getattr(importlib.import_module(module), WORKLOADS[args.workload][1]).modules
    setup_s, raw_setup_s = interpreter_seconds(root, "import " + ", ".join(modules), SETUP_REPEATS, speed)
    workload = make(args.workload, rng, tracer, root)
    rounds, seen = (workload.round(index) for index in itertools.count()), set()

    try:
        if args.trace == 0:
            phases = [measure(workload, tracer, speed, rounds, args.seconds, seen)]
            main_phase = phases[0]
            children = args.workload == "cli"
            rss = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF)
            values = {
                "setup_s": setup_s,
                "ops_per_s": main_phase.ops_per_s,
                "latency_p50_ms": statistics.median(main_phase.latencies) * 1000,
                "latency_p90_ms": statistics.quantiles(main_phase.latencies, n=10)[8] * 1000,
                "success_rate": 1 - main_phase.failed / len(main_phase.latencies),
                "peak_rss_mb": rss.ru_maxrss / 1024,
            }
            metrics = spec["end_to_end"]
            reference_wrong = 0
            raw = {"setup_s": raw_setup_s, "ops_per_s": len(main_phase.raw) / sum(main_phase.raw),
                   "latency_p50_ms": statistics.median(main_phase.raw) * 1000,
                   "latency_p90_ms": statistics.quantiles(main_phase.raw, n=10)[8] * 1000}
        else:
            played = []
            untraced = measure(workload, tracer, speed, rounds, args.seconds / 2, seen, 1, played)
            tracer.enabled = True
            traced = measure(workload, tracer, speed, played, math.inf, seen, 0)
            phases = [untraced, traced]
            reference_wrong = run_reference(tracer, speed, root)
            tracer.enabled = False
            floor = interpreter_seconds(root, "pass", INTERP_REPEATS, speed)[0]
            cli_import = interpreter_seconds(root, "import logdgen.cli", INTERP_REPEATS, speed)[0]
            extra = {
                "cli.interp_floor_ms": floor * 1000,
                "cli.import_ms": (cli_import - floor) * 1000,
                "trace.overhead_ratio": traced.ops_per_s / untraced.ops_per_s,
            }
            summary = tracer.summary()
            values = {m["name"]: layer_value(m["name"], tracer, summary, extra) for m in spec["per_layer"]}
            metrics = spec["per_layer"]
            raw = {}
    finally:
        if hasattr(workload, "close"):
            workload.close()

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    wrong = sum(p.wrong for p in phases) + reference_wrong
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "pinned_cpu": cpu, "git_commit": git_commit(root),
        "repeat_share": phases[0].repeats / len(phases[0].latencies),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", "unset"),
        "child_PYTHONDONTWRITEBYTECODE": "1",
        "calibration_ms": [round(min(speed.samples) * 1000, 4), round(statistics.median(speed.samples) * 1000, 4),
                           round(max(speed.samples) * 1000, 4)],
    }
    if args.trace:
        out_dir = os.path.join(root, ".bench_build", "perfbench")
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as handle:
            json.dump({"provenance": provenance, "fields": ["name", "bucket", "start", "end", "parent", "op"],
                       "spans": tracer.spans,
                       "counters": [[*key, value] for key, value in tracer.counters.items()]}, handle)
        print(f"spans written to {os.path.relpath(path, root)}")
    print("provenance " + json.dumps(provenance))
    print(f"samples {attempted} operations, {failed} failed")
    for m in metrics:
        print(f"{m['name']} {values[m['name']]} {m['unit']}")
    for name, value in raw.items():
        print(f"unscaled {name} {value}")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }))


if __name__ == "__main__":
    main()
