"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload verify-order4 --seed 1 --seconds 12 --trace 0

Run it from the root of a source checkout: it imports cayleysg from ./src
and pins itself, and the processes it starts, to one CPU.  The workloads
are described in bench_workloads.py and the metrics in BENCHMARK.json.
With --trace 0 the last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding every end-to-end metric.  Times and rates are in reference
seconds: each measured duration is scaled by the host speed sampled around
it (bench_probe.py explains why and how); the measured values are in the
record line.  With --trace 1 the last line holds the per-layer metrics
instead, the run's spans are written to
.perfbench_out/trace-<workload>-seed<seed>.jsonl, and a table of the layers
and the end-to-end metric each should move is printed before it.

The line before the result is a JSON record of the run: the environment
(nproc, CPU, Python and numpy versions, 1-minute load average at start,
seed), the error rate (failed / attempted: a wrong answer, an exception
or a refused query), the measured values, the host speed samples, the
tail percentile and its sample count, and any failures.  It is also
written to .perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json.
Results from different machines or seeds are not comparable.

Exit status 0 when a result was printed (read "correct" for the checks),
2 when there is no cayleysg source to run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("verify-order4", "closed-wide", "element-queries", "cli-oneshot")

# setup_s is the median import of cayleysg in a fresh interpreter plus the
# median build of the inputs, each done this many times.
SETUP_REPEATS = 3
PROBE_REPEATS = 3
# op_tail_s is the latency with this many samples beyond it.
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="cayleysg benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment(args) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def tail(latencies, beyond: int = TAIL_BEYOND):
    """(latency, percentile, samples beyond it) at the highest percentile
    with `beyond` samples above it, or the maximum when there are fewer."""
    ordered = sorted(latencies)
    if not ordered:
        return 0.0, 0.0, 0
    index = max(0, len(ordered) - beyond - 1)
    return ordered[index], 100.0 * (index + 1) / len(ordered), len(ordered) - 1 - index


def import_seconds(env: dict) -> float:
    """Time the import of cayleysg takes in a fresh interpreter."""
    code = (
        "import time; start = time.perf_counter(); import cayleysg; "
        "print(time.perf_counter() - start)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
        capture_output=True, text=True, timeout=120,
    )
    return float(proc.stdout)


def probe_seconds(code: str, env: dict) -> float:
    """Median wall time of a few `python -c code` processes."""
    times = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env, check=True, timeout=120
        )
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cayleysg" / "__init__.py").is_file():
        print("perfbench: no cayleysg source under %s" % SRC, file=sys.stderr)
        return 2
    env = environment(args)
    # One CPU for this process and the processes it starts, so the speed
    # samples are taken where the measured work runs.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env["cpu"] = cpu

    sys.path.insert(0, str(SRC))
    import cayleysg  # noqa: F401

    numpy = sys.modules.get("numpy")
    env["numpy"] = numpy.__version__ if numpy is not None else None

    import bench_probe
    import bench_trace
    import bench_workloads

    OUT_DIR.mkdir(exist_ok=True)
    scaler = bench_probe.Scaler()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        measured = {"import": [], "build": []}
        scaled = {"import": [], "build": []}
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = bench_workloads.WORKLOADS[args.workload](args.seed, Path(workdir))
            first_pass = workload.build_pass(0)
            measured["build"].append(time.perf_counter() - start)
            measured["import"].append(import_seconds(bench_workloads.cli_env()))
            for kind in ("build", "import"):
                scaler.add(measured[kind][-1], kind)
            for seconds, kind in scaler.settle():
                scaled[kind].append(seconds)
        setup_s = statistics.median(scaled["import"]) + statistics.median(scaled["build"])
        measured_setup_s = statistics.median(measured["import"]) + statistics.median(
            measured["build"]
        )

        tracer = bench_trace.Tracer() if args.trace else bench_trace.NullTracer()
        with bench_trace.installed(tracer) if args.trace else contextlib.nullcontext():
            outcome = bench_workloads.measure(
                workload, first_pass, args.seconds, tracer, scaler
            )

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-oneshot" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    tail_s, tail_pct, tail_beyond = tail(outcome.latencies)

    record = {
        "env": env,
        "ops": outcome.attempted,
        "failed": outcome.failed,
        "error_rate": outcome.failed / outcome.attempted if outcome.attempted else 1.0,
        "pass_ops_per_s": outcome.pass_rates,
        "busy_s": outcome.busy_s,
        "setup_measured_s": measured,
        "measured": {
            "ops_per_s": statistics.median(outcome.raw_pass_rates) if outcome.raw_pass_rates else 0.0,
            "op_p50_s": statistics.median(outcome.raw_latencies) if outcome.raw_latencies else 0.0,
            "op_tail_s": tail(outcome.raw_latencies)[0],
            "setup_s": measured_setup_s,
        },
        "probe_s": {
            "reference": bench_probe.REFERENCE_S,
            "samples": len(outcome.probe_samples),
            "median": statistics.median(outcome.probe_samples),
            "min": min(outcome.probe_samples),
            "max": max(outcome.probe_samples),
        },
        "op_tail": {"percentile": tail_pct, "samples": len(outcome.latencies),
                    "beyond": tail_beyond},
        "failures": outcome.failures,
        "pass_errors": outcome.pass_errors,
    }
    units = {}
    if args.trace:
        child_env = bench_workloads.cli_env()
        probes = {
            "interpreter_s": probe_seconds("pass", child_env),
            "import_s": probe_seconds("import cayleysg", child_env),
        }
        values = bench_trace.summarize(
            tracer.spans, outcome.busy_s, outcome.ops_per_s, probes, bench_trace.span_cost()
        )
        tracer.write(OUT_DIR / ("trace-%s-seed%d.jsonl" % (args.workload, args.seed)))
        untraced = _read_result(args.workload, args.seed, 0)
        if untraced is not None and untraced["metrics"]["ops_per_s"]["value"]:
            plain = untraced["metrics"]["ops_per_s"]["value"]
            record["untraced_ops_per_s"] = plain
            record["measured_trace_overhead"] = 1.0 - values["bench.ops_per_s_traced"] / plain
        for name, unit, _better, moves in bench_trace.PER_LAYER:
            units[name] = unit
            print("layer %-44s %14.6g %-6s -> %s" % (name, values[name], unit, moves))
    else:
        values = {
            "ops_per_s": outcome.ops_per_s,
            "op_p50_s": statistics.median(outcome.latencies) if outcome.latencies else 0.0,
            "op_tail_s": tail_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        }
        units = END_TO_END_UNITS

    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    record["metrics"] = result["metrics"]
    result_path = OUT_DIR / ("result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    result_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


def _read_result(workload: str, seed: int, trace: int):
    path = OUT_DIR / ("result-%s-seed%d-trace%d.json" % (workload, seed, trace))
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


if __name__ == "__main__":
    sys.exit(main())
