"""Benchmark entry point for mirec.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The workload's inputs come from --seed; the
timed phase runs whole synth -> train -> eval -> diagnose pipelines through
the `mirec` CLI for about S seconds (see harness.py). The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}, with the end-to-end metrics of BENCHMARK.json under --trace 0
and its per-layer metrics under --trace 1. The exit code is 0 only when
every output check passed.
"""

import argparse
import json
import os
import shutil
import sys

from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
STATE_DIR = os.path.join(ROOT, ".perfbench")

# BLAS threads are pinned rather than left to OpenBLAS, whose own choice
# makes timings depend on the scheduler; one thread was as fast as two for
# these matrix sizes on a 2-core machine.
BLAS_THREADS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_metrics(result, report, units, trace):
    """{name: {"value", "unit"}} for the result line, every value a number.

    A per-layer metric whose wrapped name no longer exists is unmeasured: it
    reads 0 and is named in the report. An end-to-end metric is always
    measured, so one that is not makes the run incorrect.
    """
    values = result["metrics"]
    absent = [name for name in units if name not in values]
    if absent:
        report.append(f"# problem: metrics not produced: {', '.join(absent)}")
        result["correct"] = False
    unmeasured = [name for name in units if name in values and values[name] is None]
    if unmeasured and not trace:
        report.append(f"# problem: end-to-end metrics unmeasured: "
                      f"{', '.join(unmeasured)}")
        result["correct"] = False
    return {name: {"value": 0 if values.get(name) is None else values[name],
                   "unit": unit}
            for name, unit in units.items()}


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(src, "mirec", "cli.py")):
        print(f"error: mirec sources not found under {src}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)  # before numpy is first imported
    sys.path.insert(0, src)
    import harness  # imports numpy, so only after the thread variables are set

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    work = os.path.join(STATE_DIR, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    trace_path = os.path.join(STATE_DIR, "traces",
                              f"{args.workload}-seed{args.seed}.json")
    try:
        result, report = harness.run_workload(
            args.workload, args.seed, args.seconds, args.trace, work, trace_path,
            list(units), BLAS_THREADS)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["metrics"] = result_metrics(result, report, units, args.trace)
    for line in report:
        print(line)
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']!s:>24} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
