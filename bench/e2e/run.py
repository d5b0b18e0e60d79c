#!/usr/bin/env python3
r"""Build and run bench_e2e, the repository's end-to-end benchmark.

One workload (the form BENCHMARK.json's command uses):

    python3 bench/e2e/run.py --workload po_cast_dom --seed 1 \
        --seconds 20 --trace 0

prints the benchmark's output; its last line is the result object
{"correct", "attempted", "failed", "metrics"}.

All workloads, each in a fresh process, written to one JSON file that
bench/e2e/agree.py compares:

    python3 bench/e2e/run.py --seed 1 --out .bench_build/BENCH_e2e.json
    python3 bench/e2e/run.py --seed 1 --trace 1 --trace-dir .bench_build \
        --out .bench_build/BENCH_e2e_traced.json
    python3 bench/e2e/run.py --smoke          # 0.3 s warm-up + 0.3 s each

Every run first builds the bench_e2e target of this checkout's CMake tree,
with bench/e2e/tree.cmake as the root project's include hook, in
$CARGO_TARGET_DIR, default .bench_build; an up-to-date build costs well
under a second. Build output goes to stderr so stdout stays the
benchmark's.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
PACKAGE = Path(__file__).resolve().parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no xmlreval sources under {ROOT / 'src'}")
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not build_dir.is_absolute():
        build_dir = ROOT / build_dir
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(ROOT), "-B", str(build_dir),
                     "-DCMAKE_PROJECT_xmlreval_INCLUDE="
                     f"{PACKAGE / 'tree.cmake'}"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target", "bench_e2e",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            fail(f"build step failed: {' '.join(step)}")
    return build_dir / "bench_e2e"


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def expected_metrics(trace):
    spec = benchmark_spec()
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def run_workload(binary, args, workload, trace_out=None):
    """Runs one workload in a fresh process: (lines, detail, result)."""
    command = [str(binary), "--workload", workload, "--seed", str(args.seed),
               "--trace", str(args.trace)]
    if args.smoke:
        command.append("--smoke")
    else:
        command += ["--seconds", str(args.seconds)]
    if trace_out is not None:
        command += ["--trace-out", str(trace_out)]
    budget = 60 + 3 * args.seconds
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: no result within {budget:.0f} s")
    lines = done.stdout.splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stdout.write(done.stdout)
        fail(f"{workload}: bench_e2e exited with {done.returncode}")
    detail = json.loads(lines[-2])["detail"]
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    printed = [(name, m["unit"]) for name, m in result["metrics"].items()]
    if printed != expected_metrics(args.trace):
        fail(f"{workload}: metrics differ from BENCHMARK.json: {printed}")
    return lines, detail, result


def main():
    spec = benchmark_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads,
                        help="one workload; omit to run all of them")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--out", help="all-workload run: write JSON here")
    parser.add_argument("--trace-dir",
                        help="traced all-workload run: write each "
                             "workload's Chrome trace here")
    args = parser.parse_args()

    binary = build()
    if args.workload:
        lines, _, result = run_workload(binary, args, args.workload)
        print("\n".join(lines), flush=True)
        return 0 if result["failed"] == 0 else 1

    report = {"seed": args.seed, "trace": args.trace,
              "seconds": 0.3 if args.smoke else args.seconds,
              "workloads": {}}
    failed = 0
    for workload in workloads:
        trace_out = None
        if args.trace and args.trace_dir:
            Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
            trace_out = (Path(args.trace_dir).resolve() /
                         f"trace_{workload}.json")
        _, detail, result = run_workload(binary, args, workload, trace_out)
        failed += result["failed"]
        report["workloads"][workload] = dict(result, detail=detail)
        print(f"{workload}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} "
              f"samples={detail['samples']} digest={detail['input_digest']}")
        if not args.trace:
            print(f"  {'latency_p99_us (detail)':42s} "
                  f"{detail['latency_p99_us']:14.6g} us "
                  f"({detail['quiet_samples']} quiet-half samples)")
        for name, metric in result["metrics"].items():
            if args.trace and metric["value"] == 0:
                continue  # the layer does no work in this workload
            print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
