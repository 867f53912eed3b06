#!/usr/bin/env python3
"""confsim benchmark: build it, run one workload, check it, report.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1>

Workloads (BENCHMARK.json says why each was chosen):
  paper_driver_suite   9 IBS traces of 200k branches, 64K gshare + the
                       paper's 7-estimator bank, SuiteRunner::run on one
                       thread
  mixed_sweep_10cfg    3 IBS traces of 200k branches, 8 gshare+CIR configs
                       + tage-provider + perceptron-margin,
                       SuiteRunner::runSweep
  sampled_cbt2_suite   9 IBS traces of 1M branches written as CBT2 in
                       set-up, 8 gshare+CIR configs sampled at 10% by
                       SamplingEngine::runTrace; not listed in
                       BENCHMARK.json, because on a 4-vCPU shared host its
                       run-to-run spread exceeds the largest bound allowed
                       (its layers are still timed by every --trace 1 run)

The first run builds the perfbench program (perfbench/CMakeLists.txt,
which compiles the confsim sources under src/) into .bench_build/; trace
files and the Perfetto trace of a --trace 1 run go to .bench_build/work/.
Build output goes to stderr. The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json under --trace 0 and its
per-layer metrics under --trace 1. A result counts as failed when its
pass threw, its invariants do not hold, it differs from the run's first
pass (traced passes included), or, at the default seed 0, its digest
differs from perfbench/digests.json. After a change that is meant to
alter simulated results, refresh the digests with

    python3 perfbench/run.py --workload <name> --seed 0 --seconds 1 \\
        --trace 0 --update-digests

Exit status: 0 with a correct result, 1 with an incorrect one, 2 when the
perfbench program cannot be built or run (no result is printed then).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
RUN_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the perfbench program up to date."""
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return BUILD / "perfbench"


def run_driver(binary, args):
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(WORK)]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def digest_mismatches(expected, actual):
    """Keys of `expected` whose digest `actual` lacks or differs from."""
    return sorted(k for k, v in expected.items() if actual.get(k) != v)


def check_run(args, result, declared):
    """Checks beyond the program's own; returns (attempted, failed, problems)."""
    checks = []

    # Self-test: a result with one count off must not pass as equal.
    one_off = result.get("one_off")
    digests = result["digests"]
    checks.append((
        one_off is not None and digest_mismatches(
            {one_off["key"]: digests.get(one_off["key"])},
            {one_off["key"]: one_off["digest"]}) == [one_off["key"]],
        "digest comparison misses a result with one count off"))

    # Self-test: every declared metric printed, with its unit, and only those.
    metrics = result["metrics"]
    for metric in declared:
        printed = metrics.get(metric["name"])
        checks.append((
            printed is not None and printed["unit"] == metric["unit"],
            f"metric {metric['name']} not printed with unit {metric['unit']}"))
    names = {metric["name"] for metric in declared}
    for name in metrics:
        checks.append((name in names,
                       f"metric {name} is not declared in BENCHMARK.json"))

    # Self-test: the traced run's Perfetto trace is well formed.
    if args.trace:
        trace_file = result.get("trace_file", "")
        ok = bool(trace_file) and subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "validate_trace.py"),
             trace_file], stdout=sys.stderr, stderr=sys.stderr).returncode == 0
        checks.append((ok, f"trace {trace_file} fails validate_trace.py"))

    attempted = len(checks)
    problems = [what for ok, what in checks if not ok]
    failed = len(problems)

    # The default seed's results must match the stored digests. Every
    # pass of the run produced the same results as the first, or the
    # program has already counted the difference.
    if args.seed == DEFAULT_SEED and not args.update_digests:
        stored = json.loads(DIGESTS.read_text()).get(args.workload, {})
        mismatched = digest_mismatches(stored, digests)
        if not stored or mismatched:
            failed += max(1, len(mismatched)) * result["passes"]
            problems += [f"{key}: digest differs from {DIGESTS.name}"
                         for key in mismatched] or [
                f"no stored digests for {args.workload}"]
    return attempted, failed, problems


def update_digests(args, result):
    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    stored[args.workload] = result["digests"]
    DIGESTS.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")
    log(f"wrote {len(result['digests'])} digests for {args.workload} "
        f"to {DIGESTS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--update-digests", action="store_true",
                        help="store this run's digests (seed 0 only)")
    args = parser.parse_args()
    if args.update_digests and args.seed != DEFAULT_SEED:
        parser.error("--update-digests needs --seed 0")

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        binary = build()
        WORK.mkdir(parents=True, exist_ok=True)
        result = run_driver(binary, args)
    except (OSError, ValueError, subprocess.SubprocessError) as error:
        log(f"perfbench: {error}")
        return 2

    declared = spec["per_layer" if args.trace else "end_to_end"]
    attempted, failed, problems = check_run(args, result, declared)
    attempted += result["attempted"]
    failed += result["failed"]
    problems = result["problems"] + problems
    if args.update_digests and not failed:
        update_digests(args, result)

    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']!s:>20} {metric['unit']}")
    for name, value in result["info"].items():
        print(f"{'info.' + name:48s} {value!s:>20}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: result["metrics"][m["name"]]
                    for m in declared if m["name"] in result["metrics"]},
    }
    print(json.dumps(report), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
