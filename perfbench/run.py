"""The cyclolog benchmark.

    python3 perfbench/run.py --workload verify|log-deep|log-wide|cli \
        --seed N --seconds S --trace 0|1

With --trace 0 it runs the workload untraced for whole periods of its mix,
about S seconds, and reports the end-to-end metrics; with --trace 1 it runs
the workload's first period of ops untraced and then traced, and reports the
per-layer metrics and the tracing overhead.  Every output is checked
exactly.  It prints one metric per line, writes the full result to
perfbench/results/, and ends with one JSON line: {"correct", "attempted",
"failed", "metrics"}.  It exits 1 if any check failed.
"""

import argparse
import json
import sys

import harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=harness.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness.use_source()

    if args.trace:
        result = harness.traced_run(args.workload, args.seed)
        reported, correct = harness.PER_LAYER, result["digests_match"]
    else:
        result = harness.timed_run(args.workload, args.seed, args.seconds)
        reported, correct = harness.END_TO_END, True
    correct = correct and result["failed"] == 0

    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"ops {result['attempted']}  (closed loop, one caller)")
    for name, value in sorted(result["metrics"].items()):
        print(f"  {name:<40} {value:.6g} {harness.unit_of(name)}")
    for name, value in result.get("printed_metrics", {}).items():
        print(f"  {name:<40} {value:.6g} {harness.unit_of(name)}")
    for key in ("inputs_digest", "outputs_digest", "traced_outputs_digest", "cpu_per_wall",
                "python", "nproc", "git_sha"):
        if key in result:
            print(f"  {key:<40} {result[key]}")
    for failure in result.get("failed_ops", []):
        print(f"  FAILED {json.dumps(failure)}")

    harness.RESULTS.mkdir(exist_ok=True)
    path = harness.RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")

    metrics = {name: {"value": result["metrics"][name], "unit": unit} for name, unit in reported}
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
