"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the last line of standard output is a JSON object
with every end-to-end metric; with ``--trace 1`` it holds every
per-layer metric instead.  The lines before it give host and input
facts and the workload's own figures.  A wrong answer, a failed
statement or a missing program makes the run exit non-zero.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback

import harness
import metrics

WORKLOADS = ("analytic", "etl", "dashboard")
OUT_DIR = harness.ROOT / ".perfbench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    try:
        harness.import_program()
    except (harness.BenchError, ImportError) as exc:
        print("perfbench: cannot load the program: %s" % exc, file=sys.stderr)
        return 2
    module = __import__(args.workload)
    try:
        outcome = module.run(args.seed, args.seconds, bool(args.trace), OUT_DIR)
    except harness.BenchError as exc:
        traceback.print_exc()
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 1

    wanted = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    values = outcome["metrics"]
    if args.trace:
        # Layers a workload does not reach read 0.
        values = {**dict.fromkeys(metrics.PER_LAYER, 0.0), **values}
    missing = sorted(set(wanted) - set(values))
    if missing:
        print("perfbench: workload did not report %s" % missing, file=sys.stderr)
        return 1
    facts = {"workload": args.workload, "seed": args.seed,
             "seconds": args.seconds, "trace": args.trace,
             **harness.host_facts(), **outcome["facts"]}
    print("facts " + json.dumps(facts, sort_keys=True))
    print("info " + json.dumps(outcome["info"], sort_keys=True))
    for name, (unit, _) in wanted.items():
        print("%-40s %.6g %s" % (name, values[name], unit))
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, (unit, _) in wanted.items()},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
