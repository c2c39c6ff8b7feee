#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload and metric this prints the median of the runs and the
quartile spread (Q3 - Q1) / median, with the quartiles taken by
``statistics.quantiles(values, n=4)``, next to the metric's bound from
BENCHMARK.json. Run it from the repository root:

    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/spread.py --workloads serve --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 20261017 --trace 0 1 \\
        --record perfbench/results/baseline.json

``--bin`` runs an already built benchmark binary instead of the
BENCHMARK.json command; ``--record`` stores every run's context and result
lines as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    context = next((json.loads(l)["context"] for l in lines if l.startswith('{"context"')), {})
    return context, json.loads(lines[-1]), lines


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return mid, (q3 - q1) / abs(mid) if mid else float("inf")


def main():
    bench = json.load(open("BENCHMARK.json"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", nargs="+", type=int, default=[0])
    parser.add_argument("--bin", help="benchmark binary to run instead of the command")
    parser.add_argument("--record", help="write every run's lines to this JSON file")
    args = parser.parse_args()

    command = [args.bin] if args.bin else bench["command"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"] + bench["per_layer"]}
    recorded = []
    for workload in args.workloads:
        for trace in args.trace:
            values = {}
            failed = 0
            for seed in args.seeds:
                context, result, lines = run_once(command, workload, seed, args.seconds, trace)
                failed += result["failed"]
                recorded.append({"workload": workload, "seed": seed, "trace": trace,
                                 "context": context, "result": result, "lines": lines})
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
                print(f"  {workload} seed {seed} trace {trace}: failed {result['failed']}",
                      file=sys.stderr)
            print(f"\n{workload} (trace {trace}, {len(args.seeds)} seeds, failed {failed})")
            print(f"  {'metric':<36}{'median':>14}{'spread':>9}{'bound':>8}  ok")
            for name, vals in values.items():
                vals = [v for v in vals if v is not None]
                if len(vals) < 2:
                    continue
                mid, s = spread(vals)
                bound = bounds.get(name)
                ok = "" if bound is None else ("yes" if s < bound / 3 else
                                               "within bound" if s <= bound else "NO")
                print(f"  {name:<36}{mid:>14.6g}{s:>9.3f}{bound or '':>8}  {ok}")
    if args.record:
        with open(args.record, "w") as out:
            json.dump(recorded, out, indent=1)
            out.write("\n")


if __name__ == "__main__":
    main()
