#!/usr/bin/env python3
"""Compare the benchmark of a parent revision and the working tree in interleaved pairs.

This is the repository's one timing harness and CI's one timing gate.

The parent is built from ``git archive <rev>`` under ``.bench_build/<rev>/``.
BENCHMARK.json's command then runs from each checkout's root, alternating
which side runs first, so that drifts in host speed fall on both sides.
``--pairs`` must be even: the first run of a pair reads differently from the
second (over 30 same-commit pairs on a 2-vCPU host, serve ``side_cost_ref``
read about 15 % lower for whichever side ran first), so each side runs first
in exactly half of the pairs. For
every workload and end-to-end metric this prints each side's median and
Q1-Q3 (``statistics.quantiles(values, n=4)``), how many pairs the change won
(the direction comes from the metric's ``better``), the change / parent
ratio of the medians and a verdict under the metric's ``bound``:

* ``worse``: the change's median is worse than the parent's by more than
  the bound (relative to the parent's median);
* ``gain``: over at least 10 pairs, the change wins at least 9 of 10 and
  the medians differ by more than the parent's Q1-Q3 width;
* ``unresolved``: the parent's (Q3 - Q1) / median exceeds the bound and
  not every change run beats every parent run;
* ``held``: anything else.

The last line of output is one JSON object with the same data plus every
pair's ``[parent, change]`` values. Run it from anywhere in the repository:

    python3 ci/bench_pairs.py --parent HEAD~1 --workload serve --pairs 10 --seed 1 --seconds 10
    python3 ci/bench_pairs.py --parent HEAD~1 --workload serve --pairs 2 --trace 1 \\
        --extra ledger.telemetry_us ledger.engine_us

``--extra`` adds per-layer metrics or detail lines (by name) to the table;
they get no verdict, and their wins assume lower is better. The exit status is
non-zero when any end-to-end metric reads ``worse`` on any workload, or when a
run prints no result line, reports ``failed > 0`` or reports ``"correct":
false`` (perfbench prints that with ``failed: 0`` when a run attempted
nothing). CI runs it on every push and pull request against ``HEAD^``.
"""

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True).stdout


def checkout(rev):
    """The parent's source tree, extracted once per commit."""
    sha = git("rev-parse", "--short=12", f"{rev}^{{commit}}").decode().strip()
    target = ROOT / ".bench_build" / sha
    if not target.is_dir():
        partial = target.with_name(sha + ".partial")
        shutil.rmtree(partial, ignore_errors=True)
        archive = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", sha)))
        if hasattr(tarfile, "data_filter"):
            archive.extractall(partial, filter="data")
        else:
            archive.extractall(partial)
        partial.rename(target)
    return sha, target


def run(command, cwd, workload, seed, seconds, trace):
    """One benchmark run: its failure count, correctness flag and metric and
    detail values, or None when it printed no result line."""
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=1800)
    except subprocess.TimeoutExpired:
        print(f"{cwd}: timed out after 1800 s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        values = {k: m["value"] for k, m in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        print(f"{cwd}: no result line (exit {done.returncode})\n{done.stderr[-2000:]}",
              file=sys.stderr)
        return None
    for line in lines[:-1]:
        # Detail lines read "<workload> <name> <value> <unit>".
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            try:
                values.setdefault(parts[1], float(parts[2]))
            except ValueError:
                pass
    return {"failed": result.get("failed", 0), "correct": result.get("correct", True),
            "values": values}


def summary(values):
    if not values:
        return None
    q1, q3 = statistics.quantiles(values, n=4)[::2] if len(values) > 1 else values * 2
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def verdict(parent, change, both, wins, better, bound):
    """The acceptance verdict of one end-to-end metric; see the module docs."""
    sign = 1 if better == "lower" else -1
    gained = sign * (parent["median"] - change["median"])
    spread = parent["q3"] - parent["q1"]
    if -gained > bound * abs(parent["median"]):
        return "worse"
    if len(both) >= 10 and 10 * wins >= 9 * len(both) and gained > spread:
        return "gain"
    beats_every = all(sign * (p - c) > 0 for p, _ in both for _, c in both)
    if spread > bound * abs(parent["median"]) and not beats_every:
        return "unresolved"
    return "held"


def compare(workload, pairs, metrics):
    """Per metric: both sides' medians and quartiles, wins, ratio, verdict
    and every pair's values."""
    rows = {}
    for name, better, bound in metrics:
        both = [(p["values"].get(name), c["values"].get(name)) for p, c in pairs]
        both = [(p, c) for p, c in both if p is not None and c is not None]
        if not both:
            continue
        parent, change = summary([p for p, _ in both]), summary([c for _, c in both])
        wins = sum(c < p if better == "lower" else c > p for p, c in both)
        ratio = change["median"] / parent["median"] if parent["median"] else None
        judged = None if bound is None else verdict(parent, change, both, wins, better, bound)
        rows[name] = {"parent": parent, "change": change, "wins": wins,
                      "pairs": len(both), "ratio": ratio, "better": better,
                      "bound": bound, "verdict": judged, "runs": [list(pc) for pc in both]}
    print(f"\n{workload}: {len(pairs)} pairs")
    print(f"  {'metric':<26}{'parent median [Q1-Q3]':>34}{'change median [Q1-Q3]':>34}"
          f"{'wins':>7}{'ratio':>8}  verdict")
    for name, r in rows.items():
        side = lambda s: f"{s['median']:.4g} [{s['q1']:.4g}-{s['q3']:.4g}]"
        ratio = "-" if r["ratio"] is None else f"{r['ratio']:.3f}"
        print(f"  {name:<26}{side(r['parent']):>34}{side(r['change']):>34}"
              f"{r['wins']:>4}/{r['pairs']:<2}{ratio:>8}  {r['verdict'] or '-'}")
    return rows


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", default="all", choices=names + ["all"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--extra", nargs="*", default=[],
                        help="per-layer metrics or detail lines to add to the table")
    args = parser.parse_args()
    if args.pairs % 2:
        parser.error(f"--pairs must be even so each side runs first equally often, not {args.pairs}")

    sha, parent_root = checkout(args.parent)
    sides = {"parent": parent_root, "change": ROOT}
    metrics = [(m["name"], m["better"], m["bound"]) for m in bench["end_to_end"]]
    metrics += [(name, "lower", None) for name in args.extra]
    workloads = names if args.workload == "all" else [args.workload]
    report = {"parent": sha, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "workloads": {}}
    broken = 0
    for workload in workloads:
        # An unrecorded warm-up run per side builds the binary and fills caches.
        for root in sides.values():
            run(bench["command"], root, workload, args.seed, 1, 0)
        pairs = []
        for i in range(args.pairs):
            order = ["change", "parent"] if i % 2 == 0 else ["parent", "change"]
            runs = {side: run(bench["command"], sides[side], workload, args.seed,
                              args.seconds, args.trace) for side in order}
            for side, result in runs.items():
                if result is None:
                    problem = "no result"
                elif result["failed"] > 0:
                    problem = f"failed {result['failed']}"
                elif result["correct"] is not True:
                    problem = "not correct"
                else:
                    continue
                broken += 1
                print(f"  {workload} pair {i} {side}: {problem}", file=sys.stderr)
            if all(runs.values()):
                pairs.append((runs["parent"], runs["change"]))
            print(f"  {workload} pair {i + 1}/{args.pairs} done ({order[0]} first)",
                  file=sys.stderr)
        report["workloads"][workload] = compare(workload, pairs, metrics)
    report["broken_runs"] = broken
    print(json.dumps(report))
    worse = [f"{workload} {name}" for workload, rows in report["workloads"].items()
             for name, row in rows.items() if row["verdict"] == "worse"]
    if worse:
        print(f"worse under the BENCHMARK.json bound: {', '.join(worse)}", file=sys.stderr)
    return 1 if broken or worse else 0


if __name__ == "__main__":
    sys.exit(main())
