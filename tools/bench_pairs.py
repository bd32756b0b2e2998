#!/usr/bin/env python3
"""Alternating parent/change runs of perfbench, summarised as a BENCH file.

Export both trees first, so that neither carries byte-compiled files, then
run from the directory that is to receive the BENCH file::

    git archive <parent> | tar -x -C /tmp/parent
    git archive <change> | tar -x -C /tmp/change   # or copy the work tree
    python3 tools/bench_pairs.py /tmp/parent /tmp/change --pr <n> \\
        --parent-commit <sha> --claim dense-profile:wall_s

For every workload of the change's ``BENCHMARK.json``, pair k (10 pairs)
runs ``perfbench/run.py --workload <w> --seed <first-seed + k> --seconds
<run_seconds> --trace 0`` in each tree, with ``run_seconds`` read from
``BENCHMARK.json``, the parent first in even pairs and the change first in
odd ones, with ``PYTHONDONTWRITEBYTECODE=1``.  Each run's last-line JSON
is kept with its seed, pair and first side, and ``BENCH_<pr>.json``,
written in the current directory, gets, per workload
and end-to-end metric of ``BENCHMARK.json``, both sides' median and
quartiles, the pairs the change won (ties count for neither), the failed
commands of each side, the change of the median in percent and the
parent's quartile spread.

Each summary entry also states the rules it is used to show (``judge``):
every end-to-end metric gets ``within_bound``, true when the change's
median is no worse than the parent's by more than the metric's ``bound``
in ``BENCHMARK.json`` (a fraction of the parent's median), and
``unresolved``, true when the parent's quartile spread is wider than that
bound, so that a median within it shows nothing, unless every run of the
change reads better than every run of the parent; the claimed (workload,
metric), if any, also gets ``claim_met``, true when the change won at
least 9 of the 10 pairs and its median is better than the parent's by
more than the parent's quartile spread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10
# pairs of PAIRS that a claimed gain must win
CLAIM_WINS = 9


def quartiles(values):
    """(q1, median, q3), with the quartiles of ``statistics.quantiles``'s
    inclusive method."""
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], statistics.median(values), q[2]


def summarize(runs, spec):
    """Per workload and metric of ``spec`` (BENCHMARK.json's end_to_end
    list), the comparison of the paired runs in ``runs``:
    ``{workload: {"parent": [run, ...], "change": [run, ...]}}``, where a
    run is the last-line JSON of perfbench/run.py with its ``pair``."""
    summary = {}
    for workload, sides in runs.items():
        by_pair = [{r["pair"]: r for r in sides[side]} for side in SIDES]
        pairs = sorted(set(by_pair[0]) & set(by_pair[1]))
        out = {}
        for metric in spec:
            name = metric["name"]
            values = [[by_pair[s][p]["metrics"][name]["value"] for p in pairs]
                      for s in range(2)]
            sign = 1 if metric["better"] == "lower" else -1
            stats = {}
            for side, vals in zip(SIDES, values):
                q1, median, q3 = quartiles(vals)
                stats[side] = {"median": median, "q1": q1, "q3": q3}
            out[name] = {
                "pairs": len(pairs),
                **stats,
                "change_better_in": sum(sign * (c - p) < 0
                                        for p, c in zip(*values)),
                "failed": [sum(r["failed"] for r in sides[side])
                           for side in SIDES],
                "all_correct": all(r["correct"] for side in SIDES
                                   for r in sides[side]),
                "median_change_pct": 100.0 * (stats["change"]["median"]
                                              / stats["parent"]["median"]
                                              - 1.0),
                "parent_iqr": stats["parent"]["q3"] - stats["parent"]["q1"],
            }
        summary[workload] = out
    return summary


def judge(runs, spec, claim=None):
    """The ``summarize`` of ``runs`` with each entry's rules added:
    ``within_bound`` and ``unresolved`` for every metric of ``spec``
    (BENCHMARK.json's end_to_end list, with its ``bound``s), and
    ``claim_met`` for the claimed ``{"workload", "metric"}`` only."""
    out = {}
    for workload, metrics in summarize(runs, spec).items():
        out[workload] = {}
        for metric in spec:
            name = metric["name"]
            entry = metrics[name]
            # > 0 where the change is better, in the metric's direction
            sign = 1 if metric["better"] == "lower" else -1
            gain = sign * (entry["parent"]["median"]
                           - entry["change"]["median"])
            bound = metric["bound"] * entry["parent"]["median"]
            # every run of each side, in the metric's direction, lower
            # being better
            parent, change = ([sign * r["metrics"][name]["value"]
                               for r in runs[workload][side]]
                              for side in SIDES)
            verdict = {"within_bound": -gain <= bound,
                       "unresolved": (entry["parent_iqr"] > bound
                                      and max(change) >= min(parent))}
            if claim == {"workload": workload, "metric": name}:
                verdict["claim_met"] = (
                    entry["change_better_in"] >= CLAIM_WINS
                    and gain > entry["parent_iqr"])
            out[workload][name] = {**entry, **verdict}
    return out


def run_once(tree: Path, workload, seed, seconds):
    """perfbench's last-line JSON for one workload in one tree."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pairs: {workload} in {tree} exited "
                         f"{proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(lines[-1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="exported parent tree")
    ap.add_argument("change", type=Path, help="exported change tree")
    ap.add_argument("--pr", type=int, required=True,
                    help="number in the name of the BENCH file written")
    ap.add_argument("--parent-commit", required=True,
                    help="commit id of the parent tree, recorded in the file")
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--claim", default=None, metavar="WORKLOAD:METRIC")
    args = ap.parse_args(argv)

    with open(args.change / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            seed = args.first_seed + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                run = run_once(trees[side], workload, seed, seconds)
                run.update(seed=seed, pair=pair, first=order[0])
                runs[workload][side].append(run)
                wall = run["metrics"].get("wall_s", {}).get("value")
                print(f"{workload} pair {pair} {side}: wall_s {wall}",
                      flush=True)

    claim = None
    if args.claim:
        workload, metric = args.claim.split(":")
        claim = {"workload": workload, "metric": metric}
    doc = {
        "description": (
            f"Last-line JSON of perfbench/run.py (--seconds {seconds} "
            "--trace 0) for the parent commit and this change, in "
            "alternating pairs; 'first' names the side that ran first in "
            "the pair, 'seed' is the --seed given to both sides. Both trees "
            "were exported without byte-compiled files and run with "
            "PYTHONDONTWRITEBYTECODE=1."),
        "command": ("python3 perfbench/run.py --workload <w> --seed <seed> "
                    f"--seconds {seconds} --trace 0"),
        "parent_commit": args.parent_commit,
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version(),
                    "platform": platform.platform()},
        "claim": claim,
        "summary": judge(runs, bench["end_to_end"], claim),
        "runs": runs,
    }
    for workload, metrics in doc["summary"].items():
        for name, entry in metrics.items():
            rules = {k: entry[k] for k in ("within_bound", "unresolved",
                                           "claim_met") if k in entry}
            print(f"{workload} {name}: {entry['median_change_pct']:+.2f}% "
                  f"{rules}")
    out = Path(f"BENCH_{args.pr}.json")
    with open(out, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
