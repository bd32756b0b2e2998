#!/usr/bin/env python3
"""Record the golden output that perfbench/run.py checks every command against.

Run from the repository root, on the commit whose output is the reference::

    python3 perfbench/record_golden.py

For every workload and every CLI seed of the pool it stores the sha256 of
the data rows, from a single-threaded run (so mc-system2d at two threads is
checked against one thread: the determinism contract).  From one traced
command per workload it stores the layer counts, after checking them
against the evaluation-count contract.
"""

import json
import sys
from pathlib import Path

from run import GOLDEN, POOL, WORKLOADS, Bench, contract_errors, environment
from spans import COUNT_METRICS


def record(bench, wl):
    seeds = range(POOL) if wl.threads is not None else [None]
    digests = {}
    for seed in seeds:
        rep = bench.command(wl, seed, 1)
        if rep["error"]:
            raise SystemExit(f"seed {seed}: {rep['error']}")
        digests[str(seed)] = rep["digest"]
    rep = bench.command(wl, 0 if wl.threads is not None else None,
                        wl.threads, traced=True)
    errs = [rep["error"]] if rep["error"] else contract_errors(wl, rep["layers"])
    if errs:
        raise SystemExit("; ".join(errs))
    return {"rows_sha256": digests,
            "counts": {k: rep["layers"][k] for k in COUNT_METRICS}}


def main():
    root = Path.cwd()
    if not (root / "src" / "csrk" / "cli.py").is_file():
        raise SystemExit("run from the root of a csrk checkout")
    out = {"recorded_with": environment(root), "pool": POOL, "workloads": {}}
    with Bench(root, limit_s=3600) as bench:
        for name, wl in WORKLOADS.items():
            print(f"recording {name}", file=sys.stderr)
            out["workloads"][name] = record(bench, wl)
    with open(GOLDEN, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
