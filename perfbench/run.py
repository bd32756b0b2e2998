#!/usr/bin/env python3
"""Benchmark of the csrk CLI: end-to-end timings and a traced per-layer run.

Run from the root of a checkout (the directory that holds ``src/csrk``)::

    python3 perfbench/run.py --workload mc-linear --seed 0 --seconds 25 --trace 0

Each repetition runs one ``csrk`` CLI command of the workload in a fresh
child process (``child.py``) until ``--seconds`` have passed, and checks it:
exit status 0, the workload's column set, and data rows bit-identical to the
golden digests in ``golden.json``.  ``--seed`` picks the CLI seeds from the
pool of seeds that have golden output.  The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.  ``--trace
1`` alternates untraced and traced repetitions and reports the per-layer
metrics; in a traced repetition every count must equal the recorded one and
drift and diffusion calls must follow the evaluation-count contract.
README.md in this directory says what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import calibration
from spans import COUNT_METRICS, layer_metrics

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
SPEC = HERE.parent / "BENCHMARK.json"  # metric names and units
POOL = 16  # CLI seeds 0..POOL-1 have golden output
STAGES = 3  # of CRDI3WM: drift calls per step and batch
MIN_REPS = 3  # per kind of repetition, even past --seconds
MIN_SETUP_SAMPLES = 15
HARD_LIMIT_S = 150.0  # stop starting commands; the whole run stays under 180 s
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # csrk arguments, without --seed/--threads/--output
    columns: str
    calibration: str = "dispatch"  # the kernel whose speed tracks this work
    threads: int | None = None  # None: the command is not Monte Carlo
    step_chunks: int = 0  # compute_step_arrays calls the MC loop must make
    diffusion_per_step: int = 3  # diffusion calls per step and batch

    def argv(self, cli_seed, threads):
        argv = list(self.args)
        if self.threads is not None:
            argv += ["--seed", str(cli_seed), "--threads", str(threads)]
        return argv


# Chunks hold 4096 paths.  Steps per chunk are those up to the last
# evaluation point: t=1.7 with h=1/2..1/16 takes 4+7+14+28 steps, t=3.8
# with h=2,1,1/2 takes 2+4+8, and the dense profile reads all 8 steps.
WORKLOADS = {
    "mc-linear": Workload(
        args=("converge", "--scheme", "CRDI3WM", "--problem", "linear",
              "--f", "x", "--t-eval", "1.7",
              "--h-list", "0.5,0.25,0.125,0.0625", "--M", str(2**17)),
        columns="h,mu,sigma2_mu,ci_low,ci_high",
        threads=1, step_chunks=53 * 32),
    "mc-system2d": Workload(
        args=("converge", "--scheme", "CRDI3WM", "--problem", "system2d",
              "--f", "x2", "--t-eval", "3.8", "--h-list", "2.0,1.0,0.5",
              "--reference", "derived", "--M", str(2**16)),
        columns="h,mu,sigma2_mu,ci_low,ci_high",
        threads=2, step_chunks=14 * 16, diffusion_per_step=12),
    "dense-profile": Workload(
        args=("dense", "--scheme", "CRDI3WM", "--problem", "linear",
              "--h", "0.25", "--M", str(2**17)),
        columns="t,theta,mu,sigma2_mu,ci_low,ci_high",
        threads=1, step_chunks=8 * 32),
    "exact-linear": Workload(
        args=("exact-order", "--scheme", "CRDI3WM", "--problem", "linear",
              "--f", "x2", "--N-list", "4,8,16",
              "--outcome-cap", "50000000"),
        columns="N,h,error", calibration="bandwidth"),
}


class Bench:
    """Runs children from one checkout and collects what they report."""

    def __init__(self, root: Path, limit_s=HARD_LIMIT_S):
        self.src = root / "src"
        self.out = root / ".perfbench_out" / str(os.getpid())
        self.env = {k: v for k, v in os.environ.items() if k != "CSRK_THREADS"}
        self.env.update(CHILD_ENV)
        self.deadline = time.monotonic() + limit_s

    def __enter__(self):
        self.out.mkdir(parents=True, exist_ok=True)
        return self

    def __exit__(self, *exc):
        shutil.rmtree(self.out, ignore_errors=True)
        try:
            self.out.parent.rmdir()
        except OSError:
            pass

    def spawn(self, argv, traced=False):
        """Run child.py; returns (report or None, error text)."""
        result, spans = self.out / "result.json", self.out / "spans.json"
        for p in (result, spans):
            p.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), str(self.src),
               str(result), str(spans) if traced else "-", "--", *argv]
        timeout = max(1.0, self.deadline + 20.0 - time.monotonic())
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            return None, f"timed out after {timeout:.0f} s"
        if proc.returncode != 0 or not result.exists():
            tail = err.strip().splitlines()[-1:] or [""]
            return None, f"exit status {proc.returncode}: {tail[0]}"
        with open(result) as fh:
            rep = json.load(fh)
        rep["setup_s"] = rep.pop("ready") - t_spawn
        if traced:
            with open(spans) as fh:
                rep["layers"] = layer_metrics(json.load(fh))
        return rep, ""

    def command(self, wl: Workload, cli_seed, threads, traced=False):
        """One workload command; the report carries its output's digest."""
        out_csv = self.out / "out.csv"
        out_csv.unlink(missing_ok=True)
        rep, err = self.spawn(
            wl.argv(cli_seed, threads) + ["--output", str(out_csv)], traced)
        if rep is None:
            return {"error": err}
        columns, digest = read_output(out_csv)
        rep["error"] = "" if columns == wl.columns else \
            f"columns {columns!r}, expected {wl.columns!r}"
        rep["digest"] = digest
        return rep


def read_output(path):
    """(column line, sha256 of the data rows) of a CSV output file."""
    if not path.exists():
        return None, None
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    if not lines:
        return None, None
    rows = "\n".join(lines[1:]).encode()
    return lines[0], hashlib.sha256(rows).hexdigest()


def contract_errors(wl: Workload, layers):
    """Evaluation-count contract: per step and batch, STAGES drift calls and
    wl.diffusion_per_step diffusion calls; MC makes one step call per chunk
    and step."""
    calls = layers["integrator.compute_step_arrays.calls"]
    errs = []
    if wl.step_chunks and calls != wl.step_chunks:
        errs.append(f"{calls} step calls, expected {wl.step_chunks}")
    for fn, per in (("drift", STAGES), ("diffusion", wl.diffusion_per_step)):
        got = layers[f"sde.{fn}.calls"]
        if got != per * calls:
            errs.append(f"{got} {fn} calls for {calls} steps, expected {per} each")
    return errs


def check(rep, wl: Workload, golden, cli_seed):
    """Reasons this repetition failed, as one string ('' when it passed)."""
    if rep.get("error"):
        return rep["error"]
    errs = []
    want = golden["rows_sha256"].get(str(cli_seed))
    if rep["digest"] != want:
        errs.append(f"data rows differ from the golden output of seed {cli_seed}")
    if rep["traced"]:
        layers = rep["layers"]
        errs += contract_errors(wl, layers)
        errs += [f"{k} = {layers[k]}, recorded {golden['counts'][k]}"
                 for k in COUNT_METRICS if layers[k] != golden["counts"][k]]
    return "; ".join(errs)


def environment(root: Path):
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    rev = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "git_rev": rev, "src_sha256": digest.hexdigest(), "child_env": CHILD_ENV,
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def measure(bench: Bench, wl: Workload, golden, seed, seconds, trace):
    """Repeat the workload for ``seconds``; returns the repetitions made."""
    kinds = (False, True) if trace else (False,)
    reps = []
    start = time.monotonic()
    while time.monotonic() < bench.deadline:
        counts = [sum(r["traced"] == k for r in reps) for k in kinds]
        if min(counts) >= MIN_REPS and time.monotonic() - start >= seconds:
            break
        traced = kinds[len(reps) % len(kinds)]
        cli_seed = (seed + len(reps)) % POOL if wl.threads is not None else None
        rep, cal = calibration.around(
            {wl.calibration, "dispatch"},
            lambda: bench.command(wl, cli_seed, wl.threads, traced))
        rep["cal_s"] = cal
        rep["traced"] = traced
        rep["error"] = check(rep, wl, golden, cli_seed)
        if rep["error"]:
            print(f"repetition {len(reps)} (seed {cli_seed}) failed: "
                  f"{rep['error']}", file=sys.stderr)
        reps.append(rep)
    return reps


def end_to_end(bench: Bench, wl: Workload, reps):
    """Samples of each end-to-end metric.

    Timings are at reference speed (calibration.py): wall_s against the
    workload's kernel, setup_s against the dispatch kernel.
    """
    ok = [r for r in reps if "wall_s" in r]
    walls = [calibration.at_reference(r["wall_s"], r["cal_s"], wl.calibration)
             for r in ok]
    setups = [calibration.at_reference(r["setup_s"], r["cal_s"], "dispatch")
              for r in ok]
    while len(setups) < MIN_SETUP_SAMPLES and time.monotonic() < bench.deadline:
        (rep, err), cal = calibration.around({"dispatch"}, lambda: bench.spawn([]))
        if rep is None:
            raise SystemExit(f"perfbench: set-up failed: {err}")
        setups.append(calibration.at_reference(rep["setup_s"], cal, "dispatch"))
    rss = [r["maxrss_kb"] / 1024 for r in ok]
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}


def per_layer(reps):
    """Samples of each per-layer metric, from one traced run."""
    plain = [r for r in reps if not r["traced"] and "wall_s" in r]
    traced = [r for r in reps if r["traced"] and "layers" in r]
    if not plain or not traced:
        return {}
    out = {key: [r["layers"][key] for r in traced] for key in traced[0]["layers"]}
    for key in COUNT_METRICS:  # check() made them equal in every repetition
        out[key] = out[key][:1]
    out["process.cpu_s"] = [r["cpu_s"] for r in plain]
    out["process.cpu_util"] = [r["cpu_s"] / r["wall_s"] for r in plain]
    out["trace.overhead_s"] = [
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain)]
    return out


def report(name, samples, unit):
    q1, q3 = quartiles(samples)
    print(f"  {name:40s} {statistics.median(samples):14.6g} {unit:9s} "
          f"(median of {len(samples)}, q1 {q1:.6g}, q3 {q3:.6g})")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    root = Path.cwd()
    if not (root / "src" / "csrk" / "cli.py").is_file():
        print("perfbench: no src/csrk/cli.py here; run from the root of a "
              "csrk checkout", file=sys.stderr)
        return 2
    with open(SPEC) as fh:
        spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    with open(GOLDEN) as fh:
        golden = json.load(fh)["workloads"][args.workload]
    wl = WORKLOADS[args.workload]

    with Bench(root) as bench:
        warm, err = bench.spawn([])  # fills the bytecode and file caches
        if warm is None:
            print(f"perfbench: set-up failed: {err}", file=sys.stderr)
            return 1
        reps = measure(bench, wl, golden, args.seed, args.seconds, args.trace)
        samples = (per_layer(reps) if args.trace
                   else end_to_end(bench, wl, reps))

    failed = sum(bool(r["error"]) for r in reps)
    print("env " + json.dumps(environment(root)))
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"commands {len(reps)}  failed {failed}")
    metrics = {}
    for m in spec:
        if samples.get(m["name"]):
            report(m["name"], samples[m["name"]], m["unit"])
            metrics[m["name"]] = {"value": statistics.median(samples[m["name"]]),
                                  "unit": m["unit"]}
    plain = [r for r in reps if "wall_s" in r and not r["traced"]]
    if plain:
        report("raw wall, not normalised", [r["wall_s"] for r in plain], "s")
        report("raw setup, not normalised", [r["setup_s"] for r in plain], "s")
    print(f"  {'failed_frac':40s} {failed / len(reps):14.6g} {'ratio':9s} "
          f"({failed} of {len(reps)} commands)")
    print(json.dumps({
        "correct": failed == 0 and len(metrics) == len(spec),
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
