#!/usr/bin/env python3
"""Write a performance snapshot of one grasspq checkout as BENCH_<n>.json.

    python3 scripts/bench_snapshot.py --out BENCH_16.json [--root DIR] [--base REV]

Uses only the standard library, git and the checkout's own benchmark:

- end to end: `perfbench/run.py --trace 0` runs of SECONDS each, REPEATS
  times per workload, the workloads alternating and the first of each repeat
  swapping, at the benchmark's default seed (so every run is also judged
  against the golden digest); each metric gets its median, quartiles and
  the value of every run;
- per layer: the rows of one `perfbench/run.py --trace 1` run per workload;
- CLI wall time, REPEATS fresh processes each: a cold `reduce` on `gr2`
  and on `gr11_localized` (which pays that preset's completion),
  `verify --suite all`, `verify --suite faults` and
  `power --n 64 --closed-form`;
- the Python version, the machine, and the commit (with a flag when the
  tree has uncommitted changes).

Run it from anywhere; --root (default: the current directory) names the
checkout to measure.  --base REV also measures the commit REV of that
checkout, exported with `git archive` into a temporary directory that is
removed afterwards: every base run sits next to the head run of
the same workload and repeat, the first of the two swapping every repeat,
and the base rows go under "base" in the same file, so the file holds
both numbers of a before/after pair taken alike.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

WORKLOADS = ("suites", "requests")
# Fixed, so that every BENCH_<n>.json is measured alike and comparable.
REPEATS = 5
SECONDS = 20
CLI_COMMANDS = {
    "cold_start_reduce": ["reduce", "--preset", "gr2", "alpha*beta"],
    # builds gr11_localized, so it pays that preset's completion
    "cold_start_reduce_localized": ["reduce", "--preset", "gr11_localized", "b*binv"],
    "verify_suite_all": ["verify", "--suite", "all"],
    "verify_suite_faults": ["verify", "--suite", "faults"],
    "power_64_closed_form": ["power", "--n", "64", "--closed-form"],
}


def bench_run(root: str, workload: str, seed: int, trace: int) -> dict:
    """One perfbench/run.py run; its closing JSON line."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} run was not correct:\n{proc.stdout}{proc.stderr}")
    return result


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method) of the runs, and the runs."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def cli_wall_s(roots: list[str], args: list[str]) -> list[dict]:
    """The wall time of one CLI command in each checkout, the checkouts
    alternating within each repeat and the first swapping every repeat."""
    times: list[list[float]] = [[] for _ in roots]
    for i in range(REPEATS):
        for k in alternating(len(roots), i):
            env = dict(os.environ, PYTHONPATH=os.path.join(roots[k], "src"))
            t0 = perf_counter()
            subprocess.run([sys.executable, "-m", "grasspq.cli", *args], cwd=roots[k],
                           env=env, check=True, stdout=subprocess.DEVNULL)
            times[k].append(perf_counter() - t0)
    return [summary(t) for t in times]


def git(root: str, *args: str) -> str | None:
    proc = subprocess.run(["git", "-C", root, *args], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def alternating(n: int, i: int) -> list[int]:
    """The order of n checkouts in repeat i: the first swaps every repeat."""
    return list(range(n)) if i % 2 == 0 else list(reversed(range(n)))


def measure(roots: list[str], commits: list[str | None], seed: int) -> list[dict]:
    """The end-to-end, per-layer and CLI rows of each checkout, the
    checkouts alternating run by run."""
    runs = [{w: [] for w in WORKLOADS} for _ in roots]
    for i in range(REPEATS):
        for workload in (WORKLOADS if i % 2 == 0 else WORKLOADS[::-1]):
            for k in alternating(len(roots), i):
                runs[k][workload].append(bench_run(roots[k], workload, seed, 0))
    rows = [{"commit": commit, "end_to_end": {}, "per_layer": {}, "cli_wall_s": {}}
            for commit in commits]
    for row, by_workload in zip(rows, runs):
        for workload, results in by_workload.items():
            metrics = {name: dict(summary([r["metrics"][name]["value"] for r in results]),
                                  unit=metric["unit"])
                       for name, metric in results[0]["metrics"].items()}
            row["end_to_end"][workload] = {
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
    for i, workload in enumerate(WORKLOADS):
        for k in alternating(len(roots), i):
            rows[k]["per_layer"][workload] = bench_run(roots[k], workload, seed, 1)["metrics"]
    for name, cmd in CLI_COMMANDS.items():
        for row, wall in zip(rows, cli_wall_s(roots, cmd)):
            row["cli_wall_s"][name] = wall
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="the BENCH_<n>.json file to write")
    ap.add_argument("--root", default=os.getcwd(), help="the grasspq checkout to measure")
    ap.add_argument("--base", metavar="REV",
                    help="also measure this commit of the checkout, alternating with it")
    args = ap.parse_args(argv)
    root = os.path.abspath(args.root)
    with open(os.path.join(root, "perfbench", "record.json")) as fh:
        seed = json.load(fh)["default_seed"]

    order = "workloads alternate, the first swapping every repeat"
    with tempfile.TemporaryDirectory() as tmp:
        roots, commits = [root], [git(root, "rev-parse", "HEAD")]
        if args.base:
            base_root = os.path.join(tmp, "base")
            os.mkdir(base_root)
            archive = subprocess.run(["git", "-C", root, "archive", args.base],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", base_root], input=archive, check=True)
            roots.append(base_root)
            commits.append(git(root, "rev-parse", args.base))
            order += "; base and head runs alternate, the first swapping every repeat"
        rows = measure(roots, commits, seed)
    head = rows[0]
    snapshot = {
        "commit": head["commit"],
        "uncommitted_changes": bool(git(root, "status", "--porcelain", "--untracked-files=no")),
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "machine": platform.machine(),
                    "cpu_count": os.cpu_count()},
        "settings": {"repeats": REPEATS, "seconds": SECONDS, "seed": seed, "order": order},
        "end_to_end": head["end_to_end"],
        "per_layer": head["per_layer"],
        "cli_wall_s": head["cli_wall_s"],
    }
    if args.base:
        snapshot["base"] = rows[1]
    with open(args.out, "w") as fh:
        json.dump(snapshot, fh, indent=2)
        fh.write("\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
