#!/usr/bin/env python3
"""The grasspq benchmark.

    python3 perfbench/run.py --workload {suites,requests} --seed N
                             --seconds S --trace {0,1}

Run from the root of a grasspq checkout; it imports the program from
`src/`.  One client, closed loop: rounds run one after another, each in a
fresh interpreter, until S seconds are used (at least the workload's
minimum number of rounds).  Every output is judged against a known answer,
and at the default seed the outputs must match the golden digest.

--trace 0 prints the end-to-end metrics; before each round, a few extra
cold starts time set-up alone.  --trace 1 spends half of S on
untraced rounds and half on traced rounds, then makes one counting pass,
and prints the per-layer metrics; the spans of the first traced round are
written to `.perfbench_out/`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  See `perfbench/record.json`
for the workloads, seeds and baseline numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402

with open(os.path.join(HERE, "record.json")) as _fh:
    RECORD = json.load(_fh)
with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    PER_LAYER = json.load(_fh)["per_layer"]

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
# A run must end within 180 s: no round starts after LAST_START_S, and a
# worker still running DEADLINE_S after the start is killed.
LAST_START_S = 120.0
DEADLINE_S = 170.0
# Extra cold starts, timed up to `ready` and stopped there, before each
# untraced round: one start per round alone leaves setup_s too noisy.
SETUP_LAUNCHES = 3


class BenchError(Exception):
    pass


def launch(workload: str, seed: int, size: str, mode: str,
           started: float) -> tuple[float, str]:
    """One fresh worker process; returns its set-up time, up to the
    `ready` line, and the output that follows that line."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           size, mode, SRC]
    # a fixed hash seed makes set iteration, and so every count, repeatable
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, text=True)
    watchdog = threading.Timer(max(0.0, started + DEADLINE_S - t0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = perf_counter() - t0
        out, err = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"{workload} worker failed (exit {proc.returncode}, killed "
                         f"if still running {DEADLINE_S} s into the run):\n"
                         f"{first}{out}{err[-2000:]}")
    return setup_s, out


def run_round(workload: str, seed: int, size: str, mode: str, started: float,
              setup_launches: int = 0) -> dict:
    """`setup_launches` set-up-only starts, then one round; returns the
    round's result plus `setup_s`, the set-up times of all these starts."""
    setup_s = [launch(workload, seed, size, "setup", started)[0]
               for _ in range(setup_launches)]
    round_setup_s, out = launch(workload, seed, size, mode, started)
    result = json.loads(out.strip().splitlines()[-1])
    result["setup_s"] = setup_s + [round_setup_s]
    return result


def run_rounds(workload: str, seed: int, size: str, mode: str, budget_s: float,
               min_rounds: int, started: float, setup_launches: int = 0) -> list[dict]:
    """Rounds until the budget is used, ending no later than the budget
    unless fewer than `min_rounds` have run."""
    rounds, walls = [], []
    t0 = perf_counter()
    while True:
        r0 = perf_counter()
        rounds.append(run_round(workload, seed, size, mode, started, setup_launches))
        walls.append(perf_counter() - r0)
        used = perf_counter() - t0
        if perf_counter() - started > LAST_START_S:
            break
        if len(rounds) >= min_rounds and used + statistics.median(walls) > budget_s:
            break
    return rounds


def tail_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it (0 when
    there are too few samples, as in the smoke size)."""
    return 100.0 * max(0.0, 1.0 - 10.0 / samples)


def percentile(values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    s = sorted(values)
    pos = (len(s) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def judge_rounds(workload: str, seed: int, size: str,
                 rounds: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems).  A round whose output digest differs
    from the golden one (full size, default seed only) or from the first
    round's counts as one failed task."""
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    problems = [e for r in rounds for e in r["errors"]][:3]
    expected = rounds[0]["digest"]
    if size == "full" and seed == RECORD["default_seed"]:
        expected = RECORD["golden_digests"][workload]
    for r in rounds:
        if r["digest"] != expected:
            failed += 1
            problems.append(f"output digest {r['digest']} differs from {expected}")
    return attempted, failed, problems


def end_to_end(rounds: list[dict]) -> dict:
    pooled_ms = [t * 1000.0 for r in rounds for t in r["task_s"]]
    return {
        "setup_s": (statistics.median(t for r in rounds for t in r["setup_s"]), "s"),
        "verdict_s": (statistics.median(r["verdict_s"] for r in rounds), "s"),
        "task_ms.p50": (statistics.median(pooled_ms), "ms"),
        "task_ms.tail": (percentile(pooled_ms, tail_percentile(len(pooled_ms))), "ms"),
        "peak_rss_mb": (statistics.median(r["rss_kb"] for r in rounds) / 1024.0, "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict], counted: dict) -> dict:
    """Every per_layer metric of BENCHMARK.json.  `L.f.s` and `L.f.calls`
    are the seconds and calls of function f of layer L, `L.self_s` a
    layer's self time; the counts come from the counting pass."""
    def median_of(get):
        return statistics.median(get(r) for r in traced)

    special = {
        "coeff.s": median_of(lambda r: r["layers"]["coeff.s"]),
        "verify.checks": traced[0]["checks"],
        "trace.overhead_ratio": median_of(lambda r: r["verdict_s"])
        / statistics.median(r["verdict_s"] for r in plain),
    }
    metrics = {}
    for m in PER_LAYER:
        name = m["name"]
        layer, _, rest = name.partition(".")
        fn = rest.rpartition(".")[0]
        if name in special:
            value = special[name]
        elif name in counted["layers"]:
            value = counted["layers"][name]
        elif rest == "self_s":
            value = median_of(lambda r: r["layers"][name])
        elif fn in tracing.LAYER_FUNCTIONS.get(layer, ()) and rest.endswith(".calls"):
            value = traced[0]["layers"]["calls"].get(fn, 0)
        elif fn in tracing.LAYER_FUNCTIONS.get(layer, ()) and rest.endswith(".s"):
            value = median_of(lambda r: r["layers"]["seconds"].get(fn, 0.0))
        else:
            raise BenchError(f"no measurement for per-layer metric {name}")
        metrics[name] = (value, m["unit"])
    return metrics


def write_spans(workload: str, seed: int, spans) -> str:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"fields": ["name", "layer", "start", "end", "parent", "coeff_s"],
                   "spans": spans}, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RECORD["workloads"]))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny rounds, one at least, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "grasspq", "__init__.py")):
        print(f"error: no grasspq sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2

    started = perf_counter()
    size = "smoke" if args.smoke else "full"
    min_rounds = 1 if args.smoke else RECORD["workloads"][args.workload]["min_rounds"]
    try:
        if args.trace:
            half = args.seconds / 2.0
            plain = run_rounds(args.workload, args.seed, size, "plain", half, 1, started)
            traced = run_rounds(args.workload, args.seed, size, "trace", half, 1, started)
            counted = run_round(args.workload, args.seed, size, "count", started)
            rounds = plain + traced + [counted]
            metrics = per_layer(plain, traced, counted)
            spans_path = write_spans(args.workload, args.seed, traced[0]["spans"])
        else:
            rounds = run_rounds(args.workload, args.seed, size, "plain", args.seconds,
                                min_rounds, started, SETUP_LAUNCHES)
            metrics = end_to_end(rounds)
            spans_path = None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted, failed, problems = judge_rounds(args.workload, args.seed, size, rounds)
    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds, "
          f"fail_ratio {failed / attempted:.6f} ({failed} of {attempted} tasks), "
          f"output digest {rounds[0]['digest']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:14.6f} {unit}")
    if spans_path:
        print(f"  spans written to {spans_path}")
    else:
        samples = sum(len(r["task_s"]) for r in rounds)
        starts = sum(len(r["setup_s"]) for r in rounds)
        print(f"  task_ms.tail is the p{tail_percentile(samples):.4f} of {samples} task "
              f"times; setup_s is the median of {starts} cold starts")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
