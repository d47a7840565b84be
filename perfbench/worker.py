"""One round of one workload, in a fresh interpreter.

    python worker.py WORKLOAD SEED SIZE MODE SRC

SIZE is a key of `workloads.SIZES`.  MODE is `plain` (timed), `trace`
(spans), `count` (exact counts) or `setup` (set-up only).  The worker
imports grasspq from SRC, builds every shipped preset, prints `ready` (the
parent times set-up up to that line), then, unless MODE is `setup`, runs
the round and prints one JSON line with its results.
"""

import sys


def main(workload: str, seed: int, size: str, mode: str, src: str) -> None:
    # set-up, timed by the parent: nothing but grasspq and its presets
    sys.path.insert(0, src)
    from types import SimpleNamespace

    from grasspq import cli, coeff, freealg, matops, verify

    gp = SimpleNamespace(coeff=coeff, freealg=freealg, matops=matops, verify=verify, cli=cli)
    if mode in ("trace", "count"):
        # the traced window includes set-up, so preset builds show per layer
        import tracing
        tracer = (tracing.SpanTracer if mode == "trace" else tracing.CountPass)(gp)
        tracer.install()
    for name in freealg.PRESET_NAMES:
        freealg.preset(name)
    print("ready", flush=True)
    if mode == "setup":
        return

    import json
    import os
    import resource
    import traceback
    from time import perf_counter

    import workloads

    texts = {}
    if workload == "requests":
        for name in workloads.PRESET_NAMES:
            with open(os.path.join(src, "grasspq", "presets", f"{name}.preset")) as fh:
                texts[name] = fh.read()
    tasks = workloads.make_inputs(workload, seed, texts, size)
    runner = workloads.Runner(gp)

    outputs, task_s, errors = [], [], []
    start = perf_counter()
    for task in tasks:
        t0 = perf_counter()
        try:
            out = runner.run(task)
        except Exception:  # a failed task is counted, and the round goes on
            out = None
            errors.append(traceback.format_exc(limit=3))
        task_s.append(perf_counter() - t0)
        outputs.append(out)
    verdict_s = perf_counter() - start
    if mode != "plain":
        tracer.uninstall()

    failed, canon = 0, []
    for task, out in zip(tasks, outputs):
        try:
            ok = out is not None and runner.judge(task, out)
            text = None if out is None else runner.canonical(task, out)
        except Exception:
            ok, text = False, None
            errors.append(traceback.format_exc(limit=3))
        failed += not ok
        if text is not None:
            canon.append(text)

    result = {
        "verdict_s": verdict_s,
        "task_s": task_s,
        "attempted": len(tasks),
        "failed": failed,
        "digest": workloads.digest(canon),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "errors": errors[:3],
        "checks": sum(len(out.checks) for task, out in zip(tasks, outputs)
                      if task[0] == "report" and out is not None),
    }
    if mode != "plain":
        result["layers"] = tracer.summary()
    if mode == "trace":
        result["spans"] = tracer.dump()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    workload, seed, size, mode, src = sys.argv[1:6]
    main(workload, int(seed), size, mode, src)
