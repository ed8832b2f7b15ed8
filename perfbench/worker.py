"""One workload in one fresh process; run.py starts it and reads its result.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--setup-only]

The BLAS and OpenMP thread pins come from the environment run.py sets before
this process starts, so they hold before numpy loads.  The worker imports
tfloc from the checkout's src/ and nowhere else.

Set-up is the imports plus building the workload's inputs.  With
--setup-only the worker stops there and reports its set-up time.  Otherwise
it runs whole rounds, all of a round's operations each time, until S
seconds of rounds have been measured (at least MIN_ROUNDS), and checks
every round's outputs outside the timed region.  It prints one JSON line:
set-up time, the typical round time (each operation's median over the
rounds, summed), every round's wall and CPU time, operations attempted and
failed,
whether every check passed, the peak RSS and, with --trace 1, the per-layer
metrics; the spans go to DIR/trace.json.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# Rounds last 6 to 20 s on the reference host; two at least give every
# operation a median of more than one sample.
MIN_ROUNDS = 2


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def _import_tfloc():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import tfloc

    where = os.path.dirname(os.path.abspath(tfloc.__file__))
    if where != os.path.join(src, "tfloc"):
        raise SystemExit(f"worker: tfloc imported from {where}, not from {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]()
    t0 = time.perf_counter()
    _import_tfloc()
    workload.load()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.phase = 0
    inputs = workload.setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from checks import CheckFailed

    os.makedirs(args.workdir, exist_ok=True)
    ops = workload.operations(args.workdir, tracer)
    walls, cpus, attempted, failed, mismatches, cache = [], [], 0, 0, [], {}
    op_times = {label: [] for label, _ in ops}
    while len(walls) < MIN_ROUNDS or sum(walls) < args.seconds:
        if tracer is not None:
            tracer.phase = len(walls) + 1
        outputs = {}
        start, cpu = time.perf_counter(), time.process_time()
        for label, op in ops:
            attempted += 1
            t = time.perf_counter()
            try:
                outputs[label] = op()
                op_times[label].append(time.perf_counter() - t)
            except Exception:
                failed += 1
                print(f"round {len(walls) + 1} {label}: operation failed", file=sys.stderr)
                traceback.print_exc()
        walls.append(time.perf_counter() - start)
        cpus.append(time.process_time() - cpu)
        if tracer is not None:
            tracer.phase = None
        try:
            workload.check(outputs, cache)
        except CheckFailed as exc:
            mismatches.append(f"round {len(walls)}: {exc}")

    # a typical round: each operation's median over the rounds, summed, so a
    # slow stretch that hits one operation in one round does not count
    op_medians = {k: statistics.median(v) for k, v in op_times.items() if v}
    result = {
        "setup_s": setup_s,
        "wall_s": sum(op_medians.values()),
        "op_medians": op_medians,
        "round_walls": walls,
        "round_cpu": cpus,
        "attempted": attempted,
        "failed": failed,
        "correct": not mismatches,
        "mismatches": mismatches,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "inputs": inputs,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(len(walls))
        result["coverage"] = tracer.coverage(walls)
        tracer.dump(os.path.join(args.workdir, "trace.json"),
                    {k: result[k] for k in ("wall_s", "round_walls", "coverage", "layers", "inputs")})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
