"""tfloc benchmark: run one workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload witness|spectrum|audit \
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout: it benchmarks the tfloc in src/ there.
Each workload runs in a fresh worker process (worker.py) with BLAS and
OpenMP pinned to one thread before numpy loads.

--trace 0 prints the end-to-end metrics: wall_s, the time of a typical
round of the workload's reports (each report's median over the run's
rounds, summed); setup_s, the median over SETUP_SAMPLES
fresh processes of the imports plus building the inputs; peak_rss_mb, the
worker's peak resident memory.  --trace 1 runs the same rounds with every
traced tfloc function wrapped and prints the per-layer metrics instead; the
spans go to perfbench/out/trace-<workload>-<seed>.json.  The last line of
standard output is always {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("witness", "spectrum", "audit")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
# set-up is 0.1 to 0.45 s, mostly imports, and one process's figure varies by
# 20 %; the median of nine fresh processes costs a few seconds and varies
# far less
SETUP_SAMPLES = 9
DEADLINE_S = 170.0   # the whole run, set-up samples included


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=20260)
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def _worker(args, workdir, deadline, setup_only=False) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for another worker")
    # run() kills the worker and waits for it when the timeout expires
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "tfloc", "__init__.py")):
        print(f"run.py: no tfloc sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(HERE, "out")
    workdir = os.path.join(out_dir, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        setups = []
        if not args.trace:
            setups = [_worker(args, workdir, deadline, setup_only=True)["setup_s"]
                      for _ in range(SETUP_SAMPLES - 1)]
        res = _worker(args, workdir, deadline)
        if args.trace:
            trace = os.path.join(out_dir, f"trace-{args.workload}-{args.seed}.json")
            os.replace(os.path.join(workdir, "trace.json"), trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"run.py: {args.workload}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in res["mismatches"]:
        print(f"check failed: {line}", file=sys.stderr)
    walls = res["round_walls"]
    print(f"{args.workload}: inputs {res['inputs']}; {len(walls)} rounds, wall "
          + " ".join(f"{w:.3f}" for w in walls) + " s, cpu "
          + " ".join(f"{c:.3f}" for c in res["round_cpu"]) + " s; operation medians "
          + " ".join(f"{k} {v:.3f}" for k, v in res["op_medians"].items()), file=sys.stderr)
    if args.trace:
        print("span coverage of round wall time: "
              + " ".join(f"{c:.4f}" for c in res["coverage"]), file=sys.stderr)
        metrics = res["layers"]
    else:
        metrics = {
            "wall_s": {"value": res["wall_s"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups + [res["setup_s"]]), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
