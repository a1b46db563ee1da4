"""The bdspace benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload stage7-gen --seed 7 --seconds 55 --trace 0

Run it from the repository root; it imports `bdspace` from `src/`.
Workloads: stage7-gen, hiprobe-mtnorm (see workloads.py and README.md
for what each runs and why).

The workload runs in one worker process (worker.py); set-up is measured
in further workers that stop once their inputs exist, five before and
five after the measured run, one at a time, so at most two processes
(this one and one worker) exist at once.  A first, unmeasured set-up
compiles the byte code.

With --trace 0 the result carries the end-to-end metrics:
  wall_s       wall time of a pass, from its first library call to its
               last output, as the sum over its units of each unit's mean
               time over the run; digest checks are not timed.  Load from
               outside the process changes over tens of seconds, so a
               mean over the whole run is steadier than the median of
               the two or three passes that fit in it
  setup_s      median set-up time: interpreter start, `import bdspace`
               and the seeded inputs
  peak_rss_mb  peak resident memory of the worker process
With --trace 1 it carries the per-layer metrics of spans.py.  Failed ops
over attempted ops (failed_share) are the result's `failed` and
`attempted`; `correct` is false, and the exit code 1, when any op failed.

The last line of standard output is the result; the line before it holds
the provenance.  --out PATH also writes both, with the pass times and
failure reasons, to PATH.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src", "bdspace")
WORKLOADS = ("stage7-gen", "hiprobe-mtnorm")
SETUP_PROBES = 5        # set-up measurements before and after the run
TIME_LIMIT = 170.0      # seconds for the whole run


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def source_digest():
    """sha256 over the library's sources, for checkouts without git."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(SRC, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def git_commit():
    """HEAD of the repository rooted here; None in a plain checkout."""
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 \
            or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def worker(args, extra, deadline):
    """Start one worker, wait for it, return (seconds to set-up end, result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed)] + extra
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = clock()
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=max(1.0, deadline - clock()))
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit("worker failed with exit code %d" % proc.returncode)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - start, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the full result here")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "__init__.py")):
        print("error: no bdspace sources under %s" % SRC, file=sys.stderr)
        return 2
    deadline = clock() + TIME_LIMIT

    setup_only = ["--setup-only"]
    try:
        worker(args, setup_only, deadline)
        setups = [worker(args, setup_only, deadline)[0]
                  for _ in range(SETUP_PROBES)]
        setup, run = worker(args, ["--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], deadline)
        setups.append(setup)
        setups += [worker(args, setup_only, deadline)[0]
                   for _ in range(SETUP_PROBES)]
    except subprocess.TimeoutExpired:
        print("error: run exceeded %d s" % TIME_LIMIT, file=sys.stderr)
        return 2

    if args.trace:
        metrics = {k: {"value": v, "unit": unit}
                   for k, (v, unit) in sorted(run["layer"].items())}
    else:
        metrics = {
            "wall_s": {"value": run["pass_wall"], "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    attempted, failed = run["attempted"], run["failed"]
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "platform": platform.platform(), "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    for name, m in metrics.items():
        print("%-32s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-32s %14.6g share of %d ops attempted"
          % ("failed_share", failed / attempted, attempted))
    for op, why in run["problems"]:
        print("failed op %s: %s" % (op, why))
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"provenance": provenance, "result": result,
                       "unit_runs": run["unit_runs"], "setups": setups,
                       "problems": run["problems"]}, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
