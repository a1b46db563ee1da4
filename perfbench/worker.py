"""One workload in one single-threaded process; started by run.py.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace T
    python3 perfbench/worker.py --workload W --seed N --setup-only

Set-up is the interpreter start, `import bdspace` and the generation of
the seeded inputs.  The worker then runs the units of a pass round-robin,
back to back (a closed loop), until --seconds have passed: after the
first full pass it starts a unit only if the unit is expected to end less
than half its time after --seconds, so runs last --seconds on average
whatever the length of a pass.  The pass wall time is the sum over units
of each unit's mean time, which spreads the measurement over the whole
run.  Each unit's outputs are checked, untimed, as soon as it ends and
then dropped, so memory does not grow with the run.

With --trace 1 it runs one untraced pass, then one traced pass whose
spans go to perfbench/traces/.  It prints one JSON line; `ready` is the
CLOCK_MONOTONIC time at which set-up ended.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def clock():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_unit(unit):
    """(wall seconds, outputs or the exception the unit raised)."""
    start = clock()
    try:
        outs = unit.call()
    except Exception as exc:  # an op that raises is a failed op
        traceback.print_exc(file=sys.stderr)
        outs = exc
    return clock() - start, outs


def run_pass(units):
    """Run every unit once; returns (wall seconds, [(unit, outputs)])."""
    wall, results = 0.0, []
    for unit in units:
        t, outs = run_unit(unit)
        wall += t
        results.append((unit, outs))
    return wall, results


class Tally:
    """Unit times and ops attempted and failed over a run."""

    def __init__(self, units, seed, golden):
        self.seed, self.golden = seed, golden
        self.times = [[] for _ in units]
        self.problems, self.digests = [], {}
        self.attempted = self.failed = self.ledger_bytes = 0

    def add(self, index, unit, wall, outs):
        from workloads import check_pass
        a, f, p, d, b = check_pass([(unit, outs)], self.seed, self.golden)
        self.times[index].append(wall)
        self.attempted += a
        self.failed += f
        self.problems += p
        self.digests.update(d)
        self.ledger_bytes += b

    def pass_wall(self):
        return sum(statistics.mean(ts) for ts in self.times)


def traced_pass(units, tally, trace_path):
    """One pass under the span recorder; returns the per-layer metrics."""
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        tracer.begin()
        try:
            for i, unit in enumerate(units):
                tracer.op = ",".join(unit.ops)
                tally.add(i, unit, *run_unit(unit))
        finally:
            wall = tracer.end()
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    layer = tracer.metrics()
    layer["trace.wall_s"] = (wall, "s")
    return layer


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bdspace  # noqa: F401  (set-up: the import is part of it)
    from workloads import WORKLOADS
    inputs_fn, units_fn = WORKLOADS[args.workload]
    units = units_fn(inputs_fn(args.seed))
    ready = clock()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    with open(os.path.join(HERE, "golden.json")) as fh:
        tally = Tally(units, args.seed, json.load(fh)["digests"])
    for i, unit in enumerate(units):
        tally.add(i, unit, *run_unit(unit))
    layer = {}
    if args.trace:
        untraced, ledger_bytes = tally.pass_wall(), tally.ledger_bytes
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        layer = traced_pass(units, tally, os.path.join(
            HERE, "traces", "%s-seed%d.jsonl" % (args.workload, args.seed)))
        layer["trace.untraced_wall_s"] = (untraced, "s")
        layer["trace.overhead_s"] = (layer["trace.wall_s"][0] - untraced,
                                     "s")
        layer["certificates.bytes"] = (tally.ledger_bytes - ledger_bytes,
                                       "bytes")
    else:
        deadline = ready + args.seconds
        i = 0
        while clock() + statistics.mean(tally.times[i]) / 2 <= deadline:
            tally.add(i, units[i], *run_unit(units[i]))
            i = (i + 1) % len(units)
    print(json.dumps({
        "ready": ready,
        "pass_wall": tally.pass_wall(),
        "unit_runs": [len(ts) for ts in tally.times],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
        "attempted": tally.attempted, "failed": tally.failed,
        "problems": tally.problems[:20], "digests": tally.digests,
        "layer": layer}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
