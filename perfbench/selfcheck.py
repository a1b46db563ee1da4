"""Self-check of the benchmark: its gate must bite.

    python3 perfbench/selfcheck.py

For every workload it runs a minimal-size pass at the default seed, which
must finish with no failed op under the digest-free checks.  It then
checks the same outputs against a deliberately wrong expected digest for
every op, which must fail every op, and feeds the checker a certificate
with verdict `violated` and an `mt_norm` result with a wrong value, each
of which must count as failed.  Exits 0 when all of this holds.
"""

import os
import sys
from dataclasses import replace
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from bdspace.certificates import Certificate, VIOLATED  # noqa: E402
from workloads import (DEFAULT_SEED, WORKLOADS, MTResult, Unit,  # noqa: E402
                       check_pass)
from worker import run_pass  # noqa: E402


def expect(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    return ok


def main():
    good = True
    for name, (inputs_fn, units_fn) in WORKLOADS.items():
        wall, results = run_pass(
            units_fn(inputs_fn(DEFAULT_SEED, smoke=True)))
        attempted, failed, problems, digests, _ = check_pass(
            results, DEFAULT_SEED, None)
        good &= expect(failed == 0 and attempted > 0,
                       "%s smoke pass: %d ops, %d failed, %.2f s %s"
                       % (name, attempted, failed, wall, problems or ""))
        wrong = {op: "0" * 64 for op in digests}
        _, failed, _, _, _ = check_pass(results, DEFAULT_SEED, wrong)
        good &= expect(failed == attempted,
                       "%s wrong digests: %d of %d ops failed"
                       % (name, failed, attempted))
        for unit, outs in results:
            for op, obj in outs.items():
                if isinstance(obj, Certificate):
                    bad_cert = {op: replace(obj, verdict=VIOLATED)}
                if isinstance(obj, MTResult):
                    bad_mt = {op: replace(obj, value=obj.value
                                          + Fraction(1, 7))}

    for what, outs in (("violated certificate", bad_cert),
                       ("wrong mt_norm value", bad_mt)):
        (op,) = outs
        unit = Unit((op,), frozenset(), lambda: outs)
        _, failed, problems, _, _ = check_pass([(unit, outs)], DEFAULT_SEED,
                                               None)
        good &= expect(failed == 1, "%s counts as failed: %s"
                       % (what, problems))
    return 0 if good else 1


if __name__ == "__main__":
    sys.exit(main())
