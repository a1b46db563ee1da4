"""Record the golden digests of every workload at the default seed.

    python3 perfbench/record_golden.py

Run it only at a commit whose ledgers are known to be right: the digests
it writes to perfbench/golden.json are the reference every later run is
checked against.  It refuses to write if any op fails its digest-free
checks.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from workloads import DEFAULT_SEED, WORKLOADS, check_pass  # noqa: E402
from worker import run_pass  # noqa: E402


def main():
    digests = {}
    for name, (inputs_fn, units_fn) in WORKLOADS.items():
        _, results = run_pass(units_fn(inputs_fn(DEFAULT_SEED)))
        attempted, failed, problems, d, _ = check_pass(results, DEFAULT_SEED,
                                                       None)
        if failed:
            print("%s: %d of %d ops fail: %s" % (name, failed, attempted,
                                                 problems), file=sys.stderr)
            return 1
        digests.update(d)
        print("%s: %d ops" % (name, attempted))
    with open(os.path.join(HERE, "golden.json"), "w") as fh:
        json.dump({"seed": DEFAULT_SEED, "digests": digests}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
