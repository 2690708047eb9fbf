#!/usr/bin/env python3
"""
Write ``digests.json``: the digest of every op's result for seed 0, per
workload.  Run from the repository root, only when the canonical result of
an op is meant to change:

    python3 perfbench/make_digests.py
"""

import json
import os
import sys

import run
import workloads as wls


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    digests = {}
    for name in sorted(wls.WORKLOADS):
        args = run.parse_args(["--workload", name, "--seed", "0"])
        _, lib, ops = run.timed_setup(args)
        runner = run.Runner(args, root, lib, ops)
        runner.committed = [None] * len(ops)
        runner.run_pass(check=True)
        if runner.failures:
            print("\n".join(runner.failures), file=sys.stderr)
            return 1
        digests[name] = runner.digests
        print(f"{name}: {len(ops)} ops, {wls.run_digest(runner.digests)}")
    with open(os.path.join(run.HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
