#!/usr/bin/env python3
"""
Smoke run of the benchmark on a tiny prefix of each op list.  Run from the
repository root:

    python3 perfbench/smoke.py

For every workload, untraced and traced, it checks that the run exits 0,
that the last line holds exactly the keys of the result, that every metric
of BENCHMARK.json is printed with its unit, that the results match the
committed seed-0 digests, and that the traced run has the same result
digest as the untraced one.  It also checks that the benchmark refuses to
run, without a result, in a directory that holds only the benchmark.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(command, workload, trace, cwd):
    """The benchmark's own command line, with this interpreter in place of python3."""
    argv = [sys.executable, *command[1:], "--workload", workload, "--seed", "0",
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        digests = {}
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc = run(spec["command"], workload, trace, root)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            info, result = json.loads(lines[-2]), json.loads(lines[-1])
            digests[trace] = info["result_digest"]
            if set(result) != RESULT_KEYS:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: incorrect run: {info['failures']}")
            if info["digests_checked"] != info["ops"]:
                problems.append(f"{tag}: not every op has a committed digest")
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            if printed != expected[trace]:
                problems.append(f"{tag}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(printed.items()) ^ set(expected[trace].items()))}")
            print(f"{tag}: {len(printed)} metrics, {result['attempted']} ops, "
                  f"digest {info['result_digest'][:16]}")
        if len(set(digests.values())) != 1:
            problems.append(f"{workload}: traced and untraced result digests differ")

    bare = tempfile.mkdtemp(prefix=".smoke-", dir=root)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(root, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(spec["command"], spec["workloads"][0]["name"], 0, bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("the benchmark ran without the package")
        print(f"benchmark alone: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare)

    for problem in problems:
        print("FAIL", problem)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
