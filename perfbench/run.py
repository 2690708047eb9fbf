#!/usr/bin/env python3
"""
Benchmark of the schubert package.  Run from the repository root:

    python3 perfbench/run.py --workload lr-table --seed 0 --seconds 30 --trace 0

Closed loop: one client in one process issues one op at a time and waits
for it; ``cli-cold`` starts one child process at a time.  The op list comes
from the seed (see ``workloads.py``).  The run makes whole passes over the
list, at least MIN_PASSES and until ``--seconds`` of op time; each op's time
is its best over the passes, and the latency percentiles and throughput are
taken over those per-op times.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the op list three times (traced with a cold cache, untraced,
traced again) and prints the per-layer metrics of the first traced pass and
the tracing overhead, untraced over traced throughput of the two warm passes;
the run info then holds the tracer's per-span-name totals.

Every op's result is put in canonical form and digested.  Results are
cross-checked (untimed) by a route that does not share the op's code path,
results of repeated passes must match the first, and each op's digest must
match ``digests.json`` where that holds the op (every op of seed 0, and
every op of any seed on lr-table).  Every failure counts in ``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the digest, the input properties and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

import tracer as tr
import workloads as wls

HERE = os.path.dirname(os.path.abspath(__file__))
# Each op's time is its best over the passes.  The speed of this kind of
# shared machine switches between two states about 1.4 times apart, within
# a second or after minutes; only slowdowns occur, so the best of many
# passes spread over the run is what repeats from run to run.
MIN_PASSES = 3
# set-up probes, spread evenly over the run between ops, so that their
# median is not taken in one speed state of the machine
SETUP_PROBES = 15
START_REPEATS = 10


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(wls.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: a short prefix of the op list, for the smoke run")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def select_ops(wl, ops, size, trace):
    if size == "tiny":
        return ops[:wl.tiny_ops]
    return ops[:wl.trace_ops] if trace else ops


def timed_setup(args):
    """Import of the package layers plus input generation: set-up time."""
    wl = wls.WORKLOADS[args.workload]
    t0 = perf_counter()
    lib = wls.load_library()
    ops = select_ops(wl, wl.build(args.seed), args.size, args.trace)
    return perf_counter() - t0, lib, ops


def setup_probe(args, root, env):
    """Set-up time of one fresh process."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", args.workload, "--seed", str(args.seed),
            "--size", args.size, "--trace", str(args.trace)]
    _, code, out, _ = wls.run_child(argv, env, root)
    if code != 0:
        raise RuntimeError(f"set-up probe failed: {out}")
    return float(out.split()[-1])


class Runner:
    """Runs ops, times them, and checks their results."""

    def __init__(self, args, root, lib, ops):
        self.wl = wls.WORKLOADS[args.workload]
        self.lib, self.ops, self.root = lib, ops, root
        self.env = wls.child_env(root)
        with open(os.path.join(HERE, "digests.json")) as fh:
            committed = json.load(fh).get(args.workload, [])
        # The digests are committed for the seed-0 list.  An op of another
        # seed that is also on that list is checked too: on lr-table, whose
        # list is the same table in another order, that is every op.
        known = dict(zip(map(wls.op_key, self.wl.build(0)), committed))
        self.committed = [known.get(wls.op_key(op)) for op in ops]
        self.digests: list[str | None] = [None] * len(ops)
        self.chain_counts: list[int | None] = [None] * len(ops)
        self.attempted = 0
        self.pass_seconds: list[float] = []
        self.failures: list[str] = []
        self.child_rss = 0.0
        self.traced_totals: dict[str, list] = {}
        self.import_times: list[float] = []

    def execute(self, op, traced_child):
        """One op: (seconds, result).  Raises if the op raises."""
        if self.wl.in_process:
            t0 = perf_counter()
            result = self.wl.run(self.lib, op)
            return perf_counter() - t0, result
        dt, code, out, rss = wls.run_child(wls.cli_argv(op, traced_child), self.env, self.root)
        self.child_rss = max(self.child_rss, rss)
        if traced_child:
            report = json.loads(out)
            tr.merge(self.traced_totals, report["totals"])
            self.import_times.append(report["import_s"])
            return dt, (report["exit"], report["stdout"])
        return dt, (code, out)

    def fail(self, index, message):
        self.failures.append(f"op {index} ({wls.op_key(self.ops[index])}): {message}")

    def run_op(self, index, check, traced_child=False):
        """Run, time, digest and (if asked) cross-check one op; return its time."""
        op = self.ops[index]
        self.attempted += 1
        try:
            dt, result = self.execute(op, traced_child)
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            self.fail(index, f"raised {exc!r}")
            return None
        digest = wls.op_digest(self.wl.canon(op, result))
        problem = None
        if self.digests[index] is None:
            self.digests[index] = digest
            self.chain_counts[index] = self.wl.chain_count(op, result)
            if self.committed[index] not in (None, digest):
                problem = "result differs from the committed digest"
        elif self.digests[index] != digest:
            problem = "result differs from an earlier run of the same op"
        if problem is None and check:
            try:
                problem = self.wl.check(self.lib, op, result)
            except Exception as exc:
                problem = f"cross-check raised {exc!r}"
        if problem:
            self.fail(index, problem)
        return dt

    def run_pass(self, check, traced_child=False, before_op=None):
        """Each op once, in order; a failed op's time is None."""
        times = []
        for i in range(len(self.ops)):
            if before_op is not None:
                before_op()
            times.append(self.run_op(i, check, traced_child))
        return times

    def run_timed(self, seconds, before_op):
        """
        Whole passes over the list until ``seconds`` of op time and at least
        MIN_PASSES passes; returns each op's best time over the passes.
        An op that is on the list more than once (cli-cold runs the same
        verify command five times) is one op, whose time is its best over
        all its runs.  ``before_op()`` runs untimed before each op.
        """
        keys = [wls.op_key(op) for op in self.ops]
        best = {}
        while len(self.pass_seconds) < MIN_PASSES or sum(self.pass_seconds) < seconds:
            times = self.run_pass(check=not self.pass_seconds, before_op=before_op)
            self.pass_seconds.append(sum(t for t in times if t is not None))
            if all(t is None for t in times):
                break
            for key, t in zip(keys, times):
                if t is not None:
                    best[key] = min(t, best.get(key, t))
        return [best[key] for key in keys if key in best]

    def info(self, args):
        return {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "ops": len(self.ops),
            "pass_seconds": [round(t, 3) for t in self.pass_seconds],
            "result_digest": wls.run_digest(d or "-" for d in self.digests),
            "digests_checked": sum(d is not None for d in self.committed),
            "fail_ratio": len(self.failures) / max(self.attempted, 1),
            "failures": self.failures[:5],
            "properties": self.wl.properties(self.ops, self.chain_counts),
            "environment": environment(self.root),
        }


def environment(root):
    src = os.path.join(root, "src", "schubert")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                h.update(fh.read())
    return {"commit": git_commit(root), "src_sha256": h.hexdigest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}


def git_commit(root):
    try:
        with open(os.path.join(root, ".git", "HEAD")) as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def percentile(samples, q):
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(args, runner, root):
    setups = []
    interval = args.seconds / SETUP_PROBES
    due = perf_counter()

    def probe_setup():
        nonlocal due
        if len(setups) < SETUP_PROBES and perf_counter() >= due:
            setups.append(setup_probe(args, root, runner.env))
            due = perf_counter() + interval

    samples = runner.run_timed(args.seconds, probe_setup)
    while len(setups) < 3:  # a short run ends before the probes are spread
        setups.append(setup_probe(args, root, runner.env))
    if len(samples) < 2:
        raise RuntimeError("no op succeeded: " + "; ".join(runner.failures[:3]))
    if runner.wl.in_process:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rss_mb = runner.child_rss
    info = runner.info(args)
    p50, p90 = percentile(samples, 50), percentile(samples, 90)
    info["samples"] = len(samples)
    info["samples_above_p90"] = sum(1 for t in samples if t > p90)
    metrics = {
        "ops_per_s": (len(samples) / sum(samples), "1/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return info, metrics


def traced(args, runner, root):
    """Per-layer metrics from a traced pass, and the tracing overhead."""
    if runner.wl.in_process:
        cold = tr.Tracer()
        cold.install()
        runner.run_pass(check=False)
        cold.uninstall()
        totals = cold.summary()
        untraced = runner.run_pass(check=True)
        warm = tr.Tracer()
        warm.install()
        traced_times = runner.run_pass(check=False)
        warm.uninstall()
        import_s = start_s = 0.0
    else:
        untraced = runner.run_pass(check=True)
        traced_times = runner.run_pass(check=False, traced_child=True)
        totals = runner.traced_totals
        import_s = statistics.median(runner.import_times) if runner.import_times else 0.0
        start_s = statistics.median(
            wls.run_child([sys.executable, "-c", "pass"], runner.env, root)[0]
            for _ in range(START_REPEATS))
    metrics = tr.layer_metrics(totals)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.python_start_s"] = (start_s, "s")
    busy = [sum(t for t in times if t is not None) for times in (untraced, traced_times)]
    overhead = busy[1] / busy[0] if busy[0] else 0.0
    metrics["trace.overhead_ratio"] = (overhead, "ratio")
    info = runner.info(args)
    info["trace_totals"] = {name: dict(zip(("calls", "total_s", "self_s", "a", "b"), tot))
                            for name, tot in totals.items()}
    return info, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "schubert", "__init__.py")):
        print("error: run from the repository root (src/schubert not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    if args.setup_probe:
        print(timed_setup(args)[0])
        return 0
    _, lib, ops = timed_setup(args)
    runner = Runner(args, root, lib, ops)
    info, metrics = (traced if args.trace else end_to_end)(args, runner, root)
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
