"""
The three workloads: their inputs, their ops, the canonical form of each
op's result, and the untimed cross-checks run on it.

Inputs come only from the workload seed and from the permutation helpers
below, which are the benchmark's own and share no code with the package:
set-up time does not move when the package's Bruhat code changes, and the
cross-checks do not reuse the code path they check.

Every op list is shuffled once, so each prefix of it is a sample of the
same mix.  The traced run and the tiny smoke run use prefixes of the full
list; the committed per-op digests of seed 0 therefore cover all sizes.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from functools import cache
from itertools import permutations
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
LAYERS = ("perms", "chains", "rcgraphs", "poly", "calc")


def load_library() -> SimpleNamespace:
    """Import the package layers the benchmark calls (part of set-up)."""
    import importlib

    return SimpleNamespace(**{m: importlib.import_module("schubert." + m) for m in LAYERS})


# --- permutation helpers of the benchmark's own ------------------------------

@cache
def all_perms(n):
    return tuple(permutations(range(1, n + 1)))


def perm_length(w):
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def perm_str(w):
    return "".join(str(v) for v in w)


def perm_parse(s):
    return tuple(int(ch) for ch in s)


def covers(u):
    """Bruhat covers: swaps (i, j) with u(i) < u(j) and no value between them in between."""
    out = []
    for i in range(len(u) - 1):
        for j in range(i + 1, len(u)):
            if u[i] < u[j] and all(not u[i] < u[p] < u[j] for p in range(i + 1, j)):
                w = list(u)
                w[i], w[j] = w[j], w[i]
                out.append((tuple(w), i, j))
    return out


def bruhat_leq(u, w):
    """Rank-matrix criterion: #{a <= i : u(a) >= j} <= the same count for w."""
    n = len(u)
    for i in range(1, n):
        for j in range(2, n + 1):
            if sum(1 for a in u[:i] if a >= j) > sum(1 for a in w[:i] if a >= j):
                return False
    return True


def vanishes(u, v):
    """S_u * S_v == 0 in H*(Fl_n) exactly when u is not below w0 * v."""
    n = len(v)
    return not bruhat_leq(u, tuple(n + 1 - x for x in v))


def walk_up(rng, u, d):
    """The end of a random saturated chain of d covers above u, or None at the top."""
    w = u
    for _ in range(d):
        ups = covers(w)
        if not ups:
            return None
        w = rng.choice(ups)[0]
    return w


def perm_of_length(rng, n, length):
    while True:
        w = tuple(rng.sample(range(1, n + 1), n))
        if perm_length(w) == length:
            return w


def comparable_pair(rng, n, d):
    """(u, w) with w a random d-step climb above a uniform u."""
    perms = all_perms(n)
    while True:
        u = rng.choice(perms)
        w = walk_up(rng, u, d)
        if w is not None:
            return u, w


# --- canonical results ---------------------------------------------------------

def op_digest(text: str) -> str:
    """Short digest of one op's canonical result."""
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def run_digest(op_digests) -> str:
    return hashlib.sha256("".join(op_digests).encode()).hexdigest()


def canon_expansion(expansion) -> str:
    return json.dumps(sorted((perm_str(w), c) for w, c in expansion.terms.items()))


def canon_poly(p) -> str:
    return json.dumps(sorted((list(m), c) for m, c in p.items()))


def canon_chains(chains) -> str:
    return json.dumps(sorted((perm_str(c.start), c.labels) for c in chains))


def op_key(op) -> str:
    return " ".join(perm_str(x) if isinstance(x, tuple) else str(x) for x in op)


# --- lr-table ------------------------------------------------------------------

LR_N = 5


def lr_table_ops(seed):
    """
    The LR table of S_5 up to the symmetry c^w_{u,v} = c^w_{v,u}: every
    unordered pair {u, v}, u = v included, once, in an order drawn from the
    seed.  Every seed thus does the same work, so seed-to-seed spread is the
    machine's alone; the half table gives each op twice the samples of the
    whole one in a run.  Random pairs from S_6 or S_7 were tried and not
    kept: their cost per op spans two to four orders of magnitude (up to
    0.2 s on S_6 and 4 s on S_7), and which heavy pairs a seed drew moved the
    throughput by more than the benchmark's bound.
    """
    rng = random.Random(f"lr-table/{seed}")
    perms = all_perms(LR_N)
    ops = [("lr", u, v, LR_N) for i, u in enumerate(perms) for v in perms[i:]]
    rng.shuffle(ops)
    return ops


def lr_table_run(lib, op):
    _, u, v, n = op
    return lib.calc.lr_coefficients(u, v, n)


def lr_table_check(lib, op, result):
    """
    Degrees add up, coefficients are positive, the product is zero exactly
    when it vanishes, and the product reassembles: the sum of c_w * S_w is
    the normal form of S_u * S_v (this catches lost or wrong terms, not a
    wrong normal form).
    """
    _, u, v, n = op
    degree = perm_length(u) + perm_length(v)
    if any(perm_length(w) != degree or c <= 0 for w, c in result.terms.items()):
        return "term of wrong length or non-positive coefficient"
    if (len(result) == 0) != vanishes(u, v):
        return "zero product disagrees with the vanishing criterion"
    calc = lib.calc
    if result.as_poly() != lib.poly.normal_form(calc.schubert(u, n) * calc.schubert(v, n), n):
        return "coefficients do not reassemble the product"
    return None


def lr_table_properties(ops, chain_counts):
    sizes = {}
    for op in ops:
        sizes[op[3]] = sizes.get(op[3], 0) + 1
    vanishing = sum(1 for op in ops if vanishes(op[1], op[2]))
    return {"ops_per_n": sizes, "zero_ratio": vanishing / len(ops)}


# --- chain-walk ----------------------------------------------------------------

# The generic walk from u visits every increasing chain from u up to the
# target length, whatever the endpoint, so its cost is set by u and the
# depth d.  Every list therefore starts the walk once from each u of a
# fixed set at each depth, and the seed picks the endpoints: a random climb
# of d covers.  Cost then moves little from seed to seed.  The set is every
# fourth u of the given length, in lexicographic order, and the other kinds
# are cut to match, so that a pass is short and each op gets many samples
# in a run.
SKEW_STARTS = ((6, 5, (3, 4, 5, 6)), (7, 4, (3, 4)))
PIERI_OPS = 30
PIERI_DEGREES = (1, 2, 3)
# S_8 lengths with the most increasing chains to w0 (up to a few thousand),
# and one heavy permutation in every list (3003 chains), so that the largest
# result, which sets the peak RSS, is the same for every seed
TO_W0_LENGTHS = (8, 9, 10, 11)
TO_W0_PER_LENGTH = 8
HEAVY_TO_W0 = (1, 4, 2, 3, 8, 7, 6, 5)


def chain_walk_ops(seed):
    rng = random.Random(f"chain-walk/{seed}")
    ops = []
    for n, start_length, depths in SKEW_STARTS:
        starts = [u for u in all_perms(n) if perm_length(u) == start_length][::4]
        ops += [("skew", walk_up(rng, u, d), u, n) for d in depths for u in starts]
    s7 = all_perms(7)
    ops += [("pieri", rng.choice(s7), PIERI_DEGREES[i % len(PIERI_DEGREES)],
             rng.randint(1, 6), 7) for i in range(PIERI_OPS)]
    ops += [("to_w0", perm_of_length(rng, 8, length))
            for length in TO_W0_LENGTHS for _ in range(TO_W0_PER_LENGTH)]
    ops.append(("to_w0", HEAVY_TO_W0))
    rng.shuffle(ops)
    return ops


def chain_walk_run(lib, op):
    kind = op[0]
    if kind == "skew":
        _, w, u, n = op
        return lib.calc.skew(w, u, n, method="chains")
    if kind == "pieri":
        _, u, a, k, n = op
        return lib.calc.pieri(u, a, k, n)
    return list(lib.chains.increasing_chains_to_w0(op[1]))


def chain_walk_canon(op, result):
    if op[0] == "skew":
        return canon_poly(result)
    if op[0] == "pieri":
        return canon_expansion(result)
    return canon_chains(result)


def _chain_is_valid(chain, start, end):
    perms, labels = chain.perms, chain.labels
    if perms[0] != start or perms[-1] != end or len(perms) != len(labels) + 1:
        return False
    if any(a >= b for a, b in zip(labels, labels[1:])):
        return False
    for p, q, (k, b) in zip(perms, perms[1:], labels):
        moved = [i for i in range(len(p)) if p[i] != q[i]]
        if len(moved) != 2:
            return False
        i, j = moved
        if not (q[i] == p[j] and q[j] == p[i] and p[i] == b and i < k <= j):
            return False
        if not all(not p[i] < p[m] < p[j] for m in range(i + 1, j)) or p[i] > p[j]:
            return False
    return True


def skew_by_walk(u, w):
    """
    The skew polynomial as {exponents: coefficient}, summed over increasing
    chains found by a walk of the benchmark's own.
    """
    n, target = len(u), perm_length(w)
    terms = {}
    chain_type = [0] * n

    def walk(p, plen, last):
        if plen == target:
            if p == w:
                e = [n - 1 - i - chain_type[i] for i in range(n)]
                while e and e[-1] == 0:
                    e.pop()
                terms[tuple(e)] = terms.get(tuple(e), 0) + 1
            return
        for q, i, j in covers(p):
            for k in range(i + 1, j + 1):
                label = (k, p[i])
                if last is None or label > last:
                    chain_type[k - 1] += 1
                    walk(q, plen + 1, label)
                    chain_type[k - 1] -= 1

    walk(u, perm_length(u), None)
    return terms


def chain_walk_check(lib, op, result):
    """
    Skew on S_6 against the normal-form route.  On S_7 that route costs
    about 0.2 s per op, more than a run can spend, so S_7 skews are checked
    against the benchmark's own chain walk instead.  Pieri against the
    expansion of the normal form of S_u * h_a(x_1..x_k).
    """
    kind = op[0]
    if kind == "skew":
        _, w, u, n = op
        if n == 6 and result != lib.calc.skew(w, u, n, method="normalform"):
            return "chains route disagrees with the normal-form route"
        if n != 6 and dict(result.items()) != skew_by_walk(u, w):
            return "chains route disagrees with an independent chain walk"
        return None
    if kind == "pieri":
        _, u, a, k, n = op
        product = lib.calc.schubert(u, n) * lib.poly.complete_h(a, k)
        if result != lib.calc.expand_in_schubert_basis(lib.poly.normal_form(product, n), n):
            return "chain Pieri rule disagrees with the polynomial route"
        return None
    w = op[1]
    w0 = tuple(range(len(w), 0, -1))
    if len({c.labels for c in result}) != len(result):
        return "duplicate chain"
    if not all(_chain_is_valid(c, w, w0) for c in result):
        return "not an increasing labeled chain from w to w0"
    return None


def chain_count(op, result):
    if op[0] == "skew":
        return sum(c for _, c in result.items())
    if op[0] == "to_w0":
        return len(result)
    return None


def chain_walk_properties(ops, chain_counts):
    kinds = {}
    for op in ops:
        key = f"{op[0]}/S{op[-1] if op[0] != 'to_w0' else len(op[1])}"
        kinds[key] = kinds.get(key, 0) + 1
    counts = sorted(c for c in chain_counts if c is not None)
    return {
        "ops_per_kind": kinds,
        "chain_count_max": counts[-1] if counts else 0,
        "chain_count_median": counts[len(counts) // 2] if counts else 0,
    }


# --- cli-cold ------------------------------------------------------------------

# Each schub process costs about 0.1 s, and on a shared machine one sample
# of it can read up to 1.5 times its best.  A run can therefore afford
# either many distinct commands or many samples of each, and only the
# second repeats from run to run: the median of each command's best over
# three passes spread 0.27-0.30 (quartile distance over median) across five
# runs, over seven passes 0.12-0.14.  So the list is short.
CLI_PER_KIND = 5
CLI_KINDS = ("schubert", "skew", "skew-expand", "lr", "rcgraphs", "chains", "verify")


def cli_cold_ops(seed):
    rng = random.Random(f"cli-cold/{seed}")
    s5, s6 = all_perms(5), all_perms(6)
    ops = []
    for _ in range(CLI_PER_KIND):
        ops.append(("cli", "schubert", perm_str(rng.choice(s6)), "--format", "json"))
        u, w = comparable_pair(rng, 5, rng.randint(2, 4))
        ops.append(("cli", "skew", perm_str(w), perm_str(u)))
        u, w = comparable_pair(rng, 5, rng.randint(2, 4))
        ops.append(("cli", "skew", perm_str(w), perm_str(u), "--expand"))
        ops.append(("cli", "lr", perm_str(rng.choice(s5)), perm_str(rng.choice(s5))))
        ops.append(("cli", "rcgraphs", perm_str(rng.choice(s5)), "--render", "json"))
        u, w = comparable_pair(rng, 5, rng.randint(2, 4))
        ops.append(("cli", "chains", perm_str(u), perm_str(w), "--format", "json"))
        ops.append(("cli", "verify", "--suite", "routes", "--n", "4"))
    rng.shuffle(ops)
    return ops


def child_env(root):
    """The environment of a user's shell, with the package on PYTHONPATH."""
    env = dict(os.environ)
    env.pop("SCHUB_FORMAT", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_child(argv, env, cwd):
    """Run one process to completion: (seconds, exit code, output, peak RSS in MB)."""
    t0 = perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=env, cwd=cwd)
    with proc.stdout:
        out = proc.stdout.read().decode()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return perf_counter() - t0, proc.returncode, out, usage.ru_maxrss / 1024


def cli_argv(op, traced):
    if traced:
        return [sys.executable, os.path.join(HERE, "cli_shim.py"), *op[1:]]
    return [sys.executable, "-m", "schubert", *op[1:]]


def cli_canon(result):
    code, out = result
    return f"{code}\n{out}"


def _routes_pairs_s4():
    s4 = all_perms(4)
    return sum(1 for u in s4 for w in s4 if bruhat_leq(u, w))


def cli_check(lib, op, result):
    code, out = result
    if code != 0:
        return f"exit status {code}"
    kind = op[1]
    calc, poly = lib.calc, lib.poly
    if kind == "schubert":
        w = perm_parse(op[2])
        if poly.poly_from_json_obj(json.loads(out)) != calc.schubert(w, len(w), method="rcgraph"):
            return "printed polynomial differs from the rc-graph construction"
    elif kind == "skew":
        w, u = perm_parse(op[2]), perm_parse(op[3])
        expected = calc.skew(w, u, len(w), method="chains")
        if "--expand" in op:
            terms = {perm_parse(k): c for k, c in json.loads(out).items()}
            got = calc.SchubertExpansion(len(w), terms).as_poly()
        else:
            got = poly.poly_from_text(out)
        if got != expected:
            return "printed skew polynomial differs from the chains route"
    elif kind == "lr":
        u, v = perm_parse(op[2]), perm_parse(op[3])
        rows = [line.split() for line in out.splitlines()]
        degree = perm_length(u) + perm_length(v)
        if any(perm_length(perm_parse(w)) != degree or int(c) <= 0 for w, c in rows):
            return "lr row of wrong length or non-positive coefficient"
        if (not rows) != vanishes(u, v):
            return "zero product disagrees with the vanishing criterion"
    elif kind == "rcgraphs":
        w = perm_parse(op[2])
        graphs = [lib.rcgraphs.rcgraph_from_json_obj(json.loads(line))
                  for line in out.splitlines()]
        if any(lib.rcgraphs.perm_of(g) != w for g in graphs):
            return "rc-graph of another permutation"
        if len({g.crossings for g in graphs}) != len(graphs) or \
                len(graphs) != calc.schubert(w, len(w)).coefficient_sum():
            return "rc-graph count differs from S_w(1, ..., 1)"
    elif kind == "chains":
        u, w = perm_parse(op[2]), perm_parse(op[3])
        chains = [lib.chains.chain_from_json_obj(json.loads(line), end=w)
                  for line in out.splitlines()]
        if not all(_chain_is_valid(c, u, w) for c in chains):
            return "not an increasing labeled chain from u to w"
        if len(chains) != calc.skew(w, u, len(w), method="normalform").coefficient_sum():
            return "chain count differs from the skew polynomial at 1"
    elif kind == "verify":
        if out != f"routes: PASS ({_routes_pairs_s4()} checks)\n":
            return "unexpected verify report"
    return None


def cli_properties(ops, chain_counts):
    kinds = {}
    for op in ops:
        key = op[1] + ("-expand" if "--expand" in op else "")
        kinds[key] = kinds.get(key, 0) + 1
    return {"ops_per_kind": kinds}


WORKLOADS = {
    "lr-table": SimpleNamespace(
        build=lr_table_ops, run=lr_table_run,
        canon=lambda op, r: canon_expansion(r), check=lr_table_check,
        chain_count=lambda op, r: None, properties=lr_table_properties,
        trace_ops=2000, tiny_ops=30, in_process=True),
    "chain-walk": SimpleNamespace(
        build=chain_walk_ops, run=chain_walk_run,
        canon=chain_walk_canon, check=chain_walk_check,
        chain_count=chain_count, properties=chain_walk_properties,
        trace_ops=185, tiny_ops=20, in_process=True),
    "cli-cold": SimpleNamespace(
        build=cli_cold_ops, run=None,
        canon=lambda op, r: cli_canon(r), check=cli_check,
        chain_count=lambda op, r: None, properties=cli_properties,
        trace_ops=35, tiny_ops=8, in_process=False),
}
