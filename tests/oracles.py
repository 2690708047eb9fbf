"""
Independent brute-force oracles.  Everything here is deliberately naive and
shares no code path with the implementations it checks.
"""

from collections import Counter
from collections.abc import Sequence
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations
from typing import Iterator

from schubert.perms import Perm
from schubert.poly import Poly


def inversion_count(w) -> int:
    count = 0
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            if w[i] > w[j]:
                count += 1
    return count


@cache
def cover_graph(n: int) -> dict[Perm, set[Perm]]:
    """Successor sets of the Bruhat cover relation, built once per n and shared by callers."""
    succ: dict[Perm, set[Perm]] = {}
    for u in permutations(range(1, n + 1)):
        lu = inversion_count(u)
        succ[u] = set()
        for i in range(n):
            for j in range(i + 1, n):
                v = list(u)
                v[i], v[j] = v[j], v[i]
                v = tuple(v)
                if inversion_count(v) == lu + 1:
                    succ[u].add(v)
    return succ


def labeled_covers_by_sort(u: Perm) -> list:
    """
    Every labeled edge ((k, u(i)), v) out of u, sorted.  The covers
    v = u*(i,j) are the swaps that raise the inversion count by one, and
    each carries the labels (k, u(i)) for i <= k < j, 1-indexed.
    """
    n, lu = len(u), inversion_count(u)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            v = list(u)
            v[i], v[j] = v[j], v[i]
            if inversion_count(v) == lu + 1:
                edges += [((k, u[i]), tuple(v)) for k in range(i + 1, j + 1)]
    return sorted(edges)


def brute_force_chains(u: Perm, top: int):
    """
    Every increasing chain from u whose end has length at most top, as
    (perms, labels), by a plain search of the cover graph.  The labels of a
    cover are worked out from the two swapped positions i < j: (k, u(i))
    for every i <= k < j, 1-indexed.  The steps out of a node are taken in
    sorted (label, perm) order, so the chains to one end come in
    lexicographic order of their label sequences.
    """
    n = len(u)
    succ = cover_graph(n)
    perms, labels = [u], []

    def extend(p):
        yield tuple(perms), tuple(labels)
        if inversion_count(p) >= top:
            return
        steps = []
        for q in succ[p]:
            i, j = [pos for pos in range(n) if p[pos] != q[pos]]
            steps += [((k, p[i]), q) for k in range(i + 1, j + 1)]
        for label, q in sorted(steps):
            if not labels or label > labels[-1]:
                perms.append(q)
                labels.append(label)
                yield from extend(q)
                perms.pop()
                labels.pop()

    yield from extend(u)


def chain_type(labels, n: int) -> tuple[int, ...]:
    """Entry k - 1 counts the labels (k, b) of a chain in S_n."""
    return tuple(sum(1 for k, _ in labels if k == row) for row in range(1, n))


def brute_force_type_counts(u: Perm, w: Perm) -> Counter:
    """The types of the increasing chains from u to w, from brute_force_chains."""
    return Counter(chain_type(labels, len(u))
                   for perms, labels in brute_force_chains(u, inversion_count(w))
                   if perms[-1] == w)


def bruhat_reachable(n: int) -> dict[Perm, set[Perm]]:
    """Transitive closure of the cover graph (breadth-first from each node)."""
    succ = cover_graph(n)
    reach: dict[Perm, set[Perm]] = {}
    for u in succ:
        seen = {u}
        frontier = [u]
        while frontier:
            nxt = []
            for p in frontier:
                for q in succ[p]:
                    if q not in seen:
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        reach[u] = seen
    return reach


def bruhat_leq_by_sorted_prefixes(u: Perm, w: Perm) -> bool:
    """
    The tableau criterion: u <= w in the Bruhat order iff for every k the
    sorted k-prefix of u is entrywise at most that of w.
    """
    if len(u) != len(w):
        raise ValueError("size mismatch")
    return all(a <= b for k in range(1, len(u))
               for a, b in zip(sorted(u[:k]), sorted(w[:k])))


def word_product(word, n: int) -> Perm:
    p = list(range(1, n + 1))
    for a in word:
        p[a - 1], p[a] = p[a], p[a - 1]
    return tuple(p)


def brute_force_rcgraphs(w: Perm) -> set[frozenset]:
    """
    Every staircase subset of size length(w) whose reading word multiplies
    out to w and is reduced.
    """
    n = len(w)
    cells = [(k, b) for k in range(1, n) for b in range(1, n - k + 1)]
    target_len = inversion_count(w)
    found = set()
    for sub in combinations(cells, target_len):
        word = [k + b - 1 for k, b in sorted(sub, key=lambda kb: (kb[0], -kb[1]))]
        if word_product(word, n) == w:
            found.add(frozenset(sub))
    return found


def max_ordered_normal_form(terms: dict, n: int) -> dict:
    """
    The normal form modulo <e_1, ..., e_n> by the plain quadratic loop, on a
    dict of exponent tuples: take the largest monomial left (exponents read
    from x_n down to x_1) by a scan of all of them; if some x_i^d with
    d = n - i + 1 divides it, for the largest such i, replace x_i^d by
    minus the other monomials of h_d(x_1, ..., x_i); else keep it.
    """
    work: dict = {}
    for m, c in terms.items():
        m = tuple(m) + (0,) * (n - len(m))
        work[m] = work.get(m, 0) + c
        if work[m] == 0:
            del work[m]
    done = {}
    while work:
        m = max(work, key=lambda e: e[::-1])
        c = work.pop(m)
        for i in range(n, 0, -1):
            d = n - i + 1
            if m[i - 1] >= d:
                for combo in combinations_with_replacement(range(i), d):
                    r = list(m)
                    r[i - 1] -= d
                    for j in combo:
                        r[j] += 1
                    r = tuple(r)
                    if r == m:  # the lead term x_i^d itself
                        continue
                    work[r] = work.get(r, 0) - c
                    if work[r] == 0:
                        del work[r]
                break
        else:
            while m and m[-1] == 0:
                m = m[:-1]
            done[m] = c
    return done


# --- Schur polynomials by semistandard tableaux ------------------------------
# Desk scale only: an independent cross-check of the Schubert construction on
# Grassmannian permutations, with the dictionary between those and partitions.

Partition = tuple[int, ...]


def _check_partition(lam: Sequence[int]) -> Partition:
    lam = tuple(lam)
    if any(a < 0 for a in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"not a partition: {lam}")
    while lam and lam[-1] == 0:
        lam = lam[:-1]
    return lam


def semistandard_tableaux(
    lam: Sequence[int], mu: Sequence[int] | None = None, max_entry: int = 0
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """
    All fillings of the skew shape lam/mu with entries 1..max_entry that
    weakly increase along rows and strictly increase down columns.  Rows are
    emitted as tuples covering columns mu_r .. lam_r - 1.
    """
    lam = _check_partition(lam)
    mu = _check_partition(mu or ())
    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
        raise ValueError(f"{mu} does not fit inside {lam}")
    mu = mu + (0,) * (len(lam) - len(mu))

    rows = len(lam)

    def fill(r: int, done: list[tuple[int, ...]]) -> Iterator[tuple[tuple[int, ...], ...]]:
        if r == rows:
            yield tuple(done)
            return
        width = lam[r] - mu[r]

        def cells(c: int, row: list[int]) -> Iterator[tuple[tuple[int, ...], ...]]:
            if c == width:
                done.append(tuple(row))
                yield from fill(r + 1, done)
                done.pop()
                return
            col = mu[r] + c
            low = 1
            if row:
                low = max(low, row[-1])
            if r > 0 and mu[r - 1] <= col < lam[r - 1]:
                low = max(low, done[r - 1][col - mu[r - 1]] + 1)
            for v in range(low, max_entry + 1):
                row.append(v)
                yield from cells(c + 1, row)
                row.pop()

        yield from cells(0, [])

    yield from fill(0, [])


def schur_oracle(
    lam: Sequence[int], mu: Sequence[int] | None = None, k: int = 0
) -> Poly:
    """
    The (skew) Schur polynomial S_{lam/mu}(x_1, ..., x_k) as the generating
    function of semistandard tableaux.
    """
    if k < 1:
        raise ValueError("need at least one variable")
    terms: Counter = Counter()
    for tab in semistandard_tableaux(lam, mu, k):
        e = [0] * k
        for row in tab:
            for v in row:
                e[v - 1] += 1
        terms[tuple(e)] += 1
    return Poly(terms)


def grassmannian_descent(w: Perm) -> int | None:
    """The unique descent of w, or None when w has zero or several."""
    descents = [i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1]]
    return descents[0] if len(descents) == 1 else None


def grassmannian_shape(w: Perm) -> tuple[Partition, int]:
    """
    The partition of a Grassmannian permutation with descent k:
    lambda_i = w(k + 1 - i) - (k + 1 - i).
    """
    k = grassmannian_descent(w)
    if k is None:
        raise ValueError(f"{w} is not Grassmannian")
    lam = tuple(w[k - i] - (k + 1 - i) for i in range(1, k + 1))
    return _check_partition(lam), k
