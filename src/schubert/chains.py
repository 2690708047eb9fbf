"""
Saturated labeled chains in the Bruhat order and the enumeration of
increasing chains.

A chain stores every permutation it visits, not just its label sequence: a
permutation can have two distinct covers carrying the same label (from 1324
both the swap of positions (1,2) and of (1,3) carry the label (1,1)), so
labels alone do not pin down the walk.  A chain is *increasing* when its
labels strictly increase in lexicographic order.

All questions about the chains that end at one w are answered by one
search, search_toward(w), shared by every start u: a recursion over
(node, last label) whose memo holds the types of the chains from the node
to w with every label above the last.  It stays in [u, w]: each cover from
a node's swap scan is tested against w by one subtraction from the rank
counts of the node (perms._covers_below, the test of perms._below(w)) before
it is built.  The search keeps the covers in scan order, since a sum over the
labels above the last needs no order.  type_counts reads u's memo entry;
increasing_chains walks the covers found, sorting the labels of each node it
enters (perms._sorted_edges).

Chains ending at the longest permutation admit a much better search: the
branches below a node u all swap the same position k, the minimal one with
u(k) + k < n + 1, paired with every l > k that yields a cover.  That tree
has one leaf per chain and its depth equals the number of steps, so the
whole of Gamma(w, w0) costs O(n * l * c) where l is the number of steps and
c the number of chains.  A node's branch is read from the bounded cache
_branch, which holds cover data only, no search state: every search keeps
its state on its own stack or in a memo owned by its caller, so
independent traversals can run concurrently.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .perms import (Label, Perm, _as_int, _below, _covers_below, _json_int, _json_shape, _perm_of,
                    _perm_pair, _sorted_edges, cover_partners, labeled_edges,
                    longest, perm_from_str, perm_to_str)

Composition = tuple[int, ...]


@dataclass(frozen=True)
class LabeledChain:
    """A saturated chain: perms[0] -> perms[1] -> ... with one label per step."""

    perms: tuple[Perm, ...]
    labels: tuple[Label, ...]

    def __post_init__(self):
        if len(self.perms) != len(self.labels) + 1:
            raise ValueError("need exactly one label per step")

    @property
    def start(self) -> Perm:
        return self.perms[0]

    @property
    def end(self) -> Perm:
        return self.perms[-1]

    @property
    def n(self) -> int:
        return len(self.perms[0])

    def __len__(self) -> int:
        return len(self.labels)

    def is_increasing(self) -> bool:
        return all(a < b for a, b in zip(self.labels, self.labels[1:]))


def check_chain(chain: LabeledChain) -> None:
    """Raise ValueError unless every step is a labeled cover with its label."""
    for u, w, lab in zip(chain.perms, chain.perms[1:], chain.labels):
        if lab not in labeled_edges(u, w):
            raise ValueError(f"{lab} does not label the cover {u} -> {w}")


def cell_type(cells: Iterable[Label], n: int) -> Composition:
    """The type of staircase cells in size n: entry i counts those in row i."""
    t = [0] * (n - 1)
    for k, _ in cells:
        t[k - 1] += 1
    return tuple(t)


def chain_monomial(chain: LabeledChain) -> Composition:
    """The exponent vector of x^gamma, also called the type of the chain."""
    return cell_type(chain.labels, chain.n)


def search_toward(w: Perm):
    """
    One memoized search for the increasing chains that end at w, shared by
    every start.  Returns (types, near): types(p, last=(0, 0)) maps each type
    of a chain from p to w with every label above last to its number of
    chains; near maps each node entered to its covers (i, j, v) toward w in
    the order of the swap scan (perms._covers_below, one subtraction per
    cover), unsorted: the sum over labels needs no order.  The memo is keyed
    by (node, last label), so a node's types are counted once, not once per
    chain through it.  The dicts types returns belong to the memo: copy one first.
    """
    unit = {(0,) * (len(w) - 1): 1}  # the types of the empty chain at w
    memo: dict[tuple[Perm, Label], dict[Composition, int]] = {}
    near: dict[Perm, list[tuple[int, int, Perm]]] = {}

    def suffixes(p: Perm, last: Label) -> dict[Composition, int]:
        if (covers := near.get(p)) is None:
            covers = near[p] = _covers_below(p, w)
        out: dict[Composition, int] = {}
        k0, b0 = last
        for i, j, v in covers:
            b = p[i - 1]
            lo = k0 if b > b0 else k0 + 1  # the labels (k, b), i <= k < j, above last
            for k in range(i if i > lo else lo, j):
                if v == w:
                    below = unit
                elif (below := memo.get((v, (k, b)))) is None:
                    below = memo[v, (k, b)] = suffixes(v, (k, b))
                row = k - 1
                for gamma, c in below.items():
                    gamma = gamma[:row] + (gamma[row] + 1,) + gamma[row + 1:]
                    out[gamma] = out.get(gamma, 0) + c
        return out

    def types(p: Perm, last: Label = (0, 0)) -> dict[Composition, int]:
        if (got := memo.get((p, last))) is None:
            if p == w:
                return unit
            got = memo[p, last] = suffixes(p, last) if _below(w)(p) else {}
        return got

    return types, near


def increasing_chains(u: Perm, w: Perm) -> Iterator[LabeledChain]:
    """
    Every increasing chain from u to w, each exactly once, in lexicographic
    order of the label sequence.  Empty when u is not below w; the single
    empty chain when u == w.  After search_toward(w) has counted the types
    from u, the walk sorts the labels of each node it enters, from the covers
    the search found, once per node, and takes only those whose memo entry is
    non-empty, so every node it enters lies on a chain to w.  From 1432 to 4321:

    >>> for chain in increasing_chains((1, 4, 3, 2), (4, 3, 2, 1)):
    ...     print(chain.labels, chain_monomial(chain))
    ((1, 1), (1, 2), (1, 3)) (3, 0, 0)
    ((1, 1), (1, 2), (2, 2)) (2, 1, 0)
    ((1, 1), (1, 3), (3, 1)) (2, 0, 1)
    ((1, 1), (2, 1), (2, 2)) (1, 2, 0)
    ((1, 1), (2, 1), (3, 1)) (1, 1, 1)
    """
    u, w = _perm_pair(u, w)
    types, near = search_toward(w)
    rows: dict[Perm, list[tuple[Label, Perm]]] = {}
    perms, labels = [u], []

    def above(p: Perm, last: Label) -> Iterator[LabeledChain]:
        if p == w:
            yield LabeledChain(tuple(perms), tuple(labels))
            return
        if (edges := rows.get(p)) is None:
            edges = rows[p] = _sorted_edges(p, near[p])
        for lab, v in edges:
            if lab > last and types(v, lab):
                perms.append(v)
                labels.append(lab)
                yield from above(v, lab)
                perms.pop()
                labels.pop()

    if types(u):
        yield from above(u, (0, 0))


@lru_cache(maxsize=8192)  # 8,192 S_8 entries held 4.3 MB under tracemalloc
def _branch(u: Perm) -> tuple[Label, tuple[Perm, ...]]:
    """
    The branch of the to-w0 tree at u != w0: the label (k, u(k)) for the
    minimal k with u(k) + k < n + 1, and the covers u*(k,l) by increasing l.
    """
    k = 1
    while u[k - 1] + k > len(u):
        k += 1
    return (k, u[k - 1]), tuple(v for _, v in cover_partners(u, k))


def increasing_chains_to_w0(w: Perm) -> Iterator[LabeledChain]:
    """
    All of Gamma(w, w0) by the specialized tree search: branch at u over the
    covers swapping the minimal position k with u(k) + k < n + 1, ordered by
    the partner position l.
    """
    w = _perm_of(w)
    w0 = longest(len(w))

    def walk(u: Perm, perms: list[Perm], labels: list[Label]) -> Iterator[LabeledChain]:
        label, covers = _branch(u)
        labels.append(label)
        for v in covers:
            perms.append(v)
            if v == w0:  # a leaf costs no call, which keeps small searches cheap
                yield LabeledChain(tuple(perms), tuple(labels))
            else:
                yield from walk(v, perms, labels)
            perms.pop()
        labels.pop()

    if w == w0:
        yield LabeledChain((w,), ())
    else:
        yield from walk(w, [w], [])


def type_counts(u: Perm, w: Perm) -> Counter:
    """
    Counter of chain types over all increasing chains from u to w, read
    from one search_toward(w).
    """
    u, w = _perm_pair(u, w)
    types, _ = search_toward(w)
    return Counter(types(u))


def padded_type(alpha: Sequence[int], n: int) -> Composition:
    """
    alpha in n - 1 parts, each read like an entry of as_perm (perms._as_int);
    with a nonzero part past n - 1 it matches no chain.
    """
    alpha = tuple(map(_as_int, alpha))
    if len(alpha) > n - 1:
        if any(alpha[n - 1:]):
            return alpha  # can never match a real type, so its count is 0
        alpha = alpha[: n - 1]
    return alpha + (0,) * (n - 1 - len(alpha))


# --- serialization ---------------------------------------------------------

def chain_to_json_obj(chain: LabeledChain) -> dict:
    """{"start": "<perm>", "steps": [[k, b], ...]}"""
    return {
        "start": perm_to_str(chain.start),
        "steps": [[k, b] for k, b in chain.labels],
    }


def chain_from_json_obj(obj: dict, end: Perm | None = None) -> LabeledChain:
    """
    Rebuild a chain by searching for the walks that realize the whole label
    sequence, the label (k, b) leading from p to each cover p*(i,j) with
    p(i) = b and i <= k < j.  One step can be ambiguous (three covers of 1432
    carry (1, 1)), but the whole sequence usually pins the walk down, and end
    narrows it further.  Raises ValueError when no walk fits or several do.
    """
    with _json_shape():
        start = perm_from_str(obj["start"])
        wanted = tuple((_json_int(k), _json_int(b)) for k, b in obj["steps"])
    end = None if end is None else _perm_of(end)

    walks: list[tuple[Perm, ...]] = []

    def extend(p: Perm, depth: int, acc: list[Perm]) -> None:
        if depth == len(wanted):
            if end is None or p == end:
                walks.append(tuple(acc))
            return
        k, b = wanted[depth]
        if 0 < b <= len(p) and (i := p.index(b) + 1) <= k:
            for j, v in cover_partners(p, i):
                if j > k:
                    acc.append(v)
                    extend(v, depth + 1, acc)
                    acc.pop()

    extend(start, 0, [start])
    if not walks:
        raise ValueError(f"no chain from {start} realizes labels {wanted}")
    if len(walks) > 1:
        raise ValueError(
            f"labels {wanted} from {start} fit {len(walks)} distinct chains"
        )
    return LabeledChain(walks[0], wanted)
