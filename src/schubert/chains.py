"""
Saturated labeled chains in the Bruhat order and the enumeration of
increasing chains.

A chain stores every permutation it visits, not just its label sequence: a
permutation can have two distinct covers carrying the same label (from 1324
both the swap of positions (1,2) and of (1,3) carry the label (1,1)), so
labels alone do not pin down the walk.  A chain is *increasing* when its
labels strictly increase in lexicographic order.

The generic walk goes up from u over the covers whose label exceeds the
last one; each node it reaches ends one increasing chain from u, so one
walk gives the chains from u to every w, with their types.  Chains ending
at the longest permutation admit a much better search: the branches below
a node u all swap the same position k, the minimal one with u(k) + k < n + 1,
paired with every l > k that yields a cover.  That tree has one leaf per
chain and its depth equals the number of steps, so the whole of
Gamma(w, w0) costs O(n * l * c) where l is the number of steps and c the
number of chains.  Both walks keep all state on their own stack;
independent traversals can run concurrently.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import Iterator

from .perms import (
    Label,
    Perm,
    cover_partners,
    labeled_covers,
    labeled_edges,
    length,
    longest,
    perm_from_str,
    perm_to_str,
)

Composition = tuple[int, ...]


@dataclass(frozen=True)
class LabeledChain:
    """A saturated chain: perms[0] -> perms[1] -> ... with one label per step."""

    perms: tuple[Perm, ...]
    labels: tuple[Label, ...]

    def __post_init__(self):
        if len(self.perms) != len(self.labels) + 1:
            raise ValueError("need exactly one label per step")
        if not self.perms:
            raise ValueError("a chain has at least its start")

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


def walk_increasing(u: Perm, top: int) -> Iterator[tuple[list[Perm], list[Label], list[int]]]:
    """
    Walk the increasing chains from u up to Bruhat length top, yielding
    (perms, labels, gamma) at each node: the chain from u to it and its type.
    A node comes before the nodes above it, in lexicographic label order.
    The lists are the walk's own stack, changed by its next step.
    """
    perms, labels, gamma = node = [u], [], [0] * (len(u) - 1)

    def above(p: Perm, plen: int, last: Label):
        for lab, v in labeled_covers(p, last):
            perms.append(v)
            labels.append(lab)
            gamma[lab[0] - 1] += 1
            yield node
            if plen + 1 < top:  # a node at length top costs no call
                yield from above(v, plen + 1, lab)
            perms.pop()
            labels.pop()
            gamma[lab[0] - 1] -= 1

    start = length(u)
    if start <= top:
        yield node
    if start < top:
        yield from above(u, start, (0, 0))  # (0, 0) is below every label


def increasing_chains(u: Perm, w: Perm) -> Iterator[LabeledChain]:
    """
    Every increasing chain from u to w, each exactly once, in lexicographic
    order of the label sequence.  Empty when u is not below w; the single
    empty chain when u == w.
    """
    if len(u) != len(w):
        raise ValueError("size mismatch")
    for perms, labels, _ in walk_increasing(u, length(w)):
        if perms[-1] == w:
            yield LabeledChain(tuple(perms), tuple(labels))


def increasing_chains_to_w0(w: Perm) -> Iterator[LabeledChain]:
    """
    All of Gamma(w, w0) by the specialized tree search: branch at u over the
    covers swapping the minimal position k with u(k) + k < n + 1, ordered by
    the partner position l.
    """
    n = len(w)
    w0 = longest(n)

    def walk(u: Perm, perms: list[Perm], labels: list[Label]) -> Iterator[LabeledChain]:
        k = 1
        while u[k - 1] + k > n:
            k += 1
        label = (k, u[k - 1])
        for _, v in cover_partners(u, k):
            perms.append(v)
            labels.append(label)
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


def count_by_type(u: Perm, w: Perm, alpha: Sequence[int]) -> int:
    """The number of increasing chains from u to w of the given type."""
    return type_counts(u, w)[padded_type(alpha, len(u))]


def type_counts(u: Perm, w: Perm) -> Counter:
    """Counter of chain types over all increasing chains from u to w."""
    if len(u) != len(w):
        raise ValueError("size mismatch")
    return Counter(tuple(gamma) for perms, _, gamma in walk_increasing(u, length(w))
                   if perms[-1] == w)


def padded_type(alpha: Sequence[int], n: int) -> Composition:
    """alpha in n - 1 parts; with a nonzero part past n - 1 it matches no chain."""
    alpha = tuple(alpha)
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
    Rebuild a chain from its serialized form by searching for the walks that
    realize the whole label sequence.  A single step can be ambiguous (three
    covers of 1432 carry the label (1, 1)), but the full sequence usually
    pins the walk down; passing the known endpoint narrows the search
    further.  Raises ValueError when no walk fits or several still do.
    """
    start = perm_from_str(obj["start"])
    wanted = tuple((int(k), int(b)) for k, b in obj["steps"])

    walks: list[tuple[Perm, ...]] = []

    def extend(p: Perm, depth: int, acc: list[Perm]) -> None:
        if depth == len(wanted):
            if end is None or p == end:
                walks.append(tuple(acc))
            return
        for lab, v in labeled_covers(p):
            if lab == wanted[depth]:
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
