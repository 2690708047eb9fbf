"""
Rc-graphs (pipe dreams): subsets of the staircase {(k, b) : k + b <= n}
whose reading word is reduced, together with the bijection between rc-graphs
of w and increasing labeled chains from w to the longest permutation.

The reading order lists crossings row by row, within a row by decreasing
column, and sends (k, b) to the simple-reflection index k + b - 1.  Words
multiply left to right acting on positions, so the empty word is the
identity and the full staircase gives the longest permutation.  For example
{(1,2), (1,3), (3,1)} in size 4 reads as (3, 2, 3) and represents 1432.

The chain attached to an rc-graph R fills in the missing staircase cells one
at a time in lexicographic order; each insertion bumps the permutation up a
Bruhat cover whose label is the inserted cell.  Conversely the cells NOT
used as labels by an increasing chain to w0 form the rc-graph of its start.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import Iterator

from .chains import LabeledChain, cell_type, check_chain, increasing_chains_to_w0
from .perms import Label, Perm, _as_int, _json_int, _json_shape, length, longest


def staircase(n: int) -> frozenset[Label]:
    """All cells (k, b) with k, b >= 1 and k + b <= n."""
    n = _as_int(n)
    return frozenset(
        (k, b) for k in range(1, n) for b in range(1, n - k + 1)
    )


def reading_order(cells: Iterable[Label]) -> list[Label]:
    """Rows in increasing order, columns decreasing within a row."""
    return sorted(cells, key=lambda kb: (kb[0], -kb[1]))


def _cell(cell) -> Label:
    """cell read as a pair of ints, each like n (:func:`perms._as_int`), or ValueError."""
    try:
        k, b = cell
    except (TypeError, ValueError):
        raise ValueError(f"not a cell (k, b): {cell!r}") from None
    return _as_int(k), _as_int(b)


@dataclass(frozen=True)
class RcGraph:
    """A set of staircase crossings in ambient size n."""

    n: int
    crossings: frozenset[Label] = field(default_factory=frozenset)

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n))
        object.__setattr__(self, "crossings", frozenset(map(_cell, self.crossings)))
        for k, b in self.crossings:
            if k < 1 or b < 1 or k + b > self.n:
                raise ValueError(
                    f"cell ({k}, {b}) outside the staircase for n={self.n}"
                )

    def __len__(self) -> int:
        return len(self.crossings)


def word(graph: RcGraph) -> tuple[int, ...]:
    """The reading word: k + b - 1 over the crossings in reading order."""
    return tuple(k + b - 1 for k, b in reading_order(graph.crossings))


def product_of_word(w: Iterable[int], n: int) -> Perm:
    """Multiply adjacent transpositions left to right, acting on positions."""
    p = list(range(1, n + 1))
    for a in w:
        p[a - 1], p[a] = p[a], p[a - 1]
    return tuple(p)


def is_valid(graph: RcGraph) -> bool:
    """True iff the reading word is reduced."""
    return length(product_of_word(word(graph), graph.n)) == len(graph.crossings)


def perm_of(graph: RcGraph) -> Perm:
    """The permutation represented by a valid rc-graph."""
    p = product_of_word(word(graph), graph.n)
    if length(p) != len(graph.crossings):
        raise ValueError(f"reading word {word(graph)} is not reduced")
    return p


def monomial(graph: RcGraph) -> tuple[int, ...]:
    """Exponent vector of x^R: entry i counts crossings in row i."""
    return cell_type(graph.crossings, graph.n)


def chain_of_rcgraph(graph: RcGraph) -> LabeledChain:
    """
    The increasing chain from perm_of(graph) to w0 whose labels are the
    staircase cells missing from the graph, inserted greedily in
    lexicographic order.
    """
    missing = sorted(staircase(graph.n) - graph.crossings)
    cells = set(graph.crossings)
    perms = [perm_of(graph)]
    for cell in missing:
        cells.add(cell)
        perms.append(perm_of(RcGraph(graph.n, cells)))
    return LabeledChain(tuple(perms), tuple(missing))


def rcgraph_of_chain(chain: LabeledChain) -> RcGraph:
    """
    The inverse map: the staircase cells not used as labels by an increasing
    chain ending at w0.  Rejects chains that do not end at w0, are not
    increasing, or are not actual chains in the labeled Bruhat order.
    """
    n = chain.n
    if chain.end != longest(n):
        raise ValueError("chain must end at the longest permutation")
    if not chain.is_increasing():
        raise ValueError("chain labels must strictly increase")
    check_chain(chain)
    cells = staircase(n) - set(chain.labels)
    graph = RcGraph(n, cells)
    if perm_of(graph) != chain.start:
        raise ValueError("labels do not complement an rc-graph of the start")
    return graph


def enumerate_rcgraphs(w: Perm) -> Iterator[RcGraph]:
    """
    All rc-graphs of w, one per increasing chain from w to w0 (complement of
    the chain's labels), in the chain enumeration order.
    """
    cells = staircase(len(w))
    for chain in increasing_chains_to_w0(w):
        yield RcGraph(len(w), cells - set(chain.labels))


# --- serialization ---------------------------------------------------------

def rcgraph_to_json_obj(graph: RcGraph) -> dict:
    """{"n": n, "crossings": [[k, b], ...]} in reading order."""
    return {
        "n": graph.n,
        "crossings": [[k, b] for k, b in reading_order(graph.crossings)],
    }


def rcgraph_from_json_obj(obj: dict) -> RcGraph:
    with _json_shape():
        n = _json_int(obj["n"])
        crossings = {(_json_int(k), _json_int(b)) for k, b in obj["crossings"]}
    return RcGraph(n, crossings)


def render_ascii(graph: RcGraph) -> str:
    """
    Grid picture, one line per row k = 1..n-1, "+" where (k, b) crosses and
    "." otherwise:

    >>> print(render_ascii(RcGraph(4, {(1, 2), (1, 3), (3, 1)})))
    . + +
    . .
    +
    """
    lines = []
    for k in range(1, graph.n):
        cells = ["+" if (k, b) in graph.crossings else "." for b in range(1, graph.n - k + 1)]
        lines.append(" ".join(cells))
    return "\n".join(lines)
