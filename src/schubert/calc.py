"""
Schubert polynomials, skew Schubert polynomials by three routes, expansion
in the Schubert basis, Littlewood-Richardson coefficients, the Pieri rule
over labeled chains, and the chain-counting identity checker.

The three skew routes:

* ``normalform``: reduce S_u * S_{w0 w} modulo <e_1, ..., e_n>.
* ``chains``: sum x^delta / x^gamma over increasing chains from u to w.
* ``lr``: rebuild the polynomial from the LR coefficients of that
  product (:func:`lr_coefficients`); the expansion indices z correspond
  to structure constants c^w_{u, w0 z}.

The LR coefficients and the Schubert expansion take no normal form.  They
multiply by Monk's rule (:func:`perms.monk`, the a = 1 case of the Pieri
rule): x_i * S_w is a signed sum over Bruhat covers, so S_u * S_v is found
by applying x_1, x_2, ... to S_u along the monomials of S_v, each shared
prefix once (:func:`_walk`, on states keyed by an int id per permutation).
The ``lr`` and ``normalform`` routes thus share no code, and all three
agree exactly; the test suite exercises that on full symmetric groups.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .chains import (chain_monomial, increasing_chains_to_w0, padded_type, search_toward,
                     type_counts)
from .perms import (Perm, _as_int, _below, _perm_of, bruhat_leq, compose, cover_partners,
                    embed_all, identity, longest, monk, perm_to_str)
from .poly import Poly, check_composition, divides_staircase, normal_form, trim
from .rcgraphs import enumerate_rcgraphs, monomial as rc_monomial

__all__ = [
    "SchubertExpansion",
    "schubert",
    "skew",
    "skew_expansion",
    "expand_in_schubert_basis",
    "lr_coefficients",
    "pieri",
    "psi_alpha",
    "psi_alpha_normal_form",
    "verify_corollary",
]


@dataclass(frozen=True, eq=True)
class SchubertExpansion:
    """An element of the cohomology ring written in the Schubert basis.  The
    constructor checks every key; results built here skip that, by :meth:`_of`."""

    n: int
    terms: Mapping[Perm, int]

    def __post_init__(self):
        object.__setattr__(self, "n", _as_int(self.n))
        terms: dict[Perm, int] = {}
        for w, c in self.terms.items():
            if c := _as_int(c):  # zero: its key is not read
                w = self._key(w)
                terms[w] = terms.get(w, 0) + c
        object.__setattr__(self, "terms", {w: c for w, c in terms.items() if c})

    @classmethod
    def _of(cls, n: int, terms: dict[Perm, int]) -> "SchubertExpansion":
        """Wrap a dict of permutations of S_n to nonzero coefficients, unchecked."""
        e = object.__new__(cls)
        fields = e.__dict__  # frozen: fill the instance dict directly
        fields["n"], fields["terms"] = n, terms
        return e

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def _key(self, w: Sequence[int]) -> Perm:
        """w read as a permutation of S_n, as the constructor reads every key."""
        if len(w := _perm_of(w)) != self.n:
            raise ValueError(f"{w} does not lie in S_{self.n}")
        return w

    def __getitem__(self, w: Sequence[int]) -> int:
        return self.terms.get(self._key(w), 0)

    def __iter__(self) -> Iterator[tuple[Perm, int]]:
        return iter(sorted(self.terms.items()))

    def __len__(self) -> int:
        return len(self.terms)

    def as_poly(self) -> Poly:
        """Reassemble sum c_w * S_w."""
        total: Counter = Counter()
        for w, c in self.terms.items():
            total.update({m: c * cm for m, cm in schubert(w, self.n).items()})
        return Poly(total)

    def to_json_obj(self) -> dict[str, int]:
        return {perm_to_str(w): c for w, c in sorted(self.terms.items(),
                                                     key=lambda wc: perm_to_str(wc[0]))}


def _chain_sum(types: Counter, n: int) -> Poly:
    """The sum of x^delta / x^gamma over chains, given how many have each type gamma."""
    delta = range(n - 1, -1, -1)
    return Poly({tuple(d - a for d, a in zip(delta, gamma)): c for gamma, c in types.items()})


def schubert(w: Sequence[int], n: int | None = None, method: str = "chain") -> Poly:
    """
    The Schubert polynomial of w, by either construction:

    * ``chain``: sum of x^delta / x^gamma over increasing chains w -> w0;
    * ``rcgraph``: sum of x^R over the rc-graphs of w.
    """
    (w,), n = embed_all([w], n)
    return _schubert(w, n, method)


@lru_cache(maxsize=4096)
def _schubert(w: Perm, n: int, method: str) -> Poly:
    if method == "chain":
        return _chain_sum(Counter(map(chain_monomial, increasing_chains_to_w0(w))), n)
    if method == "rcgraph":
        return Poly(Counter(rc_monomial(g) for g in enumerate_rcgraphs(w)))
    raise ValueError(f"unknown method {method!r}")


def skew(
    w: Sequence[int],
    u: Sequence[int],
    n: int | None = None,
    method: str = "normalform",
) -> Poly:
    """
    The skew Schubert polynomial of w over u, for u <= w in the Bruhat
    order.  Methods: ``normalform``, ``chains``, ``lr``; all agree.
    """
    (w, u), n = embed_all([w, u], n)
    _check_below(u, w)
    if method == "chains":
        return _chain_sum(type_counts(u, w), n)
    w0w = _w0_times(w)
    if method == "lr":
        return lr_coefficients(u, w0w, n).as_poly()
    if method == "normalform":
        return normal_form(schubert(u, n) * schubert(w0w, n), n)
    raise ValueError(f"unknown method {method!r}")


@lru_cache(maxsize=4096)
def _w0_times(v: Perm) -> Perm:
    """w0 * v, the index that pairs with v in the Schubert basis."""
    return compose(longest(len(v)), v)


def _check_below(u: Perm, w: Perm) -> None:
    if not bruhat_leq(u, w):
        raise ValueError(
            f"{perm_to_str(u)} is not below {perm_to_str(w)} in the Bruhat order"
        )


# The Monk table of S_n, (ids, perms, rows), empty until walks fill it: ids[perms[w]] == w,
# and rows[w][i] is None or Monk's rule x_i * S_w as ids (:func:`_fill`).
_monk_table = lru_cache(maxsize=16)(lambda n: ({}, [], []))
_TABLE_BOUND = 8192  # permutations in one Monk table: all of S_7 fits
_table_lock = allocate_lock()


def _id(table: tuple, w: Perm) -> int:
    """The id of w in table; a new one is added under the lock, its row first."""
    ids, perms, rows = table
    if (k := ids.get(w)) is None:
        with _table_lock:
            if (k := ids.get(w)) is None:
                perms.append(w)
                rows.append([None] * (len(w) + 1))
                k = ids[w] = len(perms) - 1
    return k


def _fill(table: tuple, w: int, i: int) -> tuple[list[int], ...]:
    """rows[w][i]: Monk's rule x_i * S_w (:func:`perms.monk`), (plus, minus) as ids."""
    step = table[2][w][i] = tuple([_id(table, v) for v in vs] for vs in monk(table[1][w], i))
    return step


def _trie_of(terms: Iterator[tuple[tuple[int, ...], int]]) -> tuple:
    """
    The trie of a polynomial's trimmed exponent vectors, x_1's exponent first,
    flattened in preorder: one entry (k, steps, c) per term c * x^m, in
    lexicographic order of m.  For b the exponents of the monomial before m
    up to the first one that differs (x^b divides x^m), the walk holds its
    start times x^b as state k, the length of b trimmed, and the Monk steps
    by x_i, i in steps, take it to x^m.  Below, x1^2 continues from x1:

    >>> _trie_of({(): 1, (2,): 5, (1, 1): 3}.items())
    ((0, (), 1), (0, (1, 2), 3), (1, (1,), 5))
    """
    prev: tuple[int, ...] = ()
    out = []
    for m, c in sorted(terms):
        d = next((j for j, (a, p) in enumerate(zip(m, prev)) if a != p), len(prev))
        b = prev[:d + 1]
        steps = (j + 1 for j, e in enumerate(m) for _ in range(e - (b[j] if j < len(b) else 0)))
        out.append((len(trim(b)), tuple(steps), c))
        prev = m
    return tuple(out)


@lru_cache(maxsize=4096)
def _trie(w: Perm) -> tuple:
    """The trie (:func:`_trie_of`) of the monomials of S_w."""
    return _trie_of(schubert(w).items())


def _walk(trie: tuple, start: Perm, n: int) -> SchubertExpansion:
    """
    p * S_start in H*(Fl_n), in the Schubert basis of S_n, for the p with
    this trie: Monk steps walk down the trie, so a prefix x_1^{a_1} ...
    x_i^{a_i} shared by several monomials of p is applied once, and each
    leaf c * x^m adds c times its state.  Cancelled terms stay as zeros
    until the end.  States are keyed by ids in the Monk table of S_n, so a
    step is a row read; a table past _TABLE_BOUND permutations is dropped
    first, and walks that hold it finish on it.
    """
    if len((table := _monk_table(n))[1]) > _TABLE_BOUND:
        _monk_table.cache_clear()
        table = _monk_table(n)
    perms, rows = table[1:]
    states: list[dict[int, int]] = [{_id(table, start): 1}] * n
    out: dict[int, int] = {}
    for k, steps, c in trie:
        s = states[k]
        for i in steps:
            t: dict[int, int] = {}
            for w, a in s.items():
                if a:
                    up, down = rows[w][i] or _fill(table, w, i)
                    for v in up:
                        t[v] = t.get(v, 0) + a
                    for v in down:
                        t[v] = t.get(v, 0) - a
            s = states[i] = t
        for w, a in s.items():
            out[w] = out.get(w, 0) + c * a
    return SchubertExpansion._of(n, {perms[w]: c for w, c in out.items() if c})


def expand_in_schubert_basis(p: Poly, n: int) -> SchubertExpansion:
    """
    Write p as an integer combination of Schubert polynomials of S_n: the
    Monk walk (:func:`_walk`) over p's trie from S_id = 1.  Raises
    ValueError, naming the largest one, when a monomial of p does not divide
    x^delta: p is then not in the span.
    """
    n = _as_int(n)
    outside = {m: c for m, c in p.items() if not divides_staircase(m, n)}
    if outside:
        m = Poly(outside).sorted_terms()[-1][0]
        raise ValueError(f"monomial {m} does not divide the staircase; "
                         f"polynomial is not in the Schubert span of S_{n}")
    return _walk(_trie_of(p.items()), identity(n), n)


def lr_coefficients(
    u: Sequence[int], v: Sequence[int], n: int | None = None
) -> SchubertExpansion:
    """
    The map w -> c^w_{u,v} from S_u * S_v = sum c^w_{u,v} S_w, complete for
    the w lying in S_n.

    The product vanishes in H*(Fl_n) exactly when u is not below w0 v in
    the Bruhat order (the Richardson variety is empty; this covers
    length(u) + length(v) > length(w0)), so that case returns the empty
    expansion at once, by the cached Bruhat test of w0 v (perms._below).
    Otherwise the Monk walk (:func:`_walk`) multiplies one factor into the
    other, walking the cached trie of the one with fewer terms.
    """
    (u, v), n = embed_all([u, v], n)
    if not _below(_w0_times(v))(u):
        return SchubertExpansion._of(n, {})
    tu, tv = _trie(u), _trie(v)
    return _walk(tv, u, n) if len(tv) <= len(tu) else _walk(tu, v, n)


def pieri(u: Sequence[int], a: int, k: int, n: int | None = None) -> SchubertExpansion:
    """
    The expansion of S_u * h_a(x_1, ..., x_k): the multiset of endpoints of
    increasing chains from u of length a whose labels all have first
    coordinate k.  The cover p -> p*(i,j) carries one label in row k,
    (k, p(i)), when i <= k < j.
    """
    (u,), n = embed_all([u], n)
    a, k = _as_int(a), _as_int(k)
    if a < 0:
        raise ValueError("degree must be nonnegative")
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}")
    return SchubertExpansion._of(n, _pieri_step({u: 1}, a, k))


def psi_alpha(f: SchubertExpansion, alpha: Sequence[int], n: int) -> int:
    """
    The coefficient of the longest-permutation class in f * h_alpha,
    computed by iterating the Pieri rule over the parts of alpha.
    """
    current: Mapping[Perm, int] = f.terms
    for i, a in enumerate(check_composition(alpha, n), start=1):
        current = _pieri_step(current, a, i)
    return current.get(longest(n), 0)


def _pieri_step(current: Mapping[Perm, int], a: int, k: int) -> dict[Perm, int]:
    """
    The terms of current * h_a(x_1, ..., x_k) by the Pieri rule (:func:`pieri`):
    one depth-first walk of the chains from each S_w, each end counted c_w times.
    """
    out: dict[Perm, int] = {}

    def walk(p: Perm, steps: int, last_b: int, c: int) -> None:
        if steps == a:
            out[p] = out.get(p, 0) + c
            return
        for i in range(1, k + 1):
            b = p[i - 1]
            if b > last_b:
                for j, v in cover_partners(p, i):
                    if j > k:
                        walk(v, steps + 1, b, c)

    for w, c in current.items():
        walk(w, 0, 0, c)
    return {w: c for w, c in out.items() if c}


def psi_alpha_normal_form(reduced: Poly, alpha: Sequence[int], n: int) -> int:
    """
    The same functional read off the normal form of f, reduced =
    normal_form(f.as_poly(), n): the coefficient of x^delta / x^alpha.
    """
    alpha = check_composition(alpha, n)
    return reduced.coefficient(tuple(n - i - a for i, a in enumerate(alpha + (0,), 1)))


def skew_expansion(w: Perm, u: Perm, n: int) -> SchubertExpansion:
    """
    The Schubert expansion of the skew polynomial of w over u: the LR
    coefficients of S_u * S_{w0 w}, which does not vanish as u <= w.
    """
    (w, u), n = embed_all([w, u], n)
    _check_below(u, w)
    return lr_coefficients(u, _w0_times(w), n)


def corollary_sides(u: Perm, expansion: SchubertExpansion,
                    to_w, to_w0) -> tuple[Counter, Counter]:
    """
    Both sides of I_alpha(u, w) == sum_v c^w_{u,v} * I_alpha(w0 v, w0) for
    every alpha, with c from the skew expansion of w over u and to_w, to_w0
    the types functions of search_toward(w) and search_toward(w0).
    """
    rhs: Counter = Counter()
    for z, c in expansion.terms.items():  # the expansion indices are z = w0 v
        rhs.update({alpha: c * cnt for alpha, cnt in to_w0(z).items()})
    return Counter(to_w(u)), rhs


def verify_corollary(
    u: Sequence[int], w: Sequence[int], alpha: Sequence[int], n: int | None = None
) -> bool:
    """Check the chain-counting identity for the type alpha."""
    (u, w), n = embed_all([u, w], n)
    lhs, rhs = corollary_sides(u, skew_expansion(w, u, n), search_toward(w)[0],
                               search_toward(longest(n))[0])
    alpha = padded_type(alpha, n)
    return lhs[alpha] == rhs[alpha]
