"""
Permutations of {1, ..., n} in one-line notation, their statistics, and the
covers of the Bruhat order together with their edge labels.

A permutation is a tuple ``w`` of ints with ``w[i-1] == w(i)`` (values are
1-indexed everywhere, matching the usual one-line notation such as 2413).
The Bruhat order is generated by covers ``u -> u*(i,j)`` where swapping the
entries in positions ``i < j`` raises the inversion count by exactly one.
Each cover carries ``j - i`` edge labels ``(k, b)`` with ``i <= k < j`` and
``b = u(i)``.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import contextmanager, suppress
from functools import lru_cache
from itertools import permutations as _itertools_permutations
from typing import Callable, Iterator

Perm = tuple[int, ...]
Label = tuple[int, int]


def as_perm(seq: Sequence[int]) -> Perm:
    """Coerce to a tuple of Python ints, checked to be a rearrangement of 1..n."""
    w = tuple(seq)  # "in" tests by ==, so entries such as 1 and "a" need no order
    if not all(v in range(1, len(w) + 1) for v in w) or len(set(w)) != len(w):
        raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
    return tuple(map(int, w))


@lru_cache(maxsize=8192)
def _perm(w: tuple) -> Perm:
    """:func:`as_perm`, cached (its ValueError is not): equal tuples such as (1, 2),
    (1.0, 2.0) and (True, 2) share the entry and all get (1, 2) back."""
    return as_perm(w)


def _perm_of(w: Sequence[int]) -> Perm:
    """:func:`_perm` of tuple(w).  An unhashable entry, which _perm cannot key,
    gets the ValueError of as_perm, uncached."""
    try:
        return _perm(tuple(w))
    except TypeError:
        return as_perm(w)


def _as_int(x) -> int:
    """x read like an entry of as_perm: a value equal to an int (1.0, True) is that int."""
    if type(x) is int:
        return x
    with suppress(TypeError, ValueError, OverflowError):
        if int(x) == x:
            return int(x)
    raise ValueError(f"not an integer: {x!r}")


def _json_int(x) -> int:
    """x, checked to be an int, not a bool: JSON readers reject 2.7 or true."""
    if not isinstance(x, int) or isinstance(x, bool):
        raise ValueError(f"not an integer: {x!r}")
    return x


@contextmanager
def _json_shape():
    """Around a JSON reader: a record with a missing key or a value of the wrong
    shape raises ValueError, not the KeyError, TypeError or AttributeError it meets."""
    try:
        yield
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed JSON record: {type(exc).__name__}: {exc}") from None


def identity(n: int) -> Perm:
    """
    The identity permutation 1 2 ... n.

    >>> identity(3)
    (1, 2, 3)
    """
    n = _as_int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(range(1, n + 1))


def longest(n: int) -> Perm:
    """
    The longest permutation n ... 2 1.

    >>> longest(4)
    (4, 3, 2, 1)
    """
    return identity(n)[::-1]


def length(w: Sequence[int]) -> int:
    """
    The number of inversions of w.

    >>> length((2, 1, 5, 4, 6, 3))
    5
    """
    return sum(code(w))


def inverse(w: Perm) -> Perm:
    """
    >>> inverse((2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    w = _perm_of(w)
    inv = [0] * len(w)
    for i, v in enumerate(w):
        inv[v - 1] = i + 1
    return tuple(inv)


def compose(u: Perm, v: Perm) -> Perm:
    """
    The product u*v, i.e. the map i -> u(v(i)).

    >>> compose((4, 3, 2, 1), (2, 4, 1, 3))
    (3, 1, 4, 2)
    """
    u, v = _perm_pair(u, v)
    return tuple(u[v[i] - 1] for i in range(len(v)))


def code(w: Perm) -> tuple[int, ...]:
    """
    The Lehmer code: c_i = #{j > i : w(j) < w(i)}.  Its sum is length(w).

    >>> code((2, 4, 1, 3))
    (1, 2, 0, 0)
    """
    w = _perm_of(w)
    n = len(w)
    return tuple(sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n))


def perm_from_code(c: Sequence[int], n: int | None = None) -> Perm:
    """
    Invert the Lehmer code.  Requires c_i <= n - i; trailing zeros may be
    omitted when n is given explicitly.

    >>> perm_from_code((1, 2, 0, 0))
    (2, 4, 1, 3)
    """
    c = tuple(map(_as_int, c))
    n = len(c) if n is None else _as_int(n)
    if len(c) > n:
        raise ValueError("code longer than ambient size")
    c = c + (0,) * (n - len(c))
    for i, ci in enumerate(c):
        if ci < 0 or ci > n - i - 1:
            raise ValueError(f"code entry c_{i + 1}={ci} exceeds bound {n - i - 1}")
    avail = list(range(1, n + 1))
    return tuple(avail.pop(ci) for ci in c)


def cover_partners(u: Perm, i: int) -> list[tuple[int, Perm]]:
    """
    Each (j, u*(i,j)) with j > i, increasing, such that u -> u*(i,j) is a
    cover: u(i) < u(j) and no value strictly between them sits in between.
    One pass, keeping the least value above u(i) seen so far as the bound.

    >>> [j for j, _ in cover_partners((1, 4, 3, 2), 1)]
    [2, 3, 4]
    """
    a = u[i - 1]
    bound = len(u) + 1
    out = []
    for j in range(i, len(u)):
        b = u[j]
        if a < b < bound:
            bound = b
            w = list(u)
            w[i - 1], w[j] = b, a
            out.append((j + 1, tuple(w)))
    return out


def monk(w: Perm, i: int) -> tuple[tuple[Perm, ...], tuple[Perm, ...]]:
    """
    Monk's rule in H*(Fl_n) as (plus, minus): x_i * S_w is the sum of S_v over
    plus, the covers w -> w*(i,j), j > i, by increasing j (:func:`cover_partners`),
    minus that over minus, the covers w -> w*(j,i), j < i, by decreasing j.
    The cover swapping i and n + 1 leaves S_n: its S_v lies in <e_1..e_n>.

    >>> monk((1, 2, 3), 2)  # x_2 = S_132 - S_213
    (((1, 3, 2),), ((2, 1, 3),))
    """
    return (tuple(v for _, v in cover_partners(w, i)),
            tuple(v for j in range(i - 1, 0, -1) for k, v in cover_partners(w, j) if k == i))


def bruhat_covers(u: Perm) -> list[tuple[Perm, tuple[int, int]]]:
    """
    All covers u -> w in the Bruhat order, each with the swapped position
    pair (i, j), in lexicographic order of (i, j).
    """
    u = _perm_of(u)
    return [(w, (i, j)) for i in range(1, len(u)) for j, w in cover_partners(u, i)]


def _sorted_edges(u: Perm, covers: list[tuple[int, int, Perm]]) -> list[tuple[Label, Perm]]:
    """The edges ((k, u(i)), v), i <= k < j, of the covers (i, j, v) of u, sorted: a
    label on several covers (from 1324, (1, 1)) comes once per cover, by decreasing j."""
    return sorted(((k, u[i - 1]), v) for i, j, v in covers for k in range(i, j))


def labeled_edges(u: Perm, w: Perm) -> list[Label]:
    """
    The labels (k, b) of the cover u -> w: with w = u*(i,j) there are j - i
    edges, one for each k with i <= k < j, all carrying b = u(i) = w(j).

    >>> labeled_edges((1, 4, 3, 2), (4, 1, 3, 2))
    [(1, 1)]
    >>> labeled_edges((4, 1, 3, 2), (4, 2, 3, 1))
    [(2, 1), (3, 1)]
    """
    u, w = _perm_pair(u, w)
    moved = [p for p, (a, b) in enumerate(zip(u, w), 1) if a != b]
    if len(moved) == 2 and (moved[1], w) in cover_partners(u, moved[0]):
        i, j = moved
        return [(k, u[i - 1]) for k in range(i, j)]
    raise ValueError(f"{u} -> {w} is not a cover")


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """
    Compare in the Bruhat order by rank counts: u <= w iff
    r_u(k, i) <= r_w(k, i) for all k, i, with r_w(k, i) = #{a <= k : w(a) >= i}.
    One int subtraction compares them all (see :func:`_below`).

    >>> bruhat_leq((1, 3, 2, 4), (2, 4, 1, 3))
    True
    >>> bruhat_leq((4, 3, 2, 1), (1, 2, 3, 4))
    False
    """
    u, w = _perm_pair(u, w)
    return _below(w)(u)


def _perm_pair(u: Sequence[int], w: Sequence[int]) -> tuple[Perm, Perm]:
    """u and w in canonical form (:func:`_perm`), checked to lie in one S_n."""
    u, w = _perm_of(u), _perm_of(w)
    if len(u) != len(w):
        raise ValueError("size mismatch")
    return u, w


@lru_cache(maxsize=8192)
def _ranks(w: Perm) -> int:
    """
    The counts r_w(k, i) for 1 <= k < n and 2 <= i <= n (the others do not
    depend on w), packed as :func:`_swap_tables` lays them out.  The value
    w(a) adds one to r(k, i) for a <= k < n and 2 <= i <= w(a), the rectangle
    rows[a][n] * cols[1][w(a)].
    """
    n = len(w)
    _, rows, cols = _swap_tables(n)
    return sum(rows[a][n] * cols[1][v] for a, v in enumerate(w, 1))


@lru_cache(maxsize=16)
def _swap_tables(n: int) -> tuple[int, list[list[int]], list[list[int]]]:
    """
    (guard, rows, cols) for S_n.  The counts r(k, c) of :func:`_ranks` sit in
    fields of a count up to n - 1 and a guard bit above it, field (k, c)
    (n - 1)(n - 1 - k) + n - c fields up, and guard sets every guard bit.
    Swapping the values a < b at positions i < j raises r(k, c) by one exactly
    for i <= k < j and a < c <= b, so it adds rows[i][j] * cols[a][b] to the ranks.
    """
    width = (n - 1).bit_length() + 1
    guard = sum(1 << (width * f + width - 1) for f in range((n - 1) ** 2))
    rows = [[sum(1 << width * (n - 1) * (n - 1 - k) for k in range(i, j)) for j in range(n + 1)]
            for i in range(n + 1)]
    cols = [[sum(1 << width * (n - c) for c in range(a + 1, b + 1)) for b in range(n + 1)]
            for a in range(n + 1)]
    return guard, rows, cols


@lru_cache(maxsize=4096)
def _below(w: Perm) -> Callable[[Perm], bool]:
    """
    The test u <= w on the S_n of w.  It keeps the ranks of w with every
    field's guard bit set; subtracting the ranks of u borrows from a guard
    exactly where r_u(k, i) > r_w(k, i), and never into the next field.
    """
    guard = _swap_tables(len(w))[0]
    top = _ranks(w) | guard
    return lambda u: (top - _ranks(u)) & guard == guard


def _covers_below(p: Perm, w: Perm) -> list[tuple[int, int, Perm]]:
    """
    Each cover p -> v = p*(i,j) with v <= w, as (i, j, v) in the order of the
    swap scan (i, then j, increasing; see :func:`cover_partners`).  The ranks of
    v are those of p plus the swap's rectangle (:func:`_swap_tables`), so each
    cover is tested by the subtraction of :func:`_below`, for any p, and its
    tuple is built only when it passes.

    >>> _covers_below((1, 4, 3, 2), (4, 2, 3, 1))
    [(1, 2, (4, 1, 3, 2)), (1, 4, (2, 4, 3, 1))]
    """
    n = len(p)
    guard, rows, cols = _swap_tables(n)
    room = (_ranks(w) | guard) - _ranks(p)  # as in _below(w)
    out = []
    for i in range(1, n):
        a = p[i - 1]
        row, col = rows[i], cols[a]
        bound = n + 1
        for j in range(i + 1, n + 1):
            b = p[j - 1]
            if a < b < bound:
                bound = b
                if (room - row[j] * col[b]) & guard == guard:
                    v = list(p)
                    v[i - 1], v[j - 1] = b, a
                    out.append((i, j, tuple(v)))
    return out


def embed(w: Perm, m: int) -> Perm:
    """
    Extend w by the fixed points n+1, ..., m.  Length is unchanged.

    >>> embed((1, 3, 2), 5)
    (1, 3, 2, 4, 5)
    """
    w, m = _perm_of(w), _as_int(m)
    if m < len(w):
        raise ValueError(f"cannot embed size {len(w)} into smaller size {m}")
    return w + tuple(range(len(w) + 1, m + 1))


def embed_all(
    ws: Sequence[Sequence[int]], n: int | None = None
) -> tuple[list[Perm], int]:
    """
    Validate each permutation and embed all of them into S_n; n defaults
    to the largest size among them.  Each comes back in canonical form
    (:func:`_perm`), embedded only when shorter than n.

    >>> embed_all([(1, 3, 2), (2, 1)])
    ([(1, 3, 2), (2, 1, 3)], 3)
    >>> embed_all([(2.0, 1.0)], 4)
    ([(2, 1, 3, 4)], 4)
    """
    try:
        perms = [_perm(tuple(w)) for w in ws]
    except TypeError:  # an unhashable entry, which _perm_of turns into ValueError
        perms = [_perm_of(w) for w in ws]
    n = max(len(w) for w in perms) if n is None else _as_int(n)
    return [w if len(w) == n else embed(w, n) for w in perms], n


def all_perms(n: int) -> Iterator[Perm]:
    """All of S_n in lexicographic order."""
    return _itertools_permutations(range(1, _as_int(n) + 1))


def perm_to_str(w: Perm) -> str:
    """
    Serialize: digit string for n <= 9, comma-separated otherwise.

    >>> perm_to_str((2, 4, 1, 3))
    '2413'
    """
    w = _perm_of(w)
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def perm_from_str(s: str) -> Perm:
    """
    Parse either serialized form.

    >>> perm_from_str("2,1,5,4,6,3")
    (2, 1, 5, 4, 6, 3)
    >>> perm_from_str("215463")
    (2, 1, 5, 4, 6, 3)
    """
    s = s.strip()
    if not s:
        raise ValueError("empty permutation string")
    if "," in s:
        entries = tuple(int(part) for part in s.split(","))
    else:
        if not s.isdigit():
            raise ValueError(f"not a permutation string: {s!r}")
        entries = tuple(int(ch) for ch in s)
    return as_perm(entries)
