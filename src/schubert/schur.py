"""
Schur and skew Schur polynomials by direct semistandard-tableau
enumeration, plus the dictionary between Grassmannian permutations and
partitions.  Desk scale only; this module exists as an independent
cross-check for the Schubert construction.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Sequence
from typing import Iterator

from .perms import Perm
from .poly import Poly

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
