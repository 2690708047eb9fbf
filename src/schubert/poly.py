"""
Sparse multivariate polynomials with exact integer coefficients, the
symmetric-function constructors used by the Schubert machinery, and normal
forms modulo the ideal generated by the elementary symmetric polynomials
e_1, ..., e_n.

Monomials are exponent tuples with trailing zeros trimmed, so the same
polynomial compares equal no matter the ambient number of variables.
Coefficients are Python ints, hence arbitrary precision: overflow cannot
occur, let alone wrap silently.

One monomial order is shared by every consumer: compare exponents from the
highest-indexed variable downward (:func:`monomial_key`); it orders the
terms of serialized output.  :func:`normal_form` eliminates x_n, ..., x_1
in turn on exponent tuples padded to n variables.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Mapping
from functools import lru_cache
from itertools import combinations, combinations_with_replacement
from operator import add
from typing import Iterator

from .perms import _as_int, _json_int, _json_shape

Exponents = tuple[int, ...]


def trim(exps: Iterable[int]) -> Exponents:
    """Canonical monomial key: drop trailing zeros."""
    e = tuple(exps)
    while e and e[-1] == 0:
        e = e[:-1]
    if any(a < 0 for a in e):
        raise ValueError(f"negative exponent in {e}")
    return e


def monomial_key(exps: Exponents, nvars: int) -> tuple[int, ...]:
    """
    The pinned comparison key: exponents read from x_nvars down to x_1.
    Bigger key means bigger monomial.
    """
    e = exps + (0,) * (nvars - len(exps))
    return tuple(reversed(e))


def staircase_exponent(n: int) -> Exponents:
    """delta = (n-1, n-2, ..., 1, 0), trimmed."""
    return trim(range(_as_int(n) - 1, -1, -1))


def divides_staircase(exps: Exponents, n: int) -> bool:
    """True iff the monomial divides x^delta, i.e. exp_i <= n - i."""
    n = _as_int(n)
    return len(exps) <= n and all(a <= n - i - 1 for i, a in enumerate(exps))


class Poly:
    """
    Immutable sparse polynomial: a mapping from trimmed exponent tuples to
    nonzero integer coefficients.  Supports +, -, * (with ints or Polys)
    and integer powers; all arithmetic is exact.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Iterable[int], int] | None = None):
        canon: dict[Exponents, int] = {}
        if terms:
            for exps, coef in terms.items():
                if coef := _as_int(coef):  # zero: its exponents are not read
                    m = trim(exps)
                    canon[m] = canon.get(m, 0) + coef
        self._terms = {m: c for m, c in canon.items() if c}

    @classmethod
    def _of(cls, terms: dict[Exponents, int]) -> "Poly":
        """Wrap a dict of trimmed monomials to nonzero coefficients, unchecked."""
        p = cls()
        p._terms = terms
        return p

    @classmethod
    def constant(cls, c: int) -> "Poly":
        return cls({(): c})

    @classmethod
    def variable(cls, i: int) -> "Poly":
        """x_i, 1-indexed."""
        i = _as_int(i)
        if i < 1:
            raise ValueError("variables are 1-indexed")
        return cls({(0,) * (i - 1) + (1,): 1})

    @classmethod
    def monomial(cls, exps: Iterable[int], coef: int = 1) -> "Poly":
        return cls({tuple(exps): coef})

    def items(self) -> Iterator[tuple[Exponents, int]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[Exponents, int]]:
        """Terms ascending in the pinned order."""
        n = self.nvars()
        return sorted(self._terms.items(), key=lambda mc: monomial_key(mc[0], n))

    def coefficient(self, exps: Iterable[int]) -> int:
        """The coefficient of a monomial, 0 if absent."""
        return self._terms.get(trim(exps), 0)

    def nvars(self) -> int:
        """Smallest k with all monomials in x_1..x_k."""
        return max((len(m) for m in self._terms), default=0)

    def coefficient_sum(self) -> int:
        """Evaluation at x_1 = x_2 = ... = 1."""
        return sum(self._terms.values())

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self._terms == other._terms
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {(): other})
        return NotImplemented

    def __hash__(self) -> int:
        if self._terms.keys() <= {()}:  # zero or a constant: hash as the int
            return hash(self._terms.get((), 0))
        return hash(frozenset(self._terms.items()))

    def __neg__(self) -> "Poly":
        return Poly._of({m: -c for m, c in self._terms.items()})

    def __add__(self, other: "Poly | int") -> "Poly":
        other = _coerce(other)
        res = dict(self._terms)
        for m, c in other._terms.items():
            res[m] = res.get(m, 0) + c
        return Poly._of({m: c for m, c in res.items() if c})

    __radd__ = __add__

    def __sub__(self, other: "Poly | int") -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other: "Poly | int") -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other: "Poly | int") -> "Poly":
        if isinstance(other, int):
            return Poly._of({m: c * other for m, c in self._terms.items()} if other else {})
        if not isinstance(other, Poly):
            return NotImplemented
        res: dict[Exponents, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                # a sum of trimmed nonnegative monomials is trimmed
                a, b = (m1, m2) if len(m1) >= len(m2) else (m2, m1)
                m = tuple(x + y for x, y in zip(a, b)) + a[len(b):]
                res[m] = res.get(m, 0) + c1 * c2
        return Poly._of({m: c for m, c in res.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if (k := _as_int(k)) < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = Poly.constant(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __repr__(self) -> str:
        return f"Poly({poly_to_text(self)})"


def _coerce(x: "Poly | int") -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly.constant(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


def _monomial_sum(combos: Iterable[tuple[int, ...]]) -> Poly:
    """The sum of x_(c_1 + 1) ... x_(c_d + 1) over distinct nondecreasing index tuples c."""
    return Poly._of({tuple(map(c.count, range(max(c, default=-1) + 1))): 1 for c in combos})


def elementary(i: int, n: int) -> Poly:
    """The elementary symmetric polynomial e_i(x_1, ..., x_n)."""
    i, n = _as_int(i), _as_int(n)
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    return _monomial_sum(combinations(range(n), i))


def complete_h(a: int, k: int) -> Poly:
    """The complete homogeneous symmetric polynomial h_a(x_1, ..., x_k)."""
    a, k = _as_int(a), _as_int(k)
    if a < 0 or k < 1:
        raise ValueError(f"need a >= 0 and k >= 1, got a={a}, k={k}")
    return _monomial_sum(combinations_with_replacement(range(k), a))


def check_composition(alpha: Iterable[int], n: int) -> tuple[int, ...]:
    """
    Return alpha as a tuple of ints, parts read like as_perm entries, after
    checking that it has n - 1 parts with 0 <= alpha_i <= n - i.

    >>> check_composition([2, 0, 1], 4)
    (2, 0, 1)
    >>> check_composition([3, 0], 3)
    Traceback (most recent call last):
    ...
    ValueError: part alpha_1=3 outside 0..2
    """
    alpha, n = tuple(map(_as_int, alpha)), _as_int(n)
    if len(alpha) != n - 1:
        raise ValueError(f"composition needs {n - 1} parts, got {len(alpha)}")
    for i, a in enumerate(alpha):
        if a < 0 or a > n - i - 1:
            raise ValueError(f"part alpha_{i + 1}={a} outside 0..{n - i - 1}")
    return alpha


def h_alpha(alpha: Iterable[int], n: int) -> Poly:
    """
    The product h_alpha = h_{alpha_1}(x_1) h_{alpha_2}(x_1, x_2) ...
    h_{alpha_{n-1}}(x_1, ..., x_{n-1}).  The composition must have n - 1
    parts and satisfy alpha_i <= n - i.
    """
    alpha = check_composition(alpha, n)
    out = Poly.constant(1)
    for i, a in enumerate(alpha):
        if a:
            out = out * complete_h(a, i + 1)
    return out


@lru_cache(maxsize=16)
def _reduction_basis(n: int) -> tuple[tuple[int, int, tuple[Exponents, ...]], ...]:
    """
    The Groebner basis h_d(x_1..x_i), d = n - i + 1, of <e_1, ..., e_n>, for
    i = n..1, as rewrites x_i^d == -(the tail of :func:`complete_h` after x_i^d):
    each is (i - 1, d, steps), the steps s - x_i^d over n variables, s in the
    tail.  The leads are coprime pure powers, so the remainders are the
    monomials dividing x^delta.

    >>> _reduction_basis(2)  # x2 == -x1; x1^2 == 0
    ((1, 1, ((1, -1),)), (0, 2, ()))
    """
    rules = []
    for i in range(n, 0, -1):
        d = n - i + 1
        steps = (tuple(e - d * (j == i - 1) for j, e in enumerate(m + (0,) * (n - len(m))))
                 for m, _ in complete_h(d, i).items())
        rules.append((i - 1, d, tuple(t for t in steps if any(t))))
    return tuple(rules)  # cached and shared, so immutable


def normal_form(p: Poly, n: int) -> Poly:
    """
    The unique representative of p modulo <e_1, ..., e_n> on the monomials
    dividing x^delta.  Linear, idempotent.  It shares no code with the Monk
    walk of calc.lr_coefficients, so each checks the other.

    It eliminates x_n, ..., x_1 in turn by :func:`_reduction_basis`.  A rewrite
    of x_i^d lowers the exponent of x_i and keeps x_(i+1)..x_n, so taking the
    terms by decreasing x_i exponent gives each all its parts before its turn.

    >>> normal_form(Poly.variable(2) ** 2 + Poly.variable(1), 2)
    Poly(x1)
    """
    n = _as_int(n)
    if p.nvars() > n:
        raise ValueError(f"polynomial uses more than {n} variables")
    work = {m + (0,) * (n - len(m)): c for m, c in p.items()}
    for i, d, steps in _reduction_basis(n):
        level: dict[int, list[Exponents]] = {}  # the monomials by x_i exponent
        for m in work:
            level.setdefault(m[i], []).append(m)
        for e in range(max(level, default=0), d - 1, -1):
            for m in level.get(e, ()):
                c = work.pop(m, 0)  # 0 if its terms cancelled or it came twice
                for t in steps if c else ():
                    r = tuple(map(add, m, t))
                    old = work.get(r)
                    if old is None:
                        level.setdefault(r[i], []).append(r)
                    work[r] = (old or 0) - c
    return Poly._of({trim(m): c for m, c in work.items() if c})


# --- serialization ---------------------------------------------------------

_TERM_RE = re.compile(r"^(?:(\d+)\*?)?((?:x\d+(?:\^\d+)?(?:\*x\d+(?:\^\d+)?)*))?$")


def poly_to_text(p: Poly) -> str:
    """Render like "x1^2*x2 + x1*x2^2", terms ascending in the pinned order."""
    if not p:
        return "0"
    parts = []
    for m, c in p.sorted_terms():
        factors = [
            f"x{i + 1}^{e}" if e > 1 else f"x{i + 1}"
            for i, e in enumerate(m)
            if e
        ]
        body = "*".join(factors)
        if not body:
            term = str(abs(c))
        elif abs(c) == 1:
            term = body
        else:
            term = f"{abs(c)}*{body}"
        parts.append((c < 0, term))
    out = ("-" if parts[0][0] else "") + parts[0][1]
    for neg, term in parts[1:]:
        out += (" - " if neg else " + ") + term
    return out


def poly_from_text(s: str) -> Poly:
    """Parse the textual form emitted by :func:`poly_to_text`."""
    s = s.strip()
    if s == "0":
        return Poly()
    chunks = re.split(r"\s*([+-])\s*", s)
    chunks = chunks[1:] if chunks[0] == "" else ["+"] + chunks
    if not chunks or len(chunks) % 2:  # empty text is not 0
        raise ValueError(f"malformed polynomial text: {s!r}")
    terms: Counter = Counter()
    for sign, term in zip(chunks[::2], chunks[1::2]):
        m = _TERM_RE.match(term.strip())
        if not m or (m.group(1) is None and m.group(2) is None):
            raise ValueError(f"malformed term: {term!r}")
        coef = int(m.group(1)) if m.group(1) else 1
        if sign == "-":
            coef = -coef
        exps: dict[int, int] = {}
        if m.group(2):
            for factor in m.group(2).split("*"):
                var, _, pow_ = factor.partition("^")
                i = int(var[1:])
                if i < 1:
                    raise ValueError(f"variables are 1-indexed: {term!r}")
                exps[i] = exps.get(i, 0) + (int(pow_) if pow_ else 1)
        width = max(exps, default=0)
        terms[tuple(exps.get(i, 0) for i in range(1, width + 1))] += coef
    return Poly(terms)


def poly_to_json_obj(p: Poly, nvars: int | None = None) -> list[dict]:
    """
    JSON form: [{"exp": [a1, ..., an], "coef": c}, ...], pinned order, each
    exp padded to nvars entries (default p.nvars(), and never fewer).
    """
    n = _as_int(nvars) if nvars is not None else p.nvars()
    if n < p.nvars():
        raise ValueError(f"polynomial uses more than {n} variables")
    return [{"exp": list(m) + [0] * (n - len(m)), "coef": c} for m, c in p.sorted_terms()]


def poly_from_json_obj(obj: list[dict]) -> Poly:
    terms: Counter = Counter()
    with _json_shape():
        for entry in obj:
            # trimmed per term: a negative exponent raises even where terms cancel
            terms[trim(map(_json_int, entry["exp"]))] += _json_int(entry["coef"])
    return Poly(terms)
