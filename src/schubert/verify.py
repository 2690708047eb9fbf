"""
Self-verification suites: each one exercises a cross-cutting identity over a
whole symmetric group (or a seeded sample) and reports what it checked.
These back the ``verify`` CLI subcommand.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field

from .calc import (
    SchubertExpansion,
    _pieri_step,
    corollary_sides,
    expand_in_schubert_basis,
    pieri,
    psi_alpha_normal_form,
    schubert,
    skew,
    skew_expansion,
)
from .chains import chain_monomial, increasing_chains_to_w0, search_toward
from .perms import Perm, _as_int, all_perms, bruhat_leq, longest, perm_to_str
from .poly import Poly, complete_h, normal_form
from .rcgraphs import chain_of_rcgraph, enumerate_rcgraphs, monomial, rcgraph_of_chain

@dataclass
class Report:
    suite: str
    n: int
    seed: int
    checks: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    @property
    def status(self) -> str:
        """FAIL on any failure, SKIP when nothing was checked, else PASS."""
        return "FAIL" if self.failures else "PASS" if self.checks else "SKIP"

    def note(self, ok: bool, message: Callable[[], str]) -> None:
        """Count one check; on failure, record message(), built only then."""
        self.checks += 1
        if not ok:
            self.failures.append(message())


def run_suite(suite: str, n: int = 4, seed: int = 0) -> Report:
    """Run one suite; an exception in the checked code fails it, after the checks so far."""
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    n = _as_int(n)
    if n < 1:
        raise ValueError("n must be at least 1")
    rep = Report(suite, n, seed)
    try:
        _SUITES[suite](rep)
    except Exception as exc:
        rep.failures.append(f"{suite}: {type(exc).__name__}: {exc}")
    return rep


def _comparable_pairs(n: int) -> list[tuple[Perm, Perm]]:
    """All (u, w) in S_n with u <= w in the Bruhat order."""
    return [(u, w) for u in all_perms(n) for w in all_perms(n) if bruhat_leq(u, w)]


def suite_bijection(rep: Report) -> None:
    """Chains to w0 and rc-graphs are inverse bijections exchanging weights."""
    n = rep.n
    delta = tuple(range(n - 1, -1, -1))

    def complementary(graph, chain) -> bool:  # x^R * x^gamma == x^delta
        weights = zip(monomial(graph) + (0,), chain_monomial(chain) + (0,))
        return tuple(a + b for a, b in weights) == delta

    for w in all_perms(n):
        graphs = list(enumerate_rcgraphs(w))
        chains = list(increasing_chains_to_w0(w))
        rep.note(len(graphs) == len(chains),
                 lambda: f"{perm_to_str(w)}: {len(graphs)} graphs vs {len(chains)} chains")
        rep.note(len(set(g.crossings for g in graphs)) == len(graphs),
                 lambda: f"{perm_to_str(w)}: duplicate rc-graphs")
        for graph in graphs:
            chain = chain_of_rcgraph(graph)
            rep.note(rcgraph_of_chain(chain) == graph,
                     lambda: f"{perm_to_str(w)}: round trip failed")
            rep.note(complementary(graph, chain),
                     lambda: f"{perm_to_str(w)}: x^R * x^gamma != x^delta")
        # enumerate_rcgraphs lists the complements of the chains in chain order
        for graph, chain in zip(graphs, chains):
            rep.note(chain_of_rcgraph(rcgraph_of_chain(chain)) == chain,
                     lambda: f"{perm_to_str(w)}: chain round trip failed")
            rep.note(complementary(graph, chain),
                     lambda: f"{perm_to_str(w)}: rc-graph and chain listed together differ")


# seeded pairs suite_routes draws above S_4; the largest a and k suite_pieri checks
ROUTE_SAMPLES = 100
PIERI_MAX_A = PIERI_MAX_K = 3


def suite_routes(rep: Report) -> None:
    """The three skew routes agree; exhaustive for n <= 4, sampled above."""
    n = rep.n
    if n <= 4:
        pairs = _comparable_pairs(n)
    else:
        rng = random.Random(rep.seed)
        perms = list(all_perms(n))
        pairs = []
        while len(pairs) < ROUTE_SAMPLES:
            u = rng.choice(perms)
            w = rng.choice(perms)
            if bruhat_leq(u, w):
                pairs.append((u, w))
    for u, w in pairs:
        a = skew(w, u, n, method="normalform")
        b = skew(w, u, n, method="chains")
        c = skew(w, u, n, method="lr")
        rep.note(a == b and b == c,
                 lambda: f"skew({perm_to_str(w)}/{perm_to_str(u)}) routes disagree")


def suite_corollary(rep: Report) -> None:
    """I_alpha(u, w) == sum_v c^w_{u,v} I_alpha(w0 v, w0); one search toward w serves every u."""
    n = rep.n
    w0 = longest(n)
    to_w0, _ = search_toward(w0)
    for w in all_perms(n):
        to_w, _ = search_toward(w)
        for u in all_perms(n):
            if bruhat_leq(u, w):
                lhs, rhs = corollary_sides(u, skew_expansion(w, u, n), to_w, to_w0)
                rep.note(lhs == rhs, lambda: "type counts differ for "
                                             f"({perm_to_str(u)}, {perm_to_str(w)})")


def suite_pieri(rep: Report) -> None:
    """Chain-route Pieri equals the polynomial route; psi matches both reads."""
    n = rep.n
    for u in all_perms(n):
        for k in range(1, min(PIERI_MAX_K, n - 1) + 1):
            for a in range(0, PIERI_MAX_A + 1):
                via_chains = pieri(u, a, k, n)
                product = normal_form(schubert(u, n) * complete_h(a, k), n)
                via_poly = expand_in_schubert_basis(product, n)
                rep.note(via_chains == via_poly,
                         lambda: f"pieri({perm_to_str(u)}, a={a}, k={k}) mismatch")
    w0 = longest(n)
    for w in all_perms(n):
        f = SchubertExpansion(n, {w: 1})
        reduced = normal_form(f.as_poly(), n)
        # psi_alpha's Pieri steps, taken once per prefix of the alphas with
        # 0 <= alpha_i <= n - i, which stay in lexicographic order
        terms_of = {(): f.terms}
        for i in range(1, n):
            terms_of = {alpha + (a,): _pieri_step(terms, a, i)
                        for alpha, terms in terms_of.items() for a in range(n - i + 1)}
        for alpha, terms in terms_of.items():
            lhs = terms.get(w0, 0)
            rhs = psi_alpha_normal_form(reduced, alpha, n)
            rep.note(lhs == rhs,
                     lambda: f"psi_{alpha}(S_{perm_to_str(w)}): {lhs} != {rhs}")


def suite_stability(rep: Report) -> None:
    """
    Skew polynomials for pairs in S_3, embedded into each S_m up to n + 1,
    satisfy skew_{m+1} == skew_m * x_1 ... x_m.
    """
    base = 3
    pairs = _comparable_pairs(base)
    for m in range(base, rep.n + 1):
        shift = Poly.monomial((1,) * m)
        for u, w in pairs:
            small = skew(w, u, m)
            big = skew(w, u, m + 1)
            rep.note(small * shift == big, lambda: "stability fails for "
                                                   f"({perm_to_str(u)}, {perm_to_str(w)}) at {m}")


_SUITES = {
    "bijection": suite_bijection,
    "routes": suite_routes,
    "corollary": suite_corollary,
    "pieri": suite_pieri,
    "stability": suite_stability,
}
SUITES = tuple(_SUITES)
