"""
Acceptance suite: one test per criterion, each printing a PASS line with its
measured numbers.  Run with ``pytest -s tests/test_acceptance.py`` to see
the report; every tolerance and time budget is asserted, not just printed.
"""

import random
import time

from oracles import grassmannian_descent, grassmannian_shape, schur_oracle

from schubert.calc import lr_coefficients, schubert, skew, skew_expansion
from schubert.chains import increasing_chains_to_w0
from schubert.perms import Perm, all_perms, code, compose, length, longest
from schubert.poly import Poly, elementary, monomial_key, normal_form, poly_from_text
from schubert.rcgraphs import enumerate_rcgraphs
from schubert.verify import run_suite

x1, x2 = Poly.variable(1), Poly.variable(2)


def report(num: int, message: str) -> None:
    print(f"criterion {num:2d}: PASS  {message}")


def passing_checks(suite: str, n: int, seed: int = 0) -> int:
    """Run a verify suite, require PASS, and return its check count."""
    rep = run_suite(suite, n, seed)
    assert rep.status == "PASS", rep.failures[:5]
    return rep.checks


def test_criterion_01_golden_s4_example():
    t0 = time.perf_counter()
    assert schubert((1, 3, 2, 4), 4) == x1 + x2
    assert schubert((2, 4, 1, 3), 4) == x1 ** 2 * x2 + x1 * x2 ** 2
    e = skew_expansion((2, 4, 1, 3), (1, 3, 2, 4), 4)
    assert e.terms == {(3, 2, 4, 1): 1, (4, 1, 3, 2): 1, (3, 4, 1, 2): 1}
    for v in [(2, 3, 1, 4), (1, 4, 2, 3), (2, 1, 4, 3)]:
        assert lr_coefficients((1, 3, 2, 4), v, 4)[(2, 4, 1, 3)] == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(1, f"golden S4 values exact in {elapsed:.3f}s")


def test_criterion_02_bijection_suite():
    t0 = time.perf_counter()
    checks = [passing_checks("bijection", n) for n in range(2, 6)]
    elapsed = time.perf_counter() - t0
    assert checks == [12, 40, 212, 1812]
    assert elapsed < 30.0
    report(2, f"{sum(checks)} bijection checks over S_2..S_5 in {elapsed:.2f}s")


def test_criterion_03_route_equivalence():
    t0 = time.perf_counter()
    checked = passing_checks("routes", 4)
    sampled = passing_checks("routes", 5, seed=0)
    elapsed = time.perf_counter() - t0
    assert (checked, sampled) == (213, 100)
    assert elapsed < 60.0
    report(3, f"{checked} exhaustive S4 pairs + {sampled} seeded S5 pairs "
              f"in {elapsed:.2f}s")


def test_criterion_04_corollary_identity():
    pairs = [passing_checks("corollary", n) for n in (4, 5)]
    assert pairs == [213, 3781]
    report(4, f"chain-count identity on {pairs[0]} Bruhat pairs of S_4 and "
              f"{pairs[1]} of S_5, all types")


def test_criterion_05_pieri_and_psi():
    checks = passing_checks("pieri", 4)
    assert checks == 864
    report(5, f"{checks} Pieri expansions and psi evaluations agree on S_4")


def test_criterion_06_construction_equivalence_and_normal_forms():
    for w in all_perms(5):
        assert schubert(w, 5, method="rcgraph") == schubert(w, 5, method="chain")
    for n in range(2, 6):
        for w in all_perms(n):
            s = schubert(w, n)
            assert normal_form(s, n) == s
    for n in range(1, 8):
        for i in range(1, n + 1):
            assert normal_form(elementary(i, n), n) == Poly()
    report(6, "rcgraph == chain on S_5; normal_form fixes S_w; e_i reduce to 0")


def test_criterion_07_stability():
    checks = passing_checks("stability", 4)
    assert checks == 38
    report(7, f"x^-delta skew values stable across S_3 -> S_4 -> S_5 "
              f"({checks} checks)")


def test_criterion_08_grassmannian_checks():
    count = 0
    for w in all_perms(5):
        if grassmannian_descent(w) is None:
            continue
        lam, k = grassmannian_shape(w)
        assert schubert(w, 5) == schur_oracle(lam, None, k), w
        count += 1
    skew_schur = schur_oracle((2, 1), (1,), 2)
    assert skew_schur == poly_from_text("x1^2 + 2*x1*x2 + x2^2")
    skew_schub = skew((2, 4, 1, 3), (1, 3, 2, 4), 4)
    assert skew_schub != skew_schur
    e = skew_expansion((2, 4, 1, 3), (1, 3, 2, 4), 4)
    w0 = longest(4)
    # the two Schur-indexed summands are shared ...
    assert e[compose(w0, (2, 3, 1, 4))] == 1  # v = 2314 <-> lambda (1,1)
    assert e[compose(w0, (1, 4, 2, 3))] == 1  # v = 1423 <-> lambda (2)
    # ... plus one extra term the skew Schur polynomial cannot see
    assert e[compose(w0, (2, 1, 4, 3))] == 1
    assert len(e) == 3
    report(8, f"{count} Grassmannian S_5 Schubert = Schur checks; "
              "skew caveat reproduced")


def test_criterion_09_property_gates():
    for n in range(2, 7):
        for w in all_perms(n):
            p = schubert(w, n)
            lead = max((m for m, _ in p.items()), key=lambda m: monomial_key(m, n))
            assert lead + (0,) * (n - len(lead)) == code(w)
            assert p.coefficient(lead) == 1
    tables = {}
    for u in all_perms(4):
        for v in all_perms(4):
            e = lr_coefficients(u, v, 4)
            tables[(u, v)] = e.terms
            for w, c in e.terms.items():
                assert c > 0
                assert length(w) == length(u) + length(v)
    for (u, v), terms in tables.items():
        assert terms == tables[(v, u)]
    report(9, "leading monomials x^code up to S_6; LR symmetry and "
              "nonnegativity on S_4")


def measure_enumeration(w: Perm) -> dict:
    """
    Time one full chain enumeration for w.  Returns n, the number of steps
    per chain l, the chain count c, the wall time, and the unit cost
    time / (n * l * c).
    """
    n = len(w)
    l = n * (n - 1) // 2 - length(w)
    t0 = time.perf_counter()
    c = sum(1 for _ in increasing_chains_to_w0(w))
    elapsed = time.perf_counter() - t0
    unit = elapsed / (n * l * c) if l and c else float("nan")
    return {"w": w, "n": n, "l": l, "c": c, "time": elapsed, "unit": unit}


def test_criterion_10_performance():
    t0 = time.perf_counter()
    total = sum(
        sum(1 for _ in enumerate_rcgraphs(w)) for w in all_perms(6)
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0

    rng = random.Random(0)
    ws = []
    for n in (5, 6, 7):
        sample = rng.sample(list(all_perms(n)), 40)
        eligible = []
        for w in sample:
            steps = n * (n - 1) // 2 - length(w)
            if steps < 3:
                continue
            c = sum(1 for _ in increasing_chains_to_w0(w))
            eligible.append((c, w))
        eligible.sort(reverse=True)
        ws += [w for _, w in eligible[:3]]
    # round-robin: each round times every row once, so a change of host
    # speed that lasts a round hits all rows alike; each row keeps its best
    rounds = [[measure_enumeration(w) for w in ws] for _ in range(5)]
    rows = [min(times, key=lambda r: r["time"]) for times in zip(*rounds)]
    units = [r["unit"] for r in rows]
    spread = max(units) / min(units)
    assert spread <= 3.0, rows
    report(10, f"all {total} rc-graphs of S_6 in {elapsed:.2f}s; "
               f"unit-cost spread {spread:.2f} <= 3 over "
               f"{len(rows)} samples in S_5..S_7")
