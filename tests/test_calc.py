import hashlib
import random
import sys
import threading
from collections import Counter
from dataclasses import FrozenInstanceError
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    grassmannian_descent,
    grassmannian_shape,
    max_ordered_normal_form,
    schur_oracle,
)

from schubert import calc, chains, poly
from schubert.calc import (
    SchubertExpansion,
    expand_in_schubert_basis,
    lr_coefficients,
    pieri,
    psi_alpha,
    psi_alpha_normal_form,
    schubert,
    skew,
    skew_expansion,
    verify_corollary,
)
from schubert.chains import increasing_chains_to_w0, type_counts
from schubert.perms import (
    _below,
    _perm,
    _ranks,
    _swap_tables,
    all_perms,
    bruhat_leq,
    code,
    compose,
    embed,
    identity,
    length,
    longest,
    monk,
    perm_to_str,
)
from schubert.poly import (
    Poly,
    complete_h,
    monomial_key,
    normal_form,
    poly_from_text,
    staircase_exponent,
)
from schubert.verify import run_suite

x1, x2 = Poly.variable(1), Poly.variable(2)


# --- Schubert polynomials ---------------------------------------------------

def test_golden_values():
    assert schubert((1, 3, 2, 4), 4) == x1 + x2
    assert schubert((2, 4, 1, 3), 4) == x1 ** 2 * x2 + x1 * x2 ** 2
    assert schubert(identity(4), 4) == Poly.constant(1)
    assert schubert(longest(4), 4) == Poly.monomial((3, 2, 1))


def test_schubert_1432():
    expected = poly_from_text(
        "x1^2*x2 + x1^2*x3 + x1*x2^2 + x1*x2*x3 + x2^2*x3")
    assert schubert((1, 4, 3, 2), 4) == expected
    assert schubert((1, 4, 3, 2), 4, method="rcgraph") == expected


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_route_agreement_schubert(n):
    for w in all_perms(n):
        assert schubert(w, n, method="chain") == schubert(w, n, method="rcgraph"), w


def test_schubert_stability_in_n():
    for w in [(1, 3, 2), (3, 1, 2), (2, 3, 1)]:
        assert schubert(w, 3) == schubert(embed(w, 5), 5)


def test_unknown_method_rejected():
    with pytest.raises(ValueError):
        schubert((1, 2, 3), 3, method="magic")
    with pytest.raises(ValueError):
        skew((3, 2, 1), (1, 2, 3), 3, method="magic")


def test_caches_are_bounded_and_hit():
    assert calc._schubert.cache_info().maxsize == 4096
    assert calc._trie.cache_info().maxsize == 4096
    assert calc._monk_table.cache_info().maxsize == 16
    assert calc._TABLE_BOUND == 8192
    assert calc._w0_times.cache_info().maxsize == 4096
    assert _ranks.cache_info().maxsize == 8192
    assert _below.cache_info().maxsize == 4096
    assert _swap_tables.cache_info().maxsize == 16
    assert _perm.cache_info().maxsize == 8192
    assert poly._reduction_basis.cache_info().maxsize == 16
    assert chains._branch.cache_info().maxsize == 8192
    chains_1324 = list(increasing_chains_to_w0((1, 3, 2, 4)))
    info = chains._branch.cache_info()
    assert list(increasing_chains_to_w0((1, 3, 2, 4))) == chains_1324
    # every node of the tree below 1324 is already held: no entry added, each read a hit
    assert chains._branch.cache_info().currsize == info.currsize
    assert chains._branch.cache_info().hits > info.hits
    before = calc._schubert.cache_info().hits
    first = schubert((2, 4, 1, 3), 4)
    assert schubert([2, 4, 1, 3]) is first
    assert calc._schubert.cache_info().hits >= before + 1
    normal_form(first, 4)
    before = poly._reduction_basis.cache_info().hits
    normal_form(first, 4)
    assert poly._reduction_basis.cache_info().hits == before + 1
    lr_coefficients((2, 1, 3), (1, 3, 2), 3)
    ids, perms, rows = calc._monk_table(3)
    filled = [list(row) for row in rows]
    caches = (_perm, _below, calc._trie, calc._monk_table)
    before = [f.cache_info().hits for f in caches]
    lr_coefficients([2, 1, 3], [1, 3, 2], 3)
    # S_213 = x1 has fewer terms than S_132: one Monk step, x1 * S_132, read from
    # the row of 132 in the table the walk takes once; no row is filled, no id added
    assert [f.cache_info().hits - h for f, h in zip(caches, before)] == [2, 1, 2, 1]
    assert rows[ids[(1, 3, 2)]][1] is not None
    assert calc._monk_table(3)[2] is rows and [list(row) for row in rows] == filled
    assert len(perms) == len(ids) == len(rows)
    type_counts((1, 2, 3), (3, 2, 1))  # the chain search reads the S_3 swap tables per node
    before = _swap_tables.cache_info().hits
    type_counts((1, 2, 3), (3, 2, 1))
    assert _swap_tables.cache_info().hits > before


def test_monk_table_past_its_bound_is_replaced(monkeypatch):
    pairs = list(product(all_perms(4), repeat=2))
    calc._monk_table.cache_clear()
    expected = [lr_coefficients(u, v, 4) for u, v in pairs]
    monkeypatch.setattr(calc, "_TABLE_BOUND", 5)
    calc._monk_table.cache_clear()
    replaced = 0
    for (u, v), e in zip(pairs, expected):
        table = calc._monk_table(4)
        past = len(table[1]) > 5
        assert lr_coefficients(u, v, 4) == e, (u, v)
        if e.terms:  # the product did not vanish: it walked, on a fresh table if past
            assert (calc._monk_table(4) is not table) == past, (u, v)
            replaced += past
    assert replaced > 10


def test_threads_share_the_monk_table():
    pairs = list(product(all_perms(5), repeat=2))
    expected = [lr_coefficients(u, v, 5) for u, v in pairs]
    calc._monk_table.cache_clear()
    starts = range(0, len(pairs), len(pairs) // 4)  # a quarter apart, so they add ids at once
    got = {}

    def run(s):
        got[s] = [lr_coefficients(u, v, 5) for u, v in pairs[s:] + pairs[:s]]

    threads = [threading.Thread(target=run, args=(s,)) for s in starts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for s in starts:
        assert got[s] == expected[s:] + expected[:s], s
    ids, perms, rows = calc._monk_table(5)
    assert len(perms) == len(ids) == len(rows) and all(ids[w] == k for k, w in enumerate(perms))


def test_a_new_id_is_added_under_the_lock():
    # Thread a adds an id and, inside perms.append, yields to thread b, which adds
    # another.  Under the lock b waits until a has published its id; without it
    # both read len(perms) after the two appends and get the same id.
    a_appending, b_done = threading.Event(), threading.Event()

    class YieldingList(list):
        def append(self, w):
            super().append(w)
            if threading.current_thread().name == "a":
                a_appending.set()
                b_done.wait(timeout=0.2)  # b blocks on the lock until this times out

    table = ({}, YieldingList(), [])
    got = {}

    def add(w):
        if threading.current_thread().name == "b":
            a_appending.wait(timeout=10)
        got[w] = calc._id(table, w)
        if threading.current_thread().name == "b":
            b_done.set()

    threads = [threading.Thread(target=add, args=(w,), name=name)
               for name, w in (("a", (2, 1, 3)), ("b", (1, 3, 2)))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)
    ids, perms, rows = table
    assert len(perms) == len(ids) == len(rows) == 2
    assert all(perms[k] == w for w, k in got.items()) and sorted(got.values()) == [0, 1]


# --- skew polynomials -------------------------------------------------------

def test_skew_golden():
    expected = (
        schubert((3, 2, 4, 1), 4)
        + schubert((4, 1, 3, 2), 4)
        + schubert((3, 4, 1, 2), 4)
    )
    assert skew((2, 4, 1, 3), (1, 3, 2, 4), 4) == expected


def test_skew_from_w0_is_schubert():
    for w in all_perms(4):
        assert skew(longest(4), w, 4) == schubert(w, 4)


def test_skew_of_self_is_staircase():
    for w in [(1, 2, 3), (2, 3, 1), (3, 2, 1)]:
        assert skew(w, w, 3) == Poly.monomial((2, 1))


def test_skew_rejects_incomparable():
    with pytest.raises(ValueError, match="not below"):
        skew((1, 3, 2, 4), (2, 4, 1, 3), 4)
    with pytest.raises(ValueError, match="not below"):
        skew((2, 1, 4, 3), (1, 3, 4, 2), 4)


def test_skew_coefficient_sum_oracle():
    # the coefficient sum of the normal form of S_1324 * S_3142 equals the
    # number of increasing chains from 1324 to 2413; both are 4
    w0 = longest(4)
    prod = schubert((1, 3, 2, 4), 4) * schubert(compose(w0, (2, 4, 1, 3)), 4)
    nf_sum = normal_form(prod, 4).coefficient_sum()
    assert nf_sum == 4
    assert skew((2, 4, 1, 3), (1, 3, 2, 4), 4, method="chains").coefficient_sum() == nf_sum


def test_skew_methods_sampled_s5():
    rng = random.Random(11)
    perms = list(all_perms(5))
    pairs = []
    while len(pairs) < 10:
        u, w = rng.choice(perms), rng.choice(perms)
        if bruhat_leq(u, w):
            pairs.append((u, w))
    for u, w in pairs:
        a = skew(w, u, 5, method="normalform")
        b = skew(w, u, 5, method="chains")
        c = skew(w, u, 5, method="lr")
        assert a == b == c


# --- expansion --------------------------------------------------------------

def test_expansion_examples():
    e = expand_in_schubert_basis(x1 + x2, 4)
    assert e.terms == {(1, 3, 2, 4): 1}
    e = expand_in_schubert_basis(Poly.monomial((3, 2, 1)), 4)
    assert e.terms == {longest(4): 1}
    e = expand_in_schubert_basis(x1 ** 2 + x1 * x2, 3)
    assert e.terms == {(3, 1, 2): 1, (2, 3, 1): 1}


def test_expansion_hash_agrees_with_eq():
    a = expand_in_schubert_basis(x1 ** 2 + x1 * x2, 3)
    b = SchubertExpansion(3, {(2, 3, 1): 1, (3, 1, 2): 1, (1, 2, 3): 0})
    assert a == b and hash(a) == hash(b)
    assert len({a, b, SchubertExpansion(3, {})}) == 2


def test_expansion_rejects_a_key_outside_s_n():
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3: \(1, 1, 1\)"):
        SchubertExpansion(3, {(1, 1, 1): 2})
    with pytest.raises(ValueError, match="does not lie in S_3"):
        SchubertExpansion(3, {(2, 1): 1})
    assert SchubertExpansion(3, {(1, 1, 1): 0}) == SchubertExpansion(3, {})


def test_unchecked_expansions_equal_checked_ones_on_s4():
    for u in all_perms(4):
        for v in all_perms(4):
            e = lr_coefficients(u, v, 4)
            checked = SchubertExpansion(4, dict(e.terms))
            assert e == checked and hash(e) == hash(checked), (u, v)
            assert SchubertExpansion._of(4, dict(e.terms)) == checked, (u, v)
    with pytest.raises(FrozenInstanceError):
        e.n = 5


def test_expansion_rejects_outside_span():
    with pytest.raises(ValueError, match="not in the Schubert span"):
        expand_in_schubert_basis(Poly.variable(1) ** 4, 4)
    with pytest.raises(ValueError, match="not in the Schubert span"):
        expand_in_schubert_basis(Poly.variable(4), 4)


def _signed_monk(w, i):
    plus, minus = monk(w, i)
    return [(v, 1) for v in plus] + [(v, -1) for v in minus]


def _monk_sum(w, i, n):
    return sum((schubert(v, n) * s for v, s in _signed_monk(w, i)), Poly())


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monk_step_matches_the_normal_form_of_x_i_times_s_w(n):
    # both sides reduced by the quadratic oracle, which shares no code with Monk
    for w in all_perms(n):
        for i in range(1, n + 1):
            lhs = max_ordered_normal_form(dict((Poly.variable(i) * schubert(w, n)).items()), n)
            rhs = max_ordered_normal_form(dict(_monk_sum(w, i, n).items()), n)
            assert lhs == rhs, (w, i)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_monk_step_is_a_difference_of_chain_pieri_rules(n):
    # x_i = h_1(x_1..x_i) - h_1(x_1..x_{i-1}), and h_1(x_1..x_n) = e_1 = 0
    for w in all_perms(n):
        for i in range(1, n + 1):
            plus = pieri(w, 1, i, n).terms if i < n else {}
            minus = pieri(w, 1, i - 1, n).terms if i > 1 else {}
            step = {v: plus.get(v, 0) - minus.get(v, 0) for v in {*plus, *minus}}
            assert dict(_signed_monk(w, i)) == {v: c for v, c in step.items() if c}, (w, i)


def test_expansion_reconstructs_input():
    p = skew((2, 4, 1, 3), (1, 3, 2, 4), 4)
    e = expand_in_schubert_basis(p, 4)
    assert e.as_poly() == p


@settings(deadline=None, max_examples=25)
@given(st.dictionaries(
    st.permutations([1, 2, 3, 4]).map(tuple),
    st.integers(min_value=0, max_value=3),
    max_size=4,
))
def test_expansion_soundness_random_combinations(coeffs):
    combo = Poly()
    for w, c in coeffs.items():
        combo = combo + schubert(w, 4) * c
    e = expand_in_schubert_basis(combo, 4)
    assert e.terms == {w: c for w, c in coeffs.items() if c}


def test_expansion_soundness_seeded_s5():
    rng = random.Random(3)
    perms = list(all_perms(5))
    for _ in range(10):
        coeffs: dict = {}
        for _ in range(4):
            w = rng.choice(perms)
            coeffs[w] = coeffs.get(w, 0) + rng.randint(1, 3)
        combo = Poly()
        for w, c in coeffs.items():
            combo = combo + schubert(w, 5) * c
        assert expand_in_schubert_basis(combo, 5).terms == coeffs


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_leading_monomial_gate(n):
    for w in all_perms(n):
        p = schubert(w, n)
        lead = max((m for m, _ in p.items()), key=lambda m: monomial_key(m, n))
        padded = lead + (0,) * (n - len(lead))
        assert padded == code(w), w
        assert p.coefficient(lead) == 1, w


# --- Littlewood-Richardson --------------------------------------------------

def test_lr_golden():
    for v in [(2, 3, 1, 4), (1, 4, 2, 3), (2, 1, 4, 3)]:
        assert lr_coefficients((1, 3, 2, 4), v, 4)[(2, 4, 1, 3)] == 1


def test_lr_identity_cases():
    e = lr_coefficients((2, 4, 1, 3), identity(4), 4)
    assert e.terms == {(2, 4, 1, 3): 1}
    e = lr_coefficients((2, 1, 3), (1, 3, 2), 3)
    assert e.terms == {(2, 3, 1): 1, (3, 1, 2): 1}


def test_lr_symmetry_s3():
    for u in all_perms(3):
        for v in all_perms(3):
            assert lr_coefficients(u, v, 3).terms == lr_coefficients(v, u, 3).terms


def test_lr_grading_and_nonnegativity():
    for u in all_perms(3):
        for v in all_perms(3):
            for w, c in lr_coefficients(u, v, 3).terms.items():
                assert c > 0
                assert length(w) == length(u) + length(v)


# each ordered pair of S_2..S_4 and each unordered pair of S_5, with the
# number of products that vanish in H*(Fl_n)
VANISHING_CASES = [(2, False, 1, 4), (3, False, 17, 36), (4, False, 363, 576),
                   (5, True, 5352, 7260)]


@pytest.mark.parametrize("n, unordered, zeros, pairs", VANISHING_CASES)
def test_lr_vanishing_test_matches_full_route(n, unordered, zeros, pairs):
    perms = list(all_perms(n))
    w0 = longest(n)
    cases = [(u, v) for i, u in enumerate(perms)
             for v in (perms[i:] if unordered else perms)]
    assert len(cases) == pairs
    seen = 0
    for u, v in cases:
        shortcut = not bruhat_leq(u, compose(w0, v))
        full = normal_form(schubert(u, n) * schubert(v, n), n)
        assert shortcut == (not full), (u, v)
        walked = lr_coefficients(u, v, n)
        assert shortcut == (len(walked) == 0), (u, v)
        assert walked == expand_in_schubert_basis(full, n), (u, v)
        seen += shortcut
    assert seen == zeros


def test_lr_reassembles_the_max_ordered_normal_form_on_s5():
    # the Monk walk against the tuple loop of the oracle, which takes a normal form
    rng = random.Random(5)
    perms = list(all_perms(5))
    nonzero = 0
    for _ in range(200):
        u, v = rng.choice(perms), rng.choice(perms)
        e = lr_coefficients(u, v, 5)
        product = dict((schubert(u, 5) * schubert(v, 5)).items())
        assert dict(e.as_poly().items()) == max_ordered_normal_form(product, 5), (u, v)
        nonzero += len(e) > 0
    assert nonzero == 41


# --- Pieri and psi ----------------------------------------------------------

def test_pieri_monk_case():
    e = pieri((1, 3, 2, 4), 1, 2, 4)
    assert e.terms == {(2, 3, 1, 4): 1, (1, 4, 2, 3): 1}


def test_pieri_trivial():
    e = pieri((2, 4, 1, 3), 0, 2, 4)
    assert e.terms == {(2, 4, 1, 3): 1}


def test_pieri_rejects_a_negative_degree_and_a_row_outside_1_to_n_minus_1():
    with pytest.raises(ValueError, match="nonnegative"):
        pieri((2, 4, 1, 3), -1, 2, 4)
    for k in (0, 4):
        with pytest.raises(ValueError, match="1 <= k < n"):
            pieri((2, 4, 1, 3), 1, k, 4)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_pieri_step_multiplies_signed_expansions(n):
    # against the polynomial route, on seeded expansions whose terms share a
    # length, so that their chains meet and some ends cancel
    rng = random.Random(n)
    perms = list(all_perms(n))
    cancelled = 0
    for _ in range(12):
        ell = rng.randrange(1, n * (n - 1) // 2)
        level = [w for w in perms if length(w) == ell]
        terms = rng.sample(level, min(4, len(level)))
        f = SchubertExpansion(n, {w: rng.choice((-2, -1, 1, 2)) for w in terms})
        p = f.as_poly()
        for k in range(1, n):
            for a in range(n):
                got = calc._pieri_step(f.terms, a, k)
                assert got == expand_in_schubert_basis(normal_form(p * complete_h(a, k), n), n).terms
                ends = Counter(z for w in f.terms for z in pieri(w, a, k, n).terms)
                cancelled += sum(z not in got for z in ends)
    assert cancelled


def test_pieri_table_of_s2_to_s6_is_pinned():
    lines = []
    for n in range(2, 7):
        for u in all_perms(n):
            for k in range(1, n):
                for a in range(n):
                    terms = " ".join(f"{w}:{c}" for w, c in pieri(u, a, k, n).to_json_obj().items())
                    lines.append(f"{perm_to_str(u)} {a} {k} {terms}\n")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert (len(lines), digest) == (
        24328, "a8fbbc2309ab6f6d90548603794f33632b4f0418a903cae949fa7903d7e05c03")


def test_psi_alpha_trivial():
    f = SchubertExpansion(3, {longest(3): 1})
    assert psi_alpha(f, (0, 0), 3) == 1
    f = SchubertExpansion(4, {identity(4): 1})
    assert psi_alpha(f, staircase_exponent(4), 4) == 1


def test_psi_alpha_counts_chains():
    # psi_alpha(S_w) equals the number of increasing chains of type alpha
    # from w up to the longest permutation
    n = 4
    for w in [(1, 3, 2, 4), (2, 1, 4, 3)]:
        f = SchubertExpansion(n, {w: 1})
        for counts_alpha, expected in type_counts(w, longest(n)).items():
            assert psi_alpha(f, counts_alpha, n) == expected


@pytest.mark.parametrize("alpha", [(2, 1, 0, 7), (2,), (), (0, 0, 0), (3, 0), (0, 2),
                                   (-1, 0)])
def test_both_psi_reads_reject_the_same_alphas(alpha):
    f = SchubertExpansion(3, {identity(3): 1})
    reduced = normal_form(f.as_poly(), 3)
    with pytest.raises(ValueError) as via_pieri:
        psi_alpha(f, alpha, 3)
    with pytest.raises(ValueError) as via_normal_form:
        psi_alpha_normal_form(reduced, alpha, 3)
    assert str(via_pieri.value) == str(via_normal_form.value)


@pytest.mark.parametrize("n", [3, 4])
def test_both_psi_reads_agree_on_every_alpha(n):
    w0 = longest(n)
    fs = [SchubertExpansion(n, {w: 1}) for w in all_perms(n)]
    fs.append(SchubertExpansion(n, {identity(n): 2, (2, 1) + identity(n)[2:]: -3, w0: 1}))
    for f in fs:
        reduced = normal_form(f.as_poly(), n)
        for alpha in product(*(range(n - i + 1) for i in range(1, n))):
            assert psi_alpha(f, alpha, n) == psi_alpha_normal_form(reduced, alpha, n), alpha


@pytest.mark.parametrize("n, checks", [(1, 1), (2, 12), (3, 84), (5, 15840)])
def test_pieri_suite_checks_every_alpha_once(n, checks):
    # the suite shares the Pieri steps of each alpha prefix; n = 4 is criterion 5
    rep = run_suite("pieri", n)
    assert (rep.status, rep.checks) == ("PASS", checks)


def test_psi_alpha_rejects_bad_composition():
    f = SchubertExpansion(3, {identity(3): 1})
    with pytest.raises(ValueError):
        psi_alpha(f, (0, 2), 3)
    with pytest.raises(ValueError):
        psi_alpha(f, (1,), 3)


# --- the chain-counting identity --------------------------------------------

def test_corollary_s3_exhaustive():
    n = 3
    for u in all_perms(n):
        for w in all_perms(n):
            if not bruhat_leq(u, w):
                continue
            m = length(w) - length(u)
            for alpha in product(range(m + 1), repeat=n - 1):
                if sum(alpha) == m:
                    assert verify_corollary(u, w, alpha, n), (u, w, alpha)


def test_corollary_worked_pair_weight_two():
    for alpha in product(range(3), repeat=3):
        if sum(alpha) == 2:
            assert verify_corollary((1, 3, 2, 4), (2, 4, 1, 3), alpha, 4)


def test_corollary_trivial():
    assert verify_corollary((2, 1, 3), (2, 1, 3), (0, 0), 3)


# --- Grassmannian cross-checks ----------------------------------------------

def test_schubert_equals_schur_for_grassmannians_s4():
    for w in all_perms(4):
        k = grassmannian_descent(w)
        if k is None:
            continue
        lam, k = grassmannian_shape(w)
        assert schubert(w, 4) == schur_oracle(lam, None, k), w


def test_skew_schubert_differs_from_skew_schur():
    # the skew polynomial has a third term beyond the two Schur summands
    skew_schur = schur_oracle((2, 1), (1,), 2)
    skew_schub = skew((2, 4, 1, 3), (1, 3, 2, 4), 4)
    assert skew_schub != skew_schur
    e = skew_expansion((2, 4, 1, 3), (1, 3, 2, 4), 4)
    w0 = longest(4)
    assert e[compose(w0, (2, 3, 1, 4))] == 1
    assert e[compose(w0, (1, 4, 2, 3))] == 1
    assert e[compose(w0, (2, 1, 4, 3))] == 1
    assert len(e) == 3
