"""
Every public entry that takes a permutation reads it through perms._perm:
a list, floats or bools give the same result as the tuple of ints, with
Python ints in every tuple it returns and in its JSON, and a sequence that
is not a permutation, or has an unhashable entry, raises ValueError.
Degrees, composition parts, code entries, coefficients and the ambient size
n are read the same way: 1.0 and True are 1, and 0.5 or "1" raises ValueError.
"""

import json

import pytest

from schubert import (
    LabeledChain,
    expand_in_schubert_basis,
    Poly,
    SchubertExpansion,
    bruhat_covers,
    bruhat_leq,
    chain_from_json_obj,
    chain_to_json_obj,
    code,
    compose,
    embed,
    increasing_chains,
    increasing_chains_to_w0,
    inverse,
    labeled_edges,
    length,
    lr_coefficients,
    perm_to_str,
    pieri,
    poly_to_json_obj,
    schubert,
    skew,
    skew_expansion,
    verify_corollary,
)
from schubert.calc import psi_alpha, psi_alpha_normal_form
from schubert.chains import padded_type, type_counts
from schubert.perms import all_perms, embed_all, identity, longest, perm_from_code
from schubert.poly import (check_composition, complete_h, divides_staircase, elementary, h_alpha,
                           normal_form, staircase_exponent)
from schubert.rcgraphs import RcGraph, rcgraph_to_json_obj, render_ascii, staircase
from schubert.verify import run_suite

U, W = (1, 3, 2), (3, 2, 1)  # U <= W

# each entry called on a pair u <= w of S_3 (dict keys must be hashable, so tuple(u))
ENTRIES = {
    "embed_all": lambda u, w: embed_all([u, w]),
    "schubert": lambda u, w: schubert(u),
    "skew": lambda u, w: skew(w, u),
    "lr_coefficients": lambda u, w: lr_coefficients(u, u),
    "pieri": lambda u, w: pieri(u, 1, 1),
    "skew_expansion": lambda u, w: skew_expansion(w, u, 3),
    "verify_corollary": lambda u, w: verify_corollary(u, w, (1, 0)),
    "SchubertExpansion": lambda u, w: SchubertExpansion(3, {tuple(u): 2, tuple(w): 1}),
    "SchubertExpansion.__getitem__": lambda u, w: SchubertExpansion(3, {(1, 3, 2): 2})[u],
    "bruhat_leq": lambda u, w: bruhat_leq(u, w),
    "increasing_chains": lambda u, w: list(increasing_chains(u, w)),
    "increasing_chains_to_w0": lambda u, w: list(increasing_chains_to_w0(u)),
    "type_counts": lambda u, w: type_counts(u, w),
    "embed": lambda u, w: embed(u, 5),
    "inverse": lambda u, w: inverse(u),
    "compose": lambda u, w: compose(u, w),
    "length": lambda u, w: length(u),
    "code": lambda u, w: code(u),
    "bruhat_covers": lambda u, w: bruhat_covers(u),
    "labeled_edges": lambda u, w: labeled_edges(u, [u[1], u[0], *u[2:]]),  # 132 -> 312
    "perm_to_str": lambda u, w: perm_to_str(u),
    "chain_from_json_obj": lambda u, w: chain_from_json_obj(  # 123 -> 132
        {"start": "123", "steps": [[2, 2]]}, end=u),
    # the cell (u(1), u(3)) = (1, 2) in u's entry form; embed rejects what is no permutation
    "RcGraph": lambda u, w: sorted(RcGraph(len(embed(u, 3)), {(u[0], u[2])}).crossings),
}

FORMS = {
    "float": lambda p: tuple(map(float, p)),
    "bool": lambda p: tuple(True if a == 1 else a for a in p),
    "list": list,
}


def tuples_in(x):
    """Every tuple inside a result, nested ones included."""
    if isinstance(x, LabeledChain):
        x = (x.perms, x.labels)
    elif isinstance(x, SchubertExpansion):
        x = x.terms
    if isinstance(x, tuple):
        yield x
    if isinstance(x, dict):
        x = list(x.items())
    if isinstance(x, (tuple, list)):
        for y in x:
            yield from tuples_in(y)


def json_of(x):
    if isinstance(x, SchubertExpansion):
        return x.to_json_obj()
    if isinstance(x, Poly):
        return poly_to_json_obj(x)
    if isinstance(x, list) and all(isinstance(c, LabeledChain) for c in x):
        return [chain_to_json_obj(c) for c in x]
    return None


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_entries_return_canonical_int_tuples(entry, form):
    call, convert = ENTRIES[entry], FORMS[form]
    got = call(convert(U), convert(W))
    expected = call(U, W)
    assert got == expected
    assert all(type(a) is int for t in tuples_in(got) for a in t
               if not isinstance(a, (tuple, list)))
    assert json.dumps(json_of(got)) == json.dumps(json_of(expected))
    # a list entry makes the input unhashable, except where the test builds a dict key of it
    unhashable = [] if entry == "SchubertExpansion" else [(1, [2], 3)]
    for bad in [(2, 2), (1, 1)] + unhashable:
        for w in (W, (2, 1)):
            with pytest.raises(ValueError):
                call(bad, w)


def test_json_of_float_input_has_int_permutations():
    assert pieri((1.0, 2.0, 3.0), 1, 1).to_json_obj() == {"213": 1}
    first = next(increasing_chains_to_w0((1.0, 3.0, 2.0)))
    assert chain_to_json_obj(first) == {"start": "132", "steps": [[1, 1], [2, 1]]}


def test_degrees_equal_to_ints_are_those_ints():
    assert pieri(U, 1.0, 1) == pieri(U, True, 1) == pieri(U, 1, 1)
    assert pieri(U, 1, 1.0) == pieri(U, 1, True) == pieri(U, 1, 1)
    for alpha in ((1.0, True), [1, 1.0]):
        got = check_composition(alpha, 3)
        assert got == (1, 1) and all(type(a) is int for a in got)
        assert h_alpha(alpha, 3) == h_alpha((1, 1), 3)
    f = SchubertExpansion(3, {(1, 2, 3): 1})
    reduced = normal_form(f.as_poly(), 3)
    assert psi_alpha(f, (2.0, 1.0), 3) == psi_alpha(f, (2, 1), 3) == 1
    assert psi_alpha_normal_form(reduced, (2.0, True), 3) == 1
    assert padded_type((1.0, True), 4) == (1, 1, 0)
    assert all(type(a) is int for a in padded_type((1.0, True), 4))
    assert verify_corollary(U, W, (1.0, 0)) == verify_corollary(U, W, (True, 0.0))
    assert complete_h(1.0, 2) == complete_h(True, 2.0) == complete_h(1, 2)
    assert elementary(1.0, 2) == elementary(True, 2.0) == elementary(1, 2)
    assert perm_from_code((1.0, 0)) == perm_from_code((True, 0.0)) == (2, 1)
    p = Poly({(1,): 2.0, (0, 1): True})
    assert p == Poly({(1,): 2, (0, 1): 1}) and all(type(c) is int for _, c in p.items())
    assert repr(p * p) == repr(Poly({(1,): 2, (0, 1): 1}) ** 2)
    e = SchubertExpansion(3, {(1, 2, 3): 2.0, (1, 3, 2): True})
    assert e.terms == {(1, 2, 3): 2, (1, 3, 2): 1} and all(type(c) is int for _, c in e)
    # keys that read as one permutation add, as the monomials of a Poly do
    assert SchubertExpansion(3, {(1, 2, 3): 1, range(1, 4): 1}).terms == {(1, 2, 3): 2}
    assert SchubertExpansion(3, {(1, 2, 3): 1, range(1, 4): -1}).terms == {}
    x = Poly.variable(1)
    assert x ** 2.0 == x ** 2 and x ** True == x
    g = RcGraph(3, {(1.0, True), (True, 2.0), (1, 1)})
    assert g == RcGraph(3, {(1, 1), (1, 2)}) and all(type(a) is int for c in g.crossings for a in c)


@pytest.mark.parametrize("bad", [0.5, 1.5, "1", None, float("nan"), float("inf"), [1]])
def test_degrees_not_equal_to_an_int_raise(bad):
    with pytest.raises(ValueError):
        pieri(U, bad, 1)
    with pytest.raises(ValueError):
        pieri(U, 1, bad)
    for alpha in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError):
            check_composition(alpha, 3)
    f = SchubertExpansion(3, {(1, 2, 3): 1})
    for call in (lambda a: psi_alpha(f, a, 3),
                 lambda a: psi_alpha_normal_form(normal_form(f.as_poly(), 3), a, 3)):
        with pytest.raises(ValueError):
            call((bad, bad))
    for alpha in ((bad, 0), (0, bad)):
        with pytest.raises(ValueError):
            padded_type(alpha, 3)
        with pytest.raises(ValueError):
            verify_corollary(U, W, alpha)
    for call in (complete_h, elementary):
        with pytest.raises(ValueError):
            call(bad, 2)
        with pytest.raises(ValueError):
            call(1, bad)
    with pytest.raises(ValueError):
        perm_from_code((bad, 0))
    with pytest.raises(ValueError):  # a coefficient
        Poly({(1,): bad})
    with pytest.raises(ValueError):
        SchubertExpansion(3, {(1, 2, 3): bad})
    with pytest.raises(ValueError):
        Poly.variable(1) ** bad
    for cell in ((bad, 1), (1, bad), bad):  # in a list, as a cell may be unhashable
        with pytest.raises(ValueError):  # bad alone is no pair (k, b)
            RcGraph(3, [cell])


# each entry called with the ambient size n alone varying
SIZED = {
    "embed_all": lambda n: embed_all([U, W], n),
    "embed": lambda n: embed(U, n),
    "schubert": lambda n: schubert(U, n),
    "skew": lambda n: skew(W, U, n),
    "skew_expansion": lambda n: skew_expansion(W, U, n),
    "lr_coefficients": lambda n: lr_coefficients(U, U, n),
    "pieri": lambda n: pieri(U, 1, 1, n),
    "psi_alpha": lambda n: psi_alpha(SchubertExpansion(4, {(1, 3, 2, 4): 1}), (2, 2, 1), n),
    "identity": identity,
    "longest": longest,
    "normal_form": lambda n: normal_form(Poly.variable(1) ** 4, n),
    "expand_in_schubert_basis": lambda n: expand_in_schubert_basis(Poly.variable(1), n),
    "Poly.variable": Poly.variable,
    "SchubertExpansion": lambda n: (SchubertExpansion(n, {(1, 3, 2, 4): 1}),
                                    SchubertExpansion(n, {(1, 3, 2, 4): 1}).as_poly()),
    "run_suite": lambda n: run_suite("routes", n),
    "staircase": staircase,
    "RcGraph": lambda n: rcgraph_to_json_obj(RcGraph(n, {(1, 2)})),
    "render_ascii": lambda n: render_ascii(RcGraph(n, {(1, 2)})),
    "staircase_exponent": staircase_exponent,
    "all_perms": lambda n: list(all_perms(n)),
    "perm_from_code": lambda n: perm_from_code((1, 0), n),
    "poly_to_json_obj": lambda n: poly_to_json_obj(Poly.variable(1), n),
    "divides_staircase": lambda n: divides_staircase((1,), n),
}


def outcome(call, n):
    """The repr of call(n), which shows a float where an int belongs, or its error."""
    try:
        return repr(call(n))
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("given, n", [(4.0, 4), (True, 1)])
@pytest.mark.parametrize("entry", SIZED)
def test_sizes_equal_to_ints_are_those_ints(entry, given, n):
    assert outcome(SIZED[entry], given) == outcome(SIZED[entry], n)


def test_sizes_give_results_at_4():
    # so that the comparison above is between results, not between errors
    for entry, call in SIZED.items():
        assert not outcome(call, 4).startswith("ValueError"), entry
    assert run_suite("routes", 4.0).status == "PASS"


@pytest.mark.parametrize("entry", SIZED)
def test_sizes_not_equal_to_an_int_raise(entry):
    with pytest.raises(ValueError, match="not an integer"):
        SIZED[entry](0.5)
