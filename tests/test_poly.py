from itertools import product

import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import max_ordered_normal_form

from schubert import poly
from schubert.poly import (
    Poly,
    complete_h,
    divides_staircase,
    elementary,
    h_alpha,
    monomial_key,
    normal_form,
    poly_from_json_obj,
    poly_from_text,
    poly_to_json_obj,
    poly_to_text,
    staircase_exponent,
)

x1, x2, x3 = Poly.variable(1), Poly.variable(2), Poly.variable(3)


def polys_in(nvars):
    """Up to 6 terms in x_1..x_nvars, exponents at most 4, coefficients -9..9."""
    exps = st.lists(st.integers(min_value=0, max_value=4), max_size=nvars).map(tuple)
    return st.dictionaries(
        exps, st.integers(min_value=-9, max_value=9), max_size=6
    ).map(Poly)


small_polys = polys_in(4)


def test_monomials_trim_trailing_zeros():
    assert Poly.monomial((1, 0, 0)) == Poly.monomial((1,))
    assert Poly.monomial((0, 0)) == Poly.constant(1)
    assert Poly.monomial((1, 2), 0) == Poly()


def test_constants_hash_like_ints():
    assert hash(Poly.constant(5)) == hash(5)
    assert hash(Poly()) == hash(0)
    assert hash(Poly.constant(1)) == hash(1)
    assert len({Poly.constant(-3), -3, Poly.monomial((), -3)}) == 1
    assert hash(x1 + 1) == hash(Poly({(1,): 1, (): 1}))


def test_basic_arithmetic():
    assert (x1 + x2) * (x1 * x2) == x1 ** 2 * x2 + x1 * x2 ** 2
    p = 3 * x1 * x2 - x3 ** 2 + 7
    assert p + (-p) == Poly()
    assert p - p == 0
    assert (x1 + 1) * (x1 - 1) == x1 ** 2 - 1


@given(small_polys, small_polys, small_polys)
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert p * (q + r) == p * q + p * r
    assert (p + q) + r == p + (q + r)


@given(small_polys, small_polys)
def test_product_keys_are_canonical(p, q):
    prod = p * q
    for m, _ in prod.items():
        assert not m or m[-1] != 0, m
        assert all(a >= 0 for a in m), m
    assert prod == Poly(dict(prod.items()))


def test_coefficient():
    p = x1 + x2
    assert p.coefficient((1,)) == 1
    assert p.coefficient((0, 1)) == 1
    assert p.coefficient((2,)) == 0
    assert Poly.constant(1).coefficient(()) == 1


def test_elementary():
    assert elementary(1, 2) == x1 + x2
    assert elementary(2, 2) == x1 * x2
    assert elementary(3, 3) == x1 * x2 * x3
    with pytest.raises(ValueError):
        elementary(4, 3)
    for n in range(1, 7):  # against every 0/1 exponent vector
        for i in range(1, n + 1):
            assert elementary(i, n) == Poly({e: 1 for e in product((0, 1), repeat=n)
                                             if sum(e) == i})


def test_complete_h():
    assert complete_h(2, 2) == x1 ** 2 + x1 * x2 + x2 ** 2
    assert complete_h(0, 3) == Poly.constant(1)
    # C(a + k - 1, a) monomials
    assert len(complete_h(3, 3)) == 10
    with pytest.raises(ValueError, match="a >= 0"):
        complete_h(-1, 2)
    for k in range(1, 6):  # against every exponent vector of degree a
        for a in range(6):
            assert complete_h(a, k) == Poly({e: 1 for e in product(range(a + 1), repeat=k)
                                             if sum(e) == a})


@pytest.mark.parametrize("n", range(1, 8))
def test_reduction_basis_rewrites_each_lead_by_the_tail_of_h(n):
    # x_i^d == -(h_d(x_1..x_i) - x_i^d), d = n - i + 1, as steps e - d*e_i
    rules = poly._reduction_basis(n)
    assert [(i, d) for i, d, _ in rules] == [(i - 1, n - i + 1) for i in range(n, 0, -1)]
    for i, d, steps in rules:
        lead = (0,) * i + (d,)
        tails = {tuple(a - b for a, b in zip(e, lead)) + (0,) * (n - i - 1)
                 for e in product(range(d + 1), repeat=i + 1) if sum(e) == d and e != lead}
        assert len(steps) == len(tails) and set(steps) == tails


def test_h_alpha():
    assert h_alpha((1, 0, 0), 4) == x1
    assert h_alpha((0, 0, 0), 4) == Poly.constant(1)
    assert h_alpha((1, 1), 3) == x1 ** 2 + x1 * x2
    h_alpha((3, 2, 1), 4)  # full staircase is allowed
    with pytest.raises(ValueError):
        h_alpha((1, 3, 0), 4)  # alpha_2 exceeds n-2
    with pytest.raises(ValueError):
        h_alpha((1, 0), 4)  # wrong number of parts


def test_staircase_exponent():
    assert staircase_exponent(4) == (3, 2, 1)
    assert divides_staircase((3, 2, 1), 4)
    assert divides_staircase((0, 2), 4)
    assert not divides_staircase((4,), 4)
    assert not divides_staircase((0, 0, 0, 1), 4)


def test_monomial_key_orders_from_top_variable():
    # x2 beats x1, and x1*x2^2 beats x1^2*x2
    assert monomial_key((0, 1), 2) > monomial_key((1,), 2)
    assert monomial_key((1, 2), 2) > monomial_key((2, 1), 2)


def test_normal_form_forced_values():
    assert normal_form(Poly.variable(2), 2) == -x1
    assert normal_form(x1 ** 2, 2) == Poly()
    assert normal_form(Poly.constant(1), 5) == Poly.constant(1)
    with pytest.raises(ValueError, match="more than 1 variables"):
        normal_form(x2, 1)


@pytest.mark.parametrize("n", range(1, 8))
def test_normal_form_kills_elementaries(n):
    for i in range(1, n + 1):
        assert normal_form(elementary(i, n), n) == Poly()


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_normal_form_idempotent_and_staircase(n):
    probe = (x1 + x2 + 1) ** n + Poly.variable(n) ** n
    nf = normal_form(probe, n)
    assert normal_form(nf, n) == nf
    for m, _ in nf.items():
        assert divides_staircase(m, n)


@given(small_polys, small_polys)
# a product that ran past the 200 ms deadline under a quadratic reduction
@example(p=poly_from_text("1 + x4^3 + x3^3*x4^4"),
         q=poly_from_text("1 + x1 + x3*x4^4 + x3^2*x4^4 + x3^3*x4^4"))
def test_normal_form_is_a_ring_map(p, q):
    n = 4
    lhs = normal_form(p * q, n)
    rhs = normal_form(normal_form(p, n) * normal_form(q, n), n)
    assert lhs == rhs


@given(small_polys, small_polys)
def test_normal_form_is_linear(p, q):
    n = 4
    assert normal_form(p + q, n) == normal_form(p, n) + normal_form(q, n)


# the oracle is quadratic by design: at n = 6 it alone can take 80 ms
@pytest.mark.parametrize("n", [3, 4, 5, 6])
@settings(deadline=None)
@given(data=st.data())
def test_normal_form_matches_max_ordered_oracle(n, data):
    p = data.draw(polys_in(n))
    assert dict(normal_form(p, n).items()) == max_ordered_normal_form(dict(p.items()), n)


# largest total degree 2^b - 1, where a field of b bits is full, and 2^b,
# which needs one bit more, for b = 2, 3, 4
@pytest.mark.parametrize("text, n", [
    ("x3^3 + x1^2*x2 - 2*x2^3", 3),
    ("x1^2*x2^2 + x3^4 - x1*x2*x3^2", 4),
    ("x2^7 - x1^3*x3^4 + 3*x5^7 + x4^7", 5),
    ("x5^8 + x1*x2^3*x4^4 - x3^8 + x2^7", 5),
    ("x1^5*x2^4*x3^3*x4^2*x5 - x2^15 + x3^7*x4^8", 6),
    ("x1^5*x2^4*x3^3*x4^2*x5^2 + x4^16 - x2^8*x3^8 + x1^3*x2^5*x3^3*x4^2*x5", 6),
])
def test_normal_form_at_the_field_width_boundary(text, n):
    p = poly_from_text(text)
    assert dict(normal_form(p, n).items()) == max_ordered_normal_form(dict(p.items()), n)


# inputs far above x^delta, which the elimination of x_i takes in many rounds
@pytest.mark.parametrize("p, n", [
    (x2 ** 500 + x2 ** 2, 3),
    ((x1 + x2 + x3) ** 12 - (x1 + x2 + x3) ** 3, 4),
    (Poly.monomial((4, 3, 2, 1)) - 2 * Poly.monomial((5, 4, 3, 2)) + x3 ** 2 * x2, 4),
], ids=["x2^500", "(x1+x2+x3)^12", "above-every-bound"])
def test_normal_form_matches_the_oracle_over_many_rounds(p, n):
    nf = normal_form(p, n)
    assert nf and dict(nf.items()) == max_ordered_normal_form(dict(p.items()), n)


def test_h_alpha_at_delta_contains_staircase_monomial():
    for n in (2, 3, 4, 5):
        delta = staircase_exponent(n)
        p = h_alpha(delta, n)
        assert p.coefficient(delta) == 1


def test_text_round_trip():
    p = x1 ** 2 * x2 + x1 * x2 ** 2
    assert poly_to_text(p) == "x1^2*x2 + x1*x2^2"
    assert poly_from_text("x1^2*x2 + x1*x2^2") == p
    assert poly_to_text(Poly()) == "0"
    assert poly_from_text("0") == Poly()
    for text in ("", "   ", "\n"):  # zero is written 0
        with pytest.raises(ValueError, match="malformed polynomial text"):
            poly_from_text(text)
    with pytest.raises(ValueError, match="malformed term"):
        poly_from_text("x1 - - x2")
    q = -3 * x1 + x2 ** 4 - 1
    assert poly_from_text(poly_to_text(q)) == q
    assert poly_to_text(Poly.constant(7)) == "7"
    assert poly_to_text(x1 ** 2 + x2) == "x1^2 + x2"  # ordered from x2 down


def test_text_rejects_x0():
    for text in ("x0", "x0^3", "3*x0", "x1 + x0*x2"):
        with pytest.raises(ValueError, match="1-indexed"):
            poly_from_text(text)
    with pytest.raises(ValueError, match="1-indexed"):
        Poly.variable(0)


@given(small_polys)
def test_text_round_trip_random(p):
    assert poly_from_text(poly_to_text(p)) == p


@given(small_polys)
def test_json_round_trip_random(p):
    assert poly_from_json_obj(poly_to_json_obj(p)) == p


def test_parsers_merge_duplicate_cancelling_and_untrimmed_terms():
    assert poly_from_text("x1 + 2*x1*x2 + x1 - x1*x2 - x1*x2") == 2 * x1
    assert poly_from_text("x1*x2 - x2*x1 + 3") == Poly.constant(3)
    obj = [{"exp": [1, 0, 0], "coef": 2}, {"exp": [1], "coef": -2},
           {"exp": [0, 1], "coef": 1}, {"exp": [0, 1, 0], "coef": 4},
           {"exp": [], "coef": 0}]
    assert poly_from_json_obj(obj) == 5 * x2
    assert poly_from_json_obj([{"exp": [1], "coef": 1},
                               {"exp": [1, 0], "coef": -1}]) == Poly()
    with pytest.raises(ValueError):
        poly_from_json_obj([{"exp": [-1], "coef": 1}, {"exp": [-1], "coef": -1}])


def test_json_shape():
    obj = poly_to_json_obj(x1 + x2, 3)
    assert obj == [{"exp": [1, 0, 0], "coef": 1}, {"exp": [0, 1, 0], "coef": 1}]
    assert poly_to_json_obj(x1 ** 2 + x2) == [{"exp": [2, 0], "coef": 1},
                                              {"exp": [0, 1], "coef": 1}]
    with pytest.raises(ValueError, match="more than 1 variables"):
        poly_to_json_obj(x1 ** 2 + x2, 1)
