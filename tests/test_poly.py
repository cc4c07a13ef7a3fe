"""Sparse polynomial layer: canonical form, ring arithmetic, rendering."""

from decimal import Decimal
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, strategies as st

from butterfly import poly
from butterfly.poly import (NVARS, Polynomial, VARIABLES, _exact_point,
                            _shift_down, common_monomial)


def grlex_key(mono):
    """The packed order, stated on exponent tuples: graded-lexicographic,
    higher total degree first, ties broken lexicographically (a before k)."""
    return (sum(mono), mono)


def var(name):
    return Polynomial.variable(name)


A, B, C, D, K = (var(n) for n in VARIABLES)

monomials = st.tuples(*(st.integers(min_value=0, max_value=4) for _ in range(NVARS)))
coeffs = st.fractions(min_value=-50, max_value=50, max_denominator=20)
term_lists = st.lists(st.tuples(monomials, coeffs), max_size=8)
polys = term_lists.map(Polynomial)


def naive_mul(p, q):
    """Independent double-loop multiplier used as the arithmetic oracle."""
    acc = {}
    for m1, c1 in p.terms:
        for m2, c2 in q.terms:
            mono = tuple(x + y for x, y in zip(m1, m2))
            acc[mono] = acc.get(mono, Fraction(0)) + c1 * c2
    return Polynomial(acc)


def dict_sum(pairs):
    """{monomial: Fraction} for a list of terms, zero coefficients dropped."""
    acc = {}
    for mono, coeff in pairs:
        acc[mono] = acc.get(mono, Fraction(0)) + coeff
    return {m: c for m, c in acc.items() if c}


def dict_mul(x, y):
    return dict_sum([(tuple(e + f for e, f in zip(m1, m2)), c1 * c2)
                     for m1, c1 in x.items() for m2, c2 in y.items()])


def dict_min_exponents(xs):
    """Componentwise minimum exponent vector over every monomial of the
    dicts: the largest monomial dividing all of them (empty dicts bound
    nothing)."""
    return tuple(min(column) for column in zip(*(m for x in xs for m in x)))


def dict_shift_down(x, mono):
    return {tuple(e - f for e, f in zip(m, mono)): c for m, c in x.items()}


def dict_content(xs):
    """The largest positive rational dividing every coefficient of the dicts
    to an integer: gcd of the numerators over lcm of the denominators."""
    coeffs = [c for x in xs for c in x.values()]
    return Fraction(gcd(*(c.numerator for c in coeffs)),
                    lcm(*(c.denominator for c in coeffs)))


def dict_leading(x):
    """The coefficient of the graded-lex largest monomial."""
    return x[max(x, key=grlex_key)]


def dict_scale(x, factor):
    return {m: c * factor for m, c in x.items()}


def read_terms(p):
    """p.terms as a dict, after checking it is in descending graded-lex order."""
    monos = [m for m, _ in p.terms]
    assert monos == sorted(monos, key=grlex_key, reverse=True)
    assert all(type(c) is Fraction and c for _, c in p.terms)
    return dict(p.terms)


def test_add_cancels():
    assert (A + C) + (A - C) == 2 * A


def test_difference_of_squares():
    assert (A + B) * (A - B) == A * A - B * B


def test_expand_against_naive_oracle():
    p = B * D * K**2 + B * D + C**2
    q = 2 * A
    expected = Polynomial({
        (1, 1, 0, 1, 2): Fraction(2),
        (1, 1, 0, 1, 0): Fraction(2),
        (1, 0, 2, 0, 0): Fraction(2),
    })
    assert p * q == expected
    assert p * q == naive_mul(p, q)


def test_canonical_no_zero_terms():
    p = A - A
    assert not p
    assert p.terms == ()
    assert (A * B - A * B + C).terms == C.terms


def test_terms_descending_graded_lex():
    p = K + A * B + C**3 + Polynomial.constant(5)
    monos = [m for m, _ in p.terms]
    keys = [grlex_key(m) for m in monos]
    assert keys == sorted(keys, reverse=True)
    # degree-3 first, then the two degree-ish ties broken a-before-k, constant last
    assert monos[0] == (0, 0, 3, 0, 0)
    assert monos[1] == (1, 1, 0, 0, 0)
    assert monos[2] == (0, 0, 0, 0, 1)
    assert monos[3] == (0, 0, 0, 0, 0)


def test_structural_equality_is_mathematical():
    one_way = (A + B) ** 2
    other_way = A * A + 2 * A * B + B * B
    assert one_way == other_way
    assert hash(one_way) == hash(other_way)


def test_constant_and_int_coercion():
    assert not Polynomial.constant(0)
    assert A + 0 == A
    assert A * 1 == A
    assert 3 - A == Polynomial.constant(3) - A
    with pytest.raises(TypeError):
        Polynomial.constant(0.5)


def test_degree_and_leading():
    assert Polynomial.zero().degree() == -1
    assert Polynomial.constant(7).degree() == 0
    p = 3 * A * K**2 - B
    assert p.degree() == 3
    assert p.terms[0] == ((1, 0, 0, 0, 2), Fraction(3))
    assert Polynomial.zero().terms == ()


def test_unknown_variable_names_the_variables():
    for bad in ("x", "A", ""):
        with pytest.raises(ValueError, match="a, b, c, d, k"):
            Polynomial.variable(bad)


def test_pow():
    assert (A + 1) ** 0 == Polynomial.one()
    assert (A + 1) ** 3 == (A + 1) * (A + 1) * (A + 1)
    with pytest.raises(ValueError):
        A ** -1


def test_evaluate():
    p = (A + C) * K - B
    values = {"a": Fraction(2), "b": Fraction(1), "c": Fraction(-3),
              "d": Fraction(-2), "k": Fraction(1)}
    assert p.evaluate(values) == Fraction(-2)
    with pytest.raises(ValueError, match="missing 'k'"):
        p.evaluate({"a": 1, "b": 1, "c": 1, "d": 1})
    # exact values only: a float or a string is not converted
    for bad in (0.1, "1/3", Decimal(1)):
        with pytest.raises(TypeError, match="value of a must be an int or Fraction"):
            A.evaluate({**values, "a": bad})


def test_evaluate_keeps_fractions_and_converts_ints():
    values = {"a": Fraction(2, 3), "b": Fraction(-1, 5), "c": Fraction(7),
              "d": Fraction(-3, 4), "k": Fraction(5, 6)}
    assert all(got is want for got, want
               in zip(_exact_point(values), values.values()))
    point = _exact_point({**values, "a": 2})
    assert type(point[0]) is Fraction and point[0] == 2
    # an all-int assignment still evaluates to a Fraction, never an int
    value = ((A + C) * K - B).evaluate(dict.fromkeys(VARIABLES, 3))
    assert type(value) is Fraction and value == 15


def test_render_format():
    p = 2 * A * B * K**2 - C**2
    assert p.render() == "2*a*b*k^2 - c^2"
    assert Polynomial.zero().render() == "0"
    assert (-A).render() == "-a"
    assert (A - Polynomial.constant(Fraction(1, 2))).render() == "a - 1/2"
    assert str(K**3) == "k^3"


def test_bad_monomial_rejected():
    with pytest.raises(ValueError):
        Polynomial({(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        Polynomial({(1, 0, 0, 0, -1): Fraction(1)})


@given(term_lists, term_lists, coeffs, monomials)
def test_kernel_matches_dict_arithmetic(left, right, factor, shift):
    """Each operation against plain {monomial: Fraction} dict arithmetic
    that never builds a Polynomial."""
    p, q = Polynomial(left), Polynomial(right)
    x, y = dict_sum(left), dict_sum(right)
    assert read_terms(p) == x
    assert read_terms(p * q) == dict_mul(x, y)
    assert read_terms(p + q) == dict_sum(list(x.items()) + list(y.items()))
    assert read_terms(p - q) == dict_sum(list(x.items()) + [(m, -c) for m, c in y.items()])
    assert read_terms(q - p) == dict_sum(list(y.items()) + [(m, -c) for m, c in x.items()])
    assert read_terms(p * Polynomial.constant(factor)) == dict_sum(
        [(m, c * factor) for m, c in x.items()])
    up = {tuple(e + f for e, f in zip(m, shift)): c for m, c in x.items()}
    assert read_terms(_shift_down(Polynomial(up), shift)) == x


@given(polys)
def test_product_with_one_is_the_other_factor(p):
    assert p * Polynomial.one() is p
    assert Polynomial.one() * p is p
    # a 1 built afresh, or given as an int, is the constant 1 too
    assert p * Polynomial.constant(Fraction(2, 2)) is p
    assert p * 1 is p and 1 * p is p


@given(polys, st.integers(min_value=-10**30, max_value=10**30))
def test_int_operands_match_fraction_constants(p, n):
    c = Polynomial.constant(Fraction(n))
    for got, want in ((p + n, p + c), (n + p, c + p), (p - n, p - c),
                      (n - p, c - p), (p * n, p * c), (n * p, c * p)):
        assert got == want and got.terms == want.terms
    assert (p == n) == (p == c)


def test_canonical_form_across_denominators():
    m = (1, 0, 2, 0, 0)
    halves = Polynomial({m: Fraction(1, 2)}) + Polynomial({m: Fraction(1, 2)})
    whole = Polynomial({m: 1})
    assert halves == whole
    assert hash(halves) == hash(whole)
    assert halves.terms == whole.terms == ((m, Fraction(1)),)
    thirds = (Polynomial({m: Fraction(2, 3), (0, 0, 0, 0, 1): Fraction(4, 3)})
              * Polynomial.constant(Fraction(3, 2)))
    assert thirds == whole + K + K
    assert hash(thirds) == hash(whole + 2 * K)


def test_packing_guard():
    limit = 1 << 16
    with pytest.raises(ValueError):
        Polynomial({(limit, 0, 0, 0, 0): 1})
    with pytest.raises(ValueError):
        Polynomial({(0, 0, 0, 0, limit): 1})
    top = B ** (limit - 1)
    assert top.terms == (((0, limit - 1, 0, 0, 0), Fraction(1)),)
    assert top.degree() == limit - 1
    half = A ** 40000
    with pytest.raises(OverflowError):
        half * half
    with pytest.raises(OverflowError):
        top * K
    with pytest.raises(OverflowError):
        A ** limit


@given(polys, polys)
def test_mul_matches_naive_oracle(p, q):
    assert p * q == naive_mul(p, q)


@given(polys, polys)
def test_mul_is_term_for_term_commutative(p, q):
    """The shorter operand drives the outer loop; the canonical result does
    not depend on which one that is."""
    assume(len(p._terms) != len(q._terms))
    pq, qp = p * q, q * p
    assert pq._terms == qp._terms and pq._den == qp._den


def _componentwise_min(ps):
    return dict_min_exponents([dict(p.terms) for p in ps])


@given(polys.filter(bool), polys.filter(bool), monomials)
def test_common_monomial_is_the_componentwise_minimum(p, q, shift):
    p, q = (r * Polynomial({shift: 1}) for r in (p, q))
    assert common_monomial(p, q) == _componentwise_min([p, q])


@given(polys, coeffs.filter(bool), polys.filter(bool), monomials)
def test_common_monomial_with_a_constant_term_first(p, constant, q, shift):
    """A `first` whose last term is constant ends the search at once; the
    second may have any monomial factor."""
    first = p + constant
    assume(first.terms[-1][0] == (0,) * NVARS)
    q = q * Polynomial({shift: 1})
    assert common_monomial(first, q) == _componentwise_min([first, q])


def test_common_monomial_needs_a_nonzero_first_argument():
    assert common_monomial(A * B + A**2 * K, A * K) == (1, 0, 0, 0, 0)
    with pytest.raises(ValueError, match="nonzero"):
        common_monomial(Polynomial.zero(), A)


def _never_collect(acc, den):
    raise AssertionError("a product with a one-term operand collected a dict")


@given(st.tuples(monomials, coeffs.filter(bool)), term_lists)
@example(((1, 0, 0, 0, 0), Fraction(-2, 3)),
         [((0, 1, 0, 0, 0), Fraction(3, 4)), ((0, 0, 0, 0, 0), Fraction(9, 2))])
@example(((0, 0, 0, 0, 0), Fraction(-4, 9)),
         [((2, 0, 1, 0, 0), Fraction(3, 8)), ((0, 0, 0, 1, 3), Fraction(-3, 2))])
def test_one_term_products_match_dict_arithmetic(term, other):
    """Rational and negative coefficients, and denominators that reduce
    (in the examples, 12 to 2 and 72 to 6), on either side of the product."""
    mono, coeff = term
    single, q = Polynomial([term]), Polynomial(other)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(poly, "_collect", _never_collect)
        products = (single * q, q * single)
    want = dict_mul({mono: coeff}, dict_sum(other))
    for product in products:
        assert read_terms(product) == want
        # canonical too: structural equality compares `_den` and `_terms`
        assert product == Polynomial(want)


@given(polys, polys, polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(polys, polys)
def test_sub_zero_iff_equal(p, q):
    assert (not (p - q)) == (p == q)
    assert not (p - p)


@given(polys)
def test_evaluate_is_hom(p):
    sigma = {"a": Fraction(2), "b": Fraction(-1, 3), "c": Fraction(5, 7),
             "d": Fraction(-4), "k": Fraction(9, 2)}
    q = A * K - B
    assert (p + q).evaluate(sigma) == p.evaluate(sigma) + q.evaluate(sigma)
    assert (p * q).evaluate(sigma) == p.evaluate(sigma) * q.evaluate(sigma)
