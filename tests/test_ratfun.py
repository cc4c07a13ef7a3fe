"""Rational function field: cross-multiplied equality, `products_equal` and
the cheap normal form."""

from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from butterfly import DenominatorVanishes, Polynomial, RationalFunction, ZeroDenominator
from butterfly.ratfun import products_equal
from tests.test_poly import (dict_content, dict_leading, dict_min_exponents,
                             dict_scale, dict_shift_down, read_terms)

a, b, c, d, k = RationalFunction.variables()

SIGMA = {"a": Fraction(2), "b": Fraction(1), "c": Fraction(-3),
         "d": Fraction(-2), "k": Fraction(1)}


def pvar(name):
    return Polynomial.variable(name)


def test_unknown_variable_names_the_variables():
    with pytest.raises(ValueError, match="a, b, c, d, k"):
        RationalFunction.variable("z")


def test_common_factor_equality():
    assert a / k == (a * b) / (k * b)


def test_commuted_forms_equal():
    assert (a + c) / 2 == (c + a) / 2


def test_equality_without_gcd():
    # (a^2 - c^2)/(a - c) and (a + c) differ structurally, agree as functions
    f = RationalFunction(pvar("a") ** 2 - pvar("c") ** 2, pvar("a") - pvar("c"))
    g = a + c
    assert f == g
    assert f.num != g.num  # the normal form did not fully reduce


def test_inequality():
    assert a / k != a / b
    assert a != a + 1


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RationalFunction(pvar("a"), Polynomial.zero())
    with pytest.raises(ZeroDenominator):
        a / (b - b)


def test_zero_numerator_collapses():
    f = RationalFunction(Polynomial.zero(), pvar("k") ** 3)
    assert f.den == Polynomial.one()
    assert not f


def test_common_monomial_cancelled():
    f = RationalFunction(pvar("a") ** 2 * pvar("b"), pvar("a") * pvar("k"))
    assert f.num == pvar("a") * pvar("b")
    assert f.den == pvar("k")


def test_denominator_normalization():
    f = RationalFunction(pvar("a"), Polynomial.constant(Fraction(-2, 3)) * pvar("k"))
    assert dict_leading(dict(f.den.terms)) > 0
    assert dict_content([dict(f.den.terms)]) == 1
    assert f.den == pvar("k")
    assert f == RationalFunction(Polynomial.constant(Fraction(-3, 2)) * pvar("a"), pvar("k"))


def test_immutable_and_unhashable():
    with pytest.raises(AttributeError):
        a.num = None
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(TypeError):
        {a}


def test_arithmetic():
    assert a + b - b == a
    assert (a / k) * (k / a) == 1
    assert 1 / (a / b) == b / a
    assert 2 * a == a + a
    assert a - 2 == -(2 - a)
    assert (a / b) ** 2 == (a * a) / (b * b)
    assert (a / b) ** -1 == b / a
    assert a ** 0 == 1


def test_division_by_zero_function():
    with pytest.raises(ZeroDenominator):
        a / RationalFunction.constant(0)
    with pytest.raises(ZeroDenominator):
        RationalFunction.constant(0) ** -1


def test_product_with_zero_is_zero_built_once(monkeypatch):
    f = (a + 1) / (b * k - 2)
    built = []
    construct = RationalFunction.__init__

    def counted(self, *args):
        built.append(args)
        construct(self, *args)

    monkeypatch.setattr(RationalFunction, "__init__", counted)
    for zero in (f * 0, 0 * f, f * Fraction(0), Fraction(0) * f):
        assert type(zero) is RationalFunction and not zero
        assert zero.num == Polynomial.zero() and zero.den == Polynomial.one()
    # one construction per product: the 0 is not lifted to a rational
    # function first
    assert len(built) == 4


def test_evaluate():
    ratio = (k * k + 1) * b * d / (a * c)
    assert ratio.evaluate(SIGMA) == Fraction(2, 3)
    assert ((a + c) / 2).evaluate(SIGMA) == Fraction(-1, 2)


def test_evaluate_rejects_inexact_values():
    for bad in (0.5, "1/3"):
        with pytest.raises(TypeError, match="must be an int or Fraction"):
            (a / k).evaluate({**SIGMA, "k": bad})


def test_evaluate_denominator_vanishes():
    f = a / (a - 2)
    with pytest.raises(DenominatorVanishes):
        f.evaluate(SIGMA)


def test_render():
    assert str(a + 1) == "a + 1"
    assert str(a / k) == "(a) / (k)"
    assert repr(RationalFunction.constant(Fraction(1, 2))) == "RationalFunction(1/2)"


small_ints = st.integers(min_value=-9, max_value=9)


def _numerator(draw):
    nc = [draw(small_ints) for _ in range(3)]
    return nc[0] * pvar("a") * pvar("k") + nc[1] * pvar("b") + Polynomial.constant(nc[2])


@st.composite
def ratfuns(draw):
    num = _numerator(draw)
    dc = [draw(small_ints) for _ in range(2)]
    den = dc[0] * pvar("c") + Polynomial.constant(dc[1])
    if not den:
        den = Polynomial.one()
    return RationalFunction(num, den)


@given(ratfuns(), ratfuns(), ratfuns())
def test_field_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f + g) - g == f


@given(ratfuns(), ratfuns())
def test_equivalence_against_padded_forms(f, g):
    pad = pvar("d") ** 2 + 1
    f_padded = RationalFunction(f.num * pad, f.den * pad)
    assert f == f_padded
    assert (f == g) == (f_padded == g)


@given(ratfuns(), ratfuns())
def test_evaluation_homomorphism(f, g):
    sigma = {"a": Fraction(3, 2), "b": Fraction(-5), "c": Fraction(7, 4),
             "d": Fraction(1, 9), "k": Fraction(-2, 3)}
    try:
        fv, gv = f.evaluate(sigma), g.evaluate(sigma)
    except DenominatorVanishes:
        return
    assert (f + g).evaluate(sigma) == fv + gv
    assert (f - g).evaluate(sigma) == fv - gv
    assert (f * g).evaluate(sigma) == fv * gv
    if gv != 0 and g:
        assert (f / g).evaluate(sigma) == fv / gv


# -- sums over a shared denominator ------------------------------------------------

nonzero_ints = small_ints.filter(bool)


@st.composite
def shared_denominator_pairs(draw):
    """Two functions whose normalized denominators are structurally equal:
    the denominator has a nonzero constant term, so no monomial cancels, and
    the second is given over a rational multiple of it."""
    dc = [draw(small_ints) for _ in range(2)]
    den = (dc[0] * pvar("c") * pvar("k") + dc[1] * pvar("a") ** 2
           + Polynomial.constant(draw(nonzero_ints)))
    scale = Polynomial.constant(Fraction(draw(nonzero_ints), draw(nonzero_ints)))
    # a zero numerator would put its function over 1
    nums = [_numerator(draw) for _ in range(2)]
    assume(all(nums))
    return (RationalFunction(nums[0], den),
            RationalFunction(nums[1] * scale, den * scale))


def ref_add(f, g):
    return RationalFunction(f.num * g.den + g.num * f.den, f.den * g.den)


def ref_sub(f, g):
    return RationalFunction(f.num * g.den - g.num * f.den, f.den * g.den)


@given(shared_denominator_pairs())
def test_shared_denominator_sums_match_cross_multiplication(pair):
    f, g = pair
    assert f.den == g.den  # the shared-denominator branch is the one taken
    sigma = {"a": Fraction(3, 2), "b": Fraction(-5), "c": Fraction(7, 4),
             "d": Fraction(1, 9), "k": Fraction(-2, 3)}
    for result, ref in ((f + g, ref_add(f, g)), (f - g, ref_sub(f, g))):
        assert result == ref
        assert result.den.degree() <= f.den.degree()
        try:
            expected = ref.evaluate(sigma)
        except DenominatorVanishes:
            continue
        assert result.evaluate(sigma) == expected


@given(shared_denominator_pairs())
def test_shared_denominator_difference_cancels_to_zero(pair):
    f, _ = pair
    for zero in (f - f, f + (-f)):
        assert not zero
        assert zero.num == Polynomial.zero() and zero.den == Polynomial.one()


def ref_rf_eq(f, g):
    return f.num * g.den == g.num * f.den


@st.composite
def equality_pairs(draw):
    """Pairs for `==`: unrelated functions, functions over one shared
    denominator (some with numerators that are multiples of each other),
    and one value written over a different denominator."""
    f = draw(ratfuns())
    kind = draw(st.sampled_from(["other", "shared", "multiple", "padded", "rebuilt"]))
    if kind == "other":
        return f, draw(ratfuns())
    if kind == "rebuilt":
        return f, RationalFunction(f.num, f.den)
    if kind == "shared":
        g = RationalFunction(_numerator(draw), f.den)
        assert not g or g.den == f.den  # the shared-denominator branch
        return f, g
    # a zero numerator puts any function over 1
    assume(f)
    if kind == "multiple":
        return f, RationalFunction(f.num * draw(st.sampled_from((-1, 2))), f.den)
    pad = pvar("d") ** 2 + draw(nonzero_ints)
    g = RationalFunction(f.num * pad, f.den * pad)
    assert g.den != f.den  # the cross-multiplying branch
    return f, g


def test_equality_over_a_shared_denominator():
    f = (a + 1) / (c + 2)
    g = RationalFunction(2 * pvar("a") + 2, 2 * pvar("c") + 4)
    assert f.den == g.den and f == g
    for other in (-f, 2 * f, (a + 2) / (c + 2)):
        assert other.den == f.den and other != f and f != other


@given(equality_pairs())
def test_equality_matches_cross_multiplication(pair):
    f, g = pair
    assert (f == g) is ref_rf_eq(f, g)
    assert (g == f) is ref_rf_eq(g, f)
    assert (f != g) is not ref_rf_eq(f, g)


@given(ratfuns(), st.fractions(min_value=-20, max_value=20, max_denominator=9)
       | small_ints)
def test_equality_with_rationals_in_both_orders(f, value):
    want = ref_rf_eq(f, RationalFunction.constant(value))
    assert (f == value) is want and (value == f) is want
    assert (f != value) is not want and (value != f) is not want
    assert RationalFunction.constant(value) == value


# -- quotients over a shared denominator ----------------------------------------


def ref_div(f, g):
    return RationalFunction(f.num * g.den, f.den * g.num)


def _no_product(self, other):
    raise AssertionError("a quotient over a shared denominator multiplied")


@given(shared_denominator_pairs())
def test_shared_denominator_quotient_multiplies_nothing(pair):
    f, g = pair
    assert f.den == g.den  # the shared-denominator branch is the one taken
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Polynomial, "__mul__", _no_product)
        patch.setattr(Polynomial, "__rmul__", _no_product)
        quotient = f / g
    assert ref_rf_eq(quotient, ref_div(f, g))


# -- products_equal ---------------------------------------------------------------


def ref_products_equal(w, x, y, z):
    return w * x == y * z


zeros = st.sampled_from([0, Fraction(0), RationalFunction(0)])
scalars = (small_ints | st.fractions(min_value=-20, max_value=20, max_denominator=9)
           | ratfuns())


@st.composite
def product_quadruples(draw):
    """(w, x, y, z) for w*x == y*z: ints, Fractions and rational functions,
    unrelated, sharing factors across the sides (equal products, or one
    factor in common), and with zero numerators on one side or on both."""
    w, x = draw(scalars), draw(scalars)
    kind = draw(st.sampled_from(["other", "swapped", "scaled", "one_shared",
                                 "zero_left", "zero_right", "zero_both"]))
    if kind == "other":
        y, z = draw(scalars), draw(scalars)
    elif kind == "swapped":
        y, z = x, w
    elif kind == "scaled":
        t = draw(ratfuns())
        assume(t)
        y, z = w * t, x / t
    elif kind == "one_shared":
        y, z = w, draw(scalars)
    elif kind == "zero_left":
        w, y, z = draw(zeros), draw(scalars), draw(scalars)
    elif kind == "zero_right":
        y, z = draw(scalars), draw(zeros)
    else:
        w, y, z = draw(zeros), draw(zeros), draw(scalars)
    if draw(st.booleans()):
        w, x = x, w
    return w, x, y, z


@given(product_quadruples())
@example((a / (c + 1), 0, Fraction(0), b / (c - 1)))
@example((a / (c + 1), b, (a + 1) / (c - 1), b))
def test_products_equal_matches_reference(quadruple):
    """The examples: a zero factor on each side (both products zero, so
    equal, though what is left after cancelling the zeros is not), and a
    common factor b whose cancellation leaves unequal sides."""
    w, x, y, z = quadruple
    want = ref_products_equal(w, x, y, z)
    assert products_equal(w, x, y, z) is want
    assert products_equal(y, z, w, x) is want


def test_products_equal_cancels_before_multiplying(monkeypatch):
    """Equal factors cancel across the sides: f*g == g*f multiplies
    nothing; with one factor changed, what is left is multiplied."""
    f, g = (a + 1) / (c - 2), (b * k - 3) / (d + 1)
    products = []
    multiply = Polynomial.__mul__

    def counted(self, other):
        products.append((self, other))
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    assert products_equal(f, g, g, f)
    assert products == []
    assert not products_equal(f, g, g, f + 1)
    assert products


def ref_normal_form(num, den):
    """The normal form on {monomial: Fraction} dicts, built from `terms`
    alone: the common monomial is the componentwise minimum of both sides'
    exponents, and both sides are divided by the denominator's content,
    signed as its graded-lex leading coefficient."""
    x, y = dict(num.terms), dict(den.terms)
    if not x:
        return {}, {(0,) * 5: Fraction(1)}
    common = dict_min_exponents([x, y])
    x, y = dict_shift_down(x, common), dict_shift_down(y, common)
    scale = dict_content([y])
    if dict_leading(y) < 0:
        scale = -scale
    return dict_scale(x, 1 / scale), dict_scale(y, 1 / scale)


exponents = st.tuples(*(st.integers(min_value=0, max_value=3) for _ in range(5)))
term_lists = st.lists(
    st.tuples(exponents, st.fractions(min_value=-20, max_value=20,
                                      max_denominator=9)), max_size=6)


# nonzero rational factors, negative ones and ones with numerator > 1 among them
factors = st.fractions(min_value=-12, max_value=12, max_denominator=9).filter(bool)


@st.composite
def normal_form_inputs(draw):
    """A numerator and a nonzero denominator, each with or without a monomial
    factor; some denominators are constants.  A denominator may be scaled
    by a rational factor, which can make its leading coefficient negative
    and its integer content other than 1."""
    num = Polynomial(draw(term_lists))
    if draw(st.booleans()):
        num = num * Polynomial({draw(exponents): 1})
    if draw(st.booleans()):
        den = Polynomial.constant(draw(st.fractions(max_denominator=9).filter(bool)))
    else:
        den = Polynomial(draw(term_lists))
        assume(den)
        if draw(st.booleans()):
            den = den * Polynomial({draw(exponents): 1})
    if draw(st.booleans()):
        den = den * Polynomial.constant(draw(factors))
    return num, den


A2, B, K = pvar("a") ** 2, pvar("b"), pvar("k")


@given(normal_form_inputs())
# a denominator with a negative lead, one with content 2/5, and one with
# both (lead -6*a^2*b, content 3)
@example((B + 1, -A2 + B))
@example((B * Polynomial.constant(Fraction(1, 2)),
          (6 * A2 * K + 4 * B) * Polynomial.constant(Fraction(1, 5))))
@example((A2 * K - B, (-6 * A2 + 9 * B * K) * B))
def test_normal_form_matches_reference(pair):
    num, den = pair
    f = RationalFunction(num, den)
    want_num, want_den = ref_normal_form(num, den)
    assert read_terms(f.num) == want_num and read_terms(f.den) == want_den
    # Polynomial equality is structural: the same `_den` and `_terms` as
    # the canonical form of the reference terms
    assert f.num == Polynomial(want_num) and f.den == Polynomial(want_den)
