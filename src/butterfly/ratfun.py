"""Rational functions num/den over Q[a, b, c, d, k].

Equality is decided by cross-multiplication (f.num * g.den == g.num * f.den),
which is exact over an integral domain and avoids multivariate gcd entirely.
When the two denominators are structurally equal, equality compares the
numerators: cross-multiplication with that common nonzero factor cancelled,
exact since canonical polynomials are equal exactly when they are
structurally equal.  A sum or difference of two such functions likewise
adds or subtracts the numerators over the one denominator, and their
quotient is the numerators' quotient; any other sum or quotient
cross-multiplies.  A product with, or a quotient by, the int 1 is the
function itself, and a product with an int or Fraction 0 is zero, built
without lifting the 0 to a rational function first.
`products_equal(a, b, c, d)` decides a*b == c*d for `geom`'s 2x2 minors
without forming either product as a rational function: equal nonzero
factors of the cross-multiplied sides cancel before anything is multiplied.
A cheap normal form keeps expression growth in check without full reduction:

  * a zero numerator forces den = 1,
  * the common monomial factor of num and den is cancelled: it is taken
    from the denominator first, starting at its lowest term, and the
    numerator is read only in the variables where that factor is still
    nonzero, each read stopping at exponent 0 (`poly.common_monomial`);
    both sides are divided by it without re-checking that it divides,
  * the denominator is scaled to integer content 1 with a positive leading
    coefficient, and the numerator by the same factor.  This is done on
    ints, with no Fraction: for g the gcd of the denominator's integer
    coefficients, signed as its leading one, the denominator becomes those
    coefficients divided by g over 1, and the numerator is multiplied by
    the denominator's integer denominator and put over g, in one reduction.

Instances are immutable, unhashable (equality is not structural) and falsy
exactly when zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd
from operator import mul
from typing import Callable, Mapping

from .errors import DenominatorVanishes, ZeroDenominator
from .poly import (VARIABLES, Polynomial, _as_polynomial, _make, _reduced,
                   _shift_down, common_monomial)
from .scalar import _RATIONAL


def _as_rational_function(value):
    """`value` as a RationalFunction: a RationalFunction as given, what
    `_as_polynomial` takes over 1, and NotImplemented for anything else."""
    if isinstance(value, RationalFunction):
        return value
    poly = _as_polynomial(value)
    return NotImplemented if poly is NotImplemented else RationalFunction(poly)


class RationalFunction:
    """Element of Q(a, b, c, d, k) in the cheap normal form described above."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        npoly = _as_polynomial(num)
        dpoly = _as_polynomial(den)
        if npoly is NotImplemented or dpoly is NotImplemented:
            raise TypeError("numerator and denominator must be polynomials or rationals")
        if not dpoly:
            raise ZeroDenominator("rational function with zero denominator")
        if not npoly:
            dpoly = Polynomial.one()
        else:
            common = common_monomial(dpoly, npoly)
            if any(common):
                npoly = _shift_down(npoly, common)
                dpoly = _shift_down(dpoly, common)
            # divide both by content(den) = g / den._den, signed as den's
            # leading coefficient (see the module docstring)
            den_terms, den_den = dpoly._terms, dpoly._den
            g = gcd(*[c for _, c in den_terms])
            if den_terms[0][1] < 0:
                g, den_den = -g, -den_den
            if g != 1 or den_den != 1:
                npoly = _reduced([(m, c * den_den) for m, c in npoly._terms],
                                 npoly._den * abs(g))
                dpoly = _make(tuple([(m, c // g) for m, c in den_terms]), 1)
        object.__setattr__(self, "num", npoly)
        object.__setattr__(self, "den", dpoly)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, value) -> RationalFunction:
        return cls(Polynomial.constant(value))

    @classmethod
    def variable(cls, name: str) -> RationalFunction:
        return cls(Polynomial.variable(name))

    @classmethod
    def variables(cls) -> tuple[RationalFunction, ...]:
        """The five generators (a, b, c, d, k) as rational functions."""
        return tuple(cls.variable(name) for name in VARIABLES)

    # -- predicates ------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = _as_rational_function(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __sub__(self, other):
        other = _as_rational_function(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num - other.num, self.den)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __rsub__(self, other):
        other = _as_rational_function(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is int and other == 1:
            return self
        if type(other) in _RATIONAL and not other:
            return RationalFunction(0)
        other = _as_rational_function(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int and other == 1:
            return self
        other = _as_rational_function(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDenominator("division of rational functions by zero")
        if self.den == other.den:
            return RationalFunction(self.num, other.num)
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_rational_function(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("rational function exponent must be an integer")
        if exponent < 0:
            if not self.num:
                raise ZeroDenominator("negative power of zero")
            return RationalFunction(self.den ** (-exponent), self.num ** (-exponent))
        return RationalFunction(self.num ** exponent, self.den ** exponent)

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other):
        other = _as_rational_function(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    # equal functions may have different denominators, so a consistent hash
    # would need the reduced form, which the cheap normal form does not give
    __hash__ = None

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a full assignment of the five variables to ints or
        Fractions, checked as `Polynomial.evaluate` checks it; raises
        DenominatorVanishes where the denominator vanishes."""
        return self._value(lambda poly: poly.evaluate(values))

    def _value(self, read: Callable[[Polynomial], Fraction]) -> Fraction:
        """num/den, where `read` gives each polynomial's value: the
        denominator is read and tested for zero first (DenominatorVanishes),
        then the numerator.  `evaluate` reads each polynomial afresh;
        `geom.evaluate_object` reads each distinct polynomial of a
        figure once and hands the same value to every field that has it."""
        den_val = read(self.den)
        if not den_val:
            raise DenominatorVanishes(
                f"denominator {self.den.render()} vanishes at the given assignment")
        return read(self.num) / den_val

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        if self.den == Polynomial.one():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RationalFunction({self.render()})"


_ONE = Polynomial.one()


def _parts(value) -> tuple[Polynomial, Polynomial]:
    """The numerator and denominator of a RationalFunction, int or Fraction."""
    if type(value) is RationalFunction:
        return value.num, value.den
    return Polynomial.constant(value), _ONE


def _product(factors: list[Polynomial]) -> Polynomial:
    """The product of nonzero polynomials, smallest first, with no factor 1
    multiplied in."""
    factors = sorted([p for p in factors if p != _ONE], key=lambda p: len(p._terms))
    return reduce(mul, factors) if factors else _ONE


def products_equal(a, b, c, d) -> bool:
    """Whether a*b == c*d, for ints, Fractions and RationalFunctions.

    With no RationalFunction among them this is `a * b == c * d`.  Otherwise
    it is the cross-multiplied equality num(a)·num(b)·den(c)·den(d) ==
    num(c)·num(d)·den(a)·den(b), decided without a normal form: a side with
    a zero numerator is zero, so that case is decided first; the other
    factors are nonzero, so one structurally equal to a factor of the other
    side cancels with it; what is left of each side is multiplied smallest
    first and the two products are compared structurally.
    """
    rf = RationalFunction
    if type(a) is not rf and type(b) is not rf and type(c) is not rf and type(d) is not rf:
        # ints and Fractions: every minor of a rational figure comes here
        return a * b == c * d
    (na, da), (nb, db), (nc, dc), (nd, dd) = _parts(a), _parts(b), _parts(c), _parts(d)
    left_zero, right_zero = not (na and nb), not (nc and nd)
    if left_zero or right_zero:
        return left_zero and right_zero
    left, right = [na, nb, dc, dd], []
    for factor in (nc, nd, da, db):
        if factor in left:
            left.remove(factor)
        else:
            right.append(factor)
    return _product(left) == _product(right)
