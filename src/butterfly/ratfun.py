"""Rational functions num/den over Q[a, b, c, d, k].

Equality is decided by cross-multiplication (f.num * g.den == g.num * f.den),
which is exact over an integral domain and avoids multivariate gcd entirely.
A sum or difference of two functions whose denominators are structurally
equal adds or subtracts the numerators over that one denominator; any other
sum cross-multiplies.  Equality always cross-multiplies.  A product with,
or a quotient by, the int 1 is the function itself.
A cheap normal form keeps expression growth in check without full reduction:

  * a zero numerator forces den = 1,
  * the common monomial factor of num and den is cancelled,
  * the denominator is scaled to integer content 1 with a positive leading
    coefficient (the numerator is scaled by the same factor).

Instances are immutable and unhashable (equality is not structural).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .errors import DenominatorVanishes, ZeroDenominator
from .poly import Polynomial


def _pairwise_min(m1, m2):
    return (min(m1[0], m2[0]), min(m1[1], m2[1]), min(m1[2], m2[2]),
            min(m1[3], m2[3]), min(m1[4], m2[4]))


def _coerce_poly(value):
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, (int, Fraction)):
        return Polynomial.constant(value)
    return None


class RationalFunction:
    """Element of Q(a, b, c, d, k) in the cheap normal form described above."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=1):
        npoly = _coerce_poly(num)
        dpoly = _coerce_poly(den)
        if npoly is None or dpoly is None:
            raise TypeError("numerator and denominator must be polynomials or rationals")
        if dpoly.is_zero():
            raise ZeroDenominator("rational function with zero denominator")
        if npoly.is_zero():
            dpoly = Polynomial.one()
        else:
            common = _pairwise_min(npoly.min_exponents(), dpoly.min_exponents())
            if any(common):
                npoly = npoly.shift_down(common)
                dpoly = dpoly.shift_down(common)
        scale = dpoly.content()
        if dpoly.leading_coefficient() < 0:
            scale = -scale
        if scale != 1:
            npoly = npoly.scale(1 / scale)
            dpoly = dpoly.scale(1 / scale)
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
        from .poly import VARIABLES
        return tuple(cls.variable(name) for name in VARIABLES)

    # -- predicates ------------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- arithmetic ------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            return other
        poly = _coerce_poly(other)
        if poly is None:
            return NotImplemented
        return RationalFunction(poly)

    def __add__(self, other):
        other = self._coerce(other)
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
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den == other.den:
            return RationalFunction(self.num - other.num, self.den)
        return RationalFunction(self.num * other.den - other.num * self.den,
                                self.den * other.den)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if type(other) is int and other == 1:
            return self
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if type(other) is int and other == 1:
            return self
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.num.is_zero():
            raise ZeroDenominator("division of rational functions by zero")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            raise ValueError("rational function exponent must be an integer")
        if exponent < 0:
            if self.num.is_zero():
                raise ZeroDenominator("negative power of zero")
            return RationalFunction(self.den ** (-exponent), self.num ** (-exponent))
        return RationalFunction(self.num ** exponent, self.den ** exponent)

    # -- equality ---------------------------------------------------------------

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num * other.den == other.num * self.den

    __hash__ = None  # cross-multiplied equality has no cheap consistent hash

    # -- evaluation ---------------------------------------------------------------

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a point of Q^5; raises DenominatorVanishes off the domain."""
        den_val = self.den.evaluate(values)
        if not den_val:
            raise DenominatorVanishes(
                f"denominator {self.den.render()} vanishes at the given assignment")
        return self.num.evaluate(values) / den_val

    # -- rendering --------------------------------------------------------------

    def render(self) -> str:
        if self.den == Polynomial.one():
            return self.num.render()
        return f"({self.num.render()}) / ({self.den.render()})"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"RationalFunction({self.render()})"
