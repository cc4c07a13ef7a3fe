"""Sparse multivariate polynomials over Q in the five indeterminates a, b, c, d, k.

Representation: a polynomial is one positive integer denominator and a tuple
of (packed monomial, integer coefficient) pairs; it stands for the sum of
coefficient * monomial, divided by the denominator.  A monomial
a^i b^j c^l d^m k^n is packed into one int (Monagan and Pearce, CASC 2007):
each exponent gets a 16-bit field, a highest and k lowest, below a top field
that holds the total degree.  Integer order on packed monomials is therefore
graded-lexicographic order (higher total degree first, ties broken by
comparing exponents left to right, i.e. in the variable order a, b, c, d, k),
and multiplying two monomials is one integer addition.  No field may carry
into its neighbour, so every total degree stays below 2^16: the constructor
rejects larger monomials and multiplication raises before it would form one.

The pairs are kept in *canonical form*: no zero coefficients, terms in
descending graded-lex order, and gcd(coefficients, denominator) = 1.
Canonical form makes structural equality coincide with mathematical equality
and gives every polynomial one stable debug rendering.  `terms` presents the
same polynomial as (exponent 5-tuple, Fraction) pairs in the same order,
built on each access.

Arithmetic skips work whose result is known: a product with a factor equal
to the constant 1 is the other factor itself, a difference is formed in one
pass (no negated copy), and an int operand becomes a constant polynomial
without a Fraction.

A polynomial is falsy exactly when it is zero.  A monomial factor is divided
out only by `common_monomial`, which finds the largest one, and then
`_shift_down`, which divides by it unchecked.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from .scalar import _RATIONAL, format_rational

VARIABLES = ("a", "b", "c", "d", "k")
NVARS = len(VARIABLES)

Monomial = tuple[int, int, int, int, int]

_BITS = 16
_MASK = (1 << _BITS) - 1
_DEGREE_LIMIT = 1 << _BITS  # exclusive bound on every total degree
_DEGREE_SHIFT = _BITS * NVARS
# bit offset of each variable's field, in VARIABLES order
_SHIFTS = tuple(_BITS * (NVARS - 1 - i) for i in range(NVARS))


def _pack(mono: Monomial) -> int:
    if len(mono) != NVARS or any(e < 0 for e in mono):
        raise ValueError(f"bad monomial {mono!r}")
    packed = sum(mono)
    if packed >= _DEGREE_LIMIT:
        raise ValueError(f"monomial {mono!r} has total degree {packed}; "
                         f"the limit is {_DEGREE_LIMIT - 1}")
    for e in mono:
        packed = (packed << _BITS) | e
    return packed


def _unpack(packed: int) -> Monomial:
    return tuple(packed >> shift & _MASK for shift in _SHIFTS)


def _coerce_coeff(value) -> int | Fraction:
    """An exact rational as given: ints need no Fraction, since both types
    have `numerator` and `denominator`."""
    if isinstance(value, _RATIONAL):
        return value
    raise TypeError(f"polynomial coefficients must be rational, got {type(value).__name__}")


def _as_polynomial(value):
    """`value` as a Polynomial: a Polynomial as given, an int or Fraction as
    a constant, and NotImplemented for anything else."""
    if isinstance(value, Polynomial):
        return value
    if isinstance(value, _RATIONAL):
        return Polynomial.constant(value)
    return NotImplemented


def _exact_point(values: Mapping[str, Fraction]) -> tuple[Fraction, ...]:
    """The values of a full assignment of VARIABLES, in that order, as
    Fractions (ints converted, Fractions as given); the checks
    `Polynomial.evaluate` documents."""
    try:
        point = tuple(values[name] for name in VARIABLES)
    except KeyError as missing:
        raise ValueError(f"assignment must bind all of {', '.join(VARIABLES)}; "
                         f"missing {missing.args[0]!r}") from None
    for name, value in zip(VARIABLES, point):
        if not isinstance(value, _RATIONAL):
            raise TypeError(f"the value of {name} must be an int or Fraction, "
                            f"not {type(value).__name__}")
    return tuple(value if isinstance(value, Fraction) else Fraction(value)
                 for value in point)


def common_monomial(first: Polynomial, *rest: Polynomial) -> Monomial:
    """The largest monomial dividing every one of the polynomials.

    `first` must be nonzero; a zero polynomial in `rest` bounds nothing.
    The exponents start at those of `first`'s last term, the lowest in
    graded-lex order, which bound the minimum from above, and a constant
    last term ends the search at once.  `first` and each further polynomial
    are then scanned only in the variables whose exponent is still
    positive, and each such scan stops as soon as it reaches 0.
    """
    if not first._terms:
        raise ValueError("common_monomial needs a nonzero first polynomial")
    last = first._terms[-1][0]
    if not last:
        return (0,) * NVARS
    bounds = [last >> shift & _MASK for shift in _SHIFTS]
    for poly in (first, *rest):
        for index, shift in enumerate(_SHIFTS):
            low = bounds[index]
            if not low:
                continue
            for mono, _ in poly._terms:
                exp = mono >> shift & _MASK
                if exp < low:
                    low = exp
                    if not low:
                        break
            bounds[index] = low
    return tuple(bounds)


def _make(terms: tuple[tuple[int, int], ...], den: int) -> Polynomial:
    """Wrap pairs that are already canonical together with `den`."""
    poly = object.__new__(Polynomial)
    poly._terms = terms
    poly._den = den
    return poly


def _reduced(terms: list[tuple[int, int]], den: int) -> Polynomial:
    """Canonical polynomial from sorted nonzero pairs over a positive `den`."""
    if den != 1:
        g = gcd(den, *[c for _, c in terms])
        if g != 1:
            den //= g
            terms = [(m, c // g) for m, c in terms]
    return _make(tuple(terms), den)


def _shift_down(poly: Polynomial, mono: Monomial) -> Polynomial:
    """Exact division of `poly` by the monomial `mono`, unchecked: `mono`
    must divide every term (`common_monomial` returns one that does)."""
    shift = _pack(mono)
    return _make(tuple([(m - shift, c) for m, c in poly._terms]), poly._den)


def _collect(acc: dict[int, int], den: int) -> Polynomial:
    """Canonical polynomial from an unordered accumulator that may hold zeros.
    The keys are distinct, so sorting the keys alone gives the order of the
    terms, with no pair compared."""
    return _reduced([(m, c) for m in sorted(acc, reverse=True) if (c := acc[m])], den)


def _combine(p: Polynomial, q: Polynomial, sign: int) -> Polynomial:
    """p + sign * q for sign 1 or -1, in one pass over both."""
    if not q._terms:
        return p
    if not p._terms:
        return q if sign > 0 else -q
    # bring both onto the denominator lcm(d1, d2) = d1 * (d2 // g)
    g = gcd(p._den, q._den)
    mine, theirs = q._den // g, sign * (p._den // g)
    acc = {m: c * mine for m, c in p._terms}
    get = acc.get
    for m, c in q._terms:
        acc[m] = get(m, 0) + c * theirs
    return _collect(acc, p._den * mine)


class Polynomial:
    """Immutable sparse polynomial in Q[a, b, c, d, k], always canonical."""

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: Mapping[Monomial, Fraction] | Iterable[tuple[Monomial, Fraction]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[int, int | Fraction] = {}
        for mono, coeff in items:
            key = _pack(mono)
            acc[key] = acc.get(key, 0) + _coerce_coeff(coeff)
        den = lcm(*[c.denominator for c in acc.values()])
        canonical = _collect({m: c.numerator * (den // c.denominator)
                              for m, c in acc.items()}, den)
        self._terms = canonical._terms
        self._den = canonical._den

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> Polynomial:
        return _ZERO

    @classmethod
    def one(cls) -> Polynomial:
        return _ONE

    @classmethod
    def constant(cls, value) -> Polynomial:
        value = _coerce_coeff(value)
        return _make(((0, value.numerator),), value.denominator) if value else _ZERO

    @classmethod
    def variable(cls, name: str) -> Polynomial:
        if name not in VARIABLES:
            raise ValueError(f"unknown variable {name!r}; the variables are "
                             f"{', '.join(VARIABLES)}")
        shift = _SHIFTS[VARIABLES.index(name)]
        return _make((((1 << _DEGREE_SHIFT) | (1 << shift), 1),), 1)

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        den = self._den
        return tuple((_unpack(m), Fraction(c, den)) for m, c in self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return self._terms[0][0] >> _DEGREE_SHIFT

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, 1)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _make(tuple([(m, -c) for m, c in self._terms]), self._den)

    def __sub__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(self, other, -1)

    def __rsub__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return _combine(other, self, -1)

    def __mul__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        if other._terms == _ONE_TERMS and other._den == 1:
            return self
        if self._terms == _ONE_TERMS and self._den == 1:
            return other
        if not self._terms or not other._terms:
            return _ZERO
        degree = (self._terms[0][0] >> _DEGREE_SHIFT) + (other._terms[0][0] >> _DEGREE_SHIFT)
        if degree >= _DEGREE_LIMIT:
            raise OverflowError(f"product of total degree {degree} exceeds the limit "
                                f"{_DEGREE_LIMIT - 1} of the packed monomial")
        # the longer operand in the inner loop, for fewer loop set-ups;
        # `_collect` sorts, so the result does not depend on the order
        outer, inner = self._terms, other._terms
        if len(outer) > len(inner):
            outer, inner = inner, outer
        if len(outer) == 1:
            # adding one packed monomial keeps the graded-lex order (no
            # field carries, by the degree check above) and is injective, so
            # the products are already sorted and distinct
            ((m1, c1),) = outer
            return _reduced([(m1 + m2, c1 * c2) for m2, c2 in inner],
                            self._den * other._den)
        acc: dict[int, int] = {}
        get = acc.get
        for m1, c1 in outer:
            for m2, c2 in inner:
                mono = m1 + m2
                acc[mono] = get(mono, 0) + c1 * c2
        return _collect(acc, self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> Polynomial:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a non-negative integer")
        result = _ONE
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- evaluation and equality -------------------------------------------

    def evaluate(self, values: Mapping[str, Fraction]) -> Fraction:
        """Exact value at a full assignment of the five variables to ints or
        Fractions.  A missing variable raises ValueError; any other value
        type (a float or a string, say) raises TypeError.  This is the one
        read of a polynomial's value: `RationalFunction.evaluate` reads its
        denominator and numerator here, and `geom.evaluate_object` reads
        each distinct polynomial of a figure here once."""
        point = _exact_point(values)
        # val ** e for each (variable, exponent) met, kept for this call only
        powers = tuple(({}, val, shift) for val, shift in zip(point, _SHIFTS))
        total = Fraction(0)
        for mono, coeff in self._terms:
            term = coeff
            for cache, val, shift in powers:
                exp = mono >> shift & _MASK
                if exp:
                    power = cache.get(exp)
                    if power is None:
                        power = cache[exp] = val ** exp
                    term *= power
            total += term
        return total / self._den

    def __eq__(self, other):
        other = _as_polynomial(other)
        if other is NotImplemented:
            return NotImplemented
        return self._den == other._den and self._terms == other._terms

    def __hash__(self):
        return hash((self._den, self._terms))

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        """Stable debug form, e.g. ``2*a*b*k^2 - c^2`` (terms in descending
        graded-lex order, ``^`` for powers, coefficient 1 omitted)."""
        if not self._terms:
            return "0"
        pieces = []
        for index, (mono, coeff) in enumerate(self.terms):
            names = "*".join(name if e == 1 else f"{name}^{e}"
                             for name, e in zip(VARIABLES, mono) if e)
            mag = abs(coeff)
            if names:
                body = names if mag == 1 else f"{format_rational(mag)}*{names}"
            else:
                body = format_rational(mag)
            if index == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(pieces)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Polynomial({self.render()})"


_ZERO = _make((), 1)
_ONE_TERMS = ((0, 1),)
_ONE = _make(_ONE_TERMS, 1)
