"""Exact plane geometry over any field with Python arithmetic operators.

Coordinates are `fractions.Fraction`s (numeric work) or `RationalFunction`s
over Q(a, b, c, d, k) (symbolic work); nothing here ever calls float math.
One-sided zero tests are `not x`, which both scalar types support through
`__bool__`; two-sided tests compare, `x == y` rather than `not (x - y)`, so
a symbolic verdict builds no difference (`RationalFunction.__eq__`
cross-multiplies and stops, or compares numerators over one denominator).
A field of a `Point`, `Line` or `Circle` must be an int, a `Fraction` or a
`RationalFunction`; any other type (a float, say) raises `TypeError`.

Every `Point`, `Line` and `Circle` is stored as one homogeneous tuple `_h`:

- A point (X, Y, Z) is the projective point: x = X/Z and y = Y/Z.
- A circle (D, E, F, S) is the equation S(x^2 + y^2) + Dx + Ey + F = 0.
- A line (U, V, W, S) has (u, v, w) = (U, V, W)/S.  It keeps S because a
  line's coefficients are not canonical (`render` prints the triple as it
  was built); incidence, meets and perpendicularity do not depend on S.

A figure whose fields are all int or `Fraction` is rational: its tuple is
canonical, Python ints with gcd 1 and a positive last entry, so two
rational points, or two rational circles, are equal exactly when their
tuples are, and reading a public field (`x`, `y`, `u`, `v`, `w`, `d`, `e`,
`f`) builds the `Fraction` it stands for.  Any other figure is symbolic:
its tuple is its fields as given (ints become `Fraction`s) and the int 1.
A figure is rational exactly when `type(h[0]) is int`, since a rational
tuple is all ints and a symbolic field never is one.
`evaluate_object` decodes a symbolic tuple to the rational figure of its
value at an exact assignment; only this module and `render` read `_h`.

Every function has one body, and one formula, for both backends.  A
construction or a predicate reads each input's `_h` (the scalar functions
`power_of_point`, `cross_ratio` and `pencil_cross_ratio` read public
fields) and builds its output with a trusted constructor, `_point`,
`_line` or `_circle`.
All-int entries are reduced with one gcd; any other entries are divided
through by the last one and passed to the public constructor.  With every
last entry 1 a body performs exactly the field operations of the affine
formula (`RationalFunction` returns itself for a factor or divisor of 1),
so a symbolic object is built term for term as the affine formula builds
it, and a rational one stores that formula's exact values.  Each body
raises its own degeneracies.

Two functions are int-only: `projective_point` (a point from int
projective coordinates) and `line_side` (the sign of a point against a
line, which Q(a, b, c, d, k) cannot give, having no order).

Degenerate inputs raise subclasses of `DegenerateConfig` carrying enough
context to report *which* construction failed; callers running randomized
trials catch that family and count a skip.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

from .errors import (
    CoincidentCircles,
    CoincidentLines,
    CoincidentPoints,
    CollinearPoints,
    DegenerateNewtonLine,
    DenominatorVanishes,
    NotCollinear,
    ParallelLines,
    PointNotOnCircle,
    PointNotOnLine,
)
from .poly import _exact_point
from .ratfun import RationalFunction, products_equal
from .scalar import _RATIONAL, field_div


class _Figure:
    """The storage `Point`, `Line` and `Circle` share: one homogeneous
    tuple, `_h` (see the module docstring).  Instances are immutable and,
    comparing by value across representations, unhashable."""

    __slots__ = ("_h",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __hash__ = None


_set = _Figure._h.__set__
_new = object.__new__


def _exact(value):
    """A field of a symbolic object: an int as a Fraction, so
    that `/` never yields a float; a Fraction or RationalFunction as it is.
    Any other type raises TypeError."""
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, RationalFunction)):
        return value
    raise TypeError("a geometry field must be an int, Fraction or "
                    f"RationalFunction, not {type(value).__name__}")


def _field(index: int, scale: int) -> property:
    """A public field: the Fraction entry `index` / entry `scale` of a
    rational object's tuple, built on each read, or a symbolic object's
    entry `index` as given."""

    def read(self):
        h = self._h
        if type(h[0]) is int:
            return Fraction(h[index], h[scale])
        return h[index]

    return property(read)


class Point(_Figure):
    """A point of the affine plane with exact coordinates.

    A rational point is stored as its projective coordinates (X, Y, Z),
    reduced, with Z > 0.
    """

    __slots__ = ()

    def __init__(self, x, y):
        if isinstance(x, _RATIONAL) and isinstance(y, _RATIONAL):
            _set(self, _scaled(x, y))
        else:
            _set(self, (_exact(x), _exact(y), 1))

    x = _field(0, 2)
    y = _field(1, 2)

    def __iter__(self):
        yield self.x
        yield self.y

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        x1, y1, z1 = self._h
        x2, y2, z2 = other._h
        return x1 * z2 == x2 * z1 and y1 * z2 == y2 * z1

    def __repr__(self):
        return f"Point({self.x!r}, {self.y!r})"


class Line(_Figure):
    """The line u*x + v*y + w = 0; (u, v) must not both vanish.

    Coefficients are only meaningful up to a common nonzero factor, and
    equality compares projectively.  A rational line is stored as (U, V,
    W, S), reduced, with S > 0 and (u, v, w) = (U, V, W)/S, so `u`, `v`
    and `w` read back exactly the values it was built with; the
    constructions build each coefficient as the affine formula's exact
    value, and `render` prints the triple as it is.  A symbolic line
    is stored as its fields, as a symbolic point or circle is.
    """

    __slots__ = ()

    def __init__(self, u, v, w):
        if (isinstance(u, _RATIONAL) and isinstance(v, _RATIONAL)
                and isinstance(w, _RATIONAL)):
            h = _scaled(u, v, w)
        else:
            h = (_exact(u), _exact(v), _exact(w), 1)
        if not (h[0] or h[1]):
            raise ValueError("line needs u or v nonzero")
        _set(self, h)

    u = _field(0, 3)
    v = _field(1, 3)
    w = _field(2, 3)

    def __eq__(self, other):
        """Projective equality: the triples (u, v, w) are proportional.
        `_rank_one` decides it from two minors, the first triple's (u, v)
        being nonzero."""
        if not isinstance(other, Line):
            return NotImplemented
        u1, v1, w1, _ = self._h
        u2, v2, w2, _ = other._h
        return _rank_one(u1, v1, w1, u2, v2, w2)

    def __repr__(self):
        return f"Line({self.u!r}, {self.v!r}, {self.w!r})"


class Circle(_Figure):
    """The circle x^2 + y^2 + d*x + e*y + f = 0 (monic, so coefficients are unique).

    A rational circle is stored as (D, E, F, S), reduced, with S > 0: the
    equation S(x^2 + y^2) + Dx + Ey + F = 0.
    """

    __slots__ = ()

    def __init__(self, d, e, f):
        if (isinstance(d, _RATIONAL) and isinstance(e, _RATIONAL)
                and isinstance(f, _RATIONAL)):
            _set(self, _scaled(d, e, f))
        else:
            _set(self, (_exact(d), _exact(e), _exact(f), 1))

    d = _field(0, 3)
    e = _field(1, 3)
    f = _field(2, 3)

    def center(self) -> Point:
        return Point(-self.d / 2, -self.e / 2)

    def radius_squared(self):
        return (self.d * self.d + self.e * self.e) / 4 - self.f

    def __eq__(self, other):
        if not isinstance(other, Circle):
            return NotImplemented
        d1, e1, f1, s1 = self._h
        d2, e2, f2, s2 = other._h
        return d1 * s2 == d2 * s1 and e1 * s2 == e2 * s1 and f1 * s2 == f2 * s1

    def __repr__(self):
        return f"Circle({self.d!r}, {self.e!r}, {self.f!r})"


def _rank_one(p0, p1, p2, q0, q1, q2) -> bool:
    """Whether the rows (p0, p1, p2) and (q0, q1, q2) have rank <= 1, for a
    first row that is not zero.

    Two of the three 2x2 minors decide it, the two through a nonzero entry
    of the first row: both vanish exactly when the second row is a
    multiple of the first, and then the third vanishes too.  For p0 != 0
    these are the minors of columns (0, 1) and (0, 2).  For p0 = 0 those
    minors are -p1*q0 and -p2*q0, which vanish exactly when q0 does (p1
    or p2 is nonzero), and the minor of columns (1, 2) is tested as well.
    Each minor is decided by `products_equal`, which on symbolic entries
    cancels equal factors before it multiplies.
    """
    if p0:
        return products_equal(p0, q1, p1, q0) and products_equal(p0, q2, p2, q0)
    return not q0 and products_equal(p1, q2, p2, q1)


def _scaled(*values) -> tuple:
    """The int or Fraction `values` times the lcm s of their denominators,
    followed by s: reduced already, since s is the least such scale.

    Plain loops, not comprehensions: every rational `Point(x, y)` comes
    through here, and a comprehension costs a frame of its own.
    """
    ratios = []
    s = 1
    for value in values:
        ratio = value.as_integer_ratio()
        ratios.append(ratio)
        s = lcm(s, ratio[1])
    scaled = []
    for num, den in ratios:
        scaled.append(num * (s // den))
    scaled.append(s)
    return tuple(scaled)


# Trusted constructors: every body builds its output with one of these.  The
# last entry is nonzero (positive for a line) and a line's (U, V) is nonzero,
# so of __init__'s checks and conversions only the reduction remains for int
# entries: one gcd and, for a point or a circle, the sign that makes the last
# entry positive.  `gcd` raises TypeError on any other entries, which are
# divided through by the last one and go to the public constructor; `_exact`
# keeps an int entry over an int last entry from becoming a float.


def _point(x, y, z) -> Point:
    try:
        g = gcd(x, y, z)
    except TypeError:
        return Point(_exact(x) / z, _exact(y) / z)
    if z < 0:
        g = -g
    if g != 1:
        x, y, z = x // g, y // g, z // g
    p = _new(Point)
    _set(p, (x, y, z))
    return p


def projective_point(x: int, y: int, z: int) -> Point:
    """The rational point (x/z, y/z) from int projective coordinates.

    The entry for callers that hold a point as ints already (the point
    literals of `dsl`'s int-pair programs): the triple is reduced as a
    construction's output is, and no Fraction is built.  z = 0 (a point at
    infinity) raises ValueError; a non-int entry raises TypeError.
    """
    if not (isinstance(x, int) and isinstance(y, int) and isinstance(z, int)):
        raise TypeError("projective_point needs int coordinates")
    if not z:
        raise ValueError("a projective point needs z nonzero")
    return _point(x, y, z)


def _line(u, v, w, s) -> Line:
    try:
        g = gcd(u, v, w, s)
    except TypeError:
        return Line(_exact(u) / s, _exact(v) / s, _exact(w) / s)
    if g != 1:
        u, v, w, s = u // g, v // g, w // g, s // g
    line = _new(Line)
    _set(line, (u, v, w, s))
    return line


def _circle(d, e, f, s) -> Circle:
    try:
        g = gcd(d, e, f, s)
    except TypeError:
        return Circle(_exact(d) / s, _exact(e) / s, _exact(f) / s)
    if s < 0:
        g = -g
    if g != 1:
        d, e, f, s = d // g, e // g, f // g, s // g
    circle = _new(Circle)
    _set(circle, (d, e, f, s))
    return circle


# -- evaluating a symbolic figure ----------------------------------------------


def evaluate_object(obj, assignment: Mapping[str, Fraction]):
    """Exact evaluation of a symbolic Point/Line/Circle at an assignment of
    the five variables to ints or Fractions; a rational figure is its own
    value.  The assignment is checked as `Polynomial.evaluate` checks it,
    even where every field is a constant.

    Each structurally distinct polynomial among the fields' numerators and
    denominators is read once, through `Polynomial.evaluate`: canonical
    polynomials are equal exactly when their `(_den, _terms)` are, so the
    fields of a point over one denominator share that denominator's value.
    Field by field, as `RationalFunction.evaluate` does, a denominator is
    tested for zero (DenominatorVanishes) before the numerator is read."""
    if not isinstance(obj, (Point, Line, Circle)):
        raise TypeError(f"cannot evaluate {type(obj).__name__}")
    _exact_point(assignment)
    h = obj._h
    if type(h[0]) is int:
        return obj
    values = {}

    def read(poly):
        key = (poly._den, poly._terms)
        value = values.get(key)
        if value is None:
            value = values[key] = poly.evaluate(assignment)
        return value

    # a symbolic figure's tuple is its fields (x, y; u, v, w; d, e, f), then 1
    fields = [value._value(read) if isinstance(value, RationalFunction)
              else value for value in h[:-1]]
    if isinstance(obj, Line) and not (fields[0] or fields[1]):
        # a common root of a symbolic line's u and v, where it is undefined
        raise DenominatorVanishes("the line's u and v both vanish at the "
                                  "given assignment")
    return type(obj)(*fields)


# -- point and line constructions ------------------------------------------
#
# (x_i, y_i, z_i) are the tuples of the input points, (u_i, v_i, w_i, s_i)
# those of the input lines and (d_i, e_i, f_i, s_i) those of the input
# circles.


def midpoint(p: Point, q: Point) -> Point:
    x1, y1, z1 = p._h
    x2, y2, z2 = q._h
    return _point(x1 * z2 + x2 * z1, y1 * z2 + y2 * z1, 2 * z1 * z2)


def line_through(p: Point, q: Point) -> Line:
    """The unique line through two distinct points."""
    x1, y1, z1 = p._h
    x2, y2, z2 = q._h
    dx, dy = x2 * z1 - x1 * z2, y2 * z1 - y1 * z2
    if not (dx or dy):
        raise CoincidentPoints("no unique line through coincident points")
    # W = x2*y1 - x1*y2 over S = z1*z2: the affine w = dx*y1 - dy*x1 over
    # z1*z1*z2 with the common factor z1 cancelled
    return _line(dy, -dx, x2 * y1 - x1 * y2, z1 * z2)


def intersect_lines(l1: Line, l2: Line) -> Point:
    """Intersection point of two lines by Cramer's rule.

    Raises ParallelLines for distinct parallel lines and CoincidentLines
    when the two triples describe the same line.
    """
    u1, v1, w1, _ = l1._h
    u2, v2, w2, _ = l2._h
    det = u1 * v2 - u2 * v1
    if not det:
        if l1 == l2:
            raise CoincidentLines("cannot intersect a line with itself")
        raise ParallelLines(l1=l1, l2=l2)
    return _point(v1 * w2 - v2 * w1, u2 * w1 - u1 * w2, det)


def perp_bisector(p: Point, q: Point) -> Line:
    """Locus of points equidistant from two distinct points."""
    x1, y1, z1 = p._h
    x2, y2, z2 = q._h
    dx, dy = x2 * z1 - x1 * z2, y2 * z1 - y1 * z2
    if not (dx or dy):
        raise CoincidentPoints("perpendicular bisector needs distinct points")
    z, zz1 = z1 * z2, z1 * z1
    return _line(2 * dx * z, 2 * dy * z,
                 (x1 * x1 + y1 * y1) * (z2 * z2) - x2 * x2 * zz1 - y2 * y2 * zz1,
                 z * z)


def perp_through(p: Point, line: Line) -> Line:
    """The perpendicular to `line` passing through `p` (p need not lie on it)."""
    x, y, z = p._h
    u, v, _, s = line._h
    return _line(-v * z, u * z, v * x - u * y, s * z)


def parallelogram_fourth(x: Point, y: Point, z: Point) -> Point:
    """Fourth vertex completing x, y, z to the parallelogram x-y-?-z.

    Pure coordinate arithmetic y + z - x; degenerate (collinear) inputs
    are deliberately allowed and simply give a flat parallelogram.
    """
    x1, y1, z1 = x._h
    x2, y2, z2 = y._h
    x3, y3, z3 = z._h
    z23 = z2 * z3
    return _point((x2 * z3 + x3 * z2) * z1 - x1 * z23,
                  (y2 * z3 + y3 * z2) * z1 - y1 * z23, z1 * z23)


def newton_line(a: Point, b: Point, c: Point, d: Point) -> Line:
    """Line joining the midpoints of the diagonals AC and BD of quadrilateral ABCD."""
    m1 = midpoint(a, c)
    m2 = midpoint(b, d)
    if m1 == m2:
        raise DegenerateNewtonLine("diagonal midpoints coincide")
    return line_through(m1, m2)


def is_collinear(p: Point, q: Point, r: Point) -> bool:
    x1, y1, z1 = p._h
    x2, y2, z2 = q._h
    x3, y3, z3 = r._h
    return ((x2 * z1 - x1 * z2) * (y3 * z1 - y1 * z3)
            == (y2 * z1 - y1 * z2) * (x3 * z1 - x1 * z3))


def is_midpoint(m: Point, p: Point, q: Point) -> bool:
    """Exact componentwise test 2m = p + q."""
    x1, y1, z1 = m._h
    x2, y2, z2 = p._h
    x3, y3, z3 = q._h
    z23, z13, z12 = z2 * z3, z1 * z3, z1 * z2
    return (2 * x1 * z23 == x2 * z13 + x3 * z12
            and 2 * y1 * z23 == y2 * z13 + y3 * z12)


def is_on_line(p: Point, line: Line) -> bool:
    x, y, z = p._h
    u, v, w, _ = line._h
    return not (u * x + v * y + w * z)


def line_side(p: Point, line: Line) -> int:
    """The sign (-1, 0 or 1) of u*x + v*y + w: which side of `line` p is on.

    Only the integer body exists: U*X + V*Y + W*Z = S*Z*(u*x + v*y + w)
    with S > 0 and Z > 0, so the sums agree in sign.  Q(a, b, c, d, k)
    has no order, so a symbolic input raises TypeError.
    """
    a, b = p._h, line._h
    if type(a[0]) is not int or type(b[0]) is not int:
        raise TypeError("line_side needs a rational point and line")
    value = b[0] * a[0] + b[1] * a[1] + b[2] * a[2]
    return (value > 0) - (value < 0)


def is_parallel(l1: Line, l2: Line) -> bool:
    """Same direction; coincident lines count as parallel."""
    u1, v1, _, _ = l1._h
    u2, v2, _, _ = l2._h
    return u1 * v2 == u2 * v1


def is_perpendicular(l1: Line, l2: Line) -> bool:
    u1, v1, _, _ = l1._h
    u2, v2, _, _ = l2._h
    return not (u1 * u2 + v1 * v2)


# -- circles ------------------------------------------------------------------


def circumcenter(p: Point, q: Point, r: Point) -> Point:
    """Center of the circle through three non-collinear points."""
    # the perpendicular bisectors of pq and qr met by Cramer's rule, in one
    # formula on the coordinates times s = z1*z2*z3
    x1, y1, z1 = p._h
    x2, y2, z2 = q._h
    x3, y3, z3 = r._h
    z12, z13, z23 = z1 * z2, z1 * z3, z2 * z3
    x1, y1, x2, y2 = x1 * z23, y1 * z23, x2 * z13, y2 * z13
    x3, y3 = x3 * z12, y3 * z12
    dx1, dy1, dx2, dy2 = x2 - x1, y2 - y1, x3 - x2, y3 - y2
    det = dx1 * dy2 - dx2 * dy1
    if not det:
        raise _no_circle(p, q, r, "circumcenter")
    n2 = x2 * x2 + y2 * y2
    w1 = x1 * x1 + y1 * y1 - n2
    w2 = n2 - x3 * x3 - y3 * y3
    return _point(dy1 * w2 - dy2 * w1, dx2 * w1 - dx1 * w2,
                  2 * z12 * z3 * det)


def _no_circle(p: Point, q: Point, r: Point, name: str):
    """The error for three points with no circle through them: two that
    coincide (in any position) give CoincidentPoints, three distinct
    collinear ones CollinearPoints."""
    if p == q or q == r or p == r:
        return CoincidentPoints(f"{name} needs three distinct points")
    return CollinearPoints(f"no {name} for collinear points")


def _det3(r1, r2, r3):
    a, b, c = r1
    d, e, f = r2
    g, h, i = r3
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    """Monic equation of the circle through three non-collinear points."""
    a, b, c = p._h, q._h, r._h
    det = _det3(a, b, c)
    if not det:
        raise _no_circle(p, q, r, "circumcircle")
    # on the rows (-(X^2 + Y^2), XZ, YZ, Z^2) of the three points, D, E and F
    # are the determinants below, and S = z1*z2*z3*det
    x1, y1, z1 = a
    x2, y2, z2 = b
    x3, y3, z3 = c
    s1, s2, s3 = -(x1 * x1 + y1 * y1), -(x2 * x2 + y2 * y2), -(x3 * x3 + y3 * y3)
    xz1, xz2, xz3 = x1 * z1, x2 * z2, x3 * z3
    yz1, yz2, yz3 = y1 * z1, y2 * z2, y3 * z3
    zz1, zz2, zz3 = z1 * z1, z2 * z2, z3 * z3
    return _circle(_det3((s1, yz1, zz1), (s2, yz2, zz2), (s3, yz3, zz3)),
                   _det3((xz1, s1, zz1), (xz2, s2, zz2), (xz3, s3, zz3)),
                   _det3((xz1, yz1, s1), (xz2, yz2, s2), (xz3, yz3, s3)),
                   z1 * z2 * z3 * det)


def circle_on_diameter(p: Point, q: Point) -> Circle:
    """Circle having segment pq as a diameter (Thales circle)."""
    if p == q:
        raise CoincidentPoints("diameter endpoints must be distinct")
    x1, y1, z1 = p._h
    x2, y2, z2 = q._h
    return _circle(-(x1 * z2 + x2 * z1), -(y1 * z2 + y2 * z1),
                   x1 * x2 + y1 * y2, z1 * z2)


def power_of_point(p: Point, circle: Circle):
    """Power of the point with respect to the circle, exact in the field."""
    return (p.x * p.x + p.y * p.y + circle.d * p.x + circle.e * p.y + circle.f)


def is_on_circle(p: Point, circle: Circle) -> bool:
    x, y, z = p._h
    d, e, f, s = circle._h
    return not (s * (x * x + y * y) + d * x * z + e * y * z + f * (z * z))


def point_on(p: Point, target) -> bool:
    """Exact incidence of a point with a line or circle."""
    if isinstance(target, Line):
        return is_on_line(p, target)
    if isinstance(target, Circle):
        return is_on_circle(p, target)
    raise TypeError(f"point_on expects a Line or Circle, got {type(target).__name__}")


def second_intersection(circle: Circle, line: Line, known: Point) -> Point:
    """Other intersection of a circle and line already meeting at `known`.

    Requires `known` to lie on both (checked exactly).  If the line is
    tangent at `known`, the second intersection coincides with it and
    `known` is returned.
    """
    x, y, z = known._h
    u, v, w, _ = line._h
    d, e, f, s = circle._h
    if u * x + v * y + w * z:
        raise PointNotOnLine("second_intersection: point is not on the line")
    if s * (x * x + y * y) + (d * x + e * y + f * z) * z:
        raise PointNotOnCircle("second_intersection: point is not on the circle")
    # known + t*(v, -u) meets the circle at t = 0 and, by Vieta, at
    # t = -k/(z*n); n = s*(u^2 + v^2) is nonzero because (u, v) is
    k = 2 * s * (x * v - y * u) + z * (d * v - e * u)
    if not k:
        return known
    n = s * (u * u + v * v)
    return _point(x * n - k * v, y * n + k * u, z * n)


def on_unit_circle(t):
    """Rational point ((1-t^2)/(1+t^2), 2t/(1+t^2)) of the unit circle.

    `t` is the half-angle parameter; every rational point except (-1, 0)
    arises this way.
    """
    return _on_unit_circle(*(t.as_integer_ratio() if isinstance(t, _RATIONAL)
                             else (t, 1)))


def _on_unit_circle(n, m) -> Point:
    """`on_unit_circle` at t = n/m, for callers that hold t as its pair."""
    n2, m2 = n * n, m * m
    return _point(m2 - n2, 2 * n * m, m2 + n2)


def are_concyclic(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Whether four points lie on one circle (first three must not be collinear)."""
    return is_on_circle(p4, circumcircle(p1, p2, p3))


def are_coaxial(c1: Circle, c2: Circle, c3: Circle) -> bool:
    """Whether three pairwise distinct circles belong to one pencil.

    Tested as rank <= 1 of two coefficient-difference vectors, i.e. all
    three 2x2 minors vanish.  Both vectors are taken from one base circle:
    the one with the most zero coefficients among d, e and f, the first of
    them on a tie.  Any base gives the same verdict, since the differences
    from any one circle span the differences of every pair.  The sparsest
    base is the cheapest: a zero coefficient subtracts from the other
    circles' without cross-multiplying their denominators, which keeps the
    minors' products small (symbolic lemma3's circle through P has f = 0).
    The first vector is not zero once the circles are known to be distinct,
    so `_rank_one` decides it from the two minors through its first
    nonzero entry.  Distinct concentric circles do share a (degenerate)
    pencil and test true.
    """
    h1, h2, h3 = c1._h, c2._h, c3._h
    # counted inline: a generator would double the cost of a rational call
    z1 = (not h1[0]) + (not h1[1]) + (not h1[2])
    z2 = (not h2[0]) + (not h2[1]) + (not h2[2])
    z3 = (not h3[0]) + (not h3[1]) + (not h3[2])
    if z2 > z1 and z2 >= z3:
        c1, c2, h1, h2 = c2, c1, h2, h1
    elif z3 > z1 and z3 > z2:
        c1, c3, h1, h3 = c3, c1, h3, h1
    d1, e1, f1, s1 = h1
    d2, e2, f2, s2 = h2
    d3, e3, f3, s3 = h3
    # c1 - c2 and c1 - c3 times s1*s2 and s1*s3
    r1 = (d1 * s2 - d2 * s1, e1 * s2 - e2 * s1, f1 * s2 - f2 * s1)
    r2 = (d1 * s3 - d3 * s1, e1 * s3 - e3 * s1, f1 * s3 - f3 * s1)
    if not any(r1) or not any(r2) or c2 == c3:
        raise CoincidentCircles("coaxial test needs pairwise distinct circles")
    return _rank_one(*r1, *r2)


# -- cross ratios ----------------------------------------------------------------


def _line_parameter(line: Line, p: Point):
    # pick the coordinate that actually varies along the line
    return p.x if line.v else p.y


def cross_ratio(p1: Point, p2: Point, p3: Point, p4: Point):
    """Affine cross ratio (p1,p2; p3,p4) of four collinear points.

    Computed on the x-coordinate, or on y for a vertical line.  Raises
    NotCollinear when the points do not share a line, CoincidentPoints
    when no two of them are distinct, and DivisionByZero when the cross
    ratio degenerates to infinity.
    """
    points = (p1, p2, p3, p4)
    base = None
    for i in range(4):
        for j in range(i + 1, 4):
            if points[i] != points[j]:
                base = line_through(points[i], points[j])
                break
        if base is not None:
            break
    if base is None:
        raise CoincidentPoints("cross ratio of four coincident points")
    for p in points:
        if not is_on_line(p, base):
            raise NotCollinear("cross ratio needs collinear points")
    t1, t2, t3, t4 = (_line_parameter(base, p) for p in points)
    return field_div((t1 - t3) * (t2 - t4), (t1 - t4) * (t2 - t3),
                     "cross ratio is infinite")


def pencil_cross_ratio(vertex: Point, p1: Point, p2: Point, p3: Point, p4: Point):
    """Cross ratio of the four lines joining `vertex` to the given points.

    Uses signed areas s(p, q) = (p - vertex) x (q - vertex); the value is
    s(1,3)*s(2,4) / (s(1,4)*s(2,3)).  Equals the affine cross ratio of the
    four intersection points with any transversal line.
    """
    def s(p, q):
        return ((p.x - vertex.x) * (q.y - vertex.y)
                - (p.y - vertex.y) * (q.x - vertex.x))

    return field_div(s(p1, p3) * s(p2, p4), s(p1, p4) * s(p2, p3),
                     "pencil cross ratio is infinite or undefined")


def harmonic(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Whether (p1,p2; p3,p4) = -1 on their common line."""
    return cross_ratio(p1, p2, p3, p4) == -1
