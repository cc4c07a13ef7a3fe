"""Exact plane geometry over any field with Python arithmetic operators.

Every construction has a generic body written with the field operators,
which works uniformly for `fractions.Fraction` coordinates and for
`RationalFunction` coordinates; nothing here ever calls float math.  Zero
tests go through `is_zero`, which both scalar types support via `__bool__`.
A field of a `Point`, `Line` or `Circle` must be an int, a `Fraction` or a
`RationalFunction`; any other type (a float, say) raises `TypeError`.

A `Point`, `Line` or `Circle` whose fields are all int or `Fraction` is
rational and is stored as a canonical tuple of Python ints: the entries
have gcd 1 and the last entry is positive.

- A point (X, Y, Z) is the projective point: x = X/Z and y = Y/Z.
- A circle (D, E, F, S) is the equation S(x^2 + y^2) + Dx + Ey + F = 0.
- A line (U, V, W, S) has (u, v, w) = (U, V, W)/S.  It keeps S because a
  line's coefficients are not canonical (`render` prints the triple as it
  was built); incidence, meets and perpendicularity do not depend on S.

So two rational points, or two rational circles, are equal exactly when
their tuples are equal.  Reading a public field (`x`, `y`, `u`, `v`, `w`,
`d`, `e`, `f`) builds the `Fraction` it stands for.  An object with any
`RationalFunction` field keeps its fields as given (ints become
`Fraction`s) and has no int tuple.

A function keeps a second, integer body only where a benchmark workload
reaches it with rational inputs: `midpoint`, `line_through`,
`intersect_lines`, `perp_bisector`, `perp_through`, `parallelogram_fourth`,
`circumcenter`, `circumcircle`, `circle_on_diameter`,
`second_intersection`, `on_unit_circle`, `is_midpoint`, `is_on_line`,
`is_parallel`, `is_perpendicular`, `are_coaxial` and `Point.__eq__`.  The
integer body runs the homogeneous form of the generic formula on the int
tuples, reduces each output with one gcd and builds it with the trusted
constructors `_point`, `_line` and `_circle`, so every public field equals
the generic formula's value exactly (a line's triple included).  Every
other input, and every other function, takes the generic body, which is
the only symbolic path.  When the integer body finds a degenerate input it
does not raise: it falls through to the generic body, which raises exactly
what it always raised, in the same check order.  Two functions have only
an integer body: `projective_point` (a point from int projective
coordinates) and `line_side` (the sign of a point against a line, which
Q(a, b, c, d, k) cannot give, having no order).

Degenerate inputs raise subclasses of `DegenerateConfig` carrying enough
context to report *which* construction failed; callers running randomized
trials catch that family and count a skip.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CoincidentCircles,
    CoincidentLines,
    CoincidentPoints,
    CollinearPoints,
    DegenerateNewtonLine,
    NotCollinear,
    ParallelLines,
    PointNotOnCircle,
    PointNotOnLine,
)
from .ratfun import RationalFunction
from .scalar import field_div, is_zero

_RATIONAL = (int, Fraction)


class _Figure:
    """The storage `Point`, `Line` and `Circle` share: the int tuple of a
    rational object (`_ints`, else None) or the fields as given
    (`_fields`).  Instances are immutable and, comparing by value across
    representations, unhashable."""

    __slots__ = ("_ints", "_fields")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __hash__ = None


_set_ints, _set_fields = _Figure._ints.__set__, _Figure._fields.__set__
_new = object.__new__


def _exact(value):
    """A field of an object with no int tuple: an int as a Fraction, so
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
    rational object's int tuple, built on each read, or the field as given."""

    def read(self):
        ints = self._ints
        if ints is None:
            return self._fields[index]
        return Fraction(ints[index], ints[scale])

    return property(read)


class Point(_Figure):
    """A point of the affine plane with exact coordinates.

    A rational point is stored as its projective coordinates (X, Y, Z),
    reduced, with Z > 0.
    """

    __slots__ = ()

    def __init__(self, x, y):
        if isinstance(x, _RATIONAL) and isinstance(y, _RATIONAL):
            _set_ints(self, _scaled(x, y))
        else:
            _set_ints(self, None)
            _set_fields(self, (_exact(x), _exact(y)))

    x = _field(0, 2)
    y = _field(1, 2)

    def __iter__(self):
        yield self.x
        yield self.y

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        a, b = self._ints, other._ints
        if a and b:
            return a == b
        return is_zero(self.x - other.x) and is_zero(self.y - other.y)

    def __repr__(self):
        return f"Point({self.x!r}, {self.y!r})"


class Line(_Figure):
    """The line u*x + v*y + w = 0; (u, v) must not both vanish.

    Coefficients are only meaningful up to a common nonzero factor, and
    equality compares projectively.  A rational line is stored as (U, V,
    W, S), reduced, with S > 0 and (u, v, w) = (U, V, W)/S, so `u`, `v`
    and `w` read back exactly the values it was built with; the integer
    bodies of the constructions build each coefficient as the generic
    formula's exact value, and `render` prints the triple as it is.  When
    any coefficient is a rational function the triple is cleared to
    polynomials and normalized (common monomial and integer content
    removed, first nonzero coefficient made to have positive leading
    coefficient); this keeps repeated symbolic constructions from
    compounding denominators.
    """

    __slots__ = ()

    def __init__(self, u, v, w):
        if (isinstance(u, _RATIONAL) and isinstance(v, _RATIONAL)
                and isinstance(w, _RATIONAL)):
            if not (u or v):
                raise ValueError("line needs u or v nonzero")
            _set_ints(self, _scaled(u, v, w))
            return
        u, v, w = _clear_line(_exact(u), _exact(v), _exact(w))
        if is_zero(u) and is_zero(v):
            raise ValueError("line needs u or v nonzero")
        _set_ints(self, None)
        _set_fields(self, (u, v, w))

    u = _field(0, 3)
    v = _field(1, 3)
    w = _field(2, 3)

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return (is_zero(self.u * other.v - other.u * self.v)
                and is_zero(self.u * other.w - other.u * self.w)
                and is_zero(self.v * other.w - other.v * self.w))

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
            _set_ints(self, _scaled(d, e, f))
        else:
            _set_ints(self, None)
            _set_fields(self, (_exact(d), _exact(e), _exact(f)))

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
        return (is_zero(self.d - other.d) and is_zero(self.e - other.e)
                and is_zero(self.f - other.f))

    def __repr__(self):
        return f"Circle({self.d!r}, {self.e!r}, {self.f!r})"


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


# Trusted constructors for the integer bodies.  The last argument is nonzero
# (positive for a line) and a line's (u, v) is nonzero, so of __init__'s
# checks and conversions only the reduction remains: one gcd and, for a
# point or a circle, the sign that makes the last entry positive.


def _point(x: int, y: int, z: int) -> Point:
    g = gcd(x, y, z)
    if z < 0:
        g = -g
    if g != 1:
        x, y, z = x // g, y // g, z // g
    p = _new(Point)
    _set_ints(p, (x, y, z))
    return p


def projective_point(x: int, y: int, z: int) -> Point:
    """The rational point (x/z, y/z) from int projective coordinates.

    The entry for callers that hold a point as ints already (the samplers
    and `GaugeConfig.corners` in `theorems`): the triple is reduced as an
    integer body's output is, and no Fraction is built.  z = 0 (a point at
    infinity) raises ValueError; a non-int entry raises TypeError.
    """
    if not z:
        raise ValueError("a projective point needs z nonzero")
    return _point(x, y, z)


def _line(u: int, v: int, w: int, s: int) -> Line:
    g = gcd(u, v, w, s)
    if g != 1:
        u, v, w, s = u // g, v // g, w // g, s // g
    line = _new(Line)
    _set_ints(line, (u, v, w, s))
    return line


def _circle(d: int, e: int, f: int, s: int) -> Circle:
    g = gcd(d, e, f, s)
    if s < 0:
        g = -g
    if g != 1:
        d, e, f, s = d // g, e // g, f // g, s // g
    circle = _new(Circle)
    _set_ints(circle, (d, e, f, s))
    return circle


def _as_ratfun(value):
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction.constant(value)


def _clear_line(u, v, w):
    """Rescale symbolic line coefficients to a normalized polynomial triple."""
    u, v, w = _as_ratfun(u), _as_ratfun(v), _as_ratfun(w)
    pu = u.num * v.den * w.den
    pv = v.num * u.den * w.den
    pw = w.num * u.den * v.den
    polys = [pu, pv, pw]
    nonzero = [p for p in polys if not p.is_zero()]
    if not nonzero:
        # invalid either way; let the (u, v) check in Line.__init__ report it
        return (RationalFunction(pu), RationalFunction(pv), RationalFunction(pw))
    mins = None
    for p in nonzero:
        m = p.min_exponents()
        mins = m if mins is None else tuple(min(x, y) for x, y in zip(mins, m))
    if any(mins):
        polys = [p if p.is_zero() else p.shift_down(mins) for p in polys]
        nonzero = [p for p in polys if not p.is_zero()]
    num_gcd, den_lcm = 0, 1
    for p in nonzero:
        cont = p.content()
        num_gcd = gcd(num_gcd, cont.numerator)
        den_lcm = den_lcm * cont.denominator // gcd(den_lcm, cont.denominator)
    scale = Fraction(num_gcd, den_lcm)
    if nonzero[0].leading_coefficient() < 0:
        scale = -scale
    polys = [p.scale(1 / scale) for p in polys]
    return tuple(RationalFunction(p) for p in polys)


# -- point and line constructions ------------------------------------------
#
# In the integer bodies (x_i, y_i, z_i) are the tuples of the input points
# and (u_i, v_i, w_i, s_i) those of the input lines; `a and b` holds exactly
# when both inputs are rational, since only those have a (non-empty) tuple.


def midpoint(p: Point, q: Point) -> Point:
    a, b = p._ints, q._ints
    if a and b:
        x1, y1, z1 = a
        x2, y2, z2 = b
        return _point(x1 * z2 + x2 * z1, y1 * z2 + y2 * z1, 2 * z1 * z2)
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def line_through(p: Point, q: Point) -> Line:
    """The unique line through two distinct points."""
    a, b = p._ints, q._ints
    if a and b:
        x1, y1, z1 = a
        x2, y2, z2 = b
        u, v = y2 * z1 - y1 * z2, x1 * z2 - x2 * z1
        if u or v:
            return _line(u, v, x2 * y1 - x1 * y2, z1 * z2)
    dx = q.x - p.x
    dy = q.y - p.y
    if is_zero(dx) and is_zero(dy):
        raise CoincidentPoints("no unique line through coincident points")
    return Line(dy, -dx, dx * p.y - dy * p.x)


def intersect_lines(l1: Line, l2: Line) -> Point:
    """Intersection point of two lines by Cramer's rule.

    Raises ParallelLines for distinct parallel lines and CoincidentLines
    when the two triples describe the same line.
    """
    a, b = l1._ints, l2._ints
    if a and b:
        u1, v1, w1, _ = a
        u2, v2, w2, _ = b
        det = u1 * v2 - u2 * v1
        if det:
            return _point(v1 * w2 - v2 * w1, u2 * w1 - u1 * w2, det)
    det = l1.u * l2.v - l2.u * l1.v
    if is_zero(det):
        if l1 == l2:
            raise CoincidentLines("cannot intersect a line with itself")
        raise ParallelLines(l1=l1, l2=l2)
    x = (l1.v * l2.w - l2.v * l1.w) / det
    y = (l2.u * l1.w - l1.u * l2.w) / det
    return Point(x, y)


def perp_bisector(p: Point, q: Point) -> Line:
    """Locus of points equidistant from two distinct points."""
    a, b = p._ints, q._ints
    if a and b and a != b:
        x1, y1, z1 = a
        x2, y2, z2 = b
        z = z1 * z2
        return _line(2 * (x2 * z1 - x1 * z2) * z, 2 * (y2 * z1 - y1 * z2) * z,
                     (x1 * x1 + y1 * y1) * z2 * z2 - (x2 * x2 + y2 * y2) * z1 * z1,
                     z * z)
    if p == q:
        raise CoincidentPoints("perpendicular bisector needs distinct points")
    return Line(2 * (q.x - p.x), 2 * (q.y - p.y),
                p.x * p.x + p.y * p.y - q.x * q.x - q.y * q.y)


def perp_through(p: Point, line: Line) -> Line:
    """The perpendicular to `line` passing through `p` (p need not lie on it)."""
    a, b = p._ints, line._ints
    if a and b:
        x, y, z = a
        u, v, _, s = b
        return _line(-v * z, u * z, v * x - u * y, s * z)
    return Line(-line.v, line.u, line.v * p.x - line.u * p.y)


def parallelogram_fourth(x: Point, y: Point, z: Point) -> Point:
    """Fourth vertex completing x, y, z to the parallelogram x-y-?-z.

    Pure coordinate arithmetic y + z - x; degenerate (collinear) inputs
    are deliberately allowed and simply give a flat parallelogram.
    """
    a, b, c = x._ints, y._ints, z._ints
    if a and b and c:
        x1, y1, z1 = a
        x2, y2, z2 = b
        x3, y3, z3 = c
        z23 = z2 * z3
        return _point((x2 * z3 + x3 * z2) * z1 - x1 * z23,
                      (y2 * z3 + y3 * z2) * z1 - y1 * z23, z1 * z23)
    return Point(y.x + z.x - x.x, y.y + z.y - x.y)


def newton_line(a: Point, b: Point, c: Point, d: Point) -> Line:
    """Line joining the midpoints of the diagonals AC and BD of quadrilateral ABCD."""
    m1 = midpoint(a, c)
    m2 = midpoint(b, d)
    if m1 == m2:
        raise DegenerateNewtonLine("diagonal midpoints coincide")
    return line_through(m1, m2)


def is_collinear(p: Point, q: Point, r: Point) -> bool:
    return is_zero((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def is_midpoint(m: Point, p: Point, q: Point) -> bool:
    """Exact componentwise test 2m = p + q."""
    a, b, c = m._ints, p._ints, q._ints
    if a and b and c:
        x1, y1, z1 = a
        x2, y2, z2 = b
        x3, y3, z3 = c
        z23 = 2 * z2 * z3
        return (x1 * z23 == (x2 * z3 + x3 * z2) * z1
                and y1 * z23 == (y2 * z3 + y3 * z2) * z1)
    return is_zero(2 * m.x - p.x - q.x) and is_zero(2 * m.y - p.y - q.y)


def is_on_line(p: Point, line: Line) -> bool:
    a, b = p._ints, line._ints
    if a and b:
        return not (b[0] * a[0] + b[1] * a[1] + b[2] * a[2])
    return is_zero(line.u * p.x + line.v * p.y + line.w)


def line_side(p: Point, line: Line) -> int:
    """The sign (-1, 0 or 1) of u*x + v*y + w: which side of `line` p is on.

    Only the integer body exists: U*X + V*Y + W*Z = S*Z*(u*x + v*y + w)
    with S > 0 and Z > 0, so the sums agree in sign.  Q(a, b, c, d, k)
    has no order, so a symbolic input raises TypeError.
    """
    a, b = p._ints, line._ints
    if not (a and b):
        raise TypeError("line_side needs a rational point and line")
    value = b[0] * a[0] + b[1] * a[1] + b[2] * a[2]
    return (value > 0) - (value < 0)


def is_parallel(l1: Line, l2: Line) -> bool:
    """Same direction; coincident lines count as parallel."""
    a, b = l1._ints, l2._ints
    if a and b:
        return a[0] * b[1] == b[0] * a[1]
    return is_zero(l1.u * l2.v - l2.u * l1.v)


def is_perpendicular(l1: Line, l2: Line) -> bool:
    a, b = l1._ints, l2._ints
    if a and b:
        return not (a[0] * b[0] + a[1] * b[1])
    return is_zero(l1.u * l2.u + l1.v * l2.v)


# -- circles ------------------------------------------------------------------


def circumcenter(p: Point, q: Point, r: Point) -> Point:
    """Center of the circle through three non-collinear points."""
    a, b, c = p._ints, q._ints, r._ints
    if a and b and c:
        # the two perpendicular bisectors below, met by Cramer's rule, on the
        # coordinates times s = z1 * z2 * z3
        x1, y1, z1 = a
        x2, y2, z2 = b
        x3, y3, z3 = c
        z12, z13, z23 = z1 * z2, z1 * z3, z2 * z3
        x1, y1, x2, y2 = x1 * z23, y1 * z23, x2 * z13, y2 * z13
        x3, y3 = x3 * z12, y3 * z12
        dx1, dy1, dx2, dy2 = x2 - x1, y2 - y1, x3 - x2, y3 - y2
        det = dx1 * dy2 - dx2 * dy1
        if det:
            n2 = x2 * x2 + y2 * y2
            w1 = x1 * x1 + y1 * y1 - n2
            w2 = n2 - x3 * x3 - y3 * y3
            return _point(dy1 * w2 - dy2 * w1, dx2 * w1 - dx1 * w2,
                          2 * z12 * z3 * det)
    try:
        return intersect_lines(perp_bisector(p, q), perp_bisector(q, r))
    except (ParallelLines, CoincidentLines):
        raise CollinearPoints("no circumcenter for collinear points") from None


def _det3(r1, r2, r3):
    a, b, c = r1
    d, e, f = r2
    g, h, i = r3
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def circumcircle(p: Point, q: Point, r: Point) -> Circle:
    """Monic equation of the circle through three non-collinear points."""
    a, b, c = p._ints, q._ints, r._ints
    if a and b and c:
        det = _det3(a, b, c)
        if det:
            # rows (X^2 + Y^2, XZ, YZ, Z^2) of the three points: their 3x3
            # minors are S, -D, E and -F
            x1, y1, z1 = a
            x2, y2, z2 = b
            x3, y3, z3 = c
            n1, n2, n3 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x3 * x3 + y3 * y3
            xz1, xz2, xz3 = x1 * z1, x2 * z2, x3 * z3
            yz1, yz2, yz3 = y1 * z1, y2 * z2, y3 * z3
            zz1, zz2, zz3 = z1 * z1, z2 * z2, z3 * z3
            return _circle(
                -_det3((n1, yz1, zz1), (n2, yz2, zz2), (n3, yz3, zz3)),
                _det3((n1, xz1, zz1), (n2, xz2, zz2), (n3, xz3, zz3)),
                -_det3((n1, xz1, yz1), (n2, xz2, yz2), (n3, xz3, yz3)),
                z1 * z2 * z3 * det)
    if p == q or q == r or p == r:
        raise CoincidentPoints("circumcircle needs three distinct points")
    det = _det3((p.x, p.y, 1), (q.x, q.y, 1), (r.x, r.y, 1))
    if is_zero(det):
        raise CollinearPoints("no circumcircle for collinear points")
    sp = -(p.x * p.x + p.y * p.y)
    sq = -(q.x * q.x + q.y * q.y)
    sr = -(r.x * r.x + r.y * r.y)
    d = _det3((sp, p.y, 1), (sq, q.y, 1), (sr, r.y, 1)) / det
    e = _det3((p.x, sp, 1), (q.x, sq, 1), (r.x, sr, 1)) / det
    f = _det3((p.x, p.y, sp), (q.x, q.y, sq), (r.x, r.y, sr)) / det
    return Circle(d, e, f)


def circle_on_diameter(p: Point, q: Point) -> Circle:
    """Circle having segment pq as a diameter (Thales circle)."""
    a, b = p._ints, q._ints
    if a and b and a != b:
        x1, y1, z1 = a
        x2, y2, z2 = b
        return _circle(-(x1 * z2 + x2 * z1), -(y1 * z2 + y2 * z1),
                       x1 * x2 + y1 * y2, z1 * z2)
    if p == q:
        raise CoincidentPoints("diameter endpoints must be distinct")
    return Circle(-(p.x + q.x), -(p.y + q.y), p.x * q.x + p.y * q.y)


def power_of_point(p: Point, circle: Circle):
    """Power of the point with respect to the circle, exact in the field."""
    return (p.x * p.x + p.y * p.y + circle.d * p.x + circle.e * p.y + circle.f)


def is_on_circle(p: Point, circle: Circle) -> bool:
    return is_zero(power_of_point(p, circle))


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
    a, b, c = known._ints, line._ints, circle._ints
    if a and b and c:
        x, y, z = a
        u, v, w, _ = b
        d, e, f, s = c
        if (not u * x + v * y + w * z
                and not s * (x * x + y * y) + (d * x + e * y + f * z) * z):
            k = 2 * s * (x * v - y * u) + z * (d * v - e * u)
            if not k:
                return known
            n = s * (u * u + v * v)
            return _point(x * n - k * v, y * n + k * u, z * n)
    if not is_on_line(known, line):
        raise PointNotOnLine("second_intersection: point is not on the line")
    if not is_on_circle(known, circle):
        raise PointNotOnCircle("second_intersection: point is not on the circle")
    u, v = line.u, line.v
    # parametrize as known + t*(v, -u); the quadratic in t has root 0 at `known`
    a_coeff = u * u + v * v
    b_coeff = 2 * known.x * v - 2 * known.y * u + circle.d * v - circle.e * u
    if is_zero(b_coeff):
        return known
    t = field_div(-b_coeff, a_coeff, "degenerate direction in second_intersection")
    return Point(known.x + t * v, known.y - t * u)


def on_unit_circle(t):
    """Rational point ((1-t^2)/(1+t^2), 2t/(1+t^2)) of the unit circle.

    `t` is the half-angle parameter; every rational point except (-1, 0)
    arises this way.
    """
    if isinstance(t, _RATIONAL):
        n, m = t.as_integer_ratio()
        n2, m2 = n * n, m * m
        return _point(m2 - n2, 2 * n * m, m2 + n2)
    t2 = t * t
    den = 1 + t2
    return Point((1 - t2) / den, 2 * t / den)


def are_concyclic(p1: Point, p2: Point, p3: Point, p4: Point) -> bool:
    """Whether four points lie on one circle (first three must not be collinear)."""
    return is_on_circle(p4, circumcircle(p1, p2, p3))


def are_coaxial(c1: Circle, c2: Circle, c3: Circle) -> bool:
    """Whether three pairwise distinct circles belong to one pencil.

    Tested as rank <= 1 of the two coefficient-difference vectors, i.e.
    all three 2x2 minors vanish.  Distinct concentric circles do share a
    (degenerate) pencil and test true.
    """
    a, b, c = c1._ints, c2._ints, c3._ints
    if a and b and c and a != b and a != c and b != c:
        d1, e1, f1, s1 = a
        d2, e2, f2, s2 = b
        d3, e3, f3, s3 = c
        # the two rows times s1 * s2 and s1 * s3
        r1 = (d1 * s2 - d2 * s1, e1 * s2 - e2 * s1, f1 * s2 - f2 * s1)
        r2 = (d1 * s3 - d3 * s1, e1 * s3 - e3 * s1, f1 * s3 - f3 * s1)
        return (r1[0] * r2[1] == r1[1] * r2[0]
                and r1[0] * r2[2] == r1[2] * r2[0]
                and r1[1] * r2[2] == r1[2] * r2[1])
    if c1 == c2 or c1 == c3 or c2 == c3:
        raise CoincidentCircles("coaxial test needs pairwise distinct circles")
    r1 = (c1.d - c2.d, c1.e - c2.e, c1.f - c2.f)
    r2 = (c1.d - c3.d, c1.e - c3.e, c1.f - c3.f)
    return (is_zero(r1[0] * r2[1] - r1[1] * r2[0])
            and is_zero(r1[0] * r2[2] - r1[2] * r2[0])
            and is_zero(r1[1] * r2[2] - r1[2] * r2[1]))


# -- cross ratios ----------------------------------------------------------------


def _line_parameter(line: Line, p: Point):
    # pick the coordinate that actually varies along the line
    return p.y if is_zero(line.v) else p.x


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
