"""Exact plane geometry over any field with Python arithmetic operators.

Every construction has a generic body written with the field operators,
which works uniformly for `fractions.Fraction` coordinates and for
`RationalFunction` coordinates; nothing here ever calls float math.  Zero
tests go through `is_zero`, which both scalar types support via `__bool__`.
`Point`, `Line` and `Circle` turn plain `int` inputs into `Fraction`.

The hot numeric constructions (`midpoint`, `line_through`, `perp_bisector`,
`perp_through`, `intersect_lines`, `parallelogram_fourth`, `circumcenter`,
`circumcircle`, `circle_on_diameter`, `second_intersection`,
`on_unit_circle`) and predicates (`Point.__eq__`, `is_midpoint`,
`is_on_line`, `is_perpendicular`, `are_coaxial`) also have
an integer path.  One type test at the top selects it when every input
coordinate or coefficient is a `Fraction` (an int or Fraction parameter for
`on_unit_circle`); anything else, in particular any `RationalFunction`,
takes the generic body, which is the only symbolic path.  The integer path
scales its inputs to a common denominator (`math.lcm`), evaluates the same
formula on Python ints, and builds one `Fraction` per output coordinate or
coefficient, or decides its zero tests on integers (by cross-multiplication;
`Point.__eq__` compares the canonical Fractions' integer parts).  A
`Fraction` is canonical, so each output equals the generic formula's value
exactly, coefficient for coefficient (a line's stored triple included).
Outputs are assembled by the trusted constructors `_point`, `_line` and
`_circle`, which skip the conversions and checks of `__init__` that the
integer path has already settled.  When the integer path finds a
degenerate input it does not raise: it falls through to the generic body,
which raises exactly what it always raised, in the same check order.

Degenerate inputs raise subclasses of `DegenerateConfig` carrying enough
context to report *which* construction failed; callers running randomized
trials catch that family and count a skip.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

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


class Point:
    """A point of the affine plane with exact coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        object.__setattr__(self, "x", Fraction(x) if isinstance(x, int) else x)
        object.__setattr__(self, "y", Fraction(y) if isinstance(y, int) else y)

    def __setattr__(self, name, value):
        raise AttributeError("Point is immutable")

    def __iter__(self):
        yield self.x
        yield self.y

    def __eq__(self, other):
        if not isinstance(other, Point):
            return NotImplemented
        if type(self.x) is type(self.y) is type(other.x) is type(other.y) \
                is Fraction:
            # Fractions are canonical: == compares numerators and denominators
            return self.x == other.x and self.y == other.y
        return is_zero(self.x - other.x) and is_zero(self.y - other.y)

    __hash__ = None

    def __repr__(self):
        return f"Point({self.x!r}, {self.y!r})"


class Line:
    """The line u*x + v*y + w = 0; (u, v) must not both vanish.

    Coefficients are only meaningful up to a common nonzero factor, and
    equality compares projectively.  When any coefficient is a rational
    function the triple is cleared to polynomials and normalized (common
    monomial and integer content removed, first nonzero coefficient made
    to have positive leading coefficient); this keeps repeated symbolic
    constructions from compounding denominators.  Plain rational triples
    are stored exactly as given (ints become `Fraction`s).  Both paths of
    the constructions store the same triple: the integer path of
    `line_through` and `perp_bisector` builds each coefficient as the
    generic formula's exact value, and `render` prints the triple as it is.
    """

    __slots__ = ("u", "v", "w")

    def __init__(self, u, v, w):
        if isinstance(u, RationalFunction) or isinstance(v, RationalFunction) \
                or isinstance(w, RationalFunction):
            u, v, w = _clear_line(u, v, w)
        else:
            u, v, w = _exact(u), _exact(v), _exact(w)
        if is_zero(u) and is_zero(v):
            raise ValueError("line needs u or v nonzero")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "w", w)

    def __setattr__(self, name, value):
        raise AttributeError("Line is immutable")

    def __eq__(self, other):
        if not isinstance(other, Line):
            return NotImplemented
        return (is_zero(self.u * other.v - other.u * self.v)
                and is_zero(self.u * other.w - other.u * self.w)
                and is_zero(self.v * other.w - other.v * self.w))

    __hash__ = None

    def __repr__(self):
        return f"Line({self.u!r}, {self.v!r}, {self.w!r})"


class Circle:
    """The circle x^2 + y^2 + d*x + e*y + f = 0 (monic, so coefficients are unique)."""

    __slots__ = ("d", "e", "f")

    def __init__(self, d, e, f):
        object.__setattr__(self, "d", _exact(d))
        object.__setattr__(self, "e", _exact(e))
        object.__setattr__(self, "f", _exact(f))

    def __setattr__(self, name, value):
        raise AttributeError("Circle is immutable")

    def center(self) -> Point:
        return Point(-self.d / 2, -self.e / 2)

    def radius_squared(self):
        return (self.d * self.d + self.e * self.e) / 4 - self.f

    def __eq__(self, other):
        if not isinstance(other, Circle):
            return NotImplemented
        return (is_zero(self.d - other.d) and is_zero(self.e - other.e)
                and is_zero(self.f - other.f))

    __hash__ = None

    def __repr__(self):
        return f"Circle({self.d!r}, {self.e!r}, {self.f!r})"


def _exact(value):
    """A plain int as a Fraction, so that `/` never yields a float."""
    return Fraction(value) if isinstance(value, int) else value


# Trusted constructors for the integer paths: their arguments are Fractions
# and, for a line, (u, v) is already known to be nonzero, so the checks and
# conversions of __init__ are skipped.

_new = object.__new__
_set_px, _set_py = Point.x.__set__, Point.y.__set__
_set_lu, _set_lv, _set_lw = Line.u.__set__, Line.v.__set__, Line.w.__set__
_set_cd, _set_ce, _set_cf = Circle.d.__set__, Circle.e.__set__, Circle.f.__set__


def _point(x: Fraction, y: Fraction) -> Point:
    p = _new(Point)
    _set_px(p, x)
    _set_py(p, y)
    return p


def _line(u: Fraction, v: Fraction, w: Fraction) -> Line:
    line = _new(Line)
    _set_lu(line, u)
    _set_lv(line, v)
    _set_lw(line, w)
    return line


def _circle(d: Fraction, e: Fraction, f: Fraction) -> Circle:
    circle = _new(Circle)
    _set_cd(circle, d)
    _set_ce(circle, e)
    _set_cf(circle, f)
    return circle


# Integer-path helpers: Fraction inputs times the lcm s of their denominators.


def _pair(x, y):
    """Integers (x * s, y * s, s)."""
    dx, dy = x.denominator, y.denominator
    s = lcm(dx, dy)
    return x.numerator * (s // dx), y.numerator * (s // dy), s


def _triple(u, v, w):
    """Integers (u * s, v * s, w * s, s)."""
    du, dv, dw = u.denominator, v.denominator, w.denominator
    s = lcm(du, dv, dw)
    return (u.numerator * (s // du), v.numerator * (s // dv),
            w.numerator * (s // dw), s)


def _two_points(p: Point, q: Point):
    """Integers (x1, y1, x2, y2, s): the coordinates of p and q times s."""
    a, b, c, d = p.x, p.y, q.x, q.y
    da, db, dc, dd = a.denominator, b.denominator, c.denominator, d.denominator
    s = lcm(da, db, dc, dd)
    return (a.numerator * (s // da), b.numerator * (s // db),
            c.numerator * (s // dc), d.numerator * (s // dd), s)


def _three_points(p: Point, q: Point, r: Point):
    """Integers (x1, y1, x2, y2, x3, y3, s): p, q, r's coordinates times s."""
    a, b, c, d, e, f = p.x, p.y, q.x, q.y, r.x, r.y
    da, db, dc = a.denominator, b.denominator, c.denominator
    dd, de, df = d.denominator, e.denominator, f.denominator
    s = lcm(da, db, dc, dd, de, df)
    return (a.numerator * (s // da), b.numerator * (s // db),
            c.numerator * (s // dc), d.numerator * (s // dd),
            e.numerator * (s // de), f.numerator * (s // df), s)


def _as_ratfun(value):
    if isinstance(value, RationalFunction):
        return value
    return RationalFunction.constant(value)


def _clear_line(u, v, w):
    """Rescale symbolic line coefficients to a normalized polynomial triple."""
    from math import gcd

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


def midpoint(p: Point, q: Point) -> Point:
    if type(p.x) is type(p.y) is type(q.x) is type(q.y) is Fraction:
        x1, y1, x2, y2, s = _two_points(p, q)
        return _point(Fraction(x1 + x2, 2 * s), Fraction(y1 + y2, 2 * s))
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def line_through(p: Point, q: Point) -> Line:
    """The unique line through two distinct points."""
    if type(p.x) is type(p.y) is type(q.x) is type(q.y) is Fraction:
        x1, y1, x2, y2, s = _two_points(p, q)
        dx, dy = x2 - x1, y2 - y1
        if dx or dy:
            return _line(Fraction(dy, s), Fraction(-dx, s),
                         Fraction(dx * y1 - dy * x1, s * s))
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
    if (type(l1.u) is type(l1.v) is type(l1.w) is type(l2.u) is type(l2.v)
            is type(l2.w) is Fraction):
        u1, v1, w1, _ = _triple(l1.u, l1.v, l1.w)
        u2, v2, w2, _ = _triple(l2.u, l2.v, l2.w)
        det = u1 * v2 - u2 * v1
        if det:
            return _point(Fraction(v1 * w2 - v2 * w1, det),
                          Fraction(u2 * w1 - u1 * w2, det))
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
    if type(p.x) is type(p.y) is type(q.x) is type(q.y) is Fraction:
        x1, y1, x2, y2, s = _two_points(p, q)
        if x1 != x2 or y1 != y2:
            return _line(Fraction(2 * (x2 - x1), s), Fraction(2 * (y2 - y1), s),
                         Fraction(x1 * x1 + y1 * y1 - x2 * x2 - y2 * y2, s * s))
    if p == q:
        raise CoincidentPoints("perpendicular bisector needs distinct points")
    return Line(2 * (q.x - p.x), 2 * (q.y - p.y),
                p.x * p.x + p.y * p.y - q.x * q.x - q.y * q.y)


def perp_through(p: Point, line: Line) -> Line:
    """The perpendicular to `line` passing through `p` (p need not lie on it)."""
    if type(p.x) is type(p.y) is type(line.u) is type(line.v) is Fraction:
        x, y, s = _pair(p.x, p.y)
        u, v, t = _pair(line.u, line.v)
        return _line(-line.v, line.u, Fraction(v * x - u * y, s * t))
    return Line(-line.v, line.u, line.v * p.x - line.u * p.y)


def parallelogram_fourth(x: Point, y: Point, z: Point) -> Point:
    """Fourth vertex completing x, y, z to the parallelogram x-y-?-z.

    Pure coordinate arithmetic y + z - x; degenerate (collinear) inputs
    are deliberately allowed and simply give a flat parallelogram.
    """
    if (type(x.x) is type(x.y) is type(y.x) is type(y.y) is type(z.x)
            is type(z.y) is Fraction):
        x1, y1, x2, y2, x3, y3, s = _three_points(x, y, z)
        return _point(Fraction(x2 + x3 - x1, s), Fraction(y2 + y3 - y1, s))
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
    if (type(m.x) is type(m.y) is type(p.x) is type(p.y) is type(q.x)
            is type(q.y) is Fraction):
        x1, y1, x2, y2, x3, y3, _ = _three_points(m, p, q)
        return 2 * x1 == x2 + x3 and 2 * y1 == y2 + y3
    return is_zero(2 * m.x - p.x - q.x) and is_zero(2 * m.y - p.y - q.y)


def is_on_line(p: Point, line: Line) -> bool:
    if (type(p.x) is type(p.y) is type(line.u) is type(line.v)
            is type(line.w) is Fraction):
        x, y, s = _pair(p.x, p.y)
        u, v, w, _ = _triple(line.u, line.v, line.w)
        return u * x + v * y + w * s == 0
    return is_zero(line.u * p.x + line.v * p.y + line.w)


def is_parallel(l1: Line, l2: Line) -> bool:
    """Same direction; coincident lines count as parallel."""
    return is_zero(l1.u * l2.v - l2.u * l1.v)


def is_perpendicular(l1: Line, l2: Line) -> bool:
    if type(l1.u) is type(l1.v) is type(l2.u) is type(l2.v) is Fraction:
        u1, v1, _ = _pair(l1.u, l1.v)
        u2, v2, _ = _pair(l2.u, l2.v)
        return u1 * u2 + v1 * v2 == 0
    return is_zero(l1.u * l2.u + l1.v * l2.v)


# -- circles ------------------------------------------------------------------


def circumcenter(p: Point, q: Point, r: Point) -> Point:
    """Center of the circle through three non-collinear points."""
    if (type(p.x) is type(p.y) is type(q.x) is type(q.y) is type(r.x)
            is type(r.y) is Fraction):
        # the two perpendicular bisectors below, met by Cramer's rule
        x1, y1, x2, y2, x3, y3, s = _three_points(p, q, r)
        dx1, dy1, dx2, dy2 = x2 - x1, y2 - y1, x3 - x2, y3 - y2
        det = dx1 * dy2 - dx2 * dy1
        if det:
            n2 = x2 * x2 + y2 * y2
            w1 = x1 * x1 + y1 * y1 - n2
            w2 = n2 - x3 * x3 - y3 * y3
            den = 2 * s * det
            return _point(Fraction(dy1 * w2 - dy2 * w1, den),
                          Fraction(dx2 * w1 - dx1 * w2, den))
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
    if (type(p.x) is type(p.y) is type(q.x) is type(q.y) is type(r.x)
            is type(r.y) is Fraction):
        x1, y1, x2, y2, x3, y3, s = _three_points(p, q, r)
        det = _det3((x1, y1, 1), (x2, y2, 1), (x3, y3, 1))
        if det:
            s1 = -(x1 * x1 + y1 * y1)
            s2 = -(x2 * x2 + y2 * y2)
            s3 = -(x3 * x3 + y3 * y3)
            den = s * det
            return _circle(
                Fraction(_det3((s1, y1, 1), (s2, y2, 1), (s3, y3, 1)), den),
                Fraction(_det3((x1, s1, 1), (x2, s2, 1), (x3, s3, 1)), den),
                Fraction(_det3((x1, y1, s1), (x2, y2, s2), (x3, y3, s3)),
                         s * den))
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
    if type(p.x) is type(p.y) is type(q.x) is type(q.y) is Fraction:
        x1, y1, x2, y2, s = _two_points(p, q)
        if x1 != x2 or y1 != y2:
            return _circle(Fraction(-(x1 + x2), s), Fraction(-(y1 + y2), s),
                           Fraction(x1 * x2 + y1 * y2, s * s))
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
    if (type(known.x) is type(known.y) is type(line.u) is type(line.v)
            is type(line.w) is type(circle.d) is type(circle.e)
            is type(circle.f) is Fraction):
        # known = (x, y) / s, circle = (d, e, f) / sc, line = (u, v, w) / _
        x, y, s = _pair(known.x, known.y)
        d, e, f, sc = _triple(circle.d, circle.e, circle.f)
        u, v, w, _ = _triple(line.u, line.v, line.w)
        if (not u * x + v * y + w * s
                and not sc * (x * x + y * y) + s * (d * x + e * y + f * s)):
            b = 2 * sc * (x * v - y * u) + s * (d * v - e * u)
            if not b:
                return known
            a = sc * (u * u + v * v)
            return _point(Fraction(x * a - b * v, s * a),
                          Fraction(y * a + b * u, s * a))
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
    if isinstance(t, (int, Fraction)):
        n, m = t.numerator, t.denominator
        n2, m2 = n * n, m * m
        return _point(Fraction(m2 - n2, m2 + n2), Fraction(2 * n * m, m2 + n2))
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
    if (type(c1.d) is type(c1.e) is type(c1.f) is type(c2.d) is type(c2.e)
            is type(c2.f) is type(c3.d) is type(c3.e) is type(c3.f) is Fraction):
        d1, e1, f1, s1 = _triple(c1.d, c1.e, c1.f)
        d2, e2, f2, s2 = _triple(c2.d, c2.e, c2.f)
        d3, e3, f3, s3 = _triple(c3.d, c3.e, c3.f)
        # c_i = (d_i, e_i, f_i) / s_i; rows scaled by s1*s2 and s1*s3
        r1 = (d1 * s2 - d2 * s1, e1 * s2 - e2 * s1, f1 * s2 - f2 * s1)
        r2 = (d1 * s3 - d3 * s1, e1 * s3 - e3 * s1, f1 * s3 - f3 * s1)
        if any(r1) and any(r2) and (d2 * s3, e2 * s3, f2 * s3) != (
                d3 * s2, e3 * s2, f3 * s2):
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
