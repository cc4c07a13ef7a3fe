"""Geometry kernel: constructions, incidence predicates, circles, cross ratios."""

from decimal import Decimal
from fractions import Fraction
from itertools import permutations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from butterfly import (
    Circle,
    CoincidentCircles,
    CoincidentLines,
    CoincidentPoints,
    CollinearPoints,
    DegenerateConfig,
    DegenerateNewtonLine,
    DivisionByZero,
    Line,
    NotCollinear,
    ParallelLines,
    Point,
    PointNotOnCircle,
    PointNotOnLine,
    RationalFunction,
    are_coaxial,
    are_concyclic,
    circle_on_diameter,
    circumcenter,
    circumcircle,
    cross_ratio,
    harmonic,
    intersect_lines,
    is_collinear,
    is_midpoint,
    is_on_circle,
    is_on_line,
    is_parallel,
    is_perpendicular,
    line_side,
    line_through,
    midpoint,
    newton_line,
    on_unit_circle,
    parallelogram_fourth,
    pencil_cross_ratio,
    perp_bisector,
    perp_through,
    point_on,
    power_of_point,
    projective_point,
    second_intersection,
)


def P(x, y):
    return Point(Fraction(x), Fraction(y))


coords = st.fractions(min_value=-20, max_value=20, max_denominator=12)
points = st.builds(Point, coords, coords)


# -- primitive types ---------------------------------------------------------

def test_point_equality_and_immutability():
    assert P(1, 2) == Point(Fraction(2, 2), Fraction(4, 2))
    assert P(1, 2) != P(1, 3)
    assert tuple(P(3, 4)) == (Fraction(3), Fraction(4))
    with pytest.raises(AttributeError):
        P(0, 0).x = 1
    with pytest.raises(TypeError):
        hash(P(0, 0))


def test_line_projective_equality():
    assert Line(1, 1, -2) == Line(2, 2, -4)
    assert Line(1, 0, 0) != Line(1, 0, 1)
    assert Line(Fraction(1), Fraction(-1), 0) == Line(-3, 3, 0)
    with pytest.raises(ValueError):
        Line(0, 0, 5)


def test_symbolic_line_stores_its_fields():
    # as a symbolic point or circle: the fields as given, ints made
    # Fractions, then the int 1
    a, b, c, d, k = RationalFunction.variables()
    line = Line(a / k, 1 / k, b)
    assert line._h == (a / k, 1 / k, b, 1) and type(line._h[-1]) is int
    assert line == Line(a, 1, b * k)
    mixed = Line(1, a, 0)
    assert [type(x) for x in mixed._h] == [Fraction, RationalFunction, Fraction, int]
    assert (mixed.u, mixed.v, mixed.w) == (1, a, 0)
    with pytest.raises(ValueError, match="line needs u or v nonzero"):
        Line(0, 0, a)


NOT_EXACT = [0.5, Decimal("0.5"), 0.5j, "1/2", None]


@pytest.mark.parametrize("bad", NOT_EXACT, ids=lambda v: type(v).__name__)
def test_fields_must_be_int_fraction_or_rational_function(bad):
    a = RationalFunction.variable("a")
    name = type(bad).__name__
    for cls, arity in ((Point, 2), (Line, 3), (Circle, 3)):
        for i in range(arity):
            for other in (Fraction(1), a):       # rational and symbolic rest
                fields = [other] * arity
                fields[i] = bad
                with pytest.raises(TypeError, match=name):
                    cls(*fields)
    # an int field next to a RationalFunction is still exact
    p = Point(a, 0)
    assert p.x == a and p.y == 0 and type(p.y) is Fraction


def test_circle_monic_structural_equality():
    unit = Circle(Fraction(0), Fraction(0), Fraction(-1))
    assert unit == Circle(0, Fraction(0), -1)
    assert unit.center() == P(0, 0)
    assert unit.radius_squared() == 1
    # imaginary-radius members are legal objects (needed for pencil algebra)
    ghost = Circle(Fraction(0), Fraction(0), Fraction(1))
    assert ghost.radius_squared() == -1


# -- constructions -----------------------------------------------------------

def test_midpoint():
    assert midpoint(P(0, 0), P(2, 4)) == P(1, 2)
    p = P(-7, 3)
    assert midpoint(p, p) == p


def test_line_through():
    assert line_through(P(0, 0), P(1, 1)) == Line(1, -1, 0)
    assert line_through(P(2, 0), P(1, 1)) == Line(1, 1, -2)
    with pytest.raises(CoincidentPoints):
        line_through(P(5, 5), P(5, 5))


def test_intersect_lines():
    x_axis = Line(0, 1, 0)
    y_axis = Line(1, 0, 0)
    assert intersect_lines(y_axis, x_axis) == P(0, 0)
    with pytest.raises(ParallelLines):
        intersect_lines(Line(1, 1, 0), Line(1, 1, -5))
    with pytest.raises(CoincidentLines):
        intersect_lines(Line(1, 1, -2), Line(2, 2, -4))


def test_parallel_lines_error_carries_both():
    l1, l2 = Line(1, 1, 0), Line(2, 2, -5)
    try:
        intersect_lines(l1, l2)
    except ParallelLines as exc:
        assert exc.lines == (l1, l2)
    else:
        pytest.fail("expected ParallelLines")


@given(points, points, points, points)
def test_intersection_lies_on_both_lines(p1, p2, p3, p4):
    try:
        l1, l2 = line_through(p1, p2), line_through(p3, p4)
        meet = intersect_lines(l1, l2)
    except (CoincidentPoints, ParallelLines, CoincidentLines):
        return
    assert is_on_line(meet, l1) and is_on_line(meet, l2)


def test_perp_bisector():
    assert perp_bisector(P(0, 0), P(2, 0)) == Line(1, 0, -1)
    assert perp_bisector(P(0, 0), P(0, 2)) == Line(0, 1, -1)
    with pytest.raises(CoincidentPoints):
        perp_bisector(P(1, 1), P(1, 1))


@given(points, points)
def test_perp_bisector_properties(p, q):
    if p == q:
        return
    bis = perp_bisector(p, q)
    assert is_perpendicular(bis, line_through(p, q))
    assert is_on_line(midpoint(p, q), bis)
    # any point on it is equidistant (squared) from p and q
    probe = second = None
    for t in (Fraction(0), Fraction(1), Fraction(-3, 2)):
        # param along the bisector direction (v, -u) from the midpoint
        m = midpoint(p, q)
        probe = Point(m.x + t * bis.v, m.y - t * bis.u)
        dp = (probe.x - p.x) ** 2 + (probe.y - p.y) ** 2
        dq = (probe.x - q.x) ** 2 + (probe.y - q.y) ** 2
        assert dp == dq


def test_perp_through():
    x_axis = Line(0, 1, 0)
    assert perp_through(P(0, 0), x_axis) == Line(1, 0, 0)
    slanted = Line(3, -2, 7)
    perp = perp_through(P(1, -4), slanted)
    assert is_perpendicular(perp, slanted)
    assert is_on_line(P(1, -4), perp)


def test_parallelogram_fourth():
    assert parallelogram_fourth(P(0, 0), P(1, 0), P(0, 1)) == P(1, 1)
    y = P(2, 3)
    z = P(-1, 5)
    assert parallelogram_fourth(y, y, z) == z


@given(points, points, points)
def test_parallelogram_sides_parallel(x, y, z):
    if x == y or x == z or y == z or is_collinear(x, y, z):
        return
    w = parallelogram_fourth(x, y, z)
    assert is_parallel(line_through(x, y), line_through(z, w))
    assert is_parallel(line_through(y, w), line_through(x, z))


def test_circumcenter():
    assert circumcenter(P(0, 0), P(2, 0), P(0, 2)) == P(1, 1)
    with pytest.raises(CollinearPoints):
        circumcenter(P(0, 0), P(1, 1), P(2, 2))


def test_circumcenter_frozen_instance():
    # distances to all of (-3,0), (-2,-2), (2,0) must be 25/4
    center = circumcenter(P(-3, 0), P(-2, -2), P(2, 0))
    assert center == P(Fraction(-1, 2), 0)
    for corner in (P(-3, 0), P(-2, -2), P(2, 0)):
        dist2 = (center.x - corner.x) ** 2 + (center.y - corner.y) ** 2
        assert dist2 == Fraction(25, 4)


@given(points, points, points)
def test_circumcenter_equidistant(p, q, r):
    try:
        center = circumcenter(p, q, r)
    except (CoincidentPoints, CollinearPoints):
        return
    d1 = (center.x - p.x) ** 2 + (center.y - p.y) ** 2
    d2 = (center.x - q.x) ** 2 + (center.y - q.y) ** 2
    d3 = (center.x - r.x) ** 2 + (center.y - r.y) ** 2
    assert d1 == d2 == d3


def test_newton_line():
    with pytest.raises(DegenerateNewtonLine):
        newton_line(P(0, 0), P(1, 0), P(1, 1), P(0, 1))
    line = newton_line(P(0, 0), P(4, 0), P(5, 3), P(1, 2))
    assert line == Line(1, 0, Fraction(-5, 2))
    assert is_on_line(P(Fraction(5, 2), Fraction(3, 2)), line)
    assert is_on_line(P(Fraction(5, 2), 1), line)


# -- circles -------------------------------------------------------------------

def test_circle_on_diameter():
    assert circle_on_diameter(P(-1, 0), P(1, 0)) == Circle(0, 0, -1)
    assert circle_on_diameter(P(0, 0), P(0, 2)) == Circle(0, -2, 0)
    with pytest.raises(CoincidentPoints):
        circle_on_diameter(P(1, 1), P(1, 1))


def test_power_on_diameter_circle_is_dot_product():
    circle = circle_on_diameter(P(1, 0), P(0, 1))
    assert power_of(P(0, 0), circle) == 0  # (1,0).(0,1) = 0: origin on circle
    assert is_on_circle(P(0, 0), circle)


def power_of(p, circle):
    from butterfly import power_of_point
    return power_of_point(p, circle)


@given(points, points, points)
def test_power_equals_dot_product(p, u, v):
    if u == v:
        return
    circle = circle_on_diameter(u, v)
    dot = (u.x - p.x) * (v.x - p.x) + (u.y - p.y) * (v.y - p.y)
    assert power_of(p, circle) == dot


def test_circumcircle():
    assert circumcircle(P(1, 0), P(0, 1), P(-1, 0)) == Circle(0, 0, -1)
    assert circumcircle(P(0, 0), P(2, 0), P(0, 2)) == Circle(-2, -2, 0)
    with pytest.raises(CollinearPoints):
        circumcircle(P(0, 0), P(1, 0), P(2, 0))
    with pytest.raises(CoincidentPoints):
        circumcircle(P(0, 0), P(0, 0), P(1, 1))


@given(points, points, points)
def test_circumcircle_passes_through_inputs(p, q, r):
    try:
        circle = circumcircle(p, q, r)
    except (CoincidentPoints, CollinearPoints):
        return
    assert is_on_circle(p, circle)
    assert is_on_circle(q, circle)
    assert is_on_circle(r, circle)


def test_power_of_point_basics():
    unit = Circle(Fraction(0), Fraction(0), Fraction(-1))
    assert power_of(P(0, 0), unit) == -1
    assert power_of(P(1, 0), unit) == 0
    assert power_of(P(2, 0), unit) == 3


def test_second_intersection():
    from butterfly import second_intersection
    unit = Circle(Fraction(0), Fraction(0), Fraction(-1))
    slope_one = line_through(P(1, 0), P(0, -1))
    assert second_intersection(unit, slope_one, P(1, 0)) == P(0, -1)
    tangent = Line(1, 0, -1)  # x = 1, tangent at (1, 0)
    assert second_intersection(unit, tangent, P(1, 0)) == P(1, 0)


def test_second_intersection_frozen_chord():
    from butterfly import second_intersection
    unit = Circle(Fraction(0), Fraction(0), Fraction(-1))
    start = P(Fraction(3, 5), Fraction(4, 5))
    chord = line_through(start, P(0, Fraction(1, 2)))
    other = second_intersection(unit, chord, start)
    assert other != start
    assert is_on_circle(other, unit)
    assert is_on_line(other, chord)


def test_second_intersection_preconditions():
    from butterfly import PointNotOnCircle, PointNotOnLine, second_intersection
    unit = Circle(Fraction(0), Fraction(0), Fraction(-1))
    x_axis = Line(0, 1, 0)
    with pytest.raises(PointNotOnLine):
        second_intersection(unit, x_axis, P(1, 1))
    with pytest.raises(PointNotOnCircle):
        second_intersection(unit, x_axis, P(2, 0))


def test_on_unit_circle():
    assert on_unit_circle(Fraction(0)) == P(1, 0)
    assert on_unit_circle(Fraction(1)) == P(0, 1)
    assert on_unit_circle(Fraction(-1)) == P(0, -1)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=20))
def test_half_angle_point_is_on_circle(t):
    unit = Circle(Fraction(0), Fraction(0), Fraction(-1))
    assert is_on_circle(on_unit_circle(t), unit)


def test_are_concyclic():
    assert are_concyclic(P(1, 0), P(0, 1), P(-1, 0), P(0, -1))
    assert not are_concyclic(P(1, 0), P(0, 1), P(-1, 0), P(0, -2))


def test_are_coaxial_frozen_pencil():
    c1 = Circle(Fraction(0), Fraction(0), Fraction(-1))   # x^2+y^2-1
    c2 = Circle(Fraction(-2), Fraction(0), Fraction(0))   # x^2+y^2-2x
    c3 = Circle(Fraction(-4), Fraction(0), Fraction(1))   # x^2+y^2-4x+1
    # independent oracle: solve lam+mu = 1 with lam*c1 + mu*c2 = c3 from the
    # d-component (-2*mu = -4 -> mu = 2, lam = -1), then verify e and f
    lam, mu = Fraction(-1), Fraction(2)
    assert lam + mu == 1
    assert lam * c1.d + mu * c2.d == c3.d
    assert lam * c1.e + mu * c2.e == c3.e
    assert lam * c1.f + mu * c2.f == c3.f
    assert are_coaxial(c1, c2, c3)


def test_are_coaxial_rejects_and_refutes():
    c1 = Circle(Fraction(0), Fraction(0), Fraction(-1))
    c2 = Circle(Fraction(-2), Fraction(0), Fraction(0))
    off_pencil = Circle(Fraction(-4), Fraction(1), Fraction(1))
    assert not are_coaxial(c1, c2, off_pencil)
    with pytest.raises(CoincidentCircles):
        are_coaxial(c1, Circle(0, Fraction(0), -1), c2)


def test_concentric_circles_form_degenerate_pencil():
    c1 = Circle(Fraction(0), Fraction(0), Fraction(-1))
    c2 = Circle(Fraction(0), Fraction(0), Fraction(-4))
    c3 = Circle(Fraction(0), Fraction(0), Fraction(-9))
    assert are_coaxial(c1, c2, c3)


# -- predicates ----------------------------------------------------------------

def test_relation_predicates():
    assert is_midpoint(P(0, 0), P(4, -2), P(-4, 2))
    assert not is_midpoint(P(1, 0), P(4, -2), P(-4, 2))
    assert is_perpendicular(Line(1, 0, 0), Line(0, 1, 0))
    assert is_parallel(Line(1, 1, 0), Line(1, 1, -5))
    assert is_collinear(P(0, 0), P(1, 2), P(2, 4))
    assert not is_collinear(P(0, 0), P(1, 2), P(2, 5))


def test_point_on_dispatch():
    assert point_on(P(1, 0), Circle(Fraction(0), Fraction(0), Fraction(-1)))
    assert point_on(P(2, 2), Line(1, -1, 0))
    with pytest.raises(TypeError):
        point_on(P(0, 0), P(1, 1))


# -- cross ratios ----------------------------------------------------------------

def test_cross_ratio_harmonic_quadruple():
    pts = [P(t, 0) for t in (0, 1, 2, Fraction(2, 3))]
    assert cross_ratio(*pts) == -1
    # swapping the first pair preserves harmonicity
    assert cross_ratio(pts[1], pts[0], pts[2], pts[3]) == -1
    assert harmonic(*pts)


def test_cross_ratio_vertical_line():
    pts = [P(5, t) for t in (0, 1, 2, Fraction(2, 3))]
    assert cross_ratio(*pts) == -1


def test_cross_ratio_errors():
    with pytest.raises(NotCollinear):
        cross_ratio(P(0, 0), P(1, 0), P(2, 0), P(1, 1))
    with pytest.raises(CoincidentPoints):
        cross_ratio(P(1, 1), P(1, 1), P(1, 1), P(1, 1))
    with pytest.raises(DivisionByZero):
        cross_ratio(P(0, 0), P(1, 0), P(1, 0), P(Fraction(2, 3), 0))


@given(st.permutations(range(4)), st.fractions(min_value=-5, max_value=5, max_denominator=6),
       st.fractions(min_value=-5, max_value=5, max_denominator=6))
def test_cross_ratio_affine_invariance(perm, scale, shift):
    if scale == 0:
        return
    ts = [Fraction(0), Fraction(1), Fraction(3), Fraction(-2)]
    ts = [ts[i] for i in perm]
    before = cross_ratio(*(P(t, 0) for t in ts))
    # reparametrize the line by an affine map and tilt it off the axis
    after = cross_ratio(*(P(scale * t + shift, 2 * (scale * t + shift)) for t in ts))
    assert before == after


def test_pencil_cross_ratio_matches_transversal():
    vertex = P(0, 5)
    pts = [P(t, 0) for t in (0, 1, 2, Fraction(2, 3))]
    assert pencil_cross_ratio(vertex, *pts) == cross_ratio(*pts)
    # a different transversal through the same pencil gives the same value
    other = [intersect_lines(line_through(vertex, p), Line(0, 1, -1)) for p in pts]
    assert cross_ratio(*other) == -1


# -- the homogeneous bodies against the affine formulas ------------------------
#
# Every construction has one body, written on homogeneous coordinates; for
# Fraction inputs it runs on Python ints.  The functions below are the affine
# formulas, kept here as the reference: a construction must return the same
# values coordinate by coordinate (a line's stored triple and a circle's
# coefficients included) and raise the same exception class with the same
# message.

def ref_midpoint(p, q):
    return Point((p.x + q.x) / 2, (p.y + q.y) / 2)


def ref_line_through(p, q):
    dx = q.x - p.x
    dy = q.y - p.y
    if dx == 0 and dy == 0:
        raise CoincidentPoints("no unique line through coincident points")
    return Line(dy, -dx, dx * p.y - dy * p.x)


def ref_intersect_lines(l1, l2):
    det = l1.u * l2.v - l2.u * l1.v
    if det == 0:
        if l1 == l2:
            raise CoincidentLines("cannot intersect a line with itself")
        raise ParallelLines(l1=l1, l2=l2)
    x = (l1.v * l2.w - l2.v * l1.w) / det
    y = (l2.u * l1.w - l1.u * l2.w) / det
    return Point(x, y)


def ref_perp_bisector(p, q):
    if p == q:
        raise CoincidentPoints("perpendicular bisector needs distinct points")
    return Line(2 * (q.x - p.x), 2 * (q.y - p.y),
                p.x * p.x + p.y * p.y - q.x * q.x - q.y * q.y)


def ref_circumcenter(p, q, r):
    if p == q or q == r or p == r:
        raise CoincidentPoints("circumcenter needs three distinct points")
    try:
        return ref_intersect_lines(ref_perp_bisector(p, q), ref_perp_bisector(q, r))
    except (ParallelLines, CoincidentLines):
        raise CollinearPoints("no circumcenter for collinear points") from None


def _ref_det3(r1, r2, r3):
    a, b, c = r1
    d, e, f = r2
    g, h, i = r3
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def ref_circumcircle(p, q, r):
    if p == q or q == r or p == r:
        raise CoincidentPoints("circumcircle needs three distinct points")
    det = _ref_det3((p.x, p.y, 1), (q.x, q.y, 1), (r.x, r.y, 1))
    if det == 0:
        raise CollinearPoints("no circumcircle for collinear points")
    sp = -(p.x * p.x + p.y * p.y)
    sq = -(q.x * q.x + q.y * q.y)
    sr = -(r.x * r.x + r.y * r.y)
    d = _ref_det3((sp, p.y, 1), (sq, q.y, 1), (sr, r.y, 1)) / det
    e = _ref_det3((p.x, sp, 1), (q.x, sq, 1), (r.x, sr, 1)) / det
    f = _ref_det3((p.x, p.y, sp), (q.x, q.y, sq), (r.x, r.y, sr)) / det
    return Circle(d, e, f)


def ref_on_unit_circle(t):
    t2 = t * t
    den = 1 + t2
    return Point((1 - t2) / den, 2 * t / den)


def ref_second_intersection(circle, line, known):
    if line.u * known.x + line.v * known.y + line.w != 0:
        raise PointNotOnLine("second_intersection: point is not on the line")
    if power_of_point(known, circle) != 0:
        raise PointNotOnCircle("second_intersection: point is not on the circle")
    u, v = line.u, line.v
    a_coeff = u * u + v * v
    b_coeff = 2 * known.x * v - 2 * known.y * u + circle.d * v - circle.e * u
    if b_coeff == 0:
        return known
    t = -b_coeff / a_coeff
    return Point(known.x + t * v, known.y - t * u)


def _fields(value):
    if isinstance(value, Point):
        return ("Point", value.x, value.y)
    if isinstance(value, Line):
        return ("Line", value.u, value.v, value.w)
    if isinstance(value, Circle):
        return ("Circle", value.d, value.e, value.f)
    raise TypeError(type(value))


def _outcome(fn, *args):
    try:
        value = fn(*args)
    except DegenerateConfig as exc:
        return ("raise", type(exc), str(exc))
    fields = _fields(value)
    assert all(type(x) is Fraction for x in fields[1:]), fields
    return fields


def assert_same(fn, ref, *args):
    assert _outcome(fn, *args) == _outcome(ref, *args)


@st.composite
def point_pairs(draw):
    p = draw(points)
    kind = draw(st.sampled_from(("free", "coincident", "shared_x", "shared_y")))
    if kind == "coincident":
        return p, Point(p.x, p.y)
    q = draw(points)
    if kind == "shared_x":
        return p, Point(p.x, q.y)
    if kind == "shared_y":
        return p, Point(q.x, p.y)
    return p, q


@st.composite
def point_triples(draw):
    p, q = draw(point_pairs())
    kind = draw(st.sampled_from(
        ("free", "p=q", "q=r", "p=r", "collinear", "all_equal")))
    if kind == "free":
        return p, q, draw(points)
    if kind == "p=q":
        return p, Point(p.x, p.y), draw(points)
    if kind == "q=r":
        return p, q, Point(q.x, q.y)
    if kind == "p=r":
        return p, q, Point(p.x, p.y)
    if kind == "all_equal":
        return p, Point(p.x, p.y), Point(p.x, p.y)
    t = draw(coords)
    return p, q, Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y))


@st.composite
def lines(draw):
    u, v, w = draw(coords), draw(coords), draw(coords)
    if u == 0 and v == 0:
        v = Fraction(1)
    return Line(u, v, w)


@st.composite
def line_pairs(draw):
    l1 = draw(lines())
    kind = draw(st.sampled_from(
        ("free", "parallel", "coincident", "same", "horizontal")))
    if kind == "free":
        return l1, draw(lines())
    if kind == "same":
        return l1, l1
    if kind == "horizontal":  # u1 = u2 = 0, (v, w) not proportional
        v1, v2 = draw(coords.filter(bool)), draw(coords.filter(bool))
        w1 = draw(coords)
        return (Line(Fraction(0), v1, w1),
                Line(Fraction(0), v2, w1 * v2 / v1 + draw(coords.filter(bool))))
    k = draw(coords.filter(bool))
    w = draw(coords) if kind == "parallel" else k * l1.w
    return l1, Line(k * l1.u, k * l1.v, w)


@given(point_pairs())
def test_two_point_constructions_match_reference(pair):
    assert_same(midpoint, ref_midpoint, *pair)
    assert_same(line_through, ref_line_through, *pair)
    assert_same(perp_bisector, ref_perp_bisector, *pair)


@given(line_pairs())
def test_intersect_lines_matches_reference(pair):
    assert_same(intersect_lines, ref_intersect_lines, *pair)


@given(point_triples())
def test_three_point_constructions_match_reference(triple):
    assert_same(circumcenter, ref_circumcenter, *triple)
    assert_same(circumcircle, ref_circumcircle, *triple)


@given(st.fractions(min_value=-50, max_value=50, max_denominator=20)
       | st.integers(min_value=-50, max_value=50))
def test_on_unit_circle_matches_reference(t):
    assert _outcome(on_unit_circle, t) == _outcome(ref_on_unit_circle, Fraction(t))


@given(points, points, points, st.sampled_from(
    ("chord", "tangent", "off_line", "off_circle", "off_both")))
def test_second_intersection_matches_reference(known, centre, toward, kind):
    if known == centre:
        centre = Point(centre.x + 1, centre.y)
    # the circle through `known` centred at `centre`
    circle = Circle(-2 * centre.x, -2 * centre.y,
                    -(known.x * known.x + known.y * known.y)
                    + 2 * centre.x * known.x + 2 * centre.y * known.y)
    if kind == "tangent":
        line = perp_through(known, ref_line_through(known, centre))
    elif toward == known:
        line = Line(1, 1, -known.x - known.y)
    else:
        line = ref_line_through(known, toward)
    if kind in ("off_line", "off_both"):
        line = Line(line.u, line.v, line.w + 1)
    if kind in ("off_circle", "off_both"):
        circle = Circle(circle.d, circle.e, circle.f + 1)
    assert_same(second_intersection, ref_second_intersection, circle, line, known)


def test_degenerate_inputs_raise_like_reference():
    p, q, r = P(1, 2), P(3, 5), P(5, 8)  # r on line pq
    cases = [
        (line_through, ref_line_through, (p, p), CoincidentPoints),
        (perp_bisector, ref_perp_bisector, (p, p), CoincidentPoints),
        (intersect_lines, ref_intersect_lines, (Line(1, 2, 3), Line(2, 4, 0)),
         ParallelLines),
        (intersect_lines, ref_intersect_lines, (Line(1, 2, 3), Line(2, 4, 6)),
         CoincidentLines),
        (circumcenter, ref_circumcenter, (p, p, r), CoincidentPoints),
        (circumcenter, ref_circumcenter, (p, q, q), CoincidentPoints),
        (circumcenter, ref_circumcenter, (p, q, p), CoincidentPoints),
        (circumcenter, ref_circumcenter, (p, q, r), CollinearPoints),
        (circumcircle, ref_circumcircle, (p, q, p), CoincidentPoints),
        (circumcircle, ref_circumcircle, (p, q, r), CollinearPoints),
    ]
    for fn, ref, args, exc in cases:
        with pytest.raises(exc):
            fn(*args)
        assert _outcome(fn, *args) == _outcome(ref, *args)


def _collinear_triple(backend):
    """Three distinct collinear points, with int coordinates, Fraction ones
    or symbolic ones."""
    if backend == "int":
        return Point(1, 2), Point(3, 5), Point(5, 8)
    if backend == "Fraction":
        return (P(Fraction(1, 2), Fraction(1, 3)), P(Fraction(3, 2), Fraction(5, 6)),
                P(Fraction(5, 2), Fraction(4, 3)))
    a = RationalFunction.variable("a")
    return Point(a, 2 * a), Point(a + 1, 2 * a + 1), Point(a + 3, 2 * a + 3)


@pytest.mark.parametrize("backend", ["int", "Fraction", "symbolic"])
def test_no_circle_through_three_points_is_classified_once(backend):
    # circumcenter and circumcircle tell coincident from collinear points
    # alike: two equal points, in any of the three positions (or all three
    # equal), are CoincidentPoints; distinct collinear points CollinearPoints
    p, q, r = _collinear_triple(backend)
    cases = [((p, p, r), CoincidentPoints), ((p, q, q), CoincidentPoints),
             ((p, q, p), CoincidentPoints), ((p, p, p), CoincidentPoints),
             ((p, q, r), CollinearPoints)]
    for fn in (circumcenter, circumcircle):
        name = fn.__name__
        for args, exc in cases:
            message = (f"{name} needs three distinct points" if exc is CoincidentPoints
                       else f"no {name} for collinear points")
            with pytest.raises(exc) as raised:
                fn(*args)
            assert type(raised.value) is exc and str(raised.value) == message


# -- the predicates and the remaining constructions ----------------------------
#
# `is_collinear`, `is_midpoint`, `is_on_line`, `is_perpendicular`,
# `are_coaxial`, `Point.__eq__`, `perp_through`, `parallelogram_fourth` and
# `circle_on_diameter` decide on Python ints for Fraction inputs and build
# their outputs without re-validation.  The affine formulas below are the
# reference: verdicts must agree, and constructions must store the same
# values (or raise the same error), both on rational inputs and on inputs
# with fields lifted to equal RationalFunctions.  `Point.__eq__`,
# `Circle.__eq__`, `_rank_one` (so `Line.__eq__` and `are_coaxial`),
# `is_parallel`, `is_midpoint` and `is_collinear` decide with `==`, so their
# tests run every argument order.

def ref_point_eq(p, q):
    return not (p.x - q.x) and not (p.y - q.y)


def ref_is_collinear(p, q, r):
    return not ((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def ref_is_midpoint(m, p, q):
    return not (2 * m.x - p.x - q.x) and not (2 * m.y - p.y - q.y)


def ref_is_on_line(p, line):
    return not (line.u * p.x + line.v * p.y + line.w)


def ref_is_perpendicular(l1, l2):
    return not (l1.u * l2.u + l1.v * l2.v)


def _ref_same_circle(c1, c2):
    return not (c1.d - c2.d) and not (c1.e - c2.e) and not (c1.f - c2.f)


def ref_are_coaxial(c1, c2, c3):
    if (_ref_same_circle(c1, c2) or _ref_same_circle(c1, c3)
            or _ref_same_circle(c2, c3)):
        raise CoincidentCircles("coaxial test needs pairwise distinct circles")
    r1 = (c1.d - c2.d, c1.e - c2.e, c1.f - c2.f)
    r2 = (c1.d - c3.d, c1.e - c3.e, c1.f - c3.f)
    return (not (r1[0] * r2[1] - r1[1] * r2[0])
            and not (r1[0] * r2[2] - r1[2] * r2[0])
            and not (r1[1] * r2[2] - r1[2] * r2[1]))


def ref_perp_through(p, line):
    return Line(-line.v, line.u, line.v * p.x - line.u * p.y)


def ref_parallelogram_fourth(x, y, z):
    return Point(y.x + z.x - x.x, y.y + z.y - x.y)


def ref_circle_on_diameter(p, q):
    if ref_point_eq(p, q):
        raise CoincidentPoints("diameter endpoints must be distinct")
    return Circle(-(p.x + q.x), -(p.y + q.y), p.x * q.x + p.y * q.y)


def point_eq(p, q):
    return p == q


def circle_eq(c1, c2):
    return c1 == c2


def _exact(value):
    """A value as comparable parts, down to each coordinate's representation."""
    if isinstance(value, bool):
        return value
    if isinstance(value, RationalFunction):
        return ("RationalFunction", value.num, value.den)
    if isinstance(value, Fraction):
        return ("Fraction", value)
    kind, *parts = _fields(value)
    return (kind, *(_exact(part) for part in parts))


def _exact_outcome(fn, *args):
    try:
        return _exact(fn(*args))
    except DegenerateConfig as exc:
        return ("raise", type(exc), str(exc))


def lift(obj, index):
    """`obj` with its field `index` turned into an equal RationalFunction."""
    kind, *parts = _fields(obj)
    parts[index] = RationalFunction.constant(parts[index])
    return {"Point": Point, "Line": Line, "Circle": Circle}[kind](*parts)


def assert_same_on_both_backends(fn, ref, args, data):
    """`fn` against `ref` on rational `args`, then with each argument in
    turn, and then all of them, given one drawn field as an equal
    RationalFunction.  A lifted argument keeps its other fields as Fractions
    (ints in its tuple) and the others stay rational, so a two-sided test
    meets int, Fraction and RationalFunction operands on either side of
    `==`, the reflected `__eq__` included."""
    args = tuple(args)
    fraction_outcome = _exact_outcome(fn, *args)
    assert fraction_outcome == _exact_outcome(ref, *args)
    if isinstance(fraction_outcome, tuple) and fraction_outcome[0] != "raise":
        assert all(part[0] == "Fraction" for part in fraction_outcome[1:])
    lifted = tuple(lift(arg, data.draw(st.integers(0, len(_fields(arg)) - 2)))
                   for arg in args)
    one_lifted = [args[:i] + lifted[i:i + 1] + args[i + 1:] for i in range(len(args))]
    for mixed in one_lifted + [lifted]:
        mixed_outcome = _exact_outcome(fn, *mixed)
        assert mixed_outcome == _exact_outcome(ref, *mixed)
        if isinstance(fraction_outcome, bool) or fraction_outcome[0] == "raise":
            assert mixed_outcome == fraction_outcome


@st.composite
def lines_with_points(draw):
    """A line (axis-parallel ones on purpose) and a point on it or off it."""
    kind = draw(st.sampled_from(("free", "horizontal", "vertical")))
    u, v, w = draw(coords), draw(coords), draw(coords)
    if kind == "horizontal" or (u == 0 and v == 0):
        u, v = Fraction(0), v or Fraction(1)
    elif kind == "vertical":
        u, v = u or Fraction(1), Fraction(0)
    line = Line(u, v, w)
    t = draw(coords)
    on = Point(t, -(u * t + w) / v) if v else Point(-w / u, t)
    if draw(st.booleans()):
        return line, on
    return line, Point(on.x + draw(coords), on.y + draw(coords))


@st.composite
def perpendicular_pairs(draw):
    l1, l2 = draw(line_pairs())
    if draw(st.booleans()):
        k = draw(coords.filter(bool))
        l2 = Line(-k * l1.v, k * l1.u, draw(coords))
    return l1, l2


@st.composite
def midpoint_triples(draw):
    p, q = draw(point_pairs())
    m = Point((p.x + q.x) / 2, (p.y + q.y) / 2)
    kind = draw(st.sampled_from(("exact", "off_x", "off_y", "free")))
    if kind == "off_x":
        m = Point(m.x + draw(coords.filter(bool)), m.y)
    elif kind == "off_y":
        m = Point(m.x, m.y + draw(coords.filter(bool)))
    elif kind == "free":
        m = draw(points)
    return m, p, q


circles = st.builds(Circle, coords, coords, coords)


def zero_rich_circle(draw, column):
    """A circle whose coefficient `column` (0 for d, 1 for e, 2 for f) is 0."""
    fields = [draw(coords) for _ in range(3)]
    fields[column] = Fraction(0)
    return Circle(*fields)


@st.composite
def circle_triples(draw):
    c1, c2 = draw(circles), draw(circles)
    kind = draw(st.sampled_from(
        ("free", "pencil", "concentric", "same_d", "same_f", "c1=c2", "c1=c3",
         "c2=c3", "f=0", "d=0 or e=0")))
    if kind in ("f=0", "d=0 or e=0"):
        # `are_coaxial` takes its differences from the sparsest circle:
        # put one at a drawn position, with a tie for it half the time, and
        # c2 free, in a pencil with c1 and it, or equal to either
        column = 2 if kind == "f=0" else draw(st.sampled_from((0, 1)))
        sparse = zero_rich_circle(draw, column)
        if draw(st.booleans()):
            c1 = zero_rich_circle(draw, draw(st.integers(0, 2)))
        other = draw(st.sampled_from(("free", "pencil", "c2=c1", "c2=sparse")))
        if other == "pencil":
            t = draw(coords)
            c2 = Circle(c1.d + t * (sparse.d - c1.d), c1.e + t * (sparse.e - c1.e),
                        c1.f + t * (sparse.f - c1.f))
        elif other != "free":
            same = c1 if other == "c2=c1" else sparse
            c2 = Circle(same.d, same.e, same.f)
        triple = [c1, c2]
        triple.insert(draw(st.integers(0, 2)), sparse)
        return tuple(triple)
    if kind == "pencil":
        t = draw(coords)
        return c1, c2, Circle(c1.d + t * (c2.d - c1.d), c1.e + t * (c2.e - c1.e),
                              c1.f + t * (c2.f - c1.f))
    if kind == "concentric":
        return (c1, Circle(c1.d, c1.e, draw(coords)),
                Circle(c1.d, c1.e, draw(coords)))
    if kind == "same_d":  # the first column is zero; the three are in no pencil
        return (c1, Circle(c1.d, c1.e + 1, c2.f),
                Circle(c1.d, c1.e, c1.f + draw(coords.filter(bool))))
    if kind == "same_f":  # two of the three minors vanish, the first decides
        return c1, Circle(c2.d, c2.e, c1.f), Circle(draw(coords), draw(coords), c1.f)
    c3 = draw(circles)
    if kind == "c1=c2":
        return c1, Circle(c1.d, c1.e, c1.f), c3
    if kind == "c1=c3":
        return c1, c2, Circle(c1.d, c1.e, c1.f)
    if kind == "c2=c3":
        return c1, c2, Circle(c2.d, c2.e, c2.f)
    return c1, c2, c3


@given(point_pairs(), st.data())
def test_two_point_integer_paths_match_reference(pair, data):
    for order in permutations(pair):
        assert_same_on_both_backends(point_eq, ref_point_eq, order, data)
    assert_same_on_both_backends(circle_on_diameter, ref_circle_on_diameter,
                                 pair, data)
    assert_same_on_both_backends(line_through, ref_line_through, pair, data)


@given(point_triples(), st.data())
def test_three_point_integer_paths_match_reference(triple, data):
    for order in permutations(triple):
        assert_same_on_both_backends(is_collinear, ref_is_collinear, order, data)
    assert_same_on_both_backends(parallelogram_fourth, ref_parallelogram_fourth,
                                 triple, data)
    assert_same_on_both_backends(circumcenter, ref_circumcenter, triple, data)


@given(midpoint_triples(), st.data())
def test_is_midpoint_matches_reference(triple, data):
    for order in permutations(triple):
        assert_same_on_both_backends(is_midpoint, ref_is_midpoint, order, data)


@given(lines_with_points(), st.data())
def test_line_and_point_integer_paths_match_reference(line_point, data):
    line, p = line_point
    assert_same_on_both_backends(is_on_line, ref_is_on_line, (p, line), data)
    assert_same_on_both_backends(perp_through, ref_perp_through, (p, line), data)


@given(perpendicular_pairs(), st.data())
def test_is_perpendicular_matches_reference(pair, data):
    assert_same_on_both_backends(is_perpendicular, ref_is_perpendicular, pair,
                                 data)


@given(circle_triples(), st.data())
def test_are_coaxial_matches_reference(triple, data):
    for order in permutations(triple):
        assert_same_on_both_backends(are_coaxial, ref_are_coaxial, order, data)
        assert_same_on_both_backends(circle_eq, _ref_same_circle, order[:2], data)


def ref_is_parallel(l1, l2):
    return not (l1.u * l2.v - l2.u * l1.v)


def ref_line_eq(l1, l2):
    """Proportional triples, tested on all three 2x2 minors."""
    return (not (l1.u * l2.v - l2.u * l1.v) and not (l1.u * l2.w - l2.u * l1.w)
            and not (l1.v * l2.w - l2.v * l1.w))


def line_eq(l1, l2):
    return l1 == l2


@given(line_pairs(), st.data())
def test_line_relations_match_reference(pair, data):
    for order in permutations(pair):
        assert_same_on_both_backends(is_parallel, ref_is_parallel, order, data)
        assert_same_on_both_backends(line_eq, ref_line_eq, order, data)


def _value_outcome(fn, *args):
    """A scalar result as a RationalFunction, or the error it raised."""
    try:
        value = fn(*args)
    except DegenerateConfig as exc:
        return ("raise", type(exc), str(exc))
    if not isinstance(value, RationalFunction):
        assert type(value) is Fraction, value
        value = RationalFunction.constant(value)
    return ("value", value)


@given(points, circles)
def test_power_of_point_matches_reference(p, circle):
    want = ("value", RationalFunction.constant(
        p.x * p.x + p.y * p.y + circle.d * p.x + circle.e * p.y + circle.f))
    assert _value_outcome(power_of_point, p, circle) == want
    assert _value_outcome(power_of_point, lift(p, 0), circle) == want
    assert _value_outcome(power_of_point, p, lift(circle, 2)) == want


@given(point_pairs(), st.lists(coords, min_size=4, max_size=4), points)
def test_cross_ratios_match_reference(pair, ts, vertex):
    """Points p + t(q - p) have the cross ratio of their parameters t."""
    p, q = pair
    if p == q:
        return
    pts = [Point(p.x + t * (q.x - p.x), p.y + t * (q.y - p.y)) for t in ts]
    t1, t2, t3, t4 = ts
    den = (t1 - t4) * (t2 - t3)
    if den:
        want = ("value", RationalFunction.constant((t1 - t3) * (t2 - t4) / den))
        assert _value_outcome(cross_ratio, *pts) == want
        if not is_collinear(vertex, p, q):
            assert _value_outcome(pencil_cross_ratio, vertex, *pts) == want
    lifted = [lift(pt, 1) for pt in pts]
    assert _value_outcome(cross_ratio, *lifted) == _value_outcome(cross_ratio, *pts)
    assert _value_outcome(pencil_cross_ratio, vertex, *lifted) == \
        _value_outcome(pencil_cross_ratio, vertex, *pts)


def test_mixed_rational_and_symbolic_coordinates():
    a = RationalFunction.variable("a")
    one = Fraction(1)
    p, q = Point(a, one), Point(-a, one)           # mixed coordinates
    assert not (p == q) and p == Point(a, one)
    assert p._h == (a, one, 1)
    assert is_collinear(p, q, Point(Fraction(0), one))
    assert is_midpoint(Point(Fraction(0), one), p, q)
    horizontal = line_through(p, q)
    assert is_on_line(Point(2 * a, one), horizontal)
    assert is_perpendicular(horizontal, perp_through(p, horizontal))
    assert _exact(parallelogram_fourth(p, q, p)) == _exact(q)
    assert _exact(circle_on_diameter(p, q)) == _exact(ref_circle_on_diameter(p, q))
    c1 = Circle(a, Fraction(0), Fraction(-1))
    with pytest.raises(CoincidentCircles):
        are_coaxial(c1, Circle(a, Fraction(0), Fraction(-1)), Circle(one, one, one))
    assert are_coaxial(c1, Circle(a, Fraction(0), Fraction(-4)),
                       Circle(a, Fraction(0), Fraction(-9)))


def ref_line_through_cross(p, q):
    """`line_through`'s one formula, affinely: w = x2*y1 - x1*y2."""
    dx = q.x - p.x
    dy = q.y - p.y
    return Line(dy, -dx, q.x * p.y - p.x * q.y)


def ref_circumcenter_cramer(p, q, r):
    """`circumcenter`'s one formula, affinely: the perpendicular bisectors
    of pq and qr met by Cramer's rule."""
    dx1, dy1 = q.x - p.x, q.y - p.y
    dx2, dy2 = r.x - q.x, r.y - q.y
    det = dx1 * dy2 - dx2 * dy1
    n2 = q.x * q.x + q.y * q.y
    w1 = p.x * p.x + p.y * p.y - n2
    w2 = n2 - r.x * r.x - r.y * r.y
    return Point((dy1 * w2 - dy2 * w1) / (2 * det),
                 (dx2 * w1 - dx1 * w2) / (2 * det))


def test_symbolic_objects_are_built_term_for_term_as_the_affine_formulas():
    """With last entries 1 the homogeneous bodies replay the affine formulas'
    field operations, so each field's num and den are structurally equal
    (`Polynomial ==` compares canonical forms) to the reference's.  The
    symbolic sizes and their evaluation work are those of these formulas;
    `line_through` and `circumcenter` are compared with their one formula
    (`ref_line_through` and `ref_circumcenter` give the same values in
    other representations, and stay value references)."""
    a, b, c, d, k = RationalFunction.variables()
    zero = a * 0
    P0, A, B, C, D = (Point(zero, zero), Point(a, zero), Point(b, k * b),
                      Point(c, zero), Point(d, k * d))
    line_ab, line_cd = ref_line_through(A, B), ref_line_through(C, D)
    # points with denominators, where a different order of operations would
    # give another representation of the same value
    O, Q = ref_circumcenter(A, B, C), ref_intersect_lines(line_ab, line_cd)
    cases = [
        (midpoint, ref_midpoint, (O, Q)),
        (line_through, ref_line_through_cross, (O, Q)),
        (intersect_lines, ref_intersect_lines, (ref_line_through(O, B), line_cd)),
        (perp_bisector, ref_perp_bisector, (O, Q)),
        (perp_through, ref_perp_through, (P0, line_ab)),
        (perp_through, ref_perp_through, (O, ref_line_through(Q, D))),
        (parallelogram_fourth, ref_parallelogram_fourth, (O, Q, B)),
        (circumcenter, ref_circumcenter_cramer, (O, Q, B)),
        (circumcircle, ref_circumcircle, (O, Q, B)),
        (circle_on_diameter, ref_circle_on_diameter, (O, Q)),
        (on_unit_circle, ref_on_unit_circle, (a / b,)),
    ]
    for fn, ref, args in cases:
        obj = fn(*args)
        # one homogeneous tuple: the public fields, then the int 1
        assert obj._h == (*_fields(obj)[1:], 1), fn.__name__
        assert type(obj._h[-1]) is int, fn.__name__
        built = _exact(obj)
        assert all(part[0] == "RationalFunction" for part in built[1:]), \
            fn.__name__
        assert built == _exact(ref(*args)), fn.__name__
    assert line_through(O, Q) == ref_line_through(O, Q)
    assert circumcenter(O, Q, B) == ref_circumcenter(O, Q, B)
    # The Vieta form puts each coordinate over z*s*(u^2 + v^2) in one
    # division, where the affine formula adds t*v to x with t a quotient of
    # its own: the same values in other (unreduced) representations.  No
    # workload or proof builds a second intersection symbolically.
    circle = circumcircle(A, B, C)
    assert second_intersection(circle, line_through(A, D), A) == \
        ref_second_intersection(circle, line_through(A, D), A)


# -- int inputs never produce floats --------------------------------------------

def test_int_inputs_give_fractions_everywhere():
    o, a, b, c = Point(0, 0), Point(1, 1), Point(3, 0), Point(0, 5)
    line1, line2 = Line(1, 1, -3), Line(1, -1, 0)
    unit = Circle(0, 0, -1)
    outputs = [
        o, line1, unit, unit.center(), unit.radius_squared(),
        midpoint(o, a), line_through(o, a), intersect_lines(line1, line2),
        perp_bisector(o, a), perp_through(a, line1),
        parallelogram_fourth(o, a, b), newton_line(o, b, a, c),
        circumcenter(o, b, c), circumcircle(o, b, c), circle_on_diameter(o, a),
        power_of_point(a, unit),
        second_intersection(unit, Line(1, -1, -1), Point(1, 0)),
        on_unit_circle(2), on_unit_circle(0),
        cross_ratio(Point(0, 0), Point(1, 0), Point(2, 0), Point(3, 0)),
        pencil_cross_ratio(Point(0, 1), Point(0, 0), Point(1, 0), Point(2, 0),
                           Point(3, 0)),
    ]
    assert intersect_lines(line1, line2) == P(Fraction(3, 2), Fraction(3, 2))
    for value in outputs:
        fields = (_fields(value)[1:] if isinstance(value, (Point, Line, Circle))
                  else (value,))
        assert all(type(x) is Fraction for x in fields), value


# -- canonical int tuples ---------------------------------------------------------
#
# A rational Point, Line or Circle stores ints with gcd 1 and a positive last
# entry, so equal rational points, and equal rational circles, store equal
# tuples.

def assert_canonical(obj):
    ints = obj._h
    assert type(ints[0]) is int, obj
    assert all(type(n) is int for n in ints), ints
    assert gcd(*ints) == 1 and ints[-1] > 0, ints


@given(point_triples(), lines_with_points(), line_pairs(), circle_triples(),
       st.fractions(min_value=-50, max_value=50, max_denominator=20))
def test_rational_objects_are_stored_canonically(triple, line_point, pair,
                                                 circle_triple, t):
    p, q, r = triple
    line, on = line_point
    built = [p, q, r, line, on, *pair, *circle_triple, on_unit_circle(t),
             on_unit_circle(int(t))]
    steps = [
        (midpoint, p, q), (line_through, p, q), (perp_bisector, p, q),
        (circle_on_diameter, p, q), (circumcenter, p, q, r),
        (circumcircle, p, q, r), (parallelogram_fourth, p, q, r),
        (newton_line, p, q, r, on), (intersect_lines, *pair),
        (perp_through, on, line), (perp_through, p, pair[0]),
    ]
    for fn, *args in steps:
        try:
            built.append(fn(*args))
        except DegenerateConfig:
            pass
    try:
        built.append(second_intersection(circumcircle(p, q, r),
                                         line_through(p, on), p))
    except DegenerateConfig:
        pass
    for obj in built:
        assert_canonical(obj)


def test_equal_rationals_store_equal_tuples():
    p = Point(Fraction(1, 2), Fraction(1, 3))
    assert p == Point(Fraction(2, 4), Fraction(2, 6))
    assert p._h == (3, 2, 6)
    assert midpoint(P(0, 0), P(1, 1))._h == (1, 1, 2)
    assert on_unit_circle(Fraction(1, 3))._h == (4, 3, 5)  # (8, 6, 10) reduced
    assert Circle(Fraction(-1, 2), 0, Fraction(2, 3))._h == (-3, 0, 4, 6)
    assert circumcircle(P(1, 0), P(0, 1), P(-1, 0))._h == (0, 0, -1, 1)


def test_same_line_through_different_points_compares_equal():
    first = line_through(P(0, 0), P(1, 1))
    second = line_through(P(2, 2), P(-3, -3))
    # each keeps the exact coefficients it was built with
    assert (first.u, first.v, first.w) == (1, -1, 0)
    assert (second.u, second.v, second.w) == (-5, 5, 0)
    assert first == second
    assert line_through(P(Fraction(1, 2), 0), P(0, Fraction(1, 3))) == \
        line_through(P(-1, 1), P(2, -1))
    assert line_through(P(0, 0), P(1, 1)) != line_through(P(0, 1), P(1, 2))


def test_second_intersection_tangent_returns_known_point():
    unit = Circle(0, 0, -1)
    known = on_unit_circle(Fraction(1, 2))            # (3/5, 4/5)
    tangent = perp_through(known, line_through(P(0, 0), known))
    assert second_intersection(unit, tangent, known) is known
    chord = line_through(known, P(0, -1))
    assert second_intersection(unit, chord, known) == P(0, -1)


# -- the two integer-only entries ------------------------------------------------

ints = st.integers(min_value=-10**6, max_value=10**6)


@given(ints, ints, ints.filter(bool))
def test_projective_point_equals_the_affine_point(x, y, z):
    p = projective_point(x, y, z)
    assert p == Point(Fraction(x, z), Fraction(y, z))
    assert p._h == Point(Fraction(x, z), Fraction(y, z))._h
    assert_canonical(p)


def test_projective_point_rejects_z_zero_and_non_ints():
    for x, y in ((0, 0), (1, 0), (3, -4)):
        with pytest.raises(ValueError):
            projective_point(x, y, 0)
    for bad in (Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            projective_point(bad, 0, 1)


def _sign(value):
    return (value > 0) - (value < 0)


@given(points, points, points)
def test_line_side_is_the_sign_of_the_line_equation(p, q, r):
    if p == q:
        return
    line = line_through(p, q)
    assert line_side(p, line) == line_side(q, line) == 0
    assert line_side(r, line) == _sign(line.u * r.x + line.v * r.y + line.w)
    # the same line scaled by a negative factor swaps the sides
    assert line_side(r, Line(-line.u, -line.v, -line.w)) == -line_side(r, line)


def test_line_side_rejects_symbolic_inputs():
    a, b = RationalFunction.variables()[:2]
    rational_line, rational_point = Line(1, 1, -1), P(0, 0)
    with pytest.raises(TypeError):
        line_side(Point(a, b), rational_line)
    with pytest.raises(TypeError):
        line_side(rational_point, Line(a, b, 1))
    with pytest.raises(TypeError):
        line_side(Point(a, b), Line(a, b, 1))
