"""Frozen coordinate formulas: anchor-instance values and internal identities.

The anchor instance a=2, b=1, c=-3, d=-2, k=1 was worked out by hand; these
tests pin every stored formula to those numbers so neither the table nor the
evaluator can drift without notice.  The symbolic provers separately compare
the same table against the kernel's constructions.
"""

from fractions import Fraction

from butterfly import closedforms as cf
from butterfly.geom import is_on_line, is_perpendicular, line_through, parallelogram_fourth

SIGMA = {"a": Fraction(2), "b": Fraction(1), "c": Fraction(-3),
         "d": Fraction(-2), "k": Fraction(1)}


def at_anchor(point):
    return (point.x.evaluate(SIGMA), point.y.evaluate(SIGMA))


def F(n, d=1):
    return Fraction(n, d)


def test_circumcenters_at_anchor():
    assert at_anchor(cf.O_A) == (F(-5, 6), F(-1, 6))
    assert at_anchor(cf.O_B) == (F(-1, 2), F(0))
    assert at_anchor(cf.O_C) == (F(0), F(-1))
    assert at_anchor(cf.O_D) == (F(-1, 2), F(-3, 2))


def test_center_midpoints_at_anchor():
    assert at_anchor(cf.M_CENTERS) == (F(-5, 12), F(-7, 12))
    assert at_anchor(cf.N_CENTERS) == (F(-1, 2), F(-3, 4))


def test_axis_and_side_lines_at_anchor():
    u = cf.AXIS.u.evaluate(SIGMA)
    v = cf.AXIS.v.evaluate(SIGMA)
    w = cf.AXIS.w.evaluate(SIGMA)
    assert (u, v, w) == (F(2), F(4), F(0))

    ab = (cf.LINE_AB.u.evaluate(SIGMA), cf.LINE_AB.v.evaluate(SIGMA),
          cf.LINE_AB.w.evaluate(SIGMA))
    cd = (cf.LINE_CD.u.evaluate(SIGMA), cf.LINE_CD.v.evaluate(SIGMA),
          cf.LINE_CD.w.evaluate(SIGMA))
    assert ab == (F(1), F(1), F(-2))
    assert cd == (F(-2), F(-1), F(-6))


def test_first_intersections_at_anchor():
    assert at_anchor(cf.Q_FIRST) == (F(4), F(-2))
    assert at_anchor(cf.R_FIRST) == (F(-4), F(2))


def test_bisector_meets_at_anchor():
    assert at_anchor(cf.X_MEET) == (F(-1, 2), F(-1, 2))
    assert at_anchor(cf.Y_MEET) == (F(5, 2), F(3, 2))
    assert at_anchor(cf.Z_MEET) == (F(-5, 4), F(3, 2))
    assert at_anchor(cf.W_VERTEX) == (F(7, 4), F(7, 2))


def test_second_intersections_at_anchor():
    assert at_anchor(cf.Q_SECOND) == (F(1), F(-1, 2))
    assert at_anchor(cf.R_SECOND) == (F(-1), F(1, 2))


def test_diag_midpoints_and_ratio_at_anchor():
    assert at_anchor(cf.M_DIAG) == (F(-1, 2), F(0))
    assert at_anchor(cf.N_DIAG) == (F(-1, 2), F(-1, 2))
    assert cf.POWER_RATIO.evaluate(SIGMA) == F(2, 3)


# -- identities that hold inside the table itself ----------------------------

def test_shared_x_coordinate_of_bd_symmetric_centers():
    half_sum = (cf.a + cf.c) / 2
    assert cf.O_B.x == half_sum
    assert cf.O_D.x == half_sum
    assert cf.N_CENTERS.x == half_sum
    assert cf.X_MEET.x == half_sum


def test_both_q_r_pairs_are_symmetric_about_origin():
    assert not (cf.Q_FIRST.x + cf.R_FIRST.x)
    assert not (cf.Q_FIRST.y + cf.R_FIRST.y)
    assert not (cf.Q_SECOND.x + cf.R_SECOND.x)
    assert not (cf.Q_SECOND.y + cf.R_SECOND.y)


def test_axis_passes_through_origin_and_meets_mn_perpendicularly():
    assert not cf.AXIS.w
    assert is_perpendicular(cf.AXIS, line_through(cf.M_CENTERS, cf.N_CENTERS))


def test_w_is_the_parallelogram_vertex_of_the_meets():
    w = parallelogram_fourth(cf.X_MEET, cf.Y_MEET, cf.Z_MEET)
    assert w == cf.W_VERTEX


def test_intersections_lie_on_their_lines():
    assert is_on_line(cf.Q_FIRST, cf.AXIS)
    assert is_on_line(cf.Q_FIRST, cf.LINE_AB)
    assert is_on_line(cf.R_FIRST, cf.AXIS)
    assert is_on_line(cf.R_FIRST, cf.LINE_CD)
