"""Reference closed forms for every step of the symbolic verification.

Each object below is an independently keyed-in coordinate formula over
Q(a, b, c, d, k) for one construction step in the diagonal gauge

    P = (0, 0),  A = (a, 0),  B = (b, kb),  C = (c, 0),  D = (d, kd).

The symbolic checkers construct the same objects with the geometry kernel
and compare against these by exact rational-function equality, so a slip
in either the kernel or this table shows up as a named mismatch.  Nothing
here is computed from the kernel; that independence is the point.

The table is built on its first read, not on import: the first attribute
read (`closedforms.AXIS`, `from butterfly.closedforms import AXIS`) goes
through the module `__getattr__` to `_forms`, which evaluates the formulas
once, as keyed in by hand, and caches them.  Only the symbolic checkers
read the table, so `verify`, `render` and numeric `prove-paper` never
build it.
"""

from __future__ import annotations

from functools import cache

from .geom import Line, Point
from .ratfun import RationalFunction


def __getattr__(name: str):
    try:
        return _forms()[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None


@cache
def _forms() -> dict:
    """The variables a, b, c, d, k and every closed form, by name."""
    a, b, c, d, k = RationalFunction.variables()

    # circumcenters of triangles BCD, CDA, DAB, ABC
    O_A = Point(
        (b * d * k**2 + b * d + c**2) / (2 * c),
        (b * c * k**2 + b * c - b * d * k**2 - b * d - c**2 + c * d * k**2 + c * d)
        / (2 * c * k),
    )
    O_B = Point(
        (a + c) / 2,
        (a * c - a * d - c * d + d**2 * k**2 + d**2) / (2 * d * k),
    )
    O_C = Point(
        (a**2 + b * d * k**2 + b * d) / (2 * a),
        (-(a**2) + a * b * k**2 + a * b + a * d * k**2 + a * d - b * d * k**2 - b * d)
        / (2 * a * k),
    )
    O_D = Point(
        (a + c) / 2,
        (-a * b + a * c + b**2 * k**2 + b**2 - b * c) / (2 * b * k),
    )

    # midpoints of O_aO_c and O_bO_d
    M_CENTERS = Point(
        (a**2 * c + a * b * d * k**2 + a * b * d + a * c**2 + b * c * d * k**2 + b * c * d)
        / (4 * a * c),
        (-(a**2) * c + 2 * a * b * c * k**2 + 2 * a * b * c - a * b * d * k**2 - a * b * d
         - a * c**2 + 2 * a * c * d * k**2 + 2 * a * c * d - b * c * d * k**2 - b * c * d)
        / (4 * a * c * k),
    )
    N_CENTERS = Point(
        (a + c) / 2,
        (a * b * c - 2 * a * b * d + a * c * d + b**2 * d * k**2 + b**2 * d
         - 2 * b * c * d + b * d**2 * k**2 + b * d**2) / (4 * b * d * k),
    )

    # the perpendicular from P to MN; also the perpendicular from P to PW below.
    # Stated as slope y = -(abdk + bcdk) x / (abc - abd + acd - bcd); cleared form:
    AXIS = Line(
        a * b * d * k + b * c * d * k,
        a * b * c - a * b * d + a * c * d - b * c * d,
        a * 0,
    )

    # side lines through A,B and C,D, cleared of the (a-b), (c-d) denominators
    LINE_AB = Line(b * k, a - b, -a * b * k)
    LINE_CD = Line(d * k, c - d, -c * d * k)

    # intersections of AXIS with AB and CD
    Q_FIRST = Point(
        (-a * b * c + a * b * d - a * c * d + b * c * d) / (a * d - b * c),
        (a * b * d * k + b * c * d * k) / (a * d - b * c),
    )
    R_FIRST = Point(
        (a * b * c - a * b * d + a * c * d - b * c * d) / (a * d - b * c),
        (-a * b * d * k - b * c * d * k) / (a * d - b * c),
    )

    # meets of the three perpendicular-bisector pairs: (AC, BD), (AB, CD), (AD, BC)
    X_MEET = Point(
        (a + c) / 2,
        (-a + b * k**2 + b - c + d * k**2 + d) / (2 * k),
    )
    Y_MEET = Point(
        (a**2 * d - b**2 * d * k**2 - b**2 * d - b * c**2 + b * d**2 * k**2 + b * d**2)
        / (2 * a * d - 2 * b * c),
        (a**2 * c - a**2 * d - a * c**2 + a * d**2 * k**2 + a * d**2 - b**2 * c * k**2
         - b**2 * c + b**2 * d * k**2 + b**2 * d + b * c**2 - b * d**2 * k**2 - b * d**2)
        / (2 * a * d * k - 2 * b * c * k),
    )
    Z_MEET = Point(
        (a**2 * b + b**2 * d * k**2 + b**2 * d - b * d**2 * k**2 - b * d**2 - c**2 * d)
        / (2 * a * b - 2 * c * d),
        (-(a**2) * b + a**2 * c + a * b**2 * k**2 + a * b**2 - a * c**2 - b**2 * d * k**2
         - b**2 * d + b * d**2 * k**2 + b * d**2 + c**2 * d - c * d**2 * k**2 - c * d**2)
        / (2 * a * b * k - 2 * c * d * k),
    )

    # coordinates of the parallelogram vertex W opposite X
    W_X = (
        a**3 * b * d - a**2 * b * c * d - a * b**3 * d * k**2 - a * b**3 * d
        + 2 * a * b**2 * d**2 * k**2 + 2 * a * b**2 * d**2 - a * b * c**2 * d
        - a * b * d**3 * k**2 - a * b * d**3 - b**3 * c * d * k**2 - b**3 * c * d
        + 2 * b**2 * c * d**2 * k**2 + 2 * b**2 * c * d**2 + b * c**3 * d
        - b * c * d**3 * k**2 - b * c * d**3
    ) / (2 * a**2 * b * d - 2 * a * b**2 * c - 2 * a * c * d**2 + 2 * b * c**2 * d)

    W_Y = (
        a**3 * b * c - a**3 * b * d + a**3 * c * d - 2 * a**2 * b * c**2
        + a**2 * b * c * d - 2 * a**2 * c**2 * d - a * b**3 * c * k**2 - a * b**3 * c
        + a * b**3 * d * k**2 + a * b**3 * d + a * b**2 * c * d * k**2 + a * b**2 * c * d
        - 2 * a * b**2 * d**2 * k**2 - 2 * a * b**2 * d**2 + a * b * c**3
        + a * b * c**2 * d + a * b * c * d**2 * k**2 + a * b * c * d**2
        + a * b * d**3 * k**2 + a * b * d**3 + a * c**3 * d - a * c * d**3 * k**2
        - a * c * d**3 + b**3 * c * d * k**2 + b**3 * c * d - 2 * b**2 * c * d**2 * k**2
        - 2 * b**2 * c * d**2 - b * c**3 * d + b * c * d**3 * k**2 + b * c * d**3
    ) / (2 * a**2 * b * d * k - 2 * a * b**2 * c * k - 2 * a * c * d**2 * k
         + 2 * b * c**2 * d * k)

    W_VERTEX = Point(W_X, W_Y)

    # intersections of AXIS with AD and BC
    Q_SECOND = Point(
        (-a * b * c + a * b * d - a * c * d + b * c * d) / (a * b - c * d),
        (a * b * d * k + b * c * d * k) / (a * b - c * d),
    )
    R_SECOND = Point(
        (a * b * c - a * b * d + a * c * d - b * c * d) / (a * b - c * d),
        (-a * b * d * k - b * c * d * k) / (a * b - c * d),
    )

    # diagonal midpoints and the shared power ratio of the coaxiality lemma
    M_DIAG = Point((a + c) / 2, a * 0)
    N_DIAG = Point((b + d) / 2, k * (b + d) / 2)

    POWER_RATIO = (k**2 + 1) * b * d / (a * c)

    return locals()
