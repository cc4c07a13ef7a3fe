"""Deterministic SVG figures for evaluated constructions.

Layout happens in exact integer arithmetic: the viewport is the content
bounding box plus a 10% margin, held as four ints over one common
denominator, and infinite lines are clipped to it exactly.  Figures are
read from their int tuples, each pixel coordinate is one int numerator
over one positive int denominator, and only the final attribute strings
are rounded (shortest decimal within 1e-6 of the true value, decided on
that pair; it is cosmetic, as nothing ever reads coordinates back out of
an SVG).  Identical scenes therefore render to identical bytes.  The
y-axis is flipped to mathematical orientation.  Exact values are
preserved in a metadata comment, the one part that builds `Fraction`s.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .dsl import Assertion, Definition, Name, _compile_program
from .errors import EmptyScene
from .geom import Circle, Line, Point
from .scalar import format_rational

_STYLE = """\
    .construction { stroke: #8a8a8a; stroke-width: 1; fill: none; }
    .result { stroke: #c0392b; stroke-width: 1.5; fill: none; }
    .assertion { stroke: #2980b9; stroke-width: 1.5; fill: none; stroke-dasharray: 4 3; }
    .point { fill: #1a1a1a; stroke: none; }
    .point.result { fill: #c0392b; }
    .point.assertion { fill: #2980b9; }
    .label { font-family: sans-serif; font-size: 12px; fill: #1a1a1a; stroke: none; }"""


class Scene:
    """Points, segments, lines, and circles to draw, each with a style class.

    Classes are "construction" (default), "result" (objects an assertion
    talks about), and "assertion" (objects that exist only inside an
    assertion).  Adding an object that is already present just upgrades
    its class.  Each of the four lists starts empty unless given; two
    scenes are equal when their lists are.
    """

    def __init__(self, points: list | None = None, segments: list | None = None,
                 lines: list | None = None, circles: list | None = None):
        self.points = [] if points is None else points          # [label, Point, cls]
        self.segments = [] if segments is None else segments    # [Point, Point, cls]
        self.lines = [] if lines is None else lines             # [Line, cls]
        self.circles = [] if circles is None else circles       # [Circle, cls]

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{self.__class__.__qualname__}({fields})"

    def add_point(self, label: str, point: Point,
                  cls: str = "construction") -> None:
        entry = _merge(self.points, lambda e: e[1] == point, cls)
        if entry is None:
            self.points.append([label, point, cls])
        elif label and not entry[0]:
            entry[0] = label

    def add_segment(self, p: Point, q: Point,
                    cls: str = "construction") -> None:
        if _merge(self.segments, lambda e: (e[0] == p and e[1] == q)
                  or (e[0] == q and e[1] == p), cls) is None:
            self.segments.append([p, q, cls])

    def add_line(self, line: Line, cls: str = "construction") -> None:
        if _merge(self.lines, lambda e: e[0] == line, cls) is None:
            self.lines.append([line, cls])

    def add_circle(self, circle: Circle, cls: str = "construction") -> None:
        if _merge(self.circles, lambda e: e[0] == circle, cls) is None:
            self.circles.append([circle, cls])

    def is_empty(self) -> bool:
        return not (self.points or self.segments or self.lines or self.circles)


_CLASS_RANK = {"construction": 0, "result": 1, "assertion": 2}


def _merge(entries: list, matches, cls: str):
    """The first entry `matches` accepts, its class (last item) raised to
    `cls` when that ranks higher; None when no entry matches."""
    for entry in entries:
        if matches(entry):
            if _CLASS_RANK.get(cls, 0) > _CLASS_RANK.get(entry[-1], 0):
                entry[-1] = cls
            return entry
    return None


def _round_decimal(n: int, d: int) -> str:
    """Shortest decimal with at most six places that sits within 1e-6 of n/d.

    The denominator d is positive; n/d need not be reduced, as every test
    below scales with a common factor of n and d.  With s = 10**places, q
    is n*s/d rounded half to even, as `round` rounds a Fraction, and q/s
    is within 1e-6 of n/d exactly when |q*d - n*s| * 10**6 <= s*d.
    """
    for places in range(7):
        scale = 10 ** places
        q, r = divmod(n * scale, d)
        if 2 * r > d or 2 * r == d and q & 1:
            q += 1
        if abs(q * d - n * scale) * 10 ** 6 <= scale * d:
            if places == 0:
                return str(q)
            sign = "-" if q < 0 else ""
            q = abs(q)
            return f"{sign}{q // scale}.{q % scale:0{places}d}"
    raise AssertionError("six decimal places always reach 1e-6")


def _radius_approx(n: int, d: int) -> int:
    """The square root of n/d >= 0 floored to the 1e-6 grid, in millionths;
    exact integer arithmetic only."""
    return isqrt(n * 10 ** 12 // d)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _extremes(ratios: list, at: int = 0) -> tuple:
    """The first least and the first greatest of `ratios` by the value of
    entries `at`, `at + 1` of each: a numerator over a positive denominator."""
    lo = hi = ratios[0]
    for ratio in ratios:
        n, d = ratio[at], ratio[at + 1]
        if n * lo[at + 1] < lo[at] * d:
            lo = ratio
        elif n * hi[at + 1] > hi[at] * d:
            hi = ratio
    return lo, hi


def _ints(figure, kind: str) -> tuple:
    """A rational figure's int tuple; TypeError names a symbolic `kind`."""
    if type(figure._h[0]) is not int:
        raise TypeError(f"render_svg draws no symbolic {kind}")
    return figure._h


def _clip_line(line: tuple, left: int, right: int, bottom: int, top: int,
               unit: int):
    """Intersect a line's int tuple with the viewport rectangle, exactly.

    The rectangle is [left, right] x [bottom, top] in units of 1/unit, and
    so are the two boundary points returned, each as (x numerator, x
    denominator, y numerator, y denominator) with positive denominators:
    the extreme points in (x, y) order, or None when the line misses the
    rectangle (or only touches a corner).  All of them lie on the line, so
    x orders them, or y when the line is vertical.
    """
    u, v, w, _ = line  # u*x + v*y + w = 0, scaled by a positive int
    candidates = []
    if v:
        for x in (left, right):
            y, q = -(w * unit + u * x), v
            if q < 0:
                y, q = -y, -q
            if bottom * q <= y <= top * q:
                candidates.append((x, 1, y, q))
    if u:
        for y in (bottom, top):
            x, q = -(w * unit + v * y), u
            if q < 0:
                x, q = -x, -q
            if left * q <= x <= right * q:
                candidates.append((x, q, y, 1))
    if not candidates:
        return None
    at = 0 if v else 2
    lo, hi = _extremes(candidates, at)
    if lo[at] * hi[at + 1] == hi[at] * lo[at + 1]:
        return None
    return lo, hi


def render_svg(scene: Scene, width_px: int = 640) -> str:
    """Emit an SVG 1.1 document for the scene; byte-identical across re-renders."""
    if scene.is_empty():
        raise EmptyScene("nothing to draw")
    if width_px < 64:
        raise ValueError("width_px must be at least 64")

    lines = [(_ints(line, "line"), cls) for line, cls in scene.lines]
    # a drawable circle as its center, projective (x, y, z), and its radius
    # in millionths: S(x^2 + y^2) + Dx + Ey + F = 0 has center (-D, -E, 2S)
    # and radius^2 (D^2 + E^2 - 4FS) / 4S^2
    discs = []
    for circle, cls in scene.circles:
        d, e, f, s = _ints(circle, "circle")
        radius_squared = d * d + e * e - 4 * f * s
        if radius_squared > 0:
            discs.append(((-d, -e, 2 * s),
                          _radius_approx(radius_squared, 4 * s * s), cls))

    # the content's coordinates as (numerator, positive denominator) pairs
    xs, ys = [], []
    for _, point, _ in scene.points:
        x, y, z = _ints(point, "point")
        xs.append((x, z))
        ys.append((y, z))
    for p, q, _ in scene.segments:
        for x, y, z in (_ints(p, "segment"), _ints(q, "segment")):
            xs.append((x, z))
            ys.append((y, z))
    for (x, y, z), r, _ in discs:
        # the center plus and minus one millionth more than the radius drawn
        x, y, reach, den = x * 10 ** 6, y * 10 ** 6, (r + 1) * z, z * 10 ** 6
        xs.extend(((x - reach, den), (x + reach, den)))
        ys.extend(((y - reach, den), (y + reach, den)))

    # the viewport: the bounds over one denominator, unit, a multiple of 10
    # so that the margin of a tenth of the larger side is an int too
    if xs:
        (x0, d0), (x1, d1) = _extremes(xs)
        (y0, d2), (y1, d3) = _extremes(ys)
        unit = 10 * lcm(d0, d1, d2, d3)
        left, right = x0 * (unit // d0), x1 * (unit // d1)
        bottom, top = y0 * (unit // d2), y1 * (unit // d3)
    else:
        unit = 10
        left, right, bottom, top = -unit, unit, -unit, unit
    if left == right:
        left -= unit
        right += unit
    if bottom == top:
        bottom -= unit
        top += unit
    margin = max(right - left, top - bottom) // 10
    left -= margin
    right += margin
    bottom -= margin
    top += margin

    # x pixels are (x - left) * width_px / (right - left), y pixels run down
    # from top; each as one int numerator over one positive int denominator
    span = right - left

    def to_px(x: int, xq: int, y: int, yq: int) -> tuple[int, int, int, int]:
        """Pixel pairs of the point (x/xq, y/yq) in units of 1/unit."""
        return ((x - left * xq) * width_px, xq * span,
                (top * yq - y) * width_px, yq * span)

    def point_px(point: Point) -> tuple:
        x, y, z = point._h
        return to_px(x * unit, z, y * unit, z)

    out = []
    height = _round_decimal((top - bottom) * width_px, span)
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{height}" '
        f'viewBox="0 0 {width_px} {height}">')
    out.append("  <style>")
    out.append(_STYLE)
    out.append("  </style>")

    meta = ["  <!-- exact coordinates"]
    for label, point, _ in scene.points:
        shown = label or "(unlabeled)"
        meta.append(f"  point {shown} = ({format_rational(point.x)}, "
                    f"{format_rational(point.y)})")
    for p, q, _ in scene.segments:
        meta.append(f"  segment ({format_rational(p.x)}, {format_rational(p.y)})"
                    f" to ({format_rational(q.x)}, {format_rational(q.y)})")
    for line, _ in scene.lines:
        meta.append(f"  line [{format_rational(line.u)}, "
                    f"{format_rational(line.v)}, {format_rational(line.w)}]")
    for circle, _ in scene.circles:
        meta.append(f"  circle [{format_rational(circle.d)}, "
                    f"{format_rational(circle.e)}, {format_rational(circle.f)}]")
    meta.append("  -->")
    out.extend(meta)

    for (x, y, z), r, cls in discs:
        cx, cxq, cy, cyq = to_px(x * unit, z, y * unit, z)
        out.append(f'  <circle class="circle {cls}" cx="{_round_decimal(cx, cxq)}" '
                   f'cy="{_round_decimal(cy, cyq)}" '
                   f'r="{_round_decimal(r * width_px * unit, span * 10 ** 6)}"/>')

    strokes = []
    for line, cls in lines:
        clipped = _clip_line(line, left, right, bottom, top, unit)
        if clipped is not None:
            strokes.append((to_px(*clipped[0]), to_px(*clipped[1]), cls))
    strokes.extend((point_px(p), point_px(q), cls) for p, q, cls in scene.segments)
    for (x1, x1q, y1, y1q), (x2, x2q, y2, y2q), cls in strokes:
        out.append(f'  <line class="{cls}" x1="{_round_decimal(x1, x1q)}" '
                   f'y1="{_round_decimal(y1, y1q)}" x2="{_round_decimal(x2, x2q)}" '
                   f'y2="{_round_decimal(y2, y2q)}"/>')

    for label, point, cls in scene.points:
        x, xq, y, yq = point_px(point)
        d = (f"M {_round_decimal(x - 3 * xq, xq)} {_round_decimal(y, yq)} "
             f"a 3 3 0 1 0 6 0 a 3 3 0 1 0 -6 0 z")
        out.append(f'  <path class="point {cls}" d="{d}"/>')
    for label, point, _ in scene.points:
        if not label:
            continue
        x, xq, y, yq = point_px(point)
        out.append(f'  <text class="label" x="{_round_decimal(x + 5 * xq, xq)}" '
                   f'y="{_round_decimal(y - 5 * yq, yq)}">{_escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def scene_from_construction(construction, assignment) -> Scene:
    """Step a parsed .geo program at a rational assignment and stage it.

    Definitions enter as "construction" objects labeled by name; an object
    an assertion mentions by name is upgraded to "result"; objects built
    inline inside assertions enter as "assertion", as does the target
    segment of each midpoint assertion.  Assertion truth is not checked
    here; figures of false claims are legitimate.  A program with no
    assertion (every predicate takes points, lines or circles) and only
    scalar definitions raises EmptyScene before it is evaluated.  Every
    parameter must be bound to an int or Fraction (TypeError otherwise).
    """
    missing = [name for name in construction.params if name not in assignment]
    if missing:
        raise ValueError(f"unbound parameters: {', '.join(missing)}")
    for name in construction.params:
        if not isinstance(assignment[name], (int, Fraction)):
            raise TypeError(f"the value of {name} must be an int or Fraction, "
                            f"not {type(assignment[name]).__name__}")
    if not any(isinstance(stmt, Assertion)
               or isinstance(stmt, Definition) and stmt.type != "scalar"
               for stmt in construction.statements):
        raise EmptyScene("nothing to draw")
    env = {name: Fraction(assignment[name]) for name in construction.params}

    scene = Scene()
    for stmt, value in _compile_program(construction, assertions="yield")(env):
        if isinstance(stmt, Definition):
            _stage(scene, stmt.name, value, "construction")
            continue
        for arg, arg_value in zip(stmt.args, value):
            if isinstance(arg, Name):
                _stage(scene, arg.ident, arg_value, "result")
            else:
                _stage(scene, "", arg_value, "assertion")
        if stmt.predicate == "midpoint":
            scene.add_segment(value[1], value[2], "assertion")
    return scene


def _stage(scene: Scene, label: str, value, cls: str) -> None:
    """Add a point, line or circle to `scene`; a scalar draws nothing."""
    if isinstance(value, Point):
        scene.add_point(label, value, cls)
    elif isinstance(value, Line):
        scene.add_line(value, cls)
    elif isinstance(value, Circle):
        scene.add_circle(value, cls)
