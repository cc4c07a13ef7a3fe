"""Deterministic SVG figures for evaluated constructions.

Layout happens in exact rational arithmetic: the viewport is the content
bounding box plus a 10% margin, infinite lines are clipped to it exactly,
and only the final attribute strings are rounded (shortest decimal within
1e-6 of the true value, decided on the value's numerator and denominator;
it is cosmetic, as nothing ever reads coordinates back out of an SVG).
Identical scenes therefore render to identical bytes.  The y-axis is
flipped to mathematical orientation.  Exact values are preserved in a
metadata comment.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .dsl import Assertion, Definition, Name, ParamDecl, eval_expr
from .errors import EmptyScene
from .geom import Circle, Line, Point
from .scalar import format_rational

_MICRO = Fraction(1, 10 ** 6)

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


def _round_decimal(x: Fraction) -> str:
    """Shortest decimal with at most six places that sits within 1e-6 of x.

    Decided on ints: with x = n/d and s = 10**places, q is n*s/d rounded
    half to even, as `round` rounds a Fraction, and q/s is within 1e-6 of
    x exactly when |q*d - n*s| * 10**6 <= s*d.
    """
    n, d = x.numerator, x.denominator
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


def _radius_approx(radius_squared: Fraction) -> Fraction:
    """Floor square root on the 1e-6 grid; exact integer arithmetic only."""
    return Fraction(isqrt((radius_squared.numerator * 10 ** 12)
                          // radius_squared.denominator), 10 ** 6)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _clip_line(line: Line, xmin, xmax, ymin, ymax):
    """Intersect a line with the viewport rectangle, exactly.

    Returns the two extreme boundary points, or None when the line misses
    the rectangle (or only touches a corner).
    """
    candidates = []
    if line.v:
        for x in (xmin, xmax):
            y = -(line.w + line.u * x) / line.v
            if ymin <= y <= ymax:
                candidates.append((x, y))
    if line.u:
        for y in (ymin, ymax):
            x = -(line.w + line.v * y) / line.u
            if xmin <= x <= xmax:
                candidates.append((x, y))
    distinct = sorted(set(candidates))
    if len(distinct) < 2:
        return None
    return distinct[0], distinct[-1]


def render_svg(scene: Scene, width_px: int = 640) -> str:
    """Emit an SVG 1.1 document for the scene; byte-identical across re-renders."""
    if scene.is_empty():
        raise EmptyScene("nothing to draw")
    if width_px < 64:
        raise ValueError("width_px must be at least 64")

    drawable_circles = [(circle, cls) for circle, cls in scene.circles
                        if circle.radius_squared() > 0]

    xs, ys = [], []
    for _, point, _ in scene.points:
        xs.append(Fraction(point.x))
        ys.append(Fraction(point.y))
    for p, q, _ in scene.segments:
        xs.extend((Fraction(p.x), Fraction(q.x)))
        ys.extend((Fraction(p.y), Fraction(q.y)))
    for circle, _ in drawable_circles:
        center = circle.center()
        r = _radius_approx(circle.radius_squared()) + _MICRO
        xs.extend((Fraction(center.x) - r, Fraction(center.x) + r))
        ys.extend((Fraction(center.y) - r, Fraction(center.y) + r))

    if xs:
        xmin, xmax, ymin, ymax = min(xs), max(xs), min(ys), max(ys)
    else:
        xmin, xmax, ymin, ymax = (Fraction(-1), Fraction(1),
                                  Fraction(-1), Fraction(1))
    if xmin == xmax:
        xmin -= 1
        xmax += 1
    if ymin == ymax:
        ymin -= 1
        ymax += 1
    margin = max(xmax - xmin, ymax - ymin) / 10
    xmin -= margin
    xmax += margin
    ymin -= margin
    ymax += margin

    scale = Fraction(width_px) / (xmax - xmin)
    height = (ymax - ymin) * scale

    def to_px(x: Fraction, y: Fraction) -> tuple[Fraction, Fraction]:
        return (Fraction(x) - xmin) * scale, (ymax - Fraction(y)) * scale

    out = []
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px}" height="{_round_decimal(height)}" '
        f'viewBox="0 0 {width_px} {_round_decimal(height)}">')
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

    for circle, cls in drawable_circles:
        center = circle.center()
        cx, cy = to_px(center.x, center.y)
        r = _radius_approx(circle.radius_squared()) * scale
        out.append(f'  <circle class="circle {cls}" cx="{_round_decimal(cx)}" '
                   f'cy="{_round_decimal(cy)}" r="{_round_decimal(r)}"/>')

    strokes = []
    for line, cls in scene.lines:
        clipped = _clip_line(line, xmin, xmax, ymin, ymax)
        if clipped is not None:
            strokes.append((*clipped, cls))
    strokes.extend(((p.x, p.y), (q.x, q.y), cls) for p, q, cls in scene.segments)
    for (x1, y1), (x2, y2), cls in strokes:
        px1, py1 = to_px(x1, y1)
        px2, py2 = to_px(x2, y2)
        out.append(f'  <line class="{cls}" x1="{_round_decimal(px1)}" '
                   f'y1="{_round_decimal(py1)}" x2="{_round_decimal(px2)}" '
                   f'y2="{_round_decimal(py2)}"/>')

    for label, point, cls in scene.points:
        px, py = to_px(point.x, point.y)
        d = (f"M {_round_decimal(px - 3)} {_round_decimal(py)} "
             f"a 3 3 0 1 0 6 0 a 3 3 0 1 0 -6 0 z")
        out.append(f'  <path class="point {cls}" d="{d}"/>')
    for label, point, _ in scene.points:
        if not label:
            continue
        px, py = to_px(point.x, point.y)
        out.append(f'  <text class="label" x="{_round_decimal(px + 5)}" '
                   f'y="{_round_decimal(py - 5)}">{_escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


def scene_from_construction(construction, assignment) -> Scene:
    """Evaluate a parsed .geo program at a rational assignment and stage it.

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
    for stmt in construction.statements:
        if isinstance(stmt, ParamDecl):
            continue
        if isinstance(stmt, Definition):
            value = eval_expr(stmt.expr, env)
            env[stmt.name] = value
            if isinstance(value, Point):
                scene.add_point(stmt.name, value)
            elif isinstance(value, Line):
                scene.add_line(value)
            elif isinstance(value, Circle):
                scene.add_circle(value)
            continue
        arg_values = []
        for arg in stmt.args:
            value = eval_expr(arg, env)
            arg_values.append(value)
            named = isinstance(arg, Name)
            cls = "result" if named else "assertion"
            if isinstance(value, Point):
                scene.add_point(arg.ident if named else "", value, cls)
            elif isinstance(value, Line):
                scene.add_line(value, cls)
            elif isinstance(value, Circle):
                scene.add_circle(value, cls)
        if stmt.predicate == "midpoint":
            scene.add_segment(arg_values[1], arg_values[2], "assertion")
    return scene
