"""Scene staging and deterministic SVG output."""

import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from butterfly.dsl import Assertion, Definition, Name, ParamDecl, eval_expr, parse
from butterfly.errors import DegenerateConfig, EmptyScene
from butterfly.geom import Circle, Line, Point
from butterfly.ratfun import RationalFunction
from butterfly.render import (
    _STYLE,
    Scene,
    _escape,
    _radius_approx,
    _round_decimal,
    render_svg,
    scene_from_construction,
)
from butterfly.scalar import derive_rng, format_rational, sample_rational
from tests.test_dsl import CORPUS, FIXTURES, HYGIENE

F = Fraction
ANCHOR = {"a": F(2), "b": F(1), "c": F(-3), "d": F(-2), "k": F(1)}


def thm1_scene():
    ast = parse((CORPUS / "thm1.geo").read_text())
    return scene_from_construction(ast, ANCHOR)


# -- decimal and radius helpers ----------------------------------------------------

def round_fraction(x: Fraction, factor: int = 1) -> str:
    """`_round_decimal` on x's numerator and denominator, both times `factor`."""
    return _round_decimal(x.numerator * factor, x.denominator * factor)


def test_round_decimal_shortest_within_tolerance():
    assert round_fraction(F(5)) == "5"
    assert round_fraction(F(1, 2)) == "0.5"
    assert round_fraction(F(-1, 8)) == "-0.125"
    assert round_fraction(F(1, 3)) == "0.333333"
    assert round_fraction(F(-1, 3)) == "-0.333333"
    assert round_fraction(F(1, 10 ** 7)) == "0"  # below the 1e-6 grid
    assert round_fraction(F(123, 10)) == "12.3"


def ref_round_decimal(x: Fraction) -> str:
    """The rounding as it was written on Fractions, kept as the reference."""
    for places in range(7):
        scale = 10 ** places
        q = round(x * scale)  # banker's rounding on Fractions is exact
        if abs(Fraction(q, scale) - x) <= F(1, 10 ** 6):
            if places == 0:
                return str(q)
            sign = "-" if q < 0 else ""
            q = abs(q)
            return f"{sign}{q // scale}.{q % scale:0{places}d}"
    raise AssertionError("six decimal places always reach 1e-6")


# an unreduced pair n*g/(d*g) rounds as n/d does
@given(st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12),
       st.integers(1, 10 ** 6))
def test_round_decimal_matches_fraction_rounding(n, d, g):
    assert round_fraction(F(n, d), g) == ref_round_decimal(F(n, d))


@pytest.mark.parametrize("places", range(7))
@given(k=st.integers(-10 ** 9, 10 ** 9), g=st.integers(1, 10 ** 6))
def test_round_decimal_matches_fraction_rounding_on_ties(places, k, g):
    # k/(2*10^p) with k odd sits halfway between two p-place decimals
    x = F(k, 2 * 10 ** places)
    assert round_fraction(x, g) == ref_round_decimal(x)


def test_radius_approx_is_floor_on_micro_grid():
    for rsq in (F(2), F(3, 7), F(25), F(1, 10 ** 6)):
        for factor in (1, 12):  # the pair need not be reduced
            r = F(_radius_approx(rsq.numerator * factor,
                                 rsq.denominator * factor), 10 ** 6)
            assert r * r <= rsq
            step = F(1, 10 ** 6)
            assert (r + step) * (r + step) > rsq
    assert _radius_approx(25, 1) == 5 * 10 ** 6


# -- scene bookkeeping ---------------------------------------------------------------

def test_scene_is_four_mutable_lists_compared_by_value():
    scene = Scene()
    assert repr(scene) == "Scene(points=[], segments=[], lines=[], circles=[])"
    scene.add_point("A", Point(F(1), F(2)))
    assert scene != Scene()
    assert scene == Scene(points=[["A", Point(F(1), F(2)), "construction"]])
    scene.lines = [[Line(F(1), F(0), F(0)), "result"]]
    assert scene.lines[0][1] == "result"
    assert Scene.__hash__ is None


def test_scene_class_upgrades_and_label_fill():
    scene = Scene()
    p = Point(F(1), F(2))
    scene.add_point("", p)
    scene.add_point("A", p, "assertion")
    assert scene.points == [["A", p, "assertion"]]
    scene.add_point("ignored", p, "construction")  # never downgrades
    assert scene.points == [["A", p, "assertion"]]

    line = Line(F(1), F(0), F(0))
    scene.add_line(line)
    scene.add_line(Line(F(2), F(0), F(0)), "result")  # same projective line
    assert scene.lines == [[line, "result"]]


def test_scene_segment_dedupe_ignores_orientation():
    scene = Scene()
    p, q = Point(F(0), F(0)), Point(F(1), F(1))
    scene.add_segment(p, q)
    scene.add_segment(q, p, "assertion")
    assert scene.segments == [[p, q, "assertion"]]


def test_scene_circle_and_line_dedupe_never_downgrades():
    scene = Scene()
    unit, other = Circle(F(0), F(0), F(-1)), Circle(F(0), F(0), F(-4))
    scene.add_circle(unit, "result")
    scene.add_circle(Circle(F(0), F(0), F(-1)))
    scene.add_circle(other, "assertion")
    assert scene.circles == [[unit, "result"], [other, "assertion"]]

    line = Line(F(0), F(1), F(0))
    scene.add_line(line, "assertion")
    scene.add_line(Line(F(0), F(3), F(0)))
    assert scene.lines == [[line, "assertion"]]


def test_scene_is_empty():
    scene = Scene()
    assert scene.is_empty()
    scene.add_circle(Circle(F(0), F(0), F(-1)))
    assert not scene.is_empty()


# -- SVG output ------------------------------------------------------------------------

def test_render_empty_scene_and_width_validation():
    with pytest.raises(EmptyScene):
        render_svg(Scene())
    scene = Scene()
    scene.add_point("A", Point(F(0), F(0)))
    with pytest.raises(ValueError):
        render_svg(scene, width_px=63)
    assert render_svg(scene, width_px=64).startswith("<svg ")


def test_render_minimal_circle_and_point():
    scene = Scene()
    scene.add_circle(Circle(F(0), F(0), F(-1)))
    scene.add_point("T", Point(F(1), F(0)))
    svg = render_svg(scene)
    assert svg.count("<circle ") == 1
    assert svg.count('<path class="point') == 1
    assert svg.count("<text ") == 1
    assert ">T</text>" in svg
    assert svg.endswith("</svg>\n")


def test_render_is_byte_deterministic():
    first = render_svg(thm1_scene())
    second = render_svg(thm1_scene())
    assert first == second
    assert isinstance(first, str)


def test_thm1_scene_contents():
    svg = render_svg(thm1_scene())
    for label in ("P", "A", "B", "C", "D", "O_a", "O_b", "O_c", "O_d",
                  "M", "N", "Q", "R"):
        assert f">{label}</text>" in svg
    # P, Q, R are named inside assertions: their markers carry "result"
    assert svg.count('<path class="point result"') == 3
    # the midpoint claim stages the QR segment as a dashed assertion line
    assert '<line class="assertion"' in svg


def test_metadata_comment_keeps_exact_fractions():
    svg = render_svg(thm1_scene())
    assert "  <!-- exact coordinates" in svg
    assert "  point P = (0, 0)" in svg
    assert "  point O_a = (-5/6, -1/6)" in svg
    assert "  point Q = (4, -2)" in svg
    assert re.search(r"  line \[[-0-9/]+, [-0-9/]+, [-0-9/]+\]", svg)


def test_corpus_chord_scene_has_single_circle():
    ast = parse((CORPUS / "butterfly_chord.geo").read_text())
    scene = scene_from_construction(
        ast, {"t_a": F(3), "t_b": F(1, 3), "t_c": F(-5), "t_e": F(-1, 5)})
    svg = render_svg(scene)
    assert svg.count("<circle ") == 1
    assert "circle [0, 0, -1]" in svg


def test_imaginary_radius_circle_is_listed_but_not_drawn():
    scene = Scene()
    scene.add_circle(Circle(F(0), F(0), F(1)))  # x^2 + y^2 + 1 = 0
    svg = render_svg(scene)
    assert "<circle " not in svg
    assert "circle [0, 0, 1]" in svg


def test_offscreen_line_is_clipped_away():
    scene = Scene()
    scene.add_point("A", Point(F(0), F(0)))
    scene.add_point("B", Point(F(1), F(1)))
    scene.add_line(Line(F(1), F(-1), F(0)))    # the diagonal, visible
    scene.add_line(Line(F(1), F(1), F(100)))   # far outside the viewport
    svg = render_svg(scene)
    assert svg.count("<line ") == 1
    assert "line [1, 1, 100]" in svg  # still recorded exactly


def test_y_axis_is_flipped():
    scene = Scene()
    scene.add_point("O", Point(F(0), F(0)))
    scene.add_point("U", Point(F(0), F(1)))
    svg = render_svg(scene)
    markers = re.findall(r'<path class="point[^"]*" d="M [-0-9.]+ ([-0-9.]+)', svg)
    assert len(markers) == 2
    y_origin, y_up = float(markers[0]), float(markers[1])
    assert y_up < y_origin  # mathematically higher point sits higher on screen


def test_labels_are_escaped():
    scene = Scene()
    scene.add_point("a<b&c>", Point(F(0), F(0)))
    svg = render_svg(scene)
    assert ">a&lt;b&amp;c&gt;</text>" in svg


def test_scene_from_construction_rejects_unbound_params():
    ast = parse((CORPUS / "thm1.geo").read_text())
    with pytest.raises(ValueError) as err:
        scene_from_construction(ast, {"a": F(2), "b": F(1), "c": F(-3),
                                      "d": F(-2)})
    assert "unbound parameters: k" in str(err.value)


def test_scene_from_construction_takes_only_ints_and_fractions():
    ast = parse((CORPUS / "thm1.geo").read_text())
    # an int binds as the equal Fraction
    assert (render_svg(scene_from_construction(ast, dict(ANCHOR, b=1)))
            == render_svg(thm1_scene()))
    # Point(0.1, 0) and evaluate_object reject these too
    for bad in (0.1, "1/3", Decimal("0.5"), None):
        with pytest.raises(TypeError, match="the value of b must be an int or Fraction"):
            scene_from_construction(ast, dict(ANCHOR, b=bad))


def test_render_svg_rejects_symbolic_figures_by_kind():
    # the layout runs on int tuples: each kind of symbolic figure raises
    # one TypeError that names it, a segment with one symbolic end as well
    a, b, *_ = RationalFunction.variables()
    origin = Point(F(0), F(0))
    scenes = {"line": Scene(lines=[[Line(a, b, 1), "construction"]]),
              "point": Scene(points=[["P", Point(a, F(1)), "construction"]]),
              "circle": Scene(circles=[[Circle(a, b, F(-1)), "construction"]]),
              "segment": Scene(
                  segments=[[origin, Point(F(1), b), "construction"]])}
    for kind, scene in scenes.items():
        with pytest.raises(TypeError, match=f"draws no symbolic {kind}$"):
            render_svg(scene)


# -- the int layout against the layout on Fractions ----------------------------------


def ref_radius_approx(radius_squared: Fraction) -> Fraction:
    return Fraction(isqrt((radius_squared.numerator * 10 ** 12)
                          // radius_squared.denominator), 10 ** 6)


def ref_clip_line(line: Line, xmin, xmax, ymin, ymax):
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


def ref_render_svg(scene: Scene, width_px: int = 640) -> str:
    """`render_svg` as it was written on Fractions, kept as the reference."""
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
        r = ref_radius_approx(circle.radius_squared()) + F(1, 10 ** 6)
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
        f'width="{width_px}" height="{ref_round_decimal(height)}" '
        f'viewBox="0 0 {width_px} {ref_round_decimal(height)}">')
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
        r = ref_radius_approx(circle.radius_squared()) * scale
        out.append(f'  <circle class="circle {cls}" cx="{ref_round_decimal(cx)}" '
                   f'cy="{ref_round_decimal(cy)}" r="{ref_round_decimal(r)}"/>')

    strokes = []
    for line, cls in scene.lines:
        clipped = ref_clip_line(line, xmin, xmax, ymin, ymax)
        if clipped is not None:
            strokes.append((*clipped, cls))
    strokes.extend(((p.x, p.y), (q.x, q.y), cls) for p, q, cls in scene.segments)
    for (x1, y1), (x2, y2), cls in strokes:
        px1, py1 = to_px(x1, y1)
        px2, py2 = to_px(x2, y2)
        out.append(f'  <line class="{cls}" x1="{ref_round_decimal(px1)}" '
                   f'y1="{ref_round_decimal(py1)}" x2="{ref_round_decimal(px2)}" '
                   f'y2="{ref_round_decimal(py2)}"/>')

    for label, point, cls in scene.points:
        px, py = to_px(point.x, point.y)
        d = (f"M {ref_round_decimal(px - 3)} {ref_round_decimal(py)} "
             f"a 3 3 0 1 0 6 0 a 3 3 0 1 0 -6 0 z")
        out.append(f'  <path class="point {cls}" d="{d}"/>')
    for label, point, _ in scene.points:
        if not label:
            continue
        px, py = to_px(point.x, point.y)
        out.append(f'  <text class="label" x="{ref_round_decimal(px + 5)}" '
                   f'y="{ref_round_decimal(py - 5)}">{_escape(label)}</text>')

    out.append("</svg>")
    return "\n".join(out) + "\n"


WIDTHS = (64, 640, 1001)


def assert_renders_as_reference(scene):
    for width in WIDTHS:
        assert render_svg(scene, width) == ref_render_svg(scene, width)


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.geo"))
                         + sorted(FIXTURES.glob("*.geo")), ids=lambda p: p.stem)
def test_render_matches_reference_on_corpus(path):
    ast = parse(path.read_text())
    drawn = 0
    for draw in range(500):
        rng = derive_rng(23, "render", path.stem, draw)
        env = {name: sample_rational(rng, 20) for name in ast.params}
        try:
            scene = scene_from_construction(ast, env)
        except (DegenerateConfig, ZeroDivisionError):
            continue
        assert_renders_as_reference(scene)
        drawn += 1
        if drawn == 50:
            return
    raise AssertionError(f"only {drawn} non-degenerate draws of {path.name}")


def _scene(points=(), lines=(), circles=(), segments=()):
    scene = Scene()
    for index, xy in enumerate(points):
        scene.add_point(f"P{index}", Point(*xy))
    for uvw in lines:
        scene.add_line(Line(*uvw))
    for def_coefficients in circles:
        scene.add_circle(Circle(*def_coefficients))
    for p, q in segments:
        scene.add_segment(Point(*p), Point(*q), "assertion")
    return scene


SYNTHETIC_SCENES = {
    "lines only": _scene(lines=[(1, -1, 0), (2, 3, F(1, 3)), (1, 1, 5)]),
    "vertical line": _scene(lines=[(3, 0, F(-1, 2))]),
    "horizontal line": _scene(lines=[(0, 7, 2)]),
    "vertical and horizontal lines with points": _scene(
        points=[(F(1, 3), F(-2, 7)), (F(5, 2), 4)],
        lines=[(1, 0, F(-1, 3)), (0, 1, -4), (0, 2, F(1, 9))]),
    # the viewport of P0 and P1 is [-1/10, 11/10]^2: the first line is its
    # diagonal, the second only touches the corner (-1/10, -1/10), the
    # third runs along the side x = -1/10
    "lines through a viewport corner": _scene(
        points=[(0, 0), (1, 1)],
        lines=[(1, -1, 0), (1, 1, F(1, 5)), (10, 0, 1), (1, -1, F(6, 5))]),
    "circles with radius squared at most zero": _scene(
        points=[(F(3, 4), F(1, 6))],
        circles=[(0, 0, 1), (0, 0, 0), (2, -4, 5), (F(1, 3), 1, F(-1, 9))]),
    "only imaginary and point circles": _scene(circles=[(0, 0, 1), (2, 0, 1)]),
    "circles, lines and a segment": _scene(
        points=[(0, 0), (F(3, 2), F(-7, 4))], circles=[(1, F(1, 2), -3)],
        lines=[(3, 5, F(1, 7)), (0, 2, 1), (5, 0, -1)],
        segments=[((0, 0), (F(3, 2), F(-7, 4)))]),
    "two coincident points": Scene(points=[
        ["A", Point(F(2, 3), F(-5, 8)), "construction"],
        ["B", Point(F(4, 6), F(-10, 16)), "result"]]),
    "a zero-length segment": _scene(segments=[((F(1, 7), 2), (F(1, 7), 2))]),
}


@pytest.mark.parametrize("name", sorted(SYNTHETIC_SCENES))
def test_render_matches_reference_on_synthetic_scenes(name):
    assert_renders_as_reference(SYNTHETIC_SCENES[name])


# -- staging against the per-statement reference -------------------------------------


def ref_scene_from_construction(construction, assignment) -> Scene:
    """`scene_from_construction` as it was written on `eval_expr`, one
    statement at a time, kept as the reference."""
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


def _staged(stage, ast, env):
    """The scene `stage` makes, or the class and message of what it raises."""
    try:
        return stage(ast, env)
    except (DegenerateConfig, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def staged_kinds(ast, seed, bounds, draws=50):
    """Stage `draws` seeded draws at each bound with both functions, require
    equal outcomes, and return the kinds of outcome seen."""
    kinds = set()
    for bound in bounds:
        for draw in range(draws):
            rng = derive_rng(seed, "stage", bound, draw)
            env = {name: sample_rational(rng, bound) for name in ast.params}
            expected = _staged(ref_scene_from_construction, ast, env)
            assert _staged(scene_from_construction, ast, env) == expected
            kinds.add("scene" if isinstance(expected, Scene) else expected[0])
    return kinds


# assertions before later definitions, as in lemma2.geo, one of them false
# on most draws: staging goes on past it
EARLY_ASSERTIONS = """
param a, b;
point A = (a, b);
point B = (b, a);
assert collinear(A, B, (1, 2));
line l = line(A, B);
assert midpoint(midpoint(A, B), A, B);
point C = intersect(l, line((0, 0), (1, 0)));
circle w = circumcircle(A, B, (0, 0));
assert on(C, l);
scalar p = power(C, w);
"""


@pytest.mark.parametrize("path", sorted(CORPUS.glob("*.geo"))
                         + sorted(FIXTURES.glob("*.geo")), ids=lambda p: p.stem)
def test_staging_matches_the_per_statement_reference(path):
    # bound 3 makes degenerate draws of every file
    assert staged_kinds(parse(path.read_text()), 41, (20, 3)) > {"scene"}


def test_staging_matches_the_reference_on_hygiene_and_early_assertions():
    assert staged_kinds(parse(HYGIENE), 43, (20, 3)) > {"scene"}
    assert staged_kinds(parse(EARLY_ASSERTIONS), 47, (20, 3)) > {"scene"}
