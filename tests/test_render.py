"""Scene staging and deterministic SVG output."""

import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from butterfly.dsl import parse
from butterfly.errors import EmptyScene
from butterfly.geom import Circle, Line, Point
from butterfly.render import (
    Scene,
    _radius_approx,
    _round_decimal,
    render_svg,
    scene_from_construction,
)
from tests.test_dsl import CORPUS

F = Fraction
ANCHOR = {"a": F(2), "b": F(1), "c": F(-3), "d": F(-2), "k": F(1)}


def thm1_scene():
    ast = parse((CORPUS / "thm1.geo").read_text())
    return scene_from_construction(ast, ANCHOR)


# -- decimal and radius helpers ----------------------------------------------------

def test_round_decimal_shortest_within_tolerance():
    assert _round_decimal(F(5)) == "5"
    assert _round_decimal(F(1, 2)) == "0.5"
    assert _round_decimal(F(-1, 8)) == "-0.125"
    assert _round_decimal(F(1, 3)) == "0.333333"
    assert _round_decimal(F(-1, 3)) == "-0.333333"
    assert _round_decimal(F(1, 10 ** 7)) == "0"  # below the 1e-6 grid
    assert _round_decimal(F(123, 10)) == "12.3"


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


@given(st.integers(-10 ** 12, 10 ** 12), st.integers(1, 10 ** 12))
def test_round_decimal_matches_fraction_rounding(n, d):
    assert _round_decimal(F(n, d)) == ref_round_decimal(F(n, d))


@pytest.mark.parametrize("places", range(7))
@given(k=st.integers(-10 ** 9, 10 ** 9))
def test_round_decimal_matches_fraction_rounding_on_ties(places, k):
    # k/(2*10^p) with k odd sits halfway between two p-place decimals
    x = F(k, 2 * 10 ** places)
    assert _round_decimal(x) == ref_round_decimal(x)


def test_radius_approx_is_floor_on_micro_grid():
    for rsq in (F(2), F(3, 7), F(25), F(1, 10 ** 6)):
        r = _radius_approx(rsq)
        assert r * r <= rsq
        step = F(1, 10 ** 6)
        assert (r + step) * (r + step) > rsq
    assert _radius_approx(F(25)) == 5


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
