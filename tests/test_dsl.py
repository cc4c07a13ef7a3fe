"""Parser, static checks, pretty-printer, and both evaluation modes."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import butterfly
from butterfly import Circle, DegenerateConfig, Line, Point, RationalFunction, geom
from butterfly.dsl import (
    _FUNCTION_IMPLS,
    _PREDICATE_IMPLS,
    FUNCTIONS,
    MAX_NESTING,
    PREDICATES,
    Assertion,
    Binary,
    Call,
    Construction,
    Definition,
    DslError,
    DslNameError,
    DslSyntaxError,
    DslTypeError,
    IntLit,
    Name,
    ParamDecl,
    PointLit,
    Span,
    Token,
    Unary,
    _SYMBOLS,
    _assertion_text,
    _Emitter,
    _compile_program,
    _run_trial,
    _tokenize,
    eval_expr,
    evaluate_construction,
    parse,
    to_source,
)
from butterfly.scalar import derive_rng, field_div, sample_ratios, sample_rational
from butterfly.theorems import run_trials

CORPUS = Path(butterfly.__file__).parent / "corpus"
FIXTURES = CORPUS / "fixtures"
F = Fraction


def corpus_sources():
    return sorted(CORPUS.glob("*.geo")) + sorted(FIXTURES.glob("*.geo"))


# -- parsing and printing -------------------------------------------------------

def test_corpus_files_parse_and_roundtrip():
    paths = corpus_sources()
    assert len(paths) == 14
    for path in paths:
        source = path.read_text()
        ast = parse(source)
        printed = to_source(ast)
        assert parse(printed) == ast
        # the printed form is a fixed point
        assert to_source(parse(printed)) == printed


def test_corpus_parameter_lists():
    gauge = ("a", "b", "c", "d", "k")
    expected = {
        "thm1.geo": gauge,
        "thm2.geo": gauge,
        "lemma3.geo": gauge,
        "lemma2.geo": gauge,
        "thm0_cyclic.geo": ("t_a", "t_b", "t_c", "t_d"),
        "butterfly_chord.geo": ("t_a", "t_b", "t_c", "t_e"),
    }
    for name, params in expected.items():
        ast = parse((CORPUS / name).read_text())
        assert ast.params == params
        assert ast.assertions  # every corpus program claims something


def test_precedence_and_associativity():
    ast = parse("param a;\nscalar s = 1 + 2 * a;\n")
    expr = ast.statements[1].expr
    assert isinstance(expr, Binary) and expr.op == "+"
    assert isinstance(expr.right, Binary) and expr.right.op == "*"

    chain = parse("scalar s = 1 - 2 - 3;").statements[0].expr
    assert chain.op == "-" and isinstance(chain.left, Binary)
    assert chain.right == IntLit(3, span=None)

    assert to_source(parse("scalar s = (1 + 2) * 3;")).strip() == \
        "scalar s = (1 + 2) * 3;"
    assert to_source(parse("scalar s = 1 - (2 - 3);")).strip() == \
        "scalar s = 1 - (2 - 3);"
    assert to_source(parse("scalar s = 1 + 2 * 3;")).strip() == \
        "scalar s = 1 + 2 * 3;"


def test_unary_minus_binds_tighter_than_product():
    expr = parse("param a, b;\nscalar s = -a * b;\n").statements[1].expr
    assert isinstance(expr, Binary) and expr.op == "*"
    assert isinstance(expr.left, Unary)
    assert to_source(expr) == "-a * b"


def test_point_literals_and_calls():
    ast = parse("param a;\npoint P = (a, 0);\nassert on(P, line((0,0), (1,0)));\n")
    defn = ast.statements[1]
    assert isinstance(defn, Definition) and defn.type == "point"
    assert isinstance(defn.expr, PointLit)
    assert defn.expr.x == Name("a", span=None)
    stmt = ast.statements[2]
    assert isinstance(stmt, Assertion) and stmt.predicate == "on"
    assert isinstance(stmt.args[1], Call) and stmt.args[1].func == "line"


def test_comments_and_rational_literals():
    ast = parse("# heading\nscalar s = 3/4;  # trailing\n")
    expr = ast.statements[0].expr
    assert expr == Binary("/", IntLit(3, span=None), IntLit(4, span=None),
                          span=None)


# -- diagnostics -----------------------------------------------------------------

def expect_error(source, exc_type, fragment, line=None, col=None):
    with pytest.raises(exc_type) as err:
        parse(source)
    assert fragment in err.value.message
    if line is not None:
        assert err.value.span.line == line
    if col is not None:
        assert err.value.span.col == col
    return err.value


def test_syntax_errors():
    expect_error("wat;", DslSyntaxError, "expected one of: param", 1, 1)
    expect_error("param a $;", DslSyntaxError, "unexpected character '$'")
    expect_error("param a\npoint P = (a, 0);", DslSyntaxError, "expected ';'")
    expect_error("scalar s = ;", DslSyntaxError, "expected an expression")
    expect_error("scalar s = 1 +", DslSyntaxError, "end of input")
    # the end of input after a trailing comment is at the comment's end
    assert expect_error("param a;\npoint A = (a, 0)  # no semicolon", DslSyntaxError,
                        "expected ';'").span == Span(2, 33, 41, 1)


def test_only_ascii_digits_are_digits():
    expect_error("scalar x = \u00b2;", DslSyntaxError,
                 "unexpected character '\u00b2'", 1, 12)
    expect_error("scalar x = 1\u0663;", DslSyntaxError,
                 "unexpected character '\u0663'", 1, 13)
    expect_error("param a\u00b2;", DslSyntaxError,
                 "unexpected character '\u00b2'", 1, 8)
    assert parse("param a2;\nscalar x = 1234567890 * a2;").params == ("a2",)


def nested(depth):
    """Sources nesting `depth` deep in each way the parser recurses or chains."""
    return {
        "parens": "scalar x = " + "(" * depth + "1" + ")" * depth + ";",
        "minus": "scalar x = " + "-" * depth + "1;",
        "sum": "scalar x = " + "+".join(["1"] * (depth + 1)) + ";",
        "product": "scalar x = " + "*".join(["1"] * (depth + 1)) + ";",
        "calls": ("point P = " + "midpoint(" * depth + "(0, 0)"
                  + ", (1, 1))" * depth + ";"),
    }


@pytest.mark.parametrize("kind", sorted(nested(1)))
def test_nesting_limit_is_a_syntax_error(kind):
    parse(nested(MAX_NESTING - 2)[kind])
    for depth in (MAX_NESTING + 1, 300, 1000):
        source = nested(depth)[kind]
        with pytest.raises(DslSyntaxError) as err:
            parse(source)
        assert f"nested deeper than {MAX_NESTING} levels" in err.value.message
        span = err.value.span
        assert source[span.offset] in "(-+*m"


def test_overlong_integer_literal_is_a_syntax_error():
    expect_error("scalar x = " + "9" * 5000 + ";", DslSyntaxError,
                 "integer literal is too long", 1, 12)


GEO_FRAGMENTS = ["param", "point", "line", "circle", "scalar", "assert", "a",
                 "b", "P", "Q", "midpoint", "on", "(", ")", ",", ";", "=",
                 "+", "-", "*", "/", "0", "12", "\n", "#", " ", "\t", "\u00b2",
                 "\u0663", "\r"]


ANY_SOURCE = st.text() | st.lists(st.sampled_from(GEO_FRAGMENTS)).map("".join)


@settings(max_examples=400, deadline=None)
@given(ANY_SOURCE)
def test_any_text_parses_or_raises_a_spanned_dsl_error(source):
    try:
        parse(source)
    except DslError as err:
        span = err.span
        assert span.line >= 1 and span.col >= 1 and span.length >= 1
        assert 0 <= span.offset <= len(source)
        # the column counts the characters since the line's "\n"
        assert span.col - 1 == span.offset - (source.rfind("\n", 0, span.offset) + 1)
        err.diagnostic(source, "fuzz.geo")


def ref_tokenize(source: str) -> list[Token]:
    """The tokenizer as it was written per character, kept as the reference
    (with a comment advancing the column)."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
        elif ch in " \t\r":
            i += 1
            col += 1
        elif ch == "#":
            start = i
            while i < n and source[i] != "\n":
                i += 1
            col += i - start
        elif "0" <= ch <= "9":
            start = i
            while i < n and "0" <= source[i] <= "9":
                i += 1
            tokens.append(Token("INT", source[start:i], line, col, start))
            col += i - start
        elif "a" <= ch <= "z" or "A" <= ch <= "Z":
            start = i
            while i < n and (source[i] == "_" or "0" <= source[i] <= "9"
                             or "a" <= source[i] <= "z" or "A" <= source[i] <= "Z"):
                i += 1
            tokens.append(Token("IDENT", source[start:i], line, col, start))
            col += i - start
        elif ch in _SYMBOLS:
            tokens.append(Token(_SYMBOLS[ch], ch, line, col, i))
            i += 1
            col += 1
        else:
            raise DslSyntaxError(f"unexpected character {ch!r}",
                                 Span(line, col, i, 1))
    tokens.append(Token("EOF", "", line, col, n))
    return tokens


def _tokens_or_error(tokenize, source):
    try:
        return tokenize(source)
    except DslSyntaxError as err:
        return err.message, err.span


@settings(max_examples=400, deadline=None)
@given(ANY_SOURCE)
def test_tokenizer_matches_reference(source):
    assert _tokens_or_error(_tokenize, source) == _tokens_or_error(ref_tokenize, source)


def test_diagnostic_carries_file_line_col_and_caret():
    source = "param a;\npoint P = (a, );\n"
    err = expect_error(source, DslSyntaxError, "expected an expression", 2, 15)
    text = err.diagnostic(source, filename="broken.geo")
    assert text == ("broken.geo:2:15: expected an expression, found ')'\n"
                    "    point P = (a, );\n"
                    "                  ^")
    assert err.diagnostic() == "<geo>:2:15: expected an expression, found ')'"

    # a tab before the column stays a tab under it, so the caret lines up
    # with the token wherever the terminal puts its tab stops
    source = "param a;\n\tpoint A = (a, b);\n"
    err = expect_error(source, DslNameError, "'b'", 2, 16)
    assert err.diagnostic(source) == ("<geo>:2:16: " + err.message + "\n"
                                      "    \tpoint A = (a, b);\n"
                                      "    \t              ^")


# Every character str.splitlines() breaks a line at, other than "\n".  The
# tokenizer counts lines by "\n" alone, so the diagnostic must too.
LINE_BREAKS_BESIDES_NEWLINE = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                               "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("sep", LINE_BREAKS_BESIDES_NEWLINE)
def test_diagnostic_caret_sits_under_the_offending_token(sep):
    sources = [f"param a;{sep}scalar s = ;\n",       # error on the same line
               f"# note{sep}more\nscalar s = ;\n"]   # separator in a comment
    for source in sources:
        with pytest.raises(DslError) as err:
            parse(source)
        span = err.value.span
        head, text, caret = err.value.diagnostic(source, "x.geo").split("\n")
        assert head.startswith(f"x.geo:{span.line}:{span.col}: ")
        text, caret = text[4:], caret[4:]
        assert caret == " " * (span.col - 1) + "^"
        assert text[span.col - 1] == source[span.offset]
    assert text == "scalar s = ;"


def test_name_errors():
    expect_error("point line = (1, 2);", DslNameError, "reserved name")
    expect_error("param a;\nscalar a = 1;\n", DslNameError, "already defined", 2)
    expect_error("point P = (x, 0);", DslNameError, "undefined name 'x'")
    expect_error("param a;\npoint P = centroid((a, 0), (0, a));\n",
                 DslNameError, "unknown function 'centroid'")
    expect_error("assert golden((1, 2), (3, 4));", DslNameError,
                 "unknown predicate 'golden'")


def test_type_errors():
    expect_error("param a;\npoint P = midpoint((a, 0));\n", DslTypeError,
                 "midpoint takes 2 arguments, got 1")
    expect_error("param a;\nline L = midpoint((a, 0), (0, 0));\n", DslTypeError,
                 "'L' is declared line but the expression is a point")
    expect_error("assert perpendicular((1, 2), (3, 4));", DslTypeError,
                 "perpendicular argument 1 must be a line, got a point")
    expect_error("param a;\nscalar s = (1, 2) + a;\n", DslTypeError,
                 "operator '+' needs scalar operands, got a point")
    expect_error("point P = ((1, 2), 3);", DslTypeError,
                 "point coordinates must be scalars, got a point")
    expect_error("param a;\nscalar s = -(1, 2);\n", DslTypeError,
                 "operator '-' needs a scalar, got a point")
    expect_error("param a;\nassert on((a, 0), a);\n", DslTypeError,
                 "on argument 2 must be a line or circle, got a scalar")


def test_on_predicate_accepts_lines_and_circles():
    parse("point P = (1, 0);\n"
          "circle w = circumcircle((1, 0), (0, 1), (-1, 0));\n"
          "assert on(P, w);\n"
          "assert on(P, line((1, 1), (1, -1)));\n")


# -- numeric evaluation -----------------------------------------------------------

def test_corpus_numeric_all_pass():
    for path in sorted(CORPUS.glob("*.geo")):
        ast = parse(path.read_text())
        report = evaluate_construction(ast, mode="numeric", seed=3, trials=30,
                                       bound=12, label=path.stem)
        assert report.ok, f"{path.name}: {report.failure}"
        assert report.attempted == 30
        assert report.passed + report.skipped == 30


def test_fixtures_all_refuted():
    for path in sorted(FIXTURES.glob("*.geo")):
        ast = parse(path.read_text())
        report = evaluate_construction(ast, mode="numeric", seed=0, trials=1000,
                                       bound=12, label=path.stem)
        assert not report.ok, path.name
        assert report.counterexample is not None, path.name
        assert report.counterexample.detail.startswith("assertion ")
        names = [name for name, _ in report.counterexample.params]
        assert names == list(ast.params)


def test_numeric_determinism_and_witness_replay():
    ast = parse((FIXTURES / "thm1_perturbed.geo").read_text())
    first = evaluate_construction(ast, seed=11, trials=500, bound=10)
    second = evaluate_construction(ast, seed=11, trials=500, bound=10)
    assert first.to_flat() == second.to_flat()
    assert first.counterexample == second.counterexample


def test_numeric_zero_param_program():
    ast = parse("assert concyclic((1, 0), (0, 1), (-1, 0), (0, -1));\n")
    report = evaluate_construction(ast, trials=5)
    assert report.ok and report.passed == 5


def test_numeric_scalar_functions_and_predicates():
    source = (
        "circle w = circle_on_diameter((-1, 0), (1, 0));\n"
        "scalar p = power((3, 0), w);\n"
        "scalar cr = cross_ratio((0, 0), (3, 0), (1, 0), (-3, 0));\n"
        "assert on((p, 0), line((8, 0), (8, 1)));\n"       # p = 8
        "assert on((cr, 0), line((-1, 0), (-1, 1)));\n"    # cr = -1
        "assert harmonic((0, 0), (3, 0), (1, 0), (-3, 0));\n"
        "assert collinear((0, 0), (1, 1), (2, 2));\n"
        "assert parallel(line((0, 0), (1, 0)), line((0, 1), (1, 1)));\n"
    )
    report = evaluate_construction(parse(source), trials=3)
    assert report.ok and report.passed == 3


def test_numeric_on_unit_circle_parametrization():
    source = ("param t;\n"
              "point U = on_unit_circle(t);\n"
              "assert on(U, circumcircle((1, 0), (0, 1), (-1, 0)));\n")
    report = evaluate_construction(parse(source), trials=30, bound=9)
    assert report.ok and report.skipped == 0


def test_numeric_degeneracies_count_as_skips():
    source = ("param a;\n"
              "point P = intersect(line((0, 0), (1, 0)), line((0, 1), (1, 1)));\n"
              "assert on(P, line((0, 0), (1, 0)));\n")
    report = evaluate_construction(parse(source), trials=5)
    assert not report.ok
    assert report.skipped == 5
    assert "skip rate 5/5 exceeds limit" in report.failure


def test_numeric_scalar_division_by_zero_is_a_skip():
    source = ("param a;\n"
              "scalar s = 1 / (a - a);\n"
              "assert on((s, 0), line((0, 0), (1, 0)));\n")
    report = evaluate_construction(parse(source), trials=4)
    assert report.skipped == 4


def test_numeric_argument_validation():
    ast = parse("assert collinear((0, 0), (1, 1), (2, 2));\n")
    with pytest.raises(ValueError):
        evaluate_construction(ast, trials=0)
    with pytest.raises(ValueError):
        evaluate_construction(ast, trials=5, bound=0)
    with pytest.raises(ValueError):
        evaluate_construction(ast, mode="fuzzy")


# -- symbolic evaluation ------------------------------------------------------------

def test_symbolic_thm1_corpus():
    ast = parse((CORPUS / "thm1.geo").read_text())
    report = evaluate_construction(ast, mode="symbolic", label="thm1")
    assert report.ok and report.mode == "symbolic"
    ids = [check_id for check_id, ok in report.checks]
    assert ids == ["assert on(P, line(A, C))",
                   "assert on(P, line(B, D))",
                   "assert midpoint(P, Q, R)"]
    assert all(ok for _, ok in report.checks)


def test_symbolic_rejects_foreign_parameter_names():
    ast = parse("param t;\npoint P = (t, 0);\n"
                "assert on(P, line((0, 0), (1, 0)));\n")
    with pytest.raises(DslTypeError) as err:
        evaluate_construction(ast, mode="symbolic")
    assert "symbolic mode allows only the parameters a, b, c, d, k" \
        in err.value.message
    assert "'t'" in err.value.message


def test_symbolic_identity_versus_nonidentity():
    good = parse("param a, b;\n"
                 "assert midpoint(((a + b) / 2, 0), (a, 0), (b, 0));\n")
    assert evaluate_construction(good, mode="symbolic").ok
    bad = parse("param a, b;\nassert midpoint((0, 0), (a, 0), (b, 0));\n")
    report = evaluate_construction(bad, mode="symbolic")
    assert not report.ok
    assert report.failure == \
        "SymbolicMismatch: midpoint((0, 0), (a, 0), (b, 0))"
    assert report.checks == (("assert midpoint((0, 0), (a, 0), (b, 0))",
                              False),)


def test_symbolic_duplicate_assertions_get_serial_ids():
    ast = parse("param a;\n"
                "assert collinear((0, 0), (a, 0), (2 * a, 0));\n"
                "assert collinear((0, 0), (a, 0), (2 * a, 0));\n")
    report = evaluate_construction(ast, mode="symbolic")
    ids = [check_id for check_id, _ in report.checks]
    assert ids == ["assert collinear((0, 0), (a, 0), (2 * a, 0))",
                   "assert collinear((0, 0), (a, 0), (2 * a, 0)) #2"]


def test_symbolic_generic_degeneracy_is_reported():
    ast = parse("param a;\n"
                "point P = intersect(line((0, 0), (1, 0)), line((0, 1), (1, 1)));\n"
                "assert on(P, line((0, 0), (1, 0)));\n")
    report = evaluate_construction(ast, mode="symbolic")
    assert not report.ok
    assert report.failure.startswith("degenerate for generic parameters:")
    assert report.attempted == 0


def test_signature_tables_and_implementation_tables_name_the_same_calls():
    assert list(FUNCTIONS) == list(_FUNCTION_IMPLS)
    assert list(PREDICATES) == list(_PREDICATE_IMPLS)


def test_dsl_error_is_a_package_error():
    from butterfly.errors import ButterflyError
    assert issubclass(DslError, ButterflyError)
    assert issubclass(DslSyntaxError, DslError)


# -- the tables under a similarity ------------------------------------------------
#
# A similarity z -> alpha*z + beta (alpha != 0, z = x + iy) maps points, lines
# and circles to points, lines and circles, keeps angles, incidence and
# coincidence, and scales squared distances by |alpha|^2.  So every
# construction of the function table commutes with it, or raises the same
# degeneracy class on the image; every predicate keeps its verdict or its
# class; power scales by |alpha|^2; and cross_ratio is unchanged.
# on_unit_circle takes a scalar, not a figure, and is left out.

GRID = st.sampled_from([F(-1), F(-1, 2), F(0), F(1, 2), F(1), F(2)])
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


class Similarity:
    def __init__(self, alpha, beta):
        (self.ar, self.ai), (self.br, self.bi) = alpha, beta
        self.scale = self.ar * self.ar + self.ai * self.ai  # |alpha|^2

    def __call__(self, value):
        ar, ai, br, bi = self.ar, self.ai, self.br, self.bi
        if isinstance(value, Point):
            return Point(ar * value.x - ai * value.y + br,
                         ai * value.x + ar * value.y + bi)
        if isinstance(value, Line):
            # the normal turns with alpha; on the image of a point of the
            # line, u*x + v*y equals |alpha|^2 (u0*x0 + v0*y0) + u*br + v*bi
            u, v = ar * value.u - ai * value.v, ai * value.u + ar * value.v
            return Line(u, v, self.scale * value.w - u * br - v * bi)
        # the center maps as a point, the squared radius scales by |alpha|^2
        c = self(value.center())
        return Circle(-2 * c.x, -2 * c.y,
                      c.x * c.x + c.y * c.y - self.scale * value.radius_squared())


def _figures(types, points):
    """Arguments of the given types from the drawn points: a point is the
    next point, a line the line through the next two, a circle the circle
    through the next three.  A degenerate line or circle rejects the draw."""
    points = iter(points)
    build = {"point": lambda: next(points),
             "line": lambda: geom.line_through(next(points), next(points)),
             "circle": lambda: geom.circumcircle(next(points), next(points),
                                                 next(points))}
    try:
        return [build[kind]() for kind in types]
    except DegenerateConfig:
        assume(False)


def _outcome(fn, args):
    try:
        return fn(*args)
    except DegenerateConfig as exc:
        return type(exc)


similarities = st.builds(Similarity, st.tuples(RATIONALS, RATIONALS).filter(any),
                         st.tuples(RATIONALS, RATIONALS))
grid_points = st.lists(st.builds(Point, GRID, GRID), min_size=9, max_size=9)


def similarity_examples(test):
    """Draws on which the rarer verdicts hold: a harmonic range, a midpoint
    and a right angle, two parallels, and three circles through two points."""
    sim = Similarity((F(1, 2), F(-2)), (F(3), F(-1, 3)))
    for coords in ([(-1, 0), (1, 0), (F(1, 2), 0), (2, 0), (0, 1), (2, 3)],
                   [(0, 0), (-1, 0), (1, 0), (1, 1), (0, 2), (2, 1)],
                   [(0, 0), (1, 0), (0, 1), (1, 1), (2, 0), (0, 2)],
                   [(-1, 0), (1, 0), (0, 1), (-1, 0), (1, 0), (0, 2),
                    (-1, 0), (1, 0), (0, F(-1, 2))]):
        points = [Point(F(x), F(y)) for x, y in coords]
        test = example(sim, points + points[:9 - len(points)])(test)
    return settings(max_examples=30)(test)


@pytest.mark.parametrize("name", [name for name in FUNCTIONS if name != "on_unit_circle"])
@similarity_examples
@given(similarities, grid_points)
def test_constructions_commute_with_similarities(name, sim, points):
    types, _ = FUNCTIONS[name]
    if name == "second_intersection":  # the line and circle meet at the point
        args = _figures(("circle", "line"), points[:3] + [points[0], points[4]])
        args.append(points[0])
    else:
        args = _figures(types, points)
    fn = _FUNCTION_IMPLS[name]
    expected, image = _outcome(fn, args), _outcome(fn, [sim(arg) for arg in args])
    if isinstance(expected, type):
        assert image is expected
    elif name == "power":
        assert image == sim.scale * expected
    elif name == "cross_ratio":
        assert image == expected
    else:
        assert image == sim(expected)


@pytest.mark.parametrize("name, types", [
    (name, types) for name, sig in PREDICATES.items()
    for types in ([("point", "line"), ("point", "circle")] if name == "on" else [sig])])
@similarity_examples
@given(similarities, grid_points)
def test_predicates_keep_their_verdicts_under_similarities(name, types, sim, points):
    args = _figures(types, points)
    fn = _PREDICATE_IMPLS[name]
    assert _outcome(fn, [sim(arg) for arg in args]) == _outcome(fn, args)


# -- the compiled evaluator against the tree-walking reference --------------------
#
# The evaluator compiles each program once to one generated Python function.
# `ref_eval` and `ref_run_trial` are a tree-walking interpreter, kept here as
# the reference: on every corpus file and fixture, numerically and
# symbolically, the trial program must reach the reference's verdict, or
# raise the same exception class with the same message, and the stepping
# program must yield the values the reference binds.

def ref_eval(node, env):
    if isinstance(node, IntLit):
        return Fraction(node.value)
    if isinstance(node, Name):
        return env[node.ident]
    if isinstance(node, PointLit):
        return Point(ref_eval(node.x, env), ref_eval(node.y, env))
    if isinstance(node, Unary):
        return -ref_eval(node.operand, env)
    if isinstance(node, Binary):
        left = ref_eval(node.left, env)
        right = ref_eval(node.right, env)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        return field_div(left, right, "division by zero in a scalar expression")
    if isinstance(node, Call):
        values = [ref_eval(a, env) for a in node.args]
        return _FUNCTION_IMPLS[node.func](*values)
    raise TypeError(f"not an expression node: {type(node).__name__}")


def ref_run_trial(construction, env):
    for stmt in construction.statements:
        if isinstance(stmt, ParamDecl):
            continue
        if isinstance(stmt, Definition):
            env[stmt.name] = ref_eval(stmt.expr, env)
        else:
            values = [ref_eval(a, env) for a in stmt.args]
            if not _PREDICATE_IMPLS[stmt.predicate](*values):
                return stmt
    return None


def _exact_fields(value):
    """A value as comparable parts, down to each coordinate's representation."""
    if isinstance(value, RationalFunction):
        return ("RationalFunction", value.num, value.den)
    if isinstance(value, Fraction):
        return ("Fraction", value)
    slots = {Point: ("x", "y"), Line: ("u", "v", "w"), Circle: ("d", "e", "f")}
    return (type(value).__name__,
            *(_exact_fields(getattr(value, slot)) for slot in slots[type(value)]))


def _trial_outcome(run, construction, env):
    env = dict(env)
    try:
        failed = run(construction, env)
    except DegenerateConfig as exc:
        return ("raise", type(exc), str(exc))
    return (failed, {name: _exact_fields(value) for name, value in env.items()})


def compiled_run_trial(construction, env, paired=False):
    """The trial program's verdict; `env` then gains each definition the
    stepping program yields before that verdict's assertion, as the
    reference binds them."""
    failed = _run_trial(_compile_program(construction, paired), env)
    bound = {}
    for stmt, value in _compile_program(construction, paired, "yield")(env):
        if stmt is failed:
            break
        if isinstance(stmt, Definition):
            bound[stmt.name] = value
    env.update(bound)
    return failed


def assert_evaluators_agree(construction, env):
    expected = _trial_outcome(ref_run_trial, construction, env)
    assert _trial_outcome(compiled_run_trial, construction, env) == expected
    # eval_expr, one definition at a time, in the reference's environment
    scope = dict(env)
    for stmt in construction.statements:
        if not isinstance(stmt, Definition):
            continue
        try:
            value = ref_eval(stmt.expr, scope)
        except DegenerateConfig as exc:
            with pytest.raises(type(exc)) as err:
                eval_expr(stmt.expr, scope)
            assert str(err.value) == str(exc)
            break
        assert _exact_fields(eval_expr(stmt.expr, scope)) == _exact_fields(value)
        scope[stmt.name] = value
    return expected


@pytest.mark.parametrize("path", corpus_sources(), ids=lambda p: p.stem)
def test_compiled_evaluator_matches_reference_numerically(path):
    ast = parse(path.read_text())
    verdicts = set()
    for trial in range(25):
        rng = derive_rng(17, "trial", trial)
        env = {name: sample_rational(rng, 20) for name in ast.params}
        outcome = assert_evaluators_agree(ast, env)
        verdicts.add(outcome[0] if outcome[0] == "raise" else outcome[0] is None)
    assert verdicts & {True, False}  # every file reaches a verdict


@pytest.mark.parametrize("path", corpus_sources(), ids=lambda p: p.stem)
def test_compiled_evaluator_matches_reference_with_one_symbol(path):
    # one parameter bound to the field generator `a`, the rest to seeded
    # draws: points then mix RationalFunction and Fraction coordinates
    ast = parse(path.read_text())
    for index, name in enumerate(ast.params):
        rng = derive_rng(17, "symbol", index)
        env = {param: sample_rational(rng, 20) for param in ast.params}
        env[name] = RationalFunction.variable("a")
        assert_evaluators_agree(ast, env)


OPERATORS = """
param a, b;
scalar s = a - b;
scalar t = (a - 2 * b) / (b - a / 3);
scalar u = -a * b + 3 - (a - b) / -(b - 1) - 1 / a;
point P = (a - b, b / a);
point Q = (t - u, 7);
assert collinear(P, Q, (s - t, u / b));
"""


def test_compiled_operators_match_reference():
    # non-commutative operators and division by zero (a = 0 or b = 1, 3a)
    ast = parse(OPERATORS)
    outcomes = set()
    for trial in range(60):
        rng = derive_rng(5, "trial", trial)
        env = {name: sample_rational(rng, 3) for name in ast.params}
        outcome = assert_evaluators_agree(ast, env)
        outcomes.add(outcome[0] if outcome[0] == "raise" else "ran")
    assert outcomes == {"raise", "ran"}


SYMBOLIC_FILES = [CORPUS / f"{stem}.geo" for stem in ("thm1", "thm2", "lemma3")] \
    + [FIXTURES / f"{stem}_perturbed.geo" for stem in ("thm1", "thm2", "lemma3")]


@pytest.mark.parametrize("path", SYMBOLIC_FILES, ids=lambda p: p.stem)
def test_compiled_evaluator_matches_reference_symbolically(path):
    # the files whose symbolic runs finish quickly (lemma2's does not)
    ast = parse(path.read_text())
    env = {name: RationalFunction.variable(name) for name in ast.params}
    assert_evaluators_agree(ast, env)


def test_eval_expr_rejects_non_expressions_like_reference():
    node = ParamDecl(names=("a",), span=None, name_spans=())
    for evaluate in (eval_expr, ref_eval):
        with pytest.raises(TypeError, match="not an expression node: ParamDecl"):
            evaluate(node, {})


# -- numeric trials on int pairs against the Fraction-binding reference ----------
#
# Numeric trials bind each parameter to its reduced int pair and build point
# literals over parameters with `projective_point`.  `ref_evaluate_numeric`
# is the trial loop they replaced: every parameter drawn as a Fraction by
# `sample_rational` and the program run by the tree-walking `ref_run_trial`.
# Reports, skips and counterexamples must match byte for byte.

def ref_evaluate_numeric(construction, seed, trials, bound, label):
    params = construction.params

    def ref_sample(rng, bound):
        return {name: sample_rational(rng, bound) for name in params}

    def ref_check(env):
        failed = ref_run_trial(construction, env)
        if failed is None:
            return None
        return (tuple((name, env[name]) for name in params),
                f"assertion {_assertion_text(failed)} failed")

    return run_trials(label, "trial", ref_sample, ref_check, trials, seed, bound)


PAIR_PROGRAMS = {
    "bare_literal": "param a, b;\n"
                    "point A = (a, b);\n"
                    "point B = (b, a);\n"
                    "assert midpoint(midpoint(A, B), A, B);\n"
                    "assert perpendicular(line(A, B), line((0, 0), (1, 1)));\n",
    "gauge_point": "param b, k;\n"
                   "point B = (b, k*b);\n"
                   "assert on(B, line((0, 0), (1, k)));\n",
    "quotient": "param a, c;\n"
                "point A = (-a, (a + 1)/(c - 2));\n"
                "point B = (a, (a + 1)/(c - 2));\n"
                "assert midpoint((0, (a + 1)/(c - 2)), A, B);\n",
    "vanishing": "param a;\n"
                 "point A = (a, 1/(a - a));\n"
                 "assert on(A, line((0, 0), (1, 0)));\n",
    "literal_and_scalar": "param a;\n"
                          "point A = (a, 0);\n"
                          "point U = on_unit_circle(a);\n"
                          "assert on(U, circumcircle((1, 0), (0, 1), (-1, 0)));\n"
                          "assert collinear(A, U, (1, 0));\n",
    "read_once": "param b, k, c;\n"
                 "point A = (b, k*c);\n"
                 "assert on(A, line((0, 0), (1, k)));\n",
}


def pair_cases():
    for path in corpus_sources():
        yield pytest.param(path.read_text(), 20, id=path.stem)
    for name, source in PAIR_PROGRAMS.items():
        for bound in (3, 20):
            yield pytest.param(source, bound, id=f"{name}-{bound}")


@pytest.mark.parametrize("source, bound", pair_cases())
def test_numeric_reports_match_fraction_reference(source, bound):
    ast = parse(source)
    for seed in (0, 5, 11):
        report = evaluate_construction(ast, seed=seed, trials=60, bound=bound)
        expected = ref_evaluate_numeric(ast, seed, 60, bound, "construction")
        assert report.to_text() == expected.to_text()


@pytest.mark.parametrize("source, bound", pair_cases())
def test_pair_trials_bind_what_the_reference_binds(source, bound):
    # trial by trial: the same verdict, or the same exception and message,
    # and every definition bound to the same exact value
    ast = parse(source)
    params = ast.params
    names = [stmt.name for stmt in ast.statements if isinstance(stmt, Definition)]

    def outcome(run, env):
        try:
            failed = run(env)
        except DegenerateConfig as exc:
            return ("raise", type(exc), str(exc))
        return (failed, [_exact_fields(env[name]) for name in names])

    outcomes = set()
    for trial in range(40):
        pairs = sample_ratios(derive_rng(23, "pairs", trial), bound, len(params))
        ref_env = {name: F(*pair) for name, pair in zip(params, pairs)}
        expected = outcome(lambda env: ref_run_trial(ast, env), ref_env)
        assert outcome(lambda env: compiled_run_trial(ast, env, paired=True),
                       dict(zip(params, pairs))) == expected
        outcomes.add(expected[0] if expected[0] == "raise" else "ran")
    if source == PAIR_PROGRAMS["vanishing"]:
        assert outcomes == {"raise"}


def test_compiled_programs_look_up_predicates_when_they_run(monkeypatch):
    ast = parse((CORPUS / "thm1.geo").read_text())
    program = _compile_program(ast)
    calls = []
    original = _PREDICATE_IMPLS["midpoint"]

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setitem(_PREDICATE_IMPLS, "midpoint", counted)
    env = dict(zip(ast.params, (F(2), F(1), F(-3), F(-2), F(1))))
    assert _run_trial(program, env) is None
    assert len(calls) == 1
    # every passing trial reaches the one midpoint assertion
    report = evaluate_construction(ast, seed=1, trials=20)
    assert report.ok and len(calls) == 1 + report.passed


def test_vanishing_literal_skips_every_trial_with_the_scalar_message():
    ast = parse(PAIR_PROGRAMS["vanishing"])
    with pytest.raises(DegenerateConfig,
                       match="^division by zero in a scalar expression$"):
        _run_trial(_compile_program(ast, paired=True), {"a": (3, 4)})
    report = evaluate_construction(ast, trials=20)
    assert report.skipped == 20 and report.passed == 0


@pytest.mark.parametrize("path", corpus_sources(), ids=lambda p: p.stem)
def test_a_trial_leaves_its_env_as_given(path):
    # passing, failing and degenerate trials alike only read their draw
    ast = parse(path.read_text())
    program = _compile_program(ast, paired=True)
    for trial in range(30):
        pairs = sample_ratios(derive_rng(31, "env", trial), 3, len(ast.params))
        env = dict(zip(ast.params, pairs))
        before = dict(env)
        try:
            _run_trial(program, env)
        except DegenerateConfig:
            pass
        assert env == before


def _fraction_reads(source, monkeypatch):
    """The parameters one pair trial of `source` turns into Fractions."""
    ast = parse(source)
    program = _compile_program(ast, paired=True)
    # consecutive ints, so each parameter's pair is reduced and its own
    env = {name: (key + 2, key + 3) for key, name in enumerate(ast.params)}
    owner = {pair: name for name, pair in env.items()}
    built = []

    def recording(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(butterfly.dsl, "Fraction", recording)
    _run_trial(program, env)
    return sorted({owner[args] for args in built if args in owner})


def test_only_parameters_read_as_scalars_get_a_fraction(monkeypatch):
    def reads(source):
        return _fraction_reads(source, monkeypatch)

    assert reads(PAIR_PROGRAMS["bare_literal"]) == []
    # k is read only in the literals (b, k*c) and (1, k)
    assert reads(PAIR_PROGRAMS["read_once"]) == []
    assert reads(PAIR_PROGRAMS["literal_and_scalar"]) == ["a"]
    # a literal with a sum or a quotient is Fraction arithmetic
    assert reads(PAIR_PROGRAMS["quotient"]) == ["a", "c"]
    # a scalar definition is read as a Fraction, so a literal over it is not
    # int-pair arithmetic, and each parameter read outside one is a Fraction
    assert reads("param a, b;\nscalar s = a * b;\n"
                 "point P = (s, b);\n") == ["a", "b"]


# -- generated source ---------------------------------------------------------------
#
# Every evaluation runs a function generated from the program.  A .geo name
# spelled like a generated identifier or a helper the generated code reads
# must change nothing, and none may reach the code object, and every program
# `parse` accepts must compile whatever its nesting.

HYGIENE = """
param c, k;
point v0 = (c, k*c);
point env = (k, 0);
scalar Fraction = c / (k - 1);
point projective_point = (Fraction, c*k + 1);
line program = line(v0, env);
point v1 = midpoint(v0, projective_point);
line exec = perp_through(v1, program);
point globals = intersect(exec, program);
assert on(globals, program);
assert perpendicular(exec, line(v0, env));
assert midpoint(v1, v0, projective_point);
assert on(env, exec);
"""


def _generated_functions(monkeypatch):
    """Every function generated from now on, as it is generated."""
    made = []
    function = _Emitter.function

    def recording(self):
        made.append(function(self))
        return made[-1]

    monkeypatch.setattr(_Emitter, "function", recording)
    return made


def test_geo_names_never_reach_the_generated_code(monkeypatch):
    ast = parse(HYGIENE)
    defined = {s.name for s in ast.statements if isinstance(s, Definition)}
    names = {"c", "k", *defined}
    assert {"env", "v0", "v1", "program", "Fraction", "projective_point",
            "exec", "globals"} <= names
    made = _generated_functions(monkeypatch)

    def definitions(run, env):
        try:
            failed = run(env)
        except DegenerateConfig as exc:
            return ("raise", type(exc), str(exc))
        return failed, {n: _exact_fields(v) for n, v in env.items() if n in defined}

    outcomes = set()
    for trial in range(40):
        # named Fraction values, against the reference and through eval_expr
        rng = derive_rng(29, "hygiene", trial)
        outcome = assert_evaluators_agree(
            ast, {name: sample_rational(rng, 3) for name in ast.params})
        outcomes.add(outcome[0] if outcome[0] == "raise" else outcome[0].predicate)
        # int pairs bound by name
        pairs = dict(zip("ck", sample_ratios(derive_rng(29, "pairs", trial), 3, 2)))
        ref_env = {name: F(*pair) for name, pair in pairs.items()}
        assert (definitions(lambda env: compiled_run_trial(ast, env, paired=True), pairs)
                == definitions(lambda env: ref_run_trial(ast, env), ref_env))
    assert outcomes == {"raise", "on"}
    # symbolically: the same verdict for every assertion as the reference
    symbols = {name: RationalFunction.variable(name) for name in ast.params}
    assert_evaluators_agree(ast, symbols)
    report = evaluate_construction(ast, mode="symbolic")
    scope = dict(symbols)
    ref_run_trial(Construction(tuple(
        s for s in ast.statements if not isinstance(s, Assertion))), scope)
    assert [ok for _, ok in report.checks] == [
        bool(_PREDICATE_IMPLS[s.predicate](*(ref_eval(a, scope) for a in s.args)))
        for s in ast.assertions] == [True, True, True, False]
    assert len(made) > 100
    for function in made:
        code = function.__code__
        assert not names & set(code.co_names + code.co_varnames), code.co_names
        assert all(name.startswith("_") for name in code.co_names + code.co_varnames)


def _deepest(kind, param):
    """The deepest program of `kind` that `parse` accepts, and its depth; with
    `param`, it reads the parameter a where the source has the literal 1."""
    for depth in range(MAX_NESTING + 1, 0, -1):
        source = nested(depth)[kind]
        if param:
            source = "param a;\n" + source.replace("1", "a")
        try:
            return parse(source), depth
        except DslSyntaxError:
            continue


@pytest.mark.parametrize("param", [False, True], ids=["literals", "parameter"])
@pytest.mark.parametrize("kind", sorted(nested(1)))
def test_deepest_programs_compile_and_run_in_every_binding(kind, param):
    ast, depth = _deepest(kind, param)
    assert depth >= MAX_NESTING - 2
    value = F(2, 3)
    # named values (and eval_expr, statement by statement) against the reference
    env = {"a": value} if param else {}
    failed, expected = assert_evaluators_agree(ast, env)
    assert failed is None
    expected.pop("a", None)
    # int pairs, and a definitions-only build
    pairs = {"a": value.as_integer_ratio()} if param else {}
    trial = dict(pairs)
    assert compiled_run_trial(ast, trial, paired=True) is None
    built = _compile_program(ast, True, assertions=None)(pairs)
    for bound in (trial, built):
        assert {name: _exact_fields(v) for name, v in bound.items()
                if name != "a"} == expected
    report = evaluate_construction(ast, trials=5)
    assert report.ok and report.passed == 5
    # symbolic: no assertion to check, and nothing goes wrong building
    report = evaluate_construction(ast, mode="symbolic")
    assert report.failure is None and report.attempted == 0
