"""Parser, static checks, pretty-printer, and both evaluation modes."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import butterfly
from butterfly import Circle, DegenerateConfig, Line, Point, RationalFunction
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
    Unary,
    _compile_program,
    _run_trial,
    eval_expr,
    evaluate_construction,
    parse,
    to_source,
)
from butterfly.scalar import derive_rng, field_div, sample_rational

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


@settings(max_examples=400, deadline=None)
@given(st.text() | st.lists(st.sampled_from(GEO_FRAGMENTS)).map("".join))
def test_any_text_parses_or_raises_a_spanned_dsl_error(source):
    try:
        parse(source)
    except DslError as err:
        span = err.span
        assert span.line >= 1 and span.col >= 1 and span.length >= 1
        assert 0 <= span.offset <= len(source)
        err.diagnostic(source, "fuzz.geo")


def test_diagnostic_carries_file_line_col_and_caret():
    source = "param a;\npoint P = (a, );\n"
    err = expect_error(source, DslSyntaxError, "expected an expression", 2, 15)
    text = err.diagnostic(source, filename="broken.geo")
    assert text == ("broken.geo:2:15: expected an expression, found ')'\n"
                    "    point P = (a, );\n"
                    "                  ^")
    assert err.diagnostic() == "<geo>:2:15: expected an expression, found ')'"


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


# -- the compiled evaluator against the tree-walking reference --------------------
#
# The evaluator compiles each program once into closures.  `ref_eval` and
# `ref_run_trial` are the tree-walking interpreter it replaced, kept here as
# the reference: on every corpus file and fixture, numerically and
# symbolically, the two must bind the same values, reach the same verdict,
# or raise the same exception class with the same message.

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


def compiled_run_trial(construction, env):
    program = _compile_program(construction)
    return _run_trial(program, env)


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
