"""Parser, static checker, and evaluator for .geo construction files.

A .geo file is a flat list of parameter declarations, typed definitions,
and assertions:

    program    := (param_decl | definition | assertion)*
    param_decl := "param" ident ("," ident)* ";"
    definition := type ident "=" expr ";"        type := point|line|circle|scalar
    assertion  := "assert" predicate "(" expr ("," expr)* ")" ";"
    expr       := term (("+"|"-") term)*
    term       := factor (("*"|"/") factor)*
    factor     := "-" factor | atom
    atom       := INT | ident | ident "(" args ")" | "(" expr ")"
                | "(" expr "," expr ")"

Comments run from "#" to end of line.  Integer literals are ASCII digits;
identifiers are ASCII letters, digits, and underscores, starting with a
letter.  Keywords are contextual: they only act as keywords at the head of
a statement, and "line" doubles as the line-through-two-points function
inside expressions.  Rational literals are spelled as integer divisions
("3/4"), point literals as coordinate pairs ("(a, 0)").

Names obey single static assignment and every expression is typed as
scalar, point, line, or circle before evaluation.  Expressions may nest at
most MAX_NESTING deep (parentheses, unary minus, call arguments, and chains
of binary operators all count), which keeps the parser and every tree walk
far below Python's recursion limit.  All diagnostics carry a source span.

Evaluation compiles a checked program once per run into a flat tuple of
steps, one per definition or assertion, each a closure over its expression
tree with constants built and names resolved up front; every numeric trial
and the symbolic run execute that tuple, and `eval_expr` compiles and runs
a single expression the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, itemgetter, mul, sub

from .errors import ButterflyError
from .geom import (
    Point,
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
    is_parallel,
    is_perpendicular,
    line_through,
    midpoint,
    newton_line,
    on_unit_circle,
    parallelogram_fourth,
    perp_bisector,
    perp_through,
    point_on,
    power_of_point,
    second_intersection,
)
from .poly import VARIABLES
from .ratfun import RationalFunction
from .scalar import field_div, sample_rational
from .theorems import VerificationReport, run_checks, run_trials

MAX_NESTING = 64


# -- diagnostics -----------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """Location of a token or node: 1-based line/column plus offset+length."""

    line: int
    col: int
    offset: int
    length: int


class DslError(ButterflyError):
    """Any .geo diagnostic; carries the span of the offending source."""

    def __init__(self, message: str, span: Span):
        super().__init__(message)
        self.message = message
        self.span = span

    def diagnostic(self, source: str | None = None,
                   filename: str = "<geo>") -> str:
        head = f"{filename}:{self.span.line}:{self.span.col}: {self.message}"
        if source is None:
            return head
        lines = source.split("\n")  # the tokenizer counts lines by "\n" only
        if not 1 <= self.span.line <= len(lines):
            return head
        text = lines[self.span.line - 1]
        caret = " " * (self.span.col - 1) + "^" * max(1, min(
            self.span.length, len(text) - self.span.col + 1))
        return f"{head}\n    {text}\n    {caret}"


class DslSyntaxError(DslError):
    pass


class DslNameError(DslError):
    pass


class DslTypeError(DslError):
    pass


# -- tokens ----------------------------------------------------------------------


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int
    offset: int


_SYMBOLS = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ";": "SEMI",
            "=": "EQUALS", "+": "PLUS", "-": "MINUS", "*": "STAR",
            "/": "SLASH"}


def _is_digit(ch: str) -> bool:
    return "0" <= ch <= "9"


def _is_ident_start(ch: str) -> bool:
    return ("a" <= ch <= "z") or ("A" <= ch <= "Z")


def _is_ident_part(ch: str) -> bool:
    return _is_ident_start(ch) or _is_digit(ch) or ch == "_"


def _tokenize(source: str) -> list[Token]:
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
            while i < n and source[i] != "\n":
                i += 1
        elif _is_digit(ch):
            start = i
            while i < n and _is_digit(source[i]):
                i += 1
            tokens.append(Token("INT", source[start:i], line, col, start))
            col += i - start
        elif _is_ident_start(ch):
            start = i
            while i < n and _is_ident_part(source[i]):
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


def _token_span(tok: Token) -> Span:
    return Span(tok.line, tok.col, tok.offset, max(1, len(tok.text)))


def _join_spans(start: Span, end: Span) -> Span:
    return Span(start.line, start.col, start.offset,
                end.offset + end.length - start.offset)


# -- AST -------------------------------------------------------------------------


@dataclass(frozen=True)
class IntLit:
    value: int
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Name:
    ident: str
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class PointLit:
    x: object
    y: object
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str
    operand: object
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    args: tuple
    span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class ParamDecl:
    names: tuple[str, ...]
    span: Span = field(compare=False, repr=False)
    name_spans: tuple[Span, ...] = field(compare=False, repr=False)


@dataclass(frozen=True)
class Definition:
    type: str
    name: str
    expr: object
    span: Span = field(compare=False, repr=False)
    name_span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Assertion:
    predicate: str
    args: tuple
    span: Span = field(compare=False, repr=False)
    pred_span: Span = field(compare=False, repr=False)


@dataclass(frozen=True)
class Construction:
    """A checked .geo program; two parses are equal iff structurally identical."""

    statements: tuple

    @property
    def params(self) -> tuple[str, ...]:
        names = []
        for stmt in self.statements:
            if isinstance(stmt, ParamDecl):
                names.extend(stmt.names)
        return tuple(names)

    @property
    def assertions(self) -> tuple[Assertion, ...]:
        return tuple(s for s in self.statements if isinstance(s, Assertion))


# -- vocabulary ------------------------------------------------------------------

_TYPES = ("point", "line", "circle", "scalar")

# function name -> (argument types, result type)
FUNCTIONS = {
    "midpoint": (("point", "point"), "point"),
    "circumcenter": (("point", "point", "point"), "point"),
    "perp_bisector": (("point", "point"), "line"),
    "perp_through": (("point", "line"), "line"),
    "line": (("point", "point"), "line"),
    "intersect": (("line", "line"), "point"),
    "second_intersection": (("circle", "line", "point"), "point"),
    "circle_on_diameter": (("point", "point"), "circle"),
    "circumcircle": (("point", "point", "point"), "circle"),
    "parallelogram_fourth": (("point", "point", "point"), "point"),
    "newton_line": (("point", "point", "point", "point"), "line"),
    "on_unit_circle": (("scalar",), "point"),
    "power": (("point", "circle"), "scalar"),
    "cross_ratio": (("point", "point", "point", "point"), "scalar"),
}

PREDICATES = {
    "midpoint": ("point", "point", "point"),
    "perpendicular": ("line", "line"),
    "parallel": ("line", "line"),
    "collinear": ("point", "point", "point"),
    "concyclic": ("point", "point", "point", "point"),
    "harmonic": ("point", "point", "point", "point"),
    "coaxial": ("circle", "circle", "circle"),
    "on": ("point", "line or circle"),
}

_RESERVED = (set(_TYPES) | {"param", "assert"}
             | set(FUNCTIONS) | set(PREDICATES))

_FUNCTION_IMPLS = {
    "midpoint": midpoint,
    "circumcenter": circumcenter,
    "perp_bisector": perp_bisector,
    "perp_through": perp_through,
    "line": line_through,
    "intersect": intersect_lines,
    "second_intersection": second_intersection,
    "circle_on_diameter": circle_on_diameter,
    "circumcircle": circumcircle,
    "parallelogram_fourth": parallelogram_fourth,
    "newton_line": newton_line,
    "on_unit_circle": on_unit_circle,
    "power": power_of_point,
    "cross_ratio": cross_ratio,
}

_PREDICATE_IMPLS = {
    "midpoint": is_midpoint,
    "perpendicular": is_perpendicular,
    "parallel": is_parallel,
    "collinear": is_collinear,
    "concyclic": are_concyclic,
    "harmonic": harmonic,
    "coaxial": are_coaxial,
    "on": point_on,
}


# -- parser ----------------------------------------------------------------------

_PRECEDENCE = {"PLUS": 1, "MINUS": 1, "STAR": 2, "SLASH": 2}
_OP_TEXT = {"PLUS": "+", "MINUS": "-", "STAR": "*", "SLASH": "/"}


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0

    @staticmethod
    def _nested(level: int, tok: Token) -> int:
        """`level` itself, or a syntax error at `tok` past MAX_NESTING."""
        if level > MAX_NESTING:
            raise DslSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels",
                _token_span(tok))
        return level

    def _peek(self) -> Token:
        return self.tokens[self.pos]

    def _next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def _expect(self, kind: str, what: str) -> Token:
        tok = self._peek()
        if tok.kind != kind:
            found = repr(tok.text) if tok.kind != "EOF" else "end of input"
            raise DslSyntaxError(f"expected {what}, found {found}",
                                 _token_span(tok))
        return self._next()

    def parse_program(self) -> Construction:
        statements = []
        while self._peek().kind != "EOF":
            statements.append(self._statement())
        return Construction(statements=tuple(statements))

    def _statement(self):
        tok = self._peek()
        if tok.kind != "IDENT" or tok.text not in (
                "param", "assert", *_TYPES):
            found = repr(tok.text) if tok.kind != "EOF" else "end of input"
            raise DslSyntaxError(
                "expected one of: param, point, line, circle, scalar, "
                f"assert; found {found}", _token_span(tok))
        if tok.text == "param":
            return self._param_decl()
        if tok.text == "assert":
            return self._assertion()
        return self._definition()

    def _param_decl(self) -> ParamDecl:
        kw = self._next()
        names, spans = [], []
        tok = self._expect("IDENT", "a parameter name")
        names.append(tok.text)
        spans.append(_token_span(tok))
        while self._peek().kind == "COMMA":
            self._next()
            tok = self._expect("IDENT", "a parameter name")
            names.append(tok.text)
            spans.append(_token_span(tok))
        semi = self._expect("SEMI", "';'")
        return ParamDecl(names=tuple(names),
                         span=_join_spans(_token_span(kw), _token_span(semi)),
                         name_spans=tuple(spans))

    def _definition(self) -> Definition:
        type_tok = self._next()
        name_tok = self._expect("IDENT", f"a name for the {type_tok.text}")
        self._expect("EQUALS", "'='")
        expr, _ = self._expr()
        semi = self._expect("SEMI", "';'")
        return Definition(type=type_tok.text, name=name_tok.text, expr=expr,
                          span=_join_spans(_token_span(type_tok),
                                           _token_span(semi)),
                          name_span=_token_span(name_tok))

    def _assertion(self) -> Assertion:
        kw = self._next()
        pred_tok = self._expect("IDENT", "a predicate name")
        self._expect("LPAREN", "'('")
        args = [self._expr()[0]]
        while self._peek().kind == "COMMA":
            self._next()
            args.append(self._expr()[0])
        self._expect("RPAREN", "')'")
        semi = self._expect("SEMI", "';'")
        return Assertion(predicate=pred_tok.text, args=tuple(args),
                         span=_join_spans(_token_span(kw), _token_span(semi)),
                         pred_span=_token_span(pred_tok))

    # The expression methods return (node, height of the node's tree).  Every
    # node is checked against MAX_NESTING as it is built, and `depth` bounds
    # the recursion itself (parentheses build no node of their own).

    def _expr(self):
        return self._binary(1)

    def _binary(self, min_prec: int):
        left, height = self._unary()
        while True:
            tok = self._peek()
            prec = _PRECEDENCE.get(tok.kind)
            if prec is None or prec < min_prec:
                return left, height
            self._next()
            right, right_height = self._binary(prec + 1)
            height = self._nested(max(height, right_height) + 1, tok)
            left = Binary(op=_OP_TEXT[tok.kind], left=left, right=right,
                          span=_join_spans(left.span, right.span))

    def _unary(self):
        tok = self._peek()
        self.depth = self._nested(self.depth + 1, tok)
        if tok.kind == "MINUS":
            self._next()
            operand, height = self._unary()
            result = (Unary(op="-", operand=operand,
                            span=_join_spans(_token_span(tok), operand.span)),
                      self._nested(height + 1, tok))
        else:
            result = self._atom()
        self.depth -= 1
        return result

    def _atom(self):
        tok = self._peek()
        if tok.kind == "INT":
            self._next()
            try:
                value = int(tok.text)
            except ValueError:  # more digits than int() converts
                raise DslSyntaxError("integer literal is too long",
                                     _token_span(tok)) from None
            return IntLit(value=value, span=_token_span(tok)), 1
        if tok.kind == "IDENT":
            self._next()
            if self._peek().kind == "LPAREN":
                self._next()
                args = []
                if self._peek().kind != "RPAREN":
                    args.append(self._expr())
                    while self._peek().kind == "COMMA":
                        self._next()
                        args.append(self._expr())
                rparen = self._expect("RPAREN", "')'")
                height = max((h for _, h in args), default=0)
                return (Call(func=tok.text, args=tuple(a for a, _ in args),
                             span=_join_spans(_token_span(tok),
                                              _token_span(rparen))),
                        self._nested(height + 1, tok))
            return Name(ident=tok.text, span=_token_span(tok)), 1
        if tok.kind == "LPAREN":
            self._next()
            first, height = self._expr()
            if self._peek().kind == "COMMA":
                self._next()
                second, second_height = self._expr()
                rparen = self._expect("RPAREN", "')'")
                return (PointLit(x=first, y=second,
                                 span=_join_spans(_token_span(tok),
                                                  _token_span(rparen))),
                        self._nested(max(height, second_height) + 1, tok))
            self._expect("RPAREN", "')'")
            return first, height
        found = repr(tok.text) if tok.kind != "EOF" else "end of input"
        raise DslSyntaxError(f"expected an expression, found {found}",
                             _token_span(tok))


# -- static checks ----------------------------------------------------------------


def _check_program(construction: Construction) -> None:
    types: dict[str, str] = {}
    for stmt in construction.statements:
        if isinstance(stmt, ParamDecl):
            for name, span in zip(stmt.names, stmt.name_spans):
                _declare(types, name, "scalar", span)
        elif isinstance(stmt, Definition):
            actual = _type_of(stmt.expr, types)
            if actual != stmt.type:
                raise DslTypeError(
                    f"'{stmt.name}' is declared {stmt.type} but the "
                    f"expression is a {actual}", stmt.expr.span)
            _declare(types, stmt.name, stmt.type, stmt.name_span)
        else:
            sig = PREDICATES.get(stmt.predicate)
            if sig is None:
                raise DslNameError(f"unknown predicate '{stmt.predicate}'",
                                   stmt.pred_span)
            _check_args(stmt.predicate, sig, stmt.args, types, stmt.pred_span)


def _declare(types: dict[str, str], name: str, type_: str, span: Span) -> None:
    if name in _RESERVED:
        raise DslNameError(f"'{name}' is a reserved name", span)
    if name in types:
        raise DslNameError(f"'{name}' is already defined", span)
    types[name] = type_


def _check_args(owner, sig, args, types, span) -> None:
    if len(args) != len(sig):
        raise DslTypeError(
            f"{owner} takes {len(sig)} arguments, got {len(args)}", span)
    for i, (arg, expected) in enumerate(zip(args, sig)):
        actual = _type_of(arg, types)
        if expected == "line or circle":
            if actual in ("line", "circle"):
                continue
        elif actual == expected:
            continue
        raise DslTypeError(
            f"{owner} argument {i + 1} must be a {expected}, "
            f"got a {actual}", arg.span)


def _type_of(node, types: dict[str, str]) -> str:
    if isinstance(node, IntLit):
        return "scalar"
    if isinstance(node, Name):
        if node.ident not in types:
            raise DslNameError(f"use of undefined name '{node.ident}'",
                               node.span)
        return types[node.ident]
    if isinstance(node, PointLit):
        for coord in (node.x, node.y):
            actual = _type_of(coord, types)
            if actual != "scalar":
                raise DslTypeError(
                    f"point coordinates must be scalars, got a {actual}",
                    coord.span)
        return "point"
    if isinstance(node, Unary):
        actual = _type_of(node.operand, types)
        if actual != "scalar":
            raise DslTypeError(f"operator '-' needs a scalar, got a {actual}",
                               node.operand.span)
        return "scalar"
    if isinstance(node, Binary):
        for side in (node.left, node.right):
            actual = _type_of(side, types)
            if actual != "scalar":
                raise DslTypeError(
                    f"operator '{node.op}' needs scalar operands, "
                    f"got a {actual}", side.span)
        return "scalar"
    if isinstance(node, Call):
        sig = FUNCTIONS.get(node.func)
        if sig is None:
            raise DslNameError(f"unknown function '{node.func}'", node.span)
        _check_args(node.func, sig[0], node.args, types, node.span)
        return sig[1]
    raise TypeError(f"not an expression node: {type(node).__name__}")


def parse(source: str) -> Construction:
    """Tokenize, parse, and statically check one .geo program."""
    construction = _Parser(_tokenize(source)).parse_program()
    _check_program(construction)
    return construction


# -- pretty-printer ----------------------------------------------------------------


def _expr_source(node, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(node, IntLit):
        return str(node.value)
    if isinstance(node, Name):
        return node.ident
    if isinstance(node, PointLit):
        return f"({_expr_source(node.x)}, {_expr_source(node.y)})"
    if isinstance(node, Call):
        args = ", ".join(_expr_source(a) for a in node.args)
        return f"{node.func}({args})"
    if isinstance(node, Unary):
        return f"-{_expr_source(node.operand, 3)}"
    if isinstance(node, Binary):
        prec = 1 if node.op in "+-" else 2
        text = (f"{_expr_source(node.left, prec)} {node.op} "
                f"{_expr_source(node.right, prec, right_side=True)}")
        if prec < parent_prec or (prec == parent_prec and right_side):
            return f"({text})"
        return text
    raise TypeError(f"not an expression node: {type(node).__name__}")


def _assertion_text(stmt: Assertion) -> str:
    args = ", ".join(_expr_source(a) for a in stmt.args)
    return f"{stmt.predicate}({args})"


def to_source(node) -> str:
    """Render an AST (or any node) back to .geo text; reparsing is structurally exact."""
    if isinstance(node, Construction):
        return "".join(to_source(s) + "\n" for s in node.statements)
    if isinstance(node, ParamDecl):
        return f"param {', '.join(node.names)};"
    if isinstance(node, Definition):
        return f"{node.type} {node.name} = {_expr_source(node.expr)};"
    if isinstance(node, Assertion):
        return f"assert {_assertion_text(node)};"
    return _expr_source(node)


# -- evaluation ----------------------------------------------------------------------


# Function and predicate names are looked up in _FUNCTION_IMPLS and
# _PREDICATE_IMPLS when a program is compiled, so a run uses the
# implementations installed when it starts.

_ARITHMETIC = {"+": add, "-": sub, "*": mul}


def _compile_expr(node):
    """A closure evaluating the checked expression `node` in an environment."""
    if isinstance(node, IntLit):
        value = Fraction(node.value)
        return lambda env: value
    if isinstance(node, Name):
        return itemgetter(node.ident)
    if isinstance(node, PointLit):
        if isinstance(node.x, IntLit) and isinstance(node.y, IntLit):
            point = Point(Fraction(node.x.value), Fraction(node.y.value))
            return lambda env: point
        x = _compile_expr(node.x)
        y = _compile_expr(node.y)
        return lambda env: Point(x(env), y(env))
    if isinstance(node, Unary):
        operand = _compile_expr(node.operand)
        return lambda env: -operand(env)
    if isinstance(node, Binary):
        left = _compile_expr(node.left)
        right = _compile_expr(node.right)
        if node.op == "/":
            return lambda env: field_div(
                left(env), right(env), "division by zero in a scalar expression")
        op = _ARITHMETIC[node.op]
        return lambda env: op(left(env), right(env))
    if isinstance(node, Call):
        return _compile_call(_FUNCTION_IMPLS[node.func], node.args)
    raise TypeError(f"not an expression node: {type(node).__name__}")


def _compile_call(fn, args):
    """A closure applying `fn` to the values of the argument expressions."""
    if all(isinstance(arg, Name) for arg in args):
        if len(args) == 1:
            get = itemgetter(args[0].ident)
            return lambda env: fn(get(env))
        get = itemgetter(*(arg.ident for arg in args))
        return lambda env: fn(*get(env))
    compiled = [_compile_expr(arg) for arg in args]
    return lambda env: fn(*[arg(env) for arg in compiled])


def _compile_program(construction: Construction):
    """The definitions and assertions as steps (name, evaluate, assertion).

    A definition step has `assertion` None and binds `name` to the value;
    an assertion step evaluates the predicate and carries its statement.
    """
    steps = []
    for stmt in construction.statements:
        if isinstance(stmt, Definition):
            steps.append((stmt.name, _compile_expr(stmt.expr), None))
        elif isinstance(stmt, Assertion):
            steps.append((None, _compile_call(_PREDICATE_IMPLS[stmt.predicate],
                                              stmt.args), stmt))
    return tuple(steps)


def eval_expr(node, env):
    """Evaluate one checked expression in an environment of named values."""
    return _compile_expr(node)(env)


def _run_trial(program, env: dict) -> Assertion | None:
    """Run compiled steps in order; return the first false assertion."""
    for name, evaluate, assertion in program:
        if assertion is None:
            env[name] = evaluate(env)
        elif not evaluate(env):
            return assertion
    return None


def _evaluate_numeric(construction, seed, trials, bound, label):
    params = construction.params
    program = _compile_program(construction)

    def sample(rng, bound):
        return {name: sample_rational(rng, bound) for name in params}

    def check(env):
        failed = _run_trial(program, env)
        if failed is None:
            return None
        # parameters are never rebound, so env still holds the draw
        return (tuple((name, env[name]) for name in params),
                f"assertion {_assertion_text(failed)} failed")

    return run_trials(label, "trial", sample, check, trials, seed, bound)


def _evaluate_symbolic(construction, label):
    for stmt in construction.statements:
        if isinstance(stmt, ParamDecl):
            for name, span in zip(stmt.names, stmt.name_spans):
                if name not in VARIABLES:
                    raise DslTypeError(
                        "symbolic mode allows only the parameters "
                        f"{', '.join(VARIABLES)}; got '{name}'", span)
    env = {name: RationalFunction.variable(name)
           for name in construction.params}
    program = _compile_program(construction)

    def checks():
        seen: set[str] = set()
        for name, evaluate, stmt in program:
            if stmt is None:
                env[name] = evaluate(env)
                continue
            text = _assertion_text(stmt)
            check_id = f"assert {text}"
            serial = 2
            while check_id in seen:
                check_id = f"assert {text} #{serial}"
                serial += 1
            seen.add(check_id)
            yield check_id, bool(evaluate(env)), text

    return run_checks(label, checks())


def evaluate_construction(construction: Construction, mode: str = "numeric",
                          seed: int = 0, trials: int = 1000, bound: int = 20,
                          label: str = "construction") -> VerificationReport:
    """Check every assertion of a parsed program.

    Numeric mode samples the declared parameters afresh each trial
    (uniformly random reduced fractions, in declaration order) and counts
    degenerate trials as skips.  Symbolic mode binds the parameters to the
    field generators, so a passing assertion is an identity of rational
    functions; it requires the parameter names to be drawn from a, b, c,
    d, k.
    """
    if mode == "symbolic":
        return _evaluate_symbolic(construction, label)
    if mode != "numeric":
        raise ValueError(f"unknown mode {mode!r}")
    return _evaluate_numeric(construction, seed, trials, bound, label)
