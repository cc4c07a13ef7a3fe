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

Evaluation compiles a checked program once per run to one Python function
(the nesting limit keeps its source under CPython's 200 parentheses) of an
env that binds each parameter by name and is only read: a numeric trial
returns at its first false assertion, a stepping program yields each
definition's value and each assertion's argument values in file order (for
the symbolic run and for `render`), and the builders of `theorems` get the
definitions of their corpus files.  A numeric run binds every parameter to
its reduced int pair (`scalar.sample_ratios`): a point literal over
parameters, int literals and their products, such as `(b, k*b)`, is int
products and one `geom.projective_point`; any other read builds the
`Fraction` of its pair.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

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
    projective_point,
    second_intersection,
)
from .poly import VARIABLES
from .ratfun import RationalFunction
from .scalar import field_div, sample_ratios
from .theorems import VerificationReport, _Record, run_checks, run_trials

MAX_NESTING = 64


# -- diagnostics -----------------------------------------------------------------


class Span(NamedTuple):
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
        # the text before the column, tabs kept, so a terminal aligns the caret
        pad = "".join(ch if ch == "\t" else " " for ch in text[:self.span.col - 1])
        caret = pad + "^" * max(1, min(
            self.span.length, len(text) - self.span.col + 1))
        return f"{head}\n    {text}\n    {caret}"


class DslSyntaxError(DslError):
    pass


class DslNameError(DslError):
    pass


class DslTypeError(DslError):
    pass


# -- tokens ----------------------------------------------------------------------


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int
    offset: int


_SYMBOLS = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", ";": "SEMI",
            "=": "EQUALS", "+": "PLUS", "-": "MINUS", "*": "STAR",
            "/": "SLASH"}


# Every character starts a match, so the matches tile the source: a newline
# (group 1), blanks or a comment (no group), a token (its named group), or
# any other character (BAD).  The classes are ASCII only, so a superscript
# or Arabic-Indic digit is an unexpected character.
_TOKEN = re.compile(r"(\n)|[ \t\r]+|#[^\n]*|(?P<INT>[0-9]+)"
                    r"|(?P<IDENT>[A-Za-z][A-Za-z0-9_]*)|(?P<SYMBOL>[(),;=+*/-])"
                    r"|(?P<BAD>.)")


def _tokenize(source: str) -> list[Token]:
    """The tokens of `source`, then EOF.  Lines break at newlines alone; a
    column is one plus the number of characters since the line began."""
    tokens = []
    line, line_start = 1, 0
    new = tuple.__new__  # a Token, skipping the named tuple's Python __new__
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind is None:
            if m.lastindex:
                line += 1
                line_start = m.end()
            continue
        text, i = m[0], m.start()
        if kind == "BAD":
            raise DslSyntaxError(f"unexpected character {text!r}",
                                 Span(line, i - line_start + 1, i, 1))
        tokens.append(new(Token, (_SYMBOLS.get(text, kind), text, line,
                                  i - line_start + 1, i)))
    n = len(source)
    tokens.append(Token("EOF", "", line, n - line_start + 1, n))
    return tokens


def _token_span(tok: Token) -> Span:
    return Span(tok.line, tok.col, tok.offset, max(1, len(tok.text)))


def _join_spans(start: Span, end: Span) -> Span:
    return Span(start.line, start.col, start.offset,
                end.offset + end.length - start.offset)


# -- AST -------------------------------------------------------------------------

# Nodes are immutable records (`theorems._Record`): two nodes are equal, and
# hash alike, when their classes and every field but their spans are equal,
# and their reprs leave the spans out.


class IntLit(_Record):
    _compared = ("value",)

    def __init__(self, value: int, span: Span):
        self.__dict__.update(value=value, span=span)


class Name(_Record):
    _compared = ("ident",)

    def __init__(self, ident: str, span: Span):
        self.__dict__.update(ident=ident, span=span)


class PointLit(_Record):
    _compared = ("x", "y")

    def __init__(self, x, y, span: Span):
        self.__dict__.update(x=x, y=y, span=span)


class Unary(_Record):
    _compared = ("op", "operand")

    def __init__(self, op: str, operand, span: Span):
        self.__dict__.update(op=op, operand=operand, span=span)


class Binary(_Record):
    _compared = ("op", "left", "right")

    def __init__(self, op: str, left, right, span: Span):
        self.__dict__.update(op=op, left=left, right=right, span=span)


class Call(_Record):
    _compared = ("func", "args")

    def __init__(self, func: str, args: tuple, span: Span):
        self.__dict__.update(func=func, args=args, span=span)


class ParamDecl(_Record):
    _compared = ("names",)

    def __init__(self, names: tuple[str, ...], span: Span,
                 name_spans: tuple[Span, ...]):
        self.__dict__.update(names=names, span=span, name_spans=name_spans)


class Definition(_Record):
    _compared = ("type", "name", "expr")

    def __init__(self, type: str, name: str, expr, span: Span, name_span: Span):
        self.__dict__.update(type=type, name=name, expr=expr, span=span,
                             name_span=name_span)


class Assertion(_Record):
    _compared = ("predicate", "args")

    def __init__(self, predicate: str, args: tuple, span: Span, pred_span: Span):
        self.__dict__.update(predicate=predicate, args=args, span=span,
                             pred_span=pred_span)


class Construction(_Record):
    """A checked .geo program; two parses are equal iff structurally identical."""

    _compared = ("statements",)

    def __init__(self, statements: tuple):
        self.__dict__.update(statements=statements)

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

# name -> (implementation, argument types, result type)
_FUNCTION_ROWS = {
    "midpoint": (midpoint, ("point", "point"), "point"),
    "circumcenter": (circumcenter, ("point", "point", "point"), "point"),
    "perp_bisector": (perp_bisector, ("point", "point"), "line"),
    "perp_through": (perp_through, ("point", "line"), "line"),
    "line": (line_through, ("point", "point"), "line"),
    "intersect": (intersect_lines, ("line", "line"), "point"),
    "second_intersection": (second_intersection, ("circle", "line", "point"), "point"),
    "circle_on_diameter": (circle_on_diameter, ("point", "point"), "circle"),
    "circumcircle": (circumcircle, ("point", "point", "point"), "circle"),
    "parallelogram_fourth": (parallelogram_fourth, ("point", "point", "point"), "point"),
    "newton_line": (newton_line, ("point", "point", "point", "point"), "line"),
    "on_unit_circle": (on_unit_circle, ("scalar",), "point"),
    "power": (power_of_point, ("point", "circle"), "scalar"),
    "cross_ratio": (cross_ratio, ("point", "point", "point", "point"), "scalar"),
}

# name -> (implementation, argument types)
_PREDICATE_ROWS = {
    "midpoint": (is_midpoint, ("point", "point", "point")),
    "perpendicular": (is_perpendicular, ("line", "line")),
    "parallel": (is_parallel, ("line", "line")),
    "collinear": (is_collinear, ("point", "point", "point")),
    "concyclic": (are_concyclic, ("point", "point", "point", "point")),
    "harmonic": (harmonic, ("point", "point", "point", "point")),
    "coaxial": (are_coaxial, ("circle", "circle", "circle")),
    "on": (point_on, ("point", "line or circle")),
}

# views of the rows: the signatures `parse` checks, the implementations
# programs are compiled against
FUNCTIONS = {name: row[1:] for name, row in _FUNCTION_ROWS.items()}
PREDICATES = {name: row[1] for name, row in _PREDICATE_ROWS.items()}
_FUNCTION_IMPLS = {name: row[0] for name, row in _FUNCTION_ROWS.items()}
_PREDICATE_IMPLS = {name: row[0] for name, row in _PREDICATE_ROWS.items()}

_RESERVED = (set(_TYPES) | {"param", "assert"}
             | set(FUNCTIONS) | set(PREDICATES))


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

    def _comma_list(self, item) -> list:
        """`item()`, then `item()` again after each ","."""
        items = [item()]
        while self._peek().kind == "COMMA":
            self._next()
            items.append(item())
        return items

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
                f"expected one of: param, {', '.join(_TYPES)}, assert; "
                f"found {found}", _token_span(tok))
        if tok.text == "param":
            return self._param_decl()
        if tok.text == "assert":
            return self._assertion()
        return self._definition()

    def _param_decl(self) -> ParamDecl:
        kw = self._next()
        toks = self._comma_list(lambda: self._expect("IDENT", "a parameter name"))
        semi = self._expect("SEMI", "';'")
        return ParamDecl(names=tuple(tok.text for tok in toks),
                         span=_join_spans(_token_span(kw), _token_span(semi)),
                         name_spans=tuple(_token_span(tok) for tok in toks))

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
        args = [arg for arg, _ in self._comma_list(self._expr)]
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
                args = ([] if self._peek().kind == "RPAREN"
                        else self._comma_list(self._expr))
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


# Generated source holds no .geo text: its identifiers all start with "_",
# which no .geo identifier can, and names, literals and statements are the
# defaults `_c0, _c1, ...`, so sources of one shape share a code object.  It
# reads the tables above and the helpers `Fraction`, `Point`,
# `projective_point` and `field_div` from this module's globals each time it
# runs, so a kept program calls the implementations installed then.  The env
# binds each parameter by name: to its reduced int pair in a paired program,
# to its value otherwise.
_compiled = lru_cache(maxsize=256)(compile)


def _times(left, right):  # the source of an int product; None stands for 1
    return f"{left} * {right}" if left and right else left or right


class _Emitter:
    """One generated function: its body, constants, and unpacked pairs."""

    def __init__(self, paired=False):
        self.paired = paired
        self.locals, self.unpacked, self.constants, self.body = {}, {}, [], []

    def const(self, value) -> str:
        self.constants.append(value)
        return f"_c{len(self.constants) - 1}"

    def name(self, ident: str) -> str:
        if ident in self.locals:
            return self.locals[ident]
        read = f"_env[{self.const(ident)}]"
        return f"_g['Fraction'](*{read})" if self.paired else read

    def is_pair_scalar(self, node) -> bool:
        """Whether `node` is an int literal, a parameter of a paired program
        (a name that is not a definition), or their product."""
        if isinstance(node, IntLit):
            return True
        if isinstance(node, Name):
            return self.paired and node.ident not in self.locals
        return (isinstance(node, Binary) and node.op == "*"
                and self.is_pair_scalar(node.left)
                and self.is_pair_scalar(node.right))

    def pair(self, node):
        """Sources of the int pair of an `is_pair_scalar` node; None for 1."""
        if isinstance(node, IntLit):
            return self.const(node.value), None
        if isinstance(node, Name):
            i = self.unpacked.setdefault(node.ident, len(self.unpacked))
            return f"_n{i}", f"_d{i}"
        (ln, ld), (rn, rd) = self.pair(node.left), self.pair(node.right)
        return f"{ln} * {rn}", _times(ld, rd)

    def expr(self, node) -> str:
        if isinstance(node, IntLit):
            return self.const(Fraction(node.value))
        if isinstance(node, Name):
            return self.name(node.ident)
        if isinstance(node, PointLit):
            if isinstance(node.x, IntLit) and isinstance(node.y, IntLit):
                return self.const(Point(Fraction(node.x.value), Fraction(node.y.value)))
            if self.is_pair_scalar(node.x) and self.is_pair_scalar(node.y):
                (xn, xd), (yn, yd) = self.pair(node.x), self.pair(node.y)
                return (f"_g['projective_point']({_times(xn, yd)}, "
                        f"{_times(yn, xd)}, {_times(xd, yd) or 1})")
            return f"_g['Point']({self.expr(node.x)}, {self.expr(node.y)})"
        if isinstance(node, Unary):
            return f"(-{self.expr(node.operand)})"
        if isinstance(node, Binary):
            left, right = self.expr(node.left), self.expr(node.right)
            if node.op == "/":
                message = self.const("division by zero in a scalar expression")
                return f"_g['field_div']({left}, {right}, {message})"
            return f"({left} {node.op} {right})"
        if isinstance(node, Call):
            args = ", ".join(map(self.expr, node.args))
            return f"_FUNCTION_IMPLS[{node.func!r}]({args})"
        raise TypeError(f"not an expression node: {type(node).__name__}")

    def program(self, statements, assertions):
        for stmt in statements:
            if isinstance(stmt, Definition):
                value = self.expr(stmt.expr)
                local = self.locals[stmt.name] = f"_v{len(self.locals)}"
                self.body.append(f"{local} = {value}")
                if assertions == "yield":
                    self.body.append(f"yield {self.const(stmt)}, {local}")
            elif isinstance(stmt, Assertion) and assertions:
                args = ", ".join(map(self.expr, stmt.args))
                self.body.append(
                    f"if not _PREDICATE_IMPLS[{stmt.predicate!r}]({args}): "
                    f"return {self.const(stmt)}" if assertions == "return"
                    else f"yield {self.const(stmt)}, ({args},)")
        if assertions is None:
            self.body.append("return {%s}" % ", ".join(
                f"{self.const(name)}: {local}" for name, local in self.locals.items()))
        else:  # a generator also when there is no statement
            self.body.append("yield from ()" if assertions == "yield" else "return None")
        return self

    def function(self):
        """`_program(_env)`: the unpacking, then the body; `_g, _c0, ...` are defaults."""
        lines = [f"_n{i}, _d{i} = _env[{self.const(name)}]"
                 for name, i in self.unpacked.items()] + self.body
        params = "".join(f", _c{i}" for i in range(len(self.constants)))
        source = "".join(f"\n    {line}" for line in lines)
        namespace: dict = {}
        exec(_compiled(f"def _program(_env, _g{params}):{source}\n", "<geo>", "exec"),
             globals(), namespace)
        namespace["_program"].__defaults__ = (globals(), *self.constants)
        return namespace["_program"]


def _compile_program(construction: Construction, paired=False, assertions="return"):
    """The program as one generated function of an env that binds each
    parameter by name, to its reduced int pair when `paired` and to its
    value otherwise; the env is only read.  "return" returns the first false
    assertion or None; "yield" steps through the file, yielding each
    definition and its value and each assertion and its argument values;
    None returns the definitions."""
    return _Emitter(paired).program(construction.statements, assertions).function()


def eval_expr(node, env):
    """Evaluate one checked expression in an environment of named values."""
    emit = _Emitter()
    emit.body.append(f"return {emit.expr(node)}")
    return emit.function()(env)


def _run_trial(program, env: dict) -> Assertion | None:
    """Run a compiled program; return the first false assertion."""
    return program(env)


def _evaluate_numeric(construction, seed, trials, bound, label):
    params = construction.params
    program = _compile_program(construction, paired=True)

    def sample(rng, bound):
        return dict(zip(params, sample_ratios(rng, bound, len(params))))

    def check(env):
        failed = _run_trial(program, env)
        if failed is None:
            return None
        return (tuple((name, Fraction(*env[name])) for name in params),
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
    program = _compile_program(construction, assertions="yield")

    def checks():
        seen: set[str] = set()
        for stmt, values in program(env):
            if not isinstance(stmt, Assertion):
                continue
            verdict = _PREDICATE_IMPLS[stmt.predicate](*values)
            text = _assertion_text(stmt)
            check_id = f"assert {text}"
            serial = 2
            while check_id in seen:
                check_id = f"assert {text} #{serial}"
                serial += 1
            seen.add(check_id)
            yield check_id, bool(verdict), text

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
