"""The paper's results, stated: configurations, samplers, builders and proofs.

Seven results are covered: the chord form of the butterfly theorem, its
cyclic-quadrilateral form, the two generalizations to arbitrary
quadrilaterals (ids "thm1" and "thm2"), and three supporting lemmas.  Each
is the corpus `.geo` file of the same name plus a sampler: its randomized
numeric trials run the whole file, assertions included, over exact
rationals on the sampled configuration.  thm1, thm2, and lemma3
additionally get symbolic proofs over Q(a, b, c, d, k), where every
construction step is compared against the independently keyed-in closed
forms in `closedforms` and the final midpoint / power-ratio identities are
decided exactly.

`dsl` runs the results as it runs a file for `verify`: trials by
`dsl._numeric_run`, proof reports by `dsl.run_checks`.  A trial returns
None or the file's first false assertion, and a degenerate configuration
(a `DegenerateConfig`) skips it.  The six builders (thm1, thm2, lemma2,
lemma3, thm0 and the chord form) run the definitions of their corpus
files, so each construction is stated once, in the file `verify` checks;
the same definitions serve both scalar backends.

Each sampler's rejection loop is a pair core: one batched draw per
candidate, each value its reduced int pair (`scalar.sample_ratios`), tested
on those ints, the cyclic and chord tests on points placed from the pairs.
A core returns the accepted pairs in config field order, and a built-in
trial binds them as a `verify` trial binds its draw: no `Fraction` is built
from draw to verdict but a counterexample's parameters.  The public
samplers build their config of Fractions from the core.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from operator import attrgetter
from pathlib import Path
from typing import Callable, Mapping, NamedTuple

from . import closedforms
from .dsl import VerificationReport, _compile_program, _numeric_run, parse, run_checks
from .errors import DegenerateConfig, DenominatorVanishes, SamplerExhausted
from .geom import (
    Circle,
    Line,
    Point,
    are_coaxial,
    intersect_lines,
    is_midpoint,
    is_parallel,
    is_perpendicular,
    line_side,
    line_through,
    midpoint,
    pencil_cross_ratio,
    power_of_point,
    second_intersection,
    _on_unit_circle,
)
from .poly import _exact_point
from .ratfun import RationalFunction
# derive_rng is read as `theorems.derive_rng` by the benchmark's bridge workload
from .scalar import derive_rng, sample_ratios

_MAX_REDRAWS = 100000
_RATIONAL = (int, Fraction)
_UNIT_CIRCLE = Circle(0, 0, -1)


# -- configurations -----------------------------------------------------------

# Configurations are named tuples: immutable, built once per trial at the
# cost of a tuple, and equal to any tuple of the same values.


def _field_params(cfg) -> tuple[tuple[str, object], ...]:
    """A scalar configuration's parameters: its fields, in declared order."""
    return tuple(zip(cfg._fields, cfg))


class GaugeConfig(NamedTuple):
    """Quadrilateral in the diagonal gauge: P(0,0), A(a,0), B(b,kb), C(c,0), D(d,kd).

    The diagonal intersection sits at the origin by construction.  Proper
    configurations have all five scalars nonzero with a != c and b != d;
    the sampler additionally places P strictly inside both diagonals
    (a*c < 0 and b*d < 0).
    """

    a: object
    b: object
    c: object
    d: object
    k: object

    @classmethod
    def symbolic(cls) -> "GaugeConfig":
        return cls(*RationalFunction.variables())

    params = _field_params

    def as_assignment(self) -> dict[str, Fraction]:
        return dict(self.params())


class CyclicConfig(NamedTuple):
    """Four tangent-half-angle parameters placing A, B, C, D on the unit circle."""

    t_a: object
    t_b: object
    t_c: object
    t_d: object

    params = _field_params


class ChordButterflyConfig(NamedTuple):
    """Chord endpoints A, B and free chord endpoints C, E on the unit circle.

    The two free chords are drawn through the midpoint M of AB; sampling
    keeps C and the constructed F on opposite sides of line AB, matching
    the classical statement.
    """

    t_a: object
    t_b: object
    t_c: object
    t_e: object

    params = _field_params


class QuadConfig(NamedTuple):
    """Four free vertices A(ax, ay), B(bx, by), C(cx, cy), D(dx, dy) for the
    Newton-line lemma."""

    ax: object
    ay: object
    bx: object
    by: object
    cx: object
    cy: object
    dx: object
    dy: object

    params = _field_params


# -- corpus programs (builders and numeric trials) ----------------------------

_CORPUS = Path(__file__).with_name("corpus")


@functools.cache
def _construction(stem: str):
    """Corpus file `stem`, parsed once per process, its parameters, and a
    getter of them from the config fields of the same names."""
    construction = parse((_CORPUS / f"{stem}.geo").read_text(encoding="utf-8"))
    params = construction.params
    return construction, params, attrgetter(*params)


@functools.cache
def _program(stem: str, paired: bool, assertions):
    """Corpus file `stem` compiled with `paired` and `assertions` as
    `dsl._compile_program` takes them, once per process and key."""
    return _compile_program(_construction(stem)[0], paired, assertions)


def _run(stem: str, cfg, assertions=None):
    """Corpus file `stem` run on `cfg`: with `assertions=None` the objects
    its definitions name, in file order; with "return" its first false
    assertion, or None.  A config of ints and Fractions binds each parameter
    as its reduced int pair, as a numeric `.geo` trial binds its draw; any
    other config (a symbolic one) binds each parameter by its value."""
    _, params, get = _construction(stem)
    values = get(cfg)
    paired = all(isinstance(value, _RATIONAL) for value in values)
    if paired:
        values = [value.as_integer_ratio() for value in values]
    return _program(stem, paired, assertions)(dict(zip(params, values)))


# The builders run the definitions of their corpus files, for the provers,
# the projective-route checkers and the bridge.
def build_thm1(cfg: GaugeConfig) -> dict[str, object]:
    return _run("thm1", cfg)


def build_thm2(cfg: GaugeConfig) -> dict[str, object]:
    return _run("thm2", cfg)


def build_lemma3(cfg: GaugeConfig) -> dict[str, object]:
    return _run("lemma3", cfg)


def build_thm0(cfg: CyclicConfig) -> dict[str, object]:
    return _run("thm0_cyclic", cfg)


def build_chord(cfg: ChordButterflyConfig) -> dict[str, object]:
    return _run("butterfly_chord", cfg)


def build_lemma2(cfg: GaugeConfig) -> dict[str, object]:
    return _run("lemma2", cfg)


# -- checkers of the projective route ---------------------------------------------


def check_thm1_harmonic(cfg: GaugeConfig) -> bool:
    """Harmonic-pencil and parallelism facts behind the projective proof.

    With F = BC meet DA and G = CD meet AB: the pencil at F through
    (P, G; A, B) and through (P, G; R, Q) is harmonic, and QR is parallel
    to FG.  (The pencil's value read on a transversal such as AB is the
    same cross ratio, so it would decide nothing more.)
    """
    objs = build_thm1(cfg)
    P, A, B, C, D = objs["P"], objs["A"], objs["B"], objs["C"], objs["D"]
    F = intersect_lines(line_through(B, C), line_through(D, A))
    G = intersect_lines(objs["line_CD"], objs["line_AB"])
    if pencil_cross_ratio(F, P, G, A, B) != -1:
        return False
    if pencil_cross_ratio(F, P, G, objs["R"], objs["Q"]) != -1:
        return False
    return is_parallel(objs["axis"], line_through(F, G))


def check_thm2_perpendicularity(cfg: GaugeConfig) -> bool:
    """PW is perpendicular to UV, where U = AD meet BC and V = AB meet CD."""
    objs = build_thm2(cfg)
    U = intersect_lines(objs["line_AD"], objs["line_BC"])
    V = intersect_lines(line_through(objs["A"], objs["B"]),
                        line_through(objs["C"], objs["D"]))
    return is_perpendicular(objs["line_PW"], line_through(U, V))


# -- symbolic <-> numeric bridge -----------------------------------------------


def evaluate_object(obj, assignment: Mapping[str, Fraction]):
    """Exact evaluation of a symbolic Point/Line/Circle at an assignment of
    the five variables to ints or Fractions; a rational figure is its own
    value.  The assignment is checked as `Polynomial.evaluate` checks it,
    even where every field is a constant.

    Each structurally distinct polynomial among the fields' numerators and
    denominators is read once, through `Polynomial.evaluate`: canonical
    polynomials are equal exactly when their `(_den, _terms)` are, so the
    fields of a point over one denominator share that denominator's value.
    Field by field, as `RationalFunction.evaluate` does, a denominator is
    tested for zero (DenominatorVanishes) before the numerator is read."""
    if not isinstance(obj, (Point, Line, Circle)):
        raise TypeError(f"cannot evaluate {type(obj).__name__}")
    _exact_point(assignment)
    h = obj._h
    if type(h[0]) is int:
        return obj
    values = {}

    def read(poly):
        key = (poly._den, poly._terms)
        value = values.get(key)
        if value is None:
            value = values[key] = poly.evaluate(assignment)
        return value

    # a symbolic figure's tuple is its fields (x, y; u, v, w; d, e, f), then 1
    fields = [value._value(read) if isinstance(value, RationalFunction)
              else value for value in h[:-1]]
    if isinstance(obj, Line) and not (fields[0] or fields[1]):
        # a common root of a symbolic line's u and v, where it is undefined
        raise DenominatorVanishes("the line's u and v both vanish at the "
                                  "given assignment")
    return type(obj)(*fields)


# -- samplers -------------------------------------------------------------------


def _config(cls, pairs):
    return cls(*(Fraction(p, q) for p, q in pairs))


def _gauge_pairs(rng, bound: int) -> list[tuple[int, int]]:
    for _ in range(_MAX_REDRAWS):
        pairs = sample_ratios(rng, bound, 5)
        (a, _), (b, _), (c, _), (d, _), (k, _) = pairs
        # the signs of a*c and b*d are those of their numerators' products
        if k and a * c < 0 and b * d < 0:
            return pairs
    raise SamplerExhausted("gauge sampler exhausted its redraw budget")


def sample_gauge(rng, bound: int) -> GaugeConfig:
    """Draw a proper gauge configuration by rejection.

    Enforced: k nonzero and P strictly inside both diagonals (a*c < 0,
    b*d < 0), which already makes a, b, c, d nonzero, a != c and b != d.
    """
    return _config(GaugeConfig, _gauge_pairs(rng, bound))


def _half_angles(rng, bound: int, name: str, accept) -> list[tuple[int, int]]:
    """Four distinct half-angle pairs, none of them +-1, whose points on the
    unit circle `accept` takes; the `name` sampler's rejection loop."""
    for _ in range(_MAX_REDRAWS):
        pairs = sample_ratios(rng, bound, 4)
        # reduced pairs are canonical, so equal pairs are equal rationals, and
        # p/q = +-1 exactly when |p| = q
        if (len(set(pairs)) == 4 and all(abs(p) != q for p, q in pairs)
                and accept(*(_on_unit_circle(p, q) for p, q in pairs))):
            return pairs
    raise SamplerExhausted(f"{name} sampler exhausted its redraw budget")


def _diagonals_meet(A, B, C, D) -> bool:
    # parallel diagonals never meet at a P
    return not is_parallel(line_through(A, C), line_through(B, D))


def _split_by_ab(A, B, C, E) -> bool:
    """Whether C and F, the second point on the unit circle of the chord
    through E and the midpoint of AB, lie on opposite sides of line AB."""
    ab = line_through(A, B)
    try:
        F = second_intersection(_UNIT_CIRCLE, line_through(E, midpoint(A, B)), E)
    except DegenerateConfig:
        return False
    return line_side(C, ab) * line_side(F, ab) < 0


_cyclic_pairs = functools.partial(_half_angles, name="cyclic", accept=_diagonals_meet)
_chord_pairs = functools.partial(_half_angles, name="chord", accept=_split_by_ab)


def sample_cyclic(rng, bound: int) -> CyclicConfig:
    """Distinct half-angle parameters (excluding +-1) with non-parallel diagonals."""
    return _config(CyclicConfig, _cyclic_pairs(rng, bound))


def sample_chord(rng, bound: int) -> ChordButterflyConfig:
    """Distinct parameters (excluding +-1) with C and F on opposite sides of AB."""
    return _config(ChordButterflyConfig, _chord_pairs(rng, bound))


def sample_quad(rng, bound: int) -> QuadConfig:
    """Four unconstrained random vertices; degeneracies surface as trial skips."""
    return _config(QuadConfig, sample_ratios(rng, bound, 8))


def sample_lemma2(rng, bound: int) -> GaugeConfig:
    """A gauge draw.  Its sign conditions make A and C distinct points of
    the x-axis and B and D distinct points of y = kx, none of them on both
    lines (which meet only at P); so each of the triangles BCD, CDA, DAB and
    ABC has two vertices on one line and its third off it, and all four
    circumcenters exist."""
    return _config(GaugeConfig, _gauge_pairs(rng, bound))


# -- symbolic proofs --------------------------------------------------------------


def _ratio_at(objs, key: str):
    """Power of `objs[key]` with respect to circle_ac over that to circle_bd."""
    point = objs[key]
    return (power_of_point(point, objs["circle_ac"])
            / power_of_point(point, objs["circle_bd"]))


def _thm1_axis_holds(objs):
    """Whether thm1's symbolic axis equals closedforms.AXIS: the verdict of
    check "thm1.axis" when `prove_thm2` was given thm1's report (held under
    that id), or else decided here on a fresh build."""
    holds = objs.get("thm1.axis")
    if holds is None:
        holds = build_thm1(GaugeConfig.symbolic())["axis"] == closedforms.AXIS
    return holds


def _diagonal_ratio(objs):
    """(PB . PD) / (PA . PC) with the dot products taken from P."""
    P, A, B, C, D = (objs[key] for key in "PABCD")
    return (((B.x - P.x) * (D.x - P.x) + (B.y - P.y) * (D.y - P.y))
            / ((A.x - P.x) * (C.x - P.x) + (A.y - P.y) * (C.y - P.y)))


# Each proof, as rows (step, reproduces a closed form?, check on the built
# objects) run in order; the check id is "<theorem>.<step>".
_CIRCUMCENTER_ROWS = (
    ("O_a", True, lambda o: o["O_a"] == closedforms.O_A),
    ("O_b", True, lambda o: o["O_b"] == closedforms.O_B),
    ("O_c", True, lambda o: o["O_c"] == closedforms.O_C),
    ("O_d", True, lambda o: o["O_d"] == closedforms.O_D),
)
_PLANS = {
    "thm1": (
        *_CIRCUMCENTER_ROWS,
        ("M", True, lambda o: o["M"] == closedforms.M_CENTERS),
        ("N", True, lambda o: o["N"] == closedforms.N_CENTERS),
        ("axis", True, lambda o: o["axis"] == closedforms.AXIS),
        ("line_AB", True, lambda o: o["line_AB"] == closedforms.LINE_AB),
        ("line_CD", True, lambda o: o["line_CD"] == closedforms.LINE_CD),
        ("Q", True, lambda o: o["Q"] == closedforms.Q_FIRST),
        ("R", True, lambda o: o["R"] == closedforms.R_FIRST),
        ("midpoint_PQR", False, lambda o: is_midpoint(o["P"], o["Q"], o["R"])),
    ),
    "thm2": (
        ("X", True, lambda o: o["X"] == closedforms.X_MEET),
        ("Y", True, lambda o: o["Y"] == closedforms.Y_MEET),
        ("Z", True, lambda o: o["Z"] == closedforms.Z_MEET),
        ("W", True, lambda o: o["W"] == closedforms.W_VERTEX),
        ("W_x", True, lambda o: o["W"].x == closedforms.W_X),
        ("W_y", True, lambda o: o["W"].y == closedforms.W_Y),
        ("axis", True, lambda o: o["axis"] == closedforms.AXIS),
        ("Q", True, lambda o: o["Q"] == closedforms.Q_SECOND),
        ("R", True, lambda o: o["R"] == closedforms.R_SECOND),
        ("midpoint_PQR", False, lambda o: is_midpoint(o["P"], o["Q"], o["R"])),
        # "thm2's axis equals thm1's axis" is decided as "each equals
        # closedforms.AXIS".  Equality of lines is projective, i.e.
        # proportional triples, which is transitive, so both say the same
        # thing on every input; each comparison is then against AXIS's 2/4
        # terms, not the other axis's hundreds.  The first conjunct is the
        # verdict of row "axis" above, which `_prove` holds under its id.
        # The second is check "thm1.axis": in `run_suite` its verdict is read
        # from thm1's report of the same call, whose proof built thm1's
        # axis; a standalone `prove_thm2()` builds that axis and decides it
        # here (`_thm1_axis_holds`).
        ("axis_matches_thm1", False,
         lambda o: o["thm2.axis"] and _thm1_axis_holds(o)),
    ),
    "lemma3": (
        *_CIRCUMCENTER_ROWS,
        ("ratio_P", True, lambda o: _ratio_at(o, "P") == closedforms.POWER_RATIO),
        ("ratio_M", True, lambda o: _ratio_at(o, "M") == closedforms.POWER_RATIO),
        ("ratio_N", True, lambda o: _ratio_at(o, "N") == closedforms.POWER_RATIO),
        # The chain D == PR and P == M == N == D (D the diagonal ratio, PR the
        # closed form) is decided as "each of D, P, M and N equals PR".  Exact
        # equality in a field is transitive, so both say the same thing on
        # every input; each comparison is then against PR's 2/1 terms, not
        # another unreduced ratio of hundreds.  "P, M and N equal PR" are
        # the verdicts of the rows above, which `_prove` holds under their ids.
        ("ratio_chain", True,
         lambda o: (_diagonal_ratio(o) == closedforms.POWER_RATIO
                    and all(o[f"lemma3.ratio_{key}"] for key in "PMN"))),
        ("pencil", False,
         lambda o: are_coaxial(o["circle_ac"], o["circle_bd"], o["circle_pmn"])),
    ),
}

# ids of the checks that reproduce stored construction-step formulas, as
# opposed to the theorem-level identities proved on top of them
CLOSED_FORM_CHECK_IDS = tuple(f"{theorem}.{step}" for theorem, rows in _PLANS.items()
                              for step, closed_form, _ in rows if closed_form)


def _prove(theorem: str, objs: dict[str, object]) -> VerificationReport:
    """Run the plan of `theorem` on its built symbolic objects, holding
    each verdict in `objs` under its check id for the rows after it."""

    def checks():
        for step, _, check in _PLANS[theorem]:
            check_id = f"{theorem}.{step}"
            objs[check_id] = verdict = check(objs)
            yield check_id, verdict, check_id

    return run_checks(theorem, checks())


def prove_thm1() -> VerificationReport:
    """Symbolic proof of the first generalization, step by step against closed forms."""
    return _prove("thm1", build_thm1(GaugeConfig.symbolic()))


def prove_thm2(thm1: VerificationReport | None = None) -> VerificationReport:
    """Symbolic proof of the second generalization, including the shared
    axis.  Given `prove_thm1()`'s report of the same run as `thm1`, the
    shared-axis check reads its "thm1.axis" verdict; else it builds and
    checks thm1's axis itself."""
    objs = build_thm2(GaugeConfig.symbolic())
    if thm1 is not None:
        objs.update(check for check in thm1.checks if check[0] == "thm1.axis")
    return _prove("thm2", objs)


def prove_lemma3() -> VerificationReport:
    """Symbolic proof of coaxiality via the three equal power ratios, each
    computed and compared once."""
    return _prove("lemma3", build_lemma3(GaugeConfig.symbolic()))


# -- suite runner ------------------------------------------------------------------


def _trial(stem: str, pairs) -> object:
    """Corpus file `stem` run on int pairs: None, or its first false assertion."""
    return _program(stem, True, "return")(dict(zip(_construction(stem)[1], pairs)))


# result id, which is its corpus stem -> (pair core, trial), in run order.  A
# trial runs the whole file on the core's pairs, bound as a `verify` trial
# binds its draw.
_SUITE: dict[str, tuple[Callable, Callable]] = {
    stem: (core, functools.partial(_trial, stem))
    for stem, core in (
        ("butterfly_chord", _chord_pairs), ("thm0_cyclic", _cyclic_pairs),
        ("thm1", _gauge_pairs), ("thm2", _gauge_pairs),
        ("lemma1", functools.partial(sample_ratios, n=8)),
        ("lemma2", _gauge_pairs), ("lemma3", _gauge_pairs))}

_PROVERS = {"thm1": prove_thm1, "thm2": prove_thm2, "lemma3": prove_lemma3}

NUMERIC_ORDER = tuple(_SUITE)
SYMBOLIC_ORDER = tuple(_PROVERS)


def run_numeric(theorem: str, trials: int = 1000, seed: int = 0,
                bound: int = 20) -> VerificationReport:
    """Randomized trials for one theorem on the rng stream named after it."""
    if theorem not in _SUITE:
        raise ValueError(f"unknown result {theorem!r}; known results: "
                         f"{', '.join(_SUITE)}")
    core, trial = _SUITE[theorem]
    return _numeric_run(theorem, theorem, _construction(theorem)[1], core, trial,
                        trials, seed, bound)


def run_suite(mode: str = "both", trials: int = 1000, seed: int = 0,
              bound: int = 20) -> list[VerificationReport]:
    """Every result in canonical order: symbolic proofs first, then numeric trials."""
    if mode not in ("numeric", "symbolic", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    reports = []
    if mode in ("symbolic", "both"):
        # thm1 is built once per call: thm2's axis_matches_thm1 row reads
        # thm1's verdict on its axis
        thm1 = _PROVERS["thm1"]()
        reports += [thm1, _PROVERS["thm2"](thm1), _PROVERS["lemma3"]()]
    if mode in ("numeric", "both"):
        for theorem in NUMERIC_ORDER:
            reports.append(run_numeric(theorem, trials=trials, seed=seed,
                                       bound=bound))
    return reports
