"""The verified results as executable configurations and checkers.

Seven results are covered: the chord form of the butterfly theorem, its
cyclic-quadrilateral form, the two generalizations to arbitrary
quadrilaterals (ids "thm1" and "thm2"), and three supporting lemmas.  Each
gets a randomized numeric checker over exact rationals; thm1, thm2, and
lemma3 additionally get symbolic proofs over Q(a, b, c, d, k), where every
construction step is compared against the independently keyed-in closed
forms in `closedforms` and the final midpoint / power-ratio identities are
decided exactly.

A checker is a total function from a configuration to a bool; degenerate
configurations raise a `DegenerateConfig` subclass, which the trial driver
`run_trials` counts as a skip.  All builders work unchanged over both
scalar backends.

The samplers draw each value as its reduced int pair (`scalar.sample_ratio`)
and test candidates on those ints: the gauge sign conditions on numerators,
distinctness on the pairs, and the chord side test with `geom.line_side` on
the points' int tuples.  A `Fraction` is built only for a value that passes
the pair tests: for the gauge and quadrilateral samplers, only for the
accepted configuration; the cyclic and chord samplers need their points to
test a candidate, and `on_unit_circle` takes a scalar.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Mapping

from . import closedforms
from .errors import DegenerateConfig, SamplerExhausted
from .geom import (
    Circle,
    Line,
    Point,
    are_coaxial,
    circle_on_diameter,
    circumcenter,
    circumcircle,
    intersect_lines,
    is_midpoint,
    is_parallel,
    is_perpendicular,
    line_side,
    line_through,
    midpoint,
    newton_line,
    on_unit_circle,
    parallelogram_fourth,
    pencil_cross_ratio,
    perp_bisector,
    perp_through,
    power_of_point,
    projective_point,
    second_intersection,
)
from .poly import _exact_point
from .ratfun import RationalFunction
from .scalar import derive_rng, format_rational, sample_ratio

_MAX_REDRAWS = 100000
_RATIONAL = (int, Fraction)
_UNIT_CIRCLE = Circle(0, 0, -1)


# -- configurations -----------------------------------------------------------


def _field_params(cfg) -> tuple[tuple[str, object], ...]:
    """A scalar configuration's parameters: its dataclass fields, in order."""
    return tuple((f.name, getattr(cfg, f.name)) for f in fields(cfg))


@dataclass(frozen=True)
class GaugeConfig:
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

    def corners(self) -> tuple[Point, Point, Point, Point, Point]:
        values = (self.a, self.b, self.c, self.d, self.k)
        if all(isinstance(value, _RATIONAL) for value in values):
            # projective triples: B = (b, kb) is (b_n k_d, k_n b_n, b_d k_d)
            (an, ad), (bn, bd), (cn, cd), (dn, dd), (kn, kd) = (
                value.as_integer_ratio() for value in values)
            return (projective_point(0, 0, 1),
                    projective_point(an, 0, ad),
                    projective_point(bn * kd, kn * bn, bd * kd),
                    projective_point(cn, 0, cd),
                    projective_point(dn * kd, kn * dn, dd * kd))
        zero = self.a * 0
        return (Point(zero, zero),
                Point(self.a, zero),
                Point(self.b, self.k * self.b),
                Point(self.c, zero),
                Point(self.d, self.k * self.d))

    params = _field_params

    def as_assignment(self) -> dict[str, Fraction]:
        return dict(self.params())


def _unit_circle_corners(cfg) -> tuple[Point, ...]:
    """A half-angle configuration's points: its fields, in order, on the unit circle."""
    return tuple(on_unit_circle(value) for _, value in _field_params(cfg))


def _point_params(cfg, names: str) -> tuple[tuple[str, object], ...]:
    """The coordinates of the points `names` as parameters "ax", "ay", "bx", ..."""
    return tuple((f"{name.lower()}{axis}", getattr(getattr(cfg, name), axis))
                 for name in names for axis in "xy")


@dataclass(frozen=True)
class CyclicConfig:
    """Four tangent-half-angle parameters placing A, B, C, D on the unit circle."""

    t_a: object
    t_b: object
    t_c: object
    t_d: object

    corners = _unit_circle_corners
    params = _field_params


@dataclass(frozen=True)
class ChordButterflyConfig:
    """Chord endpoints A, B and free chord endpoints C, E on the unit circle.

    The two free chords are drawn through the midpoint M of AB; sampling
    keeps C and the constructed F on opposite sides of line AB, matching
    the classical statement.
    """

    t_a: object
    t_b: object
    t_c: object
    t_e: object

    corners = _unit_circle_corners
    params = _field_params


@dataclass(frozen=True)
class QuadConfig:
    """Four free vertices for the Newton-line lemma."""

    A: Point
    B: Point
    C: Point
    D: Point

    def params(self) -> tuple[tuple[str, object], ...]:
        return _point_params(self, "ABCD")


@dataclass(frozen=True)
class Lemma2Config:
    """Two quadrilaterals ABCD and PQRS with the six side/diagonal perpendicularities.

    Instances are generated from the circumcenter quadrilateral of a gauge
    quadrilateral (P, Q, R, S = O_c, O_d, O_a, O_b), which satisfies all six
    constraints exactly; `gauge` keeps the generating scalars for replay.
    """

    A: Point
    B: Point
    C: Point
    D: Point
    P: Point
    Q: Point
    R: Point
    S: Point
    gauge: GaugeConfig | None = None

    def params(self) -> tuple[tuple[str, object], ...]:
        if self.gauge is not None:
            return self.gauge.params()
        return _point_params(self, "ABCDPQRS")


# -- builders (shared by numeric, symbolic, and bridge paths) -----------------


def _circumcenters(A: Point, B: Point, C: Point, D: Point) -> tuple[Point, ...]:
    """O_a, O_b, O_c, O_d: the circumcenters of BCD, CDA, DAB and ABC, met from
    the bisectors of BC, BD; of CD, CA; of DA, DB; and of AB, AC."""
    return (circumcenter(C, B, D), circumcenter(D, C, A),
            circumcenter(A, D, B), circumcenter(B, A, C))


def build_thm1(cfg: GaugeConfig) -> dict[str, object]:
    """All intermediate objects of the first generalization, in construction order."""
    P, A, B, C, D = cfg.corners()
    O_a, O_b, O_c, O_d = _circumcenters(A, B, C, D)
    M = midpoint(O_a, O_c)
    N = midpoint(O_b, O_d)
    line_MN = line_through(M, N)
    axis = perp_through(P, line_MN)
    line_AB = line_through(A, B)
    line_CD = line_through(C, D)
    Q = intersect_lines(axis, line_AB)
    R = intersect_lines(axis, line_CD)
    return {"P": P, "A": A, "B": B, "C": C, "D": D,
            "O_a": O_a, "O_b": O_b, "O_c": O_c, "O_d": O_d,
            "M": M, "N": N, "line_MN": line_MN, "axis": axis,
            "line_AB": line_AB, "line_CD": line_CD, "Q": Q, "R": R}


def build_thm2(cfg: GaugeConfig) -> dict[str, object]:
    """All intermediate objects of the second generalization."""
    P, A, B, C, D = cfg.corners()
    X = intersect_lines(perp_bisector(A, C), perp_bisector(B, D))
    Y = intersect_lines(perp_bisector(A, B), perp_bisector(C, D))
    Z = intersect_lines(perp_bisector(A, D), perp_bisector(B, C))
    W = parallelogram_fourth(X, Y, Z)
    line_PW = line_through(P, W)
    axis = perp_through(P, line_PW)
    line_AD = line_through(A, D)
    line_BC = line_through(B, C)
    Q = intersect_lines(axis, line_AD)
    R = intersect_lines(axis, line_BC)
    return {"P": P, "A": A, "B": B, "C": C, "D": D,
            "X": X, "Y": Y, "Z": Z, "W": W, "line_PW": line_PW, "axis": axis,
            "line_AD": line_AD, "line_BC": line_BC, "Q": Q, "R": R}


def build_lemma3(cfg: GaugeConfig) -> dict[str, object]:
    """Circumcenters, diagonal midpoints, and the three circles of the coaxiality lemma."""
    P, A, B, C, D = cfg.corners()
    O_a, O_b, O_c, O_d = _circumcenters(A, B, C, D)
    M = midpoint(A, C)
    N = midpoint(B, D)
    circle_ac = circle_on_diameter(O_a, O_c)
    circle_bd = circle_on_diameter(O_b, O_d)
    circle_pmn = circumcircle(P, M, N)
    return {"P": P, "A": A, "B": B, "C": C, "D": D,
            "O_a": O_a, "O_b": O_b, "O_c": O_c, "O_d": O_d,
            "M": M, "N": N,
            "circle_ac": circle_ac, "circle_bd": circle_bd,
            "circle_pmn": circle_pmn}


def build_thm0(cfg: CyclicConfig) -> dict[str, object]:
    """Cyclic quadrilateral on the unit circle with the perpendicular at P to OP."""
    A, B, C, D = cfg.corners()
    P = intersect_lines(line_through(A, C), line_through(B, D))
    zero = cfg.t_a * 0
    O = Point(zero, zero)
    axis = perp_through(P, line_through(O, P))  # CoincidentPoints when P = O
    Q = intersect_lines(axis, line_through(A, B))
    R = intersect_lines(axis, line_through(C, D))
    return {"A": A, "B": B, "C": C, "D": D, "P": P, "O": O,
            "axis": axis, "Q": Q, "R": R}


def build_chord(cfg: ChordButterflyConfig) -> dict[str, object]:
    """Chord-form construction: both free chords drawn through the midpoint of AB."""
    A, B, C, E = cfg.corners()
    omega = circumcircle(A, B, C)
    M = midpoint(A, B)
    D = second_intersection(omega, line_through(C, M), C)
    F = second_intersection(omega, line_through(E, M), E)
    line_AB = line_through(A, B)
    G = intersect_lines(line_through(C, F), line_AB)
    H = intersect_lines(line_through(D, E), line_AB)
    return {"A": A, "B": B, "C": C, "E": E, "omega": omega, "M": M,
            "D": D, "F": F, "line_AB": line_AB, "G": G, "H": H}


def build_lemma2(gauge: GaugeConfig) -> Lemma2Config:
    """Instance of the doubly-perpendicular quadrilateral pair via circumcenters."""
    _, A, B, C, D = gauge.corners()
    O_a, O_b, O_c, O_d = _circumcenters(A, B, C, D)
    return Lemma2Config(A=A, B=B, C=C, D=D, P=O_c, Q=O_d, R=O_a, S=O_b,
                        gauge=gauge)


# -- checkers ------------------------------------------------------------------


def check_thm1(cfg: GaugeConfig) -> bool:
    objs = build_thm1(cfg)
    return is_midpoint(objs["P"], objs["Q"], objs["R"])


def check_thm2(cfg: GaugeConfig) -> bool:
    objs = build_thm2(cfg)
    return is_midpoint(objs["P"], objs["Q"], objs["R"])


def check_lemma3(cfg: GaugeConfig) -> bool:
    objs = build_lemma3(cfg)
    return are_coaxial(objs["circle_ac"], objs["circle_bd"], objs["circle_pmn"])


def check_thm0(cfg: CyclicConfig) -> bool:
    objs = build_thm0(cfg)
    return is_midpoint(objs["P"], objs["Q"], objs["R"])


def check_butterfly_chord(cfg: ChordButterflyConfig) -> bool:
    objs = build_chord(cfg)
    return is_midpoint(objs["M"], objs["G"], objs["H"])


def check_lemma1(a: Point, b: Point, c: Point, d: Point) -> bool:
    """Perpendicular-bisector meets X (of AB, CD) and Y (of BC, DA) against the Newton line."""
    X = intersect_lines(perp_bisector(a, b), perp_bisector(c, d))
    Y = intersect_lines(perp_bisector(b, c), perp_bisector(d, a))
    return is_perpendicular(line_through(X, Y), newton_line(a, b, c, d))


def check_lemma2(cfg: Lemma2Config) -> bool:
    """Verify the six perpendicularity constraints, then JK against the Newton line."""
    pq = line_through(cfg.P, cfg.Q)
    qr = line_through(cfg.Q, cfg.R)
    rs = line_through(cfg.R, cfg.S)
    sp = line_through(cfg.S, cfg.P)
    pr = line_through(cfg.P, cfg.R)
    sq = line_through(cfg.S, cfg.Q)
    constraints = (
        is_perpendicular(pq, line_through(cfg.A, cfg.B)),
        is_perpendicular(qr, line_through(cfg.B, cfg.C)),
        is_perpendicular(rs, line_through(cfg.C, cfg.D)),
        is_perpendicular(sp, line_through(cfg.D, cfg.A)),
        is_perpendicular(pr, line_through(cfg.B, cfg.D)),
        is_perpendicular(sq, line_through(cfg.A, cfg.C)),
    )
    if not all(constraints):
        return False
    J = intersect_lines(pq, rs)
    K = intersect_lines(qr, sp)
    return is_perpendicular(line_through(J, K),
                            newton_line(cfg.A, cfg.B, cfg.C, cfg.D))


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


# -- gauge conversion ----------------------------------------------------------


def gauge_from_cyclic(cfg: CyclicConfig) -> GaugeConfig:
    """Map a concyclic quadrilateral into the diagonal gauge by a rational similarity.

    Translate the diagonal intersection to the origin, then multiply by the
    complex conjugate of the AC direction: AC lands on the x-axis and BD on
    a line through the origin, all with rational coordinates.  Perpendicular
    diagonals have no finite slope k and raise DegenerateConfig.
    """
    A, B, C, D = cfg.corners()
    P = intersect_lines(line_through(A, C), line_through(B, D))
    ux = C.x - A.x
    uy = C.y - A.y

    def transform(z: Point) -> Point:
        zx = z.x - P.x
        zy = z.y - P.y
        return Point(zx * ux + zy * uy, zy * ux - zx * uy)

    A2, B2, C2, D2 = (transform(z) for z in (A, B, C, D))
    if not B2.x:
        raise DegenerateConfig("perpendicular diagonals have no finite gauge slope")
    k = B2.y / B2.x
    return GaugeConfig(A2.x, B2.x, C2.x, D2.x, k)


# -- symbolic <-> numeric bridge -----------------------------------------------


def evaluate_object(obj, assignment: Mapping[str, Fraction]):
    """Exact evaluation of a symbolic Point/Line/Circle at an assignment of
    the five variables to ints or Fractions.  The assignment is checked as
    `Polynomial.evaluate` checks it, even where every field is a constant."""
    if not isinstance(obj, (Point, Line, Circle)):
        raise TypeError(f"cannot evaluate {type(obj).__name__}")
    _exact_point(assignment)
    if isinstance(obj, Point):
        return Point(_eval_scalar(obj.x, assignment), _eval_scalar(obj.y, assignment))
    if isinstance(obj, Line):
        return Line(_eval_scalar(obj.u, assignment), _eval_scalar(obj.v, assignment),
                    _eval_scalar(obj.w, assignment))
    return Circle(_eval_scalar(obj.d, assignment), _eval_scalar(obj.e, assignment),
                  _eval_scalar(obj.f, assignment))


def _eval_scalar(value, assignment):
    if isinstance(value, RationalFunction):
        return value.evaluate(assignment)
    return value


# -- samplers -------------------------------------------------------------------


def sample_gauge(rng, bound: int) -> GaugeConfig:
    """Draw a proper gauge configuration by rejection.

    Enforced: k nonzero and P strictly inside both diagonals (a*c < 0,
    b*d < 0), which already makes a, b, c, d nonzero, a != c and b != d.
    """
    for _ in range(_MAX_REDRAWS):
        pairs = [sample_ratio(rng, bound) for _ in range(5)]
        (a, _), (b, _), (c, _), (d, _), (k, _) = pairs
        # the signs of a*c and b*d are those of their numerators' products
        if k and a * c < 0 and b * d < 0:
            return GaugeConfig(*(Fraction(p, q) for p, q in pairs))
    raise SamplerExhausted("gauge sampler exhausted its redraw budget")


def _half_angles(rng, bound: int) -> list[Fraction] | None:
    """Four distinct half-angle parameters other than +-1, or None."""
    pairs = [sample_ratio(rng, bound) for _ in range(4)]
    # reduced pairs are canonical, so equal pairs are equal rationals, and
    # p/q = +-1 exactly when |p| = q
    if len(set(pairs)) != 4 or any(abs(p) == q for p, q in pairs):
        return None
    return [Fraction(p, q) for p, q in pairs]


def sample_cyclic(rng, bound: int) -> CyclicConfig:
    """Distinct half-angle parameters (excluding +-1) with non-parallel diagonals."""
    for _ in range(_MAX_REDRAWS):
        ts = _half_angles(rng, bound)
        if ts is None:
            continue
        A, B, C, D = (on_unit_circle(t) for t in ts)
        # parallel diagonals never meet at a P
        if not is_parallel(line_through(A, C), line_through(B, D)):
            return CyclicConfig(*ts)
    raise SamplerExhausted("cyclic sampler exhausted its redraw budget")


def sample_chord(rng, bound: int) -> ChordButterflyConfig:
    """Distinct parameters (excluding +-1) with C and F on opposite sides of AB."""
    for _ in range(_MAX_REDRAWS):
        ts = _half_angles(rng, bound)
        if ts is None:
            continue
        A, B, C, E = (on_unit_circle(t) for t in ts)
        M = midpoint(A, B)
        ab = line_through(A, B)
        try:
            F = second_intersection(_UNIT_CIRCLE, line_through(E, M), E)
        except DegenerateConfig:
            continue
        if line_side(C, ab) * line_side(F, ab) < 0:
            return ChordButterflyConfig(*ts)
    raise SamplerExhausted("chord sampler exhausted its redraw budget")


def sample_quad(rng, bound: int) -> QuadConfig:
    """Four unconstrained random vertices; degeneracies surface as checker skips."""
    vertices = []
    for _ in range(4):
        (xn, xd), (yn, yd) = sample_ratio(rng, bound), sample_ratio(rng, bound)
        vertices.append(projective_point(xn * yd, yn * xd, xd * yd))
    return QuadConfig(*vertices)


def sample_lemma2(rng, bound: int) -> Lemma2Config:
    for _ in range(_MAX_REDRAWS):
        gauge = sample_gauge(rng, bound)
        try:
            return build_lemma2(gauge)
        except DegenerateConfig:
            continue  # quadrilateral lacked one of the four circumcenters
    raise SamplerExhausted("lemma2 sampler exhausted its redraw budget")


# -- reports ---------------------------------------------------------------------


@dataclass(frozen=True)
class Counterexample:
    trial: int
    params: tuple[tuple[str, object], ...]
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one verification run (one theorem, one mode).

    Serializes to stable key:value text and a flat dict; wall-clock time is
    carried in memory only, so serialized reports are deterministic.
    `passed + skipped = attempted` whenever there is no counterexample.
    """

    theorem: str
    mode: str
    attempted: int
    passed: int
    skipped: int
    trials: int | None = None
    seed: int | None = None
    bound: int | None = None
    checks: tuple[tuple[str, bool], ...] = ()
    counterexample: Counterexample | None = None
    failure: str | None = None
    elapsed: float | None = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_flat(self) -> dict[str, str]:
        flat = {"theorem": self.theorem, "mode": self.mode}
        if self.trials is not None:
            flat["trials"] = str(self.trials)
        if self.seed is not None:
            flat["seed"] = str(self.seed)
        if self.bound is not None:
            flat["bound"] = str(self.bound)
        flat["attempted"] = str(self.attempted)
        flat["passed"] = str(self.passed)
        flat["skipped"] = str(self.skipped)
        for check_id, ok in self.checks:
            flat[f"check.{check_id}"] = "ok" if ok else "FAIL"
        if self.counterexample is not None:
            flat["counterexample.trial"] = str(self.counterexample.trial)
            for name, value in self.counterexample.params:
                flat[f"counterexample.params.{name}"] = format_rational(value)
            flat["counterexample.detail"] = self.counterexample.detail
        if self.failure is not None:
            flat["failure"] = self.failure
        flat["result"] = "pass" if self.ok else "fail"
        return flat

    def to_text(self) -> str:
        return "\n".join(f"{key}: {value}" for key, value in self.to_flat().items())


# -- drivers ---------------------------------------------------------------------

# A numeric run fails when more than this share of its trials is skipped.
SKIP_LIMIT = Fraction(1, 5)


def run_trials(theorem: str, stream: str, sample: Callable, check: Callable,
               trials: int, seed: int, bound: int) -> VerificationReport:
    """Seeded trials of one claim, stopping at the first counterexample.

    Trial i draws its configuration as `sample(rng, bound)` from
    `derive_rng(seed, stream, i)`, so any single trial can be replayed.
    `check(cfg)` returns None when the claim holds and otherwise the
    counterexample's `(params, detail)`; a DegenerateConfig it raises
    skips the trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if bound < 1:
        raise ValueError("bound must be >= 1")
    attempted = passed = skipped = 0
    counterexample = None
    start = time.perf_counter()
    for trial in range(trials):
        cfg = sample(derive_rng(seed, stream, trial), bound)
        attempted += 1
        try:
            refuted = check(cfg)
        except DegenerateConfig:
            skipped += 1
            continue
        if refuted is None:
            passed += 1
        else:
            counterexample = Counterexample(trial, *refuted)
            break
    elapsed = time.perf_counter() - start
    failure = None
    if counterexample is not None:
        failure = f"counterexample at trial {counterexample.trial}"
    elif Fraction(skipped, attempted) > SKIP_LIMIT:
        failure = (f"skip rate {skipped}/{attempted} exceeds limit "
                   f"{format_rational(SKIP_LIMIT)}")
    return VerificationReport(theorem=theorem, mode="numeric",
                              attempted=attempted, passed=passed, skipped=skipped,
                              trials=trials, seed=seed, bound=bound,
                              counterexample=counterexample, failure=failure,
                              elapsed=elapsed)


def run_checks(theorem: str, checks) -> VerificationReport:
    """Symbolic report from `(check id, verdict, failure name)` items, in order.

    The first false verdict names the failure; a DegenerateConfig raised
    while the items are produced ends the run with the checks made so far.
    """
    results = []
    failure = None
    start = time.perf_counter()
    try:
        for check_id, ok, name in checks:
            results.append((check_id, ok))
            if not ok and failure is None:
                failure = f"SymbolicMismatch: {name}"
    except DegenerateConfig as exc:
        failure = f"degenerate for generic parameters: {exc}"
    elapsed = time.perf_counter() - start
    passed = sum(1 for _, ok in results if ok)
    return VerificationReport(theorem=theorem, mode="symbolic",
                              attempted=len(results), passed=passed, skipped=0,
                              checks=tuple(results), failure=failure,
                              elapsed=elapsed)


# -- symbolic proofs --------------------------------------------------------------


def _ratio_at(objs, key: str):
    """Power of `objs[key]` with respect to circle_ac over that to circle_bd."""
    point = objs[key]
    return (power_of_point(point, objs["circle_ac"])
            / power_of_point(point, objs["circle_bd"]))


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
        ("axis_matches_thm1", False,
         lambda o: o["axis"] == build_thm1(GaugeConfig.symbolic())["axis"]),
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
        # another unreduced ratio of hundreds.
        ("ratio_chain", True,
         lambda o: (_diagonal_ratio(o) == closedforms.POWER_RATIO
                    and all(_ratio_at(o, key) == closedforms.POWER_RATIO
                            for key in "PMN"))),
        ("pencil", False,
         lambda o: are_coaxial(o["circle_ac"], o["circle_bd"], o["circle_pmn"])),
    ),
}

# ids of the checks that reproduce stored construction-step formulas, as
# opposed to the theorem-level identities proved on top of them
CLOSED_FORM_CHECK_IDS = tuple(f"{theorem}.{step}" for theorem, rows in _PLANS.items()
                              for step, closed_form, _ in rows if closed_form)


def _prove(theorem: str, objs: dict[str, object]) -> VerificationReport:
    """Run the plan of `theorem` on its built symbolic objects."""
    checks = ((f"{theorem}.{step}", check) for step, _, check in _PLANS[theorem])
    return run_checks(theorem, ((check_id, check(objs), check_id)
                                for check_id, check in checks))


def prove_thm1() -> VerificationReport:
    """Symbolic proof of the first generalization, step by step against closed forms."""
    return _prove("thm1", build_thm1(GaugeConfig.symbolic()))


def prove_thm2() -> VerificationReport:
    """Symbolic proof of the second generalization, including the shared axis."""
    return _prove("thm2", build_thm2(GaugeConfig.symbolic()))


def prove_lemma3() -> VerificationReport:
    """Symbolic proof of coaxiality via the three equal power ratios."""
    return _prove("lemma3", build_lemma3(GaugeConfig.symbolic()))


# -- suite runner ------------------------------------------------------------------


# result id -> (sampler, checker, claim named in a counterexample), in run order
_RESULTS = {
    "butterfly_chord": (sample_chord, check_butterfly_chord, "midpoint(M, G, H)"),
    "thm0_cyclic": (sample_cyclic, check_thm0, "midpoint(P, Q, R)"),
    "thm1": (sample_gauge, check_thm1, "midpoint(P, Q, R)"),
    "thm2": (sample_gauge, check_thm2, "midpoint(P, Q, R)"),
    "lemma1": (sample_quad, lambda cfg: check_lemma1(cfg.A, cfg.B, cfg.C, cfg.D),
               "perpendicular(line(X, Y), newton_line(A, B, C, D))"),
    "lemma2": (sample_lemma2, check_lemma2,
               "six perpendicularities and perpendicular(line(J, K), "
               "newton_line(A, B, C, D))"),
    "lemma3": (sample_gauge, check_lemma3,
               "coaxial(circle_on_diameter(O_a, O_c), circle_on_diameter(O_b, O_d), "
               "circumcircle(P, M, N))"),
}
# the views `run_numeric` reads
_SUITE: dict[str, tuple[Callable, Callable]] = {
    theorem: row[:2] for theorem, row in _RESULTS.items()}
_CLAIMS = {theorem: row[2] for theorem, row in _RESULTS.items()}

_PROVERS = {"thm1": prove_thm1, "thm2": prove_thm2, "lemma3": prove_lemma3}

NUMERIC_ORDER = tuple(_SUITE)
SYMBOLIC_ORDER = tuple(_PROVERS)


def run_numeric(theorem: str, trials: int = 1000, seed: int = 0,
                bound: int = 20) -> VerificationReport:
    """Randomized trials for one theorem on the rng stream named after it."""
    sampler, checker = _SUITE[theorem]

    def check(cfg):
        if checker(cfg):
            return None
        return cfg.params(), f"assertion {_CLAIMS[theorem]} failed"

    return run_trials(theorem, theorem, sampler, check, trials, seed, bound)


def run_suite(mode: str = "both", trials: int = 1000, seed: int = 0,
              bound: int = 20) -> list[VerificationReport]:
    """Every checker in canonical order: symbolic proofs first, then numeric trials."""
    if mode not in ("numeric", "symbolic", "both"):
        raise ValueError(f"unknown mode {mode!r}")
    reports = []
    if mode in ("symbolic", "both"):
        for theorem in SYMBOLIC_ORDER:
            reports.append(_PROVERS[theorem]())
    if mode in ("numeric", "both"):
        for theorem in NUMERIC_ORDER:
            reports.append(run_numeric(theorem, trials=trials, seed=seed,
                                       bound=bound))
    return reports
