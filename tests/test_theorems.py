"""Builders, trials, checkers, samplers, provers, and the suite runner.

Anchor-instance coordinates (a=2, b=1, c=-3, d=-2, k=1) and the cyclic/chord
instances were computed by hand and frozen here as independent oracles.
"""

import hashlib
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from butterfly import cli, closedforms, dsl, geom, theorems
from butterfly.dsl import (
    Counterexample,
    VerificationReport,
    evaluate_construction,
    parse,
)
from butterfly.errors import (
    CoincidentPoints,
    CollinearPoints,
    DegenerateConfig,
    DenominatorVanishes,
    ParallelLines,
    SamplerExhausted,
)
from butterfly.geom import (
    Circle,
    Line,
    Point,
    are_coaxial,
    are_concyclic,
    circle_on_diameter,
    circumcenter,
    circumcircle,
    evaluate_object,
    intersect_lines,
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
    power_of_point,
    second_intersection,
)
from butterfly.poly import Polynomial, _exact_point
from butterfly.ratfun import RationalFunction
from butterfly.scalar import derive_rng, sample_rational
from butterfly.theorems import (
    CLOSED_FORM_CHECK_IDS,
    NUMERIC_ORDER,
    ChordButterflyConfig,
    CyclicConfig,
    GaugeConfig,
    QuadConfig,
    build_chord,
    build_lemma2,
    build_lemma3,
    build_thm0,
    build_thm1,
    build_thm2,
    check_thm1_harmonic,
    check_thm2_perpendicularity,
    prove_lemma3,
    prove_thm1,
    prove_thm2,
    run_numeric,
    run_suite,
    sample_chord,
    sample_cyclic,
    sample_gauge,
    sample_lemma2,
    sample_quad,
)
from tests.test_dsl import FIXTURES

F = Fraction
ANCHOR = GaugeConfig(F(2), F(1), F(-3), F(-2), F(1))


# result id -> the config class of its sampler
CONFIGS = {"butterfly_chord": ChordButterflyConfig, "thm0_cyclic": CyclicConfig,
           "thm1": GaugeConfig, "thm2": GaugeConfig, "lemma1": QuadConfig,
           "lemma2": GaugeConfig, "lemma3": GaugeConfig}


def pairs_of(cfg):
    """A rational config as the reduced int pairs a built-in trial binds."""
    return [value.as_integer_ratio() for value in cfg]


def config_of(stem, pairs):
    """The config of result `stem` whose values are `pairs`, as Fractions."""
    return CONFIGS[stem](*(F(p, q) for p, q in pairs))


def trial(stem, cfg):
    """The built-in numeric trial of result `stem` on `cfg`: None, or the
    first false assertion of its corpus file."""
    return theorems._SUITE[stem][1](pairs_of(cfg))


# -- builders against frozen anchor coordinates --------------------------------

def test_build_thm1_at_anchor():
    objs = build_thm1(ANCHOR)
    assert objs["P"] == Point(F(0), F(0))
    assert objs["A"] == Point(F(2), F(0))
    assert objs["B"] == Point(F(1), F(1))
    assert objs["O_a"] == Point(F(-5, 6), F(-1, 6))
    assert objs["O_b"] == Point(F(-1, 2), F(0))
    assert objs["O_c"] == Point(F(0), F(-1))
    assert objs["O_d"] == Point(F(-1, 2), F(-3, 2))
    assert objs["M"] == Point(F(-5, 12), F(-7, 12))
    assert objs["N"] == Point(F(-1, 2), F(-3, 4))
    assert objs["axis"] == Line(F(1), F(2), F(0))
    assert objs["line_AB"] == Line(F(1), F(1), F(-2))
    assert objs["line_CD"] == Line(F(2), F(1), F(6))
    assert objs["Q"] == Point(F(4), F(-2))
    assert objs["R"] == Point(F(-4), F(2))


def test_build_thm2_at_anchor():
    objs = build_thm2(ANCHOR)
    assert objs["X"] == Point(F(-1, 2), F(-1, 2))
    assert objs["Y"] == Point(F(5, 2), F(3, 2))
    assert objs["Z"] == Point(F(-5, 4), F(3, 2))
    assert objs["W"] == Point(F(7, 4), F(7, 2))
    assert objs["axis"] == Line(F(1), F(2), F(0))  # same axis as thm1
    assert objs["Q"] == Point(F(1), F(-1, 2))
    assert objs["R"] == Point(F(-1), F(1, 2))


def test_build_lemma3_at_anchor():
    objs = build_lemma3(ANCHOR)
    assert objs["M"] == Point(F(-1, 2), F(0))
    assert objs["N"] == Point(F(-1, 2), F(-1, 2))
    assert objs["circle_ac"] == Circle(F(5, 6), F(7, 6), F(1, 6))
    assert objs["circle_bd"] == Circle(F(1), F(3, 2), F(1, 4))
    assert objs["circle_pmn"] == Circle(F(1, 2), F(1, 2), F(0))
    p = objs["P"]
    ratio = power_of_point(p, objs["circle_ac"]) / power_of_point(p, objs["circle_bd"])
    assert ratio == F(2, 3)


def test_build_lemma2_at_anchor():
    objs = build_lemma2(ANCHOR)
    assert objs["P"] == Point(F(0), F(-1))       # O_c
    assert objs["S"] == Point(F(-1, 2), F(0))    # O_b


def test_build_chord_frozen_instance():
    cfg = ChordButterflyConfig(F(3), F(1, 3), F(-5), F(-1, 5))
    objs = build_chord(cfg)
    assert objs["omega"] == Circle(F(0), F(0), F(-1))
    assert objs["M"] == Point(F(0), F(3, 5))
    assert objs["D"] == Point(F(12, 37), F(35, 37))
    assert objs["F"] == Point(F(-12, 37), F(35, 37))
    assert objs["G"] == Point(F(-12, 25), F(3, 5))
    assert objs["H"] == Point(F(12, 25), F(3, 5))


def test_build_thm0_frozen_instance():
    cfg = CyclicConfig(F(1, 2), F(3), F(-4), F(-1, 6))
    objs = build_thm0(cfg)
    assert objs["A"] == Point(F(3, 5), F(4, 5))
    assert objs["B"] == Point(F(-4, 5), F(3, 5))
    assert objs["C"] == Point(F(-15, 17), F(-8, 17))
    assert objs["D"] == Point(F(35, 37), F(-12, 37))
    assert objs["P"] == Point(F(-13, 165), F(12, 55))
    assert is_midpoint(objs["P"], objs["Q"], objs["R"])


# -- builders against their reference bodies ---------------------------------------

# Reference builders: each construction written out in Python.  The corpus
# programs the builders run must build the same objects in the same order and
# meet each degeneracy at the same step, with the same class and message.

def ref_corners(cfg):
    """P, A, B, C, D of a gauge configuration."""
    zero = cfg.a * 0
    return (Point(zero, zero), Point(cfg.a, zero), Point(cfg.b, cfg.k * cfg.b),
            Point(cfg.c, zero), Point(cfg.d, cfg.k * cfg.d))


def ref_circumcenters(A, B, C, D):
    return (circumcenter(C, B, D), circumcenter(D, C, A),
            circumcenter(A, D, B), circumcenter(B, A, C))


def ref_build_thm1(cfg):
    P, A, B, C, D = ref_corners(cfg)
    O_a, O_b, O_c, O_d = ref_circumcenters(A, B, C, D)
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


def ref_build_thm2(cfg):
    P, A, B, C, D = ref_corners(cfg)
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


def ref_build_lemma3(cfg):
    P, A, B, C, D = ref_corners(cfg)
    O_a, O_b, O_c, O_d = ref_circumcenters(A, B, C, D)
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


def ref_build_lemma2(cfg):
    """ABCD and its circumcenter quadrilateral P, Q, R, S = O_c, O_d, O_a, O_b."""
    _, A, B, C, D = ref_corners(cfg)
    O_a, O_b, O_c, O_d = ref_circumcenters(A, B, C, D)
    return {"A": A, "B": B, "C": C, "D": D, "P": O_c, "Q": O_d, "R": O_a, "S": O_b}


def ref_lemma2_definitions(cfg):
    """Every definition of lemma2.geo: `ref_build_lemma2`'s points, the
    sides of PQRS, and the meets J and K of its opposite sides."""
    o = ref_build_lemma2(cfg)
    o.update(pq=line_through(o["P"], o["Q"]), qr=line_through(o["Q"], o["R"]),
             rs=line_through(o["R"], o["S"]), sp=line_through(o["S"], o["P"]))
    o.update(J=intersect_lines(o["pq"], o["rs"]), K=intersect_lines(o["qr"], o["sp"]))
    return o


def ref_check_lemma2(o):
    """The six perpendicularity constraints, then JK against the Newton
    line, each line made from the points."""
    pq = line_through(o["P"], o["Q"])
    qr = line_through(o["Q"], o["R"])
    rs = line_through(o["R"], o["S"])
    sp = line_through(o["S"], o["P"])
    pr = line_through(o["P"], o["R"])
    sq = line_through(o["S"], o["Q"])
    constraints = (
        is_perpendicular(pq, line_through(o["A"], o["B"])),
        is_perpendicular(qr, line_through(o["B"], o["C"])),
        is_perpendicular(rs, line_through(o["C"], o["D"])),
        is_perpendicular(sp, line_through(o["D"], o["A"])),
        is_perpendicular(pr, line_through(o["B"], o["D"])),
        is_perpendicular(sq, line_through(o["A"], o["C"])),
    )
    if not all(constraints):
        return False
    J = intersect_lines(pq, rs)
    K = intersect_lines(qr, sp)
    return is_perpendicular(line_through(J, K),
                            newton_line(o["A"], o["B"], o["C"], o["D"]))


def ref_build_thm0(cfg):
    A, B, C, D = (on_unit_circle(t) for t in cfg)
    P = intersect_lines(line_through(A, C), line_through(B, D))
    zero = cfg.t_a * 0
    O = Point(zero, zero)
    axis = perp_through(P, line_through(O, P))
    Q = intersect_lines(axis, line_through(A, B))
    R = intersect_lines(axis, line_through(C, D))
    return {"A": A, "B": B, "C": C, "D": D, "P": P, "O": O,
            "axis": axis, "Q": Q, "R": R}


def ref_build_chord(cfg):
    A, B, C, E = (on_unit_circle(t) for t in cfg)
    omega = circumcircle(A, B, C)
    M = midpoint(A, B)
    D = second_intersection(omega, line_through(C, M), C)
    F = second_intersection(omega, line_through(E, M), E)
    line_AB = line_through(A, B)
    G = intersect_lines(line_through(C, F), line_AB)
    H = intersect_lines(line_through(D, E), line_AB)
    return {"A": A, "B": B, "C": C, "E": E, "omega": omega, "M": M,
            "D": D, "F": F, "line_AB": line_AB, "G": G, "H": H}


# Reference checkers: each result's claim decided in Python on its reference
# build.  A trial of the corpus file must pass exactly where its reference
# holds, and meet each degeneracy at the same step, with the same class and
# message.

def ref_check_thm1(cfg):
    o = ref_build_thm1(cfg)
    return is_midpoint(o["P"], o["Q"], o["R"])


def ref_check_thm2(cfg):
    o = ref_build_thm2(cfg)
    return is_midpoint(o["P"], o["Q"], o["R"])


def ref_check_lemma3(cfg):
    o = ref_build_lemma3(cfg)
    return are_coaxial(o["circle_ac"], o["circle_bd"], o["circle_pmn"])


def ref_check_thm0(cfg):
    o = ref_build_thm0(cfg)
    return is_midpoint(o["P"], o["Q"], o["R"])


def ref_check_chord(cfg):
    o = ref_build_chord(cfg)
    return is_midpoint(o["M"], o["G"], o["H"])


def ref_check_lemma1(cfg):
    """Perpendicular-bisector meets X (of AB, CD) and Y (of BC, DA) against
    the Newton line."""
    a, b, c, d = (Point(getattr(cfg, f"{v}x"), getattr(cfg, f"{v}y"))
                  for v in "abcd")
    X = intersect_lines(perp_bisector(a, b), perp_bisector(c, d))
    Y = intersect_lines(perp_bisector(b, c), perp_bisector(d, a))
    return is_perpendicular(line_through(X, Y), newton_line(a, b, c, d))


# result id -> its reference checker
REF_CHECKS = {
    "butterfly_chord": ref_check_chord,
    "thm0_cyclic": ref_check_thm0,
    "thm1": ref_check_thm1,
    "thm2": ref_check_thm2,
    "lemma1": ref_check_lemma1,
    "lemma2": lambda cfg: ref_check_lemma2(ref_build_lemma2(cfg)),
    "lemma3": ref_check_lemma3,
}


def _built(build, cfg):
    """What `build` returns for `cfg`, or the class and message of the
    degeneracy it meets."""
    try:
        return build(cfg)
    except DegenerateConfig as exc:
        return type(exc), str(exc)


# Bound 2 draws from {-2, ..., 2} and their halves, which makes many gauge
# and cyclic configurations degenerate; the chord sampler rejects those.  The
# gauge results are also built symbolically, where the reference's constant
# coordinates are RationalFunctions, so its objects are not rational and
# only their values are compared.
@pytest.mark.parametrize("build, ref, sample, degenerates", [
    (build_thm1, ref_build_thm1, sample_gauge, True),
    (build_thm2, ref_build_thm2, sample_gauge, True),
    (build_lemma3, ref_build_lemma3, sample_gauge, True),
    (build_thm0, ref_build_thm0, sample_cyclic, True),
    (build_chord, ref_build_chord, sample_chord, False),
    (build_lemma2, ref_lemma2_definitions, sample_gauge, True),
], ids=["thm1", "thm2", "lemma3", "thm0", "chord", "lemma2"])
def test_builders_match_their_reference_bodies(build, ref, sample, degenerates):
    configs = [sample(derive_rng(seed, "ref-build", bound), bound)
               for bound in (2, 20) for seed in range(150)]
    if sample is sample_gauge:
        configs.append(GaugeConfig.symbolic())
    outcomes = set()
    for cfg in configs:
        built, expected = _built(build, cfg), _built(ref, cfg)
        if isinstance(expected, dict):
            assert list(built) == list(expected)
            assert all(built[name] == obj
                       and (type(obj._h[0]) is not int
                            or obj._h == built[name]._h)
                       for name, obj in expected.items())
            outcomes.add("built")
        else:
            assert built == expected
            outcomes.add("degenerate")
    assert outcomes == ({"built", "degenerate"} if degenerates else {"built"})


@pytest.mark.parametrize("stem", NUMERIC_ORDER)
def test_trials_match_their_reference_checkers(stem):
    """On the draws of the builder test: None where the reference checker
    holds, a failing assertion where it fails, and the reference's
    degeneracy class and message where it raises."""
    core, run = theorems._SUITE[stem]
    outcomes = set()
    for bound in (2, 20):
        for seed in range(150):
            pairs = core(derive_rng(seed, "ref-build", bound), bound)
            expected = _built(REF_CHECKS[stem], config_of(stem, pairs))
            got = _built(run, pairs)
            if expected is True:
                assert got is None
            elif expected is False:
                assert isinstance(got, dsl.Assertion)
            else:
                assert got == expected
            outcomes.add(expected if isinstance(expected, bool) else expected[0])
    assert True in outcomes
    # every result meets a degeneracy on these draws but the chord form,
    # whose sampler rejects those
    assert (len(outcomes) > 1) == (stem != "butterfly_chord")
    if stem == "lemma2":  # J or K degenerates after the six constraints hold
        assert outcomes == {True, CoincidentPoints, ParallelLines}


@pytest.mark.parametrize("stem", NUMERIC_ORDER)
def test_run_numeric_refutes_each_perturbed_fixture(monkeypatch, tmp_path, stem):
    """With the perturbed fixture's construction in place of the corpus
    file, run_numeric reports a counterexample, not a skip: the fixture's
    failing assertion, at the sampled config's parameters."""
    fixture = FIXTURES / f"{stem}_perturbed.geo"
    (tmp_path / f"{stem}.geo").write_bytes(fixture.read_bytes())
    monkeypatch.setattr(theorems, "_CORPUS", tmp_path)
    for cache in (theorems._construction, theorems._program):
        cache.cache_clear()
    try:
        report = run_numeric(stem, trials=200, seed=3)
    finally:
        for cache in (theorems._construction, theorems._program):
            cache.cache_clear()
    ce = report.counterexample
    assert ce is not None and report.failure == f"counterexample at trial {ce.trial}"
    failed = parse(fixture.read_text()).assertions[-1]
    assert ce.detail == f"assertion {dsl._assertion_text(failed)} failed"
    pairs = theorems._SUITE[stem][0](derive_rng(3, stem, ce.trial), 20)
    cfg = config_of(stem, pairs)
    assert ce.params == tuple(zip(cfg._fields, cfg))


def test_kept_programs_call_the_implementations_installed_later(monkeypatch):
    # the first builds compile thm1.geo for both bindings and keep it
    build_thm1(ANCHOR)
    build_thm1(GaugeConfig.symbolic())
    # a counting wrapper, installed in dsl's table after the programs are kept
    calls = _count_calls(monkeypatch, geom, "circumcenter")
    monkeypatch.setitem(dsl._FUNCTION_IMPLS, "circumcenter", geom.circumcenter)
    build_thm1(ANCHOR)
    assert len(calls) == 4
    build_thm1(GaugeConfig.symbolic())
    assert len(calls) == 8


def test_rational_builds_make_the_fractions_of_the_geo_trial(monkeypatch):
    # a rational build binds every parameter as its int pair, as `verify`
    # binds its draw: a parameter read as a scalar, such as t_a in
    # on_unit_circle(t_a), is one Fraction of its pair, and thm1 reads its
    # parameters only in int-pair point literals
    builds = ((build_chord, "butterfly_chord",
               ChordButterflyConfig(F(3), F(1, 3), F(-5), F(-1, 5))),
              (build_thm0, "thm0_cyclic", CyclicConfig(F(1, 2), F(3), F(-4), F(-1, 6))),
              (build_thm1, "thm1", ANCHOR))
    trials = {}
    for build, stem, cfg in builds:  # compiled before the patch below
        build(cfg)
        ast = theorems._construction(stem)[0]
        trials[stem] = (dsl._compile_program(ast, paired=True),
                        {name: value.as_integer_ratio()
                         for name, value in zip(cfg._fields, cfg)})
    made = []
    monkeypatch.setattr(dsl, "Fraction", lambda *args: made.append(args) or F(*args))

    def fractions(run):
        made.clear()
        run()
        return list(made)

    for build, stem, cfg in builds:
        program, env = trials[stem]
        built = fractions(lambda: build(cfg))
        assert fractions(lambda: dsl._run_trial(program, env)) == built
        assert built == ([] if stem == "thm1" else list(env.values()))


# -- trials and checkers --------------------------------------------------------

def test_checkers_true_at_anchor():
    for stem in ("thm1", "thm2", "lemma2", "lemma3"):
        assert trial(stem, ANCHOR) is None
    assert check_thm1_harmonic(ANCHOR)
    assert check_thm2_perpendicularity(ANCHOR)


def test_chord_and_cyclic_checkers():
    assert trial("butterfly_chord",
                 ChordButterflyConfig(F(3), F(1, 3), F(-5), F(-1, 5))) is None
    assert trial("thm0_cyclic", CyclicConfig(F(1, 2), F(3), F(-4), F(-1, 6))) is None


def test_thm0_degeneracies_raise_skips():
    # antipodal pairs: both diagonals are diameters, P coincides with the center
    with pytest.raises(DegenerateConfig):
        trial("thm0_cyclic", CyclicConfig(F(2), F(3), F(-1, 2), F(-1, 3)))
    # mirror-symmetric quadrilateral: P sits on the y-axis, so the
    # perpendicular at P to OP comes out parallel to the horizontal chord AB
    with pytest.raises(DegenerateConfig):
        trial("thm0_cyclic", CyclicConfig(F(1, 2), F(2), F(-5), F(-1, 5)))


def test_lemma1_kite_and_square():
    kite = QuadConfig(F(0), F(3), F(-2), F(0), F(0), F(-1), F(2), F(0))
    assert trial("lemma1", kite) is None and ref_check_lemma1(kite)
    # the square's opposite sides share their perpendicular bisector
    square = QuadConfig(F(0), F(0), F(1), F(0), F(1), F(1), F(0), F(1))
    assert _built(lambda cfg: trial("lemma1", cfg), square) == _built(
        ref_check_lemma1, square)
    with pytest.raises(DegenerateConfig):
        trial("lemma1", square)


def test_harmonic_and_perpendicularity_on_sampled_configs():
    done = 0
    for seed in range(12):
        cfg = sample_gauge(derive_rng(seed, "aux-checks"), 10)
        try:
            assert check_thm1_harmonic(cfg)
            assert check_thm2_perpendicularity(cfg)
        except DegenerateConfig:
            continue
        done += 1
    assert done >= 6


def _nudged(build, key, nudge):
    """`build` with the object at `key` replaced by `nudge` of the built objects."""
    def nudged_build(cfg):
        objs = build(cfg)
        return dict(objs, **{key: nudge(objs)})
    return nudged_build


# Each nudge breaks the fact one test of the checker decides: R off the
# harmonic pencil, P off the diagonals' meet, the axis off the parallel to
# FG, and line PW off the perpendicular to UV.
CRITERION_5_NUDGES = (
    (check_thm1_harmonic, "build_thm1", "R",
     lambda o: Point(o["R"].x + 1, o["R"].y)),
    (check_thm1_harmonic, "build_thm1", "P",
     lambda o: Point(o["P"].x + 1, o["P"].y)),
    (check_thm1_harmonic, "build_thm1", "axis",
     lambda o: line_through(o["P"], Point(o["P"].x + 1, o["P"].y + 2))),
    (check_thm2_perpendicularity, "build_thm2", "line_PW",
     lambda o: line_through(o["P"], Point(o["W"].x + 1, o["W"].y))),
)


@pytest.mark.parametrize("checker, builder, key, nudge", CRITERION_5_NUDGES,
                         ids=lambda v: v if isinstance(v, str) else None)
def test_criterion_5_checkers_refute_nudged_objects(monkeypatch, checker,
                                                    builder, key, nudge):
    configs = [ANCHOR] + [sample_gauge(derive_rng(seed, "aux-refute"), 10)
                          for seed in range(8)]
    refuted = 0
    for cfg in configs:
        try:
            assert checker(cfg) is True
        except DegenerateConfig:
            continue
        with monkeypatch.context() as patch:
            patch.setattr(theorems, builder,
                          _nudged(getattr(theorems, builder), key, nudge))
            assert checker(cfg) is False
        refuted += 1
    assert refuted >= 5


# -- config plumbing --------------------------------------------------------------

def test_config_params_shapes():
    assert list(ANCHOR.as_assignment().items()) == [
        ("a", F(2)), ("b", F(1)), ("c", F(-3)), ("d", F(-2)), ("k", F(1))]
    quad = sample_quad(derive_rng(0, "quad"), 5)
    assert quad._fields == ("ax", "ay", "bx", "by", "cx", "cy", "dx", "dy")


@pytest.mark.parametrize("cfg, names", [
    (ANCHOR, ("a", "b", "c", "d", "k")),
    (CyclicConfig(F(1, 2), F(3), F(-1, 3), F(-3, 2)),
     ("t_a", "t_b", "t_c", "t_d")),
    (ChordButterflyConfig(F(1, 3), F(-3), F(3, 2), F(-1, 4)),
     ("t_a", "t_b", "t_c", "t_e")),
    (QuadConfig(*(F(n, 7) for n in range(8))),
     ("ax", "ay", "bx", "by", "cx", "cy", "dx", "dy")),
], ids=["gauge", "cyclic", "chord", "quad"])
def test_scalar_config_params_are_its_fields(cfg, names):
    assert names == type(cfg)._fields
    assert all(value is getattr(cfg, name) for name, value in zip(names, cfg))


# The concyclic quadrilateral with half-angle parameters 1/2, 3, -4, -1/6
# in the diagonal gauge: moved by a rational similarity that puts its
# diagonal crossing at the origin and AC on the x-axis.
CONCYCLIC_GAUGE = GaugeConfig(F(-96, 55), F(546, 935), F(1932, 935),
                              F(-28704, 34595), F(-33, 13))


def test_gauge_from_cyclic_properties():
    g = CONCYCLIC_GAUGE
    # convex vertex order puts the diagonal crossing strictly inside
    assert g.a * g.c < 0 and g.b * g.d < 0 and g.k != 0
    # the similarity keeps the four vertices on one circle
    _, A, B, C, D = ref_corners(g)
    assert are_concyclic(A, B, C, D)
    # the second generalization degrades gracefully: X = Y = Z = center
    objs = build_thm2(g)
    assert objs["X"] == objs["Y"] == objs["Z"] == objs["W"]
    assert trial("thm2", g) is None
    # the first one cannot apply: all four circumcenters coincide, so M = N
    with pytest.raises(DegenerateConfig):
        trial("thm1", g)


# -- symbolic <-> numeric bridge ---------------------------------------------------

def test_evaluate_object_matches_numeric_construction():
    sym1 = build_thm1(GaugeConfig.symbolic())
    sym2 = build_thm2(GaugeConfig.symbolic())
    done = 0
    for seed in range(10):
        cfg = sample_gauge(derive_rng(seed, "bridge-unit"), 10)
        assignment = cfg.as_assignment()
        try:
            num1 = build_thm1(cfg)
            num2 = build_thm2(cfg)
            for name, obj in sym1.items():
                assert evaluate_object(obj, assignment) == num1[name]
            for name, obj in sym2.items():
                assert evaluate_object(obj, assignment) == num2[name]
        except DegenerateConfig:
            continue
        done += 1
        if done == 4:
            return
    raise AssertionError("too few proper configurations in 10 seeds")


def test_evaluate_object_reports_a_vanishing_line_as_degenerate():
    # ABCD is cyclic at this draw (PA * PC = PB * PD = 2), so the four
    # circumcenters coincide: the Fraction build meets CoincidentPoints, Q's
    # denominators vanish, and the u and v of line_MN and of the axis both
    # vanish over nonzero denominators, which is the same degeneracy
    draw = dict(zip("abcdk", (2, 1, -1, -1, 1)))
    with pytest.raises(CoincidentPoints):
        build_thm1(GaugeConfig(*(F(value) for value in draw.values())))
    objs = build_thm1(GaugeConfig.symbolic())
    for name in ("line_MN", "axis", "Q"):
        with pytest.raises(DenominatorVanishes):
            evaluate_object(objs[name], draw)
    # the public constructor's own check keeps its message
    with pytest.raises(ValueError, match="line needs u or v nonzero"):
        Line(0, 0, 5)


def ref_evaluate_object(obj, assignment):
    """`evaluate_object` field by field, as first written: each field's
    denominator and then its numerator read afresh with
    `Polynomial.evaluate`, however many fields share them."""
    if not isinstance(obj, (Point, Line, Circle)):
        raise TypeError(f"cannot evaluate {type(obj).__name__}")
    _exact_point(assignment)
    h = obj._h
    if type(h[0]) is int:
        return obj
    fields = []
    for value in h[:-1]:
        if isinstance(value, RationalFunction):
            den = value.den.evaluate(assignment)
            if not den:
                raise DenominatorVanishes(f"denominator {value.den.render()} "
                                          "vanishes at the given assignment")
            value = value.num.evaluate(assignment) / den
        fields.append(value)
    if isinstance(obj, Line) and not (fields[0] or fields[1]):
        raise DenominatorVanishes("the line's u and v both vanish at the "
                                  "given assignment")
    return type(obj)(*fields)


def _evaluation(evaluate, obj, assignment):
    """What `evaluate` gives: ("value", type, value) or ("raises", class, message)."""
    try:
        value = evaluate(obj, assignment)
    except (DegenerateConfig, ZeroDivisionError) as error:
        return "raises", type(error), str(error)
    return "value", type(value), value


def test_evaluate_object_matches_its_field_by_field_reference():
    a, b, c, d, k = GaugeConfig.symbolic()
    figures = {f"{result}.{name}": obj
               for result, build in (("thm1", build_thm1), ("thm2", build_thm2),
                                     ("lemma3", build_lemma3))
               for name, obj in build(GaugeConfig.symbolic()).items()}
    # fields whose polynomials have equal terms over different integer
    # denominators (a/2 and a), and a polynomial read as one field's
    # numerator before it is another field's vanishing denominator (a - 2
    # at a = 2)
    figures["halves"] = Point(a / 2, a)
    figures["shared_zero"] = Point((a - 2) / b, c / (a - 2))
    draws = [sample_gauge(derive_rng(seed, "bridge-ref"), 10).as_assignment()
             for seed in range(6)]
    # ANCHOR puts a = 2; at the cyclic draw the four circumcenters coincide
    draws += [ANCHOR.as_assignment(), dict(zip("abcdk", (2, 1, -1, -1, 1)))]
    raised = set()
    for draw in draws:
        for name, obj in figures.items():
            expected = _evaluation(ref_evaluate_object, obj, draw)
            assert _evaluation(evaluate_object, obj, draw) == expected, (name, draw)
            if expected[0] == "raises":
                raised.add((name, expected[1]))
    assert {("thm1.line_MN", DenominatorVanishes), ("thm1.axis", DenominatorVanishes),
            ("thm1.Q", DenominatorVanishes), ("shared_zero", DenominatorVanishes)} <= raised


def test_evaluate_object_reads_each_distinct_polynomial_once(monkeypatch):
    # thm2's Q has x and y over one 36-term denominator: three distinct
    # polynomials, each read once, where a field-by-field read makes four
    Q = build_thm2(GaugeConfig.symbolic())["Q"]
    x, y = Q.x, Q.y
    assert x.den == y.den and len(x.den.terms) == 36
    calls = _count_calls(monkeypatch, Polynomial, "evaluate")
    assert evaluate_object(Q, ANCHOR.as_assignment()) == build_thm2(ANCHOR)["Q"]
    assert len(calls) == 3


def test_theorems_evaluate_object_is_geoms():
    # the benchmark's bridge workload reads it from theorems
    assert theorems.evaluate_object is geom.evaluate_object


def test_evaluate_object_rejects_unknown_types():
    with pytest.raises(TypeError):
        evaluate_object("not geometry", {})


def test_evaluate_object_checks_the_assignment_of_a_constant_object():
    origin = Point(0, 0)
    assert evaluate_object(origin, {"a": 1, "b": 2, "c": F(1, 3), "d": 4, "k": 5}) == origin
    with pytest.raises(TypeError, match="value of c must be an int or Fraction"):
        evaluate_object(origin, {**ANCHOR.as_assignment(), "c": 0.5})
    with pytest.raises(ValueError, match="missing 'k'"):
        evaluate_object(origin, {"a": 1, "b": 2, "c": 3, "d": 4})


def test_evaluate_object_of_rational_and_mixed_figures():
    # a rational figure is its own value; a symbolic one evaluates each of
    # its fields, Fraction or RationalFunction, to a rational figure
    a, b, c, d, k = GaugeConfig.symbolic()
    for obj, value in (
            (Line(F(1, 2), 3, -4), Line(F(1, 2), 3, -4)),
            (Point(F(1, 2), a * k), Point(F(1, 2), 2)),
            (Line(a, F(1, 3), b - c), Line(2, F(1, 3), 4)),
            (Circle(F(-1), d, a * b), Circle(-1, -2, 2))):
        result = evaluate_object(obj, ANCHOR.as_assignment())
        assert type(result) is type(obj) and type(result._h[0]) is int
        assert result == value


# -- samplers ----------------------------------------------------------------------

def test_sample_gauge_invariants_and_determinism():
    for seed in range(40):
        cfg = sample_gauge(derive_rng(seed, "g"), 6)
        assert all(v != 0 for v in cfg)
        assert cfg.a != cfg.c and cfg.b != cfg.d
        assert cfg.a * cfg.c < 0 and cfg.b * cfg.d < 0
    assert sample_gauge(derive_rng(7, "g"), 6) == sample_gauge(derive_rng(7, "g"), 6)


def test_sample_cyclic_invariants():
    for seed in range(25):
        cfg = sample_cyclic(derive_rng(seed, "c"), 6)
        ts = list(cfg)
        assert len(set(ts)) == 4
        assert all(abs(t) != 1 for t in ts)
        objs = build_thm0(cfg)  # diagonals guaranteed to meet
        assert objs["P"] is not None


def test_sample_chord_keeps_free_chord_endpoints_split_by_ab():
    unit = Circle(F(0), F(0), F(-1))
    for seed in range(25):
        cfg = sample_chord(derive_rng(seed, "ch"), 6)
        A, B, C, E = (on_unit_circle(t) for t in cfg)
        ab = line_through(A, B)
        f = second_intersection(unit, line_through(E, midpoint(A, B)), E)
        side_c = ab.u * C.x + ab.v * C.y + ab.w
        side_f = ab.u * f.x + ab.v * f.y + ab.w
        assert side_c * side_f < 0


# Reference samplers written on Fractions: each value comes from
# sample_rational and every test reads Fraction fields.  The samplers must
# make the same draws and return equal configurations.

def ref_sample_gauge(rng, bound):
    for _ in range(100000):
        a, b, c, d, k = (sample_rational(rng, bound) for _ in range(5))
        if k and a.numerator * c.numerator < 0 and b.numerator * d.numerator < 0:
            return GaugeConfig(a, b, c, d, k)
    raise SamplerExhausted("gauge sampler exhausted its redraw budget")


def ref_sample_cyclic(rng, bound):
    for _ in range(100000):
        ts = tuple(sample_rational(rng, bound) for _ in range(4))
        if len(set(ts)) != 4 or any(abs(t) == 1 for t in ts):
            continue
        A, B, C, D = (on_unit_circle(t) for t in ts)
        if not is_parallel(line_through(A, C), line_through(B, D)):
            return CyclicConfig(*ts)
    raise SamplerExhausted("cyclic sampler exhausted its redraw budget")


def ref_sample_chord(rng, bound):
    unit = Circle(F(0), F(0), F(-1))
    for _ in range(100000):
        ts = tuple(sample_rational(rng, bound) for _ in range(4))
        if len(set(ts)) != 4 or any(abs(t) == 1 for t in ts):
            continue
        A, B, C, E = (on_unit_circle(t) for t in ts)
        M = midpoint(A, B)
        ab = line_through(A, B)
        try:
            f = second_intersection(unit, line_through(E, M), E)
        except DegenerateConfig:
            continue
        side_c = ab.u * C.x + ab.v * C.y + ab.w
        side_f = ab.u * f.x + ab.v * f.y + ab.w
        if side_c * side_f < 0:
            return ChordButterflyConfig(*ts)
    raise SamplerExhausted("chord sampler exhausted its redraw budget")


def ref_sample_quad(rng, bound):
    return QuadConfig(*(sample_rational(rng, bound) for _ in range(8)))


@pytest.mark.parametrize("bound", (2, 3, 6, 20))
@pytest.mark.parametrize("sampler, ref", [
    (sample_gauge, ref_sample_gauge), (sample_cyclic, ref_sample_cyclic),
    (sample_chord, ref_sample_chord), (sample_quad, ref_sample_quad),
], ids=["gauge", "cyclic", "chord", "quad"])
def test_sampler_matches_its_fraction_reference(sampler, ref, bound):
    for seed in range(200):
        rng, ref_rng = derive_rng(seed, "ref", bound), derive_rng(seed, "ref", bound)
        cfg = sampler(rng, bound)
        assert cfg == ref(ref_rng, bound)
        # equal generator states: the sampler made the reference's draws
        assert rng.getstate() == ref_rng.getstate()
        assert all(type(value) is Fraction for value in cfg)


def test_corners_match_the_reference_on_both_backends():
    # the point literals of lemma2.geo, on int, Fraction, symbolic and mixed
    # configs: the rational ones bound as int pairs, the others by value
    _, b, _, d, k = RationalFunction.variables()
    configs = [ANCHOR, GaugeConfig(2, 1, -3, -2, 1), GaugeConfig.symbolic(),
               GaugeConfig(F(1, 2), b, F(-3), d, k)]
    configs += [sample_gauge(derive_rng(seed, "corners"), 20) for seed in range(50)]
    for cfg in configs:
        objs, expected = build_lemma2(cfg), ref_corners(cfg)[1:]
        corners = tuple(objs[name] for name in "ABCD")
        assert corners == expected
        assert [p._h for p in corners] == [p._h for p in expected]


def test_sample_lemma2_instances_satisfy_constraints():
    for seed in range(8):
        cfg = sample_lemma2(derive_rng(seed, "l2"), 6)
        assert type(cfg) is GaugeConfig
        assert trial("lemma2", cfg) is None


def rank(rows):
    """The rank of a matrix of Fractions, by exact Gaussian elimination."""
    rows = [list(row) for row in rows]
    r = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            factor = rows[i][col] / rows[r][col]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


# lemma2.geo's six constraints (X - Y).(U - V) = 0, in the order it asserts them
LEMMA2_CONSTRAINTS = ("PQAB", "QRBC", "RSCD", "SPDA", "PRBD", "SQAC")


def lemma2_constraint_rows(corners):
    """Each constraint as a row of coefficients of (Px, Py, Qx, Qy, Rx, Ry,
    Sx, Sy), with A, B, C, D the given points."""
    rows = []
    for x, y, u, v in LEMMA2_CONSTRAINTS:
        du, dv = corners[u], corners[v]
        direction = (du.x - dv.x, du.y - dv.y)
        row = [F(0)] * 8
        for i in (0, 1):
            row[2 * "PQRS".index(x) + i] += direction[i]
            row[2 * "PQRS".index(y) + i] -= direction[i]
        rows.append(row)
    return rows


def test_lemma2_constraints_have_rank_five():
    """The argument of lemma2.geo's header at 5 sampled ABCD: the six
    constraints have rank 5, their alternating sum vanishes, and the
    circumcenter quadrilateral solves them."""
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1 and rank([[F(0), F(1)], [F(1), F(0)]]) == 2
    for seed in range(5):
        objs = build_lemma2(sample_lemma2(derive_rng(seed, "lemma2-rank"), 20))
        rows = lemma2_constraint_rows(objs)
        assert rank(rows) == 5
        assert all(not sum(sign * row[j] for sign, row in zip((1, -1) * 3, rows))
                   for j in range(8))
        pqrs = [value for name in "PQRS" for value in objs[name]]
        assert not any(sum(c * value for c, value in zip(row, pqrs)) for row in rows)
        # any five rows have rank 5 too: each implies the sixth
        assert all(rank(rows[:i] + rows[i + 1:]) == 5 for i in range(6))


@given(st.integers(1, 60), st.integers(0, 2**64))
def test_gauge_draws_admit_all_four_circumcenters(bound, seed):
    # the fact that lets sample_lemma2 take every gauge draw as it comes
    _, A, B, C, D = ref_corners(sample_gauge(derive_rng(seed, "l2"), bound))
    assert all(isinstance(O, Point) for O in ref_circumcenters(A, B, C, D))


@given(st.integers(1, 60), st.integers(0, 2**64))
def test_sample_lemma2_makes_the_draws_of_sample_gauge(bound, seed):
    rng, twin = derive_rng(seed, "lemma2", bound), derive_rng(seed, "lemma2", bound)
    assert sample_lemma2(rng, bound) == sample_gauge(twin, bound)
    assert rng.getstate() == twin.getstate()


# -- reports ------------------------------------------------------------------------

def test_report_text_and_flat_layout():
    report = VerificationReport(theorem="t", mode="numeric", attempted=3,
                                passed=2, skipped=1, trials=3, seed=9, bound=4)
    assert report.ok
    assert report.to_text() == ("theorem: t\nmode: numeric\ntrials: 3\nseed: 9\n"
                                "bound: 4\nattempted: 3\npassed: 2\nskipped: 1\n"
                                "result: pass")


def test_report_with_counterexample_serializes_params():
    ce = Counterexample(trial=7, params=(("a", F(1, 3)), ("b", F(-2))),
                        detail="assertion X failed")
    report = VerificationReport(theorem="t", mode="numeric", attempted=8,
                                passed=7, skipped=0, trials=100, seed=1, bound=5,
                                counterexample=ce,
                                failure="counterexample at trial 7")
    flat = report.to_flat()
    assert not report.ok
    assert flat["counterexample.trial"] == "7"
    assert flat["counterexample.params.a"] == "1/3"
    assert flat["counterexample.params.b"] == "-2"
    assert flat["counterexample.detail"] == "assertion X failed"
    assert flat["result"] == "fail"


# -- record contracts ----------------------------------------------------------------

S1, S2 = dsl.Span(1, 1, 0, 1), dsl.Span(2, 5, 9, 3)
_A, _B = dsl.Name("A", S1), dsl.Name("B", S1)
# spans the AST nodes leave out of equality, hashing and the repr
_SPAN_FIELDS = {"span", "name_span", "name_spans", "pred_span"}

# Every immutable record: keyword arguments in declared order, the changes to
# fields that equality ignores, and a change to a field it reads.
RECORDS = [
    (dsl.Span, dict(line=1, col=2, offset=3, length=4), {}, dict(col=5)),
    (dsl.Token, dict(kind="IDENT", text="a", line=1, col=1, offset=0), {},
     dict(text="b")),
    (dsl.IntLit, dict(value=3, span=S1), dict(span=S2), dict(value=4)),
    (dsl.Name, dict(ident="a", span=S1), dict(span=S2), dict(ident="b")),
    (dsl.PointLit, dict(x=_A, y=_B, span=S1), dict(span=S2), dict(y=_A)),
    (dsl.Unary, dict(op="-", operand=_A, span=S1), dict(span=S2),
     dict(operand=_B)),
    (dsl.Binary, dict(op="*", left=_A, right=_B, span=S1), dict(span=S2),
     dict(op="/")),
    (dsl.Call, dict(func="midpoint", args=(_A, _B), span=S1), dict(span=S2),
     dict(args=(_B, _A))),
    (dsl.ParamDecl, dict(names=("a", "b"), span=S1, name_spans=(S1, S1)),
     dict(span=S2, name_spans=(S2, S2)), dict(names=("a",))),
    (dsl.Definition, dict(type="point", name="P", expr=_A, span=S1, name_span=S1),
     dict(span=S2, name_span=S2), dict(name="Q")),
    (dsl.Assertion, dict(predicate="collinear", args=(_A, _B, _A), span=S1,
                         pred_span=S1),
     dict(span=S2, pred_span=S2), dict(predicate="concyclic")),
    (dsl.Construction, dict(statements=(dsl.ParamDecl(("a",), S1, (S1,)),)), {},
     dict(statements=())),
    (GaugeConfig, dict(a=F(1), b=F(2), c=F(-1), d=F(-2), k=F(3)), {}, dict(k=F(4))),
    (CyclicConfig, dict(t_a=F(1, 2), t_b=F(3), t_c=F(-1, 3), t_d=F(-3, 2)), {},
     dict(t_d=F(5))),
    (ChordButterflyConfig, dict(t_a=F(1, 3), t_b=F(-3), t_c=F(3, 2), t_e=F(-1, 4)),
     {}, dict(t_a=F(2))),
    (QuadConfig, dict(zip(("ax", "ay", "bx", "by", "cx", "cy", "dx", "dy"),
                          (F(n, 7) for n in range(8)))), {}, dict(dy=F(9))),
    (Counterexample, dict(trial=7, params=(("a", F(1, 3)),), detail="X failed"), {},
     dict(trial=8)),
    (VerificationReport, dict(theorem="thm1", mode="numeric", attempted=3, passed=2,
                              skipped=1, trials=3, seed=9, bound=4, checks=(),
                              counterexample=None, failure=None, elapsed=0.25),
     dict(elapsed=1.5), dict(skipped=0)),
]


@pytest.mark.parametrize("cls, kwargs, ignored, changed", RECORDS,
                         ids=[row[0].__name__ for row in RECORDS])
def test_record_contracts(cls, kwargs, ignored, changed):
    record = cls(**kwargs)
    assert cls(*kwargs.values()) == record
    name = next(iter(changed))
    with pytest.raises(AttributeError):
        setattr(record, name, changed[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert all(getattr(record, key) is value for key, value in kwargs.items())

    twin = cls(**{**kwargs, **ignored})
    assert twin == record and hash(twin) == hash(record)
    assert cls(**{**kwargs, **changed}) != record
    shown = ", ".join(f"{key}={value!r}" for key, value in kwargs.items()
                      if key not in _SPAN_FIELDS)
    assert repr(record) == f"{cls.__name__}({shown})"

    other = type("Other", (cls,), {})(*kwargs.values())
    if isinstance(record, tuple):
        # a named tuple equals every tuple of its values
        assert other == record == tuple(kwargs.values())
    else:
        assert other != record and record != tuple(kwargs.values())
    if cls in (GaugeConfig, CyclicConfig, ChordButterflyConfig, QuadConfig):
        assert tuple(zip(record._fields, record)) == tuple(kwargs.items())


# -- numeric runner -------------------------------------------------------------------

def test_run_numeric_shape_and_determinism():
    first = run_numeric("thm1", trials=40, seed=11, bound=8)
    second = run_numeric("thm1", trials=40, seed=11, bound=8)
    assert first.ok
    assert first.attempted == 40
    assert first.passed + first.skipped == first.attempted
    assert first == second           # elapsed excluded from comparison
    assert first.to_flat() == second.to_flat()
    shifted = run_numeric("thm1", trials=40, seed=12, bound=8)
    assert shifted.to_flat()["seed"] == "12"


def test_run_numeric_argument_validation():
    with pytest.raises(ValueError):
        run_numeric("thm1", trials=0)
    with pytest.raises(ValueError):
        run_numeric("thm1", trials=5, bound=0)
    with pytest.raises(ValueError, match=r"unknown result 'thm3'; known results: "
                                         r"butterfly_chord, .*, lemma3$"):
        run_numeric("thm3")


# The numeric driver as it ran on configs of Fractions: each trial draws its
# config with the Fraction reference sampler below and runs the corpus file on
# it through `_run`.  The config crosses into `dsl._numeric_run` as the int
# pairs of its fields and back, so a counterexample reports its parameters.
REF_SAMPLERS = {"butterfly_chord": ref_sample_chord, "thm0_cyclic": ref_sample_cyclic,
                "thm1": ref_sample_gauge, "thm2": ref_sample_gauge,
                "lemma1": ref_sample_quad, "lemma2": ref_sample_gauge,
                "lemma3": ref_sample_gauge}


def ref_run_numeric(theorem, trials, seed, bound):
    sample, config = REF_SAMPLERS[theorem], CONFIGS[theorem]

    def draw(rng, bound):
        return [value.as_integer_ratio() for value in sample(rng, bound)]

    def trial(pairs):
        cfg = config(*(F(*pair) for pair in pairs))
        return theorems._run(theorem, cfg, assertions="return")

    return dsl._numeric_run(theorem, theorem, config._fields, draw, trial,
                            trials, seed, bound)


@pytest.mark.parametrize("bound", (20, 2))
@pytest.mark.parametrize("stem", NUMERIC_ORDER)
def test_run_numeric_reports_what_the_fraction_driver_reports(stem, bound):
    # a core's pairs bind the file's parameters in config field order
    assert theorems._construction(stem)[1] == CONFIGS[stem]._fields
    for seed in range(5):
        report = run_numeric(stem, trials=100, seed=seed, bound=bound)
        assert report.to_text() == ref_run_numeric(stem, 100, seed, bound).to_text()


def test_each_trial_crosses_one_trial_boundary(monkeypatch):
    """A built-in trial calls its `_SUITE` trial and a `.geo` trial calls
    `dsl._run_trial`, never one through the other."""
    calls = {"suite": 0, "dsl": 0}

    def counted(key, function):
        def call(*args):
            calls[key] += 1
            return function(*args)
        return call

    core, trial = theorems._SUITE["thm1"]
    monkeypatch.setitem(theorems._SUITE, "thm1", (core, counted("suite", trial)))
    monkeypatch.setattr(dsl, "_run_trial", counted("dsl", dsl._run_trial))
    assert run_numeric("thm1", trials=50).attempted == 50
    assert calls == {"suite": 50, "dsl": 0}
    calls["suite"] = 0
    construction = parse(theorems._CORPUS.joinpath("thm1.geo").read_text())
    assert evaluate_construction(construction, trials=50).attempted == 50
    assert calls == {"suite": 0, "dsl": 50}


def test_forced_refutation_reports_the_fraction_drivers_counterexample(monkeypatch):
    """With thm1's compiled trial program refuting every draw whose k has
    denominator 7, both drivers stop at the same trial, and run_numeric
    reports its parameters in config field order, as Fractions."""
    program = theorems._program
    claim = parse(theorems._CORPUS.joinpath("thm1.geo").read_text()).assertions[-1]

    def refuting(env):
        return claim if env["k"][1] == 7 else program("thm1", True, "return")(env)

    monkeypatch.setattr(theorems, "_program", lambda stem, paired, assertions: (
        refuting if (stem, paired, assertions) == ("thm1", True, "return")
        else program(stem, paired, assertions)))
    report = run_numeric("thm1", trials=1000, seed=5)
    expected = ref_run_numeric("thm1", 1000, 5, 20)
    ce = report.counterexample
    assert ce is not None and ce.trial > 0
    assert (ce.trial, ce.params, ce.detail) == (expected.counterexample.trial,
                                              expected.counterexample.params,
                                              expected.counterexample.detail)
    assert [name for name, _ in ce.params] == list(GaugeConfig._fields)
    assert all(type(value) is Fraction for _, value in ce.params)
    assert ce.params[4][1].denominator == 7
    assert ce.detail == f"assertion {dsl._assertion_text(claim)} failed"
    assert report.to_text() == expected.to_text()


# a false claim for synthetic trials to return as their failed assertion
SYNTHETIC_CLAIM = parse("assert midpoint((0, 0), (1, 0), (2, 0));\n").assertions[0]


def _synthetic_report(synthetic_trial, trials, seed):
    """run_numeric on thm1's parameters, its core replaced by one that
    always draws ANCHOR and its trial by `synthetic_trial`."""
    saved = theorems._SUITE["thm1"]
    theorems._SUITE["thm1"] = (lambda rng, bound: pairs_of(ANCHOR), synthetic_trial)
    try:
        return run_numeric("thm1", trials=trials, seed=seed)
    finally:
        theorems._SUITE["thm1"] = saved


def _geo_report(source, trials, seed, bound=20):
    return evaluate_construction(parse(source), trials=trials, seed=seed,
                                 bound=bound, label="_synthetic")


def _always_skips(pairs):
    raise CollinearPoints("synthetic skip")


def _skips_first_call():
    calls = {"n": 0}

    def synthetic_trial(pairs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise CollinearPoints("one synthetic skip")
        return None

    return synthetic_trial


# Each contract of the shared trial driver, through both of its callers.
RUNS_SKIP_CEILING = {
    "run_numeric": lambda: _synthetic_report(_always_skips, 4, 0),
    "geo": lambda: _geo_report("param a;\npoint P = (a, 0);\n"
                               "assert on(P, line(P, P));\n", 4, 0),
}
# Bound 1 draws a from {-1, 0, 1}; seed 4 draws 0 in exactly one of 5 trials.
RUNS_ONE_SKIP_IN_FIVE = {
    "run_numeric": lambda: _synthetic_report(_skips_first_call(), 5, 0),
    "geo": lambda: _geo_report("param a;\nscalar s = 1 / a;\n"
                               "assert on((s, 0), line((0, 0), (1, 0)));\n",
                               5, 4, bound=1),
}
RUNS_REFUTED = {
    "run_numeric": (lambda: _synthetic_report(lambda pairs: SYNTHETIC_CLAIM, 50, 3),
                    tuple(ANCHOR.as_assignment().items()),
                    "assertion midpoint((0, 0), (1, 0), (2, 0)) failed"),
    "geo": (lambda: _geo_report("param a;\n"
                                "assert midpoint((0, 0), (a, 0), (1, 0));\n",
                                50, 3),
            (("a", F(3, 13)),),
            "assertion midpoint((0, 0), (a, 0), (1, 0)) failed"),
}


@pytest.mark.parametrize("caller", sorted(RUNS_SKIP_CEILING))
def test_run_numeric_skip_ceiling(caller):
    report = RUNS_SKIP_CEILING[caller]()
    assert not report.ok
    assert report.failure == "skip rate 4/4 exceeds limit 1/5"
    assert report.skipped == 4 and report.passed == 0


@pytest.mark.parametrize("caller", sorted(RUNS_ONE_SKIP_IN_FIVE))
def test_run_numeric_skip_rate_boundary_is_inclusive(caller):
    report = RUNS_ONE_SKIP_IN_FIVE[caller]()
    assert report.ok                     # 1/5 does not exceed the limit 1/5
    assert report.skipped == 1 and report.passed == 4


@pytest.mark.parametrize("caller", sorted(RUNS_REFUTED))
def test_run_numeric_counterexample_stops_early(caller):
    run, params, detail = RUNS_REFUTED[caller]
    report = run()
    assert not report.ok
    assert report.failure == "counterexample at trial 0"
    assert report.attempted == 1         # stops at the first refutation
    assert report.counterexample.params == params
    assert report.counterexample.detail == detail


# -- symbolic provers ------------------------------------------------------------------

def test_prove_thm1_report():
    report = prove_thm1()
    assert report.ok and report.mode == "symbolic"
    assert report.attempted == 12 and report.passed == 12 and report.skipped == 0
    assert all(ok for _, ok in report.checks)
    assert report.checks[0][0] == "thm1.O_a"
    assert report.checks[-1][0] == "thm1.midpoint_PQR"


def test_prove_thm2_report():
    report = prove_thm2()
    assert report.ok
    assert report.attempted == 11 and report.passed == 11
    ids = [check_id for check_id, _ in report.checks]
    assert "thm2.axis_matches_thm1" in ids


def test_prove_lemma3_report():
    report = prove_lemma3()
    assert report.ok
    assert report.attempted == 9 and report.passed == 9
    ids = [check_id for check_id, _ in report.checks]
    assert "lemma3.ratio_chain" in ids and "lemma3.pencil" in ids


def _count_calls(monkeypatch, owner, name):
    """Replace `owner.name` with a wrapper that records each call."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_run_suite_builds_thm1_once(monkeypatch):
    calls = _count_calls(monkeypatch, theorems, "build_thm1")
    reports = run_suite(mode="symbolic")
    assert [r.theorem for r in reports] == list(theorems._PROVERS)
    assert all(r.ok for r in reports)
    assert len(calls) == 1


def test_standalone_prove_thm2_is_run_suites_thm2(monkeypatch):
    expected = run_suite(mode="symbolic")[1]
    calls = _count_calls(monkeypatch, theorems, "build_thm1")
    report = prove_thm2()
    assert report.ok and dict(report.checks)["thm2.axis_matches_thm1"] is True
    assert report.to_text() == expected.to_text()
    assert len(calls) == 1


def test_axis_matches_thm1_fails_with_thm1s_axis_moved(monkeypatch):
    build = theorems.build_thm1

    def moved(cfg):
        objs = build(cfg)
        axis = objs["axis"]
        return dict(objs, axis=Line(axis.u, axis.v, axis.w + 1))

    monkeypatch.setattr(theorems, "build_thm1", moved)
    thm1, thm2, _ = run_suite(mode="symbolic")
    assert dict(thm1.checks)["thm1.axis"] is False
    for report in (thm2, prove_thm2()):
        checks = dict(report.checks)
        assert checks["thm2.axis"] is True
        assert checks["thm2.axis_matches_thm1"] is False
        assert report.failure == "SymbolicMismatch: thm2.axis_matches_thm1"


def test_prove_lemma3_computes_each_power_ratio_once(monkeypatch):
    calls = _count_calls(monkeypatch, theorems, "power_of_point")
    assert prove_lemma3().ok
    # two powers for each of P, M and N; ratio_chain reads the verdicts
    assert len(calls) == 6


def test_symbolic_coaxial_verdict_does_not_depend_on_argument_order():
    objs = build_lemma3(GaugeConfig.symbolic())
    holds = [objs[name] for name in ("circle_ac", "circle_bd", "circle_pmn")]
    ast = parse((FIXTURES / "lemma3_perturbed.geo").read_text(encoding="utf-8"))
    env = {name: RationalFunction.variable(name) for name in ast.params}
    perturbed = dsl._compile_program(ast, assertions=None)(env)
    fails = [perturbed[name] for name in ("w_ac", "w_bd", "w_pmn")]
    for order in itertools.permutations(range(3)):
        assert are_coaxial(*(holds[i] for i in order)) is True, order
        assert are_coaxial(*(fails[i] for i in order)) is False, order


def test_line_equality_with_w_zero_on_both_lines():
    """thm1's axis and the closed-form axis both have w = 0, so one minor
    is u1*w2 == w1*u2 with a zero factor on each side: both products are 0
    and the lines are equal.  Cancelling the two zeros as a common factor
    would leave u1 == u2 on the axis's unequal representatives."""
    axis = build_thm1(GaugeConfig.symbolic())["axis"]
    assert not axis.w and not closedforms.AXIS.w
    assert axis.u != closedforms.AXIS.u
    assert axis == closedforms.AXIS and closedforms.AXIS == axis
    assert Line(axis.u, axis.v, 1) != closedforms.AXIS


def test_symbolic_lemma3_coaxial_decision_cost(monkeypatch):
    """A deterministic cost pin: the pencil row's products, counted as the
    benchmark's tracer counts them (len(terms) x len(terms) per product).
    With the difference rows taken from the sparsest circle, circle_pmn
    (f = 0), the decision makes 15,037 term pairs; taken from the first
    circle, circle_ac, it would make 88,677.  The minors are decided by
    `ratfun.products_equal`, which cancels equal factors across the two
    sides before multiplying; with each side's product formed as a
    rational function and then compared these were 21,689 and 73,215."""
    objs = build_lemma3(GaugeConfig.symbolic())
    pairs = [0]
    multiply = Polynomial.__mul__

    def counted(self, other):
        pairs[0] += len(self.terms) * (len(other.terms)
                                       if isinstance(other, Polynomial) else 1)
        return multiply(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    monkeypatch.setattr(Polynomial, "__rmul__", counted)
    assert are_coaxial(objs["circle_ac"], objs["circle_bd"], objs["circle_pmn"])
    assert 0 < pairs[0] <= 15_037


def test_symbolic_proof_costs(monkeypatch):
    """A deterministic cost pin of each symbolic proof, on a built closed-form
    table: term pairs counted as the benchmark's tracer counts them, and
    RationalFunction constructions, at most 15,293 and 183 for thm1, 4,493
    and 175 for thm2 (given thm1's report) and 28,399 and 270 for lemma3.
    What holds them there: two-sided tests compare (`x == y`, not
    `not (x - y)`), an equality or a quotient over one shared denominator
    takes the numerators alone, a line equality or a pencil test decides
    each `a*b == c*d` with equal factors cancelled before multiplying
    (`ratfun.products_equal`), each construction has one formula for both
    backends (symbolic `circumcenter` takes the fused Cramer formula,
    symbolic `line_through` w = x2*y1 - x1*y2), a symbolic line is stored
    as its fields with no rescaling, and a product with an int or Fraction
    0 builds its zero at once (the symbolic gauge holds A and C's zero
    coordinates as Fraction(0)).  A product by 1 is still billed
    here, as the tracer bills it, though it returns the other factor and
    forms no pair; that shortcut is pinned by
    `test_product_with_one_is_the_other_factor`, not by this test."""
    closedforms._forms()  # built on first read; not part of any proof
    counts = {"pairs": 0, "new": 0}
    multiply, construct = Polynomial.__mul__, RationalFunction.__init__

    def counted_mul(self, other):
        counts["pairs"] += len(self.terms) * (len(other.terms)
                                              if isinstance(other, Polynomial) else 1)
        return multiply(self, other)

    def counted_init(self, *args):
        counts["new"] += 1
        construct(self, *args)

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", counted_mul)
    monkeypatch.setattr(RationalFunction, "__init__", counted_init)

    def measured(prove, *args):
        counts.update(pairs=0, new=0)
        report = prove(*args)
        assert report.ok, report.theorem
        return report, counts["pairs"], counts["new"]

    thm1, pairs, new = measured(theorems.prove_thm1)
    assert 0 < pairs <= 15_293 and 0 < new <= 183
    _, pairs, new = measured(theorems.prove_thm2, thm1)
    assert 0 < pairs <= 4_493 and 0 < new <= 175
    _, pairs, new = measured(theorems.prove_lemma3)
    assert 0 < pairs <= 28_399 and 0 < new <= 270


def test_ratio_chain_reads_the_power_ratio_verdicts(monkeypatch):
    calls = _count_calls(monkeypatch, theorems, "_ratio_at")
    report = prove_lemma3()
    assert report.ok and dict(report.checks)["lemma3.ratio_chain"] is True
    # rows ratio_P, ratio_M and ratio_N compare one ratio each; the chain
    # compares only the diagonal ratio
    assert [key for _, key in calls] == ["P", "M", "N"]


def test_ratio_chain_fails_with_a_failed_power_ratio_row():
    objs = _nudge_m(build_lemma3(GaugeConfig.symbolic()))
    report = theorems._prove("lemma3", objs)
    checks = dict(report.checks)
    assert checks["lemma3.ratio_P"] is True and checks["lemma3.ratio_N"] is True
    assert checks["lemma3.ratio_M"] is False
    assert checks["lemma3.ratio_chain"] is False
    assert report.failure == "SymbolicMismatch: lemma3.ratio_M"


def test_prove_paper_keeps_nothing_between_calls(monkeypatch, capsys):
    calls = _count_calls(monkeypatch, Polynomial, "__mul__")
    monkeypatch.setattr(Polynomial, "__rmul__", Polynomial.__mul__)
    counts = []
    for _ in range(2):
        before = len(calls)
        assert cli.main(["prove-paper", "--mode", "symbolic"]) == 0
        counts.append(len(calls) - before)
    assert capsys.readouterr().out.count("theorem: thm2\n") == 2
    assert counts[0] == counts[1] > 0


def ref_ratio_chain(objs):
    """lemma3's ratio chain as first stated: D == PR and P == M == N == D."""
    ratio_at, diagonal_ratio = theorems._ratio_at, theorems._diagonal_ratio
    return (diagonal_ratio(objs) == closedforms.POWER_RATIO
            and ratio_at(objs, "P") == ratio_at(objs, "M")
            == ratio_at(objs, "N") == diagonal_ratio(objs))


def _ratio_chain(objs):
    """lemma3's chain verdict in a proof of `objs`, after the rows before it."""
    report = theorems._prove("lemma3", dict(objs))
    return dict(report.checks)["lemma3.ratio_chain"]


def _nudge_m(objs):
    """The objects with M moved off the midpoint of AC."""
    M = objs["M"]
    return dict(objs, M=Point(M.x + 1, M.y))


def test_ratio_chain_is_the_reference_proposition_symbolically():
    objs = build_lemma3(GaugeConfig.symbolic())
    assert _ratio_chain(objs) is True and ref_ratio_chain(objs) is True
    nudged = _nudge_m(objs)
    assert _ratio_chain(nudged) is False and ref_ratio_chain(nudged) is False


def _outcome(chain, objs):
    try:
        return chain(objs)
    except (DegenerateConfig, ZeroDivisionError) as exc:
        return type(exc)


def test_ratio_chain_is_the_reference_proposition_on_fraction_builds(monkeypatch):
    # PR is the symbolic closed form, or its value at the draw, so that the
    # chain holds on the built objects and fails on the nudged ones
    shipped = closedforms.POWER_RATIO
    seen = set()
    for seed in range(50):
        cfg = sample_gauge(derive_rng(seed, "ratio-chain"), 10)
        try:
            objs = build_lemma3(cfg)
        except DegenerateConfig:
            continue
        for power_ratio in (shipped, shipped.evaluate(cfg.as_assignment())):
            monkeypatch.setattr(closedforms, "POWER_RATIO", power_ratio)
            for candidate in (objs, _nudge_m(objs)):
                outcome = _outcome(_ratio_chain, candidate)
                assert outcome == _outcome(ref_ratio_chain, candidate)
                seen.add(outcome)
    assert {True, False} <= seen


def ref_axis_matches_thm1(objs):
    """thm2's shared-axis check as first stated: thm2's axis equals the
    rebuilt thm1 axis, compared directly."""
    return objs["axis"] == build_thm1(GaugeConfig.symbolic())["axis"]


def _axis_matches_thm1(objs):
    """thm2's shared-axis verdict in a proof of `objs`, after the rows before
    it, given thm1's verdict on its axis as thm1's "axis" row decides it."""
    thm1_axis = dict(prove_thm1().checks)["thm1.axis"]
    report = theorems._prove("thm2", {**objs, "thm1.axis": thm1_axis})
    return dict(report.checks)["thm2.axis_matches_thm1"]


def test_axis_matches_thm1_is_the_reference_proposition():
    objs = build_thm2(GaugeConfig.symbolic())
    assert _axis_matches_thm1(objs) is True and ref_axis_matches_thm1(objs) is True
    axis = objs["axis"]
    nudged = dict(objs, axis=Line(axis.u, axis.v, axis.w + 1))
    assert _axis_matches_thm1(nudged) is False
    assert ref_axis_matches_thm1(nudged) is False


# SHA-256 over every coordinate of the symbolic thm1, thm2 and lemma3
# objects, term by term (`_den` and `_terms` of each numerator and
# denominator).  A change to the polynomial or rational-function
# representation, or to the order of operations of a construction, moves
# it; such a change updates it here on purpose.
SYMBOLIC_OBJECTS_SHA256 = (
    "5279cc9c241d5988503baad8bf35917b6265b7b5e841bfc12d7bf9f5c3738fce")
# The same digest over the points A, B, C, D, P, Q, R, S of the symbolic
# lemma2 configuration, in that order.
LEMMA2_POINTS_SHA256 = (
    "bee1109787d0e4da04b89de7b43439d95e2d30b3185c975a6238320dbd121f65")


def _coordinates(obj):
    if isinstance(obj, Point):
        return obj.x, obj.y
    if isinstance(obj, Line):
        return obj.u, obj.v, obj.w
    return obj.d, obj.e, obj.f


def _digest(named_objects):
    digest = hashlib.sha256()
    for name, obj in named_objects:
        digest.update(name.encode())
        for value in _coordinates(obj):
            if not isinstance(value, RationalFunction):
                value = RationalFunction.constant(value)
            for poly in (value.num, value.den):
                digest.update(repr((poly._terms, poly._den)).encode())
    return digest.hexdigest()


def test_symbolic_objects_are_byte_identical():
    assert _digest(item for build in (build_thm1, build_thm2, build_lemma3)
                   for item in sorted(build(GaugeConfig.symbolic()).items())
                   ) == SYMBOLIC_OBJECTS_SHA256


def test_symbolic_lemma2_points_are_byte_identical():
    objs = build_lemma2(GaugeConfig.symbolic())
    assert _digest((name, objs[name]) for name in "ABCDPQRS"
                   ) == LEMMA2_POINTS_SHA256


def _terms(value):
    """Numerator and denominator term counts of a coordinate, a constant
    taken as a rational function (as the benchmark's size table takes it)."""
    if not isinstance(value, RationalFunction):
        value = RationalFunction.constant(value)
    return len(value.num.terms), len(value.den.terms)


def test_symbolic_object_sizes():
    """A size pin of each symbolic build: numerator plus denominator terms
    summed over every coordinate, at most 1,944 for thm1, 652 for thm2
    and 447 for lemma3, with thm1's axis `v` at 72 over 9 terms and `Q.x`
    at 270 over 162, and thm2's `Q.x` at 48 over 36.  Sizes drive the cost
    of every product a proof makes on the built objects; one formula per
    construction, figures stored as their fields with no rescaling, and a
    quotient over one shared denominator taken as the numerators' quotient
    (thm2's Q divides x and y by a z over their denominator) keep them
    there."""
    ceilings = {build_thm1: 1_944, build_thm2: 652, build_lemma3: 447}
    built = {build: build(GaugeConfig.symbolic()) for build in ceilings}
    for build, ceiling in ceilings.items():
        total = sum(sum(_terms(value)) for obj in built[build].values()
                    for value in _coordinates(obj))
        assert 0 < total <= ceiling, (build.__name__, total)
    thm1 = built[build_thm1]
    assert _terms(thm1["axis"].v) == (72, 9)
    assert _terms(thm1["Q"].x) == (270, 162)
    assert _terms(built[build_thm2]["Q"].x) == (48, 36)


# The closed-form checks, keyed in here independently of the proof plans.
CLOSED_FORM_ORACLE = (
    "thm1.O_a", "thm1.O_b", "thm1.O_c", "thm1.O_d", "thm1.M", "thm1.N",
    "thm1.axis", "thm1.line_AB", "thm1.line_CD", "thm1.Q", "thm1.R",
    "thm2.X", "thm2.Y", "thm2.Z", "thm2.W", "thm2.W_x", "thm2.W_y",
    "thm2.axis", "thm2.Q", "thm2.R",
    "lemma3.O_a", "lemma3.O_b", "lemma3.O_c", "lemma3.O_d",
    "lemma3.ratio_P", "lemma3.ratio_M", "lemma3.ratio_N", "lemma3.ratio_chain",
)
IDENTITY_CHECK_IDS = ("thm1.midpoint_PQR", "thm2.midpoint_PQR",
                      "thm2.axis_matches_thm1", "lemma3.pencil")


def test_closed_form_check_ids_complete():
    assert CLOSED_FORM_CHECK_IDS == CLOSED_FORM_ORACLE
    seen = {}
    for report in (prove_thm1(), prove_thm2(), prove_lemma3()):
        assert report.ok
        for check_id, _ in report.checks:
            assert check_id not in seen
            assert check_id in CLOSED_FORM_ORACLE + IDENTITY_CHECK_IDS
        seen.update(dict(report.checks))
    assert set(seen) == set(CLOSED_FORM_ORACLE + IDENTITY_CHECK_IDS)
    for check_id in CLOSED_FORM_CHECK_IDS:
        assert seen[check_id] is True


def test_run_checks_reports_the_first_mismatch():
    report = dsl.run_checks("x", [("x.bad", False, "bad"),
                                  ("x.good", True, "good"),
                                  ("x.worse", False, "worse")])
    assert not report.ok
    assert report.failure == "SymbolicMismatch: bad"
    assert report.checks == (("x.bad", False), ("x.good", True),
                             ("x.worse", False))
    assert report.attempted == 3 and report.passed == 1


# -- suite runner -----------------------------------------------------------------------

def test_result_orders_are_the_registries():
    assert tuple(theorems._SUITE) == NUMERIC_ORDER
    # each result id names its corpus file
    assert all((theorems._CORPUS / f"{stem}.geo").is_file() for stem in NUMERIC_ORDER)
    assert NUMERIC_ORDER == ("butterfly_chord", "thm0_cyclic", "thm1", "thm2",
                             "lemma1", "lemma2", "lemma3")
    assert tuple(theorems._PROVERS) == ("thm1", "thm2", "lemma3")


def test_run_suite_ordering_and_modes():
    reports = run_suite(mode="both", trials=3, seed=1, bound=8)
    assert [r.theorem for r in reports] == [*theorems._PROVERS, *NUMERIC_ORDER]
    assert [r.mode for r in reports] == ["symbolic"] * 3 + ["numeric"] * 7
    assert all(r.ok for r in reports)
    numeric_only = run_suite(mode="numeric", trials=2, seed=1, bound=8)
    assert [r.theorem for r in numeric_only] == list(NUMERIC_ORDER)
    with pytest.raises(ValueError):
        run_suite(mode="fast")
