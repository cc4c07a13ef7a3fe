"""Builders, checkers, samplers, provers, and the suite runner.

Anchor-instance coordinates (a=2, b=1, c=-3, d=-2, k=1) and the cyclic/chord
instances were computed by hand and frozen here as independent oracles.
"""

from dataclasses import fields
from fractions import Fraction

import pytest

from butterfly import theorems
from butterfly.dsl import evaluate_construction, parse
from butterfly.errors import CollinearPoints, DegenerateConfig, SamplerExhausted
from butterfly.geom import (
    Circle,
    Line,
    Point,
    is_midpoint,
    is_parallel,
    line_through,
    midpoint,
    on_unit_circle,
    power_of_point,
    second_intersection,
)
from butterfly.ratfun import RationalFunction
from butterfly.scalar import derive_rng, sample_rational
from butterfly.theorems import (
    CLOSED_FORM_CHECK_IDS,
    NUMERIC_ORDER,
    SYMBOLIC_ORDER,
    ChordButterflyConfig,
    Counterexample,
    CyclicConfig,
    GaugeConfig,
    Lemma2Config,
    QuadConfig,
    VerificationReport,
    build_chord,
    build_lemma2,
    build_lemma3,
    build_thm0,
    build_thm1,
    build_thm2,
    check_butterfly_chord,
    check_lemma1,
    check_lemma2,
    check_lemma3,
    check_thm0,
    check_thm1,
    check_thm1_harmonic,
    check_thm2,
    check_thm2_perpendicularity,
    evaluate_object,
    gauge_from_cyclic,
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

F = Fraction
ANCHOR = GaugeConfig(F(2), F(1), F(-3), F(-2), F(1))


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


# -- checkers -------------------------------------------------------------------

def test_checkers_true_at_anchor():
    assert check_thm1(ANCHOR)
    assert check_thm2(ANCHOR)
    assert check_lemma3(ANCHOR)
    assert check_thm1_harmonic(ANCHOR)
    assert check_thm2_perpendicularity(ANCHOR)


def test_chord_and_cyclic_checkers():
    assert check_butterfly_chord(ChordButterflyConfig(F(3), F(1, 3), F(-5), F(-1, 5)))
    assert check_thm0(CyclicConfig(F(1, 2), F(3), F(-4), F(-1, 6)))


def test_thm0_degeneracies_raise_skips():
    # antipodal pairs: both diagonals are diameters, P coincides with the center
    with pytest.raises(DegenerateConfig):
        check_thm0(CyclicConfig(F(2), F(3), F(-1, 2), F(-1, 3)))
    # mirror-symmetric quadrilateral: P sits on the y-axis, so the
    # perpendicular at P to OP comes out parallel to the horizontal chord AB
    with pytest.raises(DegenerateConfig):
        check_thm0(CyclicConfig(F(1, 2), F(2), F(-5), F(-1, 5)))


def test_lemma1_kite_and_square():
    assert check_lemma1(Point(F(0), F(3)), Point(F(-2), F(0)),
                        Point(F(0), F(-1)), Point(F(2), F(0)))
    with pytest.raises(DegenerateConfig):
        check_lemma1(Point(F(0), F(0)), Point(F(1), F(0)),
                     Point(F(1), F(1)), Point(F(0), F(1)))


def test_lemma2_from_anchor_and_tampered():
    cfg = build_lemma2(ANCHOR)
    assert cfg.P == Point(F(0), F(-1))       # O_c
    assert cfg.S == Point(F(-1, 2), F(0))    # O_b
    assert check_lemma2(cfg)
    bad = Lemma2Config(A=Point(cfg.A.x + 1, cfg.A.y), B=cfg.B, C=cfg.C, D=cfg.D,
                       P=cfg.P, Q=cfg.Q, R=cfg.R, S=cfg.S)
    assert not check_lemma2(bad)  # broken constraint is a refutation, not a skip


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


# -- config plumbing --------------------------------------------------------------

def test_config_params_shapes():
    assert ANCHOR.params() == (("a", F(2)), ("b", F(1)), ("c", F(-3)),
                               ("d", F(-2)), ("k", F(1)))
    assert ANCHOR.as_assignment() == {"a": F(2), "b": F(1), "c": F(-3),
                                      "d": F(-2), "k": F(1)}
    quad = sample_quad(derive_rng(0, "quad"), 5)
    assert [name for name, _ in quad.params()] == [
        "ax", "ay", "bx", "by", "cx", "cy", "dx", "dy"]
    lem2 = build_lemma2(ANCHOR)
    assert [name for name, _ in lem2.params()] == ["a", "b", "c", "d", "k"]
    gaugeless = Lemma2Config(A=lem2.A, B=lem2.B, C=lem2.C, D=lem2.D,
                             P=lem2.P, Q=lem2.Q, R=lem2.R, S=lem2.S)
    assert len(gaugeless.params()) == 16


@pytest.mark.parametrize("cfg, names", [
    (ANCHOR, ("a", "b", "c", "d", "k")),
    (CyclicConfig(F(1, 2), F(3), F(-1, 3), F(-3, 2)),
     ("t_a", "t_b", "t_c", "t_d")),
    (ChordButterflyConfig(F(1, 3), F(-3), F(3, 2), F(-1, 4)),
     ("t_a", "t_b", "t_c", "t_e")),
], ids=["gauge", "cyclic", "chord"])
def test_scalar_config_params_are_its_fields(cfg, names):
    assert tuple(name for name, _ in cfg.params()) == names
    assert names == tuple(f.name for f in fields(cfg))
    assert all(value is getattr(cfg, name) for name, value in cfg.params())


def test_gauge_from_cyclic_properties():
    from butterfly.geom import are_concyclic
    cfg = CyclicConfig(F(1, 2), F(3), F(-4), F(-1, 6))
    g = gauge_from_cyclic(cfg)
    # convex vertex order puts the diagonal crossing strictly inside
    assert g.a * g.c < 0 and g.b * g.d < 0 and g.k != 0
    # the similarity keeps the four vertices on one circle
    _, A, B, C, D = g.corners()
    assert are_concyclic(A, B, C, D)
    # the second generalization degrades gracefully: X = Y = Z = center
    objs = build_thm2(g)
    assert objs["X"] == objs["Y"] == objs["Z"] == objs["W"]
    assert check_thm2(g)
    # the first one cannot apply: all four circumcenters coincide, so M = N
    with pytest.raises(DegenerateConfig):
        check_thm1(g)


def test_gauge_from_cyclic_perpendicular_diagonals():
    # AC along (-2, 1) and BD along (1, 2): no finite slope for the gauge
    with pytest.raises(DegenerateConfig):
        gauge_from_cyclic(CyclicConfig(F(0), F(1, 2), F(2), F(-4, 3)))


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


def test_evaluate_object_rejects_unknown_types():
    with pytest.raises(TypeError):
        evaluate_object("not geometry", {})


# -- samplers ----------------------------------------------------------------------

def test_sample_gauge_invariants_and_determinism():
    for seed in range(40):
        cfg = sample_gauge(derive_rng(seed, "g"), 6)
        assert all(v != 0 for _, v in cfg.params())
        assert cfg.a != cfg.c and cfg.b != cfg.d
        assert cfg.a * cfg.c < 0 and cfg.b * cfg.d < 0
    assert sample_gauge(derive_rng(7, "g"), 6) == sample_gauge(derive_rng(7, "g"), 6)


def test_sample_cyclic_invariants():
    for seed in range(25):
        cfg = sample_cyclic(derive_rng(seed, "c"), 6)
        ts = [v for _, v in cfg.params()]
        assert len(set(ts)) == 4
        assert all(abs(t) != 1 for t in ts)
        objs = build_thm0(cfg)  # diagonals guaranteed to meet
        assert objs["P"] is not None


def test_sample_chord_keeps_free_chord_endpoints_split_by_ab():
    unit = Circle(F(0), F(0), F(-1))
    for seed in range(25):
        cfg = sample_chord(derive_rng(seed, "ch"), 6)
        A, B, C, E = cfg.corners()
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
    coords = [sample_rational(rng, bound) for _ in range(8)]
    return QuadConfig(Point(coords[0], coords[1]), Point(coords[2], coords[3]),
                      Point(coords[4], coords[5]), Point(coords[6], coords[7]))


def ref_corners(cfg):
    zero = cfg.a * 0
    return (Point(zero, zero), Point(cfg.a, zero), Point(cfg.b, cfg.k * cfg.b),
            Point(cfg.c, zero), Point(cfg.d, cfg.k * cfg.d))


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
        assert all(type(value) is Fraction for _, value in cfg.params())


def test_corners_match_the_reference_on_both_backends():
    _, b, _, d, k = RationalFunction.variables()
    configs = [ANCHOR, GaugeConfig(2, 1, -3, -2, 1), GaugeConfig.symbolic(),
               GaugeConfig(F(1, 2), b, F(-3), d, k)]
    configs += [sample_gauge(derive_rng(seed, "corners"), 20) for seed in range(50)]
    for cfg in configs:
        corners = cfg.corners()
        assert corners == ref_corners(cfg)
        assert [p._ints for p in corners] == [p._ints for p in ref_corners(cfg)]


def test_sample_lemma2_instances_satisfy_constraints():
    for seed in range(8):
        cfg = sample_lemma2(derive_rng(seed, "l2"), 6)
        assert cfg.gauge is not None
        assert check_lemma2(cfg)


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


def _synthetic_report(checker, trials, seed):
    """run_numeric on a registered result that always samples ANCHOR."""
    theorems._SUITE["_synthetic"] = (lambda rng, bound: ANCHOR, checker)
    theorems._CLAIMS["_synthetic"] = "synthetic claim"
    try:
        return run_numeric("_synthetic", trials=trials, seed=seed)
    finally:
        del theorems._SUITE["_synthetic"]
        del theorems._CLAIMS["_synthetic"]


def _geo_report(source, trials, seed, bound=20):
    return evaluate_construction(parse(source), trials=trials, seed=seed,
                                 bound=bound, label="_synthetic")


def _always_skips(cfg):
    raise CollinearPoints("synthetic skip")


def _skips_first_call():
    calls = {"n": 0}

    def checker(cfg):
        calls["n"] += 1
        if calls["n"] == 1:
            raise CollinearPoints("one synthetic skip")
        return True

    return checker


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
    "run_numeric": (lambda: _synthetic_report(lambda cfg: False, 50, 3),
                    ANCHOR.params(), "assertion synthetic claim failed"),
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
    report = theorems.run_checks("x", [("x.bad", False, "bad"),
                                       ("x.good", True, "good"),
                                       ("x.worse", False, "worse")])
    assert not report.ok
    assert report.failure == "SymbolicMismatch: bad"
    assert report.checks == (("x.bad", False), ("x.good", True),
                             ("x.worse", False))
    assert report.attempted == 3 and report.passed == 1


# -- suite runner -----------------------------------------------------------------------

def test_result_orders_are_the_registries():
    assert tuple(theorems._CLAIMS) == tuple(theorems._SUITE) == NUMERIC_ORDER
    assert NUMERIC_ORDER == ("butterfly_chord", "thm0_cyclic", "thm1", "thm2",
                             "lemma1", "lemma2", "lemma3")
    assert SYMBOLIC_ORDER == tuple(theorems._PROVERS) == ("thm1", "thm2", "lemma3")


def test_run_suite_ordering_and_modes():
    reports = run_suite(mode="both", trials=3, seed=1, bound=8)
    assert [r.theorem for r in reports] == list(SYMBOLIC_ORDER) + list(NUMERIC_ORDER)
    assert [r.mode for r in reports] == ["symbolic"] * 3 + ["numeric"] * 7
    assert all(r.ok for r in reports)
    numeric_only = run_suite(mode="numeric", trials=2, seed=1, bound=8)
    assert [r.theorem for r in numeric_only] == list(NUMERIC_ORDER)
    with pytest.raises(ValueError):
        run_suite(mode="fast")
