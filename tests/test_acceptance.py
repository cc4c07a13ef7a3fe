"""Acceptance gate: one test per criterion, one printed pass/fail line each.

Every check here is exact (Fraction or rational-function equality); the only
tolerances are wall-clock budgets.  Run with -s to see the summary lines.
"""

import time
from fractions import Fraction

from butterfly import closedforms
from butterfly.cli import main
from butterfly.dsl import evaluate_construction, parse
from butterfly.errors import DegenerateConfig
from butterfly.ratfun import RationalFunction
from butterfly.scalar import derive_rng, sample_rational
from butterfly.theorems import (
    CLOSED_FORM_CHECK_IDS,
    NUMERIC_ORDER,
    ChordButterflyConfig,
    CyclicConfig,
    GaugeConfig,
    QuadConfig,
    build_lemma3,
    build_thm1,
    build_thm2,
    check_thm1_harmonic,
    check_thm2_perpendicularity,
    evaluate_object,
    prove_lemma3,
    prove_thm1,
    prove_thm2,
    run_numeric,
    sample_gauge,
)
from butterfly.geom import (
    cross_ratio,
    intersect_lines,
    line_through,
    pencil_cross_ratio,
    power_of_point,
)
from tests.test_dsl import CORPUS, FIXTURES
from tests.test_theorems import REF_CHECKS


def _emit(criterion: int, ok: bool, detail: str) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {verdict} - {detail}")


def test_criterion_1_symbolic_closed_form_reproduction():
    start = time.perf_counter()
    results = {}
    for prover in (prove_thm1, prove_thm2, prove_lemma3):
        results.update(dict(prover().checks))
    elapsed = time.perf_counter() - start
    reproduced = [cid for cid in CLOSED_FORM_CHECK_IDS if results.get(cid)]
    ok = len(reproduced) == len(CLOSED_FORM_CHECK_IDS) == 28 and elapsed < 60
    _emit(1, ok, f"{len(reproduced)}/28 stored construction formulas "
                 f"reproduced symbolically in {elapsed:.1f}s")
    assert len(CLOSED_FORM_CHECK_IDS) == 28
    missing = [cid for cid in CLOSED_FORM_CHECK_IDS if not results.get(cid)]
    assert not missing, f"not reproduced: {missing}"
    assert elapsed < 60


def test_criterion_2_symbolic_theorem_identities():
    start = time.perf_counter()
    sym1 = build_thm1(GaugeConfig.symbolic())
    sym2 = build_thm2(GaugeConfig.symbolic())
    qr_identities = [
        not (sym1["Q"].x + sym1["R"].x),
        not (sym1["Q"].y + sym1["R"].y),
        not (sym2["Q"].x + sym2["R"].x),
        not (sym2["Q"].y + sym2["R"].y),
    ]

    lem = build_lemma3(GaugeConfig.symbolic())
    a, b, c, d, k = RationalFunction.variables()
    target = (k * k + 1) * b * d / (a * c)  # spelled independently here

    def ratio_at(key):
        return (power_of_point(lem[key], lem["circle_ac"])
                / power_of_point(lem[key], lem["circle_bd"]))

    ratio_identities = [ratio_at(key) == target for key in ("P", "M", "N")]
    elapsed = time.perf_counter() - start
    ok = all(qr_identities) and all(ratio_identities) and elapsed < 60
    _emit(2, ok, "Q + R = (0,0) for both generalizations and equal power "
                 f"ratios at P, M, N in {elapsed:.1f}s")
    assert all(qr_identities)
    assert all(ratio_identities)
    assert elapsed < 60


def test_criterion_3_numeric_suite_1000_trials():
    start = time.perf_counter()
    worst_skip = Fraction(0)
    failures = []
    for theorem in NUMERIC_ORDER:
        report = run_numeric(theorem, trials=1000, seed=0, bound=20)
        if not report.ok or report.counterexample is not None:
            failures.append((theorem, report.failure))
        worst_skip = max(worst_skip, Fraction(report.skipped, report.attempted))
    elapsed = time.perf_counter() - start
    ok = not failures and worst_skip < Fraction(1, 5) and elapsed < 120
    _emit(3, ok, f"{len(NUMERIC_ORDER)}x1000 exact random trials, "
                 f"{len(failures)} failures, worst skip rate "
                 f"{float(worst_skip):.1%}, {elapsed:.1f}s")
    assert not failures, failures
    assert worst_skip < Fraction(1, 5)
    assert elapsed < 120


def test_criterion_4_symbolic_numeric_bridge():
    sym1 = build_thm1(GaugeConfig.symbolic())
    sym2 = build_thm2(GaugeConfig.symbolic())
    compared = 0
    mismatches = []
    seed = 0
    while compared < 100 and seed < 300:
        cfg = sample_gauge(derive_rng(seed, "bridge"), 20)
        seed += 1
        assignment = cfg.as_assignment()
        try:
            num1 = build_thm1(cfg)
            num2 = build_thm2(cfg)
        except DegenerateConfig:
            continue
        for sym, num in ((sym1, num1), (sym2, num2)):
            for name, obj in sym.items():
                if evaluate_object(obj, assignment) != num[name]:
                    mismatches.append((seed - 1, name))
        compared += 1
    ok = compared == 100 and not mismatches
    _emit(4, ok, f"all intermediates agree across backends on {compared} "
                 "random assignments")
    assert compared == 100
    assert not mismatches, mismatches


def test_criterion_5_harmonic_and_perpendicular_properties():
    failures = []

    def run(label, checker):
        done = 0
        draws = 0
        while done < 500 and draws < 800:
            cfg = sample_gauge(derive_rng(draws, label), 20)
            draws += 1
            try:
                if not checker(cfg):
                    failures.append((label, draws - 1))
            except DegenerateConfig:
                continue
            done += 1
        return done

    def harmonic(cfg):
        # the checker, plus a cross-check of the two cross-ratio functions:
        # the pencil at F through (P, G; A, B) against its trace on line AB
        objs = build_thm1(cfg)
        P, A, B, C, D = objs["P"], objs["A"], objs["B"], objs["C"], objs["D"]
        F = intersect_lines(line_through(B, C), line_through(D, A))
        G = intersect_lines(objs["line_CD"], objs["line_AB"])
        S = intersect_lines(line_through(F, P), objs["line_AB"])
        return (pencil_cross_ratio(F, P, G, A, B) == cross_ratio(S, G, A, B)
                and check_thm1_harmonic(cfg))

    done_harmonic = run("harmonic", harmonic)
    done_perp = run("perpendicular", check_thm2_perpendicularity)
    ok = done_harmonic == done_perp == 500 and not failures
    _emit(5, ok, f"harmonic pencil + axis parallelism in {done_harmonic} "
                 f"configurations, axis perpendicularity in {done_perp}")
    assert done_harmonic == 500 and done_perp == 500
    assert not failures, failures


def test_criterion_6_perturbed_fixtures_are_refuted():
    shortfalls = []
    for path in sorted(FIXTURES.glob("*_perturbed.geo")):
        ast = parse(path.read_text())
        refuted = 0
        for seed in range(20):
            report = evaluate_construction(ast, mode="numeric", seed=seed,
                                           trials=1000, bound=20,
                                           label=path.stem)
            if report.counterexample is not None:
                refuted += 1
        if Fraction(refuted, 20) < Fraction(99, 100):
            shortfalls.append((path.name, refuted))
    ok = not shortfalls
    _emit(6, ok, "7 perturbed fixtures refuted within 1000 trials for all "
                 "20 seeds each")
    assert not shortfalls, shortfalls


# The configuration type of each result; its fields are the file's parameters.
_CONFIGS = {"butterfly_chord": ChordButterflyConfig, "thm0_cyclic": CyclicConfig,
            "thm1": GaugeConfig, "thm2": GaugeConfig, "lemma1": QuadConfig,
            "lemma2": GaugeConfig, "lemma3": GaugeConfig}


def _builtin_verdict(stem: str, env: dict) -> str:
    """Decide the exact parameter draw a .geo trial uses with the result's
    reference checker: its construction and claim written in Python, which
    runs no .geo program."""
    try:
        passed = REF_CHECKS[stem](_CONFIGS[stem](**env))
    except DegenerateConfig:
        return "skip"
    return "pass" if passed else "fail"


def _dsl_verdict(ast, seed: int) -> str:
    report = evaluate_construction(ast, mode="numeric", seed=seed, trials=1,
                                   bound=20)
    if report.counterexample is not None:
        return "fail"
    return "skip" if report.skipped else "pass"


def test_criterion_7_dsl_equivalence_and_roundtrip():
    from butterfly.dsl import to_source
    disagreements = []
    roundtrip_ok = True
    for path in sorted(CORPUS.glob("*.geo")):
        source = path.read_text()
        ast = parse(source)
        if parse(to_source(ast)) != ast:
            roundtrip_ok = False
        for seed in range(100):
            rng = derive_rng(seed, "trial", 0)  # the stream trial 0 consumes
            env = {name: sample_rational(rng, 20) for name in ast.params}
            dsl = _dsl_verdict(ast, seed)
            builtin = _builtin_verdict(path.stem, env)
            if dsl != builtin:
                disagreements.append((path.name, seed, dsl, builtin))
    ok = not disagreements and roundtrip_ok
    _emit(7, ok, "7 .geo programs match the reference checkers on 100 shared "
                 "seeds each; parse/print round-trips are structurally exact")
    assert roundtrip_ok
    assert not disagreements, disagreements[:5]


def test_criterion_8_byte_determinism(tmp_path, capsys):
    code_a = main(["prove-paper", "--seed", "42"])
    out_a = capsys.readouterr().out
    code_b = main(["prove-paper", "--seed", "42"])
    out_b = capsys.readouterr().out

    svgs = []
    for tag in ("first", "second"):
        target = tmp_path / f"{tag}.svg"
        assert main(["render", str(CORPUS / "thm2.geo"),
                     "--set", "a=2,b=1,c=-3,d=-2,k=1",
                     "-o", str(target)]) == 0
        svgs.append(target.read_bytes())
    capsys.readouterr()

    ok = (code_a == code_b == 0 and out_a == out_b and svgs[0] == svgs[1])
    with capsys.disabled():
        _emit(8, ok, "prove-paper stdout and rendered SVG are byte-identical "
                     "across reruns")
    assert code_a == 0 and code_b == 0
    assert out_a == out_b
    assert svgs[0] == svgs[1]
