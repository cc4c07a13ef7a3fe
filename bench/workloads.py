"""The benchmark's three workloads and their known-answer checks.

Each workload drives the program only through public entry points
(`cli.main`, the `theorems` builders and samplers, `evaluate_object`) and
runs in one process on one thread, closed loop: one caller, each call
started after the previous one returned.

The expected verdicts come from the paper, not from the code under test:
every result and every bundled .geo file holds, every perturbed fixture is
refuted with a counterexample and exit code 1, all 28 stored closed forms
are reproduced, and the symbolic and Fraction backends agree on every
intermediate object.  A verdict is a `(name, ok)` pair; a pass whose
output bytes differ from the first pass's is one more wrong verdict.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import calibrate
from butterfly import cli, theorems
from butterfly.dsl import parse
from butterfly.errors import DegenerateConfig, EmptyScene
from butterfly.geom import Circle, Line, Point
from butterfly.ratfun import RationalFunction
from butterfly.render import render_svg, scene_from_construction
from butterfly.scalar import derive_rng, format_rational, sample_rational

TRIALS = 1000
BOUND = 20
PROVE_CALLS = 5

# The seven results of the paper, in the order `prove-paper` reports them.
NUMERIC_RESULTS = ("butterfly_chord", "thm0_cyclic", "thm1", "thm2",
                   "lemma1", "lemma2", "lemma3")
# The three results with symbolic proofs, with their number of checks.
SYMBOLIC_CHECKS = {"thm1": 12, "thm2": 11, "lemma3": 9}
CLOSED_FORMS = 28
# lemma2.geo is left out of symbolic mode: its identity does not finish.
SYMBOLIC_GEO = ("thm1", "thm2", "lemma3")
BRIDGE_RESULTS = ("thm1", "thm2", "lemma3")
BRIDGE_DRAWS = 20
RENDER_ATTEMPTS = 100


class Pass:
    """What one pass produced: its output bytes and the verdicts on them."""

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.verdicts: list[tuple[str, bool]] = []
        # (command, report) pairs, command being "prove" or "verify"
        self.reports: list[tuple[str, dict[str, str]]] = []
        self.attempted_trials = 0
        self.skipped_trials = 0
        # raw and calibrated seconds of each step (one CLI call or one
        # bridge draw), in order
        self.step_s: list[float] = []
        self.calibrated_s: list[float] = []

    def feed(self, data: str | bytes) -> None:
        self.digest.update(data.encode("utf-8") if isinstance(data, str)
                           else data)
        self.digest.update(b"\0")

    def check(self, name: str, ok: bool) -> None:
        self.verdicts.append((name, bool(ok)))

    @contextlib.contextmanager
    def step(self):
        """Time the enclosed step, raw and calibrated."""
        with calibrate.Speedometer() as meter:
            yield
        self.step_s.append(meter.seconds)
        self.calibrated_s.append(meter.calibrated)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`cli.main(argv)` with stdout captured and stderr (timings) dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def parse_reports(stdout: str) -> list[dict[str, str]]:
    """The `key: value` report blocks of a `verify` or `prove-paper` stdout."""
    reports = []
    for block in stdout.split("\n\n"):
        if block.startswith("theorem: "):
            pairs = (line.partition(": ") for line in block.splitlines())
            reports.append({key: value for key, _, value in pairs})
    return reports


def _check_cli(p: Pass, name: str, argv: list[str],
               want_code: int) -> tuple[str, list[dict[str, str]]]:
    with p.step():
        code, stdout = run_cli(argv)
    p.feed(stdout)
    p.check(f"{name}: exit {want_code}", code == want_code)
    reports = parse_reports(stdout)
    command = "prove" if argv[0] == "prove-paper" else "verify"
    p.reports.extend((command, report) for report in reports)
    return stdout, reports


def _check_passing(p: Pass, name: str, reports, labels, mode: str,
                   trials: int | None = None) -> None:
    p.check(f"{name}: reports {', '.join(labels)}",
            tuple(r.get("theorem") for r in reports) == tuple(labels))
    for report in reports:
        label = f"{name}: {report.get('theorem')}"
        ok = report.get("result") == "pass" and report.get("mode") == mode
        if trials is not None:
            attempted = int(report.get("attempted", -1))
            skipped = int(report.get("skipped", -1))
            ok = (ok and attempted == trials
                  and int(report.get("passed", -1)) + skipped == trials)
            p.attempted_trials += attempted
            p.skipped_trials += skipped
        p.check(f"{label} passes", ok)


class SymbolicProofs:
    """`prove-paper --mode symbolic` plus `verify --mode symbolic` on 3 files.

    Polynomial multiply and the rational-function normal form do almost all
    of the work; the numeric layers are idle.  The inputs are the five field
    generators, so the seed has no effect.
    """

    name = "symbolic-proofs"

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def prepare(self) -> None:
        corpus = self.root / "src" / "butterfly" / "corpus"
        self.files = [str(corpus / f"{stem}.geo") for stem in SYMBOLIC_GEO]

    def run_pass(self) -> Pass:
        p = Pass()
        stdout, reports = _check_cli(
            p, "prove-paper symbolic", ["prove-paper", "--mode", "symbolic"], 0)
        _check_passing(p, "prove-paper symbolic", reports,
                       tuple(SYMBOLIC_CHECKS), "symbolic")
        for report in reports:
            theorem = report.get("theorem")
            checks = [v for k, v in report.items() if k.startswith("check.")]
            p.check(f"prove-paper symbolic: {theorem} has "
                    f"{SYMBOLIC_CHECKS.get(theorem)} checks, all ok",
                    len(checks) == SYMBOLIC_CHECKS.get(theorem)
                    and all(v == "ok" for v in checks))
        lines = stdout.splitlines()
        p.check("prove-paper symbolic: closed forms",
                f"closed-form checks passed: {CLOSED_FORMS}/{CLOSED_FORMS}"
                in lines)
        p.check("prove-paper symbolic: suite line",
                f"suite: pass ({len(SYMBOLIC_CHECKS)} reports)" in lines)
        _, reports = _check_cli(p, "verify symbolic",
                                ["verify", "--mode", "symbolic", *self.files], 0)
        _check_passing(p, "verify symbolic", reports, SYMBOLIC_GEO, "symbolic")
        return p


class NumericTrials:
    """Seeded Fraction trials for all seven results, .geo files and fixtures.

    `prove-paper --mode numeric` (1000 trials per result, in five seeded
    calls of 200), `verify` with 1000 trials on each of the 7 corpus files
    and on the 7 perturbed fixtures (each refuted, exit 1), and `render` of
    each corpus file at a seeded non-degenerate draw.  Fraction arithmetic
    in `geom`, the samplers and the `dsl` interpreter do the work; `poly`
    and `ratfun` are idle.
    """

    name = "numeric-trials"

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def prepare(self) -> None:
        corpus = self.root / "src" / "butterfly" / "corpus"
        self.corpus = [corpus / f"{stem}.geo" for stem in NUMERIC_RESULTS]
        self.fixtures = [corpus / "fixtures" / f"{stem}_perturbed.geo"
                         for stem in NUMERIC_RESULTS]
        out = self.root / ".bench_out" / "render"
        out.mkdir(parents=True, exist_ok=True)
        self.renders = []
        for path in self.corpus:
            bindings = self._render_draw(path)
            self.renders.append((path, bindings, out / f"{path.stem}.svg"))

    def _render_draw(self, path: Path) -> str:
        construction = parse(path.read_text(encoding="utf-8"))
        for attempt in range(RENDER_ATTEMPTS):
            rng = derive_rng(self.seed, "render", path.stem, attempt)
            assignment = {name: sample_rational(rng, BOUND)
                          for name in construction.params}
            try:
                render_svg(scene_from_construction(construction, assignment))
            except (DegenerateConfig, EmptyScene):
                continue
            return ",".join(f"{name}={format_rational(value)}"
                            for name, value in assignment.items())
        raise RuntimeError(f"no non-degenerate render draw for {path.name}")

    def run_pass(self) -> Pass:
        p = Pass()
        # prove-paper runs all seven results in one call of several seconds;
        # five calls with a fifth of the trials each keep every timed step
        # near one second, so a burst of host slowness spoils one short
        # step's sample, which the per-step median then drops
        for call in range(PROVE_CALLS):
            seed = self.seed * PROVE_CALLS + call
            name = f"prove-paper numeric --seed {seed}"
            stdout, reports = _check_cli(
                p, name, ["prove-paper", "--mode", "numeric", "--seed",
                          str(seed), "--trials", str(TRIALS // PROVE_CALLS),
                          "--bound", str(BOUND)], 0)
            _check_passing(p, name, reports, NUMERIC_RESULTS, "numeric",
                           TRIALS // PROVE_CALLS)
            p.check(f"{name}: suite line",
                    f"suite: pass ({len(NUMERIC_RESULTS)} reports)"
                    in stdout.splitlines())
        common = ["--seed", str(self.seed), "--trials", str(TRIALS),
                  "--bound", str(BOUND)]
        for path in self.corpus:
            name = f"verify {path.stem}"
            _, reports = _check_cli(p, name, ["verify", str(path), *common], 0)
            _check_passing(p, name, reports, (path.stem,), "numeric", TRIALS)
        for fixture in self.fixtures:
            name = f"verify {fixture.stem}"
            _, reports = _check_cli(p, name, ["verify", str(fixture), *common], 1)
            p.check(f"{name}: refuted with a counterexample",
                    len(reports) == 1 and reports[0].get("result") == "fail"
                    and "counterexample.trial" in reports[0])
        for path, bindings, target in self.renders:
            name = f"render {path.stem}"
            _check_cli(p, name, ["render", str(path), "--set", bindings,
                                 "-o", str(target)], 0)
            svg = target.read_bytes()
            p.feed(svg)
            p.check(f"{name}: writes an SVG document",
                    svg.startswith(b"<svg") or svg.startswith(b"<?xml"))
        return p


class BridgeEval:
    """Symbolic intermediates evaluated at seeded draws against Fraction builds.

    Set-up builds the symbolic thm1, thm2 and lemma3 objects once; each pass
    evaluates every one of them with `evaluate_object` at the same seeded
    gauge draws and compares it exactly with the Fraction construction.
    """

    name = "bridge-eval"

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed

    def prepare(self) -> None:
        symbolic = theorems.GaugeConfig.symbolic()
        self.symbolic = {result: _builder(result)(symbolic)
                         for result in BRIDGE_RESULTS}

    def run_pass(self) -> Pass:
        p = Pass()
        index = 0
        for _ in range(BRIDGE_DRAWS):
            with p.step():
                index, cfg, numeric = self._draw(index)
                self._compare(p, index, cfg, numeric)
        p.feed(f"draws used: {index}")
        return p

    def _draw(self, index: int):
        """The next configuration the Fraction builders accept, from `index`."""
        while True:
            cfg = theorems.sample_gauge(
                theorems.derive_rng(self.seed, "bridge", index), BOUND)
            index += 1
            try:
                return index, cfg, {result: _builder(result)(cfg)
                                    for result in BRIDGE_RESULTS}
            except DegenerateConfig:
                continue

    def _compare(self, p: Pass, index: int, cfg, numeric) -> None:
        assignment = cfg.as_assignment()
        for result in BRIDGE_RESULTS:
            for step, obj in self.symbolic[result].items():
                try:
                    value = theorems.evaluate_object(obj, assignment)
                except DegenerateConfig:
                    value = None
                p.feed(repr(value))
                p.check(f"bridge {result}.{step} at draw {index - 1}",
                        value == numeric[result][step])


def _builder(result: str):
    # looked up at call time so the traced run sees the wrapped builders
    return getattr(theorems, f"build_{result}")


WORKLOADS = {w.name: w for w in (SymbolicProofs, NumericTrials, BridgeEval)}


# -- symbolic size counters --------------------------------------------------------

# Term counts the ROADMAP recorded for the un-reduced normal form.
ROADMAP_SIZES = {("thm1", "Q", "x"): (768, 414),
                 ("thm1", "axis", "v"): (768, 1),
                 ("thm2", "Q", "x"): (216, 102)}


def _coordinates(obj) -> tuple[tuple[str, object], ...]:
    if isinstance(obj, Point):
        return (("x", obj.x), ("y", obj.y))
    if isinstance(obj, Line):
        return (("u", obj.u), ("v", obj.v), ("w", obj.w))
    if isinstance(obj, Circle):
        return (("d", obj.d), ("e", obj.e), ("f", obj.f))
    raise TypeError(f"not a geometric object: {type(obj).__name__}")


def size_table() -> list[dict]:
    """Numerator/denominator term counts and degrees of every symbolic step."""
    rows = []
    symbolic = theorems.GaugeConfig.symbolic()
    for result in BRIDGE_RESULTS:
        for step, obj in _builder(result)(symbolic).items():
            for coord, value in _coordinates(obj):
                if not isinstance(value, RationalFunction):
                    value = RationalFunction(value)
                rows.append({"result": result, "step": step, "coord": coord,
                             "num_terms": len(value.num.terms),
                             "den_terms": len(value.den.terms),
                             "num_degree": value.num.degree(),
                             "den_degree": value.den.degree()})
    return rows


def size_bytes(rows: list[dict]) -> bytes:
    return (json.dumps(rows, indent=1, sort_keys=True) + "\n").encode("utf-8")


def size_metrics(rows: list[dict]) -> dict[str, int]:
    """Per result: summed and largest term count, and largest total degree."""
    metrics = {}
    for result in BRIDGE_RESULTS:
        mine = [r for r in rows if r["result"] == result]
        metrics[f"ratfun.size.{result}.terms_sum"] = sum(
            r["num_terms"] + r["den_terms"] for r in mine)
        metrics[f"ratfun.size.{result}.terms_max"] = max(
            max(r["num_terms"], r["den_terms"]) for r in mine)
        metrics[f"ratfun.size.{result}.degree_max"] = max(
            max(r["num_degree"], r["den_degree"]) for r in mine)
    return metrics


def roadmap_size_notes(rows: list[dict]) -> list[str]:
    """Whether the table reproduces the term counts the ROADMAP recorded.

    Informational only: a reduced normal form is expected to change them.
    """
    found = {(r["result"], r["step"], r["coord"]): (r["num_terms"],
                                                    r["den_terms"])
             for r in rows}
    notes = []
    for (result, step, coord), want in ROADMAP_SIZES.items():
        got = found.get((result, step, coord))
        status = "reproduces" if got == want else "differs from"
        shown = f"{got[0]}/{got[1]}" if got else "missing"
        notes.append(f"size {result} {step}.{coord} = {shown} {status} "
                     f"the ROADMAP baseline {want[0]}/{want[1]}")
    return notes
