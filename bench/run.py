"""The benchmark of the butterfly verifier: one command, three workloads.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (BENCHMARK.json says why each was chosen):
    symbolic-proofs   symbolic prove-paper and verify (poly, ratfun)
    numeric-trials    seeded Fraction trials, fixtures and render (geom, dsl)
    bridge-eval       symbolic objects evaluated against Fraction builds

With ``--trace 0`` the workload repeats one pass (the same inputs each
time) until ``--seconds`` have gone by, at least MIN_PASSES times, and
reports the end-to-end metrics:

    setup_s       median over SETUP_PROBES fresh interpreters of the package
                  import plus the workload's one-time preparation
    wall_s        time to every verdict of one pass: the sum over the pass's
                  steps of each step's median time across the passes
    peak_rss_mb   peak resident memory of the workload process

Both timings are calibrated seconds (see calibrate.py), which cancel most
of the host's speed drift.  With ``--trace 1`` it runs one untraced and one
traced pass (see spans.py) and reports the per-layer metrics instead.

Every verdict is checked against the known answer, and the last line of
stdout is one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  Exit status: 0 when every verdict is right, 1 when one is
wrong, 2 when the program cannot be found or set up (nothing is printed
then).  Provenance, raw times, the size table and the spans go to
`.bench_out/` under the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
PROBE = Path(__file__).resolve().parent / "probe.py"

MIN_PASSES = 3
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

SPAN_LAYERS = (
    "scalar.sample_rational", "scalar.derive_rng", "poly.mul", "poly.add",
    "poly.eval", "ratfun.new", "ratfun.eq", "ratfun.eval", "ratfun.arith",
    "geom.construct", "geom.predicate", "theorems.sample", "theorems.build",
    "theorems.check", "theorems.prove", "dsl.parse", "dsl.eval_expr",
    "dsl.trial", "render.scene", "render.svg", "cli.main",
)
OP_COUNTS = ("poly.mul.term_pairs", "poly.eval.terms", "dsl.parse.bytes",
             "render.svg.bytes")


def _probe(workload: str, seed: int, sizes: bool) -> list[dict]:
    """Set-up measurements from fresh interpreters, one after another."""
    results = []
    for _ in range(SETUP_PROBES):
        argv = [sys.executable, str(PROBE), workload, str(seed)]
        if sizes:
            argv.append("--sizes")
        done = subprocess.run(argv, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return results


def _commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    """Digest of the package sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "butterfly").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _provenance(args) -> dict:
    import calibrate
    import workloads

    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials": workloads.TRIALS,
        "bound": workloads.BOUND,
        "bridge_draws": workloads.BRIDGE_DRAWS,
        "calibration_nominal_s": calibrate.NOMINAL_S,
    }


class Verdicts:
    """Running tally of checked verdicts; wrong ones are kept by name."""

    def __init__(self) -> None:
        self.attempted = 0
        self.wrong: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.wrong.append(name)

    def add_pass(self, p, reference_digest: str, label: str) -> None:
        for name, ok in p.verdicts:
            self.add(f"{label}: {name}", ok)
        self.add(f"{label}: output bytes equal the first pass's",
                 p.digest.hexdigest() == reference_digest)


def _timed_run(workload, seconds: int, verdicts: Verdicts) -> list:
    """Repeat the pass for `seconds`, at least MIN_PASSES times."""
    passes = []
    begin = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - begin < seconds:
        p = workload.run_pass()
        passes.append(p)
        verdicts.add_pass(p, passes[0].digest.hexdigest(),
                          f"pass {len(passes)}")
    return passes


def _end_to_end(passes, probes) -> dict:
    steps = zip(*(p.calibrated_s for p in passes))
    return {
        "setup_s": (median(p["setup_s"] for p in probes), "s"),
        "wall_s": (sum(median(times) for times in steps), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def _useful_ratio(reports, command: str) -> float:
    attempted = passed = 0
    for source, report in reports:
        if source == command:
            attempted += int(report.get("attempted", 0))
            passed += int(report.get("passed", 0))
    return passed / attempted if attempted else 0.0


def _skip_self_check(tracer, p, verdicts: Verdicts) -> dict[str, int]:
    """Skips seen leaving trial spans must add up to each report's count."""
    import spans

    expected: dict[str, int] = {}
    for source, report in p.reports:
        if report.get("mode") == "numeric":
            label = f"{source}:{report.get('theorem')}"
            expected[label] = (expected.get(label, 0)
                               + int(report.get("skipped", -1)))
    for label, skipped in expected.items():
        seen = sum(tracer.skips_by_result.get(label, {}).values())
        verdicts.add(f"skip histogram of {label} sums to the reports' skips",
                     seen == skipped)
    stray = sorted(set(tracer.skips_by_result) - set(expected))
    verdicts.add(f"no skips outside a report (saw {stray})", not stray)

    histogram = dict.fromkeys((*spans.DEGENERATE_CLASSES, "other"), 0)
    for counter in tracer.skips_by_result.values():
        for cls, n in counter.items():
            histogram[cls] += n
    return histogram


def _traced_run(args, workload, probes, verdicts: Verdicts) -> tuple:
    import spans
    import workloads

    untraced = workload.run_pass()
    reference = untraced.digest.hexdigest()
    verdicts.add_pass(untraced, reference, "untraced pass")
    tracer = spans.Tracer()
    spans.install(tracer)
    tracer.enabled = True
    traced = workload.run_pass()
    tracer.enabled = False
    verdicts.add_pass(traced, reference, "traced pass")

    metrics = {}
    aggregate = tracer.aggregate()
    for layer in SPAN_LAYERS:
        entry = aggregate.get(layer, {"calls": 0, "self_s": 0.0})
        metrics[f"{layer}.calls"] = (entry["calls"], "count")
        metrics[f"{layer}.self_s"] = (entry["self_s"], "s")
    for name in OP_COUNTS:
        metrics[name] = (tracer.counts.get(name, 0), "count")
    for cls, n in _skip_self_check(tracer, traced, verdicts).items():
        metrics[f"geom.degenerate.{cls}"] = (n, "count")
    metrics["theorems.sample.redraws"] = (tracer.redraws, "count")
    metrics["theorems.useful_ratio"] = (
        _useful_ratio(traced.reports, "prove"), "ratio")
    metrics["dsl.useful_ratio"] = (
        _useful_ratio(traced.reports, "verify"), "ratio")
    metrics["skip_ratio"] = (
        traced.skipped_trials / traced.attempted_trials
        if traced.attempted_trials else 0.0, "ratio")
    # span self times are raw seconds, so their shares use the raw pass time
    traced_raw_s = sum(traced.step_s)
    for layer in ("poly.mul", "poly.eval"):
        metrics[f"{layer}.self_share"] = (
            metrics[f"{layer}.self_s"][0] / traced_raw_s, "ratio")

    rows = workloads.size_table()
    table = workloads.size_bytes(rows)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "sizes.json").write_bytes(table)
    digest = hashlib.sha256(table).hexdigest()
    verdicts.add("size table repeats byte for byte in fresh interpreters",
                 all(p["sizes_sha256"] == digest for p in probes))
    for name, value in workloads.size_metrics(rows).items():
        metrics[name] = (value, "count")

    metrics["closedforms.import_s"] = (
        median(p["closedforms_s"] for p in probes), "s")
    untraced_s = sum(untraced.calibrated_s)
    traced_s = sum(traced.calibrated_s)
    metrics["trace.untraced_wall_s"] = (untraced_s, "s")
    metrics["trace.traced_wall_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")

    tracer.write(OUT, f"{args.workload}-seed{args.seed}")
    notes = workloads.roadmap_size_notes(rows)
    details = {"skip_histogram_by_report": {
        label: dict(sorted(counter.items()))
        for label, counter in sorted(tracer.skips_by_result.items())},
        "spans": len(tracer.start)}
    return metrics, notes, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "butterfly" / "__init__.py").is_file():
        print(f"error: no butterfly package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        probes = _probe(args.workload, args.seed, sizes=bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    workload.prepare()

    verdicts = Verdicts()
    if args.trace:
        metrics, notes, details = _traced_run(args, workload, probes,
                                              verdicts)
    else:
        passes = _timed_run(workload, args.seconds, verdicts)
        metrics = _end_to_end(passes, probes)
        last = passes[-1]
        notes = [f"skip_ratio {last.skipped_trials}/{last.attempted_trials} "
                 "ratio" if last.attempted_trials else
                 "skip_ratio n/a (no trials)"]
        details = {"raw_step_s": [p.step_s for p in passes],
                   "calibrated_step_s": [p.calibrated_s for p in passes],
                   "setup_probes": probes}
    failed = len(verdicts.wrong)
    notes.append(f"failed_ratio {failed}/{verdicts.attempted} ratio")
    notes.extend(f"WRONG: {name}" for name in verdicts.wrong[:20])

    values = {name: {"value": value, "unit": unit}
              for name, (value, unit) in metrics.items()}
    provenance = _provenance(args)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps({
         "provenance": provenance, "metrics": values,
         "attempted": verdicts.attempted, "wrong": verdicts.wrong,
         **details}, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({"provenance": provenance}))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    for line in notes:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": verdicts.attempted,
                      "failed": failed, "metrics": values}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
