"""Command-line entry points: verify .geo files, rerun the bundled results, render SVG.

Exit codes: 0 all checks pass, 1 a counterexample / failed identity /
degenerate instance, 2 parse, type, or usage errors.  Reports go to
stdout and are byte-deterministic for fixed arguments; wall-clock timing
goes to stderr only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .dsl import DslError, evaluate_construction, parse
from .errors import (DegenerateConfig, EmptyScene, SamplerExhausted,
                     ZeroDenominator)
from .render import render_svg, scene_from_construction
from .scalar import parse_rational
from .theorems import CLOSED_FORM_CHECK_IDS, run_suite


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="butterfly",
        description="Exact verification of the butterfly theorem family.")
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="check the assertions in .geo construction files")
    verify.add_argument("files", nargs="+", metavar="FILE")
    verify.set_defaults(handler=_cmd_verify)
    prove = sub.add_parser(
        "prove-paper",
        help="rerun every bundled theorem and lemma check")
    prove.set_defaults(handler=_cmd_prove_paper)
    for command, mode in ((verify, "numeric"), (prove, "both")):
        command.add_argument("--mode", choices=("numeric", "symbolic", "both"),
                             default=mode)
        command.add_argument("--trials", type=_positive_int, default=1000)
        command.add_argument("--seed", type=int, default=0)
        command.add_argument("--bound", type=_positive_int, default=20)

    render = sub.add_parser(
        "render", help="evaluate a .geo file at rational values and write SVG")
    render.add_argument("file", metavar="FILE")
    render.add_argument("--set", dest="bindings", default="",
                        metavar="NAME=VALUE[,NAME=VALUE...]",
                        help="parameter values, e.g. a=2,b=1,c=-3,d=-2,k=1")
    render.add_argument("-o", "--output", required=True, metavar="OUT.svg")
    render.add_argument("--width", type=int, default=640)
    render.set_defaults(handler=_cmd_render)
    return parser


def _load(path_text: str):
    path = Path(path_text)
    try:
        source = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, None
    except UnicodeDecodeError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return None, None, None
    try:
        return parse(source), source, path
    except DslError as exc:
        print(exc.diagnostic(source, path.name), file=sys.stderr)
        return None, None, None


def _emit(report) -> None:
    print(report.to_text())
    print()
    if report.elapsed is not None:
        print(f"[{report.theorem} {report.mode}] {report.elapsed:.2f}s",
              file=sys.stderr)


def _cmd_verify(args) -> int:
    exit_code = 0
    modes = ("symbolic", "numeric") if args.mode == "both" else (args.mode,)
    for path_text in args.files:
        construction, source, path = _load(path_text)
        if construction is None:
            return 2
        for mode in modes:
            try:
                report = evaluate_construction(
                    construction, mode=mode, seed=args.seed,
                    trials=args.trials, bound=args.bound, label=path.stem)
            except DslError as exc:
                print(exc.diagnostic(source, path.name), file=sys.stderr)
                return 2
            _emit(report)
            if not report.ok:
                exit_code = 1
    return exit_code


def _cmd_prove_paper(args) -> int:
    try:
        reports = run_suite(mode=args.mode, trials=args.trials, seed=args.seed,
                            bound=args.bound)
    except SamplerExhausted as exc:
        print(f"error: {exc}; --bound {args.bound} admits too few values",
              file=sys.stderr)
        return 2
    for report in reports:
        _emit(report)
    if args.mode in ("symbolic", "both"):
        wanted = set(CLOSED_FORM_CHECK_IDS)
        passed = sum(1 for report in reports
                     for check_id, ok in report.checks
                     if check_id in wanted and ok)
        print(f"closed-form checks passed: {passed}/{len(CLOSED_FORM_CHECK_IDS)}")
    ok = all(report.ok for report in reports)
    print(f"suite: {'pass' if ok else 'fail'} ({len(reports)} reports)")
    return 0 if ok else 1


def _cmd_render(args) -> int:
    construction, source, path = _load(args.file)
    if construction is None:
        return 2
    assignment = {}
    if args.bindings:
        for item in args.bindings.split(","):
            name, eq, text = item.partition("=")
            name = name.strip()
            if not eq:
                print(f"error: malformed binding {item!r} (want NAME=VALUE)",
                      file=sys.stderr)
                return 2
            if name not in construction.params:
                print(f"error: binding {item!r} names no parameter of "
                      f"{path.name}", file=sys.stderr)
                return 2
            if name in assignment:
                print(f"error: binding {item!r} repeats parameter {name!r}",
                      file=sys.stderr)
                return 2
            try:
                assignment[name] = parse_rational(text.strip())
            except (ValueError, ZeroDenominator) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
    try:
        scene = scene_from_construction(construction, assignment)
    except (EmptyScene, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateConfig as exc:
        print(f"degenerate instance: {exc}", file=sys.stderr)
        return 1
    try:
        svg = render_svg(scene, width_px=args.width)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        Path(args.output).write_text(svg, encoding="utf-8")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return args.handler(args)


def run() -> None:
    sys.exit(main(sys.argv[1:]))
