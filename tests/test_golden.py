"""Golden outputs: CLI stdout, exit codes and SVG bytes pinned across commits.

The files under tests/golden/ were written by an earlier commit of the
program; this test requires every later commit to reproduce them byte for
byte.  Regenerate them (only when an output change is intended, and say so
in CHANGES.md) with:

    PYTHONPATH=src python tests/test_golden.py
"""

import sys
from pathlib import Path

import pytest

import butterfly
from butterfly.cli import main

CORPUS = Path(butterfly.__file__).parent / "corpus"
GOLDEN = Path(__file__).parent / "golden"

RUNS = {
    "prove-paper-numeric": ["prove-paper", "--mode", "numeric", "--seed", "42",
                            "--trials", "200"],
    **{f"verify-{path.stem}": ["verify", str(path), "--seed", "3",
                               "--trials", "200"]
       for path in sorted(CORPUS.glob("*.geo"))
       + sorted((CORPUS / "fixtures").glob("*.geo"))},
    # Bound 16 puts both rejection draws on a bit-width edge (2*16+1 = 33, 16).
    "prove-paper-numeric-bound16": ["prove-paper", "--mode", "numeric",
                                    "--seed", "7", "--trials", "100",
                                    "--bound", "16"],
    **{f"verify-bound16-{path.stem}": ["verify", str(path), "--seed", "5",
                                       "--trials", "100", "--bound", "16"]
       for path in sorted(CORPUS.glob("*.geo"))},
    "prove-paper-symbolic": ["prove-paper", "--mode", "symbolic", "--seed", "42"],
    **{f"verify-symbolic-{path.stem}": ["verify", str(path), "--mode", "symbolic"]
       for stem in ("thm1", "thm2", "lemma3")
       for path in (CORPUS / f"{stem}.geo",
                    CORPUS / "fixtures" / f"{stem}_perturbed.geo")},
    "verify-both-thm1": ["verify", str(CORPUS / "thm1.geo"), "--mode", "both",
                         "--seed", "9", "--trials", "200"],
}

GAUGE = "a=2,b=1,c=-3,d=-2,k=1"
RENDERS = {
    "butterfly_chord": "t_a=1/3,t_b=-3,t_c=3/2,t_e=-1/4",
    "lemma1": "ax=0,ay=0,bx=5,by=1,cx=4,cy=6,dx=-1,dy=3",
    "lemma2": GAUGE,
    "lemma3": GAUGE,
    "thm0_cyclic": "t_a=1/2,t_b=3,t_c=-1/3,t_d=-3/2",
    "thm1": GAUGE,
    "thm2": GAUGE,
}


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def _render(stem, target):
    return main(["render", str(CORPUS / f"{stem}.geo"), "--set", RENDERS[stem],
                 "-o", str(target)])


@pytest.mark.parametrize("name", sorted(RUNS))
def test_stdout_and_exit_code_match_golden(name, capsys):
    code, out = _run(RUNS[name], capsys)
    golden = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert f"exit: {code}\n{out}" == golden


@pytest.mark.parametrize("stem", sorted(RENDERS))
def test_render_matches_golden(stem, tmp_path):
    target = tmp_path / f"{stem}.svg"
    assert _render(stem, target) == 0
    assert target.read_bytes() == (GOLDEN / f"{stem}.svg").read_bytes()


def _write_goldens():
    import contextlib
    import io

    GOLDEN.mkdir(exist_ok=True)
    for name, argv in RUNS.items():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
        (GOLDEN / f"{name}.out").write_text(f"exit: {code}\n{buffer.getvalue()}",
                                            encoding="utf-8")
    for stem in RENDERS:
        with contextlib.redirect_stdout(io.StringIO()):
            if _render(stem, GOLDEN / f"{stem}.svg") != 0:
                sys.exit(f"render of {stem} failed")


if __name__ == "__main__":
    _write_goldens()
