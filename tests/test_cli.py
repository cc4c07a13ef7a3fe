"""Exit codes, report output, and determinism of the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import butterfly
from butterfly.cli import main
from tests.test_dsl import CORPUS, FIXTURES

THM1 = str(CORPUS / "thm1.geo")
ANCHOR_SET = "a=2,b=1,c=-3,d=-2,k=1"


# -- verify ---------------------------------------------------------------------

def test_verify_corpus_numeric_passes(capsys):
    code = main(["verify", THM1, "--trials", "30", "--seed", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem: thm1" in out
    assert "mode: numeric" in out
    assert "result: pass" in out


def test_verify_multiple_files(capsys):
    code = main(["verify", THM1, str(CORPUS / "lemma1.geo"),
                 "--trials", "20", "--seed", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "theorem: thm1" in out and "theorem: lemma1" in out


def test_verify_mode_both_emits_symbolic_then_numeric(capsys):
    code = main(["verify", THM1, "--mode", "both", "--trials", "15"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.index("mode: symbolic") < out.index("mode: numeric")
    assert "check.assert midpoint(P, Q, R): ok" in out


def test_verify_fixture_fails_with_counterexample(capsys):
    code = main(["verify", str(FIXTURES / "thm1_perturbed.geo"),
                 "--trials", "500", "--seed", "0", "--bound", "12"])
    out = capsys.readouterr().out
    assert code == 1
    assert "result: fail" in out
    assert "counterexample.trial:" in out
    assert "counterexample.params.a:" in out


def test_verify_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "broken.geo"
    bad.write_text("param a;\npoint P = (a, );\n")
    code = main(["verify", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "broken.geo:2:15: expected an expression" in captured.err
    assert "^" in captured.err


def test_verify_missing_file_exits_2(tmp_path, capsys):
    code = main(["verify", str(tmp_path / "absent.geo")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_verify_symbolic_with_foreign_params_exits_2(capsys):
    code = main(["verify", str(CORPUS / "thm0_cyclic.geo"),
                 "--mode", "symbolic"])
    captured = capsys.readouterr()
    assert code == 2
    assert "symbolic mode allows only the parameters a, b, c, d, k" \
        in captured.err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def _exit_code(argv):
    """main's return value, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("argv, message", [
    (["verify", THM1, "--trials", "0"], "--trials: must be a positive integer, got 0"),
    (["verify", THM1, "--trials", "-3"], "--trials: must be a positive integer, got -3"),
    (["verify", THM1, "--bound", "0"], "--bound: must be a positive integer, got 0"),
    (["prove-paper", "--trials", "0"], "--trials: must be a positive integer, got 0"),
    (["prove-paper", "--bound", "1"],
     "error: chord sampler exhausted its redraw budget; --bound 1 admits too few values"),
    (["verify", "{superscript.geo}"],
     "superscript.geo:1:12: unexpected character '\u00b2'"),
    (["render", THM1, "--set", ANCHOR_SET + ",zz=3", "-o", "{tmp}/x.svg"],
     "error: binding 'zz=3' names no parameter of thm1.geo"),
    (["render", THM1, "--set", "a=2,a=3,b=1,c=-3,d=-2,k=1", "-o", "{tmp}/x.svg"],
     "error: binding 'a=3' repeats parameter 'a'"),
    (["render", THM1, "--set", ANCHOR_SET, "-o", "{tmp}/no/such/dir/x.svg"],
     "error: [Errno 2] No such file or directory"),
    (["render", THM1, "--set", "a=1/0,b=1,c=-3,d=-2,k=1", "-o", "{tmp}/x.svg"],
     "error: rational with zero denominator: 1/0"),
    (["verify", "{tmp}/latin1.geo"],
     "latin1.geo: 'utf-8' codec can't decode byte 0xff in position 8"),
    (["render", "{tmp}/latin1.geo", "-o", "{tmp}/x.svg"],
     "latin1.geo: 'utf-8' codec can't decode byte 0xff in position 8"),
    # values int() takes but format_rational never prints
    (["render", THM1, "--set", "a=1_0,b=1,c=-3,d=-2,k=1", "-o", "{tmp}/x.svg"],
     "error: not a rational literal: '1_0'"),
    (["render", THM1, "--set", "a=\u0663,b=1,c=-3,d=-2,k=1", "-o", "{tmp}/x.svg"],
     "error: not a rational literal: '\u0663'"),
    (["render", THM1, "--set", "a=+3,b=1,c=-3,d=-2,k=1", "-o", "{tmp}/x.svg"],
     "error: not a rational literal: '+3'"),
    (["render", THM1, "--set", "a=3/-4,b=1,c=-3,d=-2,k=1", "-o", "{tmp}/x.svg"],
     "error: not a rational literal: '3/-4'"),
])
def test_usage_errors_exit_2_without_traceback(argv, message, capsys, tmp_path):
    geo = tmp_path / "superscript.geo"
    geo.write_text("scalar x = \u00b2;\n", encoding="utf-8")
    (tmp_path / "latin1.geo").write_bytes(b"param a;\xff\n")
    argv = [str(geo) if arg == "{superscript.geo}"
            else arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert _exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_python_dash_m_runs_the_cli():
    src = str(Path(butterfly.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "butterfly", "verify", THM1, "--trials", "5"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    assert "theorem: thm1" in done.stdout
    assert "result: pass" in done.stdout


def run_fresh(code: str) -> str:
    """The stdout of `code` run in a fresh interpreter that imports this package."""
    src = str(Path(butterfly.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return done.stdout.strip()


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # pytest has imported both already, so the import runs in a fresh
    # interpreter; every CLI call pays for what it loads
    code = ("import sys; before = set(sys.modules); import butterfly, butterfly.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert run_fresh(code) == "[]"


def test_closed_forms_are_built_only_when_read(tmp_path):
    # the import keeps the module loaded (the benchmark's probe re-imports
    # it), but only a symbolic proof reads, and so builds, the forms
    svg = str(tmp_path / "thm1.svg")
    code = f"""
import contextlib, io, sys
import butterfly
print("butterfly.closedforms" in sys.modules)
from butterfly import cli, closedforms
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))
print(run("verify", {THM1!r}, "--trials", "20"),
      run("render", {THM1!r}, "--set", {ANCHOR_SET!r}, "-o", {svg!r}),
      run("prove-paper", "--mode", "numeric", "--trials", "20"),
      closedforms._forms.cache_info().misses)
print(run("prove-paper", "--mode", "symbolic"), closedforms._forms.cache_info().misses)
from butterfly.closedforms import AXIS, a
print(AXIS is closedforms.AXIS, a == closedforms.a, closedforms._forms.cache_info().misses)
"""
    assert run_fresh(code).split("\n") == ["True", "0 0 0 0", "0 1", "True True 1"]


# -- prove-paper ------------------------------------------------------------------

def test_prove_paper_symbolic_summary_and_determinism(capsys):
    code = main(["prove-paper", "--mode", "symbolic", "--seed", "42"])
    first = capsys.readouterr().out
    assert code == 0
    assert "closed-form checks passed: 28/28" in first
    assert "suite: pass (3 reports)" in first
    assert first.count("mode: symbolic") == 3
    code = main(["prove-paper", "--mode", "symbolic", "--seed", "42"])
    second = capsys.readouterr().out
    assert code == 0
    assert first == second


def test_prove_paper_numeric_only_has_no_closed_form_line(capsys):
    code = main(["prove-paper", "--mode", "numeric", "--trials", "15",
                 "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "closed-form checks" not in out
    assert "suite: pass (7 reports)" in out


def test_prove_paper_both_runs_ten_reports(capsys):
    code = main(["prove-paper", "--trials", "10", "--seed", "2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "suite: pass (10 reports)" in out
    assert "closed-form checks passed: 28/28" in out


# -- render -----------------------------------------------------------------------

def test_render_writes_svg(tmp_path, capsys):
    out_path = tmp_path / "thm1.svg"
    code = main(["render", THM1, "--set", ANCHOR_SET, "-o", str(out_path)])
    captured = capsys.readouterr()
    assert code == 0
    assert f"wrote {out_path}" in captured.out
    svg = out_path.read_text()
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    assert ">O_a</text>" in svg


def test_render_is_deterministic_on_disk(tmp_path):
    a = tmp_path / "a.svg"
    b = tmp_path / "b.svg"
    assert main(["render", THM1, "--set", ANCHOR_SET, "-o", str(a)]) == 0
    assert main(["render", THM1, "--set", ANCHOR_SET, "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_render_missing_binding_exits_2(tmp_path, capsys):
    code = main(["render", THM1, "--set", "a=2,b=1,c=-3,d=-2",
                 "-o", str(tmp_path / "x.svg")])
    assert code == 2
    assert "unbound parameters: k" in capsys.readouterr().err


def test_render_malformed_binding_exits_2(tmp_path, capsys):
    code = main(["render", THM1, "--set", "a=2,b",
                 "-o", str(tmp_path / "x.svg")])
    assert code == 2
    assert "malformed binding 'b'" in capsys.readouterr().err

    code = main(["render", THM1, "--set", "a=two",
                 "-o", str(tmp_path / "x.svg")])
    assert code == 2


def test_render_degenerate_instance_exits_1(tmp_path, capsys):
    code = main(["render", THM1, "--set", "a=2,b=1,c=2,d=-2,k=1",
                 "-o", str(tmp_path / "x.svg")])
    captured = capsys.readouterr()
    assert code == 1
    assert "degenerate instance:" in captured.err
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("scalar", ["a * 2", "1 / (a - a)"])
def test_render_of_a_file_that_draws_nothing_exits_2(tmp_path, capsys, scalar):
    # no statement is a point, line or circle, whatever the values (even a
    # division by zero at a=1): a usage error, where a degenerate instance
    # (above) exits 1
    empty = tmp_path / "empty.geo"
    empty.write_text(f"param a;\nscalar s = {scalar};\n")
    code = main(["render", str(empty), "--set", "a=1",
                 "-o", str(tmp_path / "x.svg")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: nothing to draw\n"
    assert not (tmp_path / "x.svg").exists()


def test_render_width_validation_exits_2(tmp_path, capsys):
    code = main(["render", THM1, "--set", ANCHOR_SET, "--width", "10",
                 "-o", str(tmp_path / "x.svg")])
    assert code == 2
    assert "width_px" in capsys.readouterr().err
