import collections
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_core_wff, random_proof_corpus, random_surface_wff
from foarith import cli, goldbach
from foarith.cli import main, run
from foarith.models import AxiomCheck, EvalResult, ThreeValued
from foarith.proofio import builtin_theories
from foarith.syntax import print_wff

DATA = Path(__file__).parent / "data"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# parse


def test_parse_echoes_core(capsys):
    code, out, _ = invoke(capsys, "parse", "(ex x1 (x1 = 0))")
    assert code == 0
    assert out == "~(all x1 ~(x1 = 0))\n"


def test_parse_options_do_not_leak_between_runs(capsys):
    code, out, _ = invoke(capsys, "--json", "parse", "0 = 0")
    assert code == 0 and json.loads(out)["wff"] == "(0 = 0)"
    code, out, _ = invoke(capsys, "parse", "0 = 0")
    assert code == 0 and out == "(0 = 0)\n"


def test_parse_idempotent(capsys):
    code, out, _ = invoke(capsys, "parse", "((0=0) & (ex x2 (x2 = S(0))))")
    code2, out2, _ = invoke(capsys, "parse", out.strip())
    assert code == code2 == 0
    assert out == out2


def test_parse_json(capsys):
    code, out, _ = invoke(capsys, "--json", "parse", "(0 = 0)")
    doc = json.loads(out)
    assert code == 0
    assert doc == {"schema": 1, "command": "parse", "wff": "(0 = 0)"}


def test_parse_error_exits_2(capsys):
    code, out, err = invoke(capsys, "parse", "(0 = ")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text, letter, message", [
    ("(x1 = {})", "y", "expected a term, found {} (at position 6)"),
    ("(x1 = 0) {}", "y", "unexpected trailing input {} (at position 9)"),
    ("(x1 = {})", "7", "bare numeral {} is not a term; only '0' abbreviates a1 (at position 6)"),
    ("{}(0) = 0", "S", "expected a formula, found {} (at position 0)"),
], ids=["term", "trailing", "numeral", "formula"])
def test_parse_error_quotes_a_long_token_by_its_prefix(capsys, text, letter, message):
    # a token past 64 characters is quoted by its first 64 and its length
    code, out, err = invoke(capsys, "parse", text.format(letter * 100_000))
    assert code == 2 and out == ""
    assert err == f"error: {message.format(repr(letter * 64) + '... (100000 characters)')}\n"
    assert len(err.encode()) < 1024


_LONG = "y" * 100_000
_DIGITS = "7" * 5000            # past the digit cap
_READ = "7" * 4300              # the most digits of a number that is read
_FREE = "(f{1,12000}(" + ", ".join(f"x{i}" for i in range(1, 12001)) + ") = 0)"
_MODEL = ["--alpha", "18", "--u", "1", "--bound", "3", "--wff", "(0 = 0)"]
_N = "theory: N\n"

# Each path on which a message repeats input, beside the parse-error tokens
# above: the command line, where "{}" stands for the input and FILE for a
# proof file of the given text (with "{}" in it too), the exit code, and
# the input.
_INPUT_PATHS = {
    "parse-file": (["parse", "--file", "{}"], None, 2, _LONG),
    "check-file": (["check", "{}"], None, 2, _LONG),
    "discover-file": (["discover", "{}"], None, 2, _LONG),
    "wff-file": (["model", "eval", *_MODEL[:6], "--wff-file", "{}"], None, 2, _LONG),
    "unrecognized-line": (["check", "FILE"], _N + "{}\n", 2, _LONG),
    "unknown-theory": (["check", "FILE"], "theory: {}\n", 2, _LONG),
    "unrecognized-justification": (["check", "FILE"], _N + "1. (0 = 0) ; {}\n", 2, _LONG),
    "duplicate-axiom": (["check", "FILE"], "axiom {}: (0 = 0)\naxiom {}: (0 = 0)\n" + _N, 2, _LONG),
    "line-numbered": (["check", "FILE"], _N + "1. (0 = 0) ; ?\n{}. (0 = 0) ; ?\n", 2, _READ),
    "line-number-cap": (["check", "FILE"], _N + "{}. (0 = 0) ; ?\n", 2, _DIGITS),
    "open-axiom": (["check", "FILE"], "axiom {}: (x1 = 0)\n" + _N + "1. (0 = 0) ; ?\n", 2, _LONG),
    "open-axiom-free": (["check", "FILE"], "axiom E: {}\n" + _N + "1. (0 = 0) ; ?\n", 2, _FREE),
    "no-proper-axiom": (["check", "FILE"], _N + "1. (0 = 0) ; AX {}\n", 1, _LONG),
    "differs-from-axiom": (["check", "FILE"], "axiom {}: (all x1 (x1 = x1))\n" + _N
                           + "1. (0 = 0) ; AX {}\n", 1, _LONG),
    "mp-cites": (["check", "FILE"], _N + "1. (0 = 0) ; MP {} 1\n", 1, _READ),
    "gen-cites": (["check", "FILE"], _N + "1. (all x1 (0 = 0)) ; GEN {} x1\n", 1, _READ),
    "bad-assignment": (["model", "eval", *_MODEL, "--env", "x1={}"], None, 2, _LONG),
    "repeated-assignment": (["model", "eval", *_MODEL, "--env", "x1=1,x1={}"], None, 2,
                            "7" * 100_000),
    "repeated-index": (["model", "eval", *_MODEL, "--env", "x{}=1,x{}=2"], None, 2, _READ),
    "value-cap": (["model", "eval", *_MODEL, "--env", "x1={}"], None, 2, _DIGITS),
    "index-cap": (["model", "eval", *_MODEL, "--env", "x{}=1"], None, 2, _DIGITS),
    "unbound-variables": (["model", "eval", *_MODEL[:6], "--wff", "{}"], None, 2, _FREE),
    "constant": (["model", "eval", *_MODEL[:6], "--wff", "(a{} = 0)"], None, 2, _READ),
    "scan-limit": (["goldbach", "scan", "--limit", "{}"], None, 2, _DIGITS),
    "partitions-alpha": (["goldbach", "partitions", "{}"], None, 2, _DIGITS),
    "axioms-alpha": (["model", "axioms", "--alpha", "{}", "--u", "1", "--bound", "3"], None, 2,
                     _DIGITS),
    "axioms-bound": (["model", "axioms", "--alpha", "18", "--u", "1", "--bound", "{}"], None, 2,
                     _DIGITS),
    "eval-alpha": (["model", "eval", "--alpha", "{}", *_MODEL[2:]], None, 2, _DIGITS),
    "eval-bound": (["model", "eval", *_MODEL[:4], "--bound", "{}", *_MODEL[6:]], None, 2,
                   _DIGITS),
    "limits-alpha": (["model", "limits", "--alpha", "{}", "--nmax", "3", "--steps", "2"], None, 2,
                     _DIGITS),
    "limits-nmax": (["model", "limits", "--alpha", "18", "--nmax", "{}", "--steps", "2"], None, 2,
                    _DIGITS),
    "limits-steps": (["model", "limits", "--alpha", "18", "--nmax", "3", "--steps", "{}"], None, 2,
                     _DIGITS),
    "scan-over-limit": (["goldbach", "scan", "--limit", "{}"], None, 2, _READ),
    "partitions-odd": (["goldbach", "partitions", "{}"], None, 2, _READ),
    "partitions-over-limit": (["goldbach", "partitions", "{}"], None, 2, "8" * 4300),
    "steps-over-limit": (["model", "limits", "--alpha", "18", "--nmax", "3", "--steps", "{}"],
                         None, 2, _READ),
    "not-admissible": (["model", "axioms", "--alpha", "{}", "--u", "1", "--bound", "3"], None, 2,
                       _READ),
    "slope-literal": (["model", "axioms", "--alpha", "18", "--u", "{}", "--bound", "3"], None, 2,
                      _LONG),
    "slope-digits": (["model", "axioms", "--alpha", "18", "--u", "{}", "--bound", "3"], None, 2,
                     _DIGITS),
    "slope-zero-denominator": (["model", "axioms", "--alpha", "18", "--u", "{}1/0", "--bound",
                                "3"], None, 2, " " * 100_000),
    "slope-below-1": (["model", "axioms", "--alpha", "18", "--u", "0.{}1", "--bound", "3"], None,
                      2, "0" * 4000),
}


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
@pytest.mark.parametrize("path", _INPUT_PATHS)
def test_every_message_shows_a_long_input_in_under_1_kb(capsys, tmp_path, path, json_flag):
    # 100,000 characters, or 5,000 digits where a number is read (4,300 where
    # it is read whole); each message shows them by the first 64 and the count
    argv, text, expected_code, fill = _INPUT_PATHS[path]
    if text is not None:
        (tmp_path / "long.proof").write_text(text.replace("{}", fill), encoding="utf-8")
    argv = [str(tmp_path / "long.proof") if a == "FILE" else a.replace("{}", fill) for a in argv]
    code, out, err = invoke(capsys, *json_flag, *argv)
    assert code == expected_code
    if code == 2:
        assert out == "" and sum("error:" in line for line in err.splitlines()) == 1
    elif json_flag:
        reasons = [line["reason"] for line in json.loads(out)["lines"]]
        assert reasons and all(len(r.encode()) < 1024 for r in reasons), reasons
    assert all(len(line.encode()) < 1024 for line in (err + out).splitlines()), (err + out)[:2000]


def test_parse_error_quotes_a_token_of_64_characters_whole(capsys):
    token = "y" * 64
    code, out, err = invoke(capsys, "parse", f"(x1 = {token})")
    assert code == 2
    assert err == f"error: expected a term, found '{token}' (at position 6)\n"


def test_parse_arity_mismatch_quotes_a_long_letter_by_its_prefix(capsys):
    code, out, err = invoke(capsys, "parse", "A{1,2}(x1)")
    assert (code, out) == (2, "")
    assert err == "error: arity mismatch: A{1,2} applied to 1 terms (at position 0)\n"
    code, out, err = invoke(capsys, "parse", "A{1," + "7" * 4300 + "}(x1)")
    assert (code, out) == (2, "")
    assert err == ("error: arity mismatch: A{1," + "7" * 60 + "... (4305 characters) "
                   "applied to 1 terms (at position 0)\n")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("text, position", [("(x1 = x{})", 6), ("(x1 = a{})", 6),
                                            ("A{{{},1}}(x1)", 2), ("A{{1,{}}}(x1)", 4)])
@pytest.mark.parametrize("digits", [4301, 100_000])
def test_parse_refuses_an_index_past_the_digit_cap(capsys, text, position, digits):
    # refused at the index token, before Python's own int conversion limit
    code, out, err = invoke(capsys, "parse", text.format("1" * digits))
    assert code == 2 and out == ""
    assert err == (f"error: index has {digits} digits, at most 4300 allowed "
                   f"(at position {position})\n")
    assert len(err.encode()) < 1024


def test_parse_digit_cap_does_not_follow_the_interpreters_limit(capsys):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)                   # no limit of Python's own
    try:
        code, out, err = invoke(capsys, "parse", "(x1 = x" + "1" * 4301 + ")")
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (2, "")
    assert err == "error: index has 4301 digits, at most 4300 allowed (at position 6)\n"


@pytest.mark.parametrize("text", ["(x1 = x{})", "(x1 = a{})", "A{{{},1}}(x1)"])
def test_parse_prints_back_an_index_of_4300_digits(capsys, text):
    code, out, err = invoke(capsys, "parse", text.format("7" * 4300))
    assert (code, err) == (0, "")
    assert out == text.format("7" * 4300) + "\n"


def test_parse_deep_numeral_equation(capsys):
    depth = 3000
    numeral = "S(" * depth + "0" + ")" * depth
    code, out, err = invoke(capsys, "parse", f"{numeral} = {numeral}")
    assert code == 0 and err == ""
    assert out == f"({numeral} = {numeral})\n"


@pytest.mark.parametrize("depth", [1, 600, None], ids=["1", "600", "past-the-recursion-limit"])
def test_model_eval_of_a_deep_numeral_equation(capsys, depth):
    depth = depth or sys.getrecursionlimit() + 1000
    numeral = "S(" * depth + "0" + ")" * depth
    model = ("model", "eval", "--alpha", "18", "--u", "1", "--bound", "3")
    assert invoke(capsys, *model, "--wff", f"{numeral} = {numeral}") == (0, "True\n", "")
    code, out, _ = invoke(capsys, "--json", *model, "--wff", f"{numeral} = {numeral}")
    assert code == 0
    assert (json.loads(out)["wff"], json.loads(out)["verdict"]) == (f"({numeral} = {numeral})", "true")
    off_by_one = f"{numeral} = S({numeral})".replace("0", "x1")
    assert invoke(capsys, *model, "--env", "x1=2", "--wff", off_by_one) == (0, "False\n", "")


def test_model_eval_of_equal_long_sides_under_the_shape_of_iff():
    # Q is a nested <-> whose pairs are too long for the parse table, so
    # its four copies are separate objects; the implication has the shape
    # of a lowered <-> with equal but unshared sides, and is evaluated as
    # an implication, each copy in time linear in its nesting.  Comparing
    # the copies would walk 2^k paths, so the run is timed in a child
    # process that the test can stop
    q = "(x1 = x2)"
    for k in range(250):
        q = f"({q} <-> {'(x2 = 0)' if k % 2 else '(x1 = S(0))'})"
    assert len(q) > 4096
    code = (
        "import sys, time\n"
        "from foarith.cli import run\n"
        "start = time.perf_counter()\n"
        "code = run(sys.argv[1:])\n"
        "print(code, time.perf_counter() - start, file=sys.stderr)\n"
    )
    argv = ["model", "eval", "--alpha", "18", "--u", "1", "--bound", "3",
            "--env", "x1=1,x2=2", "--wff", f"(({q} -> {q}) -> ~({q} -> {q}))"]
    root = Path(__file__).parents[1]
    try:
        done = subprocess.run([sys.executable, "-c", code, *argv], cwd=root,
                              capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(root / "src")), timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("model eval did not finish in 60 s")
    exit_code, seconds = done.stderr.split()
    assert (exit_code, done.stdout) == ("0", "False\n")
    assert float(seconds) < 1


def _run_and_main(capsys, monkeypatch, *argv):
    """The exit code, stdout and stderr of ``run`` and of ``main``, which
    must agree."""
    code, out, err = invoke(capsys, *argv)
    monkeypatch.setattr(sys, "argv", ["foarith", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (code, out, err)
    return code, out, err


def test_parse_deep_negations_round_trip(capsys, monkeypatch):
    # no part of the syntax layer recurses, so nesting needs no frames
    text = "~" * 3000 + "(0 = 0)"
    assert _run_and_main(capsys, monkeypatch, "parse", text) == (0, text + "\n", "")


def test_parse_error_exits_2_from_run_and_main(capsys, monkeypatch):
    code, out, err = _run_and_main(capsys, monkeypatch, "parse", "(0 = ")
    assert code == 2 and out == ""
    assert err == "error: expected a term (at position 5)\n"


def test_parse_requires_exactly_one_source(capsys, tmp_path):
    path = tmp_path / "w.txt"
    path.write_text("(0 = 0)")
    code, _, err = invoke(capsys, "parse", "(0 = 0)", "--file", str(path))
    assert code == 2 and "not both" in err
    code, out, _ = invoke(capsys, "parse", "--file", str(path))
    assert code == 0 and out == "(0 = 0)\n"
    code, _, err = invoke(capsys, "parse")
    assert code == 2


@pytest.mark.parametrize("command", [("parse", "--file"), ("model", "eval", "--alpha", "18",
                                                         "--u", "2", "--bound", "3", "--wff-file")],
                         ids=["parse", "model-eval"])
def test_formula_file_may_start_with_a_bom(capsys, tmp_path, command):
    path = tmp_path / "w.txt"
    path.write_bytes("\ufeff(0 = 0)\n".encode("utf-8"))
    code, out, err = invoke(capsys, *command, str(path))
    assert code == 0 and err == ""
    path.write_bytes("(0 = \ufeff0)\n".encode("utf-8"))      # not at the start: still an error
    code, out, err = invoke(capsys, *command, str(path))
    assert (code, out, err) == (2, "", "error: unexpected character '\\ufeff' (at position 5)\n")


# ---------------------------------------------------------------------------
# check / discover


def test_check_accepted(capsys):
    code, out, _ = invoke(capsys, "check", str(DATA / "imp_refl.proof"))
    assert code == 0
    assert out == "accepted (5 lines)\n"


@pytest.mark.parametrize("a", ["~" * 600 + "(x1 = 0)", "(" + "S(" * 600 + "x1" + ")" * 600 + " = 0)"],
                         ids=["not-600", "succ-600"])
def test_check_deep_induction_line(capsys, tmp_path, a):
    # N7 repeats A three times; the repeats are compared without recursion
    base, step = a.replace("x1", "0"), a.replace("x1", "S(x1)")
    path = tmp_path / "n7.proof"
    path.write_text(f"theory: N\n1. ({base} -> ((all x1 ({a} -> {step})) -> (all x1 {a}))) ; N7\n")
    assert invoke(capsys, "check", str(path)) == (0, "accepted (1 lines)\n", "")


def test_check_rejected(capsys, tmp_path):
    text = (DATA / "imp_refl.proof").read_text().replace("MP 2 1", "MP 1 2")
    bad = tmp_path / "bad.proof"
    bad.write_text(text)
    code, out, _ = invoke(capsys, "check", str(bad))
    assert code == 1
    assert "line 3: major premise shape mismatch" in out
    assert "rejected" in out


def test_check_json_schema(capsys):
    code, out, _ = invoke(capsys, "--json", "check", str(DATA / "imp_refl.proof"))
    doc = json.loads(out)
    assert code == 0
    assert doc["schema"] == 1 and doc["command"] == "check"
    assert doc["accepted"] is True
    assert [line["line"] for line in doc["lines"]] == [1, 2, 3, 4, 5]
    assert all(line["ok"] for line in doc["lines"])


def test_proof_file_may_start_with_a_bom(capsys, tmp_path):
    text = (DATA / "imp_refl.proof").read_text(encoding="utf-8")
    path = tmp_path / "bom.proof"
    path.write_bytes(("\ufeff" + text).encode("utf-8"))
    assert invoke(capsys, "check", str(path)) == (0, "accepted (5 lines)\n", "")
    code, out, _ = invoke(capsys, "discover", str(path))
    assert code == 0 and out.startswith("theory: K\n1. ")
    # a BOM anywhere else is still a character the file may not hold
    path.write_bytes(text.replace("theory: K", "theory: K\n\ufefftheory: K").encode("utf-8"))
    code, out, err = invoke(capsys, "check", str(path))
    assert (code, out, err) == (2, "", "error: line 3: unrecognized line '\\ufefftheory: K'\n")


def test_check_missing_file_exits_2(capsys):
    code, _, err = invoke(capsys, "check", "no-such-file.proof")
    assert code == 2 and "error:" in err


def test_discover_round_trips_through_check(capsys, tmp_path):
    code, out, _ = invoke(capsys, "discover", str(DATA / "imp_refl_bare.proof"))
    assert code == 0
    assert "; MP 2 1" in out
    annotated = tmp_path / "annotated.proof"
    annotated.write_text(out)
    code2, out2, _ = invoke(capsys, "check", str(annotated))
    assert code2 == 0 and out2 == "accepted (5 lines)\n"


def test_discover_failure(capsys, tmp_path):
    bad = tmp_path / "stuck.proof"
    bad.write_text("theory: N\n1. (0 = 0) ; ?\n")
    code, out, _ = invoke(capsys, "discover", str(bad))
    assert code == 1
    assert "line 1: not an axiom; no earlier lines" in out


@pytest.mark.parametrize("command", ["check", "discover"])
@pytest.mark.parametrize("text, message", [
    ("# extends N\naxiom N1: (all x1 ~(S(x1) = 0))\ntheory: N\n1. (0 = 0) ; AX N1\n",
     "line 2: axiom name 'N1' already defined in N"),
    ("axiom F: (all x1 (x1 = x1))\naxiom E: (x1 = x1)\ntheory: N\n1. (0 = 0) ; AX F\n",
     "line 2: axiom 'E' is open (free: x1)"),
    ("theory: N\n1. (all x1 (x1 = x1)) ; ?\n2. (all x2 (all x1 (x1 = x1))) ; GEN 1 x0\n",
     "line 3: unrecognized justification 'GEN 1 x0'"),
    ("theory: K\naxiom A: (all x1 (x1 = x1))\n1. (all x1 (x1 = x1)) ; AX A\n",
     "line 2: axiom declaration after the theory line"),
], ids=["builtin-name", "open-axiom", "gen-x0", "axiom-after-theory"])
def test_proof_file_error_names_its_line(capsys, tmp_path, command, text, message):
    path = tmp_path / "bad.proof"
    path.write_text(text)
    code, out, err = invoke(capsys, command, str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_discover_json(capsys):
    code, out, _ = invoke(capsys, "--json", "discover", str(DATA / "imp_refl_bare.proof"))
    doc = json.loads(out)
    assert code == 0 and doc["accepted"] is True
    assert doc["lines"][2]["justification"] == "MP 2 1"
    assert doc["failures"] == []


# ---------------------------------------------------------------------------
# sentence


def test_sentence_goldbach_round_trips(capsys):
    code, out, _ = invoke(capsys, "sentence", "goldbach")
    assert code == 0
    code2, out2, _ = invoke(capsys, "parse", out.strip())
    assert code2 == 0 and out2 == out


def test_sentence_classical_differs(capsys):
    _, restricted, _ = invoke(capsys, "sentence", "goldbach")
    _, classical, _ = invoke(capsys, "sentence", "goldbach", "--classical")
    assert restricted != classical


def test_sentence_json(capsys):
    code, out, _ = invoke(capsys, "--json", "sentence", "goldbach", "--classical")
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["classical"] is True and doc["name"] == "goldbach"


# ---------------------------------------------------------------------------
# goldbach


def test_goldbach_partitions_text(capsys):
    code, out, _ = invoke(capsys, "goldbach", "partitions", "18")
    assert code == 0
    assert out == "(5,13) (7,11)\n"


def test_goldbach_partitions_json(capsys):
    code, out, _ = invoke(capsys, "--json", "goldbach", "partitions", "28")
    doc = json.loads(out)
    assert doc["partitions"] == [[5, 23], [11, 17]]


def test_goldbach_partitions_bad_alpha(capsys):
    code, _, err = invoke(capsys, "goldbach", "partitions", "9")
    assert code == 2 and "error:" in err


def test_goldbach_partitions_refuses_above_the_limit_without_allocating(capsys, monkeypatch):
    def no_flags(*args):
        raise AssertionError("partitions allocated its flags")

    monkeypatch.setattr(goldbach, "bytearray", no_flags, raising=False)
    code, out, err = invoke(capsys, "goldbach", "partitions", "100000000000")
    assert code == 2 and out == ""
    assert err == f"error: alpha must be at most {goldbach.PARTITIONS_LIMIT}, got 100000000000\n"


# SHA-256 of the stdout of `goldbach partitions A` in each format, for the
# evens A from 4 to 300 and a few above 10^4 in that order, recorded while
# partitions still ran trial division.
PARTITION_ALPHAS = [*range(4, 301, 2), 10002, 41386, 61944, 100000, 100002]
GOLDEN_PARTITION_DIGESTS = {
    "text": "6f5ec6427270b6ded13f344146f04d0fffa9631e11fa8804eaa4e9bb5f2f1042",
    "json": "ce7894b4eb8a745ec05dc1263351ac21075fd7fb7927b7ba2ba416b88d7717c2",
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_PARTITION_DIGESTS))
def test_goldbach_partitions_golden_output(capsys, fmt):
    argv = ["--json"] if fmt == "json" else []
    digest = hashlib.sha256()
    for alpha in PARTITION_ALPHAS:
        code, out, err = invoke(capsys, *argv, "goldbach", "partitions", str(alpha))
        assert code == 0 and err == "", alpha
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_PARTITION_DIGESTS[fmt]


def test_goldbach_scan_text(capsys):
    code, out, _ = invoke(capsys, "goldbach", "scan", "--limit", "60")
    assert code == 0
    assert out == "limit=60 members=10 verified=yes\n"


def test_goldbach_scan_json(capsys):
    code, out, _ = invoke(capsys, "--json", "goldbach", "scan", "--limit", "60")
    doc = json.loads(out)
    assert doc["schema"] == 1 and doc["command"] == "goldbach-scan"
    assert doc["members"][0] == 18 and doc["verified"] is True
    assert doc["partition_counts"]["18"] == 2
    assert doc["first_failure"] is None


def test_goldbach_scan_fft_residual_exits_2(capsys, monkeypatch):
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *args: irfft(*args) + 0.4)
    code, out, err = invoke(capsys, "--json", "goldbach", "scan", "--limit", "2000")
    assert code == 2 and out == ""
    assert err.startswith("error: FFT rounding residual")


def test_goldbach_scan_failure_exits_1(capsys, scan_fails_at_18_and_48):
    members = len(goldbach.admissible_evens(100))
    code, out, err = invoke(capsys, "goldbach", "scan", "--limit", "100")
    assert code == 1 and err == ""
    assert out == f"limit=100 members={members} verified=NO first_failure=18\n"
    code, out, _ = invoke(capsys, "--json", "goldbach", "scan", "--limit", "100")
    assert code == 1
    assert '"first_failure": 18' in out
    doc = json.loads(out)
    assert doc["verified"] is False
    assert doc["partition_counts"]["18"] == doc["partition_counts"]["48"] == 0


def test_goldbach_scan_least_prime_failure_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(goldbach, "_unresolved",
                        lambda composite, admissible: np.flatnonzero(admissible)[2:3])
    code, out, err = invoke(capsys, "goldbach", "scan", "--limit", "100")
    assert code == 1 and err == ""
    assert out == "limit=100 members=20 verified=NO first_failure=28\n"


@pytest.mark.parametrize("argv", [["--json", "goldbach", "scan"], ["goldbach", "scan", "--csv"]])
def test_goldbach_scan_counts_disagreeing_with_least_prime_exit_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(goldbach, "_unresolved",
                        lambda composite, admissible: np.flatnonzero(admissible)[2:3])
    code, out, err = invoke(capsys, *argv, "--limit", "100")
    assert code == 2 and out == ""
    assert err == ("error: FFT partition counts and the least-prime search "
                   "disagree at alpha=28\n")


def test_goldbach_text_scan_runs_no_fft(capsys, monkeypatch):
    def no_fft(flags):
        raise AssertionError("a text scan computed partition counts")

    monkeypatch.setattr(goldbach, "_pair_counts", no_fft)
    code, out, err = invoke(capsys, "goldbach", "scan", "--limit", "300000")
    members = len(goldbach.admissible_evens(300000))
    assert code == 0 and err == ""
    assert out == f"limit=300000 members={members} verified=yes\n"


# SHA-256 of the stdout of `goldbach scan --limit N` in each format, for
# N in -3..79, 997, 5000 and 35000 in that order, recorded while every
# scan still ran the FFT and the JSON went through json.dumps(indent=2).
SCAN_LIMITS = [*range(-3, 80), 997, 5000, 35000]
GOLDEN_SCAN_DIGESTS = {
    "text": "2203a4233ebd02d22304287732aaead8042471fa216855017a3c1053af318ca0",
    "json": "4262c0606a79069ac26c742509f6ead29dafa7cac49c4611e4c18da326fbfacb",
    "csv": "da87c6640a25b0ab75e5b4f8413689c4f74e03c1fee92f60b320636b7efe2bee",
}
SCAN_FORMATS = {
    "text": ["goldbach", "scan"],
    "json": ["--json", "goldbach", "scan"],
    "csv": ["goldbach", "scan", "--csv"],
}


@pytest.mark.parametrize("fmt", sorted(GOLDEN_SCAN_DIGESTS))
def test_goldbach_scan_golden_output(capsys, fmt):
    digest = hashlib.sha256()
    for limit in SCAN_LIMITS:
        code, out, err = invoke(capsys, *SCAN_FORMATS[fmt], "--limit", str(limit))
        assert code == 0 and err == "", limit
        digest.update(out.encode())
    assert digest.hexdigest() == GOLDEN_SCAN_DIGESTS[fmt]


def test_goldbach_scan_rejects_chunks(capsys):
    code, out, err = invoke(capsys, "goldbach", "scan", "--limit", "100", "--chunks", "4")
    assert code == 2 and out == ""
    assert "unrecognized arguments: --chunks 4" in err


def test_goldbach_scan_refuses_above_the_limit_without_numpy(capsys, monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)     # any import of numpy now fails
    code, out, err = invoke(capsys, "goldbach", "scan", "--limit", "100000000000")
    assert code == 2 and out == ""
    assert err == f"error: limit must be at most {goldbach.SCAN_LIMIT}, got 100000000000\n"


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 93.1 GiB"), "Unable to allocate 93.1 GiB"),
])
def test_goldbach_scan_out_of_memory_exits_2(capsys, monkeypatch, exc, message):
    def no_memory(limit):
        raise exc

    monkeypatch.setattr(goldbach, "_sieve", no_memory)
    code, out, err = invoke(capsys, "goldbach", "scan", "--limit", "100000000000")
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


def test_goldbach_scan_csv(capsys):
    code, out, _ = invoke(capsys, "goldbach", "scan", "--limit", "60", "--csv")
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,count"
    assert lines[1] == "18,2"


# ---------------------------------------------------------------------------
# model


def test_model_eval_witness(capsys):
    code, out, _ = invoke(capsys, "model", "eval", "--alpha", "18", "--u", "1",
                          "--bound", "50", "--wff",
                          "(ex x1 ((x1 + x1) = S(S(S(S(0))))))")
    assert code == 0
    assert out == "True, witness x1=2\n"


def test_model_eval_env_and_json(capsys):
    code, out, _ = invoke(capsys, "--json", "model", "eval", "--alpha", "18",
                          "--u", "3/2", "--bound", "10",
                          "--wff", "((x1 + x2) = S(S(S(S(0)))))",
                          "--env", "x1=1,x2=3")
    doc = json.loads(out)
    assert code == 0
    assert doc["verdict"] == "true" and doc["u"] == "3/2"


def test_model_eval_unknown(capsys):
    code, out, _ = invoke(capsys, "model", "eval", "--alpha", "18", "--u", "2",
                          "--bound", "20", "--wff", "(all x1 ~(S(x1) = 0))")
    assert code == 0
    assert out == "Unknown (bound 20 exhausted)\n"


def test_model_eval_cutoff(capsys):
    code, out, _ = invoke(capsys, "model", "eval", "--alpha", "18", "--u", "2",
                          "--bound", "20", "--cutoff",
                          "--wff", "(all x1 ~(S(x1) = 0))")
    assert code == 0
    assert out == "True\n"


def test_model_eval_bad_env(capsys):
    code, _, err = invoke(capsys, "model", "eval", "--alpha", "18", "--u", "1",
                          "--bound", "5", "--wff", "(x1 = 0)", "--env", "y1=2")
    assert code == 2 and "bad assignment" in err


def test_model_eval_rejects_index_zero(capsys):
    code, _, err = invoke(capsys, "model", "eval", "--alpha", "18", "--u", "1",
                          "--bound", "5", "--wff", "(x1 = 0)", "--env", "x0=3,x1=2")
    assert code == 2 and "bad assignment 'x0=3'" in err


@pytest.mark.parametrize("env, part", [("x1=1,x1=2", "x1=2"), ("x1=1, x01=1", " x01=1")])
def test_model_eval_rejects_repeated_variable(capsys, env, part):
    code, out, err = invoke(capsys, "model", "eval", "--alpha", "18", "--u", "1",
                            "--bound", "5", "--wff", "(x1 = 0)", "--env", env)
    assert code == 2 and out == ""
    assert err == f"error: repeated assignment {part!r}; x1 is already assigned\n"


@pytest.mark.parametrize("env", ["x1=\u00b2", "x\u00b2=1"])
def test_model_eval_rejects_non_decimal_digits(capsys, env):
    # superscript two is a digit to str.isdigit but not to int()
    code, _, err = invoke(capsys, "model", "eval", "--alpha", "18", "--u", "1",
                          "--bound", "5", "--wff", "(x1 = 0)", "--env", env)
    assert code == 2 and f"bad assignment {env!r}" in err


def test_model_eval_false_with_and_without_counterexample(capsys):
    for wff, line in (("(0 = S(0))", "False\n"),
                      ("(all x1 (x1 = 0))", "False, counterexample x1=1\n")):
        code, out, err = invoke(capsys, "model", "eval", "--alpha", "18", "--u", "1",
                                "--bound", "5", "--wff", wff)
        assert (code, out, err) == (0, line, ""), wff


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_model_eval_names_the_variable_of_an_over_long_value(capsys, json_flag):
    # the digits are counted before int() reads them
    argv = (*json_flag, "model", "eval", "--alpha", "18", "--u", "1", "--bound", "5",
            "--wff", "(x1 = 0)", "--env")
    code, out, err = invoke(capsys, *argv, "x2=1,x1=" + "7" * 5000)
    assert (code, out, err) == (2, "", "error: value of x1 has 5000 digits, "
                                       "at most 4300 allowed\n")
    code, out, err = invoke(capsys, *argv, "x1=" + "7" * 4300)
    assert code == 0 and err == ""
    # so are the digits of an index
    code, out, err = invoke(capsys, *argv, "x" + "7" * 5000 + "=1")
    assert (code, out, err) == (2, "", "error: variable index has 5000 digits, "
                                       "at most 4300 allowed\n")


def test_model_axioms_cutoff_report(capsys):
    code, out, err = invoke(capsys, "model", "axioms", "--alpha", "18", "--u", "3/2",
                            "--bound", "5", "--cutoff")
    assert (code, err) == (0, "")
    assert out == "".join(f"N{k}: true\n" for k in range(1, 7))


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_model_axioms_false_report(capsys, monkeypatch, json_flag):
    # coded_model(alpha, u) overrides no operation, so its operations are
    # the transported ones and N1..N6 never come out False from the
    # command line; the report of a False verdict is checked on a stub
    def one_false(model, bound, domain_cutoff):
        return [AxiomCheck("N1", EvalResult(ThreeValued.UNKNOWN)),
                AxiomCheck("N2", EvalResult(ThreeValued.FALSE, {2: 3, 1: 0}))]

    monkeypatch.setattr(cli, "check_axioms", one_false)
    code, out, err = invoke(capsys, *json_flag, "model", "axioms", "--alpha", "18",
                            "--u", "3/2", "--bound", "5")
    assert (code, err) == (1, "")
    if json_flag:
        assert json.loads(out)["report"][1] == {"axiom": "N2", "verdict": "false",
                                                "witness": {"x1": 0, "x2": 3}}
    else:
        assert out == ("N1: unknown (no counterexample <= 5)\n"
                       "N2: FALSE (counterexample x1=0, x2=3)\n")


def test_model_axioms_unknown_report(capsys):
    code, out, _ = invoke(capsys, "model", "axioms", "--alpha", "18", "--u", "2",
                          "--bound", "30")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "N1: unknown (no counterexample <= 30)"


def test_model_axioms_json(capsys):
    code, out, _ = invoke(capsys, "--json", "model", "axioms", "--alpha", "24",
                          "--u", "3/2", "--bound", "25")
    doc = json.loads(out)
    assert code == 0
    assert [entry["axiom"] for entry in doc["report"]] == \
        ["N1", "N2", "N3", "N4", "N5", "N6"]
    assert all(entry["verdict"] == "unknown" for entry in doc["report"])


def test_model_axioms_rejects_bad_alpha(capsys):
    code, _, err = invoke(capsys, "model", "axioms", "--alpha", "16", "--u", "2",
                          "--bound", "10")
    assert code == 2 and "admissible" in err


@pytest.mark.parametrize("options", [(), ("--cutoff",)], ids=["honest", "cutoff"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_model_axioms_rejects_negative_bound(capsys, json_flag, options):
    code, out, err = invoke(capsys, *json_flag, "model", "axioms", "--alpha", "18",
                            "--u", "3/2", "--bound", "-1", *options)
    assert (code, out, err) == (2, "", "error: bound must be >= 0\n")


@pytest.mark.parametrize("command", [
    ("model", "axioms", "--alpha", "18", "--bound", "5"),
    ("model", "eval", "--alpha", "18", "--bound", "5", "--wff", "(0 = 0)"),
], ids=["axioms", "eval"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_model_rejects_zero_denominator_u(capsys, command, json_flag):
    code, out, err = invoke(capsys, *json_flag, *command, "--u", "1/0")
    assert (code, out, err) == (2, "", "error: slope parameter '1/0' has a zero denominator\n")


@pytest.mark.parametrize("u", ["1e999999999", "1e-999999999"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_model_refuses_a_slope_of_too_many_digits(capsys, u, json_flag):
    # the exponent is read before its power of ten is formed
    start = time.perf_counter()
    code, out, err = invoke(capsys, *json_flag, "model", "eval", "--alpha", "18", "--u", u,
                            "--bound", "3", "--wff", "(0 = 0)")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (2, "", f"error: slope parameter '{u}' needs more than 4300 digits\n")


def test_model_json_u_is_the_models_slope(capsys):
    for command in (("model", "axioms", "--alpha", "18", "--bound", "5"),
                    ("model", "eval", "--alpha", "18", "--bound", "5", "--wff", "(0 = 0)")):
        code, out, _ = invoke(capsys, "--json", *command, "--u", "1.50")
        assert code in (0, 1) and json.loads(out)["u"] == "3/2"


def test_model_limits_csv(capsys):
    code, out, _ = invoke(capsys, "model", "limits", "--alpha", "18",
                          "--nmax", "3", "--steps", "2")
    lines = out.strip().splitlines()
    assert code == 0
    assert lines[0] == "alpha,u,n,psi,deviation"
    # steps=2 gives u = 3/2, 5/4, then the u = 1 row
    assert len(lines) == 1 + 3 * 4
    assert lines[-1] == "18,1,3,3,0"


def test_model_limits_json(capsys):
    code, out, _ = invoke(capsys, "--json", "model", "limits", "--alpha", "18",
                          "--nmax", "2", "--steps", "1")
    doc = json.loads(out)
    assert doc["command"] == "model-limits"
    assert doc["rows"][0] == {"u": "3/2", "n": 0, "psi": "0", "deviation": "0"}


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_model_limits_rejects_zero_steps(capsys, json_flag):
    code, out, err = invoke(capsys, *json_flag, "model", "limits", "--alpha", "18",
                            "--nmax", "2", "--steps", "0")
    assert (code, out, err) == (2, "", "error: steps must be >= 1\n")


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_model_limits_refuses_too_many_steps_before_building_slopes(capsys, monkeypatch,
                                                                    json_flag):
    argv = (*json_flag, "model", "limits", "--alpha", "18", "--nmax", "0", "--steps")
    with monkeypatch.context() as patch:
        patch.setattr(cli, "Fraction", None)     # building a slope now fails
        for steps in (cli.STEPS_LIMIT + 1, 15000):
            code, out, err = invoke(capsys, *argv, str(steps))
            assert (code, out, err) == (
                2, "", f"error: steps must be at most {cli.STEPS_LIMIT}, got {steps}\n")
    code, out, err = invoke(capsys, *argv, str(cli.STEPS_LIMIT))
    assert (code, err) == (0, "")
    rows = json.loads(out)["rows"] if json_flag else out.splitlines()[1:]
    assert len(rows) == cli.STEPS_LIMIT + 1


# ---------------------------------------------------------------------------
# usage errors


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


def test_missing_required_flag_exits_2(capsys):
    assert run(["goldbach", "scan"]) == 2


def test_only_the_scan_loads_numpy():
    code = (
        "import sys, foarith, foarith.cli as cli\n"
        "assert cli.run(['check', 'tests/data/imp_refl.proof']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by check'\n"
        "assert cli.run(['goldbach', 'partitions', '61944']) == 0\n"
        "assert 'numpy' not in sys.modules, 'numpy loaded by partitions'\n"
        "assert cli.run(['goldbach', 'scan', '--limit', '1000']) == 0\n"
        "assert 'numpy' in sys.modules, 'numpy not loaded by scan'\n"
    )
    root = Path(__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          timeout=120)
    assert done.returncode == 0, done.stderr


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # modules that site loaded before the import do not count
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import foarith.cli\n"
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))\n"
    )
    root = Path(__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


# ---------------------------------------------------------------------------
# seeded argv fuzzer

_FUZZ_U = ["1", "2", "3/2", "1.5", "1.25e1", "0", "1/2", "1/0", "abc", "", "1e4000",
           "1e5000", "-2"]
_FUZZ_JUST = ["?", "K1", "K2", "K3", "K4", "K5", "K6", "N7", "AX N1", "AX N6", "AX nope",
              "MP 1 2", "MP 2 1", "MP 9 9", "GEN 1 x1", "GEN 1 x0", "bogus"]


def _mutated(rng, text):
    """text as it is, or with one character deleted, doubled or replaced."""
    if not text or rng.random() < 0.7:
        return text
    k = rng.randrange(len(text))
    return rng.choice([text[:k] + text[k + 1:], text[:k] + text[k] + text[k:],
                       text[:k] + rng.choice("()~-> =S0x1,;?&|#:") + text[k + 1:]])


def _fuzz_formula(rng):
    return _mutated(rng, print_wff(random_surface_wff(rng, rng.randrange(4), (1, 2, 3))))


def _fuzz_proof(rng, path):
    n = builtin_theories()["N"]
    lines = random_proof_corpus(rng, n, rng.randint(1, 8))
    text = "".join(f"{k}. {print_wff(w)} ; {rng.choice(_FUZZ_JUST)}\n"
                   for k, w in enumerate(lines, 1))
    if rng.random() < 0.2:
        text = f"axiom extra: (all x1 {print_wff(random_core_wff(rng, 1, (1,)))})\n" + text
    text = f"theory: {rng.choice(['N', 'N', 'K', 'N-eq', 'Q'])}\n" + text
    path.write_text(_mutated(rng, text), encoding="utf-8")
    return str(path)


def _fuzz_argv(rng, tmp_path):
    """One command line: mostly well-formed, with values that may be out
    of range, malformed or missing; every value stays inside the caps."""
    alpha = str(rng.choice([18, 18, 24, 30, 36, 54, 16, 17, 0, -18]))   # six admissible
    command = rng.randrange(9)
    if command == 0:
        argv = ["parse", _fuzz_formula(rng)]
        if rng.random() < 0.3:
            path = tmp_path / "formula.txt"
            path.write_text(_fuzz_formula(rng), encoding="utf-8")
            argv = ["parse", "--file", str(path)] + argv[1:] * (rng.random() < 0.3)
    elif command in (1, 2):
        path = (_fuzz_proof(rng, tmp_path / "fuzz.proof") if rng.random() < 0.9
                else str(tmp_path / "missing.proof"))
        argv = [rng.choice(["check", "discover"]), path]
    elif command == 3:
        argv = ["sentence", rng.choice(["goldbach", "goldbach", "riemann"])]
        argv += ["--classical"] * (rng.random() < 0.5)
    elif command == 4:
        argv = ["goldbach", "scan", "--limit",
                str(rng.choice([rng.randint(-10, 200), rng.randint(0, 2 * 10**5)]))]
        argv += ["--csv"] * (rng.random() < 0.3)
    elif command == 5:
        argv = ["goldbach", "partitions", str(rng.randint(-10, 10**5))]
    elif command == 6:
        argv = ["model", "axioms", "--alpha", alpha, "--u", rng.choice(_FUZZ_U),
                "--bound", str(rng.randint(-1, 20))]
        argv += ["--cutoff"] * (rng.random() < 0.5)
    elif command == 7:
        env = ",".join(f"x{rng.randint(0, 4)}={rng.randint(0, 30)}"
                       for _ in range(rng.randint(0, 3)))
        argv = ["model", "eval", "--alpha", alpha, "--u", rng.choice(_FUZZ_U),
                "--bound", str(rng.randint(-1, 5)), "--wff", _fuzz_formula(rng),
                "--env", _mutated(rng, env)]
        argv += ["--cutoff"] * (rng.random() < 0.5)
    else:
        argv = ["model", "limits", "--alpha", alpha, "--nmax", str(rng.randint(-1, 40)),
                "--steps", str(rng.randint(-1, 64))]
    if rng.random() < 0.3:
        argv.insert(0, "--json")
    if rng.random() < 0.1:              # an argument dropped, or one that no parser knows
        del argv[rng.randrange(len(argv))]
    if rng.random() < 0.05:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(["--bogus", "-h", "7"]))
    return argv


def test_fuzzed_command_lines_exit_0_1_or_2_with_one_error_line(capsys, tmp_path):
    rng = random.Random(5171)
    codes = collections.Counter()
    for _ in range(400):
        argv = _fuzz_argv(rng, tmp_path)
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        errors = sum("error:" in line for line in err.splitlines())
        assert code in (0, 1, 2), argv
        assert errors == (code == 2), (argv, err)
        assert elapsed < 3, (argv, elapsed)
        codes[code] += 1
    assert min(codes[0], codes[1], codes[2]) > 20, codes


# ---------------------------------------------------------------------------
# leaf-parser dispatch: the full parser is the oracle

_ODD_ARGV = [
    [], ["--"], ["-h"], ["--json", "--help"], ["goldbach", "-h"], ["model", "--help"],
    ["goldbach", "scan", "-h"], ["--json", "model", "eval", "--help"],
    ["goldbach", "scan"], ["model", "axioms", "--alpha", "18", "--u", "2"],
    ["goldbach", "scan", "--limit", "ten"], ["goldbach", "partitions", "x"],
    ["goldbach", "scan", "--limit", "10", "7"], ["sentence", "goldbach", "--bogus"],
    ["goldbach", "scan", "--limit", "10", "--json"], ["--js", "goldbach", "scan", "--limit", "10"],
    ["--json", "--json", "sentence", "goldbach"], ["--json=1", "sentence", "goldbach"],
    ["--", "sentence", "goldbach"], ["sentence", "--", "goldbach"],
    ["goldbach", "scan", "--limit", "10", "--"], ["goldbach", "scan", "--limit", "10", "--=5"],
    ["parse", "--=x", "(0 = 0)"], ["goldbach"], ["goldbach", "bogus"], ["frobnicate"],
    ["goldbach", "--json", "scan", "--limit", "10"], ["goldbach", "scan", "--lim", "10"],
    ["sentence", "goldbach", "--class"], ["goldbach", "partitions", "-6"],
]


def _parsed(parse, argv, capsys):
    """The namespace that ``parse(argv)`` returns, or the code it exits with,
    then what it wrote to stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    return (result, *capsys.readouterr())


def test_leaf_dispatch_reads_every_command_line_as_the_full_parser_does(capsys, tmp_path):
    rng = random.Random(5171)                       # the fuzzer's 400 command lines
    fuzzed = [_fuzz_argv(rng, tmp_path) for _ in range(400)]
    full = cli.build_parser()
    for argv in fuzzed + _ODD_ARGV:
        leaf = _parsed(lambda a: cli._leaf_namespace(a) or cli._parser().parse_args(a),
                       argv, capsys)
        assert leaf == _parsed(full.parse_args, argv, capsys), argv
    # the fuzzer's command lines that parse, bar those with "--" in them, take the leaf path
    for argv in fuzzed:
        if isinstance(_parsed(full.parse_args, argv, capsys)[0], dict) and "--" not in argv:
            assert cli._leaf_namespace(argv) is not None, argv


def test_a_well_formed_command_line_never_reaches_the_top_level_parse(capsys, monkeypatch,
                                                                      tmp_path):
    def top_level(*args, **kwargs):
        raise AssertionError("the top-level parser ran")

    monkeypatch.setattr(cli._parser(), "parse_known_args", top_level)
    formula = tmp_path / "formula.txt"
    formula.write_text("(0 = 0)", encoding="utf-8")
    proof = str(DATA / "imp_refl.proof")
    model = ["--alpha", "18", "--u", "3/2", "--bound", "4"]
    for argv in (["parse", "(0 = 0)"], ["--json", "parse", "--file", str(formula)],
                 ["check", proof], ["--json", "discover", proof],
                 ["sentence", "goldbach", "--classical"],
                 ["goldbach", "scan", "--limit", "100", "--csv"],
                 ["--json", "goldbach", "partitions", "100"],
                 ["model", "axioms", *model, "--cutoff"],
                 ["--json", "model", "eval", *model, "--wff", "(x1 = x1)", "--env", "x1=2"],
                 ["model", "limits", "--alpha", "18", "--nmax", "3", "--steps", "2"],
                 ["goldbach", "scan", "-h"]):
        assert run(argv) == 0, (argv, capsys.readouterr().err)
        capsys.readouterr()
