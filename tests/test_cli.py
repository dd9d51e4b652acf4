import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from foarith import goldbach
from foarith.cli import main, run

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


def test_parse_deep_numeral_equation(capsys):
    depth = 3000
    numeral = "S(" * depth + "0" + ")" * depth
    code, out, err = invoke(capsys, "parse", f"{numeral} = {numeral}")
    assert code == 0 and err == ""
    assert out == f"({numeral} = {numeral})\n"


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
    monkeypatch.setattr(goldbach, "_unresolved", lambda flags, members: members[2:3])
    code, out, err = invoke(capsys, "goldbach", "scan", "--limit", "100")
    assert code == 1 and err == ""
    assert out == "limit=100 members=20 verified=NO first_failure=28\n"


@pytest.mark.parametrize("argv", [["--json", "goldbach", "scan"], ["goldbach", "scan", "--csv"]])
def test_goldbach_scan_counts_disagreeing_with_least_prime_exit_2(capsys, monkeypatch, argv):
    monkeypatch.setattr(goldbach, "_unresolved", lambda flags, members: members[2:3])
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


@pytest.mark.parametrize("command", [
    ("model", "axioms", "--alpha", "18", "--bound", "5"),
    ("model", "eval", "--alpha", "18", "--bound", "5", "--wff", "(0 = 0)"),
], ids=["axioms", "eval"])
@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_model_rejects_zero_denominator_u(capsys, command, json_flag):
    code, out, err = invoke(capsys, *json_flag, *command, "--u", "1/0")
    assert (code, out, err) == (2, "", "error: slope parameter '1/0' has a zero denominator\n")


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
        "assert cli.run(['goldbach', 'scan', '--limit', '1000']) == 0\n"
        "assert 'numpy' in sys.modules, 'numpy not loaded by scan'\n"
    )
    root = Path(__file__).parents[1]
    done = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          timeout=120)
    assert done.returncode == 0, done.stderr
