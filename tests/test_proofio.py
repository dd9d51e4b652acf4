import itertools
import re
import sys
from pathlib import Path

import pytest

from foarith.kernel import (
    MP,
    Proof,
    ProofLine,
    ProperAxiom,
    Scheme,
    SchemeId,
    UNKNOWN,
    build_theory_K,
    build_theory_N,
    build_theory_N_eq,
    check_proof,
    extend_theory,
)
from foarith import proofio
from foarith.proofio import (
    ProofFileError,
    builtin_theories,
    format_justification,
    format_proof,
    parse_justification,
    parse_proof_file,
)
from foarith.syntax import parse_core

DATA = Path(__file__).parent / "data"


def test_justification_round_trip():
    for text in ["K1", "K6", "N7", "AX N3", "MP 2 1", "GEN 1 x2", "?"]:
        assert format_justification(parse_justification(text)) == text


def test_justification_parse_errors():
    for bad in ["K9", "MP 1", "GEN 1 y2", "GEN 1 x0", "AX", "mp 1 2"]:
        with pytest.raises(ValueError):
            parse_justification(bad)


def test_builtin_theories_fresh_dict_over_shared_theories():
    first = builtin_theories()
    first.pop("N")
    second = builtin_theories()
    assert list(second) == ["K", "N", "N-eq"]
    assert second["K"] is first["K"]
    for name, build in (("K", build_theory_K), ("N", build_theory_N),
                        ("N-eq", build_theory_N_eq)):
        assert second[name] == build()
        assert second[name].axioms() == build().axioms()


def test_parse_fixture():
    proof = parse_proof_file((DATA / "imp_refl.proof").read_text())
    assert proof.theory.name == "K"
    assert len(proof.lines) == 5
    assert proof.lines[2].justification == MP(2, 1)
    assert check_proof(proof).accepted


def test_parse_unknowns():
    proof = parse_proof_file((DATA / "imp_refl_bare.proof").read_text())
    assert all(line.justification == UNKNOWN for line in proof.lines)


def test_parse_extension_header():
    proof = parse_proof_file((DATA / "extension.proof").read_text())
    assert proof.theory.name == "N*"
    assert proof.theory.parent.name == "N"
    assert "refl" in proof.theory.axioms()
    assert check_proof(proof).accepted


def test_comments_and_blank_lines_ignored():
    text = "\n# header comment\n\ntheory: N\n# mid comment\n1. (all x1 ((x1 + 0) = x1)) ; AX N3\n\n"
    proof = parse_proof_file(text)
    assert proof.lines[0].justification == ProperAxiom("N3")


def test_abbreviations_lowered_on_read():
    text = "theory: K\n1. (((0=0) & (0=0)) -> ((0=0) & (0=0))) ; ?\n"
    proof = parse_proof_file(text)
    from foarith.syntax import is_core
    assert is_core(proof.lines[0].wff)


def test_error_bad_numbering():
    text = "theory: K\n1. (0=0) ; ?\n3. (0=0) ; ?\n"
    with pytest.raises(ProofFileError, match="numbered 3, expected 2"):
        parse_proof_file(text)


@pytest.mark.parametrize("line, message", [
    ("{}. (0 = 0) ; K1", "line number has 5000 digits"),
    ("2. (0 = 0) ; MP {} 1", "line reference has 5000 digits"),
    ("2. (0 = 0) ; MP 1 {}", "line reference has 5000 digits"),
    ("2. (all x1 (0 = 0)) ; GEN {} x1", "line reference has 5000 digits"),
    ("2. (all x1 (0 = 0)) ; GEN 1 x{}", "variable index has 5000 digits"),
], ids=["number", "mp-minor", "mp-major", "gen-line", "gen-variable"])
@pytest.mark.parametrize("interpreter_limit", [4300, 0])
def test_error_number_past_the_digit_cap_names_its_line(line, message, interpreter_limit):
    # refused before int(), also where Python itself would convert any length (0)
    text = "theory: N\n1. (0 = 0) ; ?\n" + line.format("5" * 5000) + "\n"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(interpreter_limit)
    try:
        with pytest.raises(ProofFileError) as exc:
            parse_proof_file(text)
    finally:
        sys.set_int_max_str_digits(old)
    assert str(exc.value) == f"line 3: {message}, at most 4300 allowed"
    assert exc.value.lineno == 3


def test_number_of_4300_digits_is_read():
    # read, and shown by its first 64 digits
    with pytest.raises(ProofFileError,
                       match=r"numbered 7{64}\.\.\. \(4300 characters\), expected 2$"):
        parse_proof_file("theory: N\n1. (0 = 0) ; ?\n" + "7" * 4300 + ". (0 = 0) ; ?\n")
    just = parse_justification("MP 1 " + "7" * 4300)
    assert (just.i, just.j) == (1, int("7" * 4300))


def test_error_missing_theory():
    with pytest.raises(ProofFileError, match="before the theory"):
        parse_proof_file("1. (0=0) ; ?\n")
    with pytest.raises(ProofFileError, match="missing theory"):
        parse_proof_file("# nothing\n")


def test_error_unknown_theory():
    with pytest.raises(ProofFileError, match="unknown theory"):
        parse_proof_file("theory: ZF\n1. (0=0) ; ?\n")


def test_error_axiom_after_lines():
    text = "theory: N\n1. (0=0) ; ?\naxiom E: (all x1 (x1 = x1))\n"
    with pytest.raises(ProofFileError, match="after proof lines"):
        parse_proof_file(text)


def test_error_axiom_after_theory_line():
    text = "theory: K\naxiom A: (all x1 (x1 = x1))\n1. (all x1 (x1 = x1)) ; AX A\n"
    with pytest.raises(ProofFileError, match="after the theory line") as exc:
        parse_proof_file(text)
    assert exc.value.lineno == 2


def test_error_bad_wff_carries_line_number():
    with pytest.raises(ProofFileError, match="line 2"):
        parse_proof_file("theory: K\n2 is not here\n")


@pytest.mark.parametrize("text, message", [
    ("axiom E: (all x1 (x1 = x1))\naxiom E: (0 = 0)\ntheory: N\n1. (0=0) ; ?\n",
     "line 2: duplicate axiom declaration 'E'"),
    ("axiom E: (all x1 (x1 = ))\ntheory: N\n1. (0=0) ; ?\n",
     "line 1: bad wff: expected a term, found ')' (at position 14)"),
    ("theory: N\ntheory: K\n1. (0=0) ; ?\n", "line 2: duplicate theory declaration"),
    ("theory: N\n# no lines\n", "line 3: proof has no lines"),
])
def test_error_in_the_header(text, message):
    with pytest.raises(ProofFileError) as exc:
        parse_proof_file(text)
    assert str(exc.value) == message


def test_format_justification_rejects_an_unknown_object():
    with pytest.raises(ValueError, match=r"^unrecognized justification 'K1'$"):
        format_justification("K1")


def test_format_proof_rejects_a_theory_two_extensions_from_a_builtin():
    once = extend_theory(build_theory_N(), "N*", {"E": parse_core("(all x1 (x1 = x1))")})
    twice = extend_theory(once, "N**", {"F": parse_core("(all x2 (x2 = x2))")})
    proof = Proof(twice, (ProofLine(parse_core("(all x2 (x2 = x2))"), ProperAxiom("F")),))
    assert check_proof(proof).accepted
    with pytest.raises(ValueError, match=r"^theory 'N\*\*' is not serializable "
                                         r"\(not built on K, N or N-eq\)$"):
        format_proof(proof)


@pytest.mark.parametrize("line, outcome", [
    ("1. (0=0) ; x ; K1", "line 2: unrecognized justification 'x ; K1'"),
    ("1. ;(0 = 0) ; K1", "line 2: bad wff: unexpected character ';' (at position 0)"),
    ("1. ; K1", "line 2: bad wff: expected a formula (at position 1)"),
    ("1.  ;  ; K1", "line 2: bad wff: unexpected character ';' (at position 0)"),
    ("1. (0 = 0) ;", "line 2: unrecognized line '1. (0 = 0) ;'"),
    ("1. (0 = 0) ; ; ?", "line 2: unrecognized justification '; ?'"),
    ("1.(0 = 0);   ?  ", None),
])
def test_numbered_line_splits_at_its_first_semicolon(line, outcome):
    # the formula ends at the first ';' that some justification follows,
    # and is never empty
    if outcome is None:
        assert parse_proof_file(f"theory: K\n{line}\n").lines[0].justification == UNKNOWN
    else:
        with pytest.raises(ProofFileError) as exc:
            parse_proof_file(f"theory: K\n{line}\n")
        assert str(exc.value) == outcome


def test_numbered_line_regex_matches_the_lazy_one_on_every_short_string():
    # the lazy regex tries the ';' after each character of the formula;
    # the line regex must split every line as it does
    lazy = re.compile(r"(\d+)\.\s*(.+?)\s*;\s*(\S.*?)\s*\Z")
    matched = 0
    for size in range(1, 8):
        for chars in itertools.product("1.; ab\t", repeat=size):
            line = "".join(chars)
            m, expected = proofio._NUMBERED_RE.match(line), lazy.match(line)
            assert (m and m.groups()) == (expected and expected.groups()), line
            matched += expected is not None
    assert matched > 5000


def test_format_parse_round_trip():
    proof = parse_proof_file((DATA / "extension.proof").read_text())
    again = parse_proof_file(format_proof(proof))
    assert again.theory.axioms() == proof.theory.axioms()
    assert again.lines == proof.lines


def test_scheme_names_cover_all_ids():
    for scheme in SchemeId:
        assert parse_justification(scheme.value) == Scheme(scheme)
