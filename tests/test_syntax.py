import collections
import copy
import hashlib
import pickle
import random
import os
import re
import subprocess
import sys
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from pathlib import Path

import pytest
from hypothesis import given

from conftest import (
    benchmark_module,
    core_wffs,
    in_fresh_thread,
    random_core_wff,
    random_generic_term,
    random_proof_corpus,
    random_surface_wff,
    random_term,
    surface_wffs,
)
from parse_edge_cases import PARSE_EDGE_CASES, parse_outcome
from foarith import syntax
from foarith.arith import decode_numeral, numeral
from foarith.models import coded_model, eval_bounded
from foarith.kernel import UNKNOWN, Proof, ProofLine, SchemeId, check_proof, match_scheme
from foarith.proofio import ProofFileError, builtin_theories, format_proof, parse_proof_file
from foarith.syntax import (
    ANY_TERM,
    And,
    Atom,
    CaptureError,
    Const,
    Exists,
    ForAll,
    FuncApp,
    Iff,
    Implies,
    NO_MATCH,
    Not,
    Or,
    ParseError,
    Var,
    Witness,
    ZERO,
    eq,
    free_vars,
    is_core,
    is_free_for,
    lower,
    match_substitution_result,
    parse_core,
    parse_term,
    parse_wff,
    plus,
    print_term,
    print_wff,
    substitute,
    succ,
    term_vars,
    times,
)

X1, X2, X3 = Var(1), Var(2), Var(3)


# ---------------------------------------------------------------------------
# parsing


def test_parse_closed_universal():
    w = parse_wff("(all x1 ~(S(x1) = 0))")
    assert w == ForAll(1, Not(eq(succ(X1), ZERO)))


def test_parse_double_negation():
    assert parse_wff("~~(0 = 0)") == Not(Not(eq(ZERO, ZERO)))


def test_parse_keeps_abbreviations():
    w = parse_wff("(ex x2 (x2 = S(0)))")
    assert w == Exists(2, eq(X2, succ(ZERO)))


def test_parse_bare_equality_atom():
    assert parse_wff("x1 = x2") == eq(X1, X2)
    assert parse_wff("(x1 + x2) = 0") == eq(plus(X1, X2), ZERO)


def test_parse_generic_letters():
    w = parse_wff("A{2,1}(f{3,2}(x1, a2))")
    assert w == Atom(2, 1, (FuncApp(3, 2, (X1, Const(2))),))


def test_parse_whitespace_insignificant():
    assert parse_wff("(all x1((x1+0)=x1))") == parse_wff("( all x1 ( ( x1 + 0 ) = x1 ) )")


def test_parse_term_aliases():
    assert parse_term("0") == Const(1)
    assert parse_term("a1") == Const(1)
    assert parse_term("S(0)") == FuncApp(1, 1, (Const(1),))
    assert parse_term("(x1 * x2)") == times(X1, X2)


def test_parse_error_reports_position():
    for text, pos in [("(all x1 (x1 = ))", 14), ("(0 = 0) $", 8), ("   ", 3)]:
        with pytest.raises(ParseError) as exc:
            parse_wff(text)
        assert exc.value.pos == pos


def test_parse_error_arity_mismatch():
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_wff("A{1,2}(x1)")
    with pytest.raises(ParseError, match="arity mismatch"):
        parse_wff("(f{1,3}(x1, x2) = 0)")


def test_parse_error_trailing_input():
    with pytest.raises(ParseError, match="trailing"):
        parse_wff("(0 = 0) (0 = 0)")


def test_parse_error_bad_numeral_and_index():
    with pytest.raises(ParseError, match="numeral"):
        parse_wff("(2 = 2)")
    with pytest.raises(ParseError, match=">= 1"):
        parse_wff("(x0 = 0)")


@pytest.mark.parametrize("text, shown", [
    ("", "''"),
    ("foo (", "'foo ('"),
    (") bar", "') bar'"),
    ("y" * 64, repr("y" * 64)),
    ("y" * 65, repr("y" * 64) + "... (65 characters)"),
    ("\x00" * 100_000, repr("\x00" * 64) + "... (100000 characters)"),
    ("\U0010ffff" * 100_000, repr("\U0010ffff" * 64) + "... (100000 characters)"),
], ids=["empty", "ends-in-paren", "starts-with-paren", "64", "65", "nul", "noncharacter"])
def test_shown_repeats_any_text_in_under_1_kb(text, shown):
    # the one rule for outside text in a message: whole up to 64 characters,
    # else the first 64 and the length; a repr escape takes up to 10 each
    for quote, expected in ((repr, shown), (str, shown.replace(repr(text[:64]), text[:64]))):
        assert syntax._shown(text, quote) == expected
        assert len(expected.encode()) < 1024


@pytest.mark.parametrize("kind, text, expected", PARSE_EDGE_CASES,
                         ids=[ascii(text[:30]) for _, text, _ in PARSE_EDGE_CASES])
def test_parse_edge_cases(kind, text, expected):
    assert parse_outcome(syntax, kind, text) == expected


@pytest.mark.parametrize("text, message", [
    ("(" * 20_000, "expected a formula (at position 20000)"),
    ("(" * 20_000 + "x1" + " = 0)" * 20_000,
     "expected a binary connective, found '=' (at position 20008)"),
], ids=["open-parentheses", "nested-equalities"])
def test_failed_equality_attempts_are_not_repeated(text, message):
    # each '(' here could start a bare equality, and an attempt reads every
    # '(' inside it as a term; an attempt is not made again inside a pair
    # where one stopped, so these fail in linear time
    start = time.perf_counter()
    with pytest.raises(ParseError) as info:
        parse_wff(text)
    assert time.perf_counter() - start < 2
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# printing


def test_print_sum_axiom_shape():
    w = ForAll(1, eq(plus(X1, ZERO), X1))
    assert print_wff(w) == "(all x1 ((x1 + 0) = x1))"


def test_print_negated_equality():
    assert print_wff(Not(eq(ZERO, ZERO))) == "~(0 = 0)"


def test_print_generic_letters_round_trip():
    text = "A{2,3}(x1, f{4,1}(a3), 0)"
    assert print_wff(parse_wff(text)) == text


def test_resugar_folds_patterns_back():
    for text in ["(ex x1 (x1 = 0))", "((0 = 0) & (x1 = x1))",
                 "((0 = 0) | (x1 = x1))", "((0 = 0) <-> (x1 = x1))"]:
        core = parse_core(text)
        assert print_wff(core, resugar=True) == text
        assert parse_core(print_wff(core, resugar=True)) == core
    # a shape that misses <-> or ex by one piece folds as the next one, or not at all
    for text, folded in [
        ("~(((0 = 0) -> (x1 = x1)) -> ~((x1 = x1) -> (x2 = x2)))",
         "(((0 = 0) -> (x1 = x1)) & ((x1 = x1) -> (x2 = x2)))"),
        ("~(((0 = 0) -> (x1 = x1)) -> ~((x2 = x2) -> (0 = 0)))",
         "(((0 = 0) -> (x1 = x1)) & ((x2 = x2) -> (0 = 0)))"),
        ("~(all x1 (x1 = 0))", "~(all x1 (x1 = 0))"),
    ]:
        assert print_wff(parse_wff(text), resugar=True) == folded


@given(core_wffs)
def test_round_trip_core(w):
    assert lower(parse_wff(print_wff(w))) == w
    assert parse_wff(print_wff(w)) == w


@given(surface_wffs)
def test_round_trip_surface(w):
    assert lower(parse_wff(print_wff(w))) == lower(w)


@given(core_wffs)
def test_round_trip_resugared(w):
    assert lower(parse_wff(print_wff(w, resugar=True))) == w


def test_deep_numeral_round_trip():
    n = 10 ** 5
    text = "S(" * n + "0" + ")" * n
    assert print_term(numeral(n)) == text
    t = parse_term(text)
    assert decode_numeral(t) == n
    assert print_term(t) == text


# ---------------------------------------------------------------------------
# golden front-end digests
#
# SHA-256 of the front end's output over seeded corpora.  They pin every
# printed byte and every parse error message and position, so a digest that
# changes is a change in behaviour, not a refactoring.


GOLDEN_FRONT_END_DIGESTS = {
    "print": "10c51f787e1c7f5efb7313655390c4fc8bcefebf64d1496800d548f12e3a570d",
    "resugar": "f099d32b53a36f51802751f78d375dab118ae3710ee12fd629db3e83aa91b264",
    "str": "02774a3ae537bbc49bd5a9f0fe1792e4671ef6340f84b73f318bd9b7dc4e1b99",
    "errors": "34385da6e78db768be01125f9a4aa45b69081c76e0bfcaeaab69c70cc49c6f1c",
}

_MUTATION_CHARS = "()=~-><&|{},+*SAfxa019 $\n"


def _respace(rng, text):
    return re.sub(r"[(),]", lambda m: m.group() + rng.choice(["", " ", "\t\n "]), text)


def _mutate(rng, text):
    i = rng.randrange(len(text) + 1)
    kind = rng.randrange(3)
    if kind == 0:
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + rng.choice(_MUTATION_CHARS) + text[i:]
    return text[:i]


def _parse_outcome(text):
    try:
        return "ok " + print_wff(parse_wff(text))
    except ParseError as exc:
        return f"{exc} @{exc.pos}"


def _digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_front_end_golden_digests():
    rng = random.Random(3)
    formulas = ([random_surface_wff(rng, 4, (1, 2, 3)) for _ in range(600)]
                + [random_core_wff(rng, 4, (1, 2, 3)) for _ in range(600)])
    terms = [random_generic_term(rng, 3, (1, 2, 3)) for _ in range(300)]
    texts = [print_wff(w) for w in formulas]
    outputs = {
        "print": [print_wff(parse_wff(_respace(rng, t))) for t in texts]
                 + [print_term(parse_term(_respace(rng, print_term(t)))) for t in terms],
        "resugar": [print_wff(lower(w), resugar=True) for w in formulas],
        "str": [f"{x}\t{x!r}" for x in formulas + terms],
        "errors": [_parse_outcome(_mutate(rng, t)) for t in texts for _ in range(3)],
    }
    assert {k: _digest(v) for k, v in outputs.items()} == GOLDEN_FRONT_END_DIGESTS


# ---------------------------------------------------------------------------
# parse table
#
# Formulas parsed through one shared table must come out as fresh parses do:
# equal trees, or the same error at the same position.  The texts include
# proof-file lines, surface formulas, their mutations, and formulas with
# bare equalities whose parenthesized left term is followed by "=", where
# the parse runs past the pair and the table must not be used.


def _bare_equalities(rng, w):
    """The text of w with some equality atoms written without parentheses."""
    if isinstance(w, Atom):
        text = print_wff(w)
        return text[1:-1] if w.letter == 1 and w.arity == 2 and rng.random() < 0.6 else text
    if isinstance(w, Not):
        return "~" + _bare_equalities(rng, w.body)
    if isinstance(w, (ForAll, Exists)):
        q = "all" if isinstance(w, ForAll) else "ex"
        return f"({q} x{w.var} {_bare_equalities(rng, w.body)})"
    left, right = (w.antecedent, w.consequent) if isinstance(w, Implies) else (w.left, w.right)
    op = {Implies: "->", And: "&", Or: "|", Iff: "<->"}[type(w)]
    return f"({_bare_equalities(rng, left)} {op} {_bare_equalities(rng, right)})"


def _table_outcome(text, table=None):
    try:
        return parse_wff(text, table)
    except ParseError as exc:
        return f"{exc} @{exc.pos}"


def _parse_table_texts(rng):
    n = builtin_theories()["N"]
    texts = []
    for size in (8, 16, 24):
        lines = random_proof_corpus(rng, n, size)
        texts += [print_wff(w) for w in lines]
    surface = [random_surface_wff(rng, 4, (1, 2, 3)) for _ in range(150)]
    texts += [print_wff(w) for w in surface]
    texts += [_bare_equalities(rng, w) for w in surface]
    texts += [_bare_equalities(rng, rng.choice(surface)) + " -> " for _ in range(20)]
    texts += ["((x1 + 0) = x1 -> (x1 + 0) = x2)", "((x1 + 0) = x1 -> ((x1 + 0) = x1))",
              "(((x1 + 0) = x1) -> (x1 + 0) = x1)", "((x1 * x2) = (x1 * x2) & (x1 * x2) = 0)"]
    texts += [_mutate(rng, rng.choice(texts)) for _ in range(600)]
    rng.shuffle(texts)
    return texts


def test_parse_table_matches_fresh_parses():
    rng = random.Random(17)
    texts = _parse_table_texts(rng)
    table = {}
    shared = [_table_outcome(t, table) for t in texts]
    assert table
    for text, outcome in zip(texts, shared):
        fresh = _table_outcome(text)
        assert outcome == fresh and repr(outcome) == repr(fresh), text


def _parenthesized_subformulas(w):
    return [s for s in _nodes(w) if print_wff(s).startswith("(")]


def test_proof_file_shares_equal_subformulas():
    rng = random.Random(23)
    n = builtin_theories()["N"]
    for size in (10, 40, 120):
        lines = random_proof_corpus(rng, n, size)
        text = format_proof(Proof(n, tuple(ProofLine(w, UNKNOWN) for w in lines)))
        proof = parse_proof_file(text)
        assert [line.wff for line in proof.lines] == lines
        first = {}
        repeats = 0
        for line in proof.lines:
            for w in _parenthesized_subformulas(line.wff):
                repeats += w in first
                assert first.setdefault(w, w) is w, print_wff(w)
        assert repeats > size


# ---------------------------------------------------------------------------
# raw table
#
# A parse that shares a table also files the source text of each pair near
# the top of its formula, and a later text is lexed around the pairs it
# finds there.  Equal texts must still give equal trees and one object per
# repeated subformula, however their repeats are spaced, and a text that
# fails must fail as it does without a table.


def _spaced(rng, text):
    """text with whitespace added after '(', ')' and ',', and inside runs
    of 'S(' and ')'; no line breaks, so it stays one line of a proof file."""
    text = re.sub(r"S\(", lambda m: rng.choice(["S(", "S (", "S\t("]), text)
    return re.sub(r"[(),]", lambda m: m.group() + rng.choice(["", " ", "\t", " \t "]), text)


@pytest.fixture
def raw_hits(monkeypatch):
    """The number of raw hits found so far in each text."""
    found = collections.Counter()
    find = syntax._raw_hits

    def counted(text, *args):
        hits = find(text, *args)
        found[text] += len(hits)
        return hits

    monkeypatch.setattr(syntax, "_raw_hits", counted)
    return found


def test_proof_file_with_respaced_repeats_shares_subformulas(raw_hits):
    rng = random.Random(37)
    n = builtin_theories()["N"]
    for size in (10, 40, 120):
        lines = random_proof_corpus(rng, n, size)
        texts = [print_wff(w) if rng.random() < 0.5 else _spaced(rng, print_wff(w))
                 for w in lines]
        proof = parse_proof_file("theory: N\n" + "".join(
            f"{k}. {t} ; ?\n" for k, t in enumerate(texts, 1)))
        assert [line.wff for line in proof.lines] == lines
        first = {}
        for line in proof.lines:
            for w in _parenthesized_subformulas(line.wff):
                assert first.setdefault(w, w) is w, print_wff(w)
    assert raw_hits.total() > 20


def test_malformed_line_after_raw_hits_fails_as_without_a_table(raw_hits):
    rng = random.Random(41)
    n = builtin_theories()["N"]
    failed = failed_after_hits = 0
    for _ in range(120):
        lines = random_proof_corpus(rng, n, 16)
        texts = [print_wff(w) for w in lines]
        k = rng.randrange(1, len(texts))
        texts[k] = _mutate(rng, texts[k]).replace("\n", "").strip()   # what the line holds
        if not texts[k]:
            continue
        file = "theory: N\n" + "".join(f"{i}. {t} ; ?\n" for i, t in enumerate(texts[:k + 1], 1))
        try:
            fresh = lower(parse_wff(texts[k]))
        except ParseError as exc:
            with pytest.raises(ProofFileError) as err:
                parse_proof_file(file)
            assert str(err.value) == f"line {k + 2}: bad wff: {exc}"
            assert err.value.__cause__.pos == exc.pos
            failed += 1
            failed_after_hits += raw_hits[texts[k]] > 0
        else:
            assert parse_proof_file(file).lines[k].wff == fresh
    assert failed > 40 and failed_after_hits > 20


@pytest.mark.parametrize("text", ["Q(all x1 ((x1 + 0) = x1))", "B(all x1 ((x1 + 0) = x1))",
                                  "(ex(all x1 ((x1 + 0) = x1)))"])
def test_hit_joined_to_a_letter_before_it_fails_as_without_a_table(monkeypatch, text):
    # line 2 restates line 1's pair, found at the '(' after the letter; the
    # letter and the 'a' written for the hit lex as one token, so the hit
    # is no token, and the line is parsed again without hits
    not_one_token = []
    lex_around = syntax._lex_around

    def spied(*args):
        try:
            return lex_around(*args)
        except syntax._Fail as exc:
            not_one_token.append(exc.args[0] == "a hit is not one token")
            raise

    monkeypatch.setattr(syntax, "_lex_around", spied)
    with pytest.raises(ParseError) as fresh:
        parse_wff(text)
    with pytest.raises(ProofFileError) as err:
        parse_proof_file(f"theory: N\n1. (all x1 ((x1 + 0) = x1)) ; ?\n2. {text} ; ?\n")
    assert str(err.value) == f"line 3: bad wff: {fresh.value}"
    assert err.value.__cause__.pos == fresh.value.pos
    assert not_one_token == [True]


# ---------------------------------------------------------------------------
# once per pair
#
# Between the token-keyed table (repeats within a line) and the raw table
# (repeats across lines), each distinct parenthesized formula of a parse
# is read once: one frame pushed by _Parser._grouped per distinct text.


@pytest.fixture
def grouped(monkeypatch):
    """The number of parenthesized formulas read so far, repeats included."""
    found = collections.Counter()
    read = syntax._Parser._grouped

    def counted(self, *args):
        found["pairs"] += 1
        return read(self, *args)

    monkeypatch.setattr(syntax._Parser, "_grouped", counted)
    return found


def _distinct_pairs(ws):
    return len({print_wff(s) for w in ws for s in _parenthesized_subformulas(w)})


def test_each_distinct_pair_is_read_once(grouped):
    a = "((x2 = x3) -> ~(x3 = 0))"
    b = "(all x2 (x3 = x2))"
    c = "~(all x3 ((x2 + x3) = 0))"
    k2 = f"(({a} -> ({b} -> {c})) -> (({a} -> {b}) -> ({a} -> {c})))"
    w = parse_wff(k2)
    assert grouped["pairs"] == _distinct_pairs([w]) == 13
    grouped.clear()
    lines = [a, f"({c} -> {a})", f"(({b} -> {c}) -> {a})"]
    proof = parse_proof_file("theory: K\n" + "".join(
        f"{k}. {t} ; ?\n" for k, t in enumerate(lines, 1)))
    assert grouped["pairs"] == _distinct_pairs(line.wff for line in proof.lines) == 10


def test_corpus_pairs_are_read_once_per_line_and_per_file(grouped):
    rng = random.Random(47)
    n = builtin_theories()["N"]
    for size in (10, 40, 120):
        lines = random_proof_corpus(rng, n, size)
        for w in lines:
            grouped.clear()
            assert parse_wff(print_wff(w)) == w
            assert grouped["pairs"] == _distinct_pairs([w]), print_wff(w)
        grouped.clear()
        proof = parse_proof_file(format_proof(Proof(n, tuple(ProofLine(w, UNKNOWN) for w in lines))))
        assert [line.wff for line in proof.lines] == lines
        assert grouped["pairs"] == _distinct_pairs(lines)


# ---------------------------------------------------------------------------
# print table
#
# Printing through a shared table writes each repeated pair from its stored
# text; the output must be the bytes printing without one gives.


def test_print_table_gives_the_same_text():
    rng = random.Random(43)
    n = builtin_theories()["N"]
    for size in (10, 40, 120):
        lines = random_proof_corpus(rng, n, size)
        proof = Proof(n, tuple(ProofLine(w, UNKNOWN) for w in lines))
        parsed = parse_proof_file(format_proof(proof))
        assert parsed.lines == proof.lines
        table = {}
        for ws in (lines, [line.wff for line in parsed.lines]):
            for resugar in (False, True):
                plain = [print_wff(w, resugar) for w in ws]
                assert [print_wff(w, resugar, table) for w in ws] == plain
                assert [print_wff(w, resugar, {}) for w in ws] == plain
        assert format_proof(proof) == "theory: N\n" + "".join(
            f"{k}. {print_wff(w)} ; ?\n" for k, w in enumerate(lines, 1))


def test_print_table_keeps_no_text_per_level_of_a_deep_formula():
    deep = _deep_not(10 ** 4, eq(X1, ZERO))
    proof = Proof(builtin_theories()["K"], (ProofLine(deep, UNKNOWN),))
    expected = f"theory: K\n1. {print_wff(deep)} ; ?\n"
    tracemalloc.start()
    try:
        text = format_proof(proof)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == expected
    # the text of every level would take 10^8 / 2 characters; the pieces
    # of the one text take about 0.1 MB
    assert peak < 10 ** 6


# ---------------------------------------------------------------------------
# successor chains
#
# A run of "S(" is one token, and each parse keeps, per base term, the
# chain [t, S(t), S(S(t)), ...] it has built.  Chains on different bases
# must stay apart, within one formula and through a table shared by the
# lines of a proof file.


def _chain(t, k):
    for _ in range(k):
        t = succ(t)
    return t


def _s(k, text):
    return "S(" * k + text + ")" * k


def _chain_cases(rng):
    """(text, tree) pairs that put chains on several bases side by side."""
    cases = []
    for k in range(301):
        j = rng.randrange(0, 40)
        base = f"(x1 + {_s(j, '0')})"
        cases.append((f"{_s(k, '0')} = {_s(k, 'x1')}",
                      eq(_chain(ZERO, k), _chain(X1, k))))
        cases.append((f"({_s(k, 'x1')} = {_s(k, base)})",
                      eq(_chain(X1, k), _chain(plus(X1, _chain(ZERO, j)), k))))
        cases.append((f"(({_s(k, 'x2')} + {_s(j, '0')}) = {_s(j, 'x2')} -> "
                      f"~{_s(j, 'f{3,1}(x2)')} = {_s(k, '0')})",
                      Implies(eq(plus(_chain(X2, k), _chain(ZERO, j)), _chain(X2, j)),
                              Not(eq(_chain(FuncApp(3, 1, (X2,)), j), _chain(ZERO, k))))))
    for _ in range(150):
        w = random_surface_wff(rng, 4, (1, 2, 3))
        cases.append((print_wff(w), w))
    return cases


def test_successor_chains_parse_as_built():
    cases = _chain_cases(random.Random(29))
    for text, tree in cases:
        assert parse_wff(text) == tree, text
    table = {}
    for text, tree in cases:
        assert parse_wff(text, table) == tree, text


def test_successor_chains_through_a_shared_proof_file_table():
    rng = random.Random(31)
    n = builtin_theories()["N"]
    lines = random_proof_corpus(rng, n, 40)
    for k in range(0, 120, 7):
        j = rng.randrange(0, k + 1)
        lines.append(eq(_chain(ZERO, k), _chain(X1, j)))
        lines.append(Implies(eq(_chain(X1, k), _chain(plus(X1, ZERO), j)),
                             eq(_chain(ZERO, j), _chain(X2, k))))
    rng.shuffle(lines)
    text = format_proof(Proof(n, tuple(ProofLine(w, UNKNOWN) for w in lines)))
    assert [line.wff for line in parse_proof_file(text).lines] == lines


@pytest.mark.parametrize("depth", [1, 600, None], ids=["1", "600", "past-the-recursion-limit"])
def test_successor_towers_at_depth(depth):
    # one reader walks a tower (printer, evaluator, decode_numeral); the
    # parser's chains equal the ones FuncApp builds, hashes included
    n = depth or sys.getrecursionlimit() + 1000
    for base, text in ((ZERO, "0"), (X1, "x1"), (plus(X1, ZERO), "(x1 + 0)")):
        built = base
        for _ in range(n):
            built = FuncApp(1, 1, (built,))
        parsed = parse_term(_s(n, text))
        assert parsed == built and hash(parsed) == hash(built)
        assert syntax._tower(parsed) == (n, base)
        assert print_term(parsed) == print_term(built) == _s(n, text)
    assert decode_numeral(numeral(n)) == n
    assert syntax._tower(X1) == (0, X1)


def _subterm(t, depth):
    for _ in range(depth):
        t = t.args[0]
    return t


def test_equal_successor_chains_are_one_object():
    n, m = 600, 570
    w = parse_wff(f"{_s(n, '0')} = {_s(m, '0')}")
    left, right = w.terms
    assert decode_numeral(left) == n and decode_numeral(right) == m
    assert right is _subterm(left, n - m)
    proof = parse_proof_file(f"theory: N\n1. ({_s(40, 'x1')} = {_s(9, '0')}) ; ?\n"
                             f"2. ({_s(9, 'x1')} = {_s(40, '0')}) ; ?\n")
    first, second = (line.wff.terms for line in proof.lines)
    assert second[0] is _subterm(first[0], 31)
    assert first[1] is _subterm(second[1], 31)


# ---------------------------------------------------------------------------
# nodes


_FIELDS = {
    Var: ("index",), Const: ("index",),
    FuncApp: ("letter", "arity", "args"), Atom: ("letter", "arity", "terms"),
    Not: ("body",), Implies: ("antecedent", "consequent"),
    ForAll: ("var", "body"), Exists: ("var", "body"),
    And: ("left", "right"), Or: ("left", "right"), Iff: ("left", "right"),
}
_ATOM = eq(plus(X1, succ(ZERO)), X2)
_NODES = [X1, Const(2), succ(X1), _ATOM, Not(_ATOM), Implies(_ATOM, Not(_ATOM)),
          ForAll(1, _ATOM), Exists(2, _ATOM), And(_ATOM, _ATOM), Or(Not(_ATOM), _ATOM),
          Iff(_ATOM, Not(_ATOM))]


@pytest.mark.parametrize("node", _NODES, ids=lambda n: type(n).__name__)
def test_node_is_frozen_and_hashes_its_fields(node):
    names = _FIELDS[type(node)]
    values = tuple(getattr(node, name) for name in names)
    assert hash(node) == hash(values)
    assert type(node)(*values) == node == type(node)(**dict(zip(names, values)))
    for name in names:
        with pytest.raises(FrozenInstanceError):
            setattr(node, name, values[0])
        with pytest.raises(FrozenInstanceError):
            delattr(node, name)
    assert tuple(getattr(node, name) for name in names) == values
    assert hash(node) == hash(values)
    assert copy.deepcopy(node) == node == pickle.loads(pickle.dumps(node))


def _nodes(w):
    """Every formula node of w, found with an explicit stack."""
    stack, out = [w], []
    while stack:
        w = stack.pop()
        out.append(w)
        if isinstance(w, (Not, ForAll, Exists)):
            stack.append(w.body)
        elif isinstance(w, Implies):
            stack += [w.antecedent, w.consequent]
        elif isinstance(w, (And, Or, Iff)):
            stack += [w.left, w.right]
    return out


def _deep_not(depth, w):
    for _ in range(depth):
        w = Not(w)
    return w


def test_deep_nodes_hash_and_compare():
    n = 10 ** 5
    pairs = [(eq(numeral(n), numeral(n)), eq(numeral(n), numeral(n))),
             (_deep_not(10 ** 4, A), _deep_not(10 ** 4, eq(X1, ZERO)))]
    for left, right in pairs:
        assert left is not right
        assert hash(left) == hash(right)
        assert left == right and not left != right
    big = pairs[0][0].terms[0]
    assert pairs[0][0] != eq(big, big.args[0])
    assert pairs[1][0] != _deep_not(10 ** 4, B)
    assert pairs[1][0] != pairs[1][0].body


def test_deep_nodes_repr_pickle_and_copy():
    def check():
        n, m = 10 ** 4, 10 ** 5
        nots, big = _deep_not(n, eq(X1, ZERO)), numeral(m)
        assert repr(nots) == "Not(body=" * n + repr(eq(X1, ZERO)) + ")" * n
        assert repr(big) == ("FuncApp(letter=1, arity=1, args=(" * m + "Const(index=1)"
                             + ",))" * m)
        for w in (nots, big, eq(big, X1)):
            again = pickle.loads(pickle.dumps(w))
            assert again == w and type(again) is type(w)
            assert copy.copy(w) is w and copy.deepcopy(w) is w

    in_fresh_thread(check)


def _deep_formulas():
    """(formula, free variables) pairs, each 10^4 or more levels deep."""
    n = 10 ** 4
    implies, plus_term = eq(X1, ZERO), X1
    for k in range(n):
        implies = Implies(eq(Var(k % 3 + 1), X1), implies)
        plus_term = plus(plus_term, Var(k % 3 + 1))
    return [(eq(numeral(10 ** 5), X1), {1}), (_deep_not(n, eq(X1, ZERO)), {1}),
            (implies, {1, 2, 3}), (eq(plus_term, succ(ZERO)), {1, 2, 3})]


def test_deep_formulas_round_trip_through_every_walker():
    def check():
        t = succ(X2)
        for w, free in _deep_formulas():
            text = print_wff(w)
            parsed = parse_wff(text)
            assert parsed is not w and hash(parsed) == hash(w) and parsed == w
            assert print_wff(parsed) == text
            assert lower(parse_wff(print_wff(w, resugar=True))) == w
            assert is_core(parsed) and lower(parsed) is parsed
            assert free_vars(parsed) == free
            instance = substitute(parsed, 1, t)
            assert free_vars(instance) == (free - {1}) | {2}
            assert match_substitution_result(parsed, 1, instance) == Witness(t)
            assert match_scheme(SchemeId.K1, Implies(w, Implies(B, parsed))) is not None
            k5 = match_scheme(SchemeId.K5, Implies(ForAll(1, parsed), instance))
            assert k5 is not None and k5.parts["term"] == t
            proof = parse_proof_file(f"theory: K\n1. ({text} -> ((x2 = 0) -> {text})) ; K1\n")
            assert check_proof(proof).accepted

    in_fresh_thread(check)


# Every entry point that walks a formula, on inputs whose lowering is a DAG
# with 2^n paths: Q_40, which is 40 nested <-> over (x1 = 0) and (x2 = 0),
# and the K1 instance (Q_300 -> ((0 = 0) -> Q_300)), whose copies of Q_300
# are too long for the parse table to make one object.  A walk that
# compared a pair of nodes once per path would not finish.  Each line of
# the table is a label, the expected result and a call.  Left out, as
# ROADMAP item 4's work, are the outputs that are themselves 2^n long:
# `parse` (the core text), the proof that `discover` prints (22 KB at
# n = 8, 360 KB at n = 12) and `--json model eval` (the core text in its
# "wff" field).
_DAG_WALKS = """
import sys, time
from foarith.kernel import (SchemeId, UNKNOWN, Proof, ProofLine, check_proof, match_scheme,
                            resolve_unknowns)
from foarith.models import ThreeValued, coded_model, eval_bounded
from foarith.proofio import parse_proof_file
from foarith.syntax import free_vars, lower, match_substitution_result, parse_wff, substitute
from foarith.syntax import ANY_TERM, ZERO, succ

def nested(n):
    q = "(x1 = 0)"
    for _ in range(n):
        q = f"({q} <-> (x2 = 0))"
    return q

Q = nested(40)
instances = {
    "K1": f"({Q} -> ((0 = 0) -> {Q}))",
    "K2": f"(({Q} -> ({Q} -> {Q})) -> (({Q} -> {Q}) -> ({Q} -> {Q})))",
    "K3": f"((~{Q} -> ~{Q}) -> ({Q} -> {Q}))",
    "K4": f"((all x3 {Q}) -> {Q})",
    "K5": f"((all x1 {Q}) -> {Q.replace('x1', 'S(0)')})",
    "K6": f"((all x3 ({Q} -> {Q})) -> ({Q} -> (all x3 {Q})))",
    "N7": f"({Q.replace('x1', '0')} -> ((all x1 ({Q} -> {Q.replace('x1', 'S(x1)')}))"
          f" -> (all x1 {Q})))",
}
inputs = {"Q_40": Q, "K1 at n = 300": "({0} -> ((0 = 0) -> {0}))".format(nested(300))}
proofs = {"K5 over Q_40": ("K", "K5", f"((all x3 {Q}) -> {Q})"),
          "N7 over Q_40": ("N", "N7", instances["N7"]),
          "K1 at n = 300": ("K", "K1", inputs["K1 at n = 300"])}
model = coded_model(18, 1)
table = []
for name, text in inputs.items():
    surface = parse_wff(text)
    w = lower(surface)
    table += [
        (f"== of two lowerings of {name}", True, w.__eq__, lower(parse_wff(text))),
        (f"free_vars of {name}", frozenset({1, 2}), free_vars, w),
        (f"substitute in {name}", lower(parse_wff(text.replace("x1", "S(0)"))),
         substitute, w, 1, succ(ZERO)),
        (f"match_substitution_result of {name}", ANY_TERM, match_substitution_result, w, 3, w),
        (f"lower of {name}", w, lower, surface),
        (f"eval_bounded of {name}", ThreeValued.TRUE,
         lambda w: eval_bounded(model, w, {1: 0, 2: 1}, bound=3).truth, w),
    ]
for scheme, text in instances.items():
    table.append((f"match_scheme {scheme} over Q_40", True,
                  lambda w, s=SchemeId[scheme]: match_scheme(s, w) is not None,
                  lower(parse_wff(text))))
for name, (theory, scheme, text) in proofs.items():
    proof = parse_proof_file(f"theory: {theory}\\n1. {text} ; {scheme}\\n")
    unknown = Proof(proof.theory, [ProofLine(proof.lines[0].wff, UNKNOWN)])
    table += [(f"check_proof of {name}", True, lambda p: check_proof(p).accepted, proof),
              (f"resolve_unknowns of {name}", True, lambda p: resolve_unknowns(p).ok, unknown)]
for label, expected, call, *args in table:
    print(label, end="\\t", flush=True)
    start = time.perf_counter()
    got = call(*args)
    print(time.perf_counter() - start, got == expected, flush=True)
"""


def test_every_formula_walk_on_dag_input_under_1_s():
    # run in a child process, which the test stops if a walk does not end
    root = Path(__file__).parents[1]
    try:
        done = subprocess.run([sys.executable, "-c", _DAG_WALKS], cwd=root, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                              timeout=10)
    except subprocess.TimeoutExpired as stopped:
        ran = (stopped.stdout or b"").decode().splitlines()
        label = ran[-1].split("\t")[0] if ran else "setup"
        pytest.fail(f"stopped after 10 s in {label}")
    assert done.returncode == 0, done.stderr[-2000:]
    rows = [line.split("\t") for line in done.stdout.splitlines()]
    assert len(rows) == 25
    slow = [(label, result) for label, result in rows if float(result.split()[0]) >= 1]
    wrong = [label for label, result in rows if result.split()[1] != "True"]
    assert (slow, wrong) == ([], [])


@pytest.mark.parametrize("build, message", [
    (lambda: Var(0), "variable index must be >= 1"),
    (lambda: Const(0), "constant index must be >= 1"),
    (lambda: FuncApp(0, 1, (X1,)), "function letter and arity must be >= 1"),
    (lambda: Atom(1, 0, ()), "predicate letter and arity must be >= 1"),
    (lambda: FuncApp(1, 2, (X1,)), "f{1,2} applied to 1 arguments"),
    (lambda: Atom(1, 1, (X1, X2)), "A{1,1} applied to 2 terms"),
    (lambda: ForAll(0, _ATOM), "variable index must be >= 1"),
    (lambda: Exists(0, _ATOM), "variable index must be >= 1"),
])
def test_constructors_refuse_bad_indices_and_argument_counts(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def _refused(build):
    with pytest.raises(TypeError) as exc:
        build()
    return str(exc.value)


def test_applications_refuse_arguments_that_are_not_terms():
    # such an atom printed as "(~(x1 = x1) = x1)", which does not parse
    # back, and made free_vars raise AttributeError
    negated = Not(eq(X1, X1))
    assert _refused(lambda: Atom(1, 2, (negated, X1))) == f"not a term: {negated!r}"
    exists = Exists(1, eq(X1, X1))
    assert _refused(lambda: Atom(1, 2, (exists, ZERO))) == f"not a term: {exists!r}"
    assert _refused(lambda: Atom(1, 2, (X1, 3))) == "not a term: 3"
    assert _refused(lambda: FuncApp(1, 1, (_ATOM,))) == f"not a term: {_ATOM!r}"
    assert _refused(lambda: FuncApp(1, 2, (X1, "x2"))) == "not a term: 'x2'"


def test_connectives_refuse_children_that_are_not_formulas():
    # Not(Var(1)) and Implies(eq(x1, 0), Var(2)) made free_vars raise IndexError
    assert _refused(lambda: Not(X1)) == "not a formula: Var(index=1)"
    assert _refused(lambda: Not(None)) == "not a formula: None"
    assert _refused(lambda: Implies(eq(X1, ZERO), X2)) == "not a formula: Var(index=2)"
    for connective in (Implies, And, Or, Iff):
        assert _refused(lambda: connective(ZERO, _ATOM)) == "not a formula: Const(index=1)"
        assert _refused(lambda: connective(_ATOM, "A")) == "not a formula: 'A'"


def test_quantifiers_refuse_bodies_that_are_not_formulas():
    for quantifier in (ForAll, Exists):
        assert _refused(lambda: quantifier(1, X2)) == "not a formula: Var(index=2)"
        assert _refused(lambda: quantifier(1, succ(X1))) == f"not a formula: {succ(X1)!r}"
        assert _refused(lambda: quantifier(1, True)) == "not a formula: True"


@pytest.mark.parametrize("call, message", [
    (lambda: syntax._parts(3), "not a syntax node: 3"),
    (lambda: free_vars(X1), "not a formula: Var(index=1)"),
    (lambda: print_term(_ATOM), f"not a term: {_ATOM!r}"),
    (lambda: print_wff(X1), "not a formula: Var(index=1)"),
])
def test_walkers_refuse_what_is_not_a_node_of_their_kind(call, message):
    with pytest.raises(TypeError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("a, b", [
    (FuncApp(1, 1, (X1,)), FuncApp(2, 1, (X1,))),
    (Atom(1, 2, (X1, X2)), Atom(1, 1, (X1,))),
    (Var(1), Var(2)),
    (ForAll(1, _ATOM), ForAll(2, _ATOM)),
], ids=["letter", "arity", "index", "var"])
def test_nodes_with_colliding_hashes_are_told_apart(a, b):
    syntax._set_hash(b, hash(a))          # only a collision takes == past the hashes
    assert hash(a) == hash(b)
    assert a != b and b != a


def test_is_core_is_false_on_terms_and_non_nodes():
    for x in (X1, ZERO, succ(X1), plus(X1, times(X2, X3)), None, 0, "(x1 = 0)", (A,)):
        assert is_core(x) is False
    assert is_core(A) is True and is_core(Not(ForAll(1, Implies(A, B)))) is True
    assert is_core(Not(Or(A, B))) is False and is_core(ForAll(1, Exists(2, A))) is False


# ---------------------------------------------------------------------------
# lowering


A = eq(X1, ZERO)
B = eq(X2, ZERO)


def test_lower_exists():
    assert lower(Exists(1, A)) == Not(ForAll(1, Not(A)))


def test_lower_and():
    assert lower(And(A, B)) == Not(Implies(A, Not(B)))


def test_lower_or():
    assert lower(Or(A, B)) == Implies(Not(A), B)


def test_lower_iff():
    assert lower(Iff(A, B)) == Not(Implies(Implies(A, B), Not(Implies(B, A))))


def _fol_surface(rng, fol, depth):
    """A random surface formula as perfbench/fol.py's tuples."""
    if depth == 0 or rng.random() < 0.25:
        terms = [fol.ZERO, fol.ONE, fol.var(1), fol.var(2), fol.succ(fol.var(3)),
                 fol.plus(fol.var(1), fol.ONE), fol.times(fol.var(2), fol.succ(fol.ZERO))]
        return fol.eq(rng.choice(terms), rng.choice(terms))
    kind = rng.choice(("~", "->", "&", "|", "<->", "all", "ex"))
    if kind == "~":
        return fol.neg(_fol_surface(rng, fol, depth - 1))
    if kind in ("all", "ex"):
        return (kind, rng.randrange(1, 4), _fol_surface(rng, fol, depth - 1))
    return (kind, _fol_surface(rng, fol, depth - 1), _fol_surface(rng, fol, depth - 1))


def test_lower_agrees_with_the_benchmark_oracle():
    # perfbench/fol.py writes the four expansions by hand and imports
    # nothing from foarith
    fol = benchmark_module("fol")
    rng = random.Random(43)
    for _ in range(500):
        w = _fol_surface(rng, fol, 4)
        surface = parse_wff(fol.text(w))
        assert print_wff(surface) == fol.text(w)
        assert print_wff(lower(surface)) == fol.text(fol.lower(w))


_MIRRORED_IFF = ("~", ("->", ("->", "B", "A"), ("~", ("->", "A", "B"))))


def test_every_layer_reads_the_abbreviation_table(monkeypatch):
    # lower, the printer and the evaluator read <-> from the one table, so
    # an equivalent expansion put there is what all three then follow
    x1_side = ForAll(3, eq(plus(X1, X3), X2))
    nested = eq(X1, X2)
    for k in range(40):
        nested = Iff(nested, x1_side if k % 2 else eq(X3, X2))
    env = {1: 1, 2: 2, 3: 2}
    expected = eval_bounded(coded_model(18, 1), lower(nested), env, bound=4).truth
    monkeypatch.setitem(syntax._EXPANSIONS, Iff, _MIRRORED_IFF)
    assert lower(Iff(A, B)) == Not(Implies(Implies(B, A), Not(Implies(A, B))))
    assert print_wff(lower(Iff(A, B)), resugar=True) == "((x1 = 0) <-> (x2 = 0))"
    assert lower(Exists(1, A)) == Not(ForAll(1, Not(A)))
    assert lower(And(A, B)) == Not(Implies(A, Not(B)))
    assert lower(Or(A, B)) == Implies(Not(A), B)
    rng = random.Random(47)
    for _ in range(200):
        w = random_surface_wff(rng, 4, (1, 2, 3))
        core = lower(w)
        assert lower(parse_wff(print_wff(w))) == core
        assert lower(parse_wff(print_wff(core, resugar=True))) == core
    core = lower(nested)
    first, second = _sides(core)        # in the mirrored order
    assert first is x1_side and _sides(second)[0] == eq(X3, X2)
    start = time.perf_counter()
    result = eval_bounded(coded_model(18, 1), core, env, bound=4)
    assert time.perf_counter() - start < 1
    assert result.truth is expected


def test_iff_sides_are_matched_by_equality(monkeypatch):
    # lower() makes each side one object in both places; equal sides built
    # apart match too, and unequal ones do not
    core = lower(Iff(A, B))
    assert syntax._iff_sides(core.body) == (A, B)
    apart = [lower(parse_wff("((x1 = 0) <-> (all x3 (x3 = x2)))")) for _ in range(4)]
    assert apart[0] == apart[3] and apart[0] is not apart[3]
    shape = Implies(Implies(apart[0], apart[1]), Not(Implies(apart[2], apart[3])))
    sides = syntax._iff_sides(shape)
    assert sides[0] is apart[0] and sides[1] is apart[1]
    assert syntax._iff_sides(Implies(Implies(A, B), Not(Implies(B, eq(X3, X2))))) is None
    assert syntax._iff_sides(Implies(A, B)) is None
    monkeypatch.setitem(syntax._EXPANSIONS, Iff, _MIRRORED_IFF)
    assert syntax._iff_sides(lower(Iff(A, B)).body) == (A, B)


@given(surface_wffs)
def test_lower_idempotent(w):
    core = lower(w)
    assert is_core(core)
    assert lower(core) == core


def test_lower_returns_core_formulas_themselves():
    rng = random.Random(29)
    for _ in range(300):
        w = random_core_wff(rng, 5, (1, 2, 3))
        assert lower(w) is w


def test_lower_reuses_unchanged_core_subtrees():
    rng = random.Random(31)
    for _ in range(300):
        w = random_surface_wff(rng, 5, (1, 2, 3))
        kept = {id(s) for s in _nodes(lower(w))}
        for s in _nodes(w):
            if is_core(s):
                assert id(s) in kept, print_wff(s)


def _biconditional(a, b):
    """a <-> b as lower() writes it, with a and b each one object in both places."""
    return Not(Implies(Implies(a, b), Not(Implies(b, a))))


def _sides(w):
    """The two sides of a formula of the shape _biconditional writes,
    checked to be shared between their two places."""
    x, y = w.body.antecedent, w.body.consequent.body
    assert y.antecedent is x.consequent and y.consequent is x.antecedent
    return x.antecedent, x.consequent


def test_walkers_value_each_shared_node_once():
    # 64 nested biconditionals hold 2**64 occurrences of their innermost
    # formula: lower, free_vars and substitute value each distinct node
    # once, and what they build keeps the sharing
    w = Or(eq(X1, X2), eq(X2, ZERO))       # not core, so lower rebuilds every level
    for k in range(64):
        w = _biconditional(w, ForAll(3, eq(plus(X1, X3), X2)) if k % 2 else eq(X3, X2))
    start = time.perf_counter()
    core = lower(w)
    free = free_vars(w)
    instance = substitute(core, 2, succ(X1))
    assert time.perf_counter() - start < 1
    assert is_core(core) and free == {1, 2, 3} and free_vars(instance) == {1, 3}
    innermost = lower(Or(eq(X1, X2), eq(X2, ZERO)))
    for node, want in ((core, innermost), (instance, substitute(innermost, 2, succ(X1)))):
        for _ in range(64):
            node, _ = _sides(node)
        assert node == want


# ---------------------------------------------------------------------------
# free variables and substitution


def test_free_vars():
    assert free_vars(eq(X1, X2)) == {1, 2}
    assert free_vars(ForAll(1, eq(X1, X2))) == {2}
    assert free_vars(ForAll(1, Not(eq(succ(X1), ZERO)))) == frozenset()
    assert term_vars(plus(X1, times(X2, X3))) == {1, 2, 3}


def test_is_free_for():
    w = ForAll(2, eq(X1, X2))
    assert not is_free_for(succ(X2), 1, w)
    assert is_free_for(succ(ZERO), 1, w)
    assert is_free_for(X1, 1, w)


def test_substitute_free_occurrences():
    assert substitute(eq(X1, ZERO), 1, succ(ZERO)) == eq(succ(ZERO), ZERO)


def test_substitute_skips_bound():
    w = ForAll(1, eq(X1, ZERO))
    assert substitute(w, 1, succ(ZERO)) == w


def test_substitute_rejects_capture():
    with pytest.raises(CaptureError):
        substitute(ForAll(2, eq(X1, X2)), 1, X2)


@given(core_wffs)
def test_substitute_identity(w):
    for v in (1, 2, 3):
        assert substitute(w, v, Var(v)) == w


@given(core_wffs)
def test_substitute_free_vars_equation(w):
    t = succ(Var(7))
    if 1 in free_vars(w) and is_free_for(t, 1, w):
        assert free_vars(substitute(w, 1, t)) == (free_vars(w) - {1}) | term_vars(t)


# ---------------------------------------------------------------------------
# inverse substitution


def test_match_witness():
    m = match_substitution_result(eq(X1, ZERO), 1, eq(succ(ZERO), ZERO))
    assert m == Witness(succ(ZERO))


def test_match_disagreement():
    a = eq(X1, X1)
    a_prime = eq(ZERO, succ(ZERO))
    assert match_substitution_result(a, 1, a_prime) == NO_MATCH


def test_match_any_term():
    a = eq(ZERO, ZERO)
    assert match_substitution_result(a, 1, a) == ANY_TERM
    bound = ForAll(1, eq(X1, ZERO))
    assert match_substitution_result(bound, 1, bound) == ANY_TERM


def test_match_rejects_capture():
    a = ForAll(2, eq(X1, X2))
    a_prime = ForAll(2, eq(X2, X2))
    assert match_substitution_result(a, 1, a_prime) == NO_MATCH


def test_match_structural_mismatch():
    assert match_substitution_result(eq(X1, ZERO), 1, Not(eq(X1, ZERO))) == NO_MATCH


@given(core_wffs)
def test_match_recovers_direct_substitution(w):
    t = succ(succ(ZERO))
    if 1 in free_vars(w):
        assert match_substitution_result(w, 1, substitute(w, 1, t)) == Witness(t)


# ---------------------------------------------------------------------------
# golden substitution digest
#
# SHA-256 of the outcomes of substitute, is_free_for and
# match_substitution_result over a seeded corpus: the result's repr, or
# the exception's type and message.  Matching is asked against the true
# instance, the instance with one occurrence of the term changed, and an
# unrelated formula.  The instances are built by _replace_free below,
# which ignores capture, so captured instances are asked too.


GOLDEN_SUBSTITUTION_DIGEST = "fe19e69aec03709fde23d6d1563ac890ce7cf56a4b07d5f06814d00e1373d441"


def _replace_free(w, x, t, odd=None, at=0):
    """w with every free x replaced by t, capture ignored; the free
    occurrence numbered ``at`` (in walk order) gets ``odd`` when given."""
    seen = [0]

    def term(s):
        if isinstance(s, Var):
            if s.index != x:
                return s
            seen[0] += 1
            return odd if odd is not None and seen[0] - 1 == at else t
        if isinstance(s, FuncApp):
            return FuncApp(s.letter, s.arity, tuple(term(u) for u in s.args))
        return s

    def wff(w):
        if isinstance(w, Atom):
            return Atom(w.letter, w.arity, tuple(term(s) for s in w.terms))
        if isinstance(w, (ForAll, Exists)):
            return w if w.var == x else type(w)(w.var, wff(w.body))
        if isinstance(w, Not):
            return Not(wff(w.body))
        if isinstance(w, Implies):
            return Implies(wff(w.antecedent), wff(w.consequent))
        return type(w)(wff(w.left), wff(w.right))

    return wff(w)


def _outcome(f, *args):
    try:
        return repr(f(*args))
    except (CaptureError, TypeError, ValueError) as exc:
        return f"{type(exc).__name__}: {exc}"


def test_substitution_golden_digest():
    rng = random.Random(11)
    vars_ = (1, 2, 3)
    formulas = ([random_surface_wff(rng, 4, vars_) for _ in range(500)]
                + [random_core_wff(rng, 4, vars_) for _ in range(500)])

    def some_term():
        kind = rng.randrange(3)
        if kind == 0:
            return random_term(rng, 2, vars_)
        if kind == 1:
            return random_generic_term(rng, 2, vars_)
        return Var(rng.choice(vars_))

    lines = []
    for w in formulas:
        for x in vars_:
            t, odd = some_term(), some_term()
            lines.append(_outcome(substitute, w, x, t))
            lines.append(_outcome(is_free_for, t, x, w))
            for a_prime in (_replace_free(w, x, t),
                            _replace_free(w, x, t, odd, rng.randrange(3)),
                            rng.choice(formulas)):
                lines.append(_outcome(match_substitution_result, w, x, a_prime))
    assert _digest(lines) == GOLDEN_SUBSTITUTION_DIGEST
