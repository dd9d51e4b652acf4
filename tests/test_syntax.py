import copy
import hashlib
import pickle
import random
import re
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given

from conftest import (
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
from foarith.kernel import UNKNOWN, Proof, ProofLine, SchemeId, check_proof, match_scheme
from foarith.proofio import builtin_theories, format_proof, parse_proof_file
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


@pytest.mark.parametrize("kind, text, expected", PARSE_EDGE_CASES,
                         ids=[ascii(text[:30]) for _, text, _ in PARSE_EDGE_CASES])
def test_parse_edge_cases(kind, text, expected):
    assert parse_outcome(syntax, kind, text) == expected


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
