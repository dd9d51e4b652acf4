import hashlib
import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    benchmark_module,
    random_core_wff,
    random_proof_corpus,
    random_scheme_instance,
    random_term,
    to_fol,
)
from foarith.kernel import (
    DiscoveryResult,
    Gen,
    LineVerdict,
    MP,
    Proof,
    ProofLine,
    ProperAxiom,
    Scheme,
    SchemeId,
    SchemeMatch,
    TheoryError,
    UNKNOWN,
    build_theory_K,
    build_theory_N,
    build_theory_N_eq,
    check_proof,
    discover,
    extend_theory,
    match_scheme,
    recognize_scheme,
    resolve_unknowns,
)
from foarith.models import ThreeValued, coded_model, eval_bounded
from foarith.proofio import format_proof
from foarith.syntax import (
    And,
    ForAll,
    Implies,
    Not,
    Var,
    ZERO,
    eq,
    free_vars,
    is_core,
    parse_core,
    plus,
    print_wff,
    substitute,
    succ,
)

K = build_theory_K()
N = build_theory_N()


# ---------------------------------------------------------------------------
# theories


def test_theory_K_has_no_proper_axioms():
    assert K.axioms() == {}
    assert K.schemes == frozenset({SchemeId.K1, SchemeId.K2, SchemeId.K3,
                                   SchemeId.K4, SchemeId.K5, SchemeId.K6})


def test_theory_N_extends_K():
    assert N.parent == K
    assert SchemeId.N7 in N.schemes
    assert list(N.axioms()) == ["N1", "N2", "N3", "N4", "N5", "N6"]


def test_theory_N_axioms_match_parsed_strings():
    texts = {
        "N1": "(all x1 ~(S(x1) = 0))",
        "N2": "(all x1 (all x2 ((S(x1) = S(x2)) -> (x1 = x2))))",
        "N3": "(all x1 ((x1 + 0) = x1))",
        "N4": "(all x1 (all x2 ((x1 + S(x2)) = S((x1 + x2)))))",
        "N5": "(all x1 ((x1 * 0) = 0))",
        "N6": "(all x1 (all x2 ((x1 * S(x2)) = ((x1 * x2) + x1))))",
    }
    for name, text in texts.items():
        assert N.axiom(name) == parse_core(text), name


def test_extend_theory_empty_is_conservative():
    nstar = extend_theory(N, "Nstar", {})
    assert nstar.axioms() == N.axioms()
    assert nstar.schemes == N.schemes


def test_extend_theory_adds_axiom():
    w = parse_core("(all x1 (x1 = x1))")
    nstar = extend_theory(N, "Nstar", {"E": w})
    proof = Proof(nstar, (ProofLine(w, ProperAxiom("E")),))
    assert check_proof(proof).accepted


def test_extend_theory_rejects_duplicate_name():
    with pytest.raises(TheoryError, match="already defined"):
        extend_theory(N, "bad", {"N3": parse_core("(all x1 (x1 = x1))")})


def test_extend_theory_rejects_open_axiom():
    with pytest.raises(TheoryError, match="open"):
        extend_theory(N, "bad", {"E": parse_core("(x1 = x1)")})


def test_extend_theory_rejects_surface_axiom():
    with pytest.raises(TheoryError, match="core"):
        extend_theory(N, "bad", {"E": And(eq(ZERO, ZERO), eq(ZERO, ZERO))})


def test_theory_N_eq_axioms_are_closed_core():
    neq = build_theory_N_eq()
    assert "eq-refl" in neq.axioms()
    assert all(not free_vars(w) for w in neq.axioms().values())
    assert set(N.axioms()) < set(neq.axioms())


# ---------------------------------------------------------------------------
# scheme recognition


def test_recognize_k1_example():
    m = recognize_scheme(N, parse_core("((0=0) -> ((S(0)=0) -> (0=0)))"))
    assert m.scheme is SchemeId.K1
    assert m.parts["A"] == eq(ZERO, ZERO)
    assert m.parts["B"] == eq(succ(ZERO), ZERO)


def test_recognize_k5_example_with_witness():
    m = recognize_scheme(N, parse_core("((all x1 (x1=0)) -> (S(0)=0))"))
    assert m.scheme is SchemeId.K5
    assert m.parts["term"] == succ(ZERO)


def test_recognize_n7_example():
    text = "((0=0) -> ((all x1 ((x1=x1) -> (S(x1)=S(x1)))) -> (all x1 (x1=x1))))"
    m = recognize_scheme(N, parse_core(text))
    assert m.scheme is SchemeId.N7
    assert m.parts["A"] == eq(Var(1), Var(1))


def test_scheme_match_parts_are_read_only():
    parts = {"A": eq(ZERO, ZERO)}
    m = SchemeMatch(SchemeId.K1, parts)
    parts["B"] = eq(ZERO, ZERO)                   # the match keeps a copy
    assert dict(m.parts) == {"A": eq(ZERO, ZERO)}
    m = recognize_scheme(N, parse_core("((0=0) -> ((S(0)=0) -> (0=0)))"))
    with pytest.raises(TypeError):
        m.parts["A"] = eq(succ(ZERO), ZERO)
    with pytest.raises(TypeError):
        del m.parts["B"]
    assert m.parts == {"A": eq(ZERO, ZERO), "B": eq(succ(ZERO), ZERO)}


def test_recognize_atom_is_no_scheme():
    assert recognize_scheme(N, parse_core("(0=0)")) is None


def test_recognition_order_k4_before_k5():
    # closed body: both a K4 and a vacuous K5 instance; K4 wins the scan
    w = parse_core("((all x1 (0=0)) -> (0=0))")
    assert recognize_scheme(N, w).scheme is SchemeId.K4
    assert match_scheme(SchemeId.K5, w) is not None


def test_k5_side_condition_capture():
    # witness term x2 is captured under the inner binder
    w = Implies(ForAll(1, ForAll(2, eq(Var(1), Var(2)))),
                ForAll(2, eq(Var(2), Var(2))))
    assert match_scheme(SchemeId.K5, w) is None
    assert recognize_scheme(N, w) is None


def test_k4_side_condition_free_variable():
    w = Implies(ForAll(1, eq(Var(1), ZERO)), eq(Var(1), ZERO))
    assert match_scheme(SchemeId.K4, w) is None
    # the same shape is still a legitimate K5 instance with witness x1
    assert recognize_scheme(N, w).scheme is SchemeId.K5


def test_k6_side_condition_free_occurrence():
    body = Implies(eq(Var(1), ZERO), eq(Var(1), Var(1)))
    w = Implies(ForAll(1, body), Implies(eq(Var(1), ZERO), ForAll(1, eq(Var(1), Var(1)))))
    assert match_scheme(SchemeId.K6, w) is None
    assert recognize_scheme(N, w) is None


def test_n7_requires_x1_by_default():
    body = eq(plus(Var(2), ZERO), Var(2))
    w = Implies(substitute(body, 2, ZERO),
                Implies(ForAll(2, Implies(body, substitute(body, 2, succ(Var(2))))),
                        ForAll(2, body)))
    assert recognize_scheme(N, w) is None
    # induction on x2 whose step substitutes S(x1): only the variable is off
    w = parse_core("((~(0 = 0) -> (0 = S(x1))) -> ((all x2 ((~(x2 = 0) -> (x2 = S(x1))) -> "
                   "(~(S(x1) = 0) -> (S(x1) = S(x1))))) -> (all x2 (~(x2 = 0) -> (x2 = S(x1))))))")
    assert match_scheme(SchemeId.N7, w) is None
    assert recognize_scheme(N, w) is None


def test_n7_requires_induction_variable_free():
    body = eq(ZERO, ZERO)
    w = Implies(body, Implies(ForAll(1, Implies(body, body)), ForAll(1, body)))
    assert match_scheme(SchemeId.N7, w) is None


def test_generated_scheme_instances_recognized(rng):
    for _ in range(120):
        name = rng.choice(["K1", "K2", "K3", "K4", "K5", "K6", "N7"])
        w = random_scheme_instance(rng, name)
        m = recognize_scheme(N, w)
        assert m is not None, print_wff(w)
        assert m.scheme.value == name, (name, m.scheme.value, print_wff(w))


def _perturb(rng, w):
    """w with the subformula at the end of a random path replaced."""
    if rng.random() < 0.75:
        if isinstance(w, Implies):
            if rng.random() < 0.5:
                return Implies(_perturb(rng, w.antecedent), w.consequent)
            return Implies(w.antecedent, _perturb(rng, w.consequent))
        if isinstance(w, Not):
            return Not(_perturb(rng, w.body))
        if isinstance(w, ForAll):
            return ForAll(w.var, _perturb(rng, w.body))
    return random_core_wff(rng, 1, (1, 2, 3))


def _rebind(rng, w):
    """w with the variable of one quantifier on a random path changed."""
    if isinstance(w, ForAll):
        if rng.random() < 0.5:
            return ForAll(rng.choice([v for v in (1, 2, 3) if v != w.var]), w.body)
        return ForAll(w.var, _rebind(rng, w.body))
    if isinstance(w, Implies):
        if rng.random() < 0.5:
            return Implies(_rebind(rng, w.antecedent), w.consequent)
        return Implies(w.antecedent, _rebind(rng, w.consequent))
    if isinstance(w, Not):
        return Not(_rebind(rng, w.body))
    return w


def _induction_instance(rng, v):
    """An N7-shaped formula on the induction variable x<v>."""
    body = eq(plus(Var(v), random_term(rng, 1, (v, 2))), random_term(rng, 1, (v, 3)))
    return Implies(substitute(body, v, ZERO),
                   Implies(ForAll(v, Implies(body, substitute(body, v, succ(Var(v))))),
                           ForAll(v, body)))


def _scheme_near_misses(rng, name):
    """A scheme instance, then formulas that miss that scheme by a little."""
    w = random_scheme_instance(rng, name)
    out = [w, Implies(w.consequent, w.antecedent), _rebind(rng, w), _perturb(rng, w)]
    if name == "K4":     # x1 may be free in the body
        a = random_core_wff(rng, 2, (1, 2))
        out.append(Implies(ForAll(1, a), a))
    elif name == "K5":   # the witness term is captured by the inner x2
        body = eq(plus(Var(1), Var(2)), random_term(rng, 1, (1, 2)))
        t = rng.choice((Var(2), succ(Var(2)), plus(Var(2), Var(1))))
        out.append(Implies(ForAll(1, ForAll(2, body)), ForAll(2, substitute(body, 1, t))))
    elif name == "K6":   # x1 may be free in the antecedent
        a, b = random_core_wff(rng, 1, (1, 2)), random_core_wff(rng, 1, (1, 2))
        out.append(Implies(ForAll(1, Implies(a, b)), Implies(a, ForAll(1, b))))
    elif name == "N7":   # induction on x1, x2 or x3
        out.append(_induction_instance(rng, rng.choice((1, 2, 3))))
    return out


def _scheme_digest(n_rounds):
    rng = random.Random(8)
    h = hashlib.sha256()
    for _ in range(n_rounds):
        for name in _SCHEMES:
            for w in _scheme_near_misses(rng, name):
                found = [match_scheme(s, w) for s in SchemeId]
                found += [recognize_scheme(K, w), recognize_scheme(N, w)]
                for m in found:
                    key = None if m is None else (m.scheme.value, sorted(m.parts.items()))
                    h.update(repr(key).encode() + b"\n")
    return h.hexdigest()


# SHA-256 of every match_scheme and recognize_scheme answer on seeded scheme
# instances and near-misses, recorded before the schemes became a table of
# shapes.  Any change in what a scheme accepts, or in its parts, shows here.
GOLDEN_SCHEME_DIGEST = "22ec3effa069a82657f97353ab2e99a0640f252d7cb3a7efb92f6a3016719dcd"


def test_scheme_recognition_golden_digest():
    assert _scheme_digest(250) == GOLDEN_SCHEME_DIGEST


def _side_condition_misses(rng):
    """Formulas that pass a shape of K4, K5, K6 or N7 and break its side
    condition, each in one way."""
    x1, x2 = Var(1), Var(2)
    # N7 on x2, its step on S(x2), or on S(x1) as the induction on x1 has it
    body = eq(plus(x2, random_term(rng, 1, (2, 3))), random_term(rng, 1, (2, 3)))
    out = [Implies(substitute(body, 2, ZERO),
                   Implies(ForAll(2, Implies(body, substitute(body, 2, step))), ForAll(2, body)))
           for step in (succ(x2), succ(x1))]
    # K4 and K6 with x1 free in A
    a = random_core_wff(rng, 2, (1, 2))
    while 1 not in free_vars(a):
        a = random_core_wff(rng, 2, (1, 2))
    b = random_core_wff(rng, 1, (1, 2))
    out += [Implies(ForAll(1, a), a), Implies(ForAll(1, Implies(a, b)), Implies(a, ForAll(1, b)))]
    # K5 with A(t) written as if t, which holds x2, were free for x1 under (all x2 ...)
    inner = eq(plus(x1, x2), random_term(rng, 1, (1, 2)))
    t = rng.choice((x2, succ(x2), plus(x2, x1)))
    out.append(Implies(ForAll(1, ForAll(2, inner)), ForAll(2, substitute(inner, 1, t))))
    # N7 with A(0) or A(S(x1)) one successor off
    body = eq(plus(x1, random_term(rng, 1, (1, 2))), random_term(rng, 1, (1, 3)))
    base, step = substitute(body, 1, ZERO), substitute(body, 1, succ(x1))
    for base, step in ((substitute(body, 1, succ(ZERO)), step),
                       (base, substitute(body, 1, succ(succ(x1)))), (base, body)):
        out.append(Implies(base, Implies(ForAll(1, Implies(body, step)), ForAll(1, body))))
    return out


def test_schemes_agree_with_the_benchmark_oracle():
    # perfbench/fol.py states each scheme by hand on nested tuples and
    # imports nothing from foarith: the kernel must accept what it accepts,
    # on scheme instances, their near-misses and broken side conditions
    fol = benchmark_module("fol")
    rng = random.Random(41)
    formulas = []
    for _ in range(40):
        for name in _SCHEMES:
            formulas += _scheme_near_misses(rng, name)
        formulas += _side_condition_misses(rng)
    accepted = 0
    for w in formulas:
        tuples = to_fol(w)
        for scheme in SchemeId:
            found = match_scheme(scheme, w) is not None
            assert found == fol.is_instance(scheme.value, tuples), (scheme.value, print_wff(w))
            accepted += found
    assert accepted > len(formulas) / 3


# ---------------------------------------------------------------------------
# the five-line derivation of ((0=0) -> (0=0))


A0 = eq(ZERO, ZERO)
AA = Implies(A0, A0)
FIVE_LINES = (
    ProofLine(Implies(Implies(A0, Implies(AA, A0)),
                      Implies(Implies(A0, AA), AA)), Scheme(SchemeId.K2)),
    ProofLine(Implies(A0, Implies(AA, A0)), Scheme(SchemeId.K1)),
    ProofLine(Implies(Implies(A0, AA), AA), MP(2, 1)),
    ProofLine(Implies(A0, AA), Scheme(SchemeId.K1)),
    ProofLine(AA, MP(4, 3)),
)


def five_line_proof(theory=K):
    return Proof(theory, FIVE_LINES)


def test_five_line_proof_accepted():
    verdict = check_proof(five_line_proof())
    assert verdict.accepted
    assert all(v.ok for v in verdict.per_line)


def test_mp_swapped_indices_rejected():
    lines = list(FIVE_LINES)
    lines[2] = ProofLine(lines[2].wff, MP(1, 1))
    verdict = check_proof(Proof(K, tuple(lines)))
    assert not verdict.accepted
    bad = verdict.per_line[2]
    assert not bad.ok and bad.reason == "major premise shape mismatch"


def test_wrong_scheme_tag_rejected():
    lines = list(FIVE_LINES)
    lines[1] = ProofLine(lines[1].wff, Scheme(SchemeId.K3))
    verdict = check_proof(Proof(K, tuple(lines)))
    assert not verdict.accepted
    assert verdict.per_line[1].reason == "not a K3 instance"


def test_mutated_wff_rejected():
    lines = list(FIVE_LINES)
    lines[3] = ProofLine(Implies(A0, Implies(A0, eq(succ(ZERO), ZERO))),
                         lines[3].justification)
    verdict = check_proof(Proof(K, tuple(lines)))
    assert not verdict.accepted
    assert not verdict.per_line[3].ok


def test_unknown_justification_rejected():
    proof = Proof(K, (ProofLine(A0, UNKNOWN),))
    verdict = check_proof(proof)
    assert not verdict.accepted
    assert "unresolved" in verdict.per_line[0].reason


def test_mp_out_of_range_rejected():
    proof = Proof(K, (ProofLine(A0, MP(1, 2)),))
    verdict = check_proof(proof)
    assert not verdict.accepted
    assert "not an earlier line" in verdict.per_line[0].reason


def test_proper_axiom_line():
    proof = Proof(N, (ProofLine(N.axiom("N3"), ProperAxiom("N3")),))
    assert check_proof(proof).accepted
    proof = Proof(N, (ProofLine(N.axiom("N3"), ProperAxiom("N4")),))
    assert not check_proof(proof).accepted
    proof = Proof(K, (ProofLine(N.axiom("N3"), ProperAxiom("N3")),))
    verdict = check_proof(proof)
    assert "no proper axiom" in verdict.per_line[0].reason


def test_gen_shape():
    w = N.axiom("N3")
    proof = Proof(N, (ProofLine(w, ProperAxiom("N3")),
                      ProofLine(ForAll(5, w), Gen(1, 5))))
    assert check_proof(proof).accepted
    proof = Proof(N, (ProofLine(w, ProperAxiom("N3")),
                      ProofLine(ForAll(5, w), Gen(1, 4))))
    verdict = check_proof(proof)
    assert verdict.per_line[1].reason == "generalization shape mismatch"


def test_prefix_closure():
    proof = five_line_proof()
    for k in range(1, len(proof.lines) + 1):
        assert check_proof(Proof(K, proof.lines[:k])).accepted


def test_extension_monotonicity():
    proof = five_line_proof(N)
    assert check_proof(proof).accepted
    nstar = extend_theory(N, "Nstar", {"E": parse_core("(all x1 (x1 = x1))")})
    assert check_proof(Proof(nstar, proof.lines)).accepted


# ---------------------------------------------------------------------------
# discovery


def test_discover_reproduces_five_line_annotations():
    result = discover(K, [line.wff for line in FIVE_LINES])
    assert result.ok
    assert tuple(l.justification for l in result.proof.lines) == \
        tuple(l.justification for l in FIVE_LINES)
    assert check_proof(result.proof).accepted


def test_discover_proper_axiom():
    result = discover(N, [N.axiom("N1")])
    assert result.ok
    assert result.proof.lines[0].justification == ProperAxiom("N1")


def test_discover_failure_on_non_axiom():
    result = discover(N, [eq(ZERO, ZERO)])
    assert not result.ok
    assert result.failures[0].line == 1
    assert result.failures[0].reason == "not an axiom; no earlier lines"


def test_discover_reports_all_unjustifiable_lines():
    result = discover(N, [eq(ZERO, ZERO), Not(eq(ZERO, ZERO))])
    assert [f.line for f in result.failures] == [1, 2]


def test_discover_random_corpus(rng):
    wffs = random_proof_corpus(rng, N, 20)
    assert len(wffs) == 20
    result = discover(N, wffs)
    assert result.ok, result.failures
    assert check_proof(result.proof).accepted


@pytest.mark.parametrize("seed", range(8))
def test_discover_annotates_k6_lines(seed):
    # random_proof_corpus draws no K6 instance (its output is pinned by the
    # golden digests below), so K6 lines are mixed into a corpus here
    rng = random.Random(seed)
    wffs = random_proof_corpus(rng, N, 12)
    k6_at = sorted(rng.sample(range(len(wffs) + 4), 4))
    for k in k6_at:
        wffs.insert(k, random_scheme_instance(rng, "K6"))
    result = discover(N, wffs)
    assert result.ok, result.failures
    assert check_proof(result.proof).accepted
    for k in k6_at:
        assert result.proof.lines[k].justification == Scheme(SchemeId.K6), k


def test_discover_gen_and_mp():
    w = N.axiom("N3")
    k1 = Implies(w, Implies(A0, w))
    result = discover(N, [w, k1, Implies(A0, w), ForAll(7, w)])
    assert result.ok
    justs = [l.justification for l in result.proof.lines]
    assert justs[0] == ProperAxiom("N3")
    assert justs[1] == Scheme(SchemeId.K1)
    assert justs[2] == MP(1, 2)
    assert justs[3] == Gen(1, 7)


def test_discover_reports_non_core_line():
    result = discover(N, [And(eq(ZERO, ZERO), eq(ZERO, ZERO))])
    assert not result.ok
    assert result.failures == (LineVerdict(1, False, "not a core wff"),)


def test_discovery_results_are_whole_values():
    failed = discover(N, [N.axiom("N1"), eq(succ(ZERO), ZERO)])
    assert failed.failures == (LineVerdict(2, False, "not an axiom; no MP or Gen derivation "
                                                     "from earlier lines"),)
    with pytest.raises(AttributeError):
        failed.failures.append(LineVerdict(1, False, "no"))
    assert DiscoveryResult(None, [LineVerdict(1, False, "no")]).failures == (
        LineVerdict(1, False, "no"),)
    found = discover(N, [N.axiom("N1")])
    assert found.ok and found.failures == ()
    assert hash(found) == hash(discover(N, [N.axiom("N1")]))
    assert hash(failed) == hash((None, failed.failures))


def test_resolve_unknowns_reports_non_core_line():
    # line 3 follows from lines 1 and 2 by MP, but it is not a core wff, so
    # it is reported instead of searched
    w = And(A0, A0)
    lines = (ProofLine(A0, Scheme(SchemeId.K1)),
             ProofLine(Implies(A0, w), Scheme(SchemeId.K1)),
             ProofLine(w, UNKNOWN))
    result = resolve_unknowns(Proof(K, lines))
    assert not result.ok
    assert result.failures == (LineVerdict(3, False, "not a core wff"),)


def test_proof_needs_a_line_and_concludes_with_its_last():
    with pytest.raises(ValueError, match=r"^a proof must have at least one line$"):
        Proof(K, ())
    assert Proof(K, FIVE_LINES).conclusion == FIVE_LINES[-1].wff == AA


@pytest.mark.parametrize("line, reason", [
    (ProofLine(And(A0, A0), Scheme(SchemeId.K1)), "not a core wff (lower abbreviations first)"),
    (ProofLine(A0, Scheme(SchemeId.N7)), "scheme N7 is not part of theory K"),
    (ProofLine(ForAll(1, A0), Gen(2, 1)), "GEN cites line 2, which is not an earlier line"),
    (ProofLine(A0, "K1"), "unrecognized justification 'K1'"),
    # a line that cites itself
    (ProofLine(ForAll(1, A0), Gen(1, 1)), "GEN cites line 1, which is not an earlier line"),
    (ProofLine(A0, MP(1, 1)), "MP cites line 1, which is not an earlier line"),
    # a name that is no str, which only a library caller builds, is shown whole
    (ProofLine(A0, ProperAxiom(5)), "theory K has no proper axiom 5"),
])
def test_check_proof_reports_a_bad_line(line, reason):
    verdict = check_proof(Proof(K, (line,)))
    assert not verdict.accepted
    assert verdict.per_line == (LineVerdict(1, False, reason),)


def test_match_scheme_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        match_scheme("K9", AA)


def test_resolve_unknowns_keeps_given_annotations():
    lines = list(FIVE_LINES)
    lines[2] = ProofLine(lines[2].wff, UNKNOWN)
    lines[4] = ProofLine(lines[4].wff, UNKNOWN)
    result = resolve_unknowns(Proof(K, tuple(lines)))
    assert result.ok
    assert result.proof.lines[2].justification == MP(2, 1)
    assert result.proof.lines[4].justification == MP(4, 3)
    assert result.proof.lines[0].justification == Scheme(SchemeId.K2)


# SHA-256 of format_proof(discover(...).proof), recorded before discovery
# was folded into resolve_unknowns.  Any change to the search order or to
# the justification chosen for a line shows up here.
GOLDEN_CORPUS_DIGESTS = {
    0: "b12b8da4d43c3b51d836b353eabbe6b0bf224433db6202b8e6dcd0cbd4bd106a",
    1: "bbbc198c1102901b3595e423599a9042502ff0620606bf73b4476ca1962a9221",
    2: "f1bbcf5daa79e006ab964c5e6bbe6b221251396b5662c679c89b4594bec1da1c",
}
GOLDEN_FIVE_LINE_DIGEST = "d2d04d61d36d3a1ee3abc21a66cff476a245b9e0ecfe48bfefc8589c52262b7b"


def _proof_digest(result):
    assert result.ok, result.failures
    return hashlib.sha256(format_proof(result.proof).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN_CORPUS_DIGESTS))
def test_discover_golden_corpus(seed):
    wffs = random_proof_corpus(random.Random(seed), N, 200)
    assert _proof_digest(discover(N, wffs)) == GOLDEN_CORPUS_DIGESTS[seed]


def test_discover_golden_five_lines():
    wffs = [line.wff for line in FIVE_LINES]
    assert _proof_digest(discover(K, wffs)) == GOLDEN_FIVE_LINE_DIGEST


# The same digests for longer corpora (seed 0), recorded while discovery
# still scanned every pair of earlier lines: 800 lines took 24 s and 2000
# lines 6 minutes (Python 3.11, 2 cores), against 0.03 s and 0.12 s for the
# lookup.  A bound of a few seconds on 2000 lines catches any return to
# super-linear search.
GOLDEN_LARGE_CORPUS_DIGESTS = {
    800: "3eef1b1e13a58892452701c72bea2c6e442141eeb39c4d32c200248e0d0ffe65",
    2000: "0f9befedd12c5feb91af3eb4df3d422af7bbcbf734cdcc8c140f7d5509349954",
}


@pytest.mark.parametrize("n_lines", sorted(GOLDEN_LARGE_CORPUS_DIGESTS))
def test_discover_golden_large_corpus(n_lines):
    wffs = random_proof_corpus(random.Random(0), N, n_lines)
    start = time.perf_counter()
    result = discover(N, wffs)
    elapsed = time.perf_counter() - start
    assert _proof_digest(result) == GOLDEN_LARGE_CORPUS_DIGESTS[n_lines]
    assert elapsed < 5.0


# ---------------------------------------------------------------------------
# discovery oracle: the quadratic search that the indices replaced


def _quadratic_justification(theory, earlier, wff):
    """Axiom table, schemes, then MP over every pair of earlier lines
    (minor premise ascending, then major), then Gen; first hit wins."""
    for name, axiom in theory.axioms().items():
        if wff == axiom:
            return ProperAxiom(name)
    m = recognize_scheme(theory, wff)
    if m is not None:
        return Scheme(m.scheme)
    n = len(earlier)
    for i in range(1, n + 1):
        wanted = Implies(earlier[i - 1], wff)
        for j in range(1, n + 1):
            if earlier[j - 1] == wanted:
                return MP(i, j)
    if isinstance(wff, ForAll):
        for i in range(1, n + 1):
            if earlier[i - 1] == wff.body:
                return Gen(i, wff.var)
    return None


def _quadratic_resolve(proof):
    """Justifications and failures as the quadratic search chose them."""
    justs, failures, earlier = [], [], []
    for number, line in enumerate(proof.lines, 1):
        just = line.justification
        if just == UNKNOWN:
            if not is_core(line.wff):
                failures.append(number)
            else:
                just = _quadratic_justification(proof.theory, earlier, line.wff)
                if just is None:
                    failures.append(number)
        justs.append(just)
        earlier.append(line.wff)
    return justs, failures


def _search_order_corpus(rng, n_lines):
    """Lines that exercise the search order.

    A small pool of formulas makes duplicated lines and several MP
    candidates for one conclusion common.  There are generalizations of
    duplicated lines, K6 instances, proper axioms, and non-core lines,
    most of them with a given justification so that they stay in the proof.
    """
    pool = [random_core_wff(rng, 1, (1, 2)) for _ in range(4)]
    axioms = list(N.axioms().values())
    lines = []
    while len(lines) < n_lines:
        earlier = [line.wff for line in lines]
        roll = rng.randrange(8)
        if roll == 0 or not lines:
            w = rng.choice(pool)
        elif roll == 1:
            w = Implies(rng.choice(pool + earlier), rng.choice(pool))
        elif roll == 2:
            implications = [e for e in earlier if isinstance(e, Implies)]
            w = rng.choice(implications).consequent if implications else rng.choice(pool)
        elif roll == 3:
            w = ForAll(rng.choice((1, 2)), rng.choice(pool + earlier))
        elif roll == 4:
            w = random_scheme_instance(rng, rng.choice(("K6", "K6", "K1")))
        elif roll == 5:
            w = rng.choice(axioms)
        elif roll == 6:
            w = rng.choice(earlier)
        else:
            w = rng.choice((And, Implies))(rng.choice(pool), And(rng.choice(pool), A0))
        given = (not is_core(w) and rng.random() < 0.8) or rng.random() < 0.1
        lines.append(ProofLine(w, Scheme(SchemeId.K1) if given else UNKNOWN))
    return lines


def _resolved(proof, failed):
    """Justifications from resolve_unknowns, with the ``failed`` lines given
    a placeholder annotation so that the rest of the proof comes back."""
    lines = [ProofLine(line.wff, Scheme(SchemeId.K1)) if number in failed else line
             for number, line in enumerate(proof.lines, 1)]
    result = resolve_unknowns(Proof(proof.theory, lines))
    assert result.ok, result.failures
    return [line.justification for line in result.proof.lines]


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1))
def test_discovery_matches_quadratic_search(seed):
    rng = random.Random(seed)
    proof = Proof(N, _search_order_corpus(rng, rng.randrange(4, 40)))
    justs, failed = _quadratic_resolve(proof)
    assert [f.line for f in resolve_unknowns(proof).failures] == failed
    got = _resolved(proof, set(failed))
    assert [j for k, j in enumerate(got, 1) if k not in failed] == \
        [j for k, j in enumerate(justs, 1) if k not in failed]


def test_discovery_mp_tie_break():
    # two MP routes to AA: minor premise line 1 with major line 4, and
    # minor premise line 2 with major line 3; the least minor premise wins
    b = Not(A0)
    lines = [ProofLine(w, Scheme(SchemeId.K1)) for w in (b, A0, Implies(A0, AA), Implies(b, AA))]
    proof = Proof(K, lines + [ProofLine(AA, UNKNOWN)])
    assert resolve_unknowns(proof).proof.lines[4].justification == MP(1, 4)
    assert _quadratic_resolve(proof)[0][4] == MP(1, 4)


def test_discovery_gen_cites_first_copy():
    w = N.axiom("N3")
    result = discover(N, [w, w, ForAll(2, w)])
    assert [line.justification for line in result.proof.lines] == \
        [ProperAxiom("N3"), ProperAxiom("N3"), Gen(1, 2)]


# ---------------------------------------------------------------------------
# soundness oracle: the finite structure Z_m
#
# With successor, sum and product taken mod m and quantifiers cut off at
# m - 1, a coded model is the finite structure Z_m.  Every instance of
# K1..K6 is valid there, and so is every N7 instance, because every
# element is reached from 0 by successor; MP and Gen preserve validity.
# N1 fails there (S(m - 1) = 0), so the corpus below has no proper-axiom
# lines.  Each accepted line must then be True under every assignment.

Z_M = 5
Z_MODEL = coded_model(18, 1, succ_index=lambda n: (n + 1) % Z_M,
                      add_index=lambda m, n: (m + n) % Z_M,
                      mul_index=lambda m, n: (m * n) % Z_M)
_SCHEMES = ("K1", "K2", "K3", "K4", "K5", "K6", "N7")


def _counterexample_in_z_m(w):
    names = sorted(free_vars(w))
    for values in itertools.product(range(Z_M), repeat=len(names)):
        env = dict(zip(names, values))
        r = eval_bounded(Z_MODEL, w, env, bound=Z_M - 1, domain_cutoff=True)
        if r.truth is not ThreeValued.TRUE:
            return env
    return None


def _mutate(rng, lines):
    """One random edit of a proof; some keep it accepted, most do not."""
    lines = list(lines)
    k = rng.randrange(1, len(lines))
    wff, just = lines[k].wff, lines[k].justification
    kind = rng.randrange(6)
    if kind == 0:      # another formula under the same justification
        lines[k] = ProofLine(random_core_wff(rng, 2, (1, 2, 3)), just)
    elif kind == 5:    # another formula cited as a proper axiom of N
        lines[k] = ProofLine(random_core_wff(rng, 2, (1, 2, 3)),
                             ProperAxiom(f"N{rng.randint(1, 6)}"))
    elif kind == 1:    # cite other earlier lines
        lines[k] = ProofLine(wff, MP(rng.randint(1, k), rng.randint(1, k)))
    elif kind == 2:    # generalize an earlier line
        i, v = rng.randint(1, k), rng.choice((1, 2, 3))
        lines[k] = ProofLine(ForAll(v, lines[i - 1].wff), Gen(i, v))
    elif kind == 3:    # a fresh scheme instance
        name = rng.choice(_SCHEMES)
        lines[k] = ProofLine(random_scheme_instance(rng, name), Scheme(SchemeId[name]))
    else:              # swap two lines
        j = rng.randrange(len(lines))
        lines[k], lines[j] = lines[j], lines[k]
    return lines


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3))
def test_accepted_lines_hold_in_z_m(seed, edits):
    rng = random.Random(seed)
    found = discover(N, random_proof_corpus(rng, K, rng.randrange(8, 25)))
    assert found.ok, found.failures
    lines = found.proof.lines
    for _ in range(edits):
        lines = _mutate(rng, lines)
    verdict = check_proof(Proof(N, lines))
    for line, checked in zip(lines, verdict.per_line):
        if not checked.ok:
            break          # later lines may cite this one
        assert not isinstance(line.justification, ProperAxiom)
        env = _counterexample_in_z_m(line.wff)
        assert env is None, (checked.line, print_wff(line.wff), env)


# ---------------------------------------------------------------------------
# soundness oracle: the coded models at every state u
#
# A coded model carries successor, sum and product over from the indices,
# so it satisfies N1..N6 at every slope u, and so does an extension of N by
# axioms true in the naturals.  The honest evaluator reports False only on
# a concrete counterexample within the bound, so no accepted line, proper
# axiom lines included, may evaluate False there.

NSTAR = extend_theory(N, "N*", {
    "add-comm": parse_core("(all x1 (all x2 ((x1 + x2) = (x2 + x1))))"),
    "mul-one": parse_core("(all x1 ((x1 * S(0)) = x1))"),
})
STATES = (1, 2, Fraction(3, 2))


def _counterexample_in_coded_models(w, alpha):
    names = sorted(free_vars(w))
    for u in STATES:
        model = coded_model(alpha, u)
        for values in itertools.product(range(4), repeat=len(names)):
            env = dict(zip(names, values))
            if eval_bounded(model, w, env, bound=6).truth is ThreeValued.FALSE:
                return u, env
    return None


@settings(max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(0, 3),
       st.sampled_from((N, NSTAR)), st.sampled_from((18, 24, 30)))
def test_accepted_lines_hold_in_coded_models(seed, edits, theory, alpha):
    rng = random.Random(seed)
    found = discover(theory, random_proof_corpus(rng, theory, rng.randrange(8, 25)))
    assert found.ok, found.failures
    lines = found.proof.lines
    for _ in range(edits):
        lines = _mutate(rng, lines)
    verdict = check_proof(Proof(theory, lines))
    for line, checked in zip(lines, verdict.per_line):
        if not checked.ok:
            break          # later lines may cite this one
        counterexample = _counterexample_in_coded_models(line.wff, alpha)
        assert counterexample is None, (checked.line, print_wff(line.wff), counterexample)
