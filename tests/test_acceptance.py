"""Acceptance suite.

One test per acceptance criterion, each enforcing its stated tolerance
and time budget and printing a single pass line (run with ``pytest -sv``
to see them; the per-test PASSED/FAILED line carries the same verdict).
"""

import random
import time
from fractions import Fraction

from hypothesis import given, settings

from conftest import (
    random_core_wff,
    random_proof_corpus,
    std_eval,
    surface_wffs,
)
from foarith.arith import goldbach_sentence, numeral
from foarith.goldbach import admissible_evens, is_admissible, partitions, scan
from foarith.kernel import (
    MP,
    Proof,
    ProofLine,
    Scheme,
    SchemeId,
    build_theory_K,
    build_theory_N,
    check_proof,
    discover,
    match_scheme,
    recognize_scheme,
)
from foarith.models import (
    ThreeValued,
    check_axioms,
    coded_model,
    eval_bounded,
    limit_table,
)
from foarith.syntax import (
    And,
    Exists,
    ForAll,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    ZERO,
    eq,
    free_vars,
    lower,
    parse_core,
    parse_wff,
    print_wff,
    substitute,
    succ,
)

K = build_theory_K()
N = build_theory_N()


def _pass(n, label):
    print(f"criterion {n:02d}: PASS  {label}")


# ---------------------------------------------------------------------------


def test_criterion_01_axiom_fidelity():
    started = time.monotonic()
    source_texts = {
        "N1": "(all x1 ~(S(x1) = 0))",
        "N2": "(all x1 (all x2 ((S(x1) = S(x2)) -> (x1 = x2))))",
        "N3": "(all x1 ((x1 + 0) = x1))",
        "N4": "(all x1 (all x2 ((x1 + S(x2)) = S((x1 + x2)))))",
        "N5": "(all x1 ((x1 * 0) = 0))",
        "N6": "(all x1 (all x2 ((x1 * S(x2)) = ((x1 * x2) + x1))))",
    }
    table = N.axioms()
    assert list(table) == list(source_texts)
    for name, text in source_texts.items():
        assert print_wff(parse_core(text)) == print_wff(table[name]), name
    assert time.monotonic() - started < 1.0
    _pass(1, "N1..N6 parse byte-identically to the theory table")


def test_criterion_02_abbreviation_table():
    started = time.monotonic()
    a = eq(Var(1), ZERO)
    b = eq(Var(2), ZERO)
    assert lower(Exists(1, a)) == Not(ForAll(1, Not(a)))
    assert lower(And(a, b)) == Not(Implies(a, Not(b)))
    assert lower(Or(a, b)) == Implies(Not(a), b)
    assert lower(Iff(a, b)) == Not(Implies(Implies(a, b), Not(Implies(b, a))))

    @settings(max_examples=200, deadline=None)
    @given(surface_wffs)
    def round_trip(w):
        assert lower(parse_wff(print_wff(w))) == lower(w)

    round_trip()
    assert time.monotonic() - started < 5.0
    _pass(2, "four expansions exact; 200 randomized round trips")


def _five_line_proof():
    a0 = eq(ZERO, ZERO)
    aa = Implies(a0, a0)
    return (
        ProofLine(Implies(Implies(a0, Implies(aa, a0)),
                          Implies(Implies(a0, aa), aa)), Scheme(SchemeId.K2)),
        ProofLine(Implies(a0, Implies(aa, a0)), Scheme(SchemeId.K1)),
        ProofLine(Implies(Implies(a0, aa), aa), MP(2, 1)),
        ProofLine(Implies(a0, aa), Scheme(SchemeId.K1)),
        ProofLine(aa, MP(4, 3)),
    )


def test_criterion_03_kernel_soundness_surface():
    started = time.monotonic()
    lines = _five_line_proof()
    assert check_proof(Proof(K, lines)).accepted

    def corrupt(index, line):
        mutated = list(lines)
        mutated[index] = line
        verdict = check_proof(Proof(K, tuple(mutated)))
        assert not verdict.accepted
        assert not verdict.per_line[index].ok, f"line {index + 1} must fail"

    a0 = eq(ZERO, ZERO)
    corrupt(0, ProofLine(lines[0].wff, Scheme(SchemeId.K3)))      # wrong tag
    corrupt(1, ProofLine(Implies(a0, Implies(Implies(a0, a0), eq(succ(ZERO), ZERO))),
                         lines[1].justification))                  # mutated wff
    corrupt(2, ProofLine(lines[2].wff, MP(1, 2)))                  # swapped MP
    corrupt(3, ProofLine(lines[3].wff, Scheme(SchemeId.K2)))       # wrong tag
    corrupt(4, ProofLine(lines[4].wff, MP(3, 4)))                  # swapped MP
    assert time.monotonic() - started < 1.0
    _pass(3, "A->A accepted; all five single-line corruptions rejected in place")


def test_criterion_04_side_condition_enforcement():
    # K5 candidate whose witness term x2 is captured under the inner binder
    captured = Implies(ForAll(1, ForAll(2, eq(Var(1), Var(2)))),
                       ForAll(2, eq(Var(2), Var(2))))
    assert match_scheme(SchemeId.K5, captured) is None
    assert recognize_scheme(N, captured) is None

    # K4 candidate with the quantified variable free in the body
    free_body = Implies(ForAll(1, eq(Var(1), ZERO)), eq(Var(1), ZERO))
    assert match_scheme(SchemeId.K4, free_body) is None

    # K6 candidate with a free occurrence in the antecedent
    body = Implies(eq(Var(1), ZERO), eq(Var(1), Var(1)))
    k6_bad = Implies(ForAll(1, body),
                     Implies(eq(Var(1), ZERO), ForAll(1, eq(Var(1), Var(1)))))
    assert match_scheme(SchemeId.K6, k6_bad) is None
    assert recognize_scheme(N, k6_bad) is None
    _pass(4, "captured K5, open K4 and open K6 candidates all refused")


def test_criterion_05_discovery_completeness():
    started = time.monotonic()
    lines = _five_line_proof()
    result = discover(K, [line.wff for line in lines])
    assert result.ok
    assert tuple(l.justification for l in result.proof.lines) == \
        tuple(l.justification for l in lines)
    assert check_proof(result.proof).accepted

    rng = random.Random(1905)
    corpus = random_proof_corpus(rng, N, 20)
    assert len(corpus) == 20
    result = discover(N, corpus)
    assert result.ok, result.failures
    assert check_proof(result.proof).accepted
    assert time.monotonic() - started < 10.0
    _pass(5, "bare A->A and a 20-line random corpus fully re-annotated")


def test_criterion_06_admissible_set_oracle():
    started = time.monotonic()
    assert admissible_evens(60) == [18, 24, 28, 30, 36, 42, 48, 52, 54, 60]
    comprehension = [a for a in range(10_001) if is_admissible(a)]
    assert admissible_evens(10_000) == comprehension
    for limit in (0, 15, 16, 17, 18, 100, 999):
        assert admissible_evens(limit) == [a for a in comprehension if a <= limit]
    assert time.monotonic() - started < 5.0
    _pass(6, "sieve enumeration matches the comprehension oracle up to 10^4")


def test_criterion_07_scan_million():
    started = time.monotonic()
    report = scan(1_000_000)
    elapsed = time.monotonic() - started
    assert report.verified and report.first_failure is None
    assert report.members[0] == 18
    top = [a for a in range(990_000, 10**6 + 1) if is_admissible(a)]
    assert [a for a in report.members if a >= 990_000] == top
    largest = top[-1]
    assert report.partition_counts[largest] == len(partitions(largest))
    assert elapsed <= 60.0, f"scan took {elapsed:.1f}s"
    _pass(7, f"scan(10^6) verified in {elapsed:.1f}s, members above 990000 "
             "and the largest count match trial division")


def test_criterion_08_coded_model_homomorphism():
    started = time.monotonic()
    for alpha in (18, 24, 28):
        for u in (1, Fraction(3, 2), 2):
            model = coded_model(alpha, u)
            encoded = [model.encode(n) for n in range(301)]
            for m in range(301):
                cm = encoded[m]
                assert model.decode(model.succ(cm)) == m + 1
                for n in range(301):
                    cn = encoded[n]
                    assert model.decode(model.add(cm, cn)) == m + n
                    assert model.decode(model.mul(cm, cn)) == m * n
    assert time.monotonic() - started < 10.0
    _pass(8, "add/mul/succ commute with decode on the 3x3 grid, m,n <= 300")


def test_criterion_09_limit_property():
    us = [1 + Fraction(1, 2 ** k) for k in range(1, 21)]
    rows = limit_table(18, 100, us)
    by_n = {}
    for row in rows:
        assert row.deviation == abs(row.psi - row.n)
        assert row.deviation <= row.n * (row.u - 1)
        by_n.setdefault(row.n, []).append(row.deviation)
    for n, deviations in by_n.items():
        assert len(deviations) == 20
        assert all(a >= b for a, b in zip(deviations, deviations[1:])), n

    at_one = limit_table(18, 100, [Fraction(1)])
    assert all(row.deviation == 0 and row.psi == row.n for row in at_one)

    model = coded_model(18, 1)
    rng = random.Random(424242)
    checked = 0
    for _ in range(500):
        w = random_core_wff(rng, 2, (1, 2))
        env = {1: rng.randrange(5), 2: rng.randrange(5)}
        got = eval_bounded(model, w, env, bound=8)
        want = std_eval(w, env, 8)
        assert got.truth.value == want, (print_wff(w), env)
        checked += 1
    assert checked == 500
    _pass(9, "deviations bounded, monotone, zero at u=1; 500 verdicts coincide")


def test_criterion_10_axiom_checking():
    for alpha in (18, 24, 28):
        for u in (1, Fraction(3, 2), 2):
            checks = check_axioms(coded_model(alpha, u), 200)
            assert len(checks) == 6
            assert all(c.result.truth is not ThreeValued.FALSE for c in checks), \
                (alpha, u)

    broken = coded_model(18, 2, succ_index=lambda n: 2 if n == 0 else n + 1)
    checks = check_axioms(broken, 200)
    falsified = [c for c in checks if c.result.truth is ThreeValued.FALSE]
    assert falsified
    assert all(c.result.witness for c in falsified)
    assert any(c.axiom == "N4" and c.result.witness == {1: 1, 2: 0}
               for c in falsified)
    _pass(10, "no False on the grid at bound 200; injected fault falsified")


def test_criterion_11_goldbach_sentence():
    sentence = goldbach_sentence()
    assert free_vars(sentence) == frozenset()
    assert parse_core(print_wff(sentence)) == sentence
    assert parse_core(print_wff(sentence, resugar=True)) == sentence

    assert isinstance(sentence, ForAll)
    instance = substitute(sentence.body, 1, numeral(18))
    result = eval_bounded(coded_model(18, 1), instance, {},
                          bound=20, domain_cutoff=True)
    assert result.truth is ThreeValued.TRUE
    assert result.witness == {2: 5, 3: 13}
    assert partitions(18)[0] == (5, 13)
    _pass(11, "sentence closed, round-trips, instance at 18 true with (5,13)")
