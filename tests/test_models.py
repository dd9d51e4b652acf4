import builtins
import hashlib
import random
import threading
from fractions import Fraction

import pytest

from conftest import in_fresh_thread, random_core_wff, random_surface_wff, std_eval
from foarith.arith import goldbach_sentence, numeral
from foarith.cli import run
from foarith.kernel import build_theory_N
from foarith.models import (
    ModelError,
    ThreeValued,
    check_axioms,
    coded_model,
    default_coding,
    eval_bounded,
    limit_table,
    limit_table_csv,
)
from foarith.syntax import (
    And,
    Const,
    ForAll,
    Implies,
    Not,
    Var,
    eq,
    lower,
    parse_core,
    plus,
    print_wff,
    substitute,
    succ,
)

N = build_theory_N()
HALF = Fraction(1, 2)


# ---------------------------------------------------------------------------
# coding functions


def test_coding_slope_pattern_alpha_18():
    coding = default_coding(18, 2)
    unit = {0, 1, 9} | set(range(14, 40))
    for i in range(40):
        assert coding.xi(i) == (1 if i in unit else 2), i


def test_coding_identity_at_u_1():
    coding = default_coding(18, 1)
    assert all(coding.xi(i) == 1 for i in range(40))
    assert all(coding.psi_nat(n) == n for n in range(101))


def test_coding_golden_values():
    coding = default_coding(18, Fraction(3, 2))
    assert coding.psi_nat(3) == 2 + Fraction(3, 2)
    assert coding.psi_nat(0) == 0
    assert coding.psi_nat(2) == 2
    # partial interval: psi(2.5) = 2 + u/2
    assert coding.psi(Fraction(5, 2)) == 2 + Fraction(3, 4)


def test_coding_strictly_increasing():
    coding = default_coding(24, Fraction(7, 5))
    values = [coding.psi_nat(n) for n in range(80)]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_coding_rejects_bad_parameters():
    with pytest.raises(ModelError):
        default_coding(16, 2)      # 16 - 3 = 13 prime, not admissible
    with pytest.raises(ModelError):
        default_coding(17, 2)      # odd
    with pytest.raises(ModelError):
        default_coding(18, HALF)   # u < 1


def test_slope_counts_sum_to_index():
    coding = default_coding(28, 3)
    for n in range(200):
        units, uslopes = coding.slope_counts(n)
        assert units + uslopes == n
        assert units == sum(1 for i in range(n) if coding.unit_slot(i))


# ---------------------------------------------------------------------------
# coded naturals and transported operations


def test_encode_goldens():
    m = coded_model(18, 2)
    zero = m.encode(0)
    assert (zero.index, zero.value) == (0, 0)
    two = m.encode(2)
    assert two.value == 2
    three = m.encode(3)
    assert (three.units, three.uslopes) == (2, 1)
    assert three.value == 4


def test_encode_identity_at_u_1():
    m = coded_model(24, 1)
    for n in range(101):
        c = m.encode(n)
        assert c.index == n and c.value == n


def test_decode_inverse():
    m = coded_model(18, Fraction(3, 2))
    for n in range(200):
        assert m.decode(m.encode(n)) == n


def test_index_order_is_value_order():
    m = coded_model(18, Fraction(3, 2))
    values = [m.encode(n).value for n in range(100)]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_value_is_exact_linear_form():
    m = coded_model(18, Fraction(3, 2))
    c = m.encode(10)
    assert isinstance(c.value, Fraction)
    assert c.value == c.units + c.uslopes * Fraction(3, 2)
    assert c.units + c.uslopes == 10


def test_transported_ops_sample():
    m = coded_model(18, 2)
    assert m.decode(m.add(m.encode(2), m.encode(3))) == 5
    assert m.decode(m.mul(m.encode(6), m.encode(7))) == 42
    assert m.succ(m.zero) == m.one


def test_mul_by_zero():
    m = coded_model(18, 2)
    rng = random.Random(7)
    for _ in range(20):
        x = m.encode(rng.randrange(500))
        assert m.mul(x, m.zero) == m.zero


def test_model_mismatch_rejected():
    m1 = coded_model(18, 2)
    m2 = coded_model(18, 2)
    with pytest.raises(ModelError, match="different model"):
        m1.add(m1.encode(1), m2.encode(1))


def test_uninterpreted_symbols_rejected():
    m = coded_model(18, 2)
    with pytest.raises(ModelError, match="constant a3"):
        eval_bounded(m, parse_core("(a3 = 0)"), {}, bound=2)
    with pytest.raises(ModelError, match=r"f\{3,1\}"):
        eval_bounded(m, parse_core("(f{3,1}(0) = 0)"), {}, bound=2)
    with pytest.raises(ModelError, match=r"A\{2,1\}"):
        eval_bounded(m, parse_core("A{2,1}(0)"), {}, bound=2)


def test_uninterpretable_symbols_fail_only_when_reached():
    m = coded_model(18, 2)
    r = eval_bounded(m, parse_core("((0 = S(0)) -> A{2,1}(0))"), {}, bound=2)
    assert r.truth is ThreeValued.TRUE
    with pytest.raises(ModelError, match=r"A\{2,1\}"):
        eval_bounded(m, parse_core("((0 = 0) -> A{2,1}(0))"), {}, bound=2)


def test_env_from_another_model_rejected():
    m1 = coded_model(18, 2)
    m2 = coded_model(18, 2)
    for text in ("(x1 = 0)", "(S(x1) = 0)"):
        with pytest.raises(ModelError, match="different model"):
            eval_bounded(m1, parse_core(text), {1: m2.zero}, bound=0)


def test_override_leaving_the_naturals_rejected():
    m = coded_model(18, 2, succ_index=lambda n: n - 1)
    with pytest.raises(ModelError, match="index must be >= 0"):
        eval_bounded(m, parse_core("(S(0) = 0)"), {}, bound=0)
    with pytest.raises(ModelError, match="index must be >= 0"):
        m.succ(m.zero)


def test_constant_a2_is_one():
    m = coded_model(18, 2)
    r = eval_bounded(m, parse_core("(a2 = S(0))"), {}, bound=0)
    assert r.truth is ThreeValued.TRUE


def test_overridden_names_the_overriding_operations():
    assert coded_model(18, 2).overridden == frozenset()
    m = coded_model(18, 2, succ_index=lambda n: n + 1, mul_index=lambda a, b: a * b)
    assert m.overridden == {"succ", "mul"}


def test_one_compile_per_call(monkeypatch):
    calls = []
    real = builtins.compile
    monkeypatch.setattr(builtins, "compile",
                        lambda *args, **kwargs: calls.append(1) or real(*args, **kwargs))
    w = substitute(goldbach_sentence(False).body, 1, numeral(18))
    assert eval_bounded(coded_model(18, 1), w, {}, bound=20,
                        domain_cutoff=True).truth is ThreeValued.TRUE
    assert len(calls) == 1


def test_universal_ignoring_an_enclosing_variable_runs_once():
    calls = []
    m = coded_model(18, 2, succ_index=lambda n: calls.append(n) or n + 1)
    w = parse_core("(all x1 ((all x2 (S(x2) = S(x2))) -> (x1 = x1)))")
    r = eval_bounded(m, w, {}, bound=4, domain_cutoff=True)
    assert r.truth is ThreeValued.TRUE
    assert calls == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]  # once, not once per x1


# ---------------------------------------------------------------------------
# bounded evaluation


def test_universal_never_true_without_cutoff():
    m = coded_model(18, 2)
    r = eval_bounded(m, N.axiom("N1"), {}, bound=200)
    assert r.truth is ThreeValued.UNKNOWN
    assert r.witness is None


def test_exists_witness():
    m = coded_model(18, 2)
    r = eval_bounded(m, parse_core("(ex x1 (x1 = S(0)))"), {}, bound=5)
    assert r.truth is ThreeValued.TRUE
    assert r.witness == {1: 1}


def test_forall_counterexample():
    m = coded_model(18, 1)
    r = eval_bounded(m, parse_core("(all x1 (x1 = 0))"), {}, bound=5)
    assert r.truth is ThreeValued.FALSE
    assert r.witness == {1: 1}


def test_exists_exhaustion_unknown_vs_cutoff_false():
    m = coded_model(18, 1)
    w = parse_core("(ex x1 (x1 = S(S(S(S(S(S(0))))))))")  # witness is 6
    assert eval_bounded(m, w, {}, bound=3).truth is ThreeValued.UNKNOWN
    assert eval_bounded(m, w, {}, bound=3, domain_cutoff=True).truth is ThreeValued.FALSE
    assert eval_bounded(m, w, {}, bound=6).truth is ThreeValued.TRUE


def test_unbound_variable_rejected():
    m = coded_model(18, 1)
    with pytest.raises(ModelError, match="unbound free variables: x2"):
        eval_bounded(m, parse_core("(x2 = 0)"), {}, bound=2)


def test_sugar_rejected():
    m = coded_model(18, 1)
    with pytest.raises(ModelError, match="core"):
        eval_bounded(m, And(parse_core("(0=0)"), parse_core("(0=0)")), {}, bound=2)


def test_env_accepts_plain_naturals():
    m = coded_model(18, 2)
    r = eval_bounded(m, parse_core("((x1 + x1) = x2)"), {1: 3, 2: 6}, bound=0)
    assert r.truth is ThreeValued.TRUE


def test_verdict_persistence(rng):
    m = coded_model(18, Fraction(3, 2))
    for _ in range(150):
        w = random_core_wff(rng, 2, (1, 2))
        env = {1: rng.randrange(4), 2: rng.randrange(4)}
        small = eval_bounded(m, w, env, bound=4)
        big = eval_bounded(m, w, env, bound=9)
        if small.truth is not ThreeValued.UNKNOWN:
            assert big.truth is small.truth


def test_coded_evaluator_matches_standard_oracle(rng):
    m = coded_model(18, 1)
    for cutoff in (False, True):
        for _ in range(250):
            w = random_core_wff(rng, 2, (1, 2))
            env = {1: rng.randrange(5), 2: rng.randrange(5)}
            got = eval_bounded(m, w, env, bound=6, domain_cutoff=cutoff)
            want = std_eval(w, env, 6, cutoff=cutoff)
            assert got.truth.value == want, (w, env, cutoff)


# ---------------------------------------------------------------------------
# golden evaluator outcomes
#
# SHA-256 over every (verdict, witness dict in insertion order) or
# ModelError text; any change in verdicts, witnesses, their merge order or
# the error raised first shows here.  "nested" holds universals that ignore
# an enclosing quantifier's variable, the case the evaluator memoizes.


def _outcome(model, w, env, bound, cutoff):
    try:
        r = eval_bounded(model, w, env, bound=bound, domain_cutoff=cutoff)
    except ModelError as exc:
        return type(exc).__name__ + str(exc)
    return f"{r.truth.value} {r.witness!r}"


def _digest(cases):
    text = "\n".join(_outcome(*case) for case in cases)
    return hashlib.sha256(text.encode()).hexdigest()


def _random_cases():
    rng = random.Random(4242)
    models = [coded_model(18, 1), coded_model(18, Fraction(3, 2)),
              coded_model(24, 2), coded_model(28, Fraction(5, 4))]
    for k in range(400):
        model = models[k % len(models)]
        if k % 4 == 3:
            # generic letters and constants: uninterpretable ones raise lazily
            w = lower(random_surface_wff(rng, 3, (1, 2, 3)))
        else:
            w = random_core_wff(rng, 3, (1, 2, 3))
        env = {}
        if k % 10:
            for v in (1, 2, 3):
                n = rng.randrange(7)
                env[v] = model.encode(n) if rng.random() < 0.3 else n
        for bound in range(9):
            for cutoff in (False, True):
                yield model, w, env, bound, cutoff


def _faulty_cases():
    rng = random.Random(77)
    bad = coded_model(18, 2, succ_index=lambda n: 2 if n == 0 else n + 1)
    wffs = list(N.axioms().values())
    wffs += [random_core_wff(rng, 3, (1, 2)) for _ in range(40)]
    for w in wffs:
        env = {1: rng.randrange(5), 2: rng.randrange(5)}
        for bound in range(9):
            for cutoff in (False, True):
                yield bad, w, env, bound, cutoff


def _goldbach_cases():
    model = coded_model(18, 1)
    for classical in (False, True):
        body = goldbach_sentence(classical).body
        for n in range(18, 25):
            yield model, substitute(body, 1, numeral(n)), {}, n + 2, True


def _nested_cases():
    # depth-4 formulas over four variables often hold a universal that
    # ignores an enclosing quantifier's variable
    rng = random.Random(2024)
    models = [coded_model(18, 1),
              coded_model(18, 2, succ_index=lambda n: 2 if n == 0 else n + 1,
                          mul_index=lambda m_, n_: m_ * n_ - (m_ == 3 and n_ == 0))]
    for _ in range(120):
        w = random_core_wff(rng, 4, (1, 2, 3, 4))
        env = {v: rng.randrange(5) for v in (1, 2, 3, 4)}
        for model in models:
            for bound in range(7):
                for cutoff in (False, True):
                    yield model, w, env, bound, cutoff
    model = coded_model(18, 1)
    for classical in (False, True):
        body = goldbach_sentence(classical).body
        for n in range(26, 37):
            yield model, substitute(body, 1, numeral(n)), {}, n + 2, True


GOLDEN_EVAL_DIGESTS = {
    "random": "e62af34e8e8efc449bc4e547c98b049beb48456a44789063adcbb6d4727f8a34",
    "faulty": "f2ce23780afa0064239f00f3460042e1ce4c8e032e3f120c3f830124312d89d8",
    "goldbach": "39b2bccf0fbbabd2e6c470e4353b22da38bec179d49eb99974c90cfc06b95737",
    "nested": "7aff7f123885de4941db037f7e987c2245d35180e99c94e0b0fee17a0c20a4bf",
}
_GOLDEN_CASES = {"random": _random_cases, "faulty": _faulty_cases,
                 "goldbach": _goldbach_cases, "nested": _nested_cases}


@pytest.mark.parametrize("group", sorted(GOLDEN_EVAL_DIGESTS))
def test_eval_golden_outcomes(group):
    assert _digest(_GOLDEN_CASES[group]()) == GOLDEN_EVAL_DIGESTS[group]


# ---------------------------------------------------------------------------
# deep formulas
#
# Built with constructors, as they were when each expected list was
# recorded, before the evaluator generated Python source: outcomes at
# envs {x1=0, x2=0} and {x1=3, x2=1}, each honest and under the cutoff.


DEPTH = 990


def _deep(step, start):
    for k in range(DEPTH):
        start = step(start, k)
    return start


_DEPTH_CASES = {
    "succ": (coded_model(18, 1), eq(_deep(lambda t, k: succ(t), Var(1)), Const(1))),
    "succ-override": (coded_model(18, 1, succ_index=lambda n: n + 2),
                      eq(_deep(lambda t, k: succ(t), Var(1)), Const(1))),
    "not": (coded_model(18, 1), _deep(lambda w, k: Not(w), eq(Var(1), Const(1)))),
    "forall": (coded_model(18, 1),
               _deep(lambda w, k: ForAll(k % 3 + 1, w), eq(Var(1), Var(2)))),
    "implies": (coded_model(18, 1),
                _deep(lambda w, k: Implies(eq(Var(1), Var(1)), w), eq(Var(1), Const(1)))),
    "plus": (coded_model(18, 1),
             eq(_deep(lambda t, k: plus(t, Var(1)), Var(1)), Const(1))),
}

_DEPTH_OUTCOMES = {
    "succ": ["false None"] * 4,
    "succ-override": ["false None"] * 4,
    "not": ["true None"] * 2 + ["false None"] * 2,
    "forall": ["false {3: 0, 2: 0, 1: 1}"] * 4,
    "implies": ["true None"] * 2 + ["false None"] * 2,
    "plus": ["true None"] * 2 + ["false None"] * 2,
}


@pytest.mark.parametrize("shape", sorted(_DEPTH_CASES))
def test_deep_formula_outcomes(shape):
    model, w = _DEPTH_CASES[shape]
    got = []

    def run():
        # a new thread starts at recursion depth 0, as a CLI process
        # would, whatever depth the test runner has reached
        for env in ({1: 0, 2: 0}, {1: 3, 2: 1}):
            for cutoff in (False, True):
                try:
                    r = eval_bounded(model, w, env, bound=2, domain_cutoff=cutoff)
                except ModelError as exc:
                    got.append(type(exc).__name__ + str(exc))
                else:
                    got.append(f"{r.truth.value} {r.witness!r}")

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    assert got == _DEPTH_OUTCOMES[shape]


def _nested_universals(n):
    w = eq(Var(1), Var(2))
    for k in range(n):
        w = ForAll(k % 3 + 1, w)
    return w


def test_universals_nested_past_the_recursion_limit_are_refused(capsys):
    # The generated code calls one function per chain of universals, so
    # some thousands of them nest deeper than the interpreter allows.
    model = coded_model(18, 1)

    def outcome(n):
        try:
            return eval_bounded(model, _nested_universals(n), {}, bound=2).truth.value
        except ModelError as exc:
            return str(exc)

    assert in_fresh_thread(lambda: outcome(3000)) == "false"
    assert in_fresh_thread(lambda: outcome(10 ** 4)) == "formula nested too deeply to evaluate"
    text = print_wff(_nested_universals(10 ** 4))
    argv = ["model", "eval", "--alpha", "18", "--u", "1", "--bound", "2", "--wff", text]
    assert in_fresh_thread(lambda: run(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: formula nested too deeply to evaluate\n"


# ---------------------------------------------------------------------------
# axiom checking


def test_check_axioms_transported_models():
    for u in (1, Fraction(3, 2), 2):
        m = coded_model(18, u)
        checks = check_axioms(m, 200)
        assert [c.axiom for c in checks] == ["N1", "N2", "N3", "N4", "N5", "N6"]
        assert all(c.result.truth is ThreeValued.UNKNOWN for c in checks)


def test_check_axioms_identity_model_matches_standard():
    a = check_axioms(coded_model(18, 1), 100)
    b = check_axioms(coded_model(24, 1), 100)
    assert [(c.axiom, c.result.truth) for c in a] == \
        [(c.axiom, c.result.truth) for c in b]


def test_check_axioms_detects_corrupted_successor():
    bad = coded_model(18, 2, succ_index=lambda n: 2 if n == 0 else n + 1)
    checks = check_axioms(bad, 50)
    falsified = {c.axiom: c for c in checks if c.result.truth is ThreeValued.FALSE}
    assert falsified, "corrupted successor must falsify an axiom"
    assert "N4" in falsified
    assert falsified["N4"].result.witness == {1: 1, 2: 0}


def test_check_axioms_detects_corrupted_add():
    bad = coded_model(18, 2, add_index=lambda m_, n_: m_ + n_ + (m_ == 3))
    checks = check_axioms(bad, 50)
    assert any(c.result.truth is ThreeValued.FALSE for c in checks)


def test_axiom_check_json_shape():
    checks = check_axioms(coded_model(18, 2), 10)
    doc = checks[0].to_json_dict()
    assert set(doc) == {"axiom", "verdict", "witness"}
    assert doc["verdict"] == "unknown"


# ---------------------------------------------------------------------------
# limit behavior


def test_limit_table_deviation_formula():
    coding = default_coding(18, 1)
    rows = limit_table(18, 20, [1 + Fraction(1, 2), 1 + Fraction(1, 4), 1])
    for row in rows:
        _, uslopes = default_coding(18, row.u).slope_counts(row.n)
        assert row.deviation == uslopes * (row.u - 1)
        assert row.deviation == abs(row.psi - row.n)
        assert row.deviation <= row.n * (row.u - 1)


def test_limit_table_zero_rows():
    rows = limit_table(18, 10, [2, Fraction(3, 2), 1])
    for row in rows:
        if row.u == 1 or row.n <= 2:
            assert row.deviation == 0


def test_limit_table_nonincreasing_along_sequence():
    us = [1 + Fraction(1, 2 ** k) for k in range(1, 11)]
    rows = limit_table(18, 30, us)
    by_n = {}
    for row in rows:
        by_n.setdefault(row.n, []).append(row.deviation)
    for n, deviations in by_n.items():
        assert deviations == sorted(deviations, reverse=True), n


def test_limit_table_golden_alpha_18_n_3():
    rows = limit_table(18, 3, [1 + Fraction(1, 8)])
    row = [r for r in rows if r.n == 3][0]
    assert row.deviation == Fraction(1, 8)  # one u-slope interval below 3


def test_limit_table_validation():
    with pytest.raises(ModelError, match="strictly decreasing"):
        limit_table(18, 5, [1, 2])
    with pytest.raises(ModelError, match=">= 1"):
        limit_table(18, 5, [1, HALF])
    with pytest.raises(ModelError, match="nonempty"):
        limit_table(18, 5, [])


def test_limit_table_csv_format():
    rows = limit_table(18, 3, [Fraction(3, 2), 1])
    csv = limit_table_csv(rows)
    lines = csv.strip().splitlines()
    assert lines[0] == "alpha,u,n,psi,deviation"
    assert lines[4] == "18,1.5,3,3.5,0.5"
    assert lines[-1] == "18,1,3,3,0"
