"""Shared oracles, generators and hypothesis strategies.

The standard-model evaluator below is the independent oracle for the
coded-model evaluator: it works on plain Python ints, knows nothing about
codings, and reports verdicts as bare strings.  Keep it free of imports
from foarith.models.
"""

import random
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from foarith import goldbach
from foarith.syntax import (
    And,
    Atom,
    Const,
    Exists,
    ForAll,
    FuncApp,
    Iff,
    Implies,
    Not,
    Or,
    Var,
    eq,
    plus,
    succ,
    times,
)

settings.register_profile(
    "fast", deadline=None, suppress_health_check=[HealthCheck.too_slow])
settings.load_profile("fast")


# ---------------------------------------------------------------------------
# independent standard-model evaluator (ints only)


def std_eval(w, env, bound, cutoff=False):
    """Evaluate a core wff over the naturals; returns 'true'/'false'/'unknown'.

    Same quantifier discipline as the library contract: universals refute
    or exhaust, existentials are the duals, and with cutoff the domain is
    truncated to 0..bound and everything is classical.
    """

    def term(t, env):
        if isinstance(t, Var):
            return env[t.index]
        if isinstance(t, Const):
            if t.index == 1:
                return 0
            if t.index == 2:
                return 1
            raise ValueError(f"uninterpreted constant a{t.index}")
        sig = (t.letter, t.arity)
        if sig == (1, 1):
            return term(t.args[0], env) + 1
        if sig == (1, 2):
            return term(t.args[0], env) + term(t.args[1], env)
        if sig == (2, 2):
            return term(t.args[0], env) * term(t.args[1], env)
        raise ValueError("uninterpreted function letter")

    def ev(w, env):
        if isinstance(w, Atom):
            return "true" if term(w.terms[0], env) == term(w.terms[1], env) else "false"
        if isinstance(w, Not):
            r = ev(w.body, env)
            return {"true": "false", "false": "true", "unknown": "unknown"}[r]
        if isinstance(w, Implies):
            a = ev(w.antecedent, env)
            if a == "false":
                return "true"
            b = ev(w.consequent, env)
            if b == "true":
                return "true"
            if a == "true" and b == "false":
                return "false"
            return "unknown"
        if isinstance(w, ForAll):
            for n in range(bound + 1):
                if ev(w.body, {**env, w.var: n}) == "false":
                    return "false"
            return "true" if cutoff else "unknown"
        raise ValueError(f"not core: {w!r}")

    return ev(w, dict(env))


# ---------------------------------------------------------------------------
# seeded random formula generators


def in_fresh_thread(fn):
    """fn() run in a new thread, which starts at recursion depth 0 as a CLI
    process would, whatever depth the test runner has reached; the
    recursion limit stays the interpreter's.  What fn raised is raised
    again here."""
    result, errors = [], []

    def run():
        try:
            result.append(fn())
        except BaseException as exc:  # raised again in the caller's thread
            errors.append(exc)

    thread = threading.Thread(target=run)
    thread.start()
    thread.join()
    if errors:
        raise errors[0]
    return result[0]


def random_term(rng, depth=2, vars_=(1, 2)):
    if depth == 0 or rng.random() < 0.4:
        choices = [Const(1), Const(2)] + [Var(v) for v in vars_]
        return rng.choice(choices)
    kind = rng.randrange(3)
    if kind == 0:
        return succ(random_term(rng, depth - 1, vars_))
    if kind == 1:
        return plus(random_term(rng, depth - 1, vars_), random_term(rng, depth - 1, vars_))
    return times(random_term(rng, depth - 1, vars_), random_term(rng, depth - 1, vars_))


def random_core_wff(rng, depth=2, vars_=(1, 2)):
    if depth == 0 or rng.random() < 0.3:
        return eq(random_term(rng, 1, vars_), random_term(rng, 1, vars_))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_core_wff(rng, depth - 1, vars_))
    if kind == 1:
        return Implies(random_core_wff(rng, depth - 1, vars_),
                       random_core_wff(rng, depth - 1, vars_))
    v = rng.choice(vars_)
    return ForAll(v, random_core_wff(rng, depth - 1, vars_))


def random_generic_term(rng, depth=2, vars_=(1, 2)):
    """Terms over any constant a_i and any function letter f{k,n}."""
    if depth == 0 or rng.random() < 0.4:
        return rng.choice([Const(1), Const(rng.randrange(2, 12)), Var(rng.choice(vars_))])
    letter, arity = rng.randrange(1, 4), rng.randrange(1, 4)
    return FuncApp(letter, arity,
                   tuple(random_generic_term(rng, depth - 1, vars_) for _ in range(arity)))


def random_surface_wff(rng, depth=2, vars_=(1, 2)):
    """Formulas with abbreviation nodes and generic predicate letters."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.25:
            letter, arity = rng.randrange(1, 4), rng.randrange(1, 4)
            return Atom(letter, arity,
                        tuple(random_generic_term(rng, 1, vars_) for _ in range(arity)))
        return eq(random_generic_term(rng, 2, vars_), random_generic_term(rng, 2, vars_))
    kind = rng.randrange(4)
    if kind == 0:
        return Not(random_surface_wff(rng, depth - 1, vars_))
    if kind == 1:
        node = rng.choice((Implies, And, Or, Iff))
        return node(random_surface_wff(rng, depth - 1, vars_),
                    random_surface_wff(rng, depth - 1, vars_))
    node = rng.choice((ForAll, Exists))
    return node(rng.choice(vars_), random_surface_wff(rng, depth - 1, vars_))


# ---------------------------------------------------------------------------
# hypothesis strategies


def _terms():
    base = st.sampled_from([Var(1), Var(2), Var(3), Const(1), Const(2)])
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(succ, kids),
            st.builds(plus, kids, kids),
            st.builds(times, kids, kids),
        ),
        max_leaves=4,
    )


_atoms = st.builds(eq, _terms(), _terms())


def _quantify(node):
    return st.builds(lambda v, b: node(v, b), st.integers(1, 3))


core_wffs = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(Implies, kids, kids),
        st.builds(ForAll, st.integers(1, 3), kids),
    ),
    max_leaves=10,
)

surface_wffs = st.recursive(
    _atoms,
    lambda kids: st.one_of(
        st.builds(Not, kids),
        st.builds(Implies, kids, kids),
        st.builds(And, kids, kids),
        st.builds(Or, kids, kids),
        st.builds(Iff, kids, kids),
        st.builds(ForAll, st.integers(1, 3), kids),
        st.builds(Exists, st.integers(1, 3), kids),
    ),
    max_leaves=10,
)


# ---------------------------------------------------------------------------
# random scheme instances and proof corpora (kernel tests, acceptance 5)


def random_scheme_instance(rng, scheme_name):
    from foarith.syntax import substitute
    from foarith.arith import numeral

    a = random_core_wff(rng, 2, (2, 3))
    b = random_core_wff(rng, 1, (2, 3))
    if scheme_name == "K1":
        return Implies(a, Implies(b, a))
    if scheme_name == "K2":
        c = random_core_wff(rng, 1, (2, 3))
        return Implies(Implies(a, Implies(b, c)),
                       Implies(Implies(a, b), Implies(a, c)))
    if scheme_name == "K3":
        return Implies(Implies(Not(a), Not(b)), Implies(b, a))
    if scheme_name == "K4":
        # a ranges over x2, x3 only, so x1 is never free in it
        return Implies(ForAll(1, a), a)
    if scheme_name == "K5":
        body = eq(plus(Var(1), random_term(rng, 1, (2,))), random_term(rng, 1, (2, 3)))
        t = numeral(rng.randrange(3))
        return Implies(ForAll(1, body), substitute(body, 1, t))
    if scheme_name == "K6":
        return Implies(ForAll(1, Implies(a, b if 1 in _fv(b) else eq(Var(1), Var(1)))),
                       Implies(a, ForAll(1, b if 1 in _fv(b) else eq(Var(1), Var(1)))))
    if scheme_name == "N7":
        body = eq(plus(Var(1), Const(1)), Var(1))
        lhs = substitute(body, 1, Const(1))
        step = ForAll(1, Implies(body, substitute(body, 1, succ(Var(1)))))
        return Implies(lhs, Implies(step, ForAll(1, body)))
    raise ValueError(scheme_name)


def _fv(w):
    from foarith.syntax import free_vars
    return free_vars(w)


def random_proof_corpus(rng, theory, n_lines):
    """Lines that are each justifiable: axioms, one MP layer, some Gen."""
    axiom_names = list(theory.axioms())
    lines = []
    while len(lines) < n_lines:
        roll = rng.random()
        if roll < 0.45 or not lines:
            scheme = rng.choice(["K1", "K2", "K3", "K4", "K5", "N7"])
            lines.append(random_scheme_instance(rng, scheme))
        elif roll < 0.6 and axiom_names:
            lines.append(theory.axioms()[rng.choice(axiom_names)])
        elif roll < 0.85:
            # one MP layer: X is an earlier line, add K1 giving X -> (B -> X),
            # then derive B -> X by MP
            x = rng.choice(lines)
            b = random_core_wff(rng, 1, (2, 3))
            lines.append(Implies(x, Implies(b, x)))
            lines.append(Implies(b, x))
        else:
            x = rng.choice(lines)
            lines.append(ForAll(rng.choice((1, 2)), x))
    return lines[:n_lines]


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def scan_fails_at_18_and_48(monkeypatch):
    """Zero the prime-pair counts of the sums 18 and 48 and leave them
    unresolved by the least-prime search, so scan fails there."""
    pair_counts = goldbach._pair_counts
    unresolved = goldbach._unresolved

    def without_18_and_48(flags):
        conv = pair_counts(flags)
        conv[[18, 48]] = 0
        return conv

    def unresolved_with_18_and_48(flags, members):
        return np.union1d(unresolved(flags, members), members[np.isin(members, (18, 48))])

    monkeypatch.setattr(goldbach, "_pair_counts", without_18_and_48)
    monkeypatch.setattr(goldbach, "_unresolved", unresolved_with_18_and_48)
