"""The benchmark's own first-order syntax: builders, printer and oracles.

Nothing here imports foarith.  Formulas are nested tuples, which Python
compares structurally in C, so the oracles below stay independent of the
program under test and fast enough to run on every generated input.

Terms:    ("v", i)  ("c", i)  ("S", t)  ("+", a, b)  ("*", a, b)
Core:     ("=", l, r)  ("~", a)  ("->", a, b)  ("all", v, a)
Surface:  the core forms plus ("ex", v, a)  ("&", a, b)  ("|", a, b)
          ("<->", a, b), removed by :func:`lower`.

The printer emits the program's canonical text (fully parenthesized,
``0`` for a1), so two core formulas are equal exactly when their texts
are; the discovery oracle relies on that.
"""

from __future__ import annotations

import math

ZERO = ("c", 1)
ONE = ("c", 2)
SCHEMES = ("K1", "K2", "K3", "K4", "K5", "K6", "N7")


def var(i):
    return ("v", i)


def succ(t):
    return ("S", t)


def plus(a, b):
    return ("+", a, b)


def times(a, b):
    return ("*", a, b)


def eq(a, b):
    return ("=", a, b)


def neg(a):
    return ("~", a)


def imp(a, b):
    return ("->", a, b)


def forall(v, a):
    return ("all", v, a)


def numeral(n):
    t = ZERO
    for _ in range(n):
        t = succ(t)
    return t


def numeral_text(n):
    """Text of the numeral n, built without recursion so any depth works."""
    return "S(" * n + "0" + ")" * n


# ---------------------------------------------------------------------------
# printing and lowering


def term_text(t):
    tag = t[0]
    if tag == "v":
        return f"x{t[1]}"
    if tag == "c":
        return "0" if t[1] == 1 else f"a{t[1]}"
    if tag == "S":
        return f"S({term_text(t[1])})"
    return f"({term_text(t[1])} {tag} {term_text(t[2])})"


def text(w):
    tag = w[0]
    if tag == "=":
        return f"({term_text(w[1])} = {term_text(w[2])})"
    if tag == "~":
        return "~" + text(w[1])
    if tag in ("all", "ex"):
        return f"({tag} x{w[1]} {text(w[2])})"
    return f"({text(w[1])} {tag} {text(w[2])})"


def lower(w):
    """Expand ex, &, | and <-> exactly as the documented abbreviations say."""
    tag = w[0]
    if tag == "=":
        return w
    if tag == "~":
        return neg(lower(w[1]))
    if tag == "->":
        return imp(lower(w[1]), lower(w[2]))
    if tag == "all":
        return forall(w[1], lower(w[2]))
    if tag == "ex":
        return neg(forall(w[1], neg(lower(w[2]))))
    if tag == "&":
        return neg(imp(lower(w[1]), neg(lower(w[2]))))
    if tag == "|":
        return imp(neg(lower(w[1])), lower(w[2]))
    a, b = lower(w[1]), lower(w[2])
    return neg(imp(imp(a, b), neg(imp(b, a))))


# ---------------------------------------------------------------------------
# variables and substitution


def term_vars(t):
    tag = t[0]
    if tag == "v":
        return {t[1]}
    if tag == "c":
        return set()
    out = set()
    for a in t[1:]:
        out |= term_vars(a)
    return out


def free_vars(w):
    tag = w[0]
    if tag == "=":
        return term_vars(w[1]) | term_vars(w[2])
    if tag == "~":
        return free_vars(w[1])
    if tag == "all":
        return free_vars(w[2]) - {w[1]}
    return free_vars(w[1]) | free_vars(w[2])


def free_for(t, x, w):
    """No free x in w lies under a quantifier binding a variable of t."""
    tag = w[0]
    if tag == "=":
        return True
    if tag == "~":
        return free_for(t, x, w[1])
    if tag == "->":
        return free_for(t, x, w[1]) and free_for(t, x, w[2])
    if w[1] == x or x not in free_vars(w[2]):
        return True
    return w[1] not in term_vars(t) and free_for(t, x, w[2])


def _subst_term(s, x, t):
    tag = s[0]
    if tag == "v":
        return t if s[1] == x else s
    if tag == "c":
        return s
    return (tag,) + tuple(_subst_term(a, x, t) for a in s[1:])


def subst(w, x, t):
    """w with every free x replaced by t; callers keep t free for x."""
    tag = w[0]
    if tag == "=":
        return eq(_subst_term(w[1], x, t), _subst_term(w[2], x, t))
    if tag == "~":
        return neg(subst(w[1], x, t))
    if tag == "->":
        return imp(subst(w[1], x, t), subst(w[2], x, t))
    if w[1] == x:
        return w
    return forall(w[1], subst(w[2], x, t))


_ANY = "any"


def match_subst(a, x, a2):
    """The term t with a2 = a[x := t]: ("witness", t), _ANY, or None."""
    found = []

    def terms(s, s2, bound):
        if s[0] == "v" and s[1] == x and not bound:
            found.append(s2)
            return True
        if s[0] in ("v", "c") or s2[0] != s[0]:
            return s == s2
        return all(terms(u, v, bound) for u, v in zip(s[1:], s2[1:]))

    def wffs(w, w2, bound):
        if w[0] != w2[0]:
            return False
        tag = w[0]
        if tag == "=":
            return terms(w[1], w2[1], bound) and terms(w[2], w2[2], bound)
        if tag == "~":
            return wffs(w[1], w2[1], bound)
        if tag == "->":
            return wffs(w[1], w2[1], bound) and wffs(w[2], w2[2], bound)
        return w[1] == w2[1] and wffs(w[2], w2[2], bound or w[1] == x)

    if not wffs(a, a2, False):
        return None
    if not found:
        return _ANY
    t = found[0]
    if any(u != t for u in found[1:]) or not free_for(t, x, a):
        return None
    return ("witness", t)


# ---------------------------------------------------------------------------
# axiom schemes


def _is(w, tag):
    return w[0] == tag


def is_instance(scheme, w):
    """Whether w is an instance of the scheme, side conditions included."""
    if not _is(w, "->"):
        return False
    ante, cons = w[1], w[2]
    if scheme == "K1":
        return _is(cons, "->") and cons[2] == ante
    if scheme == "K2":
        if not (_is(ante, "->") and _is(ante[2], "->") and _is(cons, "->")
                and _is(cons[1], "->") and _is(cons[2], "->")):
            return False
        a, b, c = ante[1], ante[2][1], ante[2][2]
        return cons[1] == imp(a, b) and cons[2] == imp(a, c)
    if scheme == "K3":
        return (_is(ante, "->") and _is(ante[1], "~") and _is(ante[2], "~")
                and cons == imp(ante[2][1], ante[1][1]))
    if scheme == "K4":
        return (_is(ante, "all") and cons == ante[2]
                and ante[1] not in free_vars(ante[2]))
    if scheme == "K5":
        return _is(ante, "all") and match_subst(ante[2], ante[1], cons) is not None
    if scheme == "K6":
        if not (_is(ante, "all") and _is(ante[2], "->") and _is(cons, "->")
                and _is(cons[2], "all")):
            return False
        v, a, b = ante[1], ante[2][1], ante[2][2]
        return cons == imp(a, forall(v, b)) and v not in free_vars(a)
    if scheme == "N7":
        if not (_is(cons, "->") and _is(cons[2], "all")):
            return False
        step, v, body = cons[1], cons[2][1], cons[2][2]
        return (v == 1 and v in free_vars(body)
                and _is(step, "all") and step[1] == v
                and _is(step[2], "->") and step[2][1] == body
                and match_subst(body, v, step[2][2]) == ("witness", succ(var(v)))
                and match_subst(body, v, ante) == ("witness", ZERO))
    raise ValueError(scheme)


# ---------------------------------------------------------------------------
# theories and the first-hit discovery oracle

X1, X2, X3 = var(1), var(2), var(3)

N_AXIOMS = (
    ("N1", forall(1, neg(eq(succ(X1), ZERO)))),
    ("N2", forall(1, forall(2, imp(eq(succ(X1), succ(X2)), eq(X1, X2))))),
    ("N3", forall(1, eq(plus(X1, ZERO), X1))),
    ("N4", forall(1, forall(2, eq(plus(X1, succ(X2)), succ(plus(X1, X2)))))),
    ("N5", forall(1, eq(times(X1, ZERO), ZERO))),
    ("N6", forall(1, forall(2, eq(times(X1, succ(X2)), plus(times(X1, X2), X1))))),
)

THEORY_SCHEMES = {"K": SCHEMES[:6], "N": SCHEMES}
THEORY_AXIOMS = {"K": (), "N": N_AXIOMS}

UNJUSTIFIED_FIRST = "not an axiom; no earlier lines"
UNJUSTIFIED = "not an axiom; no MP or Gen derivation from earlier lines"


class Discovery:
    """First-hit justification search over canonical texts.

    Order: proper axioms in table order, schemes K1..K6 then N7, MP with the
    minor premise index ascending and then the major premise, then Gen.
    """

    def __init__(self, theory, extra_axioms=()):
        self.axioms = [(name, text(w))
                       for name, w in THEORY_AXIOMS[theory] + tuple(extra_axioms)]
        self.schemes = THEORY_SCHEMES[theory]
        self.texts = []
        self.first = {}

    def justify(self, w, wtext):
        for name, ax in self.axioms:
            if ax == wtext:
                return f"AX {name}"
        for scheme in self.schemes:
            if is_instance(scheme, w):
                return scheme
        for i, earlier in enumerate(self.texts, 1):
            j = self.first.get(f"({earlier} -> {wtext})")
            if j is not None:
                return f"MP {i} {j}"
        if w[0] == "all":
            i = self.first.get(text(w[2]))
            if i is not None:
                return f"GEN {i} x{w[1]}"
        return None

    def add(self, wtext):
        self.texts.append(wtext)
        self.first.setdefault(wtext, len(self.texts))


# ---------------------------------------------------------------------------
# plain-int evaluator with the program's three-valued rules

TRUE, FALSE, UNKNOWN = "true", "false", "unknown"
_T = (TRUE, None)
_F = (FALSE, None)
_U = (UNKNOWN, None)


def _merge(a, b):
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    out.update(b)
    return out


class OverBudget(Exception):
    """The evaluation compared more atoms than its budget allowed."""


def _compile_term(t):
    tag = t[0]
    if tag == "v":
        i = t[1]
        return lambda env: env[i]
    if tag == "c":
        if t[1] not in (1, 2):
            raise ValueError(f"constant a{t[1]} has no value")
        value = t[1] - 1
        return lambda env: value
    if tag == "S":
        f = _compile_term(t[1])
        return lambda env: f(env) + 1
    f, g = _compile_term(t[1]), _compile_term(t[2])
    if tag == "+":
        return lambda env: f(env) + g(env)
    return lambda env: f(env) * g(env)


def _compile(w, bound, cutoff, atoms):
    tag = w[0]
    if tag == "=":
        f, g = _compile_term(w[1]), _compile_term(w[2])

        def ev_atom(env):
            atoms[0] -= 1
            if atoms[0] < 0:
                raise OverBudget
            return _T if f(env) == g(env) else _F
        return ev_atom
    if tag == "~":
        body = _compile(w[1], bound, cutoff, atoms)

        def ev_not(env):
            truth, wit = body(env)
            if truth is TRUE:
                return (FALSE, wit) if wit else _F
            if truth is FALSE:
                return (TRUE, wit) if wit else _T
            return _U
        return ev_not
    if tag == "->":
        fa = _compile(w[1], bound, cutoff, atoms)
        fb = _compile(w[2], bound, cutoff, atoms)

        def ev_imp(env):
            a = fa(env)
            if a[0] is FALSE:
                return (TRUE, a[1]) if a[1] else _T
            b = fb(env)
            if b[0] is TRUE:
                return (TRUE, b[1]) if b[1] else _T
            if a[0] is TRUE and b[0] is FALSE:
                merged = _merge(a[1], b[1])
                return (FALSE, merged) if merged else _F
            return _U
        return ev_imp
    v = w[1]
    body = _compile(w[2], bound, cutoff, atoms)
    done = _T if cutoff else _U

    def ev_all(env):
        saved = env.get(v)
        try:
            for n in range(bound + 1):
                env[v] = n
                truth, wit = body(env)
                if truth is FALSE:
                    return (FALSE, _merge({v: n}, wit))
            return done
        finally:
            if saved is None:
                env.pop(v, None)
            else:
                env[v] = saved
    return ev_all


def evaluate(w, env, bound, cutoff, budget=None):
    """((verdict, witness), atoms compared) over the naturals 0..bound.

    Evaluation order and short cuts follow the program's evaluator, so
    the atom count measures the work a request asks of it.  Raises
    OverBudget once more than ``budget`` atoms have been compared.
    """
    limit = math.inf if budget is None else budget
    atoms = [limit]
    result = _compile(w, bound, cutoff, atoms)(dict(env))
    return result, limit - atoms[0]


def verdict_text(result, bound):
    """The line ``foarith model eval`` prints for an evaluation result."""
    truth, wit = result
    shown = ", ".join(f"x{i}={n}" for i, n in sorted(wit.items())) if wit else ""
    if truth == TRUE:
        return "True" + (f", witness {shown}" if wit else "")
    if truth == FALSE:
        return "False" + (f", counterexample {shown}" if wit else "")
    return f"Unknown (bound {bound} exhausted)"


# ---------------------------------------------------------------------------
# the Goldbach sentence, built the way its documentation describes


def _fresh(avoid, count):
    out, i = [], 1
    while len(out) < count:
        if i not in avoid:
            out.append(i)
        i += 1
    return out


def _conj(parts):
    w = parts[-1]
    for part in reversed(parts[:-1]):
        w = ("&", part, w)
    return w


def prime_surface(x, avoid):
    """x != 0, x != 1, and every factorization a*b = x has a = 1 or a = x."""
    a, b = _fresh(avoid, 2)
    one = succ(ZERO)
    divisors = forall(a, forall(b, imp(eq(times(var(a), var(b)), x),
                                       ("|", eq(var(a), one), eq(var(a), x)))))
    return _conj([neg(eq(x, ZERO)), neg(eq(x, one)), divisors])


def admissible_surface(x, avoid):
    """x is even, at least 16, with x/2 and x-3 composite."""
    (b,) = _fresh(avoid, 1)
    bv = var(b)
    inner = avoid | {b}
    return _conj([
        ("ex", b, eq(plus(bv, bv), x)),
        ("ex", b, eq(plus(bv, numeral(16)), x)),
        ("ex", b, ("&", eq(plus(bv, bv), x), neg(prime_surface(bv, inner)))),
        ("ex", b, ("&", eq(plus(bv, numeral(3)), x), neg(prime_surface(bv, inner)))),
    ])


def goldbach_surface(x, classical=False):
    """(admissible(x) -> x is a sum of two primes x2 and x3), unlowered."""
    avoid = {1, 2, 3}
    if classical:
        (b,) = _fresh(avoid, 1)
        antecedent = ("&", ("ex", b, eq(plus(var(b), var(b)), x)),
                      ("ex", b, eq(plus(var(b), numeral(3)), x)))
    else:
        antecedent = admissible_surface(x, avoid)
    consequent = ("ex", 2, ("ex", 3, _conj([
        prime_surface(X2, avoid | {2}),
        prime_surface(X3, avoid | {3}),
        eq(plus(X2, X3), x)])))
    return imp(antecedent, consequent)


def goldbach_sentence(classical=False):
    return lower(forall(1, goldbach_surface(X1, classical)))
