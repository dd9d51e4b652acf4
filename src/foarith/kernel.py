"""Hilbert-style proof kernel: axiom schemes, theories, checking, discovery.

The base calculus K has six axiom schemes (K1..K6) over any first-order
language and two rules, Modus Ponens and Generalization.  The arithmetic
theory N extends K with six proper axioms (N1..N6) about successor, sum
and product, plus the induction scheme N7.  Theories form an extension
chain: a child theory inherits every scheme and proper axiom of its
parent, so any proof accepted under the parent is accepted unchanged
under the child.

Generalization is unrestricted here: from A infer (all xi A) for any
variable, with no side condition on premises.  Textbook variants differ
on this point; proofs written for a restricted rule remain valid.

The kernel works on core formulas only (~, ->, all).  Lower surface
formulas before building proofs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

from .syntax import (
    ANY_TERM,
    Const,
    ForAll,
    Implies,
    Not,
    Var,
    Wff,
    Witness,
    ZERO,
    eq,
    free_vars,
    is_core,
    match_substitution_result,
    plus,
    succ,
    times,
)

__all__ = [
    "TheoryError", "SchemeId", "Theory",
    "build_theory_K", "build_theory_N", "build_theory_N_eq", "extend_theory",
    "SchemeMatch", "match_scheme", "recognize_scheme",
    "Scheme", "ProperAxiom", "MP", "Gen", "Unknown", "UNKNOWN", "Justification",
    "ProofLine", "Proof", "LineVerdict", "Verdict", "check_proof",
    "DiscoveryFailure", "DiscoveryResult", "discover", "resolve_unknowns",
]


class TheoryError(ValueError):
    """Ill-formed theory construction (open axiom, duplicate name, ...)."""


class SchemeId(enum.Enum):
    K1 = "K1"
    K2 = "K2"
    K3 = "K3"
    K4 = "K4"
    K5 = "K5"
    K6 = "K6"
    N7 = "N7"

    def __str__(self) -> str:
        return self.value


_SCHEME_ORDER = tuple(SchemeId)


# ---------------------------------------------------------------------------
# theories


@dataclass(frozen=True)
class Theory:
    """A named calculus: enabled schemes plus an ordered proper-axiom table.

    ``relaxed_induction`` widens N7 recognition to any induction variable;
    by default the induction variable must be exactly x1.
    """

    name: str
    parent: Optional["Theory"]
    schemes: frozenset
    own_axioms: tuple
    relaxed_induction: bool = False

    def __post_init__(self):
        # the full proper-axiom table, parent entries first, built once
        table = dict(self.parent._axioms) if self.parent is not None else {}
        table.update(self.own_axioms)
        object.__setattr__(self, "_axioms", table)

    def axioms(self) -> dict:
        """Full proper-axiom table, parent entries first (a fresh copy)."""
        return dict(self._axioms)

    def axiom(self, name: str) -> Optional[Wff]:
        return self._axioms.get(name)


def build_theory_K() -> Theory:
    """The pure first-order calculus: schemes K1..K6, no proper axioms."""
    return Theory("K", None, frozenset(_SCHEME_ORDER[:6]), ())


_X1 = Var(1)
_X2 = Var(2)
_X3 = Var(3)


def _n_axioms() -> tuple:
    return (
        ("N1", ForAll(1, Not(eq(succ(_X1), ZERO)))),
        ("N2", ForAll(1, ForAll(2, Implies(eq(succ(_X1), succ(_X2)), eq(_X1, _X2))))),
        ("N3", ForAll(1, eq(plus(_X1, ZERO), _X1))),
        ("N4", ForAll(1, ForAll(2, eq(plus(_X1, succ(_X2)), succ(plus(_X1, _X2)))))),
        ("N5", ForAll(1, eq(times(_X1, ZERO), ZERO))),
        ("N6", ForAll(1, ForAll(2, eq(times(_X1, succ(_X2)), plus(times(_X1, _X2), _X1))))),
    )


def build_theory_N(relaxed_induction: bool = False) -> Theory:
    """First-order arithmetic: K plus the induction scheme and N1..N6."""
    return Theory("N", build_theory_K(), frozenset(_SCHEME_ORDER),
                  _n_axioms(), relaxed_induction)


def build_theory_N_eq() -> Theory:
    """N extended with explicit equality axioms.

    N itself carries no reflexivity or congruence axioms for equality;
    this prebuilt extension adds them as proper axioms, instantiated for
    the fixed arithmetic signature (one axiom per argument position).
    """
    extras = {
        "eq-refl": ForAll(1, eq(_X1, _X1)),
        "eq-succ": ForAll(1, ForAll(2, Implies(eq(_X1, _X2), eq(succ(_X1), succ(_X2))))),
        "eq-add-l": ForAll(1, ForAll(2, ForAll(3, Implies(
            eq(_X1, _X2), eq(plus(_X1, _X3), plus(_X2, _X3)))))),
        "eq-add-r": ForAll(1, ForAll(2, ForAll(3, Implies(
            eq(_X1, _X2), eq(plus(_X3, _X1), plus(_X3, _X2)))))),
        "eq-mul-l": ForAll(1, ForAll(2, ForAll(3, Implies(
            eq(_X1, _X2), eq(times(_X1, _X3), times(_X2, _X3)))))),
        "eq-mul-r": ForAll(1, ForAll(2, ForAll(3, Implies(
            eq(_X1, _X2), eq(times(_X3, _X1), times(_X3, _X2)))))),
        "eq-sub-l": ForAll(1, ForAll(2, ForAll(3, Implies(
            eq(_X1, _X2), Implies(eq(_X1, _X3), eq(_X2, _X3)))))),
        "eq-sub-r": ForAll(1, ForAll(2, ForAll(3, Implies(
            eq(_X1, _X2), Implies(eq(_X3, _X1), eq(_X3, _X2)))))),
    }
    return extend_theory(build_theory_N(), "N-eq", extras)


def extend_theory(base: Theory, name: str, extra: Mapping) -> Theory:
    """Child theory sharing everything of ``base`` and adding ``extra`` axioms.

    Extra axioms must be closed core formulas under fresh names.
    """
    inherited = base.axioms()
    own = []
    for axiom_name, wff in extra.items():
        if axiom_name in inherited:
            raise TheoryError(f"axiom name {axiom_name!r} already defined in {base.name}")
        if not is_core(wff):
            raise TheoryError(f"axiom {axiom_name!r} is not a core wff")
        fv = free_vars(wff)
        if fv:
            names = ", ".join(f"x{i}" for i in sorted(fv))
            raise TheoryError(f"axiom {axiom_name!r} is open (free: {names})")
        own.append((axiom_name, wff))
    return Theory(name, base, base.schemes, tuple(own), base.relaxed_induction)


# ---------------------------------------------------------------------------
# scheme recognition


@dataclass
class SchemeMatch:
    """A recognized scheme instance with the matched pieces as evidence."""
    scheme: SchemeId
    parts: dict


def _match_k1(w: Wff) -> Optional[dict]:
    if (isinstance(w, Implies) and isinstance(w.consequent, Implies)
            and w.consequent.consequent == w.antecedent):
        return {"A": w.antecedent, "B": w.consequent.antecedent}
    return None


def _match_k2(w: Wff) -> Optional[dict]:
    if not (isinstance(w, Implies) and isinstance(w.antecedent, Implies)
            and isinstance(w.antecedent.consequent, Implies)
            and isinstance(w.consequent, Implies)
            and isinstance(w.consequent.antecedent, Implies)
            and isinstance(w.consequent.consequent, Implies)):
        return None
    a = w.antecedent.antecedent
    b = w.antecedent.consequent.antecedent
    c = w.antecedent.consequent.consequent
    left, right = w.consequent.antecedent, w.consequent.consequent
    if (left.antecedent == a and left.consequent == b
            and right.antecedent == a and right.consequent == c):
        return {"A": a, "B": b, "C": c}
    return None


def _match_k3(w: Wff) -> Optional[dict]:
    if not (isinstance(w, Implies) and isinstance(w.antecedent, Implies)
            and isinstance(w.antecedent.antecedent, Not)
            and isinstance(w.antecedent.consequent, Not)
            and isinstance(w.consequent, Implies)):
        return None
    a = w.antecedent.antecedent.body
    b = w.antecedent.consequent.body
    if w.consequent.antecedent == b and w.consequent.consequent == a:
        return {"A": a, "B": b}
    return None


def _match_k4(w: Wff) -> Optional[dict]:
    # (all xi A) -> A, provided xi is not free in A
    if not (isinstance(w, Implies) and isinstance(w.antecedent, ForAll)):
        return None
    v, body = w.antecedent.var, w.antecedent.body
    if w.consequent == body and v not in free_vars(body):
        return {"var": v, "A": body}
    return None


def _match_k5(w: Wff) -> Optional[dict]:
    # (all xi A(xi)) -> A(t), with t free for xi in A
    if not (isinstance(w, Implies) and isinstance(w.antecedent, ForAll)):
        return None
    v, body = w.antecedent.var, w.antecedent.body
    m = match_substitution_result(body, v, w.consequent)
    if isinstance(m, Witness):
        return {"var": v, "A": body, "term": m.term}
    if m == ANY_TERM:
        return {"var": v, "A": body, "term": None}
    return None


def _match_k6(w: Wff) -> Optional[dict]:
    # (all xi (A -> B)) -> (A -> (all xi B)), xi not free in A
    if not (isinstance(w, Implies) and isinstance(w.antecedent, ForAll)
            and isinstance(w.antecedent.body, Implies)
            and isinstance(w.consequent, Implies)
            and isinstance(w.consequent.consequent, ForAll)):
        return None
    v = w.antecedent.var
    a = w.antecedent.body.antecedent
    b = w.antecedent.body.consequent
    if (w.consequent.consequent.var == v and w.consequent.antecedent == a
            and w.consequent.consequent.body == b and v not in free_vars(a)):
        return {"var": v, "A": a, "B": b}
    return None


def _match_n7(w: Wff, relaxed: bool) -> Optional[dict]:
    # A(0) -> ((all x1 (A(x1) -> A(S(x1)))) -> (all x1 A(x1))),
    # where x1 occurs free in A
    if not (isinstance(w, Implies) and isinstance(w.consequent, Implies)
            and isinstance(w.consequent.consequent, ForAll)):
        return None
    base = w.antecedent
    step = w.consequent.antecedent
    v = w.consequent.consequent.var
    body = w.consequent.consequent.body
    if v != 1 and not relaxed:
        return None
    if v not in free_vars(body):
        return None
    if not (isinstance(step, ForAll) and step.var == v
            and isinstance(step.body, Implies) and step.body.antecedent == body):
        return None
    if match_substitution_result(body, v, step.body.consequent) != Witness(succ(Var(v))):
        return None
    if match_substitution_result(body, v, base) != Witness(Const(1)):
        return None
    return {"var": v, "A": body}


# scheme -> matcher(w, relaxed_induction); only N7 reads the flag
_MATCHERS = {
    SchemeId.K1: lambda w, _: _match_k1(w),
    SchemeId.K2: lambda w, _: _match_k2(w),
    SchemeId.K3: lambda w, _: _match_k3(w),
    SchemeId.K4: lambda w, _: _match_k4(w),
    SchemeId.K5: lambda w, _: _match_k5(w),
    SchemeId.K6: lambda w, _: _match_k6(w),
    SchemeId.N7: _match_n7,
}


def match_scheme(scheme: SchemeId, w: Wff, *,
                 relaxed_induction: bool = False) -> Optional[SchemeMatch]:
    """Check one specific scheme, side conditions included."""
    matcher = _MATCHERS.get(scheme)
    if matcher is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    parts = matcher(w, relaxed_induction)
    return SchemeMatch(scheme, parts) if parts is not None else None


def recognize_scheme(theory: Theory, w: Wff) -> Optional[SchemeMatch]:
    """First enabled scheme (in order K1..K6, N7) whose shape w satisfies."""
    for scheme in _SCHEME_ORDER:
        if scheme in theory.schemes:
            m = match_scheme(scheme, w, relaxed_induction=theory.relaxed_induction)
            if m is not None:
                return m
    return None


# ---------------------------------------------------------------------------
# proofs


@dataclass(frozen=True)
class Scheme:
    scheme: SchemeId


@dataclass(frozen=True)
class ProperAxiom:
    name: str


@dataclass(frozen=True)
class MP:
    """Modus Ponens: line i holds A, line j holds (A -> this)."""
    i: int
    j: int


@dataclass(frozen=True)
class Gen:
    """Generalization of line i over the stated variable."""
    i: int
    var: int


@dataclass(frozen=True)
class Unknown:
    """Placeholder (the '?' of the file format); discovery fills these."""


UNKNOWN = Unknown()

Justification = Union[Scheme, ProperAxiom, MP, Gen, Unknown]


@dataclass(frozen=True)
class ProofLine:
    wff: Wff
    justification: Justification


@dataclass(frozen=True)
class Proof:
    theory: Theory
    lines: tuple

    def __post_init__(self):
        object.__setattr__(self, "lines", tuple(self.lines))
        if not self.lines:
            raise ValueError("a proof must have at least one line")

    @property
    def conclusion(self) -> Wff:
        return self.lines[-1].wff


@dataclass(frozen=True)
class LineVerdict:
    line: int
    ok: bool
    reason: Optional[str] = None


@dataclass(frozen=True)
class Verdict:
    accepted: bool
    per_line: tuple

    @property
    def failures(self) -> tuple:
        return tuple(v for v in self.per_line if not v.ok)


def _check_line(theory: Theory, earlier: Sequence, number: int,
                wff: Wff, just: Justification) -> Optional[str]:
    """Reason the line is bad, or None when it checks out."""
    if not is_core(wff):
        return "not a core wff (lower abbreviations first)"
    if isinstance(just, Scheme):
        if just.scheme not in theory.schemes:
            return f"scheme {just.scheme} is not part of theory {theory.name}"
        if match_scheme(just.scheme, wff,
                        relaxed_induction=theory.relaxed_induction) is None:
            return f"not a {just.scheme} instance"
        return None
    if isinstance(just, ProperAxiom):
        axiom = theory.axiom(just.name)
        if axiom is None:
            return f"theory {theory.name} has no proper axiom {just.name!r}"
        if wff != axiom:
            return f"wff differs from proper axiom {just.name!r}"
        return None
    if isinstance(just, MP):
        for ref in (just.i, just.j):
            if not 1 <= ref < number:
                return f"MP cites line {ref}, which is not an earlier line"
        if earlier[just.j - 1] != Implies(earlier[just.i - 1], wff):
            return "major premise shape mismatch"
        return None
    if isinstance(just, Gen):
        if not 1 <= just.i < number:
            return f"GEN cites line {just.i}, which is not an earlier line"
        if wff != ForAll(just.var, earlier[just.i - 1]):
            return "generalization shape mismatch"
        return None
    if isinstance(just, Unknown):
        return "unresolved justification (?)"
    return f"unrecognized justification {just!r}"


def check_proof(proof: Proof) -> Verdict:
    """Validate every line against its stated justification."""
    earlier = []
    per_line = []
    for number, line in enumerate(proof.lines, 1):
        reason = _check_line(proof.theory, earlier, number,
                             line.wff, line.justification)
        per_line.append(LineVerdict(number, reason is None, reason))
        earlier.append(line.wff)
    return Verdict(all(v.ok for v in per_line), tuple(per_line))


# ---------------------------------------------------------------------------
# justification discovery


@dataclass(frozen=True)
class DiscoveryFailure:
    line: int
    reason: str


@dataclass
class DiscoveryResult:
    proof: Optional[Proof]
    failures: list

    @property
    def ok(self) -> bool:
        return self.proof is not None


def _find_justification(theory: Theory, axiom_names: Mapping, first: Mapping,
                        majors: Mapping, wff: Wff) -> Optional[Justification]:
    """Deterministic search: axiom table, schemes K1..K6 and N7, MP, Gen.

    First hit wins.  ``axiom_names`` maps each proper axiom to its first
    name; ``first`` maps each earlier formula to the first line holding
    it; ``majors`` maps the consequent of each earlier implication to its
    ``(line, antecedent)`` pairs.  MP takes the least minor premise line,
    then the least major premise line; Gen cites the first earlier copy
    of the body.  Each step is a lookup, not a scan of the earlier lines.
    """
    name = axiom_names.get(wff)
    if name is not None:
        return ProperAxiom(name)
    m = recognize_scheme(theory, wff)
    if m is not None:
        return Scheme(m.scheme)
    premises = [(i, j) for j, a in majors.get(wff, ()) if (i := first.get(a)) is not None]
    if premises:
        return MP(*min(premises))
    if isinstance(wff, ForAll):
        i = first.get(wff.body)
        if i is not None:
            return Gen(i, wff.var)
    return None


def discover(theory: Theory, wffs: Sequence) -> DiscoveryResult:
    """Annotate a bare formula sequence: resolution of an all-'?' proof."""
    return resolve_unknowns(Proof(theory, tuple(ProofLine(w, UNKNOWN) for w in wffs)))


def resolve_unknowns(proof: Proof) -> DiscoveryResult:
    """Fill every Unknown justification by search, keeping the others.

    Returns the annotated proof when every '?' line is justifiable,
    otherwise a report naming each '?' line that is not a core wff or that
    the search could not justify.
    """
    theory = proof.theory
    axiom_names = {}
    for name, axiom in theory.axioms().items():
        axiom_names.setdefault(axiom, name)
    lines = []
    failures = []
    first = {}      # formula -> first line holding it
    majors = {}     # consequent -> [(line, antecedent), ...] of implications
    for number, line in enumerate(proof.lines, 1):
        wff, just = line.wff, line.justification
        if isinstance(just, Unknown):
            if not is_core(wff):
                failures.append(DiscoveryFailure(number, "not a core wff"))
            else:
                just = _find_justification(theory, axiom_names, first, majors, wff)
                if just is None:
                    reason = ("not an axiom; no earlier lines" if number == 1 else
                              "not an axiom; no MP or Gen derivation from earlier lines")
                    failures.append(DiscoveryFailure(number, reason))
        lines.append(ProofLine(wff, just))
        first.setdefault(wff, number)
        if isinstance(wff, Implies):
            majors.setdefault(wff.consequent, []).append((number, wff.antecedent))
    if failures:
        return DiscoveryResult(None, failures)
    return DiscoveryResult(Proof(proof.theory, tuple(lines)), [])
