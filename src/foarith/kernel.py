"""Hilbert-style proof kernel: axiom schemes, theories, checking, discovery.

The base calculus K has six axiom schemes (K1..K6) over any first-order
language and two rules, Modus Ponens and Generalization.  The arithmetic
theory N extends K with six proper axioms (N1..N6) about successor, sum
and product, plus the induction scheme N7 on the variable x1.  Theories
form an extension chain: a child theory inherits every scheme and proper
axiom of its parent, so any proof accepted under the parent is accepted
unchanged under the child.

The seven schemes are one table of shapes (``_SHAPES``), written as the
textbook states them, with metavariables for subformulas.  A formula is
an instance when it matches the shape, every occurrence of a metavariable
binding the same subformula, and then passes the scheme's side condition.
The matcher is ``syntax._bind``, the one that also reads the shapes of
the abbreviation table there.  The side conditions are:
the quantified variable is not free in A (K4, K6), A(t) is A with a term
free for the variable (K5), and induction is on x1, free in A, with base
A(0) and step A(S(x1)) (N7).

Generalization is unrestricted here: from A infer (all xi A) for any
variable, with no side condition on premises.  Textbook variants differ
on this point; proofs written for a restricted rule remain valid.

The kernel works on core formulas only (~, ->, all).  Lower surface
formulas before building proofs.
"""

from __future__ import annotations

import enum
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

from .syntax import (
    ForAll,
    Implies,
    NO_MATCH,
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
    substitute,
    succ,
    times,
    _bind,
    _record,
    _shown,
)

__all__ = [
    "TheoryError", "SchemeId", "Theory",
    "build_theory_K", "build_theory_N", "build_theory_N_eq", "extend_theory",
    "SchemeMatch", "match_scheme", "recognize_scheme",
    "Scheme", "ProperAxiom", "MP", "Gen", "Unknown", "UNKNOWN", "Justification",
    "ProofLine", "Proof", "LineVerdict", "Verdict", "check_proof",
    "DiscoveryResult", "discover", "resolve_unknowns",
]


class TheoryError(ValueError):
    """Ill-formed theory construction (open axiom, duplicate name, ...).

    ``axiom`` names the proper axiom at fault.
    """

    def __init__(self, message: str, axiom: str):
        super().__init__(message)
        self.axiom = axiom


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


@_record
class Theory:
    """A named calculus: enabled schemes plus an ordered proper-axiom table."""

    name: str
    parent: Optional["Theory"]
    schemes: frozenset
    own_axioms: tuple

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


def build_theory_N() -> Theory:
    """First-order arithmetic: K plus the induction scheme and N1..N6."""
    return Theory("N", build_theory_K(), frozenset(_SCHEME_ORDER), _n_axioms())


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
            raise TheoryError(f"axiom name {_shown(axiom_name)} already defined in {base.name}",
                              axiom_name)
        if not is_core(wff):
            raise TheoryError(f"axiom {_shown(axiom_name)} is not a core wff", axiom_name)
        fv = free_vars(wff)
        if fv:
            names = _shown(", ".join(f"x{i}" for i in sorted(fv)), str)
            raise TheoryError(f"axiom {_shown(axiom_name)} is open (free: {names})", axiom_name)
        own.append((axiom_name, wff))
    return Theory(name, base, base.schemes, tuple(own))


# ---------------------------------------------------------------------------
# scheme recognition


@_record
class SchemeMatch:
    """A recognized scheme instance with the matched pieces as evidence,
    in a read-only ``MappingProxyType`` of a copy of the given mapping."""
    scheme: SchemeId
    parts: Mapping

    def __post_init__(self):
        object.__setattr__(self, "parts", MappingProxyType(dict(self.parts)))


# Each scheme as a shape over the core connectives.  A string is a
# metavariable: all its occurrences must bind the same subformula, and
# "var" binds the variable of every quantifier in the shape.  A(t), A(0)
# and A(S(x1)) stand for substitution instances of A; the side conditions
# check them and drop them from the parts.
_SHAPES = {
    SchemeId.K1: ("->", "A", ("->", "B", "A")),
    SchemeId.K2: ("->", ("->", "A", ("->", "B", "C")),
                  ("->", ("->", "A", "B"), ("->", "A", "C"))),
    SchemeId.K3: ("->", ("->", ("~", "A"), ("~", "B")), ("->", "B", "A")),
    SchemeId.K4: ("->", ("all", "var", "A"), "A"),
    SchemeId.K5: ("->", ("all", "var", "A"), "A(t)"),
    SchemeId.K6: ("->", ("all", "var", ("->", "A", "B")), ("->", "A", ("all", "var", "B"))),
    SchemeId.N7: ("->", "A(0)", ("->", ("all", "var", ("->", "A", "A(S(x1))")),
                                 ("all", "var", "A"))),
}


def _var_not_free_in_a(parts: dict) -> bool:
    return parts["var"] not in free_vars(parts["A"])


def _witness_term(parts: dict) -> bool:
    # A(t) is A[var := t] for a term t free for var in A; no term is named
    # when var is not free in A
    m = match_substitution_result(parts["A"], parts["var"], parts.pop("A(t)"))
    parts["term"] = m.term if isinstance(m, Witness) else None
    return m != NO_MATCH


def _induction_on_x1(parts: dict) -> bool:
    # neither S(x1) nor 0 can be captured, so substitution always succeeds
    v, a = parts["var"], parts["A"]
    return (v == 1 and v in free_vars(a)
            and substitute(a, v, succ(_X1)) == parts.pop("A(S(x1))")
            and substitute(a, v, ZERO) == parts.pop("A(0)"))


_SIDE_CONDITIONS = {
    SchemeId.K4: _var_not_free_in_a,
    SchemeId.K5: _witness_term,
    SchemeId.K6: _var_not_free_in_a,
    SchemeId.N7: _induction_on_x1,
}


def match_scheme(scheme: SchemeId, w: Wff) -> Optional[SchemeMatch]:
    """Check one specific scheme, side conditions included."""
    shape = _SHAPES.get(scheme)
    if shape is None:
        raise ValueError(f"unknown scheme {scheme!r}")
    parts = {}
    if not _bind(shape, w, parts):
        return None
    side_condition = _SIDE_CONDITIONS.get(scheme)
    if side_condition is not None and not side_condition(parts):
        return None
    return SchemeMatch(scheme, parts)


def recognize_scheme(theory: Theory, w: Wff) -> Optional[SchemeMatch]:
    """First enabled scheme (in order K1..K6, N7) whose shape w satisfies."""
    for scheme in _SCHEME_ORDER:
        if scheme in theory.schemes:
            m = match_scheme(scheme, w)
            if m is not None:
                return m
    return None


# ---------------------------------------------------------------------------
# proofs


@_record
class Scheme:
    scheme: SchemeId


@_record
class ProperAxiom:
    name: str


@_record
class MP:
    """Modus Ponens: line i holds A, line j holds (A -> this)."""
    i: int
    j: int


@_record
class Gen:
    """Generalization of line i over the stated variable."""
    i: int
    var: int


@_record
class Unknown:
    """Placeholder (the '?' of the file format); discovery fills these."""


UNKNOWN = Unknown()

Justification = Union[Scheme, ProperAxiom, MP, Gen, Unknown]


@_record
class ProofLine:
    wff: Wff
    justification: Justification


@_record
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


@_record
class LineVerdict:
    line: int
    ok: bool
    reason: Optional[str] = None


@_record
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
        if match_scheme(just.scheme, wff) is None:
            return f"not a {just.scheme} instance"
        return None
    if isinstance(just, ProperAxiom):
        axiom = theory.axiom(just.name)
        if axiom is None:
            return f"theory {theory.name} has no proper axiom {_shown(just.name)}"
        if wff != axiom:
            return f"wff differs from proper axiom {_shown(just.name)}"
        return None
    if isinstance(just, MP):
        for ref in (just.i, just.j):
            if not 1 <= ref < number:
                return f"MP cites line {_shown(str(ref), str)}, which is not an earlier line"
        if earlier[just.j - 1] != Implies(earlier[just.i - 1], wff):
            return "major premise shape mismatch"
        return None
    if isinstance(just, Gen):
        if not 1 <= just.i < number:
            return f"GEN cites line {_shown(str(just.i), str)}, which is not an earlier line"
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


@_record
class DiscoveryResult:
    proof: Optional[Proof]
    failures: tuple     # a LineVerdict, not ok, for each line that failed

    def __post_init__(self):
        object.__setattr__(self, "failures", tuple(self.failures))

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
                failures.append(LineVerdict(number, False, "not a core wff"))
            else:
                just = _find_justification(theory, axiom_names, first, majors, wff)
                if just is None:
                    reason = ("not an axiom; no earlier lines" if number == 1 else
                              "not an axiom; no MP or Gen derivation from earlier lines")
                    failures.append(LineVerdict(number, False, reason))
        lines.append(ProofLine(wff, just))
        first.setdefault(wff, number)
        if isinstance(wff, Implies):
            majors.setdefault(wff.consequent, []).append((number, wff.antecedent))
    if failures:
        return DiscoveryResult(None, failures)
    return DiscoveryResult(Proof(proof.theory, tuple(lines)), ())
