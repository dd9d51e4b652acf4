"""Line-oriented proof file format.

A proof file is UTF-8 text (the command line drops a leading byte order
mark).  Blank lines and ``#`` comments are ignored.
The header consists of optional axiom declarations followed by a theory
line, then the numbered proof lines::

    axiom reflexive: (all x1 (x1 = x1))
    theory: N
    1. (all x1 (x1 = x1)) ; AX reflexive
    2. (all x2 (all x1 (x1 = x1))) ; GEN 1 x2
    3. ... ; ?

Justifications are ``K1`` .. ``K6``, ``N7``, ``AX <name>``, ``MP <i> <j>``
(line i holds the minor premise A, line j the major premise A -> B),
``GEN <i> x<v>``, or ``?`` to request discovery.  Lines are numbered
1..n consecutively.  Axiom declarations build an extension of the named
base theory; K, N and N-eq are prebuilt.
"""

from __future__ import annotations

import re
from typing import Optional

from .kernel import (
    Gen,
    Justification,
    MP,
    Proof,
    ProofLine,
    ProperAxiom,
    Scheme,
    SchemeId,
    Theory,
    TheoryError,
    UNKNOWN,
    Unknown,
    build_theory_K,
    build_theory_N,
    build_theory_N_eq,
    extend_theory,
)
from .syntax import ParseError, _number, _shown, lower, parse_wff, print_wff

__all__ = [
    "ProofFileError", "builtin_theories",
    "parse_justification", "format_justification",
    "parse_proof_file", "format_proof",
]


class ProofFileError(ValueError):
    """Malformed proof file; carries the 1-based source line number."""

    def __init__(self, message: str, lineno: int):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


# theories are immutable, so the prebuilt ones are shared
_BUILTIN = {"K": build_theory_K(), "N": build_theory_N(), "N-eq": build_theory_N_eq()}


def builtin_theories() -> dict:
    return dict(_BUILTIN)


_AXIOM_RE = re.compile(r"axiom\s+([^\s:]+)\s*:\s*(.+)\Z")
_THEORY_RE = re.compile(r"theory\s*:\s*(\S+)\Z")
# The formula ends at the first ';' that a justification follows.  A
# formula that holds no ';' is read by the first branch, without trying
# the ';' after each of its characters; the second takes the rest.
_NUMBERED_RE = re.compile(r"(\d+)\.\s*([^;]*[^;\s]|.+?)\s*;\s*(\S.*?)\s*\Z")
_MP_RE = re.compile(r"MP\s+(\d+)\s+(\d+)\Z")
_GEN_RE = re.compile(r"GEN\s+(\d+)\s+x(\d+)\Z")
_AX_RE = re.compile(r"AX\s+(\S+)\Z")

_SCHEME_NAMES = {s.value for s in SchemeId}


def parse_justification(text: str) -> Justification:
    text = text.strip()
    if text == "?":
        return UNKNOWN
    if text in _SCHEME_NAMES:
        return Scheme(SchemeId(text))
    m = _AX_RE.match(text)
    if m is not None:
        return ProperAxiom(m.group(1))
    m = _MP_RE.match(text)
    if m is not None:
        return MP(_number(m.group(1), "line reference"), _number(m.group(2), "line reference"))
    m = _GEN_RE.match(text)
    if m is not None and _number(m.group(2), "variable index") >= 1:   # there is no x0
        return Gen(_number(m.group(1), "line reference"), int(m.group(2)))
    raise ValueError(f"unrecognized justification {_shown(text)}")


def format_justification(just: Justification) -> str:
    if isinstance(just, Scheme):
        return just.scheme.value
    if isinstance(just, ProperAxiom):
        return f"AX {just.name}"
    if isinstance(just, MP):
        return f"MP {just.i} {just.j}"
    if isinstance(just, Gen):
        return f"GEN {just.i} x{just.var}"
    if isinstance(just, Unknown):
        return "?"
    raise ValueError(f"unrecognized justification {just!r}")


def parse_proof_file(text: str) -> Proof:
    """Read a proof file.  Its formulas share one parse table, so each
    repeated parenthesized subformula is parsed once and is one object,
    and a line is lexed only where it does not restate an earlier one."""
    theories = builtin_theories()
    table: dict = {}
    theory: Optional[Theory] = None
    extra_axioms: dict = {}
    declared_at: dict = {}     # axiom name -> line of its declaration
    lines: list = []

    for lineno, raw in enumerate(text.splitlines(), 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue

        m = _NUMBERED_RE.match(stripped)
        if m is not None:
            if theory is None:
                raise ProofFileError("proof line before the theory declaration", lineno)
            try:
                number = _number(m.group(1), "line number")
            except ValueError as exc:
                raise ProofFileError(str(exc), lineno) from exc
            if number != len(lines) + 1:
                raise ProofFileError(
                    f"line numbered {_shown(str(number), str)}, expected {len(lines) + 1}", lineno)
            try:
                wff = lower(parse_wff(m.group(2), table))
            except ParseError as exc:
                raise ProofFileError(f"bad wff: {exc}", lineno) from exc
            try:
                just = parse_justification(m.group(3))
            except ValueError as exc:
                raise ProofFileError(str(exc), lineno) from exc
            lines.append(ProofLine(wff, just))
            continue

        m = _AXIOM_RE.match(stripped)
        if m is not None:
            if lines:
                raise ProofFileError("axiom declaration after proof lines", lineno)
            if theory is not None:
                raise ProofFileError("axiom declaration after the theory line", lineno)
            name = m.group(1)
            if name in extra_axioms:
                raise ProofFileError(f"duplicate axiom declaration {_shown(name)}", lineno)
            try:
                extra_axioms[name] = lower(parse_wff(m.group(2), table))
            except ParseError as exc:
                raise ProofFileError(f"bad wff: {exc}", lineno) from exc
            declared_at[name] = lineno
            continue

        m = _THEORY_RE.match(stripped)
        if m is not None:
            if theory is not None:
                raise ProofFileError("duplicate theory declaration", lineno)
            base = theories.get(m.group(1))
            if base is None:
                known = ", ".join(sorted(theories))
                raise ProofFileError(
                    f"unknown theory {_shown(m.group(1))} (known: {known})", lineno)
            theory = base
            continue

        raise ProofFileError(f"unrecognized line {_shown(stripped)}", lineno)

    if theory is None:
        raise ProofFileError("missing theory declaration", len(text.splitlines()) + 1)
    if not lines:
        raise ProofFileError("proof has no lines", len(text.splitlines()) + 1)
    if extra_axioms:
        try:
            theory = extend_theory(theory, theory.name + "*", extra_axioms)
        except TheoryError as exc:
            raise ProofFileError(str(exc), declared_at[exc.axiom]) from exc
    return Proof(theory, tuple(lines))


def format_proof(proof: Proof) -> str:
    """Render a proof in the file format; parseable back by parse_proof_file.
    Its formulas share one print table, so each repeated parenthesized
    subformula is printed once."""
    out = []
    table: dict = {}
    theory = proof.theory
    builtin = builtin_theories()
    if theory.name in builtin:
        out.append(f"theory: {theory.name}")
    elif theory.parent is not None and theory.parent.name in builtin:
        for name, wff in theory.own_axioms:
            out.append(f"axiom {name}: {print_wff(wff, table=table)}")
        out.append(f"theory: {theory.parent.name}")
    else:
        raise ValueError(
            f"theory {theory.name!r} is not serializable (not built on K, N or N-eq)")
    for number, line in enumerate(proof.lines, 1):
        out.append(f"{number}. {print_wff(line.wff, table=table)} ; "
                   f"{format_justification(line.justification)}")
    return "\n".join(out) + "\n"
