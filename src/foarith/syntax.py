"""Syntax of the first-order arithmetic language.

Terms are variables ``x1, x2, ...``, individual constants ``a1, a2, ...``
and function-letter applications ``f{k,n}(...)``.  Formulas are built from
predicate atoms ``A{k,n}(...)`` with the three core connectives ``~``,
``->`` and ``all``; ``ex``, ``&``, ``|`` and ``<->`` are abbreviations that
:func:`lower` removes.  The arithmetic letters have fixed readings:
``f{1,1}`` is the successor (written ``S``), ``f{1,2}`` the sum (``+``),
``f{2,2}`` the product (``*``), ``A{1,2}`` equality (``=``), and ``a1``
is zero (written ``0``).

Concrete grammar (whitespace between tokens is insignificant)::

    wff  := atom | "~" wff | "(" wff bin wff ")" | "(" q var wff ")"
    bin  := "->" | "&" | "|" | "<->"          q := "all" | "ex"
    atom := term "=" term | "(" term "=" term ")" | "A{" k "," n "}(" termlist ")"
    term := var | const | "0" | "S(" term ")"
          | "(" term "+" term ")" | "(" term "*" term ")"
          | "f{" k "," n "}(" termlist ")"
    var  := "x" digits      const := "a" digits      ("0" aliases "a1")

Equality atoms may be written with or without the surrounding parentheses;
the canonical printer always emits them, so every binary construct appears
fully parenthesized and the grammar needs no precedence rules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Optional, Union

__all__ = [
    "ParseError", "CaptureError",
    "Var", "Const", "FuncApp", "Term",
    "Atom", "Not", "Implies", "ForAll", "Exists", "And", "Or", "Iff",
    "Wff", "SurfaceWff",
    "ZERO", "eq", "succ", "plus", "times",
    "is_core", "term_vars", "free_vars", "lower",
    "is_free_for", "substitute",
    "Witness", "AnyTerm", "NoMatch", "ANY_TERM", "NO_MATCH",
    "match_substitution_result",
    "parse_term", "parse_wff", "parse_core",
    "print_term", "print_wff",
]


class ParseError(ValueError):
    """Malformed input text; ``pos`` is the character offset of the fault."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class CaptureError(ValueError):
    """Substituting the term would capture one of its variables."""


# ---------------------------------------------------------------------------
# abstract syntax


class _Term:
    """Base of the term nodes; ``str`` is the canonical text."""
    __slots__ = ()

    def __str__(self) -> str:
        return print_term(self)


class _Formula:
    """Base of the formula nodes; ``str`` is the canonical text."""
    __slots__ = ()

    def __str__(self) -> str:
        return print_wff(self)


@dataclass(frozen=True)
class Var(_Term):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("variable index must be >= 1")


@dataclass(frozen=True)
class Const(_Term):
    index: int

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("constant index must be >= 1")


@dataclass(frozen=True)
class FuncApp(_Term):
    letter: int
    arity: int
    args: tuple

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        if self.letter < 1 or self.arity < 1:
            raise ValueError("function letter and arity must be >= 1")
        if len(self.args) != self.arity:
            raise ValueError(
                f"f{{{self.letter},{self.arity}}} applied to {len(self.args)} arguments")


Term = Union[Var, Const, FuncApp]


@dataclass(frozen=True)
class Atom(_Formula):
    letter: int
    arity: int
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        if self.letter < 1 or self.arity < 1:
            raise ValueError("predicate letter and arity must be >= 1")
        if len(self.terms) != self.arity:
            raise ValueError(
                f"A{{{self.letter},{self.arity}}} applied to {len(self.terms)} terms")


@dataclass(frozen=True)
class Not(_Formula):
    body: "SurfaceWff"


@dataclass(frozen=True)
class Implies(_Formula):
    antecedent: "SurfaceWff"
    consequent: "SurfaceWff"


@dataclass(frozen=True)
class ForAll(_Formula):
    var: int
    body: "SurfaceWff"

    def __post_init__(self):
        if self.var < 1:
            raise ValueError("variable index must be >= 1")


@dataclass(frozen=True)
class Exists(_Formula):
    var: int
    body: "SurfaceWff"

    def __post_init__(self):
        if self.var < 1:
            raise ValueError("variable index must be >= 1")


@dataclass(frozen=True)
class And(_Formula):
    left: "SurfaceWff"
    right: "SurfaceWff"


@dataclass(frozen=True)
class Or(_Formula):
    left: "SurfaceWff"
    right: "SurfaceWff"


@dataclass(frozen=True)
class Iff(_Formula):
    left: "SurfaceWff"
    right: "SurfaceWff"


Wff = Union[Atom, Not, Implies, ForAll]
SurfaceWff = Union[Atom, Not, Implies, ForAll, Exists, And, Or, Iff]

ZERO = Const(1)


def eq(left: Term, right: Term) -> Atom:
    """Equality atom; equality is predicate letter A{1,2}, nothing more."""
    return Atom(1, 2, (left, right))


def succ(t: Term) -> FuncApp:
    return FuncApp(1, 1, (t,))


def plus(left: Term, right: Term) -> FuncApp:
    return FuncApp(1, 2, (left, right))


def times(left: Term, right: Term) -> FuncApp:
    return FuncApp(2, 2, (left, right))


# ---------------------------------------------------------------------------
# structural queries


def is_core(w: SurfaceWff) -> bool:
    """True when no abbreviation node (ex, &, |, <->) occurs anywhere in w."""
    if isinstance(w, Atom):
        return True
    if isinstance(w, Not):
        return is_core(w.body)
    if isinstance(w, Implies):
        return is_core(w.antecedent) and is_core(w.consequent)
    if isinstance(w, ForAll):
        return is_core(w.body)
    return False


def term_vars(t: Term) -> frozenset:
    """All variable indices occurring in a term."""
    if isinstance(t, Var):
        return frozenset((t.index,))
    if isinstance(t, Const):
        return frozenset()
    out = frozenset()
    for a in t.args:
        out |= term_vars(a)
    return out


def free_vars(w: SurfaceWff) -> frozenset:
    """Free variable indices of a formula; quantifiers bind their variable."""
    if isinstance(w, Atom):
        out = frozenset()
        for t in w.terms:
            out |= term_vars(t)
        return out
    if isinstance(w, Not):
        return free_vars(w.body)
    if isinstance(w, Implies):
        return free_vars(w.antecedent) | free_vars(w.consequent)
    if isinstance(w, (And, Or, Iff)):
        return free_vars(w.left) | free_vars(w.right)
    if isinstance(w, (ForAll, Exists)):
        return free_vars(w.body) - {w.var}
    raise TypeError(f"not a formula: {w!r}")


def lower(w: SurfaceWff) -> Wff:
    """Expand every abbreviation node into the three core connectives.

    Innermost nodes are expanded first.  The expansions are:
    ``(ex xi A)`` becomes ``~(all xi ~A)``, ``(A & B)`` becomes
    ``~(A -> ~B)``, ``(A | B)`` becomes ``(~A -> B)``, and ``(A <-> B)``
    becomes the conjunction of the two implications, which then expands.
    Core formulas are returned unchanged, so lower is idempotent.
    """
    if isinstance(w, Atom):
        return w
    if isinstance(w, Not):
        return Not(lower(w.body))
    if isinstance(w, Implies):
        return Implies(lower(w.antecedent), lower(w.consequent))
    if isinstance(w, ForAll):
        return ForAll(w.var, lower(w.body))
    if isinstance(w, Exists):
        return Not(ForAll(w.var, Not(lower(w.body))))
    if isinstance(w, And):
        return Not(Implies(lower(w.left), Not(lower(w.right))))
    if isinstance(w, Or):
        return Implies(Not(lower(w.left)), lower(w.right))
    if isinstance(w, Iff):
        fwd = Implies(lower(w.left), lower(w.right))
        bwd = Implies(lower(w.right), lower(w.left))
        return Not(Implies(fwd, Not(bwd)))
    raise TypeError(f"not a formula: {w!r}")


# ---------------------------------------------------------------------------
# substitution


def is_free_for(t: Term, x: int, w: SurfaceWff) -> bool:
    """Whether term t may replace the free occurrences of x in w.

    True iff no free occurrence of x lies inside the scope of a quantifier
    that binds a variable of t.  Closed terms are free for anything; a
    variable is always free for itself.
    """
    if isinstance(w, Atom):
        return True
    if isinstance(w, Not):
        return is_free_for(t, x, w.body)
    if isinstance(w, Implies):
        return is_free_for(t, x, w.antecedent) and is_free_for(t, x, w.consequent)
    if isinstance(w, (And, Or, Iff)):
        return is_free_for(t, x, w.left) and is_free_for(t, x, w.right)
    if isinstance(w, (ForAll, Exists)):
        if w.var == x or x not in free_vars(w.body):
            return True
        return w.var not in term_vars(t) and is_free_for(t, x, w.body)
    raise TypeError(f"not a formula: {w!r}")


def _subst_term(s: Term, x: int, t: Term) -> Term:
    if isinstance(s, Var):
        return t if s.index == x else s
    if isinstance(s, Const):
        return s
    return FuncApp(s.letter, s.arity, tuple(_subst_term(a, x, t) for a in s.args))


def _subst_wff(w: SurfaceWff, x: int, t: Term) -> SurfaceWff:
    if isinstance(w, Atom):
        return Atom(w.letter, w.arity, tuple(_subst_term(s, x, t) for s in w.terms))
    if isinstance(w, Not):
        return Not(_subst_wff(w.body, x, t))
    if isinstance(w, Implies):
        return Implies(_subst_wff(w.antecedent, x, t), _subst_wff(w.consequent, x, t))
    if isinstance(w, (And, Or, Iff)):
        return type(w)(_subst_wff(w.left, x, t), _subst_wff(w.right, x, t))
    if isinstance(w, (ForAll, Exists)):
        if w.var == x:
            return w
        return type(w)(w.var, _subst_wff(w.body, x, t))
    raise TypeError(f"not a formula: {w!r}")


def substitute(w: SurfaceWff, x: int, t: Term) -> SurfaceWff:
    """Replace every free occurrence of x in w by t.

    Raises :class:`CaptureError` when t is not free for x in w.  Capture is
    an error rather than a trigger for silent renaming: callers that depend
    on the side condition must be able to observe its failure.
    """
    if not is_free_for(t, x, w):
        raise CaptureError(f"term {print_term(t)} is not free for x{x}")
    return _subst_wff(w, x, t)


# ---------------------------------------------------------------------------
# inverse substitution


@dataclass(frozen=True)
class Witness:
    """A single term t with A' = A[x := t] at every free occurrence of x."""
    term: Term


@dataclass(frozen=True)
class AnyTerm:
    """x is not free in A and A' = A, so any term works."""


@dataclass(frozen=True)
class NoMatch:
    """A' is not a substitution instance of A at x."""


ANY_TERM = AnyTerm()
NO_MATCH = NoMatch()

MatchResult = Union[Witness, AnyTerm, NoMatch]


class _Mismatch(Exception):
    pass


def match_substitution_result(a: Wff, x: int, a_prime: Wff) -> MatchResult:
    """Solve ``A' = A[x := ?]`` for the unknown term.

    Walks A and A' in parallel.  Both must agree everywhere except at the
    free occurrences of x in A, each of which contributes a candidate term
    read off from A'.  All candidates must coincide, and the resulting term
    must be free for x in A; otherwise the answer is NO_MATCH.  When A has
    no free occurrence of x the walk degenerates into an equality check and
    a successful one yields ANY_TERM.
    """
    found: list = []

    def terms(s: Term, s2: Term, x_bound: bool) -> None:
        if isinstance(s, Var):
            if s.index == x and not x_bound:
                found.append(s2)
                return
            if s != s2:
                raise _Mismatch
        elif isinstance(s, Const):
            if s != s2:
                raise _Mismatch
        elif isinstance(s, FuncApp):
            if (not isinstance(s2, FuncApp) or s.letter != s2.letter
                    or s.arity != s2.arity):
                raise _Mismatch
            for u, v in zip(s.args, s2.args):
                terms(u, v, x_bound)
        else:
            raise TypeError(f"not a term: {s!r}")

    def wffs(w: SurfaceWff, w2: SurfaceWff, x_bound: bool) -> None:
        if type(w) is not type(w2):
            raise _Mismatch
        if isinstance(w, Atom):
            if w.letter != w2.letter or w.arity != w2.arity:
                raise _Mismatch
            for u, v in zip(w.terms, w2.terms):
                terms(u, v, x_bound)
        elif isinstance(w, Not):
            wffs(w.body, w2.body, x_bound)
        elif isinstance(w, Implies):
            wffs(w.antecedent, w2.antecedent, x_bound)
            wffs(w.consequent, w2.consequent, x_bound)
        elif isinstance(w, (And, Or, Iff)):
            wffs(w.left, w2.left, x_bound)
            wffs(w.right, w2.right, x_bound)
        elif isinstance(w, (ForAll, Exists)):
            if w.var != w2.var:
                raise _Mismatch
            wffs(w.body, w2.body, x_bound or w.var == x)
        else:
            raise TypeError(f"not a formula: {w!r}")

    try:
        wffs(a, a_prime, False)
    except _Mismatch:
        return NO_MATCH
    if not found:
        return ANY_TERM
    t = found[0]
    if any(u != t for u in found[1:]):
        return NO_MATCH
    if not is_free_for(t, x, a):
        return NO_MATCH
    return Witness(t)


# ---------------------------------------------------------------------------
# lexer


# A token, or else the first character no token starts with.
_TOKEN_RE = re.compile(r"\s*(?:(<->|->|[A-Za-z]+[0-9]*|[0-9]+|[(){},=+*~&|])|(\S))")
_VAR_RE = re.compile(r"x([0-9]+)\Z")
_CONST_RE = re.compile(r"a([0-9]+)\Z")
_INT_RE = re.compile(r"[0-9]+\Z")

_TERM_STARTERS = ("S", "f", "(")


def _lex(text: str) -> list:
    """The ``(text, pos)`` tokens of ``text``."""
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex == 2:
            raise ParseError(f"unexpected character {m[2]!r}", m.start(2))
        tokens.append((m[1], m.start(1)))
    return tokens


def _starts_term(text: str) -> bool:
    return (text in _TERM_STARTERS or _VAR_RE.match(text) is not None
            or _CONST_RE.match(text) is not None or _INT_RE.match(text) is not None)


# ---------------------------------------------------------------------------
# parser


_BIN_NODES = {"->": Implies, "&": And, "|": Or, "<->": Iff}


class _Parser:
    def __init__(self, tokens: list, end: int):
        self.tokens = tokens
        self.i = 0
        self.end = end

    def peek(self) -> Optional[tuple]:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> tuple:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of input", self.end)
        self.i += 1
        return tok

    def expect(self, text: str) -> None:
        found, pos = self.take()
        if found != text:
            raise ParseError(f"expected {text!r}, found {found!r}", pos)

    # terms ------------------------------------------------------------

    def term(self) -> Term:
        # A successor chain S(S(...t...)) is read in a loop, so numerals
        # of any depth parse.
        tokens, depth = self.tokens, 0
        while self.i < len(tokens) and tokens[self.i][0] == "S":
            self.i += 1
            self.expect("(")
            depth += 1
        t = self._base_term()
        for _ in range(depth):
            self.expect(")")
            t = succ(t)
        return t

    def _base_term(self) -> Term:
        """A term that does not start with ``S``."""
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a term", self.end)
        text, pos = tok
        if text == "f":
            return FuncApp(*self._application(tok, "arguments"))
        if text == "(":
            self.i += 1
            left = self.term()
            op, op_pos = self.take()
            if op not in ("+", "*"):
                raise ParseError(f"expected '+' or '*', found {op!r}", op_pos)
            right = self.term()
            self.expect(")")
            return plus(left, right) if op == "+" else times(left, right)
        m = _VAR_RE.match(text)
        if m is not None:
            self.i += 1
            return Var(self._index(m.group(1), pos))
        m = _CONST_RE.match(text)
        if m is not None:
            self.i += 1
            return Const(self._index(m.group(1), pos))
        if _INT_RE.match(text) is not None:
            if text != "0":
                raise ParseError(
                    f"bare numeral {text!r} is not a term; only '0' abbreviates a1", pos)
            self.i += 1
            return ZERO
        raise ParseError(f"expected a term, found {text!r}", pos)

    def _index(self, digits: str, pos: int) -> int:
        value = int(digits)
        if value < 1:
            raise ParseError("index must be >= 1", pos)
        return value

    def _application(self, letter_tok: tuple, what: str) -> tuple:
        """``k, n, terms`` of ``f{k,n}(...)`` or ``A{k,n}(...)``."""
        self.i += 1
        self.expect("{")
        k_text, k_pos = self.take()
        if _INT_RE.match(k_text) is None:
            raise ParseError(f"expected a letter index, found {k_text!r}", k_pos)
        self.expect(",")
        n_text, n_pos = self.take()
        if _INT_RE.match(n_text) is None:
            raise ParseError(f"expected an arity, found {n_text!r}", n_pos)
        self.expect("}")
        k, n = self._index(k_text, k_pos), self._index(n_text, n_pos)
        self.expect("(")
        terms = [self.term()]
        while self.peek() is not None and self.peek()[0] == ",":
            self.i += 1
            terms.append(self.term())
        self.expect(")")
        if len(terms) != n:
            letter, pos = letter_tok
            raise ParseError(
                f"arity mismatch: {letter}{{{k},{n}}} applied to {len(terms)} {what}", pos)
        return k, n, tuple(terms)

    # formulas -----------------------------------------------------------

    def _equality(self) -> Atom:
        left = self.term()
        self.expect("=")
        return eq(left, self.term())

    def wff(self) -> SurfaceWff:
        tok = self.peek()
        if tok is None:
            raise ParseError("expected a formula", self.end)
        text, pos = tok
        if text == "~":
            self.i += 1
            return Not(self.wff())
        if text == "A":
            return Atom(*self._application(tok, "terms"))
        if _starts_term(text):
            # bare equality atom, possibly with a parenthesized sum or
            # product as its left term
            mark = self.i
            try:
                return self._equality()
            except ParseError:
                if text != "(":
                    raise
                self.i = mark
        if text == "(":
            self.i += 1
            nxt = self.peek()
            if nxt is not None and nxt[0] in ("all", "ex"):
                self.i += 1
                v = self._variable()
                body = self.wff()
                self.expect(")")
                return ForAll(v, body) if nxt[0] == "all" else Exists(v, body)
            mark = self.i
            try:
                atom = self._equality()
                self.expect(")")
                return atom
            except ParseError:
                self.i = mark
            left = self.wff()
            op, op_pos = self.take()
            node = _BIN_NODES.get(op)
            if node is None:
                raise ParseError(f"expected a binary connective, found {op!r}", op_pos)
            right = self.wff()
            self.expect(")")
            return node(left, right)
        raise ParseError(f"expected a formula, found {text!r}", pos)

    def _variable(self) -> int:
        text, pos = self.take()
        m = _VAR_RE.match(text)
        if m is None:
            raise ParseError(f"expected a variable, found {text!r}", pos)
        return self._index(m.group(1), pos)

    def finish(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected trailing input {tok[0]!r}", tok[1])


def parse_wff(text: str) -> SurfaceWff:
    """Parse a formula; abbreviations are kept as surface nodes."""
    p = _Parser(_lex(text), len(text))
    w = p.wff()
    p.finish()
    return w


def parse_term(text: str) -> Term:
    p = _Parser(_lex(text), len(text))
    t = p.term()
    p.finish()
    return t


def parse_core(text: str) -> Wff:
    """Parse and lower in one step."""
    return lower(parse_wff(text))


# ---------------------------------------------------------------------------
# printer


_INFIX = {(1, 2): " + ", (2, 2): " * "}


def print_term(t: Term) -> str:
    # A successor chain is printed in a loop, so numerals of any depth print.
    depth = 0
    while isinstance(t, FuncApp) and t.letter == 1 and t.arity == 1:
        t = t.args[0]
        depth += 1
    if isinstance(t, Var):
        inner = f"x{t.index}"
    elif isinstance(t, Const):
        inner = "0" if t.index == 1 else f"a{t.index}"
    elif isinstance(t, FuncApp):
        args = [print_term(a) for a in t.args]
        op = _INFIX.get((t.letter, t.arity))
        inner = f"({op.join(args)})" if op else f"f{{{t.letter},{t.arity}}}({', '.join(args)})"
    else:
        raise TypeError(f"not a term: {t!r}")
    return "S(" * depth + inner + ")" * depth


def print_wff(w: SurfaceWff, resugar: bool = False) -> str:
    """Render a formula so that parsing the output reproduces it.

    With ``resugar`` the printer folds recognizable expansion patterns back
    into ex/&/|/<-> for display; reparsing and lowering still yields the
    original core formula.
    """

    def p(w: SurfaceWff) -> str:
        if resugar:
            s = _print_resugared(w, p)
            if s is not None:
                return s
        if isinstance(w, Atom):
            if w.letter == 1 and w.arity == 2:
                return f"({print_term(w.terms[0])} = {print_term(w.terms[1])})"
            inner = ", ".join(print_term(t) for t in w.terms)
            return f"A{{{w.letter},{w.arity}}}({inner})"
        if isinstance(w, Not):
            return f"~{p(w.body)}"
        if isinstance(w, Implies):
            return f"({p(w.antecedent)} -> {p(w.consequent)})"
        if isinstance(w, ForAll):
            return f"(all x{w.var} {p(w.body)})"
        if isinstance(w, Exists):
            return f"(ex x{w.var} {p(w.body)})"
        if isinstance(w, And):
            return f"({p(w.left)} & {p(w.right)})"
        if isinstance(w, Or):
            return f"({p(w.left)} | {p(w.right)})"
        if isinstance(w, Iff):
            return f"({p(w.left)} <-> {p(w.right)})"
        raise TypeError(f"not a formula: {w!r}")

    return p(w)


def _print_resugared(w: SurfaceWff, p: Callable) -> Optional[str]:
    # ~(all v ~A)  prints as  (ex v A)
    if isinstance(w, Not) and isinstance(w.body, ForAll) and isinstance(w.body.body, Not):
        return f"(ex x{w.body.var} {p(w.body.body.body)})"
    if isinstance(w, Not) and isinstance(w.body, Implies):
        ante, cons = w.body.antecedent, w.body.consequent
        # ~((A -> B) -> ~(B -> A))  prints as  (A <-> B)
        if (isinstance(ante, Implies) and isinstance(cons, Not)
                and isinstance(cons.body, Implies)
                and ante.antecedent == cons.body.consequent
                and ante.consequent == cons.body.antecedent):
            return f"({p(ante.antecedent)} <-> {p(ante.consequent)})"
        # ~(A -> ~B)  prints as  (A & B)
        if isinstance(cons, Not):
            return f"({p(ante)} & {p(cons.body)})"
    # (~A -> B)  prints as  (A | B)
    if isinstance(w, Implies) and isinstance(w.antecedent, Not):
        return f"({p(w.antecedent.body)} | {p(w.consequent)})"
    return None
