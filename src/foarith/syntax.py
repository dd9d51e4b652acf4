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
from dataclasses import FrozenInstanceError, dataclass
from itertools import accumulate, islice, repeat
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


class _Node:
    """Base of the syntax nodes: immutable, and hashed once.

    Each node computes its hash when it is built, as the hash of the tuple
    of its fields (``_fields`` names them in order), which is the value a
    frozen dataclass gives.  ``hash`` reads that slot, and ``==`` is True on
    identity, False when the hashes differ, and otherwise compares on an
    explicit stack that settles identical or differently hashed subtrees at
    once.  Neither recurses, so both work at any depth.  Assigning or
    deleting a field raises :class:`dataclasses.FrozenInstanceError`; the
    cached hash depends on it.
    """
    __slots__ = ("_hash",)
    _fields: tuple = ()

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and _same(self, other)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(map(getattr, repeat(self), self._fields))


# Fields are set through their slot descriptors, which bypass the frozen
# __setattr__ and cost less than object.__setattr__.
_set_hash = _Node._hash.__set__


class _Term(_Node):
    """Base of the term nodes; ``str`` is the canonical text."""
    __slots__ = ()

    def __str__(self) -> str:
        return print_term(self)


class _Formula(_Node):
    """Base of the formula nodes; ``str`` is the canonical text."""
    __slots__ = ()

    def __str__(self) -> str:
        return print_wff(self)


class Var(_Term):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError("variable index must be >= 1")
        _set_var_index(self, index)
        _set_hash(self, hash((index,)))


class Const(_Term):
    __slots__ = _fields = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError("constant index must be >= 1")
        _set_const_index(self, index)
        _set_hash(self, hash((index,)))


class FuncApp(_Term):
    __slots__ = _fields = ("letter", "arity", "args")

    def __init__(self, letter: int, arity: int, args: tuple):
        args = tuple(args)
        if letter < 1 or arity < 1:
            raise ValueError("function letter and arity must be >= 1")
        if len(args) != arity:
            raise ValueError(f"f{{{letter},{arity}}} applied to {len(args)} arguments")
        _set_func_letter(self, letter)
        _set_func_arity(self, arity)
        _set_func_args(self, args)
        _set_hash(self, hash((letter, arity, args)))


Term = Union[Var, Const, FuncApp]


class Atom(_Formula):
    __slots__ = _fields = ("letter", "arity", "terms")

    def __init__(self, letter: int, arity: int, terms: tuple):
        terms = tuple(terms)
        if letter < 1 or arity < 1:
            raise ValueError("predicate letter and arity must be >= 1")
        if len(terms) != arity:
            raise ValueError(f"A{{{letter},{arity}}} applied to {len(terms)} terms")
        _set_atom_letter(self, letter)
        _set_atom_arity(self, arity)
        _set_atom_terms(self, terms)
        _set_hash(self, hash((letter, arity, terms)))


class Not(_Formula):
    __slots__ = _fields = ("body",)

    def __init__(self, body: "SurfaceWff"):
        _set_not_body(self, body)
        _set_hash(self, hash((body,)))


class Implies(_Formula):
    __slots__ = _fields = ("antecedent", "consequent")

    def __init__(self, antecedent: "SurfaceWff", consequent: "SurfaceWff"):
        _set_implies_antecedent(self, antecedent)
        _set_implies_consequent(self, consequent)
        _set_hash(self, hash((antecedent, consequent)))


class ForAll(_Formula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: int, body: "SurfaceWff"):
        if var < 1:
            raise ValueError("variable index must be >= 1")
        _set_forall_var(self, var)
        _set_forall_body(self, body)
        _set_hash(self, hash((var, body)))


class Exists(_Formula):
    __slots__ = _fields = ("var", "body")

    def __init__(self, var: int, body: "SurfaceWff"):
        if var < 1:
            raise ValueError("variable index must be >= 1")
        _set_exists_var(self, var)
        _set_exists_body(self, body)
        _set_hash(self, hash((var, body)))


class And(_Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "SurfaceWff", right: "SurfaceWff"):
        _set_and_left(self, left)
        _set_and_right(self, right)
        _set_hash(self, hash((left, right)))


class Or(_Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "SurfaceWff", right: "SurfaceWff"):
        _set_or_left(self, left)
        _set_or_right(self, right)
        _set_hash(self, hash((left, right)))


class Iff(_Formula):
    __slots__ = _fields = ("left", "right")

    def __init__(self, left: "SurfaceWff", right: "SurfaceWff"):
        _set_iff_left(self, left)
        _set_iff_right(self, right)
        _set_hash(self, hash((left, right)))


_set_var_index = Var.index.__set__
_set_const_index = Const.index.__set__
_set_func_letter, _set_func_arity, _set_func_args = (
    FuncApp.letter.__set__, FuncApp.arity.__set__, FuncApp.args.__set__)
_set_atom_letter, _set_atom_arity, _set_atom_terms = (
    Atom.letter.__set__, Atom.arity.__set__, Atom.terms.__set__)
_set_not_body = Not.body.__set__
_set_implies_antecedent, _set_implies_consequent = (
    Implies.antecedent.__set__, Implies.consequent.__set__)
_set_forall_var, _set_forall_body = ForAll.var.__set__, ForAll.body.__set__
_set_exists_var, _set_exists_body = Exists.var.__set__, Exists.body.__set__
_set_and_left, _set_and_right = And.left.__set__, And.right.__set__
_set_or_left, _set_or_right = Or.left.__set__, Or.right.__set__
_set_iff_left, _set_iff_right = Iff.left.__set__, Iff.right.__set__


def _same(u, v) -> bool:
    """``u == v`` on two nodes, compared on two explicit stacks that hold
    the nodes of each side in step, so deep nesting costs no recursion.  A
    pair of identical subtrees is settled at once, and so is a pair of
    nodes whose types or hashes differ.  The walk reads each type's fields
    by name, which measured three to four times faster than pairing
    ``_fields``."""
    us, vs = [u], [v]
    push_u, push_v = us.append, vs.append
    while us:
        u, v = us.pop(), vs.pop()
        if u is v:
            continue
        t = type(u)
        if t is not type(v) or u._hash != v._hash:
            return False
        if t is Implies:
            push_u(u.antecedent)
            push_v(v.antecedent)
            push_u(u.consequent)
            push_v(v.consequent)
        elif t is Not:
            push_u(u.body)
            push_v(v.body)
        elif t is FuncApp:          # equal arities, so the stacks stay in step
            if u.letter != v.letter or u.arity != v.arity:
                return False
            us += u.args
            vs += v.args
        elif t is Atom:
            if u.letter != v.letter or u.arity != v.arity:
                return False
            us += u.terms
            vs += v.terms
        elif t is Var or t is Const:
            if u.index != v.index:
                return False
        elif t is ForAll or t is Exists:
            if u.var != v.var:
                return False
            push_u(u.body)
            push_v(v.body)
        else:                       # And, Or, Iff
            push_u(u.left)
            push_v(v.left)
            push_u(u.right)
            push_v(v.right)
    return True


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
    """All variable indices occurring in a term, found with an explicit stack."""
    out, stack = set(), [t]
    while stack:
        s = stack.pop()
        if isinstance(s, Var):
            out.add(s.index)
        elif not isinstance(s, Const):
            stack.extend(s.args)
    return frozenset(out)


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
    A node is returned itself when nothing below it changes, so core
    formulas are returned unchanged (lower is idempotent), and the core
    subtrees of a surface formula, shared or not, are kept as they are.
    """
    if isinstance(w, Atom):
        return w
    if isinstance(w, Not):
        body = lower(w.body)
        return w if body is w.body else Not(body)
    if isinstance(w, Implies):
        ante, cons = lower(w.antecedent), lower(w.consequent)
        return w if ante is w.antecedent and cons is w.consequent else Implies(ante, cons)
    if isinstance(w, ForAll):
        body = lower(w.body)
        return w if body is w.body else ForAll(w.var, body)
    if isinstance(w, Exists):
        return Not(ForAll(w.var, Not(lower(w.body))))
    if isinstance(w, And):
        return Not(Implies(lower(w.left), Not(lower(w.right))))
    if isinstance(w, Or):
        return Implies(Not(lower(w.left)), lower(w.right))
    if isinstance(w, Iff):
        left, right = lower(w.left), lower(w.right)
        return Not(Implies(Implies(left, right), Not(Implies(right, left))))
    raise TypeError(f"not a formula: {w!r}")


# ---------------------------------------------------------------------------
# substitution


def _subst_term(s: Term, x: int, t: Term) -> Term:
    if isinstance(s, Var):
        return t if s.index == x else s
    if isinstance(s, Const):
        return s
    # map calls back without a generator frame, so each level costs one frame
    return FuncApp(s.letter, s.arity, tuple(map(_subst_term, s.args, repeat(x), repeat(t))))


def substitute(w: SurfaceWff, x: int, t: Term) -> SurfaceWff:
    """Replace every free occurrence of x in w by t, in one walk.

    The walk carries a flag that is set inside a quantifier binding a
    variable of t other than x.  A free occurrence of x reached under the
    flag would be captured, and the walk raises :class:`CaptureError`
    there.  Capture is an error rather than a trigger for silent renaming:
    callers that depend on the side condition must be able to observe its
    failure.
    """
    binders = term_vars(t) - {x}

    def walk(w: SurfaceWff, captured: bool) -> SurfaceWff:
        if isinstance(w, Atom):
            if captured and any(x in term_vars(s) for s in w.terms):
                raise CaptureError(f"term {print_term(t)} is not free for x{x}")
            return Atom(w.letter, w.arity, tuple(map(_subst_term, w.terms, repeat(x), repeat(t))))
        if isinstance(w, Not):
            return Not(walk(w.body, captured))
        if isinstance(w, Implies):
            return Implies(walk(w.antecedent, captured), walk(w.consequent, captured))
        if isinstance(w, (And, Or, Iff)):
            return type(w)(walk(w.left, captured), walk(w.right, captured))
        if isinstance(w, (ForAll, Exists)):
            if w.var == x:
                return w
            return type(w)(w.var, walk(w.body, captured or w.var in binders))
        raise TypeError(f"not a formula: {w!r}")

    return walk(w, False)


def is_free_for(t: Term, x: int, w: SurfaceWff) -> bool:
    """Whether term t may replace the free occurrences of x in w.

    That is whether :func:`substitute` succeeds: no free occurrence of x
    lies inside the scope of a quantifier that binds a variable of t.
    Closed terms are free for anything; a variable is always free for
    itself.
    """
    try:
        substitute(w, x, t)
    except CaptureError:
        return False
    return True


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


def _paired(u, v):
    """The fields of two nodes of one type, or the items of two tuples of
    terms, paired in order."""
    if isinstance(u, tuple):
        return zip(u, v)
    return zip(map(getattr, repeat(u), u._fields), map(getattr, repeat(v), v._fields))


def _facing(a: Wff, a_prime: Wff, x: int) -> Optional[Term]:
    """The subterm of A' facing the first free x of A, or None.

    The walk keeps an explicit stack and pairs nodes only where A and A'
    have the same type, so it needs no recursion.
    """
    stack = [(a, a_prime)]
    while stack:
        s, s2 = stack.pop()
        if isinstance(s, Var):
            if s.index == x:
                return s2
        elif (type(s) is type(s2) and isinstance(s, (_Node, tuple))
              and not (isinstance(s, (ForAll, Exists)) and s.var == x)):
            stack.extend(reversed(list(_paired(s, s2))))
    return None


def match_substitution_result(a: Wff, x: int, a_prime: Wff) -> MatchResult:
    """Solve ``A' = A[x := ?]`` for the unknown term.

    Only one term can work: the subterm of A' facing the first free
    occurrence of x in A.  It is read off and checked by substituting it
    forward, so the answer is ``Witness(t)`` when ``A[x := t]`` exists and
    equals A', and NO_MATCH otherwise.  When no term can be read off, A
    has no free x or A' differs from A in shape; the answer is then
    ANY_TERM if A' equals A and NO_MATCH if not.
    """
    t = _facing(a, a_prime, x)
    if t is None:
        return ANY_TERM if a == a_prime else NO_MATCH
    try:
        return Witness(t) if substitute(a, x, t) == a_prime else NO_MATCH
    except CaptureError:
        return NO_MATCH


# ---------------------------------------------------------------------------
# lexer


# A run of "S(" is one token, and so is a run of ")"; whitespace may sit
# between the members of a run.  The run alternatives come before the
# single characters, so a run is never split.
_TOKEN_RE = re.compile(r"S\s*\((?:\s*S\s*\()*|\)(?:\s*\))*"
                       r"|[(){},=+*~&|]|[A-Za-z]+[0-9]*|[0-9]+|<->|->")
_NON_SPACE_RE = re.compile(r"\S")
_VAR_RE = re.compile(r"x([0-9]+)\Z")
_CONST_RE = re.compile(r"a([0-9]+)\Z")
_INT_RE = re.compile(r"[0-9]+\Z")

_TERM_STARTERS = ("S", "f", "(")


def _lex(text: str) -> list:
    """The token texts of ``text``, closed by the end-of-input sentinel ``""``.

    A run of ``S(`` is one token, ``"S(" * k``, and so is a run of ``)``,
    ``")" * k``: the whitespace between the members of a run is dropped,
    so the run's length gives its count, and equal formulas give equal
    tokens however they are spaced inside their runs.  A numeral of any
    depth is therefore three tokens.
    """
    tokens = _TOKEN_RE.findall(text)
    joined = "".join(tokens)
    solid = "".join(joined.split())
    # Tokens are disjoint pieces of the text, so they cover every character
    # but whitespace exactly when they hold as many non-space characters.
    if len(solid) != len("".join(text.split())):
        uncovered = _TOKEN_RE.sub(lambda m: " " * len(m[0]), text)
        pos = _NON_SPACE_RE.search(uncovered).start()
        raise ParseError(f"unexpected character {text[pos]!r}", pos)
    if len(solid) != len(joined):           # whitespace inside a run
        tokens = ["".join(t.split()) for t in tokens]
    tokens.append("")
    return tokens


def _token_start(text: str, k: int, j: int = 0) -> int:
    """Character offset of member ``j`` of token ``k`` (a run's ``j``-th
    ``S`` or ``)``; a token that is no run has the one member 0).  The
    sentinel sits at the end of the text."""
    m = next(islice(_TOKEN_RE.finditer(text), k, None), None)
    if m is None:
        return len(text)
    members = [p for p, ch in enumerate(m[0]) if ch == "S" or ch == ")"]
    return m.start() + (members[j] if j else 0)


def _shown(text: str) -> str:
    """A token as an error message names it: a run by its member."""
    return text[0] if text[-1] == "(" or text[0] == ")" else text


def _starts_term(text: str) -> bool:
    return (text in _TERM_STARTERS or text[:2] == "S(" or _VAR_RE.match(text) is not None
            or _CONST_RE.match(text) is not None or _INT_RE.match(text) is not None)


# ---------------------------------------------------------------------------
# parser


_BIN_NODES = {"->": Implies, "&": And, "|": Or, "<->": Iff}


class _Fail(Exception):
    """A parse failure; ``args`` are the message, the token index and the
    member of that token (nonzero only inside a run of ')')."""


def _pairs(tokens: list) -> dict:
    """Where each matched single '(' is closed.

    The map sends the token index of the '(' to the cursor just past its
    ')': a token index and the number of ')' of that token read up to
    there, 0 when the ')' ends its token.  The stack holds the index of
    each open single '(' and, for each open run of 'S(', minus the count
    of its members still open; a run of ')' takes them off by counting.
    """
    after, stack = {}, []
    push, pop = stack.append, stack.pop
    for k, text in enumerate(tokens[:-1]):      # not the sentinel
        if text == "(":
            push(k)
        elif text == ")":
            if stack:
                top = pop()
                if top >= 0:
                    after[top] = (k + 1, 0)
                elif top < -1:
                    push(top + 1)
        elif text[-1] == ")":                 # a run of ')'
            n = need = len(text)
            while stack:
                top = pop()
                if top >= 0:
                    need -= 1
                    if not need:
                        after[top] = (k + 1, 0)
                        break
                    after[top] = (k, n - need)
                elif top + need < 0:
                    push(top + need)
                    break
                else:
                    need += top
                    if not need:
                        break
        elif text[-1] == "(":                 # a run of 'S('
            push(-(len(text) // 2))
    return after


class _Parser:
    """Recursive descent over the token texts.

    The cursor is ``i``, a token index, and ``j``, the number of ')'
    already read from token ``i`` when it is a run of ')' that a
    successor chain or a closing pair has used in part; ``j`` is 0
    everywhere else.  The tokens end in the sentinel ``""``, so reading
    the current token needs no bounds check.  A failure raises
    :class:`_Fail` with a token index and member; the caller turns it into
    a :class:`ParseError` with a position.
    """

    def __init__(self, tokens: list, table: Optional[dict] = None):
        self.tokens = tokens
        self.i = self.j = 0
        self.table = {} if table is None else table
        # built at the first '(' formula
        self.after = self.joined = self.lengths = None
        self.eq_start = -1      # where the last equality read began

    def _unexpected(self, wanted: str) -> _Fail:
        """A failure at the cursor, which holds the wrong token."""
        i = self.i
        found = self.tokens[i]
        if not found:
            return _Fail("unexpected end of input", i, 0)
        return _Fail(f"expected {wanted}, found {_shown(found)!r}", i, self.j)

    def expect(self, text: str) -> None:
        """Read ``text``, a token that is no ')'."""
        i = self.i
        if self.tokens[i] != text:
            raise self._unexpected(repr(text))
        self.i = i + 1

    def close(self, n: int = 1) -> None:
        """Read ``n`` ')' at the cursor; they lie in one run or not at all."""
        run = self.tokens[self.i]
        if run[:1] != ")":
            raise self._unexpected("')'")
        j = self.j + n
        if j < len(run):
            self.j = j
            return
        self.i += 1
        self.j = 0
        if j > len(run):                     # the run ends short
            raise self._unexpected("')'")

    # terms ------------------------------------------------------------

    def term(self) -> Term:
        """A term; a successor chain ``S(...S(t)...)`` is read whole.

        Its run of ``S(`` gives the depth k, and its closing ')' are
        counted off the run that follows t, which may go on to close
        enclosing terms or formulas.  The node comes from the parse's
        successor table: the parse table maps each base term t to the list
        ``[t, S(t), S(S(t)), ...]`` built from it so far, so ``S^k(t)`` is
        an index into that list or an extension of it, and equal chains of
        one parse (or of one shared table) are one object.
        """
        tokens, i = self.tokens, self.i
        run = tokens[i]
        depth = len(run) // 2 if run[:2] == "S(" else 0
        if depth:
            i += 1
        if tokens[i] == "S":                # an S without its '('
            self.i = i + 1
            raise self._unexpected("'('")
        self.i = i
        t = self._base_term()
        if not depth:
            return t
        self.close(depth)
        chains = self.table
        chain = chains.get(t)
        if chain is None:
            chain = chains[t] = [t]
        if depth >= len(chain):
            top = chain[-1]
            for _ in range(len(chain), depth + 1):
                top = FuncApp(1, 1, (top,))
                chain.append(top)
        return chain[depth]

    def _base_term(self) -> Term:
        """A term that does not start with ``S``."""
        tokens, i = self.tokens, self.i
        text = tokens[i]
        if text == "(":
            self.i = i + 1
            left = self.term()
            op = tokens[self.i]
            if op != "+" and op != "*":
                raise self._unexpected("'+' or '*'")
            self.i += 1
            right = self.term()
            self.close()
            return plus(left, right) if op == "+" else times(left, right)
        if text == "f":
            return FuncApp(*self._application("arguments"))
        m = _VAR_RE.match(text)
        if m is not None:
            self.i = i + 1
            return Var(self._index(m.group(1), i))
        m = _CONST_RE.match(text)
        if m is not None:
            self.i = i + 1
            return Const(self._index(m.group(1), i))
        if text == "0":
            self.i = i + 1
            return ZERO
        if _INT_RE.match(text) is not None:
            raise _Fail(f"bare numeral {text!r} is not a term; only '0' abbreviates a1", i, 0)
        if not text:
            raise _Fail("expected a term", i, 0)
        raise _Fail(f"expected a term, found {_shown(text)!r}", i, self.j)

    def _index(self, digits: str, k: int) -> int:
        value = int(digits)
        if value < 1:
            raise _Fail("index must be >= 1", k, 0)
        return value

    def _application(self, what: str) -> tuple:
        """``k, n, terms`` of ``f{k,n}(...)`` or ``A{k,n}(...)``."""
        tokens, start = self.tokens, self.i
        self.i = start + 1
        self.expect("{")
        k_at = self.i
        if _INT_RE.match(tokens[k_at]) is None:
            raise self._unexpected("a letter index")
        self.i = k_at + 1
        self.expect(",")
        n_at = self.i
        if _INT_RE.match(tokens[n_at]) is None:
            raise self._unexpected("an arity")
        self.i = n_at + 1
        self.expect("}")
        k, n = self._index(tokens[k_at], k_at), self._index(tokens[n_at], n_at)
        self.expect("(")
        terms = [self.term()]
        while tokens[self.i] == ",":
            self.i += 1
            terms.append(self.term())
        self.close()
        if len(terms) != n:
            raise _Fail(f"arity mismatch: {tokens[start]}{{{k},{n}}} applied to "
                        f"{len(terms)} {what}", start, 0)
        return k, n, tuple(terms)

    # formulas -----------------------------------------------------------

    def _equality(self) -> Atom:
        start = self.i
        left = self.term()
        self.expect("=")
        atom = eq(left, self.term())
        self.eq_start = start
        return atom

    def wff(self) -> SurfaceWff:
        tokens, i = self.tokens, self.i
        text = tokens[i]
        if text == "(":
            return self._parenthesized()
        if text == "~":
            self.i = i + 1
            return Not(self.wff())
        if text == "A":
            return Atom(*self._application("terms"))
        if _starts_term(text):
            return self._equality()
        if not text:
            raise _Fail("expected a formula", i, 0)
        raise _Fail(f"expected a formula, found {_shown(text)!r}", i, self.j)

    def _parenthesized(self) -> SurfaceWff:
        """A formula at a '(', read through the parse table where it can be.

        Where the matching ')' is not followed by '=', the parse reads only
        the tokens of the pair, so it is the same wherever they appear: the
        table is keyed by their text, cut at that ')' when it lies inside a
        run, and a hit moves the cursor past the ')'.  Elsewhere a bare
        equality may run past the pair, and the table is not used.

        Parentheses are matched at the first '(' formula, and only when the
        rest of the text from there is no key of the table: a key is the
        text of a matched pair, so such a rest is one pair, and a hit.
        """
        tokens, i = self.tokens, self.i
        if self.after is None:
            self.joined = joined = "\x00".join(tokens)
            start = sum(map(len, tokens[:i])) + i
            node = self.table.get(joined[start:-1])     # the sentinel is ""
            if node is not None:
                self.i = len(tokens) - 1
                return node
            self.after = _pairs(tokens)
            # token k starts at lengths[k] + k in the joined text
            self.lengths = list(accumulate(map(len, tokens), initial=0))
        after = self.after.get(i)
        if after is None:
            return self._read_parenthesized(True)
        k, j = after
        if not j and tokens[k] == "=":
            return self._read_parenthesized(True)
        lengths = self.lengths
        end = lengths[k] + k + j if j else lengths[k] + k - 1
        key = self.joined[lengths[i] + i:end]
        node = self.table.get(key)
        if node is None:
            node = self.table[key] = self._read_parenthesized(False)
        else:
            self.i, self.j = k, j
        return node

    def _read_parenthesized(self, bare: bool) -> SurfaceWff:
        """An equality, a quantifier or a binary node at a '('.

        A bare equality ``term = term`` is tried first only where it can
        succeed: a term that starts at this '(' ends at its matching ')',
        so it needs an '=' right after that, which ``bare`` says (it is
        also set where the '(' has no matching ')').  Otherwise the pair
        holds a quantifier, or a formula and then ')' or a connective.  A
        formula that is an equality read from right after the '(' and is
        followed by ')' is the equality ``( term = term )``.
        """
        tokens, i = self.tokens, self.i
        if bare:
            try:
                return self._equality()
            except _Fail:
                self.i, self.j = i, 0
        nxt = tokens[i + 1]
        if nxt == "all" or nxt == "ex":
            self.i = i + 2
            v = self._variable()
            body = self.wff()
            self.close()
            return ForAll(v, body) if nxt == "all" else Exists(v, body)
        self.i = i + 1
        left = self.wff()
        op = tokens[self.i]
        if op[:1] == ")" and self.eq_start == i + 1:
            self.close()
            return left
        node = _BIN_NODES.get(op)
        if node is None:
            raise self._unexpected("a binary connective")
        self.i += 1
        right = self.wff()
        self.close()
        return node(left, right)

    def _variable(self) -> int:
        i = self.i
        m = _VAR_RE.match(self.tokens[i])
        if m is None:
            raise self._unexpected("a variable")
        self.i = i + 1
        return self._index(m.group(1), i)

    def finish(self) -> None:
        text = self.tokens[self.i]
        if text:
            raise _Fail(f"unexpected trailing input {_shown(text)!r}", self.i, self.j)


def _parse(text: str, rule: Callable, table: Optional[dict] = None):
    p = _Parser(_lex(text), table)
    try:
        out = rule(p)
        p.finish()
    except _Fail as exc:
        message, k, j = exc.args
        raise ParseError(message, _token_start(text, k, j)) from None
    return out


def parse_wff(text: str, table: Optional[dict] = None) -> SurfaceWff:
    """Parse a formula; abbreviations are kept as surface nodes.

    ``table`` is the parse table.  It maps the tokens of each
    parenthesized subformula to the node parsed from them, so that a
    repeated subformula is parsed once and each occurrence is the same
    object.  It also maps each base term of a successor chain (``0``, a
    variable, ``(t + u)``, ``f{..}(...)``) to the chain ``[t, S(t), ...]``
    built on it, so ``S^k(t)`` costs no node once a deeper chain on t is
    built, and equal chains are one object.  Calls that pass one dict
    share it; by default each call starts a fresh one.  A table holds only
    nodes of successful parses, and no call keeps it.
    """
    return _parse(text, _Parser.wff, table)


def parse_term(text: str) -> Term:
    return _parse(text, _Parser.term)


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
