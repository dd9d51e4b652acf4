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
from itertools import accumulate, count, islice
from operator import add, is_
from types import FunctionType
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
# frozen records


def _refuse_set(self, name, value):
    from dataclasses import FrozenInstanceError     # loaded only to refuse
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_delete(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _record(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    A class attribute gives its field a default.  One ``exec`` writes the
    methods a frozen dataclass has: ``__init__`` sets the fields with
    ``object.__setattr__`` and calls ``__post_init__`` last, if the class
    has one; ``__eq__`` compares the tuples of fields of two instances of
    the same class; ``__hash__`` is the hash of that tuple; ``__repr__``
    is ``Class(field=value, ...)``.  ``__match_args__`` names the fields,
    and assigning or deleting an attribute raises
    ``dataclasses.FrozenInstanceError``.  That module, which imports
    ``inspect``, is loaded only to raise it.
    """
    fields = tuple(cls.__annotations__)
    names = {"_set": object.__setattr__}
    params = ["self"]
    for f in fields:
        if f in cls.__dict__:
            names[f"_default_{f}"] = cls.__dict__[f]
            params.append(f"{f}=_default_{f}")
        else:
            params.append(f)
    body = [f"_set(self, {f!r}, {f})" for f in fields]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    own = "".join(f"self.{f}, " for f in fields)
    other = "".join(f"other.{f}, " for f in fields)
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in fields)
    exec(f"def __init__({', '.join(params)}):\n"
         + "".join(f"    {line}\n" for line in body or ["pass"])
         + "def __eq__(self, other):\n"
         "    if other.__class__ is self.__class__:\n"
         f"        return ({own}) == ({other})\n"
         "    return NotImplemented\n"
         "def __hash__(self):\n"
         f"    return hash(({own}))\n"
         "def __repr__(self):\n"
         f"    return f\"{{self.__class__.__qualname__}}({shown})\"\n", names)
    for method in ("__init__", "__eq__", "__hash__", "__repr__"):
        names[method].__qualname__ = f"{cls.__qualname__}.{method}"
        setattr(cls, method, names[method])
    cls.__match_args__ = fields
    cls.__setattr__ = _refuse_set
    cls.__delattr__ = _refuse_delete
    return cls


# ---------------------------------------------------------------------------
# abstract syntax


class _Node:
    """Base of the syntax nodes: immutable, hashed once, built from a shape.

    Each node computes its hash when it is built, as the hash of the tuple
    of its fields (``_fields`` names them in order), which is the value a
    record (see :func:`_record`) gives.  ``hash`` reads that slot, and
    ``==`` is True on identity, False when the hashes differ, and otherwise
    compares on an explicit stack that settles identical or differently
    hashed subtrees at once.  Neither recurses, so both work at any depth.
    Assigning or deleting a field raises
    :class:`dataclasses.FrozenInstanceError` through the refusals the
    records use, which import ``dataclasses`` only then; the cached hash
    depends on it.  ``str`` is the canonical text, and a node
    pickles as that text; ``repr`` walks a stack too, and ``copy`` and
    ``deepcopy`` give the node itself, which cannot change.

    The eleven node classes come in four shapes, each a base class that
    holds the slots and the ``__init__``: a leaf (Var, Const), an
    application (FuncApp, Atom), a connective (Not, Implies, And, Or, Iff)
    and a quantifier (ForAll, Exists).  A node class names its fields; the
    shape's slots and ``__init__`` parameters take those names in it.  A
    child of the wrong kind raises TypeError: an application takes terms,
    a connective and a quantifier formulas.

    ``_core`` says whether a node is a core formula (see :func:`is_core`).
    A term never is and an atom always is; a connective or quantifier
    stores the flag, read off its children as the hash is.  ``_basic``
    marks the two-place connective and the quantifier that are core
    (Implies and ForAll); Not is core when its body is.
    """
    __slots__ = ("_hash",)
    _fields: tuple = ()
    _slots: tuple = ()      # the shape's slots, in the order of the fields
    _basic = False

    def __init_subclass__(cls):
        if "_fields" not in cls.__dict__:
            return
        for field, slot in zip(cls._fields, cls._slots):
            setattr(cls, field, getattr(cls, slot))
        # The parameters are renamed in the code object only: the body
        # reads them by position, so only keyword binding sees the names.
        code = cls.__init__.__code__
        names = ("self",) + cls._fields + code.co_varnames[1 + len(cls._fields):]
        cls.__init__ = FunctionType(code.replace(co_varnames=names),
                                    cls.__init__.__globals__, "__init__")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._hash == other._hash and _same(self, other)

    __setattr__ = _refuse_set
    __delattr__ = _refuse_delete

    def __repr__(self) -> str:
        """``Class(field=value, ...)``, as a record writes it, built from
        one stack of the pieces still to write."""
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if type(x) is str:
                out.append(x)
            elif isinstance(x, _Node):
                pieces = [f"{type(x).__qualname__}("]
                for k, field in enumerate(x._fields):
                    value = getattr(x, field)
                    pieces.append(f", {field}=" if k else f"{field}=")
                    if type(value) is tuple:        # the arguments of an application
                        pieces.append("(")
                        for arg in value:
                            pieces += arg, ", "
                        pieces[-1] = ",)" if len(value) == 1 else ")"
                    else:
                        pieces.append(value)
                pieces.append(")")
                stack += reversed(pieces)
            else:
                out.append(repr(x))
        return "".join(out)

    def __reduce__(self):
        # the canonical text, which the parser reads back to an equal node
        return (parse_wff if isinstance(self, _Formula) else parse_term), (_print(self),)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __str__(self) -> str:
        return _print(self)


class _Term(_Node):
    __slots__ = ()
    _core = False


class _Formula(_Node):
    __slots__ = ()


# Slots are set through their descriptors, which bypass the frozen
# __setattr__ and cost less than object.__setattr__.
_set_hash = _Node._hash.__set__


class _Leaf(_Term):
    __slots__ = _slots = ("index",)

    def __init__(self, index: int):
        if index < 1:
            raise ValueError(f"{self._kind} index must be >= 1")
        _set_index(self, index)
        _set_hash(self, hash((index,)))


class _Application(_Node):
    __slots__ = _slots = ("letter", "arity", "_args")

    def __init__(self, letter: int, arity: int, args: tuple):
        args = tuple(args)
        if letter < 1 or arity < 1:
            raise ValueError(f"{self._kind} letter and arity must be >= 1")
        if len(args) != arity:
            raise ValueError(f"{self._head}{{{letter},{arity}}} applied to "
                             f"{len(args)} {self._items}")
        for arg in args:
            if not isinstance(arg, _Term):
                raise TypeError(f"not a term: {arg!r}")
        _set_letter(self, letter)
        _set_arity(self, arity)
        _set_args(self, args)
        _set_hash(self, hash((letter, arity, args)))


class _Connective(_Formula):
    """Two subformulas, or one (Not, whose ``_b`` is None)."""
    __slots__, _slots = ("_a", "_b", "_core"), ("_a", "_b")

    def __init__(self, a: "SurfaceWff", b: "SurfaceWff"):
        if not isinstance(a, _Formula):
            raise TypeError(f"not a formula: {a!r}")
        if not isinstance(b, _Formula):
            raise TypeError(f"not a formula: {b!r}")
        _set_a(self, a)
        _set_b(self, b)
        _set_hash(self, hash((a, b)))
        _set_connective_core(self, self._basic and a._core and b._core)

    def _unary(self, a: "SurfaceWff"):
        if not isinstance(a, _Formula):
            raise TypeError(f"not a formula: {a!r}")
        _set_a(self, a)
        _set_hash(self, hash((a,)))
        _set_connective_core(self, a._core)


class _Quantifier(_Formula):
    __slots__, _slots = ("var", "body", "_core"), ("var", "body")

    def __init__(self, var: int, body: "SurfaceWff"):
        if var < 1:
            raise ValueError("variable index must be >= 1")
        if not isinstance(body, _Formula):
            raise TypeError(f"not a formula: {body!r}")
        _set_var(self, var)
        _set_body(self, body)
        _set_hash(self, hash((var, body)))
        _set_quantifier_core(self, self._basic and body._core)


_set_index = _Leaf.index.__set__
_set_letter, _set_arity, _set_args = (
    _Application.letter.__set__, _Application.arity.__set__, _Application._args.__set__)
_set_a, _set_b, _set_connective_core = (
    _Connective._a.__set__, _Connective._b.__set__, _Connective._core.__set__)
_set_var, _set_body, _set_quantifier_core = (
    _Quantifier.var.__set__, _Quantifier.body.__set__, _Quantifier._core.__set__)


class Var(_Leaf):
    __slots__, _fields, _kind = (), ("index",), "variable"


class Const(_Leaf):
    __slots__, _fields, _kind = (), ("index",), "constant"


class FuncApp(_Application, _Term):
    __slots__, _fields = (), ("letter", "arity", "args")
    _kind, _head, _items = "function", "f", "arguments"
    _infix = {(1, 2): " + ", (2, 2): " * "}


Term = Union[Var, Const, FuncApp]


class Atom(_Application, _Formula):
    __slots__, _fields, _core = (), ("letter", "arity", "terms"), True
    _kind, _head, _items = "predicate", "A", "terms"
    _infix = {(1, 2): " = "}


class Not(_Connective):
    __slots__, _fields, _b = (), ("body",), None
    __init__ = _Connective._unary


class Implies(_Connective):
    __slots__, _fields, _basic, _op = (), ("antecedent", "consequent"), True, " -> "


class And(_Connective):
    __slots__, _fields, _op = (), ("left", "right"), " & "


class Or(_Connective):
    __slots__, _fields, _op = (), ("left", "right"), " | "


class Iff(_Connective):
    __slots__, _fields, _op = (), ("left", "right"), " <-> "


class ForAll(_Quantifier):
    __slots__, _fields, _basic, _op = (), ("var", "body"), True, "(all x"


class Exists(_Quantifier):
    __slots__, _fields, _op = (), ("var", "body"), "(ex x"


def _parts(w) -> tuple:
    """The children of a node that are nodes, in field order."""
    if isinstance(w, _Application):
        return w._args
    if isinstance(w, _Connective):
        return (w._a,) if w._b is None else (w._a, w._b)
    if isinstance(w, _Quantifier):
        return (w.body,)
    if isinstance(w, _Leaf):
        return ()
    raise TypeError(f"not a syntax node: {w!r}")


def _same(u, v) -> bool:
    """``u == v`` on two nodes, compared on two explicit stacks that hold
    the nodes of each side in step, so deep nesting costs no recursion.  A
    pair of identical subtrees is settled at once, and so is a pair of
    nodes whose types or hashes differ; otherwise the walk branches on the
    four shapes, told apart by their classes."""
    us, vs = [u], [v]
    push_u, push_v = us.append, vs.append
    while us:
        u, v = us.pop(), vs.pop()
        if u is v:
            continue
        t = type(u)
        if t is not type(v) or u._hash != v._hash:
            return False
        if t is FuncApp or t is Atom:       # equal arities, so the stacks stay in step
            if u.letter != v.letter or u.arity != v.arity:
                return False
            us += u._args
            vs += v._args
        elif t is Var or t is Const:
            if u.index != v.index:
                return False
        elif t is ForAll or t is Exists:
            if u.var != v.var:
                return False
            push_u(u.body)
            push_v(v.body)
        else:                               # a connective
            if u._b is not None:            # not a Not
                push_u(u._b)
                push_v(v._b)
            push_u(u._a)
            push_v(v._a)
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


def _tower(t) -> tuple:
    """``(k, base)`` with t the successor tower ``S^k(base)`` and base no
    successor application; k is 0 when t is none."""
    k = 0
    while type(t) is FuncApp and t.letter == 1 and t.arity == 1:
        t, k = t._args[0], k + 1
    return k, t


# ---------------------------------------------------------------------------
# structural queries


def _fold(w: SurfaceWff, build: Callable, leaf: Callable):
    """The value of the formula w, computed bottom-up in one pass on one
    explicit stack.

    ``leaf(node)`` gives the value of a node that the walk is not to go
    below, and None for the others; ``build(node, values)`` gives the
    value of one of the others from its children's, in field order.
    Each distinct node is valued once, and a node that occurs again (as
    each side of a lowered biconditional does) reuses that value, so the
    walk is linear in the distinct nodes and a shared input gives a
    shared result.
    """
    if not isinstance(w, _Formula):
        raise TypeError(f"not a formula: {w!r}")
    values: dict = {}           # id of a node: its value
    stack = [w]
    pop, extend = stack.pop, stack.extend
    while stack:
        node = pop()
        if node is None:        # the children of the node below it have values
            node, parts = pop()
            values[id(node)] = build(node, [values[id(part)] for part in parts])
        elif id(node) not in values:
            value = leaf(node)
            if value is None:
                parts = _parts(node)
                extend(((node, parts), None))
                extend(parts)
            else:
                values[id(node)] = value
    return values[id(w)]


def _rebuilt(w, parts):
    """w with its children replaced by ``parts``, or w itself when each
    part is the child it replaces."""
    if all(map(is_, parts, _parts(w))):
        return w
    if isinstance(w, _Connective):
        return type(w)(*parts)
    if isinstance(w, _Quantifier):
        return type(w)(w.var, *parts)
    return type(w)(w.letter, w.arity, parts)


def is_core(w: SurfaceWff) -> bool:
    """True when no abbreviation node (ex, &, |, <->) occurs anywhere in w.

    The flag is stored on each node when it is built, so this is one read.
    A term, or anything else that is no formula, is not core.
    """
    return isinstance(w, _Formula) and w._core


def _vars_in(terms) -> frozenset:
    """All variable indices occurring in some terms, found with an explicit
    stack."""
    out, stack = set(), list(terms)
    while stack:
        s = stack.pop()
        if type(s) is Var:
            out.add(s.index)
        elif type(s) is not Const:
            stack.extend(s.args)
    return frozenset(out)


def term_vars(t: Term) -> frozenset:
    """All variable indices occurring in a term."""
    return _vars_in((t,))


def _atom_vars(w):
    return _vars_in(w.terms) if type(w) is Atom else None


def _free(w, parts):
    if isinstance(w, _Quantifier):
        return parts[0] - {w.var}
    return parts[0].union(*parts[1:])


def free_vars(w: SurfaceWff) -> frozenset:
    """Free variable indices of a formula; quantifiers bind their variable."""
    return _fold(w, _free, _atom_vars)


# The abbreviation table: each abbreviation as the core shape it stands
# for, in the notation of the kernel's scheme shapes.  A shape is a tuple
# ("->", X, Y), ("~", X) or ("all", "var", X), and a string in it is a
# metavariable: "A" and "B" for the abbreviation's sides, "var" for its
# variable.  lower() builds each expansion from its shape, the printer
# folds the shapes back in this order, and the evaluator asks _iff_sides
# for Iff's to evaluate each side once.
_EXPANSIONS = {
    Exists: ("~", ("all", "var", ("~", "A"))),
    Iff: ("~", ("->", ("->", "A", "B"), ("~", ("->", "B", "A")))),
    And: ("~", ("->", "A", ("~", "B"))),
    Or: ("->", ("~", "A"), "B"),
}


def _bind(shape, w, parts: dict, shared: bool = False) -> bool:
    """Match w against shape, binding metavariables in parts.  A repeated
    metavariable must bind an equal formula, or with ``shared`` the same
    object, which costs one step whatever its size; a repeated variable
    is compared by value."""
    if isinstance(shape, str):
        bound = parts.setdefault(shape, w)
        return bound is w or not shared and bound == w
    connective = shape[0]
    if connective == "->":
        return (isinstance(w, Implies) and _bind(shape[1], w.antecedent, parts, shared)
                and _bind(shape[2], w.consequent, parts, shared))
    if connective == "~":
        return isinstance(w, Not) and _bind(shape[1], w.body, parts, shared)
    return (isinstance(w, ForAll) and _bind(shape[1], w.var, parts)
            and _bind(shape[2], w.body, parts, shared))


def _iff_sides(w) -> Optional[tuple]:
    """(A, B) when w is the implication under the negation in Iff's shape
    with each side one object in both places, as lower() builds it, else
    None.  That implication holds exactly when A and B differ."""
    parts = {}
    return (parts["A"], parts["B"]) if _bind(_EXPANSIONS[Iff][1], w, parts, True) else None


def _built(shape, parts: dict):
    """The formula of shape, each metavariable replaced by its part; a
    part that occurs twice is one object in both places."""
    if type(shape) is str:
        return parts[shape]
    connective = shape[0]
    if connective == "->":
        return Implies(_built(shape[1], parts), _built(shape[2], parts))
    if connective == "~":
        return Not(_built(shape[1], parts))
    return ForAll(parts[shape[1]], _built(shape[2], parts))


def _expanded(w, parts):
    shape = _EXPANSIONS.get(type(w))
    if shape is None:
        return _rebuilt(w, parts)
    return _built(shape, dict(zip("AB", parts), var=getattr(w, "var", None)))


def _core_itself(w):
    return w if w._core else None


def lower(w: SurfaceWff) -> Wff:
    """Expand every abbreviation node into the three core connectives.

    Innermost nodes are expanded first, each built from its shape in
    the abbreviation table ``_EXPANSIONS``: ``(ex xi A)`` becomes
    ``~(all xi ~A)``, ``(A <-> B)`` becomes ``~((A -> B) -> ~(B -> A))``,
    the conjunction of the two implications expanded, ``(A & B)`` becomes
    ``~(A -> ~B)`` and ``(A | B)`` becomes ``(~A -> B)``.  Each side is one
    object wherever its shape repeats it.  A core formula is returned
    itself at once (lower is idempotent), and so is each core subtree of
    a surface formula, shared or not.
    """
    if isinstance(w, _Formula) and w._core:
        return w
    return _fold(w, _expanded, _core_itself)


# ---------------------------------------------------------------------------
# substitution


def substitute(w: SurfaceWff, x: int, t: Term) -> SurfaceWff:
    """Replace every free occurrence of x in w by t, in one walk.

    The walk does not go below a quantifier that binds x, so a subtree
    changes exactly where it holds a free x.  A quantifier that binds a
    variable of t other than x and whose body changed would capture that
    variable, and the walk raises :class:`CaptureError` there.  Capture
    is an error rather than a trigger for silent renaming: callers that
    depend on the side condition must be able to observe its failure.
    Subtrees without a free x are kept as they are.
    """
    binders = term_vars(t) - {x}

    def leaf(node):
        if type(node) is Var:
            return t if node.index == x else node
        if type(node) is Const or (isinstance(node, _Quantifier) and node.var == x):
            return node
        return None

    def build(node, parts):
        new = _rebuilt(node, parts)
        if new is not node and isinstance(node, _Quantifier) and node.var in binders:
            raise CaptureError(f"term {print_term(t)} is not free for x{x}")
        return new

    return _fold(w, build, leaf)


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


@_record
class Witness:
    """A single term t with A' = A[x := t] at every free occurrence of x."""
    term: Term


@_record
class AnyTerm:
    """x is not free in A and A' = A, so any term works."""


@_record
class NoMatch:
    """A' is not a substitution instance of A at x."""


ANY_TERM = AnyTerm()
NO_MATCH = NoMatch()

MatchResult = Union[Witness, AnyTerm, NoMatch]


def _facing(a: Wff, a_prime: Wff, x: int) -> Optional[Term]:
    """The subterm of A' facing the first free x of A, or None.

    The walk keeps an explicit stack and pairs the children of two nodes
    only where A and A' have the same type.
    """
    stack = [(a, a_prime)]
    while stack:
        s, s2 = stack.pop()
        if type(s) is Var:
            if s.index == x:
                return s2
        elif (type(s) is type(s2) and isinstance(s, _Node)
              and not (isinstance(s, _Quantifier) and s.var == x)):
            stack.extend(reversed(tuple(zip(_parts(s), _parts(s2)))))
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
_INT_RE = re.compile(r"([0-9]+)\Z")

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
        raise ParseError(f"unexpected character {_shown(text[pos])}", pos)
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


# the most digits of an index, a slope or an assigned value: each is
# printed in reports and errors, and Python converts an int of at most
# this many digits to and from text by default
DIGITS_LIMIT = 4300

# the longest piece of outside text that a message repeats whole
_SHOWN_LIMIT = 64


def _number(digits: str, what: str) -> int:
    """``digits`` as an int, refused past ``DIGITS_LIMIT`` digits before int()
    sees them, whatever the interpreter's own limit."""
    if len(digits) > DIGITS_LIMIT:
        raise ValueError(f"{what} has {len(digits)} digits, at most {DIGITS_LIMIT} allowed")
    return int(digits)


def _shown(text: str, quote: Callable[[str], str] = repr) -> str:
    """Outside text as a message repeats it: whole up to ``_SHOWN_LIMIT``
    characters, else by its first ones and its length (a library caller's
    value that is no str: whole).  ``quote`` renders it: ``repr`` for a
    token, a name or a path, ``str`` for a number or a head like ``A{1,2}``."""
    if isinstance(text, str) and len(text) > _SHOWN_LIMIT:
        return f"{quote(text[:_SHOWN_LIMIT])}... ({len(text)} characters)"
    return quote(text)


def _found(token: str) -> str:
    """A token as a parse error shows it: a run of ``S(`` or ``)`` by its first member."""
    return _shown(token[0] if token[-1] == "(" or token[0] == ")" else token)


def _starts_term(text: str) -> bool:
    return (text in _TERM_STARTERS or text[:2] == "S(" or _VAR_RE.match(text) is not None
            or _CONST_RE.match(text) is not None or _INT_RE.match(text) is not None)


# ---------------------------------------------------------------------------
# parser


_BIN_NODES = {cls._op.strip(): cls for cls in (Implies, And, Or, Iff)}
_OPERATIONS = {"+": plus, "*": times}
_TERM_OPS = tuple(_OPERATIONS)
# The longest pair text the parse table keys (see _Parser._open); no
# repeated pair of the proof files that perfbench generates is over 1 KB.
_LONGEST_KEY = 4096
# A pair of at least this many characters is also filed under its source
# text, found by this many of its first characters (see _raw_hits).
_RAW_PREFIX = 24
# Where a parse table keeps its raw table; no token or pair text equals it.
_RAW_KEYS = object()


def _second(_, node):
    return node


class _Hit(str):
    """A token that stands for a pair of the text found in the raw table.

    Its text is the pair's tokens up to its last run of ')', joined as the
    parse table joins them, so the tokens of a text with hits join as
    those of the text do.  The run of ')' that follows it starts with the
    ``closes`` ')' that end the pair, whose formula is ``node``.
    """


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
    """Descent over the token texts, with the pending constructs on a stack.

    ``_wff`` and ``_term`` read down the left edge of a formula or term.
    Each construct they enter leaves a frame on ``stack``: a run of '~', a
    '(' formula, an equality, a '(t op u)' term, the argument list of
    ``f{..}(..)`` or ``A{..}(..)``, or a run of 'S('.  They stop at the
    first node they read whole (a variable, a constant, a parse-table hit
    or a raw hit) and return it.  :meth:`run` hands each finished node to the
    frame on top, ``(resume, a, b, key)``: ``resume(self, node, a, b,
    key)`` either finishes its construct and returns the node built, or
    pushes a frame for the rest and descends again.  Nesting therefore
    costs entries of ``stack``, not Python frames.  ``key`` is where a
    finished '(' formula goes into the parse table, if anywhere.

    The cursor is ``i``, a token index, and ``j``, the number of ')'
    already read from token ``i`` when it is a run of ')' that a
    successor chain or a closing pair has used in part; ``j`` is 0
    everywhere else.  The tokens end in the sentinel ``""``, so reading
    the current token needs no bounds check.  A failure raises
    :class:`_Fail` with a token index and member; the caller turns it into
    a :class:`ParseError` with a position.

    ``text`` is the source text, given when the table is shared: the
    pairs that end the formula then go into its raw table too, once the
    parse succeeds (see :meth:`file_raw`).  Where the tokens hold raw
    hits, ``shape`` holds each as a run of as many 'S(' as the ')' that end
    it, which is how it opens and closes for :func:`_pairs`.
    """

    def __init__(self, tokens: list, table: Optional[dict] = None,
                 text: Optional[str] = None, shape: Optional[list] = None):
        self.tokens, self.shape = tokens, shape
        self.i = self.j = 0
        self.table = {} if table is None else table
        self.text = text
        self.ending = None if text is None else []     # (end, key) of the pairs that end it
        # built at the first '(' formula
        self.after = self.joined = self.lengths = None
        self.eq_start = -1      # where the last equality read began
        self.stopped = ()       # where the last failed equality attempt stopped
        self.stack: list = []

    def run(self, descend: Callable):
        """The node that ``descend`` (``_Parser._wff`` or ``_Parser._term``)
        starts to read, which must end the text."""
        stack = self.stack
        pop = stack.pop
        while True:
            try:
                node = descend(self)
                while stack:
                    resume, a, b, key = pop()
                    node = resume(self, node, a, b, key)
                text = self.tokens[self.i]
                if text:
                    raise _Fail(f"unexpected trailing input {_found(text)}", self.i, self.j)
                return node
            except _Fail as exc:
                # Only a bare equality at a '(' is attempted, and it reads
                # terms alone, so at most one attempt is pending.  When it
                # fails, the '(' holds a quantifier or a binary formula.
                while stack:
                    resume, i, _, _ = stack.pop()
                    if resume is _Parser._attempted:
                        break
                else:
                    raise
                self.i, self.j, self.stopped = i, 0, exc.args[1:]
                self._grouped(i, None)
                descend = _Parser._wff

    def _unexpected(self, wanted: str) -> _Fail:
        """A failure at the cursor, which holds the wrong token."""
        i = self.i
        found = self.tokens[i]
        if not found:
            return _Fail("unexpected end of input", i, 0)
        return _Fail(f"expected {wanted}, found {_found(found)}", i, self.j)

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

    def _term(self) -> Term:
        """Descends into a term; a successor chain ``S(...S(t)...)`` is one
        frame, whatever its depth."""
        tokens, stack = self.tokens, self.stack
        while True:
            i = self.i
            run = tokens[i]
            depth = len(run) // 2 if run[:2] == "S(" else 0
            if depth:
                i += 1
            if tokens[i] == "S":                # an S without its '('
                self.i = i + 1
                raise self._unexpected("'('")
            self.i = i
            if depth:
                stack.append((_Parser._successors, depth, None, None))
            text = tokens[i]
            if text == "(":
                stack.append((_Parser._operator, None, _TERM_OPS, None))
                self.i = i + 1
                continue
            if text == "f":
                self._application(FuncApp)
                continue
            # a variable or constant is built once per table
            node = self.table.get(text)
            if node is None:
                m = _VAR_RE.match(text) or _CONST_RE.match(text)
                if m is not None:
                    leaf = Var if text[0] == "x" else Const
                    node = self.table[text] = leaf(self._index(m[1], i))
                elif text == "0":
                    node = self.table[text] = ZERO
            if node is not None:
                self.i = i + 1
                return node
            if _INT_RE.match(text) is not None:
                raise _Fail(f"bare numeral {_shown(text)} is not a term; only '0' abbreviates a1",
                            i, 0)
            if not text:
                raise _Fail("expected a term", i, 0)
            raise _Fail(f"expected a term, found {_found(text)}", i, self.j)

    def _successors(self, t: Term, depth: int, _, __) -> Term:
        """``S^depth(t)``, whose closing ')' are counted off the run that
        follows t, which may go on to close enclosing terms or formulas.

        The node comes from the parse's successor table: the parse table
        maps each base term t to the list ``[t, S(t), S(S(t)), ...]`` built
        from it so far, so ``S^k(t)`` is an index into that list or an
        extension of it, and equal chains of one parse (or of one shared
        table) are one object.
        """
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

    def _operator(self, left: Term, start: Optional[int], ops: tuple, _) -> Term:
        """The operator after the left term of ``(t + u)`` or ``(t * u)``
        (``ops`` is _TERM_OPS), or of an equality that starts at token
        ``start`` (``ops`` is ``("=",)``); descends into the right term."""
        op = self.tokens[self.i]
        if op not in ops:
            raise self._unexpected(" or ".join(map(repr, ops)))
        self.i += 1
        self.stack.append((_Parser._equality, left, start, None) if op == "=" else
                          (_Parser._closing, _OPERATIONS[op], left, None))
        return self._term()

    def _equality(self, right: Term, left: Term, start: int, _) -> Atom:
        self.eq_start = start
        return eq(left, right)

    def _closing(self, node, build: Callable, first, key: Optional[str]):
        """``build(first, node)`` once the ')' of its pair is read, entered
        in the parse table under ``key`` unless that is None."""
        self.close()
        node = build(first, node)
        if key is not None:
            self.table[key] = node
        return node

    def _read(self, pattern: re.Pattern, wanted: str) -> tuple:
        """The digits of the token at the cursor, which ``pattern`` must
        match, and its index; the cursor moves past it."""
        i = self.i
        m = pattern.match(self.tokens[i])
        if m is None:
            raise self._unexpected(wanted)
        self.i = i + 1
        return m[1], i

    def _index(self, digits: str, k: int) -> int:
        try:
            value = _number(digits, "index")
        except ValueError as exc:
            raise _Fail(str(exc), k, 0) from None
        if value < 1:
            raise _Fail("index must be >= 1", k, 0)
        return value

    def _application(self, cls: type) -> None:
        """Reads ``f{k,n}(`` or ``A{k,n}(`` and pushes the argument list."""
        start = self.i
        self.i = start + 1
        self.expect("{")
        k = self._read(_INT_RE, "a letter index")
        self.expect(",")
        n = self._read(_INT_RE, "an arity")
        self.expect("}")
        k, n = self._index(*k), self._index(*n)
        self.expect("(")
        self.stack.append((_Parser._argument, [], (cls, start, k, n), None))

    def _argument(self, t: Term, terms: list, head: tuple, _):
        """One more argument; descends into the next one after a ','."""
        terms.append(t)
        if self.tokens[self.i] == ",":
            self.i += 1
            self.stack.append((_Parser._argument, terms, head, None))
            return self._term()
        self.close()
        cls, start, k, n = head
        if len(terms) != n:
            raise _Fail(f"arity mismatch: {_shown(f'{cls._head}{{{k},{n}}}', str)} applied to "
                        f"{len(terms)} {cls._items}", start, 0)
        return cls(k, n, tuple(terms))

    # formulas -----------------------------------------------------------

    def _wff(self):
        """Descends into a formula; a run of '~' is one frame."""
        tokens, stack = self.tokens, self.stack
        while True:
            i = self.i
            text = tokens[i]
            if text == "(":
                node = self._open(i)
                if node is not None:
                    return node
            elif text == "~":
                k = i + 1
                while tokens[k] == "~":
                    k += 1
                stack.append((_Parser._negations, k - i, None, None))
                self.i = k
            elif text == "A":
                self._application(Atom)
                return self._term()
            elif _starts_term(text):
                stack.append((_Parser._operator, i, ("=",), None))
                return self._term()
            elif type(text) is _Hit:
                # the run after the hit starts with the hit's own ')'
                if text.closes < len(tokens[i + 1]):
                    self.i, self.j = i + 1, text.closes
                else:
                    self.i = i + 2
                return text.node
            elif not text:
                raise _Fail("expected a formula", i, 0)
            else:
                raise _Fail(f"expected a formula, found {_found(text)}", i, self.j)

    def _negations(self, w: SurfaceWff, count: int, _, __) -> SurfaceWff:
        for _ in range(count):
            w = Not(w)
        return w

    def _open(self, i: int):
        """A formula at the '(' at token i, read through the parse table
        where it can be: the node of a table hit, the first term of a bare
        equality, or None once the frame of the pair is pushed.

        Where the matching ')' is not followed by '=', the parse reads only
        the tokens of the pair, so it is the same wherever they appear: the
        table is keyed by their text, cut at that ')' when it lies inside a
        run, and a hit moves the cursor past the ')'.  Elsewhere a bare
        equality ``term = term`` may run past the pair, and the table is not
        used.  A term that starts at this '(' ends at its matching ')', so
        the equality is attempted only where an '=' follows that ')' (or
        the '(' has none); when it fails, the pair holds a formula.
        Parentheses are matched at the first '(' formula.

        Reading a term is the same wherever it starts, so a failed attempt
        that stopped inside this pair (or after a '(' that has none) read
        a term from this '(' that stopped there too.  Such a '(' is not
        attempted again, or a run of n '(' would cost n attempts of up to
        n tokens each.

        A pair longer than ``_LONGEST_KEY`` characters is read without the
        table.  The keys of nested pairs overlap, so in a formula nested
        n deep their lengths would add up to about n/2 times the length of
        the text: 750 MB for 10^4 nested '->'.
        """
        tokens = self.tokens
        if self.after is None:
            self.joined = "\x00".join(tokens)
            self.after = _pairs(tokens if self.shape is None else self.shape)
            # token k starts at lengths[k] + k in the joined text
            self.lengths = list(accumulate(map(len, tokens), initial=0))
        after = self.after.get(i)
        if after is not None and (after[1] or tokens[after[0]] != "="):
            k, j = after
            lengths = self.lengths
            start = lengths[i] + i
            end = lengths[k] + k + j if j else lengths[k] + k - 1
            key = self.joined[start:end] if end - start <= _LONGEST_KEY else None
            node = self.table.get(key)
            if node is not None:
                self.i, self.j = k, j
                return node
            # the pair that ends the formula, or ends just before its last ')'
            if key is not None and self.ending is not None and end >= len(self.joined) - 2:
                self.ending.append((end, key))
            self._grouped(i, key)
            return None
        if (i, 0) <= self.stopped < (after or (len(tokens),)):
            self._grouped(i, None)      # a term from here fails where one did
            return None
        self.stack.append((_Parser._attempted, i, None, None))
        self.stack.append((_Parser._operator, i, ("=",), None))
        return self._term()

    def file_raw(self) -> None:
        """Files the outermost pair of the formula and the last pair inside
        it, the one its own ')' follows, in the raw table under their source
        text, where that is long enough to be found and short enough to
        keep.  The raw table maps the first ``_RAW_PREFIX`` characters of
        each such text to the texts that start with them, each with its key
        in the parse table.

        These are the pairs a later line of a proof restates: a line whole
        (as K1's antecedent, Gen's body or MP's minor premise), or the
        consequent of one (as MP's conclusion); a pair deeper in a line is
        found through its key once the text around it is lexed.  Their text
        is found without matching parentheses: the outermost pair runs from
        the first '(' to the end, and the last one inside ends at the last
        ')' but one, and starts at the c-th '(' from the end when its key
        holds c of them.
        """
        if not self.ending:
            return
        text, last = self.text, len(self.joined) - 1
        top = len(text.rstrip())
        raw = self.table.get(_RAW_KEYS)
        if raw is None:
            raw = self.table[_RAW_KEYS] = {}
        for end, key in self.ending:
            if end == last:
                begin, end = text.find("("), top
            else:
                begin = len(text.rsplit("(", key.count("("))[0])
                end = text.rfind(")", 0, top - 1) + 1
            if _RAW_PREFIX <= end - begin <= _LONGEST_KEY:
                known = text[begin:end]
                prefix = known[:_RAW_PREFIX]
                same = raw.get(prefix)
                if same is None:
                    raw[prefix] = [(known, key)]
                else:
                    same.append((known, key))

    def _attempted(self, atom: Atom, _, __, ___) -> Atom:
        return atom

    def _grouped(self, i: int, key: Optional[str]) -> None:
        """Pushes the frame of the quantifier or binary formula at the '('
        at token i, whose node goes into the table under ``key``, and
        moves the cursor to its first subformula."""
        nxt = self.tokens[i + 1]
        if nxt == "all" or nxt == "ex":
            self.i = i + 2
            v = self._index(*self._read(_VAR_RE, "a variable"))
            self.stack.append((_Parser._closing, ForAll if nxt == "all" else Exists, v, key))
        else:
            self.i = i + 1
            self.stack.append((_Parser._connective, i, key, None))

    def _connective(self, left: SurfaceWff, i: int, key: Optional[str], _):
        """What follows the first formula of the pair at token i: ')' after
        an equality read from right after the '(', which is then the
        equality ``( term = term )``, or a connective, whose right formula
        it descends into."""
        op = self.tokens[self.i]
        if op[:1] == ")" and self.eq_start == i + 1:
            return self._closing(left, _second, None, key)
        cls = _BIN_NODES.get(op)
        if cls is None:
            raise self._unexpected("a binary connective")
        self.i += 1
        self.stack.append((_Parser._closing, cls, left, key))
        return self._wff()


def _raw_hits(text: str, table: dict, opens: list) -> list:
    """The pairs of ``text`` that the raw table of ``table`` knows, as
    (offset, source text, key) triples, leftmost first and none inside
    another; ``opens`` are the offsets of the '(' of the text where a pair
    may start.

    Each '(' outside a hit is looked up once, by the ``_RAW_PREFIX``
    characters from it on; at most one of the texts found there can start
    at it, since a pair's text fixes where its '(' closes.
    """
    get = table[_RAW_KEYS].get
    hits, end = [], 0
    for p in opens:
        if p >= end:
            same = get(text[p:p + _RAW_PREFIX])
            if same:
                for known, key in same:
                    if text.startswith(known, p) and key in table:
                        hits.append((p, known, key))
                        end = p + len(known)
                        break
    return hits


def _lex_around(text: str, hits: list, table: dict) -> tuple:
    """The tokens of ``text``, with each hit one :class:`_Hit` token, and
    the same tokens with each hit a run of as many 'S(' as ')' end it.

    The text is lexed once with each hit written as the letter ``a`` and
    the run of ')' that ends the pair, so those ')' begin the run of ')'
    after the hit, as in the tokens of ``text``.  A lone ``a`` is no token
    of a text that parses, so where the letters of a hit do not lex alone
    (a letter before the hit joins them) or a token of the text is ``a``,
    the parse fails, and the text is parsed again without hits.
    """
    pieces, found, pos = [], [], 0
    for p, known, key in hits:
        cut = key.rindex("\x00")
        closes = len(key) - cut - 1
        pieces += text[pos:p], "a" + ")" * closes
        found.append((key, cut, closes))
        pos = p + len(known)
    pieces.append(text[pos:])
    tokens = _lex("".join(pieces))
    shape = tokens.copy()
    k = 0
    for key, cut, closes in found:
        try:
            k = tokens.index("a", k)
        except ValueError:
            raise _Fail("a hit is not one token", 0, 0) from None
        tokens[k] = hit = _Hit(key[:cut])
        hit.node, hit.closes = table[key], closes
        shape[k] = "S(" * closes
    return tokens, shape


def _parse(text: str, rule: Callable, table: Optional[dict] = None):
    if table is None:
        p = _Parser(_lex(text))
    else:
        raw = table.get(_RAW_KEYS)
        if raw:
            whole = text.strip()
            for known, key in raw.get(whole[:_RAW_PREFIX], ()):
                if known == whole and key in table:
                    return table[key]       # the text is one known pair
            # the offset of each '(' but those an 'S' takes into a successor run
            parts = text.replace("S(", "S\x01").split("(")
            hits = _raw_hits(text, table, [*map(add, accumulate(map(len, parts[:-1])), count())])
            if hits:
                try:
                    tokens, shape = _lex_around(text, hits, table)
                    p = _Parser(tokens, table, text, shape)
                    node = p.run(rule)
                except (_Fail, ParseError):
                    pass        # the error is found again without the hits
                else:
                    p.file_raw()
                    return node
        p = _Parser(_lex(text), table, text)
    try:
        node = p.run(rule)
    except _Fail as exc:
        message, k, j = exc.args
        raise ParseError(message, _token_start(text, k, j)) from None
    if table is not None:
        p.file_raw()
    return node


def parse_wff(text: str, table: Optional[dict] = None) -> SurfaceWff:
    """Parse a formula; abbreviations are kept as surface nodes.

    ``table`` is the parse table.  It maps the tokens of each
    parenthesized subformula to the node parsed from them, so that a
    repeated subformula is parsed once and each occurrence is the same
    object.  It also maps each base term of a successor chain (``0``, a
    variable, ``(t + u)``, ``f{..}(...)``) to the chain ``[t, S(t), ...]``
    built on it, so ``S^k(t)`` costs no node once a deeper chain on t is
    built, and equal chains are one object; and the text of each variable
    and constant to its node, built once.  Calls that pass one dict
    share it; by default each call starts a fresh one.  Each entry is what
    a successful parse of its key gives, even when the call that made it
    failed later, and no call keeps the table.

    A shared table also holds a raw table: the source text of each pair
    the parse read whole, if that is the formula or lies directly inside
    its outermost pair and has 24 to 4096 characters.  A later call finds
    those texts in its own text before lexing and reads each as one token
    that carries its node, so it lexes, matches and parses only the text
    between them, and a text that is one of them costs a lookup.  A text
    whose parse used such a hit and failed is parsed again without them,
    so every error message and position is that of a parse without a
    table.
    """
    return _parse(text, _Parser._wff, table)


def parse_term(text: str) -> Term:
    return _parse(text, _Parser._term)


def parse_core(text: str) -> Wff:
    """Parse and lower in one step."""
    return lower(parse_wff(text))


# ---------------------------------------------------------------------------
# printer


def _resugared(w: SurfaceWff) -> Optional[tuple]:
    """The pieces of w folded back into the first abbreviation whose shape
    in ``_EXPANSIONS`` it has, last piece first as :func:`_print` takes
    them, or None.  ``~(all v ~A)`` prints as ``(ex v A)``, and
    ``~((A -> B) -> ~(B -> A))``, also of the shape ``~(A -> ~B)``, as
    ``(A <-> B)``."""
    for cls, shape in _EXPANSIONS.items():
        if _bind(shape, w, parts := {}):
            if "var" in parts:
                return ")", parts["A"], f"{cls._op}{parts['var']} "
            return ")", parts["B"], cls._op, parts["A"], "("


def _pieces(w) -> tuple:
    """The text of a node other than a variable or constant, as pieces in
    the order :func:`_print` takes them, last first: strings, and the nodes
    whose text goes between them."""
    t = type(w)
    if t is FuncApp and w.letter == 1 and w.arity == 1:
        # a successor chain is three pieces, at any depth
        depth, w = _tower(w)
        return ")" * depth, w, "S(" * depth
    if t is Atom or t is FuncApp:
        args, op = w._args, w._infix.get((w.letter, w.arity))
        if op is not None:
            return ")", args[1], op, args[0], "("
        pieces = [")", *(piece for arg in reversed(args) for piece in (arg, ", "))]
        pieces[-1] = f"{w._head}{{{w.letter},{w.arity}}}("
        return pieces
    if t.__base__ is _Connective:
        return (w._a, "~") if w._b is None else (")", w._b, w._op, w._a, "(")
    return ")", w.body, f"{w._op}{w.var} "         # a quantifier


def _print(w, resugar: bool = False, texts: Optional[dict] = None) -> str:
    """The canonical text of a node, written from one stack that holds the
    pieces still to write.

    With ``texts``, a pair (a connective or quantifier whose text is
    parenthesized) found in it is written from its text there, and each
    pair written in at most ``_LONGEST_KEY`` pieces and characters goes
    into it.  A marker ``(pair, start)`` under the pair's pieces on the
    stack says where its text begins in ``out``.  Pairs only are kept, and
    only short ones, as in the parse table: so the texts a formula nested
    n deep leaves there do not add up to n/2 times its length.  Atoms and
    terms are written as they come: they take few pieces, and an equal
    copy that the parser did not share would cost a deep ``==`` to find.
    """
    out, stack = [], [w]
    write = out.append
    while stack:
        w = stack.pop()
        t = type(w)
        if t is str:
            write(w)
        elif t is Var:
            write(f"x{w.index}")
        elif t is Const:
            write("0" if w.index == 1 else f"a{w.index}")
        elif texts is None or t is FuncApp or t is Atom:
            stack += (resugar and _resugared(w)) or _pieces(w)
        elif t is tuple:
            w, start = w
            if len(out) - start <= _LONGEST_KEY:
                text = "".join(out[start:])
                if len(text) <= _LONGEST_KEY:
                    texts[w] = text
        else:
            text = texts.get(w)
            if text is not None:
                write(text)
                continue
            pieces = (resugar and _resugared(w)) or _pieces(w)
            if pieces[-1][0] == "(":
                stack.append((w, len(out)))
            stack += pieces
    return "".join(out)


def print_term(t: Term) -> str:
    if not isinstance(t, _Term):
        raise TypeError(f"not a term: {t!r}")
    return _print(t)


def print_wff(w: SurfaceWff, resugar: bool = False, table: Optional[dict] = None) -> str:
    """Render a formula so that parsing the output reproduces it.

    With ``resugar`` the printer folds recognizable expansion patterns back
    into ex/&/|/<-> for display; reparsing and lowering still yields the
    original core formula.

    ``table`` is the print table.  Calls that pass one dict share it: the
    text of each parenthesized subformula but an atom (of at most 4096
    characters) is kept there, per setting of ``resugar``, and a
    subformula reached again, in that call or a later one, is written from
    it.  By default no text is kept, and no call keeps the table.
    """
    if not isinstance(w, _Formula):
        raise TypeError(f"not a formula: {w!r}")
    return _print(w, resugar, None if table is None else table.setdefault(bool(resugar), {}))
