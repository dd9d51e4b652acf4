"""Coded interpretations of arithmetic and a bounded three-valued evaluator.

A coding function psi for an admissible even alpha and a parameter u >= 1
is piecewise linear on the nonnegative reals with psi(0) = 0: the unit
interval [i, i+1) has slope 1 when i is 0, 1, alpha/2 or at least
alpha - 4, and slope u otherwise.  At u = 1 every slope is 1 and psi is
the identity.  The domain of the coded model is {psi(n) : n natural};
successor, sum and product are transported through psi, so the model
satisfies the arithmetic axioms by construction.

Coded values are kept exact as linear forms a + b*u with natural a, b
(a counts the unit-slope intervals below the index, b the u-slope ones);
no floating point enters any equality decision.  Atoms compare element
indices, which for u >= 1 orders the same way as values since psi is
strictly increasing.

The evaluator is honest about the infinite domain: a universal
quantifier can be refuted by a counterexample at index <= bound but can
never be verified, so it returns Unknown after exhausting the bound, and
the derived existential dually returns True on a witness and Unknown on
exhaustion.  True and False verdicts therefore persist at every larger
bound.  ``domain_cutoff=True`` switches to classical two-valued
evaluation over the finite initial segment {0..bound} instead, which
decides every formula but says nothing beyond the cutoff.
"""

from __future__ import annotations

import enum
import itertools
import math
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional, Sequence

from . import goldbach, kernel
from .syntax import (
    DIGITS_LIMIT,
    Atom,
    Const,
    ForAll,
    FuncApp,
    Implies,
    Not,
    Var,
    Wff,
    free_vars,
    is_core,
    _iff_sides,
    _record,
    _shown,
    _tower,
)

__all__ = [
    "ModelError", "CodingFunction", "default_coding",
    "CodedNat", "CodedModel", "coded_model",
    "ThreeValued", "EvalResult", "eval_bounded",
    "AxiomCheck", "check_axioms",
    "LimitRow", "limit_table", "limit_table_csv",
]


class ModelError(ValueError):
    """Bad model construction or evaluation request."""


_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")     # the exponent ending a decimal


def _to_fraction(u) -> Fraction:
    """u as an exact rational.  A text whose digits and exponent add up to
    more than DIGITS_LIMIT is refused before Fraction expands it."""
    if isinstance(u, Fraction):
        return u
    if not isinstance(u, (int, str, float)):
        raise ModelError(f"cannot interpret {u!r} as a slope parameter")
    if isinstance(u, float) and not math.isfinite(u):
        raise ModelError(f"slope parameter {u} is not finite")
    if isinstance(u, str):
        exponent = _EXPONENT.search(u)
        power = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        digits = sum(map(str.isdigit, u[:exponent.start()] if exponent else u))
        if len(power) > 4 or digits + int(power or 0) > DIGITS_LIMIT:
            raise ModelError(f"slope parameter {_shown(u)} needs more than {DIGITS_LIMIT} digits")
    try:
        return Fraction(u)
    except ZeroDivisionError:
        raise ModelError(f"slope parameter {_shown(u)} has a zero denominator") from None
    except ValueError:                       # a text that Fraction does not read
        raise ModelError(f"cannot interpret {_shown(u)} as a slope parameter") from None


# ---------------------------------------------------------------------------
# coding functions


@_record
class CodingFunction:
    """Piecewise-linear coding for an admissible even alpha and u >= 1."""

    alpha: int
    u: Fraction

    def __post_init__(self):
        if not goldbach.is_admissible(self.alpha):
            raise ModelError(
                f"alpha={_shown(str(self.alpha), str)} is not an admissible even "
                "(even, >= 16, alpha/2 and alpha-3 composite)")
        if self.u < 1:
            raise ModelError(f"u must be >= 1, got {_shown(str(self.u), str)}")

    def unit_slot(self, i: int) -> bool:
        """Whether interval [i, i+1) has slope 1 regardless of u."""
        return i in (0, 1, self.alpha // 2) or i >= self.alpha - 4

    def xi(self, i: int) -> Fraction:
        """Slope of the unit interval [i, i+1)."""
        if i < 0:
            raise ModelError("interval index must be >= 0")
        return Fraction(1) if self.unit_slot(i) else self.u

    def slope_counts(self, n: int) -> tuple:
        """(unit-slope intervals, u-slope intervals) below index n.

        Unit slots below alpha - 4 are exactly {0, 1, alpha/2}, so both
        counts have a closed form.
        """
        if n < 0:
            raise ModelError("index must be >= 0")
        edge = self.alpha - 4
        if n <= edge:
            units = min(n, 2) + (1 if n > self.alpha // 2 else 0)
        else:
            units = 3 + (n - edge)
        return units, n - units

    def psi_nat(self, n: int) -> Fraction:
        units, uslopes = self.slope_counts(n)
        return units + uslopes * self.u

    def psi(self, x) -> Fraction:
        """psi at any nonnegative rational: full intervals plus a partial one."""
        x = Fraction(x)
        if x < 0:
            raise ModelError("psi is defined on nonnegative arguments")
        whole = int(x)
        return self.psi_nat(whole) + self.xi(whole) * (x - whole)


def default_coding(alpha: int, u) -> CodingFunction:
    return CodingFunction(alpha, _to_fraction(u))


# ---------------------------------------------------------------------------
# coded naturals and models


class CodedNat:
    """Element psi(index) of a coded model, with its exact value a + b*u."""

    __slots__ = ("model", "index", "units", "uslopes")

    def __init__(self, model: "CodedModel", index: int, units: int, uslopes: int):
        self.model = model
        self.index = index
        self.units = units
        self.uslopes = uslopes

    @property
    def value(self) -> Fraction:
        return self.units + self.uslopes * self.model.coding.u

    def __eq__(self, other) -> bool:
        return (isinstance(other, CodedNat) and self.model is other.model
                and self.index == other.index)

    def __hash__(self) -> int:
        return hash((id(self.model), self.index))

    def __lt__(self, other) -> bool:
        if not isinstance(other, CodedNat) or other.model is not self.model:
            return NotImplemented
        return self.index < other.index

    def __repr__(self) -> str:
        return f"CodedNat({self.index}: {self.units}+{self.uslopes}u)"


class CodedModel:
    """Interpretation with domain {psi(n)} and transported arithmetic.

    a1 denotes psi(0) = 0 and a2 denotes psi(1).  The three index
    functions may be overridden to inject faults (an override that
    returns a negative index raises ModelError); the default transported
    operations mirror successor, sum and product on indices, which makes
    the arithmetic axioms hold by construction.  ``overridden`` names the
    overridden ones among "succ", "add" and "mul".
    """

    def __init__(self, coding: CodingFunction, *,
                 succ_index=None, add_index=None, mul_index=None):
        self.coding = coding
        self._overrides = {name: _checked(fn) for name, fn in (
            ("succ", succ_index), ("add", add_index), ("mul", mul_index)) if fn is not None}
        self.overridden = frozenset(self._overrides)
        self._succ = self._overrides.get("succ", lambda n: n + 1)
        self._add = self._overrides.get("add", lambda m, n: m + n)
        self._mul = self._overrides.get("mul", lambda m, n: m * n)
        self.zero = self.encode(0)
        self.one = self.encode(1)

    def __repr__(self) -> str:
        return f"CodedModel(alpha={self.coding.alpha}, u={self.coding.u})"

    def encode(self, n: int) -> CodedNat:
        units, uslopes = self.coding.slope_counts(n)
        return CodedNat(self, n, units, uslopes)

    def decode(self, c: CodedNat) -> int:
        self._own(c)
        return c.index

    def succ(self, x: CodedNat) -> CodedNat:
        self._own(x)
        return self.encode(self._succ(x.index))

    def add(self, x: CodedNat, y: CodedNat) -> CodedNat:
        self._own(x)
        self._own(y)
        return self.encode(self._add(x.index, y.index))

    def mul(self, x: CodedNat, y: CodedNat) -> CodedNat:
        self._own(x)
        self._own(y)
        return self.encode(self._mul(x.index, y.index))

    def _own(self, c: CodedNat) -> None:
        if not isinstance(c, CodedNat) or c.model is not self:
            raise ModelError("operand belongs to a different model")


def _constant_index(index: int) -> int:
    """Index of the element that a<index> denotes: a1 is psi(0), a2 psi(1)."""
    if index not in (1, 2):
        raise ModelError(f"constant {_shown(f'a{index}', str)} has no interpretation in this model")
    return index - 1


def _checked(index_fn):
    """An overriding index function that may not leave the naturals.

    The default operations cannot produce a negative index; an override
    can, and its result is rejected as ``encode`` would reject it.
    """
    def fn(*indices):
        n = index_fn(*indices)
        if n < 0:
            raise ModelError("index must be >= 0")
        return n
    return fn


def coded_model(alpha: int, u, **op_overrides) -> CodedModel:
    return CodedModel(default_coding(alpha, u), **op_overrides)


# ---------------------------------------------------------------------------
# bounded evaluation


class ThreeValued(enum.Enum):
    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __str__(self) -> str:
        return self.value


@_record
class EvalResult:
    """Verdict plus, when decisive, the quantifier indices that decided it.

    The witness maps variable indices to element indices in a read-only
    ``MappingProxyType``, so a result cannot change once built.  A
    mapping has no hash, so hashing a decisive result raises TypeError;
    an Unknown one, whose witness is None, hashes.
    """
    truth: ThreeValued
    witness: Optional[Mapping] = None

    def witness_json(self) -> Optional[dict]:
        """The witness as {"x<i>": index} in variable order, or None."""
        if not self.witness:
            return None
        return {f"x{i}": n for i, n in sorted(self.witness.items())}


# the verdict of each truth value the generated code returns
_VERDICTS = {True: ThreeValued.TRUE, False: ThreeValued.FALSE, None: ThreeValued.UNKNOWN}


def _merge(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    return {**a, **b} if a and b else a or b


def _implies(ta, wa, tb, wb):
    """Strong Kleene ``A -> B`` and its witness, for an antecedent that
    is not False."""
    if tb is True:
        return True, wb
    if ta is True and tb is False:
        return False, _merge(wa, wb)
    return None, None


def _differ(ta, wa, tb, wb):
    """``(A -> B) -> ~(B -> A)``, which lower() writes under a negation for
    ``A <-> B``, from A's and B's verdicts, as its three implications give it."""
    tx, wx = (True, wa) if ta is False else _implies(ta, wa, tb, wb)
    if tx is False:
        return True, wx
    tq, wq = (True, wb) if tb is False else _implies(tb, wb, ta, wa)
    return _implies(tx, wx, None if tq is None else not tq, wq)


def _raising(message: str):
    """A function that raises when called, so uninterpretable symbols
    fail only where evaluation reaches them."""
    def fail():
        raise ModelError(message)
    return fail


# Nesting allowed inside one generated function.  Python's parser and
# compiler stop at about 200 nested parentheses, 100 indentation levels
# and 20 nested loops; deeper code moves into a function of its own, and
# a formula still runs in fewer Python frames than it has levels.
_MAX_EXPR_DEPTH = 40
_MAX_BLOCK_DEPTH = 8
_MAX_CHAIN = 8

# default index operations are inlined; an overriding one is called
_OPS = {(1, 1): ("succ", "({} + 1)", "_succ({})"),
        (1, 2): ("add", "({} + {})", "_add({}, {})"),
        (2, 2): ("mul", "({} * {})", "_mul({}, {})")}


class _Expr(NamedTuple):
    """A quantifier-free piece as one Python expression: a term, or a
    two-valued formula.  ``names`` are the locals it reads."""
    text: str
    depth: int
    names: frozenset


class _Block(NamedTuple):
    """A piece that holds a quantifier: statements after which ``t`` is
    True, False or None (unknown) and ``w`` the witness dict or None.
    ``depth`` is the deepest indentation among the lines."""
    lines: list
    t: str
    w: str
    depth: int
    names: frozenset


def _indent(lines: list, levels: int = 1) -> list:
    pad = "    " * levels
    return [pad + line for line in lines]


def _params(names) -> str:
    # x<i> in index order first, then the bound v<k>
    return ", ".join(sorted(names, key=lambda name: (name[0] == "v", int(name[1:]))))


class _Compiler:
    """Turns a core formula into the source of Python functions.

    The walk keeps its own stack, so formula depth costs no Python
    frames here.  Variables are locals: a free one is ``x<i>``, and each
    quantifier binds a fresh ``v<k>``, so shadowing is resolved while
    compiling.  Quantifier-free subformulas become one short-circuit
    expression.  Other subformulas become statements that set a truth
    (True, False, or None for unknown) and a witness.  A universal, or a
    chain of them, is a function of its free variables whose loops
    return (False, witness) at the first counterexample; one that
    ignores the variable of an enclosing quantifier is memoized on its
    free variables in a table of this call.  An implication of the shape
    under the negation in Iff's entry of syntax's abbreviation table,
    ``(A -> B) -> ~(B -> A)`` as lower() writes ``A <-> B``, with each
    side one object in both places (``syntax._iff_sides``), is one
    piece per side and one ``_differ``, so nested biconditionals grow the
    source linearly; any other repeated node is compiled again.  The
    source is built from integers and fixed identifiers only; error
    messages and override functions are entries of ``ns``.  The domain is
    the name ``_D``, which the run supplies, so the code does not depend
    on the bound.  ``overrides`` maps "succ", "add" or "mul" to the index
    function that replaces the default operation.
    """

    def __init__(self, overrides: Mapping, cutoff: bool):
        self.defs: list = []
        self.ns = {"_merge": _merge, "_implies": _implies, "_differ": _differ,
                   **{f"_{name}": fn for name, fn in overrides.items()}}
        self.exhausted = "True" if cutoff else "None"
        self.fresh = itertools.count()
        self.inline = {sig for sig, (name, _, _) in _OPS.items() if name not in overrides}

    def source(self, w: Wff) -> tuple:
        """Source defining ``_root``, and the indices of the free variables
        it takes in order.  ``_root`` returns the pair (truth, witness):
        (bool, None) for a quantifier-free formula."""
        top = self._compile(w)
        free = sorted(int(name[1:]) for name in top.names)
        body = ([f"return {top.text}, None"] if isinstance(top, _Expr)
                else top.lines + [f"return {top.t}, {top.w}"])
        self._function("_root", top.names, body)
        return "\n".join(self.defs) + "\n", free

    def _function(self, name: str, names, lines: list) -> str:
        """Adds ``def name(<names>)`` and returns the call to it."""
        call = f"{name}({_params(names)})"
        self.defs.append("\n".join([f"def {call}:"] + _indent(lines)))
        return call

    # -- expressions

    def _raiser(self, message: str) -> _Expr:
        name = f"_r{next(self.fresh)}"
        self.ns[name] = _raising(message)
        return _Expr(f"{name}()", 1, frozenset())

    def _expr(self, template: str, a: _Expr, b: Optional[_Expr] = None) -> _Expr:
        if b is None:
            text, names, depth = template.format(a.text), a.names, a.depth + 1
        else:
            text, names = template.format(a.text, b.text), a.names | b.names
            depth = 1 + (a.depth if a.depth > b.depth else b.depth)
        if depth > _MAX_EXPR_DEPTH:
            text, depth = self._function(f"_e{next(self.fresh)}", names, [f"return {text}"]), 1
        return _Expr(text, depth, names)

    def _operation(self, sig: tuple, *args: _Expr) -> _Expr:
        _, inline, call = _OPS[sig]
        return self._expr(inline if sig in self.inline else call, *args)

    def _successors(self, k: int, base: _Expr) -> _Expr:
        """S applied k times: one ``+ k`` inline (Python's compiler folds
        it on a literal), or k calls of an override."""
        if (1, 1) in self.inline:
            return self._expr(f"({{}} + {k})", base)
        for _ in range(k):
            base = self._operation((1, 1), base)
        return base

    # -- statements

    def _block(self, lines: list, t: str, w: str, depth: int, names: frozenset) -> _Block:
        """The lines as a block, or, nested too deeply, as a function of
        their own and one line calling it."""
        if depth > _MAX_BLOCK_DEPTH:
            call = self._function(f"_g{next(self.fresh)}", names, lines + [f"return {t}, {w}"])
            lines, depth = [f"{t}, {w} = {call}"], 0
        return _Block(lines, t, w, depth, names)

    def _negation(self, b):
        if isinstance(b, _Expr):
            return self._expr("(not {})", b)
        t = f"t{next(self.fresh)}"
        return _Block(b.lines + [f"{t} = None if {b.t} is None else not {b.t}"], t, b.w,
                      b.depth, b.names)

    def _sides(self, a, b, t: str) -> tuple:
        """Both pieces as blocks: an expression antecedent is held in ``t``
        before the consequent's lines run, so it is still evaluated first."""
        if isinstance(a, _Expr):
            a = _Block([f"{t} = {a.text}"], t, "None", 0, a.names)
        if isinstance(b, _Expr):
            b = _Block([], b.text, "None", 0, b.names)
        return a, b

    def _implication(self, a, b):
        if isinstance(a, _Expr) and isinstance(b, _Expr):
            return self._expr("(not {} or {})", a, b)
        k = next(self.fresh)
        t, w = f"t{k}", f"w{k}"
        a, b = self._sides(a, b, t)
        # a false: True; otherwise the consequent is evaluated
        lines = a.lines + [f"if {a.t} is False:", f"    {t}, {w} = True, {a.w}", "else:"]
        lines += _indent(b.lines + [f"{t}, {w} = _implies({a.t}, {a.w}, {b.t}, {b.w})"])
        return self._block(lines, t, w, max(a.depth, b.depth + 1), a.names | b.names)

    def _difference(self, a, b):
        """``(A -> B) -> ~(B -> A)``, each side evaluated once and A first,
        as the three implications evaluate A first and B on every path."""
        if isinstance(a, _Expr) and isinstance(b, _Expr):
            return self._expr("({} != {})", a, b)
        k = next(self.fresh)
        t, w = f"t{k}", f"w{k}"
        a, b = self._sides(a, b, t)
        lines = a.lines + b.lines + [f"{t}, {w} = _differ({a.t}, {a.w}, {b.t}, {b.w})"]
        return self._block(lines, t, w, max(a.depth, b.depth), a.names | b.names)

    def _universal(self, variables: tuple, loops: tuple, enclosing: int, body) -> _Block:
        """Loops binding ``variables`` to the locals ``loops``, as a
        function of their own: (False, witness) at the first
        counterexample, else (exhausted, None)."""
        names = body.names.difference(loops)
        found = "{" + ", ".join(f"{v}: {loop}" for v, loop in zip(variables, loops)) + "}"
        if isinstance(body, _Expr):
            inner = [f"if not {body.text}:", f"    return False, {found}"]
        else:
            inner = body.lines + [f"if {body.t} is False:",
                                  f"    return False, _merge({found}, {body.w})"]
        lines = ["    " * depth + f"for {loop} in _D:" for depth, loop in enumerate(loops)]
        lines += _indent(inner, len(loops)) + [f"return {self.exhausted}, None"]
        call = self._function(f"_u{next(self.fresh)}", names, lines)
        k = next(self.fresh)
        t, w = f"t{k}", f"w{k}"
        # the bound locals read here are v<k>, each of an enclosing
        # quantifier; with fewer of them than enclosing quantifiers, the
        # verdict is the same for every value of some enclosing variable
        if enclosing > sum(1 for n in names if n[0] == "v"):
            memo = f"_m{k}"
            self.defs.append(f"{memo} = {{}}")
            key = _params(names) if len(names) == 1 else f"({_params(names)})"
            lines = [f"{t} = {memo}.get({key})", f"if {t} is None:",
                     f"    {t} = {memo}[{key}] = {call}", f"{t}, {w} = {t}"]
            return _Block(lines, t, w, 1, names)
        return _Block([f"{t}, {w} = {call}"], t, w, 0, names)

    # -- the walk

    def _compile(self, w: Wff):
        # work items: ("visit", node, scope, enclosing quantifiers) or
        # (combine method, number of pieces it takes, *leading arguments)
        out: list = []
        work: list = [("visit", w, {}, 0)]
        while work:
            item = work.pop()
            if item[0] != "visit":
                combine, count, *extra = item
                pieces = out[len(out) - count:]
                del out[len(out) - count:]
                out.append(combine(*extra, *pieces))
                continue
            _, node, scope, enclosing = item
            if isinstance(node, Var):
                name = scope.get(node.index, f"x{node.index}")
                out.append(_Expr(name, 0, frozenset((name,))))
            elif isinstance(node, Const):
                try:
                    value = _constant_index(node.index)
                except ModelError as exc:
                    out.append(self._raiser(str(exc)))
                else:
                    out.append(_Expr(str(value), 0, frozenset()))
            elif isinstance(node, FuncApp):
                sig = (node.letter, node.arity)
                if sig not in _OPS:
                    out.append(self._raiser(
                        f"function letter f{{{node.letter},{node.arity}}} has no interpretation"))
                elif sig == (1, 1):
                    k, node = _tower(node)
                    work.append((self._successors, 1, k))
                    work.append(("visit", node, scope, enclosing))
                else:
                    work.append((self._operation, 2, sig))
                    work.append(("visit", node.args[1], scope, enclosing))
                    work.append(("visit", node.args[0], scope, enclosing))
            elif isinstance(node, Atom):
                if (node.letter, node.arity) != (1, 2):
                    out.append(self._raiser(
                        f"predicate letter A{{{node.letter},{node.arity}}} has no interpretation"))
                else:
                    work.append((self._expr, 2, "({} == {})"))
                    work.append(("visit", node.terms[1], scope, enclosing))
                    work.append(("visit", node.terms[0], scope, enclosing))
            elif isinstance(node, Not):
                # ~~A has the verdict and witness of A
                odd = False
                while isinstance(node, Not):
                    node, odd = node.body, not odd
                if odd:
                    work.append((self._negation, 1))
                work.append(("visit", node, scope, enclosing))
            elif isinstance(node, Implies):
                # the implication under the negation of lower()'s A <-> B
                # is one piece for each side
                sides = _iff_sides(node)
                work.append((self._difference if sides else self._implication, 2))
                x, y = sides or (node.antecedent, node.consequent)
                work.append(("visit", y, scope, enclosing))
                work.append(("visit", x, scope, enclosing))
            else:
                # a ForAll: is_core admits no other formula, and the
                # constructors admit only terms below an atom
                variables, loops, scope = [], [], dict(scope)
                while isinstance(node, ForAll) and len(loops) < _MAX_CHAIN:
                    loop = f"v{next(self.fresh)}"
                    variables.append(node.var)
                    loops.append(loop)
                    scope[node.var] = loop
                    node = node.body
                work.append((self._universal, 1, tuple(variables), tuple(loops), enclosing))
                work.append(("visit", node, scope, enclosing + len(loops)))
        (top,) = out
        return top


def _compiled(w: Wff, overrides: Mapping, cutoff: bool) -> tuple:
    """Compile a core formula: (code, free, names).  ``free`` lists the
    indices of the free variables that ``_root`` takes, in order, and
    ``names`` holds what the code reads besides ``_D``."""
    compiler = _Compiler(overrides, cutoff)
    source, free = compiler.source(w)
    return compile(source, "<eval_bounded>", "exec"), free, compiler.ns


def _run(code, names: dict, bound: int, args: Sequence) -> EvalResult:
    """Run compiled code over the indices 0..bound in the namespace
    ``names``, which is emptied on return, and call ``_root(*args)``; its
    pair (truth, witness) becomes a new ``EvalResult``, the witness
    wrapped read-only."""
    if bound < 0:
        raise ModelError("bound must be >= 0")
    names["_D"] = range(bound + 1)
    try:
        exec(code, names)
        truth, witness = names["_root"](*args)
    except RecursionError:
        # each chain of universals and each split-off block is one call
        # of the generated code, so thousands of them nest too deeply
        raise ModelError("formula nested too deeply to evaluate") from None
    finally:
        names.clear()  # the generated functions and memo tables refer to names
    return EvalResult(_VERDICTS[truth], MappingProxyType(witness) if witness else None)


def eval_bounded(model: CodedModel, w: Wff, env: Optional[Mapping] = None, *,
                 bound: int, domain_cutoff: bool = False) -> EvalResult:
    """Evaluate a core formula in the model, scanning indices 0..bound.

    ``env`` maps variable indices to CodedNat elements of this model
    (plain naturals are encoded on the way in) and must cover the free
    variables; it is decoded once on entry, so an element of another
    model raises ModelError whether or not the formula uses it.
    Negation and implication follow the strong Kleene tables.  A
    universal quantifier returns False with the counterexample's index
    as witness, or Unknown once indices 0..bound are exhausted; it never
    returns True because the domain is infinite.  The derived existential
    returns True with a witness or Unknown.  Under ``domain_cutoff``
    quantifiers range over the finite segment {0..bound} only and every
    verdict is classical True or False.

    Each call generates Python source for the formula and compiles it
    once, which costs about 0.05-0.1 ms per generated function.
    Variables are plain element indices in locals.  A quantifier-free
    subformula is one short-circuit expression, with the default
    successor, sum and product inlined as ``+ 1``, ``+`` and ``*`` and
    overriding index functions called.  A universal is a loop that
    returns its first counterexample; one that does not depend on an
    enclosing quantifier's variable is memoized on its free variables
    for the rest of the call.  Each side of a lowered biconditional,
    found by Iff's shape in syntax's abbreviation table with the side
    one object in both places, as lower() builds it, is compiled and
    evaluated once, so time and source grow linearly with nested
    ``<->``.  Evaluation order is the formula's, so an
    uninterpretable symbol raises ModelError only when reached.  Code
    nested deeper than Python's compiler allows is split into functions;
    a formula whose functions would nest past the interpreter's recursion
    limit (some thousands of universals deep) raises ModelError.
    """
    if not is_core(w):
        raise ModelError("eval_bounded takes core wffs; apply lower() first")
    scope = {name: model.decode(value if isinstance(value, CodedNat) else model.encode(value))
             for name, value in (env or {}).items()}
    missing = free_vars(w) - scope.keys()
    if missing:
        names = _shown(", ".join(f"x{i}" for i in sorted(missing)), str)
        raise ModelError(f"unbound free variables: {names}")
    code, free, names = _compiled(w, model._overrides, domain_cutoff)
    return _run(code, names, bound, [scope[i] for i in free])


# ---------------------------------------------------------------------------
# axiom reports


# N1..N6 in order
_N_AXIOMS = tuple(kernel.build_theory_N().axioms().items())

# N1..N6 compiled for the default operations, for each domain_cutoff;
# the code reads the bound from ``_D``, so it serves every default model
_AXIOM_CODE = {cutoff: tuple(_compiled(wff, {}, cutoff) for _, wff in _N_AXIOMS)
               for cutoff in (False, True)}


@_record
class AxiomCheck:
    axiom: str
    result: EvalResult

    def to_json_dict(self) -> dict:
        return {
            "axiom": self.axiom,
            "verdict": self.result.truth.value,
            "witness": self.result.witness_json(),
        }


def check_axioms(model: CodedModel, bound: int, *,
                 domain_cutoff: bool = False) -> list:
    """Evaluate N1..N6 in the model at the given bound, in table order.

    With transported operations every entry is Unknown (no counterexample
    up to the bound); any False means the operations do not commute with
    the coding and is a defect worth a counterexample index.

    The verdicts are those of ``eval_bounded`` on each axiom.  For a
    model that overrides no operation, the axioms run as code compiled
    once when this module is imported (about 1.2-1.6 ms of import time),
    each call in a fresh namespace: at bound 10 the call takes about
    0.045 ms, against 0.7-1.0 ms when the six were compiled per call.  A
    model with an override compiles them for its operations on every
    call.
    """
    checks = []
    for (name, wff), compiled in zip(_N_AXIOMS, _AXIOM_CODE[bool(domain_cutoff)]):
        if model.overridden:
            compiled = _compiled(wff, model._overrides, domain_cutoff)
        code, _, names = compiled
        checks.append(AxiomCheck(name, _run(code, dict(names), bound, ())))
    return checks


# ---------------------------------------------------------------------------
# limit behavior in u


@_record
class LimitRow:
    alpha: int
    u: Fraction
    n: int
    psi: Fraction
    deviation: Fraction


def limit_table(alpha: int, n_max: int, u_sequence: Sequence) -> list:
    """Deviations |psi(n) - n| for each u in a sequence decreasing toward 1.

    The deviation psi(n) - n is exactly b_n * (u - 1), where b_n counts
    the u-slope intervals below n and the other n - b_n have slope 1, so
    rows are exact rationals: nonincreasing along the sequence and
    identically 0 at u = 1.
    """
    us = [_to_fraction(u) for u in u_sequence]
    if not us:
        raise ModelError("u_sequence must be nonempty")
    if any(u < 1 for u in us):
        raise ModelError("every u must be >= 1")
    if any(us[k + 1] >= us[k] for k in range(len(us) - 1)):
        raise ModelError("u_sequence must be strictly decreasing")
    if n_max < 0:
        raise ModelError("n_max must be >= 0")
    rows = []
    for u in us:
        coding = default_coding(alpha, u)
        for n in range(n_max + 1):
            psi = coding.psi_nat(n)
            rows.append(LimitRow(alpha, u, n, psi, psi - n))
    return rows


def _sig12(x: Fraction) -> str:
    return f"{float(x):.12g}"


def limit_table_csv(rows: Sequence) -> str:
    lines = ["alpha,u,n,psi,deviation"]
    lines.extend(
        f"{r.alpha},{_sig12(r.u)},{r.n},{_sig12(r.psi)},{_sig12(r.deviation)}"
        for r in rows)
    return "\n".join(lines) + "\n"
