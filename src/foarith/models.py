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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence

from . import goldbach, kernel
from .syntax import (
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


def _to_fraction(u) -> Fraction:
    if isinstance(u, Fraction):
        return u
    if isinstance(u, (int, str, float)):
        try:
            return Fraction(u)
        except ZeroDivisionError:
            raise ModelError(f"slope parameter {u!r} has a zero denominator") from None
    raise ModelError(f"cannot interpret {u!r} as a slope parameter")


# ---------------------------------------------------------------------------
# coding functions


@dataclass(frozen=True)
class CodingFunction:
    """Piecewise-linear coding for an admissible even alpha and u >= 1."""

    alpha: int
    u: Fraction

    def __post_init__(self):
        if not goldbach.is_admissible(self.alpha):
            raise ModelError(
                f"alpha={self.alpha} is not an admissible even "
                "(even, >= 16, alpha/2 and alpha-3 composite)")
        if self.u < 1:
            raise ModelError(f"u must be >= 1, got {self.u}")

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
        self.overridden = frozenset(
            name for name, fn in (("succ", succ_index), ("add", add_index),
                                  ("mul", mul_index)) if fn is not None)
        self._succ = _checked(succ_index) if succ_index is not None else lambda n: n + 1
        self._add = _checked(add_index) if add_index is not None else lambda m, n: m + n
        self._mul = _checked(mul_index) if mul_index is not None else lambda m, n: m * n
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

    def constant(self, index: int) -> CodedNat:
        if index == 1:
            return self.zero
        if index == 2:
            return self.one
        raise ModelError(f"constant a{index} has no interpretation in this model")

    def _own(self, c: CodedNat) -> None:
        if not isinstance(c, CodedNat) or c.model is not self:
            raise ModelError("operand belongs to a different model")


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


@dataclass
class EvalResult:
    """Verdict plus, when decisive, the quantifier indices that decided it."""
    truth: ThreeValued
    witness: Optional[dict] = None

    def witness_json(self) -> Optional[dict]:
        """The witness as {"x<i>": index} in variable order, or None."""
        if not self.witness:
            return None
        return {f"x{i}": n for i, n in sorted(self.witness.items())}


_TRUE = EvalResult(ThreeValued.TRUE)
_FALSE = EvalResult(ThreeValued.FALSE)
_UNKNOWN = EvalResult(ThreeValued.UNKNOWN)

def _merge(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    out.update(b)
    return out


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
    free variables in a table of this call.  The source is built from
    integers and fixed identifiers only; error messages and override
    functions are entries of ``ns``.
    """

    def __init__(self, model: CodedModel, bound: int, cutoff: bool):
        self.model = model
        self.defs: list = []
        self.ns = {"_D": range(bound + 1), "_merge": _merge,
                   "_succ": model._succ, "_add": model._add, "_mul": model._mul}
        self.exhausted = "True" if cutoff else "None"
        self.fresh = itertools.count()
        self.inline = {sig for sig, (name, _, _) in _OPS.items()
                       if name not in model.overridden}

    def source(self, w: Wff) -> tuple:
        """Source defining ``_root``, and the indices of the free variables
        it takes in order.  ``_root`` returns a bool for a quantifier-free
        formula and a pair (truth, witness) otherwise."""
        top = self._compile(w)
        free = sorted(int(name[1:]) for name in top.names)
        if not isinstance(w, ForAll):  # a universal at the top is _root itself
            body = ([f"return {top.text}"] if isinstance(top, _Expr)
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
        if depth > _MAX_BLOCK_DEPTH:
            call = self._function(f"_g{next(self.fresh)}", names, lines + [f"return {t}, {w}"])
            k = next(self.fresh)
            t, w = f"t{k}", f"w{k}"
            lines, depth = [f"{t}, {w} = {call}"], 0
        return _Block(lines, t, w, depth, names)

    def _negation(self, b):
        if isinstance(b, _Expr):
            return self._expr("(not {})", b)
        t = f"t{next(self.fresh)}"
        negated = (f"not {b.t}" if self.exhausted == "True"
                   else f"None if {b.t} is None else not {b.t}")
        return _Block(b.lines + [f"{t} = {negated}"], t, b.w, b.depth, b.names)

    def _implication(self, a, b):
        if isinstance(a, _Expr) and isinstance(b, _Expr):
            return self._expr("(not {} or {})", a, b)
        k = next(self.fresh)
        t, w = f"t{k}", f"w{k}"
        names = a.names | b.names
        if isinstance(a, _Expr):
            # a true: the consequent's verdict; a false: True
            lines = [f"{t}, {w} = True, None", f"if {a.text}:"] \
                + _indent(b.lines + [f"{t}, {w} = {b.t}, {b.w}"])
            return self._block(lines, t, w, b.depth + 1, names)
        lines = a.lines + [f"if {a.t} is False:", f"    {t}, {w} = True, {a.w}"]
        if isinstance(b, _Expr):
            lines += [f"elif {b.text}:", f"    {t}, {w} = True, None",
                      f"elif {a.t} is True:", f"    {t}, {w} = False, {a.w}",
                      "else:", f"    {t}, {w} = None, None"]
            return self._block(lines, t, w, max(a.depth, 1), names)
        lines += ["else:"] + _indent(b.lines + [
            f"if {b.t} is True:", f"    {t}, {w} = True, {b.w}",
            f"elif {a.t} is True and {b.t} is False:",
            f"    {t}, {w} = False, _merge({a.w}, {b.w})",
            "else:", f"    {t}, {w} = None, None"])
        return self._block(lines, t, w, max(a.depth, b.depth + 1, 2), names)

    def _universal(self, variables: tuple, loops: tuple, enclosing: int, name: str,
                   body) -> _Block:
        """Loops binding ``variables`` to the locals ``loops``, as the
        function ``name``: (False, witness) at the first counterexample,
        else (exhausted, None)."""
        names = body.names.difference(loops)
        found = "{" + ", ".join(f"{v}: {loop}" for v, loop in zip(variables, loops)) + "}"
        if isinstance(body, _Expr):
            inner = [f"if not {body.text}:", f"    return False, {found}"]
        else:
            inner = body.lines + [f"if {body.t} is False:",
                                  f"    return False, _merge({found}, {body.w})"]
        lines = ["    " * depth + f"for {loop} in _D:" for depth, loop in enumerate(loops)]
        lines += _indent(inner, len(loops)) + [f"return {self.exhausted}, None"]
        call = self._function(name, names, lines)
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
                    value = int(self.model.constant(node.index).index)
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
                    k = 0
                    while isinstance(node, FuncApp) and (node.letter, node.arity) == sig:
                        node, k = node.args[0], k + 1
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
                work.append((self._implication, 2))
                work.append(("visit", node.consequent, scope, enclosing))
                work.append(("visit", node.antecedent, scope, enclosing))
            elif isinstance(node, ForAll):
                name = "_root" if node is w else f"_u{next(self.fresh)}"
                variables, loops, scope = [], [], dict(scope)
                while isinstance(node, ForAll) and len(loops) < _MAX_CHAIN:
                    loop = f"v{next(self.fresh)}"
                    variables.append(node.var)
                    loops.append(loop)
                    scope[node.var] = loop
                    node = node.body
                work.append((self._universal, 1, tuple(variables), tuple(loops),
                             enclosing, name))
                work.append(("visit", node, scope, enclosing + len(loops)))
            else:
                # is_core admits only the formulas above, so this is a term
                out.append(self._raiser(f"not a term: {node!r}"))
        (top,) = out
        return top


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
    once.  Variables are plain element indices in locals.  A
    quantifier-free subformula is one short-circuit expression, with the
    default successor, sum and product inlined as ``+ 1``, ``+`` and
    ``*`` and overriding index functions called.  A universal is a loop
    that returns its first counterexample; one that does not depend on
    an enclosing quantifier's variable is memoized on its free variables
    for the rest of the call.  Evaluation order is the formula's, so an
    uninterpretable symbol raises ModelError only when reached.  Code
    nested deeper than Python's compiler allows is split into functions;
    a formula whose functions would nest past the interpreter's recursion
    limit (some thousands of universals deep) raises ModelError.
    """
    if not is_core(w):
        raise ModelError("eval_bounded takes core wffs; apply lower() first")
    if bound < 0:
        raise ModelError("bound must be >= 0")
    scope = {name: model.decode(value if isinstance(value, CodedNat) else model.encode(value))
             for name, value in (env or {}).items()}
    missing = free_vars(w) - scope.keys()
    if missing:
        names = ", ".join(f"x{i}" for i in sorted(missing))
        raise ModelError(f"unbound free variables: {names}")

    compiler = _Compiler(model, bound, domain_cutoff)
    source, free = compiler.source(w)
    ns = compiler.ns
    try:
        exec(compile(source, "<eval_bounded>", "exec"), ns)
        result = ns["_root"](*(scope[i] for i in free))
    except RecursionError:
        # each chain of universals and each split-off block is one call
        # of the generated code, so thousands of them nest too deeply
        raise ModelError("formula nested too deeply to evaluate") from None
    finally:
        ns.clear()  # the generated functions and memo tables refer to ns
    truth, witness = (result, None) if isinstance(result, bool) else result
    if truth is None:
        return _UNKNOWN
    if witness:
        return EvalResult(ThreeValued.TRUE if truth else ThreeValued.FALSE, witness)
    return _TRUE if truth else _FALSE


# ---------------------------------------------------------------------------
# axiom reports


# N1..N6 in order
_N_AXIOMS = tuple(kernel.build_theory_N().axioms().items())


@dataclass
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
    """
    return [AxiomCheck(name, eval_bounded(model, wff, {},
                                          bound=bound, domain_cutoff=domain_cutoff))
            for name, wff in _N_AXIOMS]


# ---------------------------------------------------------------------------
# limit behavior in u


@dataclass(frozen=True)
class LimitRow:
    alpha: int
    u: Fraction
    n: int
    psi: Fraction
    deviation: Fraction


def limit_table(alpha: int, n_max: int, u_sequence: Sequence) -> list:
    """Deviations |psi(n) - n| for each u in a sequence decreasing toward 1.

    The deviation at n is exactly b_n * (u - 1) where b_n counts the
    u-slope intervals below n, so rows are exact rationals: nonincreasing
    along the sequence and identically 0 at u = 1.
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
            units, uslopes = coding.slope_counts(n)
            psi = units + uslopes * u
            rows.append(LimitRow(alpha, u, n, psi, uslopes * (u - 1)))
    return rows


def _sig12(x: Fraction) -> str:
    return f"{float(x):.12g}"


def limit_table_csv(rows: Sequence) -> str:
    lines = ["alpha,u,n,psi,deviation"]
    lines.extend(
        f"{r.alpha},{_sig12(r.u)},{r.n},{_sig12(r.psi)},{_sig12(r.deviation)}"
        for r in rows)
    return "\n".join(lines) + "\n"
