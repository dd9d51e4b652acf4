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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

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
    the arithmetic axioms hold by construction.
    """

    def __init__(self, coding: CodingFunction, *,
                 succ_index=None, add_index=None, mul_index=None):
        self.coding = coding
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

_MISSING = object()


def _merge(a: Optional[dict], b: Optional[dict]) -> Optional[dict]:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    out.update(b)
    return out


def _raising(message: str):
    """A closure that raises when evaluated, so uninterpretable symbols
    fail only where evaluation reaches them."""
    def fail():
        raise ModelError(message)
    return fail


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

    The formula is compiled once per call into nested closures over a
    scope of plain element indices.  Terms call the model's successor,
    sum and product index functions directly; CodedNat appears only at
    the API boundary, in ``env``, and witnesses are indices.
    Uninterpretable symbols compile to closures that raise, so they fail
    only when evaluation reaches them.
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

    domain = range(bound + 1)
    exhausted = _TRUE if domain_cutoff else _UNKNOWN
    ops = {(1, 1): model._succ, (1, 2): model._add, (2, 2): model._mul}
    true_ = ThreeValued.TRUE
    false_ = ThreeValued.FALSE

    def term(t):
        if isinstance(t, Var):
            i = t.index
            return lambda: scope[i]
        if isinstance(t, Const):
            try:
                value = model.constant(t.index).index
            except ModelError as exc:
                return _raising(str(exc))
            return lambda: value
        if isinstance(t, FuncApp):
            op = ops.get((t.letter, t.arity))
            if op is None:
                return _raising(
                    f"function letter f{{{t.letter},{t.arity}}} has no interpretation")
            if t.arity == 1:
                arg = term(t.args[0])
                return lambda: op(arg())
            left, right = term(t.args[0]), term(t.args[1])
            return lambda: op(left(), right())
        return _raising(f"not a term: {t!r}")

    def formula(w: Wff):
        if isinstance(w, Atom):
            if (w.letter, w.arity) != (1, 2):
                return _raising(
                    f"predicate letter A{{{w.letter},{w.arity}}} has no interpretation")
            left, right = term(w.terms[0]), term(w.terms[1])
            return lambda: _TRUE if left() == right() else _FALSE
        if isinstance(w, Not):
            body = formula(w.body)

            def negation() -> EvalResult:
                r = body()
                if r.truth is true_:
                    return EvalResult(false_, r.witness) if r.witness else _FALSE
                if r.truth is false_:
                    return EvalResult(true_, r.witness) if r.witness else _TRUE
                return _UNKNOWN
            return negation
        if isinstance(w, Implies):
            antecedent, consequent = formula(w.antecedent), formula(w.consequent)

            def implication() -> EvalResult:
                a = antecedent()
                if a.truth is false_:
                    return EvalResult(true_, a.witness) if a.witness else _TRUE
                b = consequent()
                if b.truth is true_:
                    return EvalResult(true_, b.witness) if b.witness else _TRUE
                if a.truth is true_ and b.truth is false_:
                    merged = _merge(a.witness, b.witness)
                    return EvalResult(false_, merged) if merged else _FALSE
                return _UNKNOWN
            return implication
        if isinstance(w, ForAll):
            v = w.var
            body = formula(w.body)

            def universal() -> EvalResult:
                saved = scope.get(v, _MISSING)
                result = exhausted
                for n in domain:
                    scope[v] = n
                    r = body()
                    if r.truth is false_:
                        result = EvalResult(false_, _merge({v: n}, r.witness))
                        break
                if saved is _MISSING:
                    del scope[v]
                else:
                    scope[v] = saved
                return result
            return universal
        return _raising(f"not a core formula: {w!r}")

    return formula(w)()


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
