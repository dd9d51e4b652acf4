"""Numerals and arithmetic formula builders.

Everything here emits core formulas (abbreviations already lowered) with
a deterministic choice of bound variables, so the output is reproducible
byte for byte across runs.  Bound variables are the smallest indices not
in the caller's avoid set and distinct from the formula's free variable.
"""

from __future__ import annotations

from typing import Iterable

from .syntax import (
    And,
    Exists,
    ForAll,
    Implies,
    Not,
    Or,
    SurfaceWff,
    Term,
    Var,
    Wff,
    ZERO,
    eq,
    lower,
    plus,
    succ,
    times,
    _tower,
)

__all__ = [
    "numeral", "decode_numeral",
    "prime_wff", "admissible_wff", "goldbach_sentence",
]


def numeral(n: int) -> Term:
    """The term S(S(...S(0)...)) with n successors."""
    if n < 0:
        raise ValueError("numerals denote naturals only")
    t: Term = ZERO
    for _ in range(n):
        t = succ(t)
    return t


def decode_numeral(t: Term) -> int:
    """Inverse of :func:`numeral`; rejects anything but a successor tower."""
    n, base = _tower(t)
    if base != ZERO:
        raise ValueError(f"not a numeral: ends in {base!r}")
    return n


def _fresh(avoid: set, count: int) -> list:
    out = []
    i = 1
    while len(out) < count:
        if i not in avoid:
            out.append(i)
        i += 1
    return out


def _conj(parts: list) -> SurfaceWff:
    # right fold: c1 & (c2 & (... & cn))
    w = parts[-1]
    for part in reversed(parts[:-1]):
        w = And(part, w)
    return w


def _prime_surface(v: int, avoid: set) -> SurfaceWff:
    a, b = _fresh(avoid | {v}, 2)
    x = Var(v)
    one = succ(ZERO)
    divisors = ForAll(a, ForAll(b, Implies(
        eq(times(Var(a), Var(b)), x),
        Or(eq(Var(a), one), eq(Var(a), x)))))
    return _conj([Not(eq(x, ZERO)), Not(eq(x, one)), divisors])


def prime_wff(v: int, avoid: Iterable = ()) -> Wff:
    """Core formula with exactly {v} free saying x_v is prime.

    Shape: v != 0, v != 1, and every factorization a*b = v has a = 1 or
    a = v.  ``avoid`` reserves extra indices so nested uses can keep their
    bound variables above the enclosing ones.
    """
    return lower(_prime_surface(v, set(avoid)))


def _admissible_surface(v: int, avoid: set) -> SurfaceWff:
    avoid = avoid | {v}
    x = Var(v)
    (b,) = _fresh(avoid, 1)
    even = Exists(b, eq(plus(Var(b), Var(b)), x))
    at_least_16 = Exists(b, eq(plus(Var(b), numeral(16)), x))
    half_composite = Exists(b, And(
        eq(plus(Var(b), Var(b)), x),
        Not(_prime_surface(b, avoid | {b}))))
    less3_composite = Exists(b, And(
        eq(plus(Var(b), numeral(3)), x),
        Not(_prime_surface(b, avoid | {b}))))
    return _conj([even, at_least_16, half_composite, less3_composite])


def admissible_wff(v: int, avoid: Iterable = ()) -> Wff:
    """Core formula with exactly {v} free: x_v is an admissible even.

    The four conjuncts say x_v is even, at least 16, has a composite half,
    and has a composite predecessor by 3.  The language has no symbols for
    order, subtraction or division, so "at least 16" becomes "some b with
    b + 16 = v", the half comes from "some b with b + b = v", and "v - 3"
    from "some b with b + 3 = v".
    """
    return lower(_admissible_surface(v, set(avoid)))


def goldbach_sentence(classical: bool = False) -> Wff:
    """The closed formula: every admissible even is a sum of two primes.

    Variable choice is fixed: the even is x1, the two primes are x2 and
    x3, and every inner bound variable sits above index 3.  With
    ``classical`` the antecedent relaxes to "even and at least 3", which
    together with evenness covers every even number greater than 2.
    """
    avoid = {1, 2, 3}
    x1 = Var(1)
    if classical:
        (b,) = _fresh(avoid, 1)
        antecedent = And(
            Exists(b, eq(plus(Var(b), Var(b)), x1)),
            Exists(b, eq(plus(Var(b), numeral(3)), x1)))
    else:
        antecedent = _admissible_surface(1, avoid - {1})
    consequent = Exists(2, Exists(3, _conj([
        _prime_surface(2, avoid),
        _prime_surface(3, avoid),
        eq(plus(Var(2), Var(3)), x1)])))
    return lower(ForAll(1, Implies(antecedent, consequent)))
