"""Parser edge cases: each input with its recorded outcome.

The outcomes were recorded before the parser learned to skip equality
attempts that cannot succeed, and the rows on successor chains before the
lexer read a run of ``S(`` or of ``)`` as one token.  An outcome is the ``repr`` of the parsed
node, or the error message followed by ``@`` and the error position.

The table needs nothing beyond the standard library, so it also runs on
an interpreter without the test dependencies, such as the Python 3.10
floor of ``requires-python``; the front end imports no numpy::

    python3.10 tests/parse_edge_cases.py
"""

import importlib.util
import os
import sys

_DEEP_CHAIN = "S(" * 2000 + "0" + ")" * 1999     # one ')' short
_CONST_0 = "Const(index=1)"
_X1_EQ_0 = "Atom(letter=1, arity=2, terms=(Var(index=1), Const(index=1)))"
_X2_EQ_0 = "Atom(letter=1, arity=2, terms=(Var(index=2), Const(index=1)))"
_X1_PLUS_0 = "FuncApp(letter=1, arity=2, args=(Var(index=1), Const(index=1)))"
_S_0 = f"FuncApp(letter=1, arity=1, args=({_CONST_0},))"
_SS_0 = f"FuncApp(letter=1, arity=1, args=({_S_0},))"
_S_X1 = "FuncApp(letter=1, arity=1, args=(Var(index=1),))"
_SS_X1 = f"FuncApp(letter=1, arity=1, args=({_S_X1},))"
PARSE_EDGE_CASES = [
    ("wff", "(x1 = 0 -> x2 = 0)",
     f"Implies(antecedent={_X1_EQ_0}, consequent={_X2_EQ_0})"),
    ("wff", "((x1 = 0) -> (x2 = 0))",
     f"Implies(antecedent={_X1_EQ_0}, consequent={_X2_EQ_0})"),
    ("wff", "(x1 + 0) = x1",
     f"Atom(letter=1, arity=2, terms=({_X1_PLUS_0}, Var(index=1)))"),
    ("wff", "((x1 + 0) = x1)",
     f"Atom(letter=1, arity=2, terms=({_X1_PLUS_0}, Var(index=1)))"),
    ("wff", "(((x1 + 0) * x2) = 0)",
     f"Atom(letter=1, arity=2, terms=(FuncApp(letter=2, arity=2, args=({_X1_PLUS_0}, "
     f"Var(index=2))), {_CONST_0}))"),
    ("wff", "(x1 = 0 & (x2 + 0) = x2)",
     f"And(left={_X1_EQ_0}, right=Atom(letter=1, arity=2, terms=(FuncApp(letter=1, "
     f"arity=2, args=(Var(index=2), {_CONST_0})), Var(index=2))))"),
    ("wff", "(ex x2 (x2 + x2) = S(S(0)))",
     "Exists(var=2, body=Atom(letter=1, arity=2, terms=(FuncApp(letter=1, arity=2, "
     "args=(Var(index=2), Var(index=2))), FuncApp(letter=1, arity=1, args=(FuncApp("
     f"letter=1, arity=1, args=({_CONST_0},)),)))))"),
    ("wff", "~(all x1 ~(x1 = 0))",
     f"Not(body=ForAll(var=1, body=Not(body={_X1_EQ_0})))"),
    ("wff", "((x1 + ) = 0)", "expected '=', found '+' (at position 5) @5"),
    ("wff", "((x1 = 0)", "unexpected end of input (at position 9) @9"),
    ("wff", "(x1 = 0))", "unexpected trailing input ')' (at position 8) @8"),
    ("wff", "(x1 = 0", "unexpected end of input (at position 7) @7"),
    ("wff", "(x1 = )", "expected a term, found ')' (at position 6) @6"),
    ("wff", "(x1 + 0)", "expected '=', found '+' (at position 4) @4"),
    ("wff", ")(", "expected a formula, found ')' (at position 0) @0"),
    ("wff", "(all x1 x1 = 0 -> x1 = 0)",
     "expected ')', found '->' (at position 15) @15"),
    ("wff", "(", "expected a formula (at position 1) @1"),
    ("wff", " \t\n ", "expected a formula (at position 4) @4"),
    ("wff", "", "expected a formula (at position 0) @0"),
    ("wff", "(x1 = 0 -> (x2 = 0 | ~x3 = 0)) $",
     "unexpected character '$' (at position 31) @31"),
    ("wff", "(all x1 ((x1 + 0) = x1 -> (x1 * 0) = 0 # x2 = 0))",
     "unexpected character '#' (at position 39) @39"),
    ("wff", "S(S(S(0 $))) = 0", "unexpected character '$' (at position 8) @8"),
    ("wff", "S(S(S(0))) = S(S(#S(0)))", "unexpected character '#' (at position 17) @17"),
    ("term", "S(S(@", "unexpected character '@' (at position 4) @4"),
    ("term", "(x1 = 0)", "expected '+' or '*', found '=' (at position 4) @4"),
    ("wff", _DEEP_CHAIN + " = 0", "expected ')', found '=' (at position 6001) @6001"),
    ("wff", f"({_DEEP_CHAIN} = 0)", "expected ')', found '=' (at position 6002) @6002"),
    ("term", _DEEP_CHAIN, "unexpected end of input (at position 6000) @6000"),
    # successor chains: runs of "S(" and of ")", a ")" run shared with the
    # enclosing term or formula, and faults inside a run
    ("term", "S(0))", "unexpected trailing input ')' (at position 4) @4"),
    ("wff", "S(0))", "expected '=', found ')' (at position 4) @4"),
    ("term", "S(S(0)", "unexpected end of input (at position 6) @6"),
    ("term", "S (S( 0 ) )", _SS_0),
    ("term", "S(S(x1 + 0))", "expected ')', found '+' (at position 7) @7"),
    ("term", "SS(0)", "expected a term, found 'SS' (at position 0) @0"),
    ("term", "S()", "expected a term, found ')' (at position 2) @2"),
    ("term", "S(", "expected a term (at position 2) @2"),
    ("term", "S(S(S(0)) )  )", "unexpected trailing input ')' (at position 13) @13"),
    ("term", "f{1,1}(S(S(x1)))", f"FuncApp(letter=1, arity=1, args=({_SS_X1},))"),
    ("term", "S S(0)", "expected '(', found 'S' (at position 2) @2"),
    ("wff", "(x1 = S(S(0)))", f"Atom(letter=1, arity=2, terms=(Var(index=1), {_SS_0}))"),
    ("wff", "((x1 = S(0)) -> (S(0) = x1))",
     f"Implies(antecedent=Atom(letter=1, arity=2, terms=(Var(index=1), {_S_0})), "
     f"consequent=Atom(letter=1, arity=2, terms=({_S_0}, Var(index=1))))"),
    ("wff", "~(S(S(0)) = S(0)))", "unexpected trailing input ')' (at position 17) @17"),
    ("wff", "(S(S(x1)) + S(0)) = 0",
     f"Atom(letter=1, arity=2, terms=(FuncApp(letter=1, arity=2, args=({_SS_X1}, {_S_0})), "
     f"{_CONST_0}))"),
    ("wff", "((S(S(0)) = x1) -> (x1 = 0))",
     f"Implies(antecedent=Atom(letter=1, arity=2, terms=({_SS_0}, Var(index=1))), "
     f"consequent={_X1_EQ_0})"),
    ("wff", "(S(S(0)) = S(0) -> x1 = 0)",
     f"Implies(antecedent=Atom(letter=1, arity=2, terms=({_SS_0}, {_S_0})), "
     f"consequent={_X1_EQ_0})"),
    ("wff", "S(S(S(0)) = 0", "expected ')', found '=' (at position 10) @10"),
    ("wff", "(x1 = S(S(0)))))", "unexpected trailing input ')' (at position 14) @14"),
    ("wff", "S( S(0 ) ) ) = 0", "expected '=', found ')' (at position 11) @11"),
    ("wff", "((x1 = S(0)) -> (S(0) = x1)", "unexpected end of input (at position 27) @27"),
    ("wff", "(S(S(x1 + 0)) = 0)", "expected ')', found '+' (at position 8) @8"),
    ("wff", "(S(S(0)) + )", "expected '=', found '+' (at position 9) @9"),
    ("wff", "S(S(0)) = S(S(0)", "unexpected end of input (at position 16) @16"),
    ("wff", "(x1 S(0))", "expected '=', found 'S' (at position 4) @4"),
    ("wff", "x1 = 0 S(0)", "unexpected trailing input 'S' (at position 7) @7"),
    ("wff", "(S(0) = S(S(0)) & ~S(0) = 0)",
     f"And(left=Atom(letter=1, arity=2, terms=({_S_0}, {_SS_0})), "
     f"right=Not(body=Atom(letter=1, arity=2, terms=({_S_0}, {_CONST_0}))))"),
    ("wff", "(all x1 (S(x1) = S( S(x1) )) )",
     f"ForAll(var=1, body=Atom(letter=1, arity=2, terms=({_S_X1}, {_SS_X1})))"),
]


def parse_outcome(syntax, kind, text):
    """The outcome of parsing ``text`` as a ``kind`` ("wff" or "term")."""
    parse = syntax.parse_wff if kind == "wff" else syntax.parse_term
    try:
        return repr(parse(text))
    except syntax.ParseError as exc:
        return f"{exc} @{exc.pos}"


def _load_syntax():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src", "foarith", "syntax.py")
    spec = importlib.util.spec_from_file_location("syntax", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules["syntax"] = module
    spec.loader.exec_module(module)
    return module


if __name__ == "__main__":
    syntax = _load_syntax()
    bad = [(kind, text) for kind, text, expected in PARSE_EDGE_CASES
           if parse_outcome(syntax, kind, text) != expected]
    for kind, text in bad:
        print(f"differs: {kind} {text[:60]!r}")
    print(f"Python {sys.version.split()[0]}: {len(PARSE_EDGE_CASES) - len(bad)} of "
          f"{len(PARSE_EDGE_CASES)} parser edge cases as recorded")
    sys.exit(1 if bad else 0)
