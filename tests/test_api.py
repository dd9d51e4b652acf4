"""Public-name hygiene, and the behaviour every result record shares."""

import ast
import importlib
import itertools
import pkgutil
from dataclasses import FrozenInstanceError
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import benchmark_module
import foarith
from foarith import syntax
from foarith.kernel import (
    MP,
    DiscoveryResult,
    Gen,
    LineVerdict,
    Proof,
    ProofLine,
    ProperAxiom,
    Scheme,
    SchemeId,
    SchemeMatch,
    Theory,
    Unknown,
    Verdict,
    build_theory_K,
)
from foarith.models import (
    AxiomCheck,
    CodingFunction,
    EvalResult,
    LimitRow,
    ModelError,
    ThreeValued,
)
from foarith.syntax import ZERO, AnyTerm, NoMatch, Var, Witness, eq

# __main__ runs the CLI on import
MODULES = sorted(m.name for m in pkgutil.iter_modules(foarith.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist(name):
    module = importlib.import_module(f"foarith.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"foarith.{name}.__all__ lists missing names {missing}"


def _reexports():
    tree = ast.parse(Path(foarith.__file__).read_text(encoding="utf-8"))
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


def test_package_reexports_resolve():
    reexports = _reexports()
    assert reexports
    for module_name, name in reexports:
        module = importlib.import_module(f"foarith.{module_name}")
        assert name in module.__all__, f"{name} is not public in foarith.{module_name}"
        assert getattr(foarith, name) is getattr(module, name)


def test_benchmark_span_targets_resolve():
    # A renamed attribute would silently zero the benchmark's per-layer metric.
    for name, targets, _, _ in benchmark_module("tracing").SPANS:
        for target in targets:
            module_name, path = target.split(":")
            owner = importlib.import_module(module_name)
            for part in path.split("."):
                owner = getattr(owner, part, None)
            assert callable(owner), f"span {name}: {target} does not resolve"


def _records():
    """Every class in the package that ``syntax._record`` made."""
    return {cls for name in MODULES
            for cls in vars(importlib.import_module(f"foarith.{name}")).values()
            if isinstance(cls, type) and not issubclass(cls, syntax._Node)
            and cls.__dict__.get("__setattr__") is syntax._refuse_set}


def test_records_behave_as_frozen_dataclasses():
    w = eq(Var(1), ZERO)
    line = ProofLine(w, ProperAxiom("N1"))
    theory = Theory("T", None, frozenset(), ())
    unknown = EvalResult(ThreeValued.UNKNOWN)
    half = Fraction(3, 2)
    # each record with its field values and its repr
    cases = [
        (Theory, ("T", None, frozenset(), ()),
         "Theory(name='T', parent=None, schemes=frozenset(), own_axioms=())"),
        (SchemeMatch, (SchemeId.K1, {"A": w}),
         f"SchemeMatch(scheme=<SchemeId.K1: 'K1'>, parts=mappingproxy({{'A': {w!r}}}))"),
        (Scheme, (SchemeId.K4,), "Scheme(scheme=<SchemeId.K4: 'K4'>)"),
        (ProperAxiom, ("N1",), "ProperAxiom(name='N1')"),
        (MP, (1, 2), "MP(i=1, j=2)"),
        (Gen, (1, 2), "Gen(i=1, var=2)"),
        (Unknown, (), "Unknown()"),
        (ProofLine, (w, ProperAxiom("N1")),
         f"ProofLine(wff={w!r}, justification=ProperAxiom(name='N1'))"),
        (Proof, (theory, (line,)), f"Proof(theory={theory!r}, lines=({line!r},))"),
        (LineVerdict, (1, True, None), "LineVerdict(line=1, ok=True, reason=None)"),
        (Verdict, (False, (LineVerdict(3, False, "no"),)),
         "Verdict(accepted=False, per_line=(LineVerdict(line=3, ok=False, reason='no'),))"),
        (DiscoveryResult, (None, (LineVerdict(3, False, "no"),)),
         "DiscoveryResult(proof=None, failures=(LineVerdict(line=3, ok=False, reason='no'),))"),
        (CodingFunction, (18, half), "CodingFunction(alpha=18, u=Fraction(3, 2))"),
        (EvalResult, (ThreeValued.FALSE, {1: 3}),
         "EvalResult(truth=<ThreeValued.FALSE: 'false'>, witness={1: 3})"),
        (AxiomCheck, ("N1", unknown),
         "AxiomCheck(axiom='N1', result=EvalResult(truth=<ThreeValued.UNKNOWN: 'unknown'>, "
         "witness=None))"),
        (LimitRow, (18, half, 2, Fraction(5, 2), Fraction(1, 2)),
         "LimitRow(alpha=18, u=Fraction(3, 2), n=2, psi=Fraction(5, 2), "
         "deviation=Fraction(1, 2))"),
        (Witness, (Var(1),), "Witness(term=Var(index=1))"),
        (AnyTerm, (), "AnyTerm()"),
        (NoMatch, (), "NoMatch()"),
    ]
    assert {cls for cls, _, _ in cases} == _records()
    assert len(cases) == 19
    for cls, values, shown in cases:
        record = cls(*values)
        assert repr(record) == shown
        assert cls.__match_args__ == tuple(cls.__annotations__)
        assert tuple(getattr(record, f) for f in cls.__match_args__) == values
        assert cls(**dict(zip(cls.__match_args__, values))) == record
        try:
            expected = hash(values)
        except TypeError:           # a dict or list field: no hash, as for the tuple
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected
        for name in (*cls.__match_args__[:1], "other"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 0)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert tuple(getattr(record, f) for f in cls.__match_args__) == values
    # equal fields of different classes are different values
    assert MP(1, 2) != Gen(1, 2) and MP(1, 2) == MP(1, 2) and AnyTerm() != NoMatch()
    assert MP(1, 2).__eq__((1, 2)) is NotImplemented
    assert MP(1, 2) != MP(2, 1)
    # defaults, and the checks __post_init__ still makes
    assert LineVerdict(1, True) == LineVerdict(line=1, ok=True, reason=None)
    assert EvalResult(ThreeValued.UNKNOWN).witness is None
    with pytest.raises(ValueError, match="at least one line"):
        Proof(build_theory_K(), [])
    assert Proof(build_theory_K(), [line]).lines == (line,)    # a list becomes a tuple
    with pytest.raises(ModelError, match="alpha=20 is not an admissible even"):
        CodingFunction(20, Fraction(1))
    with pytest.raises(ModelError, match="u must be >= 1"):
        CodingFunction(18, Fraction(1, 2))
    with pytest.raises(TypeError):
        MP(1)


# The f-strings that may repeat a value by its repr (``!r``) rather than
# through ``syntax._shown``: (module, function, the message's text before
# its first value), each with the reason no outside text reaches it.  A
# ``raise TypeError(...)`` is allowed too: it names an object of the wrong
# type, and outside text is always a str.
_REPR_ALLOWED = {
    ("syntax", "_record", "_set(self, "): "a field name of the program's own source",
    ("syntax", "_refuse_set", "cannot assign to field "): "a field name the program made",
    ("syntax", "_refuse_delete", "cannot delete field "): "a field name the program made",
    ("arith", "decode_numeral", "not a numeral: ends in "):
        "a term that only a library caller passes",
    ("kernel", "match_scheme", "unknown scheme "): "a scheme that only a library caller passes",
    ("kernel", "_check_line", "unrecognized justification "):
        "a justification that only a library caller builds; a file's are read by proofio",
    ("proofio", "format_justification", "unrecognized justification "):
        "a justification that only a library caller builds",
    ("proofio", "format_proof", "theory "): "a theory that only a library caller builds",
    ("models", "_to_fraction", "cannot interpret "):
        "an object that is no str, int or float, which only a library caller passes",
}


def _repr_sites(path: Path):
    """(module, function, text before the first value, line) of each f-string
    ``!r`` in the file, outside ``raise TypeError(...)``."""
    def visit(node, function, type_error):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                yield from visit(child, child.name, False)
                continue
            raised = isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call) \
                and getattr(child.exc.func, "id", None) == "TypeError"
            if isinstance(child, ast.FormattedValue) and child.conversion == ord("r") \
                    and not type_error:
                prefix = "".join(v.value for v in itertools.takewhile(
                    lambda v: isinstance(v, ast.Constant), node.values))
                yield path.stem, function, prefix, child.lineno
            yield from visit(child, function, type_error or raised)
    yield from visit(ast.parse(path.read_text(encoding="utf-8")), None, False)


def test_every_repr_in_a_message_goes_through_the_one_rule():
    # a value from outside (a file, an argument) is shown by syntax._shown,
    # which keeps any message short; a !r repeats it whole
    package = Path(foarith.__file__).parent
    sites = [site for path in sorted(package.glob("*.py")) for site in _repr_sites(path)]
    assert sites, "the walk found no f-string !r at all"
    stray = [site for site in sites if site[1] != "_shown" and site[:3] not in _REPR_ALLOWED]
    assert not stray, f"f-string !r outside syntax._shown: {stray}"
    unused = set(_REPR_ALLOWED) - {site[:3] for site in sites}
    assert not unused, f"allowed sites that no longer exist: {unused}"
